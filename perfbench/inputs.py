"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own work: it simulates the reference,
the gene annotation and one lane of reads from ``--seed`` with the
repository's simulators, and it is never timed. The engine receives only
the generated records.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.genomics.fasta import FastaRecord
from repro.genomics.fastq import FastqRecord, fastq_bytes
from repro.genomics.simulate import (
    GeneAnnotation,
    annotate_genes,
    generate_reference,
    simulate_dge_lane,
    simulate_resequencing_lane,
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload (all scaled together by ``--scale``)."""

    chromosomes: int
    chromosome_length: int
    genes: int
    reads: int

    def scaled(self, factor: float) -> "Sizes":
        if factor == 1.0:
            return self
        return Sizes(
            chromosomes=self.chromosomes,
            chromosome_length=max(int(self.chromosome_length * factor), 10_000),
            genes=max(int(self.genes * factor), 3),
            reads=max(int(self.reads * factor), 200),
        )


@dataclass
class Inputs:
    """One workload's simulated inputs plus the expectations the oracles
    derive from them without going through the engine."""

    kind: str  # "resequencing" or "dge"
    reference: List[FastaRecord]
    genes: List[GeneAnnotation]
    reads: List[FastqRecord]
    fastq_bytes: int
    #: Query 1's oracle: frequency of every read sequence without an ``N``
    tag_counts: Counter = field(default_factory=Counter)

    @property
    def sizes(self) -> Dict[str, int]:
        return {
            "chromosomes": len(self.reference),
            "reference_bases": sum(len(r.sequence) for r in self.reference),
            "genes": len(self.genes),
            "reads": len(self.reads),
            "fastq_bytes": self.fastq_bytes,
        }


def make_inputs(kind: str, sizes: Sizes, seed: int) -> Inputs:
    """Simulate a reference, genes and one lane of ``kind`` reads."""
    rng = random.Random(seed)
    reference = generate_reference(
        n_chromosomes=sizes.chromosomes,
        chromosome_length=sizes.chromosome_length,
        seed=rng.randrange(2**31),
    )
    genes = annotate_genes(
        reference, n_genes=sizes.genes, seed=rng.randrange(2**31)
    )
    lane_seed = rng.randrange(2**31)
    if kind == "dge":
        reads = list(
            simulate_dge_lane(reference, genes, sizes.reads, seed=lane_seed)
        )
    elif kind == "resequencing":
        reads = list(
            simulate_resequencing_lane(reference, sizes.reads, seed=lane_seed)
        )
    else:
        raise ValueError(f"unknown lane kind {kind!r}")
    return Inputs(
        kind=kind,
        reference=reference,
        genes=genes,
        reads=reads,
        fastq_bytes=len(fastq_bytes(reads)),
        tag_counts=Counter(r.sequence for r in reads if "N" not in r.sequence),
    )
