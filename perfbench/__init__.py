"""Whole-pipeline benchmark of the genomics warehouse (see BENCHMARK.json)."""
