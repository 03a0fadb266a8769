"""Lightweight transactions: undo-logged inserts and FILESTREAM writes.

The paper's hybrid design leans on one property of FILESTREAM storage:
BLOB creation and the owning row are under *one* transactional scope, so
an aborted import leaves neither an orphan file nor a dangling row. This
module provides exactly that scope:

    with Transaction(db) as txn:
        txn.insert("ShortReadFiles", row_with_blob_bytes)
        ...          # raising here rolls back rows AND blob files

Undo granularity is the logical operation (row insert / blob create /
row delete), not pages — sufficient for the single-writer import
pipelines of a sequencing lab, and honest about what it is.
"""

from __future__ import annotations

import uuid
from typing import Any, List, Optional, Sequence, Tuple

from .errors import TransactionError


class Transaction:
    """An explicit transaction over a :class:`~repro.engine.Database`."""

    def __init__(self, database):
        self.database = database
        self._undo: List[Tuple[str, Any]] = []
        self._active = False

    # -- lifecycle --------------------------------------------------------------

    def begin(self) -> "Transaction":
        if self._active:
            raise TransactionError("transaction already active")
        self._active = True
        self._undo.clear()
        return self

    def commit(self) -> None:
        self._require_active()
        self._undo.clear()
        self._active = False

    def rollback(self) -> None:
        self._require_active()
        for action, payload in reversed(self._undo):
            if action == "insert":
                table, rid, row = payload
                # the row may own FILESTREAM blobs; _delete_rid removes them
                table._delete_rid(rid, row)
            elif action == "blob":
                store, guid = payload
                if store.exists(guid):
                    store.delete(guid)
            elif action == "delete":
                table, row = payload
                table.insert(row)
        self._undo.clear()
        self._active = False

    def _require_active(self) -> None:
        if not self._active:
            raise TransactionError("no active transaction")

    def __enter__(self) -> "Transaction":
        return self.begin()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._active:
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False

    # -- logged operations ----------------------------------------------------------

    def insert(self, table_name: str, row: Sequence[Any]):
        """Insert one row with undo logging."""
        self._require_active()
        table = self.database.catalog.table(table_name)
        rid = table.insert(row)
        stored = table.store.fetch(rid)
        self._undo.append(("insert", (table, rid, stored)))
        return rid

    def create_blob(self, data: bytes, guid: Optional[uuid.UUID] = None) -> uuid.UUID:
        """Store a FILESTREAM BLOB with undo logging."""
        self._require_active()
        store = self.database.filestream
        guid = store.create(data, guid)
        self._undo.append(("blob", (store, guid)))
        return guid

    def delete_where(self, table_name: str, predicate) -> int:
        """Delete matching rows with undo logging.

        Rows owning FILESTREAM blobs have their payloads captured before
        deletion so a rollback can re-create them (under fresh GUIDs).
        """
        self._require_active()
        table = self.database.catalog.table(table_name)
        store = self.database.filestream
        victims = [
            (rid, row) for rid, row in table.store.scan() if predicate(row)
        ]
        fs_columns = table._fs_columns
        for rid, row in victims:
            undo_row = list(row)
            for i in fs_columns:
                if undo_row[i] is not None:
                    guid = uuid.UUID(bytes=undo_row[i])
                    undo_row[i] = store.read_all(guid)
            table._delete_rid(rid, row)
            self._undo.append(("delete", (table, tuple(undo_row))))
        return len(victims)
