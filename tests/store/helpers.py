"""Read what a state store put on its medium, for journal assertions."""

import contextlib
import json
import sqlite3

from repro.store import SqliteStore


def journaled_reports(store):
    """The report rows a SQLite or memory store's journal holds, in order.

    SQLite is read through a fresh connection, so only committed rows
    count, and it keeps every row; a memory store drops the records a
    checkpoint folded in.
    """
    if isinstance(store, SqliteStore):
        with contextlib.closing(sqlite3.connect(store.path)) as reader:
            return [json.loads(row) for (row,) in reader.execute(
                "SELECT row FROM journal WHERE kind = 'report' "
                "ORDER BY seq")]
    return [row for kind, row in store._records if kind == "report"]
