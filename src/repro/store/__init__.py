"""Durable verifier state: the ``repro.store`` persistence subsystem.

ERASMUS verifiers are meant to run unattended for the lifetime of a
deployment; the verifier's per-device record (enrollment key, healthy
digests, newest-seen timestamp) and its aggregate
:class:`~repro.fleet.FleetHealth` *are* the security state.  This
package makes that state durable behind one pluggable contract:

* :class:`StateStore` — journal enrollments and verification
  reports, checkpoint the verifier's state, restore after a restart.
  Every backend keeps a canonical snapshot plus one ordered journal
  of ``enrollment`` and ``report`` records, and every backend restores
  through the same replay; ``last_seen`` advances ride on the report
  rows, so a round writes no enrollment;
* :class:`MemoryStore` — the snapshot and journal in process memory
  (the zero-overhead default);
* :class:`JsonlStore` — atomic snapshot file plus write-ahead JSONL
  journal, crash-safe via ``os.replace``;
* :class:`SqliteStore` — single-file database: a ``journal`` table
  and the snapshot in a ``meta`` table.

Resume a deployment with::

    from repro.fleet import FleetVerifier
    from repro.store import JsonlStore

    store = JsonlStore("verifier-state/")
    verifier = FleetVerifier.restore(config, store)
    verifier.collect_all(transport)   # picks up where the crash left off
"""

from repro.store.base import (
    RestoredState,
    SNAPSHOT_VERSION,
    StateStore,
    StoreError,
    encode_snapshot,
    snapshot_document,
    state_from_snapshot,
)
from repro.store.jsonl import JsonlStore
from repro.store.memory import MemoryStore
from repro.store.sqlite import SqliteStore

__all__ = [
    "JsonlStore",
    "MemoryStore",
    "RestoredState",
    "SNAPSHOT_VERSION",
    "SqliteStore",
    "StateStore",
    "StoreError",
    "encode_snapshot",
    "snapshot_document",
    "state_from_snapshot",
]
