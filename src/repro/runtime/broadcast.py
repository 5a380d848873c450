"""Digest-keyed broadcast: ship shared objects to workers once, not per shard.

Before this module, every shard payload carried its own pickled copy of
the objects all shards share — the evaluated :class:`~repro.data.database.
Database` behind an indicator matrix, the model triple behind a served
micro-batch — and every worker rebuilt indexes from cold.  A7/A8 measured
the result: "parallel" runs slower than serial.

The broadcast protocol (DESIGN.md §3.15) ships each object one way only:

- The **parent** (:meth:`~repro.runtime.executor.ParallelExecutor.
  broadcast`) registers an object once under its content digest
  (:meth:`Database.digest() <repro.data.database.Database.digest>`, a
  model checksum, or a hash of the pickled bytes), pickles it once, and
  from then on puts only a :class:`BroadcastRef` — the digest plus those
  bytes — into shard payloads.
- A **worker** resolves a ref through its process-resident cache: a hit
  returns the pinned object (index already built) and ignores the bytes;
  a miss unpickles the ref's bytes once, builds the
  :class:`~repro.data.database.DatabaseIndex` eagerly, pins the result,
  and never unpickles that digest again.
- Under the ``fork`` start method the parent *seeds* its own resident
  cache before the pool starts, so forked workers inherit the pinned
  objects — and their built indexes and compiled plans — copy-on-write:
  their first resolve is already a hit.  Every worker also resolves the
  refs registered before its pool started in its initializer, so spawned
  workers hold those objects before their first shard too.

Hits and misses are counted per process; :func:`snapshot` exposes them so
:func:`~repro.runtime.tasks.instrumented` can report per-shard deltas and
executors can aggregate pool-wide ``broadcast_hits``/``broadcast_misses``
in :meth:`~repro.runtime.executor.Executor.work_done`.  "Zero per-shard
database pickles" is then checkable: misses are bounded by
``workers × objects``, never by shard count.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Any, Dict, NamedTuple, Optional

from repro.data.database import Database
from repro.exceptions import ReproError

__all__ = [
    "BroadcastRef",
    "RESIDENT_CAP",
    "resolve",
    "seed",
    "snapshot",
    "resident_digests",
    "clear_resident",
]

#: Resident objects pinned per worker process.  Bounds worker memory when
#: a long-lived pool sees many distinct broadcast objects.
RESIDENT_CAP = 8

# Worker-resident state.  Under fork this dict is inherited from the
# parent (copy-on-write) — which is exactly the zero-copy seeding path —
# and the counters are only ever read as deltas, so inherited absolute
# values are harmless.
_RESIDENT: "OrderedDict[str, Any]" = OrderedDict()
_MISSING = object()
_hits = 0
_misses = 0


class BroadcastRef(NamedTuple):
    """A picklable pointer to a broadcast object — the payload-side handle.

    ``data`` is the parent's one pickle of the object.  A worker that
    already holds ``digest`` never looks at it.
    """

    digest: str
    data: Optional[bytes]


def snapshot() -> Dict[str, int]:
    """Cumulative resolve counters for this process (delta-read them)."""
    return {"broadcast_hits": _hits, "broadcast_misses": _misses}


def resident_digests() -> tuple:
    """Digests currently pinned in this process, LRU order (tests)."""
    return tuple(_RESIDENT)


def seed(digest: str, obj: Any) -> None:
    """Pin an already-materialized object without counting a resolve.

    The parent calls this at broadcast time, before the pool (possibly)
    forks: forked workers inherit the pinned object and resolve it as a
    hit, and the parent's own serial-fallback path resolves locally
    without unpickling anything.
    """
    _pin(digest, obj)


def resolve(ref: Any) -> Any:
    """The worker-side fetch: refs resolve, everything else passes through.

    Tasks call this on every payload slot that may be broadcast, so one
    task body serves ref-carrying and plain payloads alike (the serial
    executor ships plain objects).
    """
    global _hits, _misses
    if not isinstance(ref, BroadcastRef):
        return ref
    obj = _RESIDENT.get(ref.digest, _MISSING)
    if obj is not _MISSING:
        _RESIDENT.move_to_end(ref.digest)
        _hits += 1
        return obj
    if ref.data is None:
        raise ReproError(
            f"broadcast ref {ref.digest} is not resident here and carries "
            f"no bytes"
        )
    _misses += 1
    obj = pickle.loads(ref.data)
    if isinstance(obj, Database):
        obj.index  # a miss pays once; every later shard is warm
    _pin(ref.digest, obj)
    return obj


def _pin(digest: str, obj: Any) -> None:
    _RESIDENT[digest] = obj
    _RESIDENT.move_to_end(digest)
    while len(_RESIDENT) > RESIDENT_CAP:
        _RESIDENT.popitem(last=False)


def clear_resident() -> None:
    """Drop every pinned object (tests)."""
    _RESIDENT.clear()
