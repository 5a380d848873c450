"""Layer tracing from outside the program.

The benchmark never edits the program to trace it.  It replaces, for the
length of a traced run, the public functions and methods at each layer
boundary with wrappers that record a span around the original call:
name, start, end, parent span and request id.  Spans stay in memory and
are written out when the run ends.

Calls made hundreds of times per request (one engine evaluation per
feature query, one store lookup per answer) are *rolled up*: the wrapper
adds the call's duration to one aggregate node per (parent span, name)
instead of storing a span each, which keeps a traced gateway run to a
few megabytes while self times stay exact.

Times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans recorded in the gateway process and
in fork-pool workers share one time base with the benchmark process.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Body prefix every generated request starts with (see inputs.request_body).
_ID_PREFIX = b'{"id": "'


def body_request_id(body: Any) -> Optional[str]:
    """The request id of a generated body, read without parsing the JSON."""
    if isinstance(body, (bytes, bytearray)) and body.startswith(_ID_PREFIX):
        end = body.find(b'"', len(_ID_PREFIX))
        if end > 0:
            return body[len(_ID_PREFIX):end].decode("ascii", "replace")
    return None


class Recorder:
    """In-memory spans and roll-ups of one process, plus installed patches."""

    def __init__(self, worker_dir: Optional[str] = None) -> None:
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: List[dict] = []
        self.rollups: Dict[Tuple[Optional[int], str], List[Any]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------

    def new_id(self) -> int:
        return (os.getpid() << 32) | next(self._ids)

    def rollup_node(self, parent: Optional[int], name: str) -> List[Any]:
        key = (parent, name)
        with self._lock:
            node = self.rollups.get(key)
            if node is None:
                # [id, count, total seconds]
                node = self.rollups[key] = [self.new_id(), 0, 0.0]
            return node

    def reset_for_child(self) -> None:
        """Forget state inherited over ``fork``; this process starts empty."""
        self.pid = os.getpid()
        self.spans = []
        self.rollups = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def region(self, name: str, request: Optional[str] = None) -> "_Region":
        """A span the benchmark itself opens around a stretch of its work."""
        return _Region(self, name, request)

    # -- patching -----------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------

    def records(self) -> List[dict]:
        out = list(self.spans)
        for (parent, name), (node_id, count, total) in self.rollups.items():
            out.append(
                {"id": node_id, "name": name, "parent": parent,
                 "count": count, "total": total, "pid": self.pid}
            )
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")

    def flush_worker(self) -> None:
        """Append this worker's records to its own file, then forget them."""
        if self.worker_dir is None:
            return
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.rollups = {}


class _Region:
    def __init__(self, recorder: Recorder, name: str, request: Optional[str]) -> None:
        self.recorder = recorder
        self.name = name
        self.request = request

    def __enter__(self) -> "_Region":
        self.parent = _CURRENT.get()
        self.id = self.recorder.new_id()
        self.token = _CURRENT.set(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc: Any) -> None:
        end = time.perf_counter()
        _CURRENT.reset(self.token)
        record = {"id": self.id, "name": self.name, "start": self.start,
                  "end": end, "parent": self.parent, "pid": os.getpid()}
        if self.request is not None:
            record["request"] = self.request
        self.recorder.spans.append(record)


def wrap(
    recorder: Recorder,
    name: str,
    function: Callable,
    *,
    rollup: bool = False,
    request: Optional[Callable[..., Any]] = None,
    attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    before: Optional[Callable[..., Any]] = None,
    root: bool = False,
) -> Callable:
    """A wrapper of ``function`` that records one span (or roll-up) per call.

    ``request(args, kwargs, result)`` names the request the call served;
    ``attrs(args, kwargs, result, state)`` adds counts to the span, where
    ``state`` is what ``before(args, kwargs)`` returned.  ``root`` spans
    record no parent (worker spans, whose inherited context is stale).
    """

    def open_span() -> Tuple[Optional[int], int, Any, Optional[List[Any]]]:
        parent = None if root else _CURRENT.get()
        if rollup:
            node = recorder.rollup_node(parent, name)
            return parent, node[0], _CURRENT.set(node[0]), node
        span_id = recorder.new_id()
        return parent, span_id, _CURRENT.set(span_id), None

    def close_span(parent, span_id, token, node, start, args, kwargs,
                   result, state) -> None:
        end = time.perf_counter()
        _CURRENT.reset(token)
        if node is not None:
            with recorder._lock:
                node[1] += 1
                node[2] += end - start
            return
        record = {
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "pid": os.getpid(),
        }
        if request is not None:
            record["request"] = request(args, kwargs, result)
        if attrs is not None:
            record["attrs"] = attrs(args, kwargs, result, state)
        recorder.spans.append(record)

    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            parent, span_id, token, node = open_span()
            start = time.perf_counter()
            result = None
            try:
                result = await function(*args, **kwargs)
                return result
            finally:
                close_span(parent, span_id, token, node, start, args,
                           kwargs, result, state)

        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        parent, span_id, token, node = open_span()
        start = time.perf_counter()
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            close_span(parent, span_id, token, node, start, args, kwargs,
                       result, state)

    return wrapper


def _wrap_method(recorder: Recorder, cls: type, attr: str, name: str, **kw) -> None:
    recorder.patch(cls, attr, wrap(recorder, name, getattr(cls, attr), **kw))


# ----------------------------------------------------------------------
# Per-workload installation
# ----------------------------------------------------------------------


def _install_engine(recorder: Recorder) -> None:
    from repro.core.statistic import Statistic
    from repro.cq.engine import EvaluationEngine
    from repro.serve import ModelArtifact

    _wrap_method(recorder, EvaluationEngine, "evaluate", "engine.evaluate",
                 rollup=True)
    _wrap_method(recorder, EvaluationEngine, "indicator_matrix",
                 "engine.matrix")
    _wrap_method(recorder, Statistic, "training_collection", "engine.matrix")
    original_load = ModelArtifact.__dict__["load"].__func__
    recorder.patch(
        ModelArtifact, "load",
        classmethod(wrap(recorder, "artifact.load", original_load)),
    )


def install_training(recorder: Recorder) -> None:
    """Wrappers for a fit: enumeration, matrix, runtime, LP, export."""
    import repro.core.separability as separability
    import repro.runtime.tasks as tasks
    from repro.core.pipeline import FeatureEngineeringSession
    from repro.runtime.executor import ParallelExecutor

    _install_engine(recorder)
    recorder.patch(
        separability, "feature_pool",
        wrap(recorder, "enumeration.pool", separability.feature_pool,
             attrs=lambda a, k, r, s: {"queries": len(r or ())}),
    )
    recorder.patch(
        separability, "find_separator",
        wrap(recorder, "linsep.separator", separability.find_separator),
    )

    def executor_state(args, kwargs):
        executor = args[0]
        return executor.fallbacks, executor.work_done()

    def dispatch_attrs(args, kwargs, result, state):
        executor = args[0]
        fallbacks, work = state
        after = executor.work_done()
        return {
            "shards": len(args[2]),
            "fallbacks": executor.fallbacks - fallbacks,
            "broadcast_hits": after.get("broadcast_hits", 0)
            - work.get("broadcast_hits", 0),
            "broadcast_misses": after.get("broadcast_misses", 0)
            - work.get("broadcast_misses", 0),
        }

    _wrap_method(recorder, ParallelExecutor, "map_shards", "runtime.dispatch",
                 before=executor_state, attrs=dispatch_attrs)

    shard = wrap(recorder, "runtime.shard", tasks.instrumented, root=True)
    parent_pid = os.getpid()

    @functools.wraps(tasks.instrumented)
    def worker_shard(task, payload):
        in_worker = os.getpid() != parent_pid
        if in_worker and recorder.pid != os.getpid():
            recorder.reset_for_child()
        try:
            return shard(task, payload)
        finally:
            if in_worker:
                recorder.flush_worker()

    recorder.patch(tasks, "instrumented", worker_shard)
    _wrap_method(recorder, FeatureEngineeringSession, "export_artifact",
                 "artifact.export")


def install_restart(recorder: Recorder) -> None:
    """Wrappers for batch scoring: service, vectorized, bitsets, store."""
    from repro.cq.vectorized import VectorizedProgram
    from repro.data.bitset import BitsetIndex
    from repro.store.warm import WarmStore

    _install_engine(recorder)
    _install_service(recorder)
    _wrap_method(recorder, VectorizedProgram, "evaluate",
                 "vectorized.evaluate", rollup=True)
    _wrap_method(recorder, VectorizedProgram, "decide", "vectorized.evaluate",
                 rollup=True)
    _wrap_method(recorder, BitsetIndex, "__init__", "bitset.index_build",
                 rollup=True)
    for attr in ("load_plan", "load_answer"):
        _wrap_method(recorder, WarmStore, attr, "store.load", rollup=True)
    for attr in ("save_plan", "save_answer"):
        _wrap_method(recorder, WarmStore, attr, "store.save", rollup=True)


def _install_service(recorder: Recorder) -> None:
    from repro.serve import InferenceService

    _wrap_method(recorder, InferenceService, "warm_up", "service.warm_up")
    _wrap_method(
        recorder, InferenceService, "predict_batch", "service.predict_batch",
        attrs=lambda a, k, r, s: {"batch": len(r or ())},
    )


class _FirstByteReader:
    """Reader proxy for ``read_head``: notes when the request's first byte
    arrives, so the head span excludes the keep-alive wait before it."""

    def __init__(self, reader: Any) -> None:
        self._reader = reader
        self.first_byte: Optional[float] = None

    async def readuntil(self, separator: bytes) -> bytes:
        import asyncio

        first = await self._reader.read(1)
        self.first_byte = time.perf_counter()
        if not first:
            raise asyncio.IncompleteReadError(b"", None)
        try:
            rest = await self._reader.readuntil(separator)
        except asyncio.IncompleteReadError as error:
            raise asyncio.IncompleteReadError(
                first + error.partial, error.expected
            ) from None
        return first + rest

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._reader, attr)


def install_gateway(recorder: Recorder) -> None:
    """Wrappers for the gateway process, installed before it starts."""
    import repro.gateway.server as server
    from repro.gateway.admission import AdmissionController
    from repro.gateway.batcher import MicroBatcher
    from repro.gateway.registry import ModelRegistry

    _install_engine(recorder)
    _install_service(recorder)

    original_head = server.read_head

    async def read_head(reader, *args, **kwargs):
        proxy = _FirstByteReader(reader)
        head = await original_head(proxy, *args, **kwargs)
        if head is not None and proxy.first_byte is not None:
            recorder.spans.append(
                {"id": recorder.new_id(), "name": "http.read_head",
                 "start": proxy.first_byte, "end": time.perf_counter(),
                 "parent": _CURRENT.get(), "pid": os.getpid()}
            )
        return head

    recorder.patch(server, "read_head", read_head)
    recorder.patch(
        server, "read_body",
        wrap(recorder, "http.read_body", server.read_body,
             request=lambda a, k, r, s=None: body_request_id(r)),
    )
    _wrap_method(
        recorder, server.GatewayServer, "_parse_predict", "http.parse",
        request=lambda a, k, r, s=None: r[0] if r else None,
    )
    _wrap_method(
        recorder, AdmissionController, "try_admit", "admission.admit",
        attrs=lambda a, k, r, s: {
            "in_flight": a[0].in_flight, "shed": int(r is not None)
        },
    )
    _wrap_method(
        recorder, MicroBatcher, "submit", "batcher.submit",
        request=lambda a, k, r, s=None: body_request_id(a[1]),
    )
    original_init = MicroBatcher.__init__

    @functools.wraps(original_init)
    def batcher_init(self, dispatch, *args, **kwargs):
        traced = wrap(
            recorder, "batcher.dispatch", dispatch,
            attrs=lambda a, k, r, s: {
                "requests": [body_request_id(body) for body in a[0]]
            },
        )
        original_init(self, traced, *args, **kwargs)

    recorder.patch(MicroBatcher, "__init__", batcher_init)
    _wrap_method(recorder, ModelRegistry, "acquire", "lane.acquire")


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------


def load_records(paths: Iterable[str]) -> List[dict]:
    """Read and delete per-process trace files; the run writes one merged
    trace when it ends."""
    records: List[dict] = []
    for path in list(paths):
        if not os.path.exists(path):
            continue
        with open(path) as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
        os.remove(path)
    return records


def adopt(records: List[dict], child: str, parent: str,
          same_request: bool = False) -> None:
    """Parent each root ``child`` record to the ``parent`` span around it.

    Spans that crossed a thread or process boundary (fork workers, the
    gateway's lane thread, the gateway seen from the client) cannot see
    the span that caused them; on the shared clock they lie inside it.
    The earliest-starting enclosing span is taken, which is the right one
    for the FIFO hand-offs these are.  ``same_request`` also requires the
    two spans to carry the same request id.
    """
    parents = sorted(
        (r for r in records if r["name"] == parent and "start" in r),
        key=lambda r: r["start"],
    )
    starts = [r["start"] for r in parents]
    for record in records:
        if record["name"] != child or record.get("parent") is not None:
            continue
        last = bisect.bisect_right(starts, record["start"])
        for candidate in parents[:last]:
            if record["end"] > candidate["end"]:
                continue
            if same_request and candidate.get("request") != record.get("request"):
                continue
            record["parent"] = candidate["id"]
            break


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(records: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the part of its interval
    that its child spans cover; a roll-up node's self time is its total
    minus its children's totals.
    """
    children: Dict[int, List[dict]] = {}
    for record in records:
        if record.get("parent") is not None:
            children.setdefault(record["parent"], []).append(record)
    layers: Dict[str, Dict[str, float]] = {}
    for record in records:
        kids = children.get(record["id"], [])
        rolled = sum(kid["total"] for kid in kids if "total" in kid)
        if "total" in record:
            total = record["total"]
            calls = record["count"]
            covered = rolled + sum(
                kid["end"] - kid["start"] for kid in kids if "start" in kid
            )
        else:
            total = record["end"] - record["start"]
            calls = 1
            covered = rolled + _union_length(
                [
                    (max(kid["start"], record["start"]),
                     min(kid["end"], record["end"]))
                    for kid in kids
                    if "start" in kid and kid["end"] > record["start"]
                    and kid["start"] < record["end"]
                ]
            )
        layer = layers.setdefault(
            record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        layer["calls"] += calls
        layer["total_s"] += total
        layer["self_s"] += max(0.0, total - covered)
    return layers
