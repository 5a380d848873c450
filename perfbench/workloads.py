"""The benchmark's four workloads, timed and traced.

Every workload drives the program through its public entry points only:
``FeatureEngineeringSession`` and ``export_artifact`` (the ``repro train``
path), the ``repro serve`` command in its own process, and
``ModelArtifact.load`` plus ``InferenceService`` (the ``repro predict``
path).  Outputs are checked against in-process references, and a
mismatch fails the run.

Each workload function returns ``(attempted, failed, metrics, details,
records)``: ``metrics`` maps a metric name to ``(value, unit)`` (the
end-to-end metrics, or with tracing the per-layer ones), ``details`` is
the full account written to the result file, and ``records`` are the
traced run's spans.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import gc
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import environment
import inputs
import loadgen
import stats
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Molecules in the train-molecules training database (CQ[2]: 439 queries).
TRAIN_MOLECULES = 128

#: Worker processes of the train-molecules fit (``repro train --workers 2``).
TRAIN_WORKERS = 2

#: Molecules in the training database of the model served and scored.
MODEL_MOLECULES = 32

#: Bodies in the serve-hotkey hot set.
HOT_SET = 4

#: How often set-up runs per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Distinct bodies sent through the gateway and compared before timing.
CHECK_BODIES = 32

#: Timed serve-distinct responses compared label by label after the run
#: (a seeded sample; every response's entity set is checked).
CHECK_SAMPLE = 256

#: Share of a serve run spent in the closed loop (the rest is open loop).
CLOSED_SHARE = 0.15

#: Windows each closed loop is cut into for the run's details.
THROUGHPUT_WINDOWS = 5

#: Open-loop request rate of the serve workloads, in requests per second.
#: A third or less of the closed-loop capacity on two vCPUs (100-130 req/s
#: with one-molecule bodies): there the median stays clear of queueing
#: behind the lane, which at higher rates made it jump between modes.
OPEN_RATE = 32.0

#: restart-numpy batch: databases, and molecules in each.  Large enough
#: that numpy evaluation, not the store's per-entry fsync (whose latency
#: swings with the host disk), is most of a cold pass.
BATCH_DATABASES = 2
BATCH_MOLECULES = 32

#: Restarts timed over each cold pass's store (a restart writes nothing,
#: so each one finds the same store).
WARM_RESTARTS = 6

#: Engine counters that must repeat exactly across train iterations.
WORK_KEYS = (
    "hom_checks", "backtrack_nodes", "cover_games", "vectorized_sweeps",
    "plan_compilations", "backend_fallbacks",
)


def end_to_end(setup: Sequence[float], throughput: float, latency_s: float,
               rss_mb: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics every workload reports, in one shape.

    ``throughput`` counts the workload's operations per second and
    ``latency_s`` is the median of its timed operation (see run.py).
    """
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_rps": (throughput, "1/s"),
        "latency_p50_ms": (latency_s * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def keep_going(started: float, seconds: float, durations: Sequence[float],
               minimum: int = 3) -> bool:
    """Whether another iteration fits in the run's measuring time."""
    if len(durations) < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(durations) <= seconds


class Mismatch(Exception):
    """The program's output differs from its reference: the run fails."""


class Settings:
    """One run's arguments and working directory."""

    def __init__(self, seed: int, seconds: float, latency_limit_s: float,
                 work_dir: str, trace_dir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.latency_limit_s = latency_limit_s
        self.work_dir = work_dir
        self.trace_dir = trace_dir
        self.start_method: Optional[str] = None

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)


# ----------------------------------------------------------------------
# Program-side helpers (imports stay local: run.py must start, and fail
# cleanly, where the program's sources are missing)
# ----------------------------------------------------------------------


def database(facts: Sequence[inputs.Fact]):
    from repro.data import Database, Fact

    return Database(Fact(relation, arguments) for relation, arguments in facts)


def training_database(facts, labels):
    from repro.data import Labeling, TrainingDatabase

    return TrainingDatabase(database(facts), Labeling(labels))


def body_database(body: bytes):
    """The database a body describes, parsed as the gateway parses it."""
    from repro.data import Database
    from repro.data.io import facts_from_json

    return Database(facts_from_json(json.loads(body)["facts"]))


def labels_json(labeling) -> Dict[str, int]:
    from repro.gateway.server import labels_json as encode

    return encode(labeling)


def train_model(settings: Settings) -> str:
    """Set-up training: fit the served model and save its artifact."""
    from repro.core.languages import BoundedAtomsCQ
    from repro.core.pipeline import FeatureEngineeringSession

    facts, labels = inputs.training_set(settings.seed, MODEL_MOLECULES)
    with FeatureEngineeringSession(
        training_database(facts, labels), BoundedAtomsCQ(2)
    ) as session:
        if not session.separable:
            raise Mismatch("served model's training set is not separable")
        artifact = session.export_artifact()
    path = settings.path("model.json")
    artifact.save(path)
    return path


# ----------------------------------------------------------------------
# train-molecules
# ----------------------------------------------------------------------


def _fit(training, artifact_path: str) -> Tuple[float, Dict[str, Any]]:
    """One cold fit plus export, as ``repro train --workers 2`` runs it."""
    from repro.core.languages import BoundedAtomsCQ
    from repro.core.pipeline import FeatureEngineeringSession
    from repro.cq.engine import EvaluationEngine, default_engine, set_default_engine

    set_default_engine(EvaluationEngine())
    start = time.perf_counter()
    with FeatureEngineeringSession(
        training, BoundedAtomsCQ(2), workers=TRAIN_WORKERS
    ) as session:
        separable = session.separable
        artifact = session.export_artifact()
        artifact.save(artifact_path)
        executor = session.executor
        start_method = executor.effective_start_method
        rss_mb = environment.tree_peak_rss_mb(os.getpid())
    seconds = time.perf_counter() - start
    parent = default_engine().work_snapshot()
    parent_cache = default_engine().cache_info()
    pool_cache = executor.cache_info()
    pool = executor.work_done()
    work = {key: pool.get(key, 0) + parent.get(key, 0) for key in WORK_KEYS}
    return seconds, {
        "separable": separable,
        "checksum": artifact.checksum(),
        "dimension": artifact.dimension,
        "work": work,
        "cache_hits": pool_cache.hits + parent_cache.hits,
        "cache_lookups": pool_cache.hits + pool_cache.misses
        + parent_cache.hits + parent_cache.misses,
        "broadcast_hits": pool.get("broadcast_hits", 0),
        "broadcast_misses": pool.get("broadcast_misses", 0),
        "fallbacks": executor.fallbacks,
        "start_method": start_method,
        "rss_mb": rss_mb,
    }


def _fresh_training(settings: Settings):
    facts, labels = inputs.training_set(settings.seed, TRAIN_MOLECULES)
    return training_database(facts, labels)


def _check_fit(reference: Dict[str, Any], info: Dict[str, Any]) -> None:
    if not info["separable"]:
        raise Mismatch("training database was not separable")
    if info["checksum"] != reference["checksum"]:
        raise Mismatch(
            f"artifact checksum {info['checksum']} differs from the first "
            f"iteration's {reference['checksum']}"
        )
    if info["work"] != reference["work"]:
        raise Mismatch(
            f"work counters {info['work']} differ from the first "
            f"iteration's {reference['work']}"
        )


def train_molecules(settings: Settings, trace: bool):
    # Set-up is input generation alone here, about 10 ms.  Each iteration
    # regenerates the inputs, and that is timed as set-up too: the host's
    # speed shifts over seconds, so samples spread over the whole run give
    # a steadier median than a burst of repeats at its start.
    setup = []

    def regenerate():
        gc.collect()
        start = time.perf_counter()
        training = _fresh_training(settings)
        setup.append(time.perf_counter() - start)
        return training

    for _ in range(SETUP_REPEATS):
        regenerate()
    artifact_path = settings.path("trained.json")
    # The first fit is the reference every timed fit must reproduce.
    _, reference = _fit(_fresh_training(settings), artifact_path)
    _check_fit(reference, reference)
    settings.start_method = reference["start_method"]

    recorder = tracing.Recorder(worker_dir=settings.trace_dir)
    plain: List[float] = []
    traced: List[float] = []
    infos: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while keep_going(started, settings.seconds, plain + traced):
        training = regenerate()
        with_trace = trace and len(traced) < len(plain)
        if with_trace:
            tracing.install_training(recorder)
        try:
            if with_trace:
                with recorder.region("fit"):
                    seconds, info = _fit(training, artifact_path)
            else:
                seconds, info = _fit(training, artifact_path)
        finally:
            recorder.uninstall()
        _check_fit(reference, info)
        (traced if with_trace else plain).append(seconds)
        infos.append(info)
    attempted = len(plain) + len(traced)
    details = {
        "train_s": stats.summarize(plain),
        "train_samples_s": plain,
        "setup_s": stats.summarize(setup),
        "dimension": reference["dimension"],
        "checksum": reference["checksum"],
        "work_per_fit": reference["work"],
        "start_method": reference["start_method"],
        "fits": attempted,
    }
    rss = max(info["rss_mb"] for info in infos + [reference])
    if not trace:
        metrics = end_to_end(setup, 1.0 / statistics.median(plain),
                             statistics.median(plain), rss)
        return attempted, 0, metrics, details, []
    records = recorder.records() + tracing.load_records(
        os.path.join(settings.trace_dir, name)
        for name in sorted(os.listdir(settings.trace_dir))
        if name.startswith("worker-")
    )
    tracing.adopt(records, child="runtime.shard", parent="runtime.dispatch")
    layers = training_layers(records, reference, len(traced))
    layers["tracing.overhead_share"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "share"
    )
    details["traced_train_s"] = stats.summarize(traced)
    return attempted, 0, layers, details, records


def training_layers(records, reference, fits: int) -> Dict[str, Tuple[float, str]]:
    view = TraceView(records)
    per_fit = max(fits, 1)
    dispatch = view.spans("runtime.dispatch")
    layers = {
        "enumeration.pool_s": (view.total("enumeration.pool") / per_fit, "s"),
        "enumeration.queries": (
            max((s["attrs"]["queries"] for s in view.spans("enumeration.pool")),
                default=0), "count"),
        "runtime.dispatch_s": (view.total("runtime.dispatch") / per_fit, "s"),
        "runtime.shard_busy_s": (view.total("runtime.shard") / per_fit, "s"),
        "runtime.shards": (sum(s["attrs"]["shards"] for s in dispatch) / per_fit, "count"),
        "runtime.fallbacks": (sum(s["attrs"]["fallbacks"] for s in dispatch) / per_fit, "count"),
        "broadcast.hits": (sum(s["attrs"]["broadcast_hits"] for s in dispatch) / per_fit, "count"),
        "broadcast.misses": (sum(s["attrs"]["broadcast_misses"] for s in dispatch) / per_fit, "count"),
        "runtime.dispatch_loss_s": (view.dispatch_loss() / per_fit, "s"),
        "engine.matrix_s": (view.outermost_total("engine.matrix") / per_fit, "s"),
        "engine.evaluate_s": (view.per_call("engine.evaluate"), "s"),
        "engine.hom_checks": (reference["work"]["hom_checks"], "count"),
        "engine.backtrack_nodes": (reference["work"]["backtrack_nodes"], "count"),
        "engine.plan_compilations": (reference["work"]["plan_compilations"], "count"),
        "engine.memo_hit_ratio": (
            reference["cache_hits"] / reference["cache_lookups"]
            if reference["cache_lookups"] else 0.0, "ratio"),
        "linsep.separator_s": (view.total("linsep.separator") / per_fit, "s"),
        "artifact.export_s": (view.total("artifact.export") / per_fit, "s"),
    }
    return layers


# ----------------------------------------------------------------------
# serve-distinct and serve-hotkey
# ----------------------------------------------------------------------


_LISTENING = re.compile(rb"listening on ([0-9.]+):(\d+)")


class Gateway:
    """``repro serve`` with its defaults, in a process of its own."""

    def __init__(self, model_path: str, trace_out: Optional[str] = None) -> None:
        command = [sys.executable, os.path.join(BENCH_DIR, "gateway_driver.py")]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        command += ["--", "serve", model_path, "--port", "0"]
        source = os.path.abspath("src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=source + (os.pathsep + path if path else ""))
        self.process = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env,
        )
        _LIVE.append(self)
        assert self.process.stderr is not None
        while True:
            line = self.process.stderr.readline()
            if not line:
                self.process.wait(timeout=30)
                raise RuntimeError("gateway exited before listening")
            match = _LISTENING.search(line)
            if match:
                self.host = match.group(1).decode()
                self.port = int(match.group(2))
                break

    def peak_rss_mb(self) -> float:
        return environment.tree_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        if self in _LIVE:
            _LIVE.remove(self)


_LIVE: List[Gateway] = []


def stop_all() -> None:
    """Stop every gateway still running (on any exit path)."""
    for gateway in list(_LIVE):
        gateway.stop()


async def _request(gateway: Gateway, method: str, path: str, body: bytes = b""):
    connection = loadgen.Connection(gateway.host, gateway.port)
    try:
        return await connection.request(method, path, body)
    finally:
        await connection.close()


def _serve_setup(settings: Settings, first_body: bytes,
                 trace_out: Optional[str] = None) -> Gateway:
    """Set-up training and server start until the first 200 response."""
    model_path = train_model(settings)
    gateway = Gateway(model_path, trace_out)
    status, payload = asyncio.run(
        _request(gateway, "POST", "/v1/predict", first_body)
    )
    if status != 200:
        gateway.stop()
        raise Mismatch(f"first request answered {status}: {payload[:200]!r}")
    return gateway


class ServeInputs:
    """Bodies of one serve run: the check set and the timed sequence.

    Timed body ``index`` is a function of the seed and the index alone,
    with no upper limit, so a gateway of any capacity can be driven.
    Bodies are handed out in order from a cursor, so no distinct body is
    ever sent twice, not even to different gateway processes.
    """

    def __init__(self, settings: Settings, hot: bool) -> None:
        self.seed = settings.seed
        self.hot = hot
        self.closed_s = max(2.0, settings.seconds * CLOSED_SHARE)
        self.open_count = math.ceil(OPEN_RATE * (settings.seconds - self.closed_s))
        if hot:
            self.hot_set = inputs.hot_bodies(self.seed, HOT_SET)
            self.check = list(self.hot_set)
        else:
            self.check = inputs.distinct_bodies(self.seed, CHECK_BODIES)
        self.cursor = 0

    def body(self, index: int) -> bytes:
        if self.hot:
            return self.hot_set[inputs.hot_draw(self.seed, index, HOT_SET)]
        # The check bodies come first in the distinct stream.
        return inputs.distinct_body(self.seed, CHECK_BODIES + index)

    def take(self) -> Callable[[int], bytes]:
        """Bodies for the next phase: index 0 is the first unsent body."""
        base = self.cursor
        return lambda index: self.body(base + index)

    def advance(self, sent: int) -> None:
        self.cursor += sent


def _expected(model_path: str, bodies: Sequence[bytes]) -> Dict[bytes, Dict[str, int]]:
    """In-process ``InferenceService.predict`` labels for each body."""
    from repro.serve import InferenceService, ModelArtifact

    with InferenceService(ModelArtifact.load(model_path)) as service:
        return {body: labels_json(service.predict(body_database(body)))
                for body in bodies}


def _compare(body: bytes, payload: bytes, expected: Dict[str, int]) -> None:
    answer = json.loads(payload)
    if answer.get("labels") != expected:
        raise Mismatch(
            f"gateway labels for {tracing.body_request_id(body)} differ "
            "from InferenceService.predict"
        )
    if answer.get("id") != tracing.body_request_id(body):
        raise Mismatch(f"response id {answer.get('id')!r} for another body")


def _compare_entities(body: bytes, payload: bytes) -> None:
    """The response labels exactly the body's entities, under its id."""
    request = json.loads(body)
    entities = sorted(
        fact["arguments"][0] for fact in request["facts"] if fact["relation"] == "eta"
    )
    answer = json.loads(payload)
    if answer.get("id") != request["id"] or sorted(answer.get("labels", {})) != entities:
        raise Mismatch(f"response to {request['id']} labels other entities")
    if any(label not in (1, -1) for label in answer["labels"].values()):
        raise Mismatch(f"response to {request['id']} has a label outside +-1")


async def _precheck(gateway: Gateway, bodies: Sequence[bytes],
                    expected: Dict[bytes, Dict[str, int]]) -> None:
    connection = loadgen.Connection(gateway.host, gateway.port)
    try:
        for body in bodies:
            status, payload = await connection.request("POST", "/v1/predict", body)
            if status != 200:
                raise Mismatch(f"check request answered {status}")
            _compare(body, payload, expected[body])
    finally:
        await connection.close()


async def _phase(gateway: Gateway, settings: Settings, bodies: ServeInputs,
                 connections: int, closed_s: float, open_count: int):
    """A closed loop for ``closed_s``, then ``open_count`` open-loop requests.

    Returns both load results and the (body, outcome) pairs they sent.
    """
    body_for = bodies.take()
    closed = await loadgen.closed_loop(
        gateway.host, gateway.port, body_for, connections, closed_s
    )
    sent = [(body_for(o.index), o) for o in closed.outcomes]
    bodies.advance(len(closed.outcomes))
    opened = None
    if open_count:
        body_for = bodies.take()
        opened = await loadgen.open_loop(
            gateway.host, gateway.port, body_for, connections, OPEN_RATE,
            open_count,
        )
        sent += [(body_for(o.index), o) for o in opened.outcomes]
        bodies.advance(open_count)
    return closed, opened, sent


def serve(settings: Settings, hot: bool, trace: bool):
    """Serve workloads, in rounds of one gateway process each.

    Each round times one set-up (set-up training and a gateway start until
    its first 200 response), checks the gateway against the in-process
    service, then runs its share of the closed and the open loop.  Spreading
    the load over :data:`SETUP_REPEATS` processes keeps one process's
    layout (hash seed, memory placement) from setting a whole run's figures.
    The traced run uses one untraced round for the overhead baseline and
    one traced round with all of the load.
    """
    connections = os.cpu_count() or 1
    setup: List[float] = []
    closed_runs: List[loadgen.LoadResult] = []
    open_runs: List[loadgen.LoadResult] = []
    timed: List[Tuple[bytes, loadgen.Outcome]] = []
    bodies: Optional[ServeInputs] = None
    expected: Dict[bytes, Dict[str, int]] = {}
    rounds = 2 if trace else SETUP_REPEATS
    rss = 0.0
    baseline_rps = None
    metrics_before = metrics_after = None
    for round_index in range(rounds):
        traced_round = trace and round_index == 1
        start = time.perf_counter()
        # Every round's set-up generates the inputs; the first round's
        # are the ones sent, so no distinct body repeats across rounds.
        fresh = ServeInputs(settings, hot)
        if bodies is None:
            bodies = fresh
        gateway = _serve_setup(
            settings, fresh.check[0],
            os.path.join(settings.trace_dir, "gateway.jsonl") if traced_round else None,
        )
        try:
            setup.append(time.perf_counter() - start)
            model_path = settings.path("model.json")
            if not expected:
                expected = _expected(model_path, bodies.check)
            asyncio.run(_precheck(gateway, bodies.check, expected))
            if trace and not traced_round:
                # The untraced gateway's capacity is the overhead's base.
                closed, _, _ = asyncio.run(_phase(
                    gateway, settings, bodies, connections, bodies.closed_s, 0))
                baseline_rps = _throughput([closed])
                continue
            share = 1 if trace else rounds
            if traced_round:
                metrics_before = _metrics(gateway)
            closed, opened, sent = asyncio.run(_phase(
                gateway, settings, bodies, connections, bodies.closed_s / share,
                math.ceil(bodies.open_count / share)))
            if traced_round:
                metrics_after = _metrics(gateway)
            closed_runs.append(closed)
            open_runs.append(opened)
            timed += sent
            rss = max(rss, gateway.peak_rss_mb())
        finally:
            gateway.stop()
    assert bodies is not None

    ok = [(body, o) for body, o in timed if o.status == 200]
    if not hot:
        rng = inputs.workload_rng(settings.seed, "check-sample")
        sample = rng.sample(ok, min(CHECK_SAMPLE, len(ok)))
        expected.update(_expected(model_path, [body for body, _ in sample]))
    for body, outcome in ok:
        if body in expected:
            _compare(body, outcome.payload, expected[body])
        else:
            _compare_entities(body, outcome.payload)

    limit = settings.latency_limit_s
    attempted = len(timed)
    failed = sum(r.failed(limit) for r in closed_runs + open_runs)
    opened_all = [o for r in open_runs for o in r.outcomes]
    latencies = [o.latency_s for o in opened_all]
    details = {
        "setup_s": stats.summarize(setup),
        "closed_loop": {
            "requests": sum(len(r.outcomes) for r in closed_runs),
            "seconds": sum(r.seconds for r in closed_runs),
            "window_rates": [_window_rates(r) for r in closed_runs],
            "connections": connections,
        },
        "open_loop": {
            "requests": len(opened_all), "rate": OPEN_RATE,
            "latency_s": stats.summarize(latencies),
            "late_s": stats.summarize([o.late_s for o in opened_all]),
        },
        "failed_share": failed / attempted,
        "refused": sum(1 for _, o in timed if o.status in loadgen.REFUSALS),
        "checked_labels": sum(1 for body, _ in ok if body in expected),
    }
    if not trace:
        metrics = end_to_end(setup, _throughput(closed_runs),
                             stats.percentile(latencies, 50), rss)
        return attempted, failed, metrics, details, []
    records = tracing.load_records([os.path.join(settings.trace_dir, "gateway.jsonl")])
    records += _client_records(timed)
    for child in ("lane.acquire", "http.parse", "service.predict_batch"):
        tracing.adopt(records, child, "batcher.dispatch")
    for child in ("http.read_body", "batcher.submit"):
        tracing.adopt(records, child, "client.request", same_request=True)
    layers = gateway_layers(records, metrics_before, metrics_after, len(timed))
    layers["client.late_ms"] = (
        statistics.mean(o.late_s for o in opened_all) * 1e3, "ms")
    traced_rps = _throughput(closed_runs)
    layers["tracing.overhead_share"] = (baseline_rps / traced_rps - 1.0, "share")
    details["traced_throughput_rps"] = traced_rps
    details["untraced_throughput_rps"] = baseline_rps
    return attempted, failed, layers, details, records


def _window_rates(result: loadgen.LoadResult) -> List[float]:
    """Completion rate in each of :data:`THROUGHPUT_WINDOWS` equal windows."""
    start = min(o.sent for o in result.outcomes)
    width = result.seconds / THROUGHPUT_WINDOWS
    counts = [0] * THROUGHPUT_WINDOWS
    for outcome in result.outcomes:
        if outcome.status == 200:
            slot = int((outcome.done - start) / width)
            counts[min(slot, THROUGHPUT_WINDOWS - 1)] += 1
    return [count / width for count in counts]


def _throughput(results: Sequence[loadgen.LoadResult]) -> float:
    """Median over the rounds' closed loops of requests completed per second.

    Each round runs in its own gateway process, so the median keeps one
    process's bad luck (a collection pause, a busy neighbour, an unlucky
    hash layout) from setting the run's figure.
    """
    return statistics.median(
        sum(1 for o in result.outcomes if o.status == 200) / result.seconds
        for result in results
    )


def _metrics(gateway: Gateway) -> Dict[str, Any]:
    status, payload = asyncio.run(_request(gateway, "GET", "/metrics"))
    if status != 200:
        raise Mismatch(f"/metrics answered {status}")
    return json.loads(payload)


def _client_records(timed) -> List[dict]:
    pid = os.getpid()
    return [
        {"id": (pid << 32) | (1 << 31) | index, "name": "client.request",
         "start": outcome.sent, "end": outcome.done, "parent": None,
         "pid": pid, "request": tracing.body_request_id(body)}
        for index, (body, outcome) in enumerate(timed)
    ]


def _engine_delta(before, after, key: str) -> float:
    def read(snapshot):
        models = snapshot["models"]
        return sum(model["engine"].get(key, 0) for model in models.values())

    return read(after) - read(before)


def gateway_layers(records, before, after, requests: int):
    view = TraceView(records)
    per_request = max(requests, 1)
    hits = _engine_delta(before, after, "cache_hits")
    lookups = hits + _engine_delta(before, after, "cache_misses")
    heads = view.total("http.read_head")
    bodies = view.spans("http.read_body")
    dispatches = view.spans("batcher.dispatch")
    submits = view.spans("batcher.submit")
    admits = view.spans("admission.admit")
    batch_sizes = [len(s["attrs"]["requests"]) for s in dispatches]
    predict_batches = view.spans("service.predict_batch")
    return {
        "engine.matrix_s": (view.outermost_total("engine.matrix") / per_request, "s"),
        "engine.evaluate_s": (view.per_call("engine.evaluate"), "s"),
        "engine.hom_checks": (_engine_delta(before, after, "hom_checks") / per_request, "count"),
        "engine.backtrack_nodes": (_engine_delta(before, after, "backtrack_nodes") / per_request, "count"),
        "engine.plan_compilations": (_engine_delta(before, after, "plan_compilations"), "count"),
        "engine.memo_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "artifact.load_s": (view.per_call("artifact.load"), "s"),
        "service.warm_up_s": (view.per_call("service.warm_up"), "s"),
        "service.predict_batch_ms": (view.per_call("service.predict_batch") * 1e3, "ms"),
        "service.batch_size": (
            statistics.mean(s["attrs"]["batch"] for s in predict_batches)
            if predict_batches else 0.0, "count"),
        "http.read_s": ((heads + view.total("http.read_body")) / max(len(bodies), 1), "s"),
        "http.parse_s": (view.per_call("http.parse"), "s"),
        "admission.shed": (sum(s["attrs"]["shed"] for s in admits), "count"),
        "admission.in_flight_max": (
            max((s["attrs"]["in_flight"] for s in admits), default=0), "count"),
        "batcher.queue_wait_ms": (view.queue_wait() * 1e3, "ms"),
        "batcher.mean_batch": (
            statistics.mean(batch_sizes) if batch_sizes else 0.0, "count"),
        "batcher.fused": (len(submits) - sum(batch_sizes), "count"),
        "lane.handoff_ms": (view.handoff() * 1e3, "ms"),
    }


# ----------------------------------------------------------------------
# restart-numpy
# ----------------------------------------------------------------------


def _batch(settings: Settings):
    return [database(facts) for facts in inputs.scoring_batch(
        settings.seed, BATCH_DATABASES, BATCH_MOLECULES)]


def _score(model_path: str, databases, store: str) -> Tuple[float, list, Dict[str, Any]]:
    """Load the model, score the batch on numpy with a store; time it all."""
    from repro.serve import InferenceService, ModelArtifact

    start = time.perf_counter()
    artifact = ModelArtifact.load(model_path)
    service = InferenceService(artifact, backend="numpy", store=store)
    labelings = service.predict_batch(databases)
    seconds = time.perf_counter() - start
    engine = service.metrics_snapshot()["engine"]
    service.close()
    return seconds, [labels_json(labeling) for labeling in labelings], engine


def _directory_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(directory, f)) for f in files)
    return total


def restart_numpy(settings: Settings, trace: bool):
    from repro.serve import InferenceService, ModelArtifact

    setup: List[float] = []
    for _ in range(1 if trace else SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        _batch(settings)
        model_path = train_model(settings)
        setup.append(time.perf_counter() - start)
    with InferenceService(ModelArtifact.load(model_path), backend="python") as python:
        reference = [labels_json(labeling)
                     for labeling in python.predict_batch(_batch(settings))]

    # The peak RSS reported covers the timed scoring passes alone, not the
    # set-up trainings or the python-backend reference above.
    gc.collect()
    rss_reset = environment.reset_peak_rss()
    recorder = tracing.Recorder()
    cold: List[float] = []
    warm: List[float] = []
    traced_cycles: List[float] = []
    plain_cycles: List[float] = []
    cycle_info: List[Dict[str, Any]] = []
    started = time.perf_counter()
    cycle = 0
    while keep_going(started, settings.seconds, plain_cycles + traced_cycles):
        store = settings.path(f"store-{cycle}")
        cycle += 1
        with_trace = trace and len(traced_cycles) < len(plain_cycles)
        if with_trace:
            tracing.install_restart(recorder)
        passes = []
        try:
            for kind in ["cold"] + ["warm"] * WARM_RESTARTS:
                databases = _batch(settings)
                gc.collect()
                region = (recorder.region(f"score.{kind}") if with_trace
                          else contextlib.nullcontext())
                with region:
                    passes.append(_score(model_path, databases, store))
        finally:
            recorder.uninstall()
        (cold_s, cold_labels, cold_engine), restarts = passes[0], passes[1:]
        if cold_labels != reference:
            raise Mismatch("numpy cold labels differ from the python backend")
        for _, warm_labels, warm_engine in restarts:
            if warm_labels != cold_labels:
                raise Mismatch("warm restart labels differ from the cold pass")
        for _, _, engine in passes:
            if engine["store"]["quarantined"]:
                raise Mismatch(f"store quarantined {engine['store']['quarantined']} entries")
        warm_engine = restarts[-1][2]
        cycle_info.append({"cold": cold_engine, "warm": warm_engine,
                           "bytes": _directory_bytes(store)})
        shutil.rmtree(store)
        # Let the deletion's disk work finish before the next cold pass.
        os.sync()
        seconds = sum(p[0] for p in passes)
        if with_trace:
            traced_cycles.append(seconds)
        else:
            plain_cycles.append(seconds)
            cold.append(cold_s)
            warm.extend(p[0] for p in restarts)
    attempted = (1 + WARM_RESTARTS) * cycle
    last = cycle_info[-1]
    details = {
        "setup_s": stats.summarize(setup),
        "score_cold_s": stats.summarize(cold),
        "score_cold_samples_s": cold,
        "restart_s": stats.summarize(warm),
        "peak_rss_reset": rss_reset,
        "warm_store": {key: last["warm"]["store"][key]
                       for key in ("memo_hits", "plan_hits", "quarantined")},
        "cold_store": {key: last["cold"]["store"][key]
                       for key in ("memo_saves", "plan_saves", "quarantined")},
    }
    if not trace:
        metrics = end_to_end(
            setup, BATCH_DATABASES / statistics.median(cold),
            statistics.median(warm), environment.peak_rss_kb(os.getpid()) / 1024.0,
        )
        return attempted, 0, metrics, details, []
    records = recorder.records()
    cycles = max(len(traced_cycles), 1)
    view = TraceView(records)
    predict_batches = view.spans("service.predict_batch")
    layers = {
        "engine.matrix_s": (
            view.outermost_total("engine.matrix") / ((1 + WARM_RESTARTS) * cycles), "s"),
        "engine.evaluate_s": (view.per_call("engine.evaluate"), "s"),
        "engine.hom_checks": (last["cold"]["hom_checks"], "count"),
        "engine.backtrack_nodes": (last["cold"]["backtrack_nodes"], "count"),
        "engine.plan_compilations": (last["cold"]["plan_compilations"], "count"),
        "engine.memo_hit_ratio": (
            last["warm"]["cache_hits"]
            / max(last["warm"]["cache_hits"] + last["warm"]["cache_misses"], 1),
            "ratio"),
        "engine.backend_fallbacks": (last["cold"]["backend"]["fallbacks"], "count"),
        "artifact.load_s": (view.per_call("artifact.load"), "s"),
        "service.warm_up_s": (view.per_call("service.warm_up"), "s"),
        "service.predict_batch_ms": (view.per_call("service.predict_batch") * 1e3, "ms"),
        "service.batch_size": (
            statistics.mean(s["attrs"]["batch"] for s in predict_batches)
            if predict_batches else 0.0, "count"),
        "vectorized.evaluate_s": (view.per_call("vectorized.evaluate"), "s"),
        "vectorized.sweeps": (last["cold"]["vectorized_sweeps"], "count"),
        "bitset.index_build_s": (view.total_under("bitset.index_build", "score.cold") / cycles, "s"),
        "store.save_s": (view.total_under("store.save", "score.cold") / cycles, "s"),
        "store.load_s": (
            view.total_under("store.load", "score.warm") / (WARM_RESTARTS * cycles), "s"),
        "store.memo_hits": (last["warm"]["store"]["memo_hits"], "count"),
        "store.plan_hits": (last["warm"]["store"]["plan_hits"], "count"),
        "store.quarantined": (
            last["cold"]["store"]["quarantined"] + last["warm"]["store"]["quarantined"],
            "count"),
        "store.bytes_written": (last["bytes"], "count"),
        "tracing.overhead_share": (
            statistics.median(traced_cycles) / statistics.median(plain_cycles) - 1.0,
            "share"),
    }
    details["traced_cycle_s"] = stats.summarize(traced_cycles)
    return attempted, 0, layers, details, records


# ----------------------------------------------------------------------
# Reading a trace
# ----------------------------------------------------------------------


class TraceView:
    """Queries over one run's span and roll-up records."""

    def __init__(self, records: List[dict]) -> None:
        self.records = records
        self.by_id = {record["id"]: record for record in records}
        self.by_name: Dict[str, List[dict]] = {}
        for record in records:
            self.by_name.setdefault(record["name"], []).append(record)

    def spans(self, name: str) -> List[dict]:
        return [r for r in self.by_name.get(name, []) if "start" in r]

    @staticmethod
    def _duration(record: dict) -> float:
        if "total" in record:
            return record["total"]
        return record["end"] - record["start"]

    def total(self, name: str) -> float:
        return sum(self._duration(r) for r in self.by_name.get(name, []))

    def calls(self, name: str) -> int:
        return sum(r.get("count", 1) for r in self.by_name.get(name, []))

    def per_call(self, name: str) -> float:
        calls = self.calls(name)
        return self.total(name) / calls if calls else 0.0

    def _ancestors(self, record: dict):
        parent = record.get("parent")
        while parent is not None and parent in self.by_id:
            record = self.by_id[parent]
            yield record
            parent = record.get("parent")

    def outermost_total(self, name: str) -> float:
        """Total of ``name`` records not nested in another ``name`` record."""
        return sum(
            self._duration(r) for r in self.by_name.get(name, [])
            if not any(a["name"] == name for a in self._ancestors(r))
        )

    def total_under(self, name: str, ancestor: str) -> float:
        return sum(
            self._duration(r) for r in self.by_name.get(name, [])
            if any(a["name"] == ancestor for a in self._ancestors(r))
        )

    def dispatch_loss(self) -> float:
        """Dispatch wall time not covered by its slowest shard, summed."""
        shards = self.spans("runtime.shard")
        loss = 0.0
        for dispatch in self.spans("runtime.dispatch"):
            inside = [s["end"] - s["start"] for s in shards
                      if s["start"] >= dispatch["start"] and s["end"] <= dispatch["end"]]
            loss += (dispatch["end"] - dispatch["start"]) - max(inside, default=0.0)
        return loss

    def queue_wait(self) -> float:
        """Mean time from a request's submit to the start of its batch."""
        dispatches = sorted(self.spans("batcher.dispatch"), key=lambda s: s["start"])
        starts = [dispatch["start"] for dispatch in dispatches]
        waits = []
        for submit in self.spans("batcher.submit"):
            request = submit.get("request")
            first = bisect.bisect_left(starts, submit["start"])
            for dispatch in dispatches[first:]:
                if request in dispatch["attrs"]["requests"]:
                    waits.append(dispatch["start"] - submit["start"])
                    break
        return statistics.mean(waits) if waits else 0.0

    def handoff(self) -> float:
        """Mean time from a batch's dispatch to its lane starting on it."""
        dispatches = sorted(s["start"] for s in self.spans("batcher.dispatch"))
        acquires = sorted(s["start"] for s in self.spans("lane.acquire"))
        gaps = [a - d for d, a in zip(dispatches, acquires)]
        return statistics.mean(gaps) if gaps else 0.0
