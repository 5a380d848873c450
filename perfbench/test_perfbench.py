"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
They need neither the program nor a network beyond the loopback.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import loadgen  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


# -- inputs --------------------------------------------------------------


def test_same_seed_gives_byte_identical_inputs():
    assert inputs.distinct_bodies(7, 50) == inputs.distinct_bodies(7, 50)
    assert inputs.hot_bodies(7, 4) == inputs.hot_bodies(7, 4)
    assert inputs.training_set(7, 20) == inputs.training_set(7, 20)
    assert inputs.scoring_batch(7, 2, 5) == inputs.scoring_batch(7, 2, 5)


def test_different_seeds_give_different_inputs():
    assert inputs.distinct_bodies(7, 50) != inputs.distinct_bodies(8, 50)
    assert inputs.hot_bodies(7, 4) != inputs.hot_bodies(8, 4)
    assert inputs.training_set(7, 20) != inputs.training_set(8, 20)
    assert inputs.scoring_batch(7, 2, 5) != inputs.scoring_batch(8, 2, 5)


def test_bodies_have_no_preset_count():
    """Any body index can be built, without the ones before it."""
    far = 10**7
    assert inputs.distinct_body(7, far) == inputs.distinct_body(7, far)
    assert inputs.distinct_body(7, far) != inputs.distinct_body(7, far + 1)
    assert inputs.distinct_bodies(7, 3)[2] == inputs.distinct_body(7, 2)
    assert 0 <= inputs.hot_draw(7, far, 4) < 4
    draws = {inputs.hot_draw(7, index, 4) for index in range(100)}
    assert draws == {0, 1, 2, 3}

    settings = workloads.Settings(7, 25.0, 0.25, "", "")
    distinct = workloads.ServeInputs(settings, hot=False)
    assert distinct.body(far) == inputs.distinct_body(7, workloads.CHECK_BODIES + far)
    assert distinct.body(0) not in distinct.check
    hot = workloads.ServeInputs(settings, hot=True)
    assert hot.body(far) in hot.hot_set


def _composition(body):
    return sorted(f["relation"] for f in json.loads(body)["facts"])


def test_distinct_bodies_are_unique_and_hot_sets_cost_alike():
    bodies = inputs.distinct_bodies(3, 500)
    assert len(set(bodies)) == len(bodies)
    # Every seed's hot set has the same facts per relation, body by body.
    assert [_composition(b) for b in inputs.hot_bodies(1, 4)] == [
        _composition(b) for b in inputs.hot_bodies(2, 4)
    ]


def test_training_labels_follow_the_planted_group():
    facts, labels = inputs.training_set(5, 40)
    planted = {args[0] for rel, args in facts if rel == "contains" and args[1].endswith("c")}
    assert {m for m, label in labels.items() if label == 1} == planted
    assert set(labels.values()) == {1, -1}


def test_body_request_id_reads_the_leading_id():
    body = inputs.request_body("d17", [("eta", ("m",))])
    assert tracing.body_request_id(body) == "d17"
    assert json.loads(body)["id"] == "d17"
    assert tracing.body_request_id(b'{"facts": []}') is None


# -- percentiles ---------------------------------------------------------


def test_percentiles_are_refused_below_their_sample_count():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(999)), 99)
    assert stats.percentile(list(range(1, 1001)), 99) == 990
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50)


def test_summary_reports_the_highest_supported_tail():
    assert "p99" in stats.summarize([1.0] * 1000)
    summary = stats.summarize([1.0] * 999)
    assert "p99" not in summary and "p95" in summary
    assert set(stats.summarize([1.0] * 12)) == {"n", "median"}


# -- open loop -----------------------------------------------------------


def test_open_loop_due_times_are_evenly_spaced():
    due = loadgen.open_loop_schedule(10.0, 4.0, 5)
    assert due == [10.0, 10.25, 10.5, 10.75, 11.0]
    with pytest.raises(ValueError):
        loadgen.open_loop_schedule(0.0, 0.0, 1)


def test_lateness_is_sent_minus_due_and_never_negative():
    assert loadgen.lateness([1.0, 2.0, 3.0], [1.5, 1.9, 3.25]) == [0.5, 0.0, 0.25]


async def _slow_server(delay: float):
    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
                await asyncio.sleep(delay)
                writer.write(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_open_loop_latency_runs_from_the_due_time():
    """One connection, 40 ms replies, a request due every 10 ms: each
    request waits for the ones before it, and that wait is its latency."""

    async def scenario():
        server = await _slow_server(0.04)
        port = server.sockets[0].getsockname()[1]
        try:
            return await loadgen.open_loop(
                "127.0.0.1", port, lambda i: b"x", 1, 100.0, 5
            )
        finally:
            server.close()
            await server.wait_closed()

    result = asyncio.run(scenario())
    latencies = [o.latency_s for o in sorted(result.outcomes, key=lambda o: o.index)]
    for index, latency in enumerate(latencies):
        # Request i completes no earlier than (i + 1) replies after the
        # first due time, so from its own due time (i * 10 ms) at least
        # (i + 1) * 40 - i * 10 ms have passed.
        assert latency >= (0.04 * (index + 1) - 0.01 * index) * 0.95
    assert all(o.late_s >= 0 for o in result.outcomes)
    assert all(o.status == 200 for o in result.outcomes)


# -- failures ------------------------------------------------------------


def test_refusals_errors_and_slow_replies_count_as_failed():
    outcomes = [
        loadgen.Outcome(0, 200, b"", 0.010),
        loadgen.Outcome(1, 429, b"", 0.001),
        loadgen.Outcome(2, 503, b"", 0.001),
        loadgen.Outcome(3, 0, b"", 0.001),  # connection error
        loadgen.Outcome(4, 500, b"", 0.001),
        loadgen.Outcome(5, 200, b"", 0.300),  # over the limit
    ]
    result = loadgen.LoadResult(outcomes, 1.0)
    assert result.failed(latency_limit_s=0.25) == 5
    assert result.failed(latency_limit_s=1.0) == 4


# -- tracing -------------------------------------------------------------


def test_self_time_subtracts_children_and_rollups():
    records = [
        {"id": 1, "name": "outer", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 2, "name": "inner", "start": 1.0, "end": 4.0, "parent": 1},
        {"id": 3, "name": "inner", "start": 3.0, "end": 6.0, "parent": 1},
        {"id": 4, "name": "calls", "count": 5, "total": 2.0, "parent": 1},
        {"id": 5, "name": "leaf", "count": 2, "total": 0.5, "parent": 4},
    ]
    layers = tracing.self_times(records)
    assert layers["outer"]["self_s"] == pytest.approx(10 - 5 - 2)
    assert layers["inner"]["calls"] == 2 and layers["inner"]["self_s"] == pytest.approx(6)
    assert layers["calls"]["calls"] == 5 and layers["calls"]["self_s"] == pytest.approx(1.5)


def test_wrappers_record_nested_spans_and_uninstall():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    recorder = tracing.Recorder()
    recorder.patch(Layer, "outer", tracing.wrap(recorder, "outer", Layer.outer))
    recorder.patch(Layer, "inner", tracing.wrap(recorder, "inner", Layer.inner, rollup=True))
    assert Layer().outer() == 2
    assert Layer().outer() == 2
    recorder.uninstall()
    assert Layer.outer.__qualname__.endswith("Layer.outer")
    assert Layer().outer() == 2
    records = recorder.records()
    outers = [r for r in records if r["name"] == "outer"]
    inners = [r for r in records if r["name"] == "inner"]
    assert len(outers) == 2 and len(inners) == 2
    assert {r["parent"] for r in inners} == {r["id"] for r in outers}
    assert all(r["count"] == 1 for r in inners)


# -- the contract --------------------------------------------------------


def test_benchmark_json_matches_what_the_runner_reports():
    sys.path.insert(0, BENCH_DIR)
    import run

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_runner_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--latency-limit-ms", "250",
         "--workload", "serve-hotkey",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_reap_children_waits_for_orphaned_descendants():
    """A grandchild left behind by its parent is adopted and stopped."""
    script = (
        "import subprocess, sys\n"
        "import environment\n"
        "assert environment.become_subreaper()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 & echo $!'], check=True)\n"
        "print(len(environment.reap_children(0.5)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=BENCH_DIR, capture_output=True,
        text=True, timeout=30,
    )
    assert out.returncode == 0, out.stderr
    orphan, killed = out.stdout.split()
    assert killed == "1"
    assert not os.path.exists(f"/proc/{orphan}")
