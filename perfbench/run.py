"""The repository benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --latency-limit-ms 250 \\
        --workload train-molecules --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads in turn, each in its own
process, and prints every metric by name and unit.

Workloads (see BENCHMARK.json for why each was chosen):

- ``train-molecules``  cold 2-worker CQ[2] fits of a 128-molecule
  training database, plus artifact export (the ``repro train`` path);
- ``serve-distinct``   the ``repro serve`` gateway under unique bodies;
- ``serve-hotkey``     the same gateway under a hot set of four bodies;
- ``restart-numpy``    cold numpy batch scoring into a warm-state store,
  then a restart that scores the batch again from the store.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` is a separate run that wraps each layer's public functions
and reports per-layer metrics, self times and the tracing overhead; its
spans and report are written under ``.perfbench/trace/``.  Every run also
writes its full result, with the environment, under
``.perfbench/results/``.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  A run whose outputs do
not match their references prints ``"correct": false`` and exits 1; a
checkout without the program's sources exits 2 without a result.  A run
exits only after every process it started, directly or not, has ended.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Seconds the processes a run started get to end on their own after it.
REAP_GRACE_S = 10.0

WORKLOADS = ("train-molecules", "serve-distinct", "serve-hotkey", "restart-numpy")

#: End-to-end metrics, reported by every workload, with their units.
#: An "operation" is one cold fit plus export (train-molecules), one HTTP
#: request (serve-*), or one database scored (restart-numpy):
#:
#: - ``setup_s``: median of three set-ups: input generation, set-up
#:   training, and (serve-*) gateway start until the first 200 response;
#: - ``throughput_rps``: operations per second: fits per second of one
#:   caller; requests per second of a closed loop over ``nproc``
#:   connections; databases per second of the cold scoring pass;
#: - ``latency_p50_ms``: median time of the timed operation: a fit plus
#:   export; a request at the fixed open-loop rate, from its due time;
#:   the warm restart, from ``ModelArtifact.load`` to the last label;
#: - ``peak_rss_mb``: summed peak RSS of the program's processes.
END_TO_END = (
    ("setup_s", "s"), ("throughput_rps", "1/s"), ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics every traced run reports (0 where a workload does
#: not reach the layer), with their units.
PER_LAYER = (
    ("enumeration.pool_s", "s"), ("enumeration.queries", "count"),
    ("runtime.dispatch_s", "s"), ("runtime.shard_busy_s", "s"),
    ("runtime.dispatch_loss_s", "s"),
    ("runtime.shards", "count"), ("runtime.fallbacks", "count"),
    ("broadcast.hits", "count"), ("broadcast.misses", "count"),
    ("engine.matrix_s", "s"), ("engine.evaluate_s", "s"),
    ("engine.hom_checks", "count"), ("engine.backtrack_nodes", "count"),
    ("engine.plan_compilations", "count"), ("engine.memo_hit_ratio", "ratio"),
    ("engine.backend_fallbacks", "count"),
    ("linsep.separator_s", "s"),
    ("artifact.export_s", "s"), ("artifact.load_s", "s"),
    ("service.warm_up_s", "s"), ("service.predict_batch_ms", "ms"),
    ("service.batch_size", "count"),
    ("http.read_s", "s"), ("http.parse_s", "s"),
    ("admission.shed", "count"), ("admission.in_flight_max", "count"),
    ("batcher.queue_wait_ms", "ms"), ("batcher.mean_batch", "count"),
    ("batcher.fused", "count"),
    ("lane.handoff_ms", "ms"),
    ("vectorized.evaluate_s", "s"), ("vectorized.sweeps", "count"),
    ("bitset.index_build_s", "s"),
    ("store.save_s", "s"), ("store.load_s", "s"),
    ("store.memo_hits", "count"), ("store.plan_hits", "count"),
    ("store.quarantined", "count"), ("store.bytes_written", "count"),
    ("client.late_ms", "ms"), ("tracing.overhead_share", "share"),
)

#: What the per-layer metrics cannot see from outside the program.
NOT_MEASURABLE = {
    "http.read_s": "time a request spends in kernel socket buffers before "
    "the gateway's first read is not visible; the head is timed from its "
    "first byte",
    "engine.memo_hit_ratio": "the gateway exposes only the sum over all "
    "engine caches (answers, plans, hom checks, games), so the ratio is of "
    "that sum, not of the answer memo alone",
    "lane.handoff_ms": "a batch waiting behind another in the lane's queue "
    "and the lane thread waking up are one interval",
    "runtime.dispatch_loss_s": "pickling, pool queueing and result "
    "collection inside the process pool are one interval",
    "store.bytes_written": "the store counts entries, not bytes; this is the "
    "size of the store directory after the cold pass",
    "runtime.shard_busy_s": "measured only in fork workers, which inherit "
    "the wrappers; spawn workers would report nothing",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--latency-limit-ms", type=float, required=True,
                        help="a serve request slower than this counts as failed")
    return parser.parse_args(argv)


def run_all(argv) -> int:
    """Run every workload in a process of its own; print each metric."""
    argv = list(argv if argv is not None else sys.argv[1:])
    position = argv.index("--workload")
    worst = 0
    for workload in WORKLOADS:
        argv[position + 1] = workload
        out = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv,
                             stdout=subprocess.PIPE, text=True)
        worst = max(worst, out.returncode)
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines:
            print(f"{workload}: failed with exit code {out.returncode}")
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops the gateway processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(argv)
    source = os.path.abspath("src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"error: no program sources under {source}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, BENCH_DIR)
    import environment
    import tracing
    import workloads

    root = os.path.abspath(".perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(root, "work", f"{tag}-{os.getpid()}")
    trace_dir = os.path.join(root, "trace", f"{args.workload}-seed{args.seed}")
    os.makedirs(work_dir)
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    os.makedirs(os.path.join(root, "results"), exist_ok=True)
    settings = workloads.Settings(
        args.seed, args.seconds, args.latency_limit_ms / 1e3, work_dir, trace_dir,
    )
    from repro.runtime import preferred_start_method

    start_method = preferred_start_method()
    runner = {
        "train-molecules": workloads.train_molecules,
        "serve-distinct": lambda s, t: workloads.serve(s, False, t),
        "serve-hotkey": lambda s, t: workloads.serve(s, True, t),
        "restart-numpy": workloads.restart_numpy,
    }[args.workload]
    started = time.time()
    try:
        attempted, failed, metrics, details, records = runner(settings, bool(args.trace))
        correct = True
    except workloads.Mismatch as mismatch:
        print(f"error: output mismatch: {mismatch}", file=sys.stderr)
        attempted, failed, metrics, details, records = 1, 1, {}, {"mismatch": str(mismatch)}, []
        correct = False
    except Exception:
        traceback.print_exc()
        return 3
    finally:
        workloads.stop_all()
        shutil.rmtree(work_dir, ignore_errors=True)

    if correct and args.trace:
        report = {"self_times": tracing.self_times(records),
                  "not_measurable": NOT_MEASURABLE}
        metrics = {name: metrics.get(name, (0, unit)) for name, unit in PER_LAYER}
        report["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
        with open(os.path.join(trace_dir, "spans.jsonl"), "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        with open(os.path.join(trace_dir, "report.json"), "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        print_self_times(report)
    elif correct and set(metrics) != {name for name, _ in END_TO_END}:
        print(f"error: measured {sorted(metrics)}, not the end-to-end "
              "metrics", file=sys.stderr)
        return 3
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rate": workloads.OPEN_RATE,
        "latency_limit_ms": args.latency_limit_ms, "started": started,
        "environment": environment.record(settings.start_method or start_method),
        "details": details, "result": result,
    }
    with open(os.path.join(root, "results", f"{tag}.json"), "w") as handle:
        json.dump(full, handle, indent=1, sort_keys=True)
    print(json.dumps({"environment": full["environment"]}, sort_keys=True))
    print(json.dumps({"details": details}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


def print_self_times(report) -> None:
    rows = sorted(report["self_times"].items(), key=lambda item: -item[1]["self_s"])
    print("layer self times (traced run):")
    for name, layer in rows:
        print(f"  {name:28s} calls {layer['calls']:>8d}  total "
              f"{layer['total_s']:9.4f} s  self {layer['self_s']:9.4f} s")


def run(argv=None) -> int:
    """:func:`main`, then wait for every process it started to end."""
    import environment

    environment.become_subreaper()
    try:
        return main(argv)
    finally:
        killed = environment.reap_children(REAP_GRACE_S)
        if killed:
            print(f"warning: killed leftover processes {killed}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(run())
