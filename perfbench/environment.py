"""What every result records about the machine and the code it ran."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

#: Loop iterations of the parallel-ceiling probe (about 0.1 s of CPU).
PROBE_ITERATIONS = 1_500_000

_PROBE = """
import sys, time
print("ready", flush=True)
sys.stdin.readline()
start = time.perf_counter()
total = 0
for value in range({iterations}):
    total += value * value
print(time.perf_counter() - start, flush=True)
"""


def parallel_ceiling(iterations: int = PROBE_ITERATIONS) -> float:
    """Measured speed-up of two CPU-bound processes over one.

    Two processes doing equal pure-Python work at once, against the same
    work alone: 2.0 means two full cores, 1.0 means one core's worth.
    """
    code = _PROBE.format(iterations=iterations)

    def run(count: int) -> List[float]:
        workers = [
            subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(count)
        ]
        try:
            for worker in workers:
                worker.stdout.readline()
            for worker in workers:
                worker.stdin.write("go\n")
                worker.stdin.flush()
            return [float(worker.communicate(timeout=60)[0]) for worker in workers]
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                    worker.wait()

    solo = run(1)[0]
    return 2 * solo / max(run(2))


def source_digest(root: str) -> Optional[str]:
    """sha256 over the program's Python sources (the checkout has no git)."""
    digest = hashlib.sha256()
    found = False
    for directory, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
                found = True
    return "sha256:" + digest.hexdigest() if found else None


def git_revision() -> Optional[str]:
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def record(start_method: Optional[str]) -> Dict[str, object]:
    """The environment block of a result."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "start_method": start_method,
        "parallel_ceiling_2proc": round(parallel_ceiling(), 3),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "source_digest": source_digest(os.path.join("src", "repro")),
    }


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def peak_rss_kb(pid: int) -> int:
    """The process's peak resident set (``VmHWM``), in KiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> bool:
    """Reset this process's ``VmHWM`` to its current RSS (Linux only).

    Later peaks then cover only what runs after the reset.  Returns
    whether the kernel accepted the reset.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` across all its threads."""
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(token) for token in handle.read().split())
        except OSError:
            continue
    return children


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak RSS of ``pid`` and its live children, in MiB."""
    return (
        peak_rss_kb(pid) + sum(peak_rss_kb(child) for child in child_pids(pid))
    ) / 1024.0



# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

#: ``prctl`` option that makes a process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt this process's orphaned descendants (Linux only).

    A process the program leaves behind when its parent ends, such as the
    multiprocessing resource tracker of a gateway process, is then
    re-parented here instead of to init, so :func:`reap_children` can
    wait for it.  Returns whether the kernel accepted the request.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_children(grace_s: float) -> List[int]:
    """Wait until every child of this process has ended.

    This process's multiprocessing resource tracker (started by the
    program's shared-memory segments) ends only once its pipe is closed,
    so it is stopped first.  Children still running after ``grace_s``
    seconds are killed.  Returns the pids that had to be killed.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace_s
    killed: List[int] = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in child_pids(os.getpid()):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                killed.append(child)
        time.sleep(0.02)
