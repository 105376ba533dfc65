"""Host fingerprint and calibration score stamped on every benchmark run.

Numbers taken on different hosts must never be compared as if they came
from one: the fingerprint names the host (CPU model, usable CPUs, Python,
numpy) and the code (git revision when the tree is a git checkout, and a
hash of ``src/`` always), and the calibration score is the speed of a
fixed pure-Python loop on that host at that moment.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import platform
import subprocess
import time
from pathlib import Path

#: Fingerprint fields that identify the host; runs are comparable only
#: when all of them agree.
HOST_FIELDS = ("cpu", "nproc", "python", "numpy")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def src_digest(root: Path) -> str:
    """sha256 over every ``src/**/*.py`` path and its bytes."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(root: Path) -> dict:
    import numpy

    return {
        "cpu": _cpu_model(),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(root),
        "src_sha": src_digest(root),
    }


def _calibration_loop(n: int) -> int:
    # Heap, dict and float work, the simulator's own mix of operations.
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    acc = 0
    for i in range(n):
        t = (i * 7919 % 1009) * 1e-6
        heapq.heappush(heap, (t, i))
        table[i & 1023] = t
        if len(heap) > 64:
            acc += heapq.heappop(heap)[1]
    return acc + len(table)


#: Iterations of one calibration pass (~50 ms on a 2020s server core).
CALIBRATION_N = 100_000


def calibration_score(repeats: int = 5) -> float:
    """Million calibration-loop iterations per second (best of repeats)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_loop(CALIBRATION_N)
        best = min(best, time.perf_counter() - t0)
    return CALIBRATION_N / best / 1e6
