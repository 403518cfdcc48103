"""Shared pieces of the benchmark: latency statistics, the speed probe,
paths and environment."""

from __future__ import annotations

import math
import os
import statistics
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: one caller, one op at a time; BLAS and OpenMP pinned to one thread
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: seconds one round of each mix took on the reference machine (2-vCPU Xeon VM)
ROUND_SECONDS = {"compile": 2.75, "certify": 2.8, "mrf": 1.8, "cli": 9.7}
#: fewest rounds per run.  The latency tail is the 11th largest sample, and
#: these counts put it inside a cluster of like ops rather than on the edge
#: between two: compile, 6 rounds -> among the (6,2) compiles; certify, 2 ->
#: among (3,3,4) and (3,3,6); mrf, 3 -> among the full n = 7 complexes.
#: cli needs two rounds for 22 samples; its ops all cost about the same.
MIN_ROUNDS = {"compile": 6, "certify": 2, "mrf": 3, "cli": 2}


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds of the mix in one run: enough to fill ``seconds`` at the
    reference speed, and at least ``MIN_ROUNDS``.  The work per run does not
    depend on how fast the machine happens to be."""
    return max(MIN_ROUNDS[workload], math.ceil(seconds / ROUND_SECONDS[workload]))


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts: the checkout's
    ``src`` first on the import path, threads pinned to one."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


#: seconds ``speed_probe`` takes on the reference machine (rounded median of
#: 600 probes there); reported times are scaled to this speed
PROBE_REF_S = 2.0e-3
#: probes on each side of an op whose median sets that op's speed factor
PROBE_HALF_WINDOW = 4
_PROBE_INPUT = np.linspace(-3.0, 3.0, 4096).reshape(64, 64)


def speed_probe() -> float:
    """Seconds a fixed mix of small numpy calls and Python arithmetic, the
    two kinds of work crbmkit does, takes right now on this machine."""
    t0 = time.perf_counter()
    s = 0.0
    for _ in range(20):
        s += float(np.logaddexp(0.0, _PROBE_INPUT).sum())
        s += sum(i * 0.5 for i in range(300))
    return time.perf_counter() - t0


def speed_factors(probes: list[float]) -> list[float]:
    """Per-sample factor that scales a time measured next to probe i to the
    reference speed: PROBE_REF_S over the median of the nearby probes.

    A shared 2-vCPU VM slows down by up to 2x for seconds to minutes at a
    time; the probe sees the same slowdown, so scaled times stay comparable
    between runs made at different moments.
    """
    w = PROBE_HALF_WINDOW
    return [PROBE_REF_S / statistics.median(probes[max(0, i - w):i + w + 1])
            for i in range(len(probes))]


def tail_rule(n: int) -> tuple[int, float]:
    """Index into the sorted samples and percentile of the latency tail.

    The tail is the highest percentile with at least ten samples beyond it:
    the (n - 10)-th smallest sample, which has exactly ten above it.  With
    ten samples or fewer no such percentile exists and the largest sample
    (percentile 100) is used.
    """
    if n <= 10:
        return n - 1, 100.0
    return n - 11, 100.0 * (n - 10) / n


def latency_summary(latencies: list[float]) -> dict[str, float]:
    """Median and tail in milliseconds, with the percentile and sample count."""
    xs = sorted(latencies)
    idx, pct = tail_rule(len(xs))
    return {"p50_ms": 1e3 * statistics.median(xs), "tail_ms": 1e3 * xs[idx],
            "tail_percentile": pct, "samples": len(xs)}
