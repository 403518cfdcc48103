"""crbmkit benchmark: one command, every metric, every output checked.

    python3 perfbench/run.py --workload {compile,certify,mrf,cli} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts the workload process
(``worker.py``) several times (``SETUPS``); ``setup_s`` is the median time to
its INPUTS line plus the last start's warm-up.  The last start runs whole
rounds of the workload's op mix, one op at a time (``common.rounds_for``).  All reported times are
scaled to the reference machine speed by a speed probe run next to each op
and each start (``common.speed_factors``); raw times are printed too.  Stdout
carries a run header, the metrics with units and sample counts, the failure
ledger, and as its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer with
``--trace 1``).  Exits non-zero without a result when the checkout holds no
crbmkit sources or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from common import (HERE, ROOT, THREAD_ENV, child_env, latency_summary,
                    speed_factors, speed_probe)

#: worker starts per run; setup_s is the median of their start-to-INPUTS
#: times plus the warm-up of the last start.  A cli start only writes input
#: files, so it can afford more samples.
SETUPS = {"compile": 3, "certify": 3, "mrf": 3, "cli": 5}

#: per-layer metrics and their units, as BENCHMARK.json lists them
LAYER_UNITS = {
    "sharing.tilt_s": "s/op", "sharing.tilt_calls": "calls/op",
    "sharing.apply_s": "s/op", "sharing.apply_calls": "calls/op",
    "sharing.unit_s": "s/op", "sharing.accept_ratio": "ratio",
    "compiler.self_s": "s/op", "compiler.tau_levels": "levels/op",
    "compiler.errors": "errors/op",
    "compiler.errors.BudgetExceeded": "errors/op",
    "compiler.errors.CapExceeded": "errors/op",
    "crbm.append_s": "s/op", "crbm.eval_s": "s/op", "crbm.eval_calls": "calls/op",
    "crbm.errors": "errors/op", "crbm.jacobian_s": "s/op",
    "dimension.tropical_s": "s/op", "dimension.tropical_rows": "rows/op",
    "dimension.numeric_s": "s/op", "dimension.cert_gap": "count",
    "bounds.code_s": "s/proc", "bounds.code_misses": "misses/proc",
    "packing.build_s": "s/op", "packing.validate_s": "s/op",
    "mrf.solve_s": "s/op", "mrf.solve_calls": "calls/op", "mrf.mobius_s": "s/op",
    "mrf.self_s": "s/op", "mrf.errors": "errors/op",
    "cli.import_s": "s/proc", "cli.run_s": "s/proc",
    "trace.overhead_share": "ratio",
}


def header() -> dict:
    """Commit, machine and library versions, for the record."""
    from importlib.metadata import version

    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": THREAD_ENV}


def start_worker(args, setup_only: bool) -> tuple[float, float, str]:
    """Start one workload process; return its seconds to INPUTS, its warm-up
    seconds (INPUTS to READY, 0 with ``setup_only``) and its output after
    that.  Raises RuntimeError if it fails."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=child_env(), cwd=ROOT) as proc:
        inputs = proc.stdout.readline()
        inputs_s = time.perf_counter() - t0
        ready = "READY\n" if setup_only else proc.stdout.readline()
        warm_s = time.perf_counter() - t0 - inputs_s
        rest = proc.stdout.read()
        rc = proc.wait()
    if rc != 0 or inputs.strip() != "INPUTS" or ready.strip() != "READY":
        raise RuntimeError(f"workload process exited with code {rc}")
    return inputs_s, 0.0 if setup_only else warm_s, rest


def summarize(records: list[dict]) -> tuple[list[dict], list[dict], bool]:
    """(passed, failed) records and whether no returned output was wrong."""
    passed = [r for r in records if r["error"] is None and r["check"] is None]
    failed = [r for r in records if r["error"] is not None or r["check"] is not None]
    return passed, failed, not any(r["check"] for r in records)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["compile", "certify", "mrf", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "crbmkit" / "__init__.py").is_file() or \
            not (ROOT / "docs" / "output-schemas.json").is_file():
        print(f"error: no crbmkit checkout at {ROOT}", file=sys.stderr)
        return 2

    setups, probes = [], []
    try:
        starts = SETUPS[args.workload]
        for i in range(starts):
            probes.append(speed_probe())
            inputs_s, warm_s, rest = start_worker(args, setup_only=i < starts - 1)
            setups.append(inputs_s)
        result = json.loads(rest.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("header " + json.dumps(header(), sort_keys=True))
    records = result["traced_records"] if args.trace else result["records"]
    passed, failed, correct = summarize(records)
    if args.trace:
        correct = correct and summarize(result["records"])[2]
    for r in failed:
        print("ledger " + json.dumps({
            "workload": args.workload, "kind": r["kind"], "size": r["size"],
            "seed": args.seed, "round": r["round"], "input_sha": r["input_sha"],
            "error": r["error"] or "CheckFailed", "check": r["check"]}))
    attempted = len(records)
    print(f"fail_share {len(failed) / attempted:.6f} ratio "
          f"({len(failed)} of {attempted} ops, {result['rounds']} rounds)")

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        # times are scaled to the reference speed (see common.speed_factors);
        # the raw figures are printed alongside
        scaled = [r["latency_s"] * f for r, f in
                  zip(records, speed_factors([r["probe_s"] for r in records]))]
        factors = speed_factors(probes)
        setup_s = (statistics.median(s * f for s, f in zip(setups, factors))
                   + warm_s * factors[-1])
        lat = latency_summary(scaled)
        raw = latency_summary([r["latency_s"] for r in records])
        print(f"latency over {lat['samples']} ops: p50 {lat['p50_ms']:.3f} ms, "
              f"tail = p{lat['tail_percentile']:.1f} {lat['tail_ms']:.3f} ms "
              f"(raw p50 {raw['p50_ms']:.3f} ms, tail {raw['tail_ms']:.3f} ms, "
              f"{len(passed) / sum(r['latency_s'] for r in records):.4f} ok ops/s)")
        print(f"setup_s raw: start to inputs {[round(s, 4) for s in setups]}, "
              f"warm-up {warm_s:.4f}; probe ms {[round(1e3 * p, 3) for p in probes]}")
        gaps = [r["gap"] for r in records if r["gap"] is not None]
        if gaps:
            print(f"cert_gap {sum(gaps)} count (sum of numeric - tropical "
                  f"over {len(gaps)} certify ops)")
        metrics = {
            "ops_per_s": {"value": len(passed) / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": lat["p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": lat["tail_ms"], "unit": "ms"},
            "ok_share": {"value": len(passed) / attempted, "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
