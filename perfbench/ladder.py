"""Size-ladder probe: grow each construction until it breaks.  Not gated.

    python3 perfbench/ladder.py [--seed N]

Grows ``compile_universal`` k (at n = 1 and n = 2), ``certify_dimension``
width k+n (k = floor(w/2), m = w), and ``compile_mrf_to_rbm`` on the full
complex n, one step at a time, each in a fresh process with a wall-time limit
(``LIMIT_S``) and an address-space limit (``MEMORY_MB``).  A ladder stops at
its first step that fails, and the breaking point is recorded with its cause:
``time``, ``memory``, ``cap`` (a ``CapExceeded`` refusal), ``check`` (an
output the oracle rejects) or ``exception:<name>``.  Prints one JSON line per
step, then a summary line.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

from common import HERE, ROOT, child_env

LADDERS = {
    "compile-n1": [(k, 1) for k in range(1, 11)],
    "compile-n2": [(k, 2) for k in range(1, 9)],
    "certify": [(w // 2, w - w // 2, w) for w in range(2, 13)],
    "mrf-full": [(n,) for n in range(3, 13)],
}
CAP_ERRORS = {"CapExceeded", "TooLarge"}
LIMIT_S = 20.0
MEMORY_MB = 2048


def run_step(ladder: str, size: tuple, seed: int) -> dict:
    """One rung, in this process: build the input, call, check."""
    import numpy as np

    import crbmkit as ck
    import oracle

    rng = np.random.default_rng([seed, *size])
    t0 = time.perf_counter()
    try:
        if ladder.startswith("compile"):
            k, n = size
            rows = rng.dirichlet(np.ones(1 << n), size=1 << k)
            params, rep = ck.compile_universal(ck.ConditionalTable(k, n, rows))
            seconds = time.perf_counter() - t0
            check = oracle.check_compiled(
                oracle.params_dict(params), oracle.clamp_rows(rows, n, rep.epsilon),
                rep.epsilon, rep.budget_bound, rep.hidden_units_used)
        elif ladder == "certify":
            rep = ck.certify_dimension(*size, seed=int(rng.integers(2 ** 31)))
            seconds = time.perf_counter() - t0
            check = oracle.check_certificate(*size, rep.numeric, rep.tropical,
                                             rep.expected_value)
        else:
            (n,) = size
            cx = ck.SimplicialComplex.full(n)
            faces = sorted(cx.faces)
            theta = dict(zip(faces[1:], rng.standard_normal(len(faces) - 1).tolist()))
            params, corr = ck.compile_mrf_to_rbm(ck.MrfModel(cx, theta))
            seconds = time.perf_counter() - t0
            check = oracle.check_mrf_joint(n, faces, theta,
                                           oracle.params_dict(params), corr.probs)
        error = None
    except MemoryError:
        seconds, error, check = time.perf_counter() - t0, "MemoryError", None
    except Exception as exc:  # noqa: BLE001 - the probe reports any failure
        seconds, error, check = time.perf_counter() - t0, type(exc).__name__, None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"seconds": seconds, "error": error, "check": check, "peak_rss_mb": rss}


def cause_of(step: dict) -> str | None:
    if step.get("timeout"):
        return "time"
    if step["error"] == "MemoryError" or step.get("killed"):
        return "memory"
    if step["error"] in CAP_ERRORS:
        return "cap"
    if step["error"] is not None:
        return f"exception:{step['error']}"
    if step["check"] is not None:
        return "check"
    return None


def probe(ladder: str, size: tuple, seed: int) -> dict:
    def limit_memory():
        cap = MEMORY_MB << 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    cmd = [sys.executable, str(HERE / "ladder.py"), "--step", ladder,
           "--seed", str(seed), "--size", *map(str, size)]
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                           cwd=ROOT, timeout=LIMIT_S, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return {"seconds": time.perf_counter() - t0, "error": None, "check": None,
                "timeout": True}
    if p.returncode != 0:
        return {"seconds": time.perf_counter() - t0, "error": f"exit{p.returncode}",
                "check": None, "killed": p.returncode < 0}
    return json.loads(p.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--step", choices=sorted(LADDERS), help=argparse.SUPPRESS)
    ap.add_argument("--size", type=int, nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.step:
        print(json.dumps(run_step(args.step, tuple(args.size), args.seed)))
        return 0

    summary = {}
    for ladder, sizes in LADDERS.items():
        summary[ladder] = {"breaks_at": None, "cause": None, "last_ok": None}
        for size in sizes:
            step = probe(ladder, size, args.seed)
            cause = cause_of(step)
            print(json.dumps({"ladder": ladder, "size": list(size), "cause": cause,
                              **step}), flush=True)
            if cause is not None:
                summary[ladder].update(breaks_at=list(size), cause=cause)
                break
            summary[ladder]["last_ok"] = list(size)
    print(json.dumps({"summary": summary, "seed": args.seed,
                      "limit_s": LIMIT_S, "memory_mb": MEMORY_MB}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
