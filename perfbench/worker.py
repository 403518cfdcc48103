"""One workload process: set up, print READY, run the rounds, print a result.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                [--setup-only]

Set-up is: interpreter start, ``import crbmkit`` and input generation (or,
for ``cli``, the input files), after which the worker prints INPUTS; then one
warm-up op per distinct size (in-process workloads only), after which it
prints READY.  ``run.py`` starts this several times per run with
``--setup-only``, which stops at INPUTS, and once more in full; only the
last start goes on to the timed phase.  The timed phase is a closed loop, one
op at a time; outputs are checked after the loop so the checks stay out of
the timings.

With ``--trace 1`` every op runs twice, untraced and traced, back to back;
the per-layer figures come from the traced runs, and the ratio of the two
passes' summed op times gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

import mixes
from common import HERE, rounds_for, speed_probe
from spans import Span, Tracer, code_cache_misses, code_seconds, layer_metrics

ROUND_BUILDERS = {"compile": mixes.compile_round,
                  "certify": mixes.certify_round,
                  "mrf": mixes.mrf_round}


def time_op(op):
    """Run one op; returns (op, seconds, output, error name or None)."""
    t0 = time.perf_counter()
    try:
        out, err = op.call(), None
    except Exception as exc:  # noqa: BLE001 - every failure is ledgered
        out, err = None, type(exc).__name__
    return op, time.perf_counter() - t0, out, err


def run_ops(ops):
    """Closed loop over ``ops``, with a speed probe before each op (outside
    its timing); returns the records and the probe times."""
    records, probes = [], []
    for op in ops:
        probes.append(speed_probe())
        records.append(time_op(op))
    return records, probes


def run_paired(plain_ops, traced_ops, tracer: Tracer | None):
    """Run each op untraced and traced back to back, alternating which goes
    first, so both passes see the same machine conditions.  ``tracer`` is
    installed around the traced runs of in-process ops; CLI children trace
    themselves.  Returns both passes' records."""
    plain, traced = [], []
    for i, (p_op, t_op) in enumerate(zip(plain_ops, traced_ops)):
        for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not use_trace:
                plain.append(time_op(p_op))
                continue
            if tracer is not None:
                tracer.install()
                tracer.op = i
            try:
                traced.append(time_op(t_op))
            finally:
                if tracer is not None:
                    tracer.op = -1
                    tracer.uninstall()
    return plain, traced


def judge(records, per_round: int, probes=None) -> list[dict]:
    """Check each output; one plain record per op for the ledger and stats."""
    out = []
    for i, (op, seconds, result, err) in enumerate(records):
        reason = None
        if err is None:
            try:
                reason = op.check(result)
            except mixes.CliExit as exc:
                err = str(exc)
            except Exception as exc:  # noqa: BLE001 - a check that breaks fails
                reason = f"check raised {type(exc).__name__}: {exc}"
        out.append({"kind": op.kind, "size": list(op.size), "round": i // per_round,
                    "input_sha": hashlib.sha256(op.inputs).hexdigest()[:16],
                    "latency_s": seconds, "error": err, "check": reason,
                    "gap": op.gap, "probe_s": probes[i] if probes else None})
    return out


def cli_layers(ops: list, per_round: int, workdir) -> dict:
    """Per-layer figures of the traced CLI children, from their span dumps."""
    spans: list[Span] = []
    imports, runs, misses = [], [], []
    for i in range(len(ops)):
        path = workdir / mixes.span_dump_name(i // per_round, i % per_round)
        if not path.exists():
            continue
        dump = json.loads(path.read_text())
        imports.append(dump["import_s"])
        runs.append(dump["run_s"])
        misses.append(dump["code_misses"])
        base = len(spans)
        for s in dump["spans"]:
            s["parent"] = s["parent"] + base if s["parent"] >= 0 else -1
            s["op"] = i
            spans.append(Span(**s))
    n = max(len(imports), 1)
    layers = layer_metrics(spans, len(ops))
    layers.update({"bounds.code_s": code_seconds(spans) / n,
                   "bounds.code_misses": sum(misses) / n,
                   "cli.import_s": sum(imports) / n,
                   "cli.run_s": sum(runs) / n})
    return layers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["compile", "certify", "mrf", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    rounds = rounds_for(args.workload, args.seconds)
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tracer = Tracer() if args.trace else None
        import_s = 0.0
        if args.workload == "cli":
            schemas = mixes.load_schemas()
            ops = [op for r in range(rounds)
                   for op in mixes.cli_round(args.seed, r, workdir, None, schemas)]
            per_round = len(ops) // rounds
            if tracer is not None:
                traced_ops = [op for r in range(rounds) for op in
                              mixes.cli_round(args.seed, r, workdir, workdir, schemas)]
        else:
            t0 = time.perf_counter()
            import crbmkit as ck
            import_s = time.perf_counter() - t0
            build = ROUND_BUILDERS[args.workload]
            ops = [op for r in range(rounds) for op in build(ck, args.seed, r)]
            per_round = len(ops) // rounds
            warm_ops = build(ck, args.seed, mixes.WARMUP)
        print("INPUTS", flush=True)
        if args.setup_only:
            return 0
        if args.workload != "cli":
            if tracer is not None:
                tracer.install()
            for op in warm_ops:
                time_op(op)
            if tracer is not None:
                tracer.uninstall()
        print("READY", flush=True)

        probes = None
        if tracer is None:
            records, probes = run_ops(ops)
        else:
            if args.workload != "cli":
                traced_ops = ops
            records, traced = run_paired(
                ops, traced_ops, None if args.workload == "cli" else tracer)
        result = {"workload": args.workload, "rounds": rounds,
                  "records": judge(records, per_round, probes)}
        if tracer is not None:
            if args.workload == "cli":
                layers = cli_layers(traced_ops, per_round, workdir)
            else:
                layers = layer_metrics(tracer.spans, len(ops))
                layers.update({"bounds.code_s": code_seconds(tracer.spans),
                               "bounds.code_misses": code_cache_misses(),
                               "cli.import_s": import_s, "cli.run_s": 0.0})
            result["traced_records"] = judge(traced, per_round)
            traced_s = sum(r[1] for r in traced)
            layers["trace.overhead_share"] = traced_s / sum(r[1] for r in records) - 1.0
            layers["dimension.cert_gap"] = sum(
                r["gap"] for r in result["traced_records"] if r["gap"] is not None)
            result["layers"] = layers
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
