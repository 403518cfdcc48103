"""The four op mixes and their inputs.

Every input is drawn here with numpy from the run's seed (Dirichlet rows,
standard-normal field parameters, integer seeds for the CLI), never with
crbmkit's random helpers, so the same seed gives the same bytes.  An op is a
timed ``call`` into crbmkit's public API (or one CLI child) and an untimed
``check`` of what came back against ``oracle``.

Sizes that fail at the time the benchmark was written stay in the mixes on
purpose; a fix then shows as a change in the failure ledger.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle
from common import HERE, ROOT, child_env

EPS = 1e-2

#: universal compiles: r = 1 or 2 compile; (3,3), (5,2) raise CapExceeded
#: after the whole compile; (6,1), (6,2), (8,1) pick r = 3 and raise
#: BudgetExceeded
UNIVERSAL = [(2, 2), (3, 2), (4, 1), (4, 2), (5, 1),
             (3, 3), (5, 2), (6, 1), (6, 2), (8, 1)]
SUPPORT = [(3, 2), (4, 2)]
WITNESS = [(2, 3, 6), (3, 3, 10), (4, 3, 19)]
CERTIFY = [(1, 3, 1), (2, 2, 1), (1, 2, 2), (1, 1, 1),
           (2, 3, 3), (3, 3, 4), (3, 3, 6), (4, 3, 6), (3, 4, 8), (4, 4, 8),
           (5, 3, 8)]
#: full complexes n = 7, 8 raise BudgetMismatch on most seeds
FULL_N = [4, 5, 6, 7, 8]
PAIRWISE_N = [10, 12, 14]
CYCLIC = [(10, 3), (10, 4), (12, 3), (12, 4)]
MRF_K = 2
#: the warm-up round's index; timed rounds count up from 0
WARMUP = 1 << 20


@dataclass
class Op:
    kind: str
    size: tuple
    inputs: bytes          # everything the call depends on, for the ledger
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    gap: int | None = None    # certify: numeric - tropical, set by check


def _rng(seed: int, rnd: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, rnd, slot])


def _seed_arg(rng: np.random.Generator) -> int:
    """A seed to pass on to crbmkit (certify's draws, the CLI's --seed)."""
    return int(rng.integers(0, 2 ** 31))


# -- compile ------------------------------------------------------------------

def _compile_op(ck, kind, size, fn, rows, clamp=False) -> Op:
    k, n = size[0], size[1]
    table = ck.ConditionalTable(k, n, rows)
    want = oracle.clamp_rows(rows, n, EPS) if clamp else rows

    def check(out):
        params, rep = out
        return oracle.check_compiled(oracle.params_dict(params), want,
                                     rep.epsilon, rep.budget_bound,
                                     rep.hidden_units_used)
    return Op(kind, size, rows.tobytes(), lambda: fn(table), check)


def _sparse_rows(rng, k, n, d):
    """One random output per row plus d extra support points, random weights."""
    rows = np.zeros((1 << k, 1 << n))
    for x in range(1 << k):
        rows[x, rng.integers(0, 1 << n)] = 1.0
    for e in rng.choice((1 << k) * (1 << n), size=d, replace=False):
        rows[e >> n, e & ((1 << n) - 1)] += 1.0
    rows *= rng.uniform(0.5, 1.5, size=rows.shape)
    return rows / rows.sum(axis=1, keepdims=True)


def compile_round(ck, seed: int, rnd: int) -> list[Op]:
    ops = []
    slot = iter(range(1 << 16))
    for k, n in UNIVERSAL:
        rng = _rng(seed, rnd, next(slot))
        rows = rng.dirichlet(np.ones(1 << n), size=1 << k)
        ops.append(_compile_op(ck, "universal", (k, n),
                               lambda t: ck.compile_universal(t, eps=EPS),
                               rows, clamp=True))
    rng = _rng(seed, rnd, next(slot))
    k, n, size_t = 4, 2, 3
    support = np.sort(rng.choice(1 << n, size=size_t, replace=False))
    rows = np.zeros((1 << k, 1 << n))
    rows[:, support] = rng.dirichlet(np.ones(size_t), size=1 << k)
    ops.append(_compile_op(ck, "common", (k, n, size_t),
                           lambda t: ck.compile_common_support(t, eps=EPS), rows))
    rng = _rng(seed, rnd, next(slot))
    k, n, l = 4, 3, 2
    masses = rng.dirichlet(np.ones(1 << l), size=1 << k)
    y = np.arange(1 << n)
    rows = masses[:, y & ((1 << l) - 1)] / (1 << (n - l))
    ops.append(_compile_op(ck, "partition", (k, n, l),
                           lambda t: ck.compile_partition(t, l, eps=EPS), rows))
    for k, n in SUPPORT:
        rng = _rng(seed, rnd, next(slot))
        rows = _sparse_rows(rng, k, n, 2)
        ops.append(_compile_op(ck, "support", (k, n, 2),
                               lambda t: ck.compile_support_points(t, 2, EPS),
                               rows))
    for k, n, m in WITNESS:
        rng = _rng(seed, rnd, next(slot))
        rows = rng.dirichlet(np.ones(1 << n), size=1 << k)
        table = ck.ConditionalTable(k, n, rows)

        def check(out, rows=rows, m=m):
            params, div = out
            return oracle.check_witness(oracle.params_dict(params), rows, m, div)
        ops.append(Op("witness", (k, n, m), rows.tobytes(),
                      lambda t=table, m=m: ck.divergence_witness(t, m), check))
    return ops


# -- certify ------------------------------------------------------------------

def certify_round(ck, seed: int, rnd: int) -> list[Op]:
    ops = []
    for i, (k, n, m) in enumerate(CERTIFY):
        s = _seed_arg(_rng(seed, rnd, i))
        op = Op("certify", (k, n, m), repr((k, n, m, s)).encode(),
                lambda k=k, n=n, m=m, s=s: ck.certify_dimension(k, n, m, seed=s),
                None)

        def check(rep, op=op, k=k, n=n, m=m):
            op.gap = rep.numeric - rep.tropical
            return oracle.check_certificate(k, n, m, rep.numeric, rep.tropical,
                                            rep.expected_value)
        op.check = check
        ops.append(op)
    return ops


# -- mrf ----------------------------------------------------------------------

def complexes() -> list[tuple[str, int, list[int]]]:
    """(label, n, generator faces) of the dense and sparse complexes."""
    out = [("full", n, [(1 << n) - 1]) for n in FULL_N]
    for n in PAIRWISE_N:
        out.append(("pairwise", n, [(1 << i) | (1 << j)
                                    for i in range(n) for j in range(i + 1, n)]))
    for n, q in CYCLIC:
        out.append((f"cyclic{q}", n, [sum(1 << ((i + j) % n) for j in range(q))
                                      for i in range(n)]))
    return out


def mrf_round(ck, seed: int, rnd: int) -> list[Op]:
    ops = []
    for i, (label, n, gens) in enumerate(complexes()):
        rng = _rng(seed, rnd, i)
        cx = ck.SimplicialComplex.from_generators(n, gens)
        faces = sorted(cx.faces)
        theta = {a: float(t) for a, t in
                 zip(faces[1:], rng.standard_normal(len(faces) - 1))}
        model = ck.MrfModel(cx, theta)
        data = np.array([[a, t] for a, t in theta.items()]).tobytes()

        def check_joint(out, n=n, faces=faces, theta=theta):
            params, corr = out
            return oracle.check_mrf_joint(n, faces, theta,
                                          oracle.params_dict(params), corr.probs)

        def check_cond(params, n=n, faces=faces, theta=theta):
            return oracle.check_mrf_conditional(n, faces, theta, MRF_K,
                                                oracle.params_dict(params))
        ops.append(Op(f"joint-{label}", (n,), data,
                      lambda m=model: ck.compile_mrf_to_rbm(m), check_joint))
        ops.append(Op(f"cond-{label}", (n, MRF_K), data,
                      lambda m=model: ck.compile_conditional_mrf(m, MRF_K),
                      check_cond))
    return ops


# -- cli ----------------------------------------------------------------------

SIZE_FLAGS = {"--k", "--n", "--m", "--r", "--d", "--rmax"}


class CliExit(Exception):
    """A CLI child exited non-zero; the name is the error it printed."""


def load_schemas() -> dict:
    with open(ROOT / "docs" / "output-schemas.json") as fh:
        return json.load(fh)


def _cli_check(kind: str, extra: dict, schemas: dict):
    import jsonschema  # here, so the in-process workers' set-up does not pay for it

    def check(out):
        rc, stdout, stderr = out
        if rc != 0:
            raise CliExit(_error_name(rc, stderr))
        if kind == "table1":
            lines = stdout.strip().splitlines()
            if lines[0] != "r,coef,F,R,K,P" or len(lines) != 1 + extra["rmax"]:
                return "unexpected table1 CSV"
            return None
        payload = json.loads(stdout)
        try:
            jsonschema.validate(payload, schemas[payload["schema"]])
        except jsonschema.ValidationError as exc:
            return f"schema: {exc.message}"
        if kind == "compile":
            rep, target = payload["report"], payload["target"]
            rows = np.asarray(target["rows"], dtype=float)
            if payload["mode"] == "universal":
                rows = oracle.clamp_rows(rows, target["n"], rep["epsilon"])
            return oracle.check_compiled(payload["params"], rows, rep["epsilon"],
                                         rep["budget_bound"],
                                         rep["hidden_units_used"])
        if kind == "dim":
            return oracle.check_certificate(
                payload["k"], payload["n"], payload["m"], payload["numeric"],
                payload["tropical"], payload["expected_value"])
        if kind == "pack":
            ok = payload["valid"] and payload["star_count"] == len(payload["stars"])
            return None if ok else "packing reported invalid"
        if kind == "bounds":
            u = payload["universal"]
            ok = u["m_min"] == min(u["m_by_depth"].values())
            return None if ok else "m_min is not the minimum over depths"
        if kind == "divergence":
            ok = 0.0 <= payload["divergence"] <= payload["n"] + 1e-9
            return None if ok else "divergence outside [0, n]"
        if kind == "ltn":
            rows = oracle.crbm_rows(payload["params"])
            x = np.arange(1 << payload["k"])
            parity = np.array([bin(int(v)).count("1") & 1 for v in x])
            want = np.eye(2)[parity]
            tv = oracle.row_tv(rows, want)
            return None if tv <= 1e-3 else f"parity tv {tv:.3e} > 1e-3"
        if kind == "mrf":
            return oracle.check_mrf_joint(extra["n"], extra["faces"],
                                          extra["theta"], payload["params"])
        return f"no check for {kind}"
    return check


def span_dump_name(rnd: int, slot: int) -> str:
    return f"spans-{rnd}-{slot}.json"


def _error_name(rc: int, stderr: str) -> str:
    for line in stderr.splitlines():
        if line.startswith("error: "):
            return f"exit{rc}:" + line[len("error: "):].split(":")[0]
    return f"exit{rc}"


def cli_round(seed: int, rnd: int, workdir: Path, trace_dir: Path | None,
              schemas: dict) -> list[Op]:
    """The CLI mix; inputs that need files are written under ``workdir``.

    With ``trace_dir`` set each child runs through ``cli_child.py``, which
    records spans and writes them there; otherwise the child is the plain
    ``python -m crbmkit.cli``.
    """
    rng = _rng(seed, rnd, 0)
    seeds = [_seed_arg(rng) for _ in range(5)]
    n = 5
    full = (1 << n) - 1
    faces = list(range(1 << n))
    theta = {a: float(t) for a, t in zip(faces[1:], rng.standard_normal(full))}
    complex_file = workdir / f"complex-{rnd}.json"
    theta_file = workdir / f"theta-{rnd}.json"
    complex_file.write_text(json.dumps({"n": n, "faces": [list(range(1, n + 1))]}))
    theta_file.write_text(json.dumps(
        [[[i + 1 for i in range(n) if (a >> i) & 1], t] for a, t in theta.items()]))
    specs = [
        ("table1", ["table1", "--rmax", "5"], {"rmax": 5}),
        ("bounds", ["bounds", "--k", "3", "--n", "2", "--m", "4"], {}),
        ("pack", ["pack", "--k", "12", "--r", "2"], {}),
        ("pack", ["pack", "--k", "10", "--r", "3"], {}),
        ("compile", ["compile", "--k", "3", "--n", "2", "--seed", str(seeds[0])],
         {}),
        ("compile", ["compile", "--mode", "support", "--k", "4", "--n", "2",
                     "--d", "2", "--seed", str(seeds[1])], {}),
        ("dim", ["dim", "--k", "3", "--n", "3", "--m", "4", "--seed",
                 str(seeds[2])], {}),
        ("dim", ["dim", "--k", "4", "--n", "4", "--m", "8", "--seed",
                 str(seeds[3])], {}),
        ("divergence", ["divergence", "--k", "2", "--n", "2", "--m", "2",
                        "--seed", str(seeds[4])], {}),
        ("ltn", ["ltn", "--mode", "parity", "--k", "4"], {}),
        ("mrf", ["mrf", "--complex", str(complex_file), "--theta",
                 str(theta_file)], {"n": n, "faces": faces, "theta": theta}),
    ]
    env = child_env()
    ops = []
    for i, (kind, argv, extra) in enumerate(specs):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "crbmkit.cli", *argv]
        else:
            dump = trace_dir / span_dump_name(rnd, i)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(dump), *argv]

        def call(cmd=cmd):
            p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                               cwd=ROOT, timeout=170)
            return p.returncode, p.stdout, p.stderr
        size = tuple(int(v) for f, v in zip(argv, argv[1:]) if f in SIZE_FLAGS)
        inputs = json.dumps(argv).encode()
        if kind == "mrf":
            inputs += complex_file.read_bytes() + theta_file.read_bytes()
        ops.append(Op(kind, size, inputs, call,
                      _cli_check(kind, extra, schemas)))
    return ops
