"""Batch command-line front end with machine-readable output.

Subcommands: bounds, table1, pack, compile, dim, divergence, mrf, ltn,
verify-all.  Randomized subcommands require an explicit --seed.  Output is
JSON (CSV for table1) to stdout or --out; relative --out paths resolve
against $CRBMKIT_OUT_DIR when set.  This module is the package's one JSON
writer: it encodes arrays by tolist() and reports, parameters and tables by
their dataclass fields, indented as ``json.dumps(..., indent=2)`` indents
them (``_dumps``).  Every JSON payload carries a versioned schema tag;
the tests, not the CLI, check payloads against docs/output-schemas.json.
Exit codes: 0 success, 1 domain error (a table above bitspace.MAX_CELLS
cells is one, refused before it is built), 2 usage error; every subcommand
checks its arguments before any work starts.  A subcommand imports only the
library modules it runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
from importlib import import_module

import numpy as np

from . import _HOME
from .errors import CrbmKitError


def __getattr__(name: str):
    """A public name, read off its defining module at every lookup, so a
    wrapper set on that module's binding sees the call too."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{_HOME[name]}"), name)


#: this module: the handlers call every library function through it, so a
#: subcommand imports only the modules it runs, and a wrapper set on one of
#: this module's bindings sees the call
_cli = sys.modules[__name__]


def _json_value(obj):
    """What ``json.dumps`` cannot encode itself: an array as nested lists,
    a dataclass (a report, parameters or a table) as its fields by name.  A
    dict field's keys become strings first, so they sort as strings."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: _string_keys(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _string_keys(value):
    return {str(k): v for k, v in value.items()} if isinstance(value, dict) \
        else value


def _emit(payload: dict, out: str | None) -> None:
    _write(_dumps(payload) + "\n", out)


#: a placeholder string for the i-th array of a payload, as the encoder
#: writes it; no other string of a payload encodes to it but one holding
#: the same NUL-led text, which _dumps detects
_LEAF = re.compile(r'"\\u0000(\d+)"')


def _dumps(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, default=_json_value)``
    byte for byte.  An indenting ``json.dumps`` runs the pure-Python
    encoder, about ten times slower than the C one, which matters for a
    large table's arrays: each non-empty bool, int or float array is
    written by the C encoder on one line (``_array_text``) and put into the
    indented skeleton in place of a placeholder string."""
    arrays: list[tuple[np.ndarray, int]] = []
    text = json.dumps(_skeleton(payload, 0, arrays), sort_keys=True,
                      indent=2, default=_json_value)
    parts = _LEAF.split(text)
    leaves = [int(i) for i in parts[1::2]]
    if sorted(leaves) != list(range(len(arrays))):
        # a payload string collides with a placeholder
        return json.dumps(payload, sort_keys=True, indent=2,
                          default=_json_value)
    for at, i in enumerate(leaves, 1):
        parts[2 * at - 1] = _array_text(*arrays[i])
    return "".join(parts)


def _skeleton(obj, level: int, arrays: list):
    """``obj`` as ``json.dumps`` sees it, its dataclasses expanded by
    ``_json_value``, with each array ``_array_text`` writes replaced by a
    placeholder; ``arrays`` receives each such array with ``level``, the
    count of containers around it.  A container with nothing replaced in
    it is kept, not copied."""
    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.size and obj.dtype.kind in "biuf":
            arrays.append((obj, level))
            return f"\0{len(arrays) - 1}"
        return obj
    if isinstance(obj, dict):
        new = {k: _skeleton(v, level + 1, arrays) for k, v in obj.items()}
        return obj if all(new[k] is v for k, v in obj.items()) else new
    if isinstance(obj, (list, tuple)):
        new = [_skeleton(v, level + 1, arrays) for v in obj]
        return obj if all(a is b for a, b in zip(new, obj)) else new
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _skeleton(_json_value(obj), level, arrays)
    return obj


def _array_text(a: np.ndarray, level: int) -> str:
    """The non-empty array ``a`` as the indenting encoder writes it inside
    ``level`` containers, from the C encoder's one-line text.  In that
    text the items of a list at depth j (0 for ``a`` itself) are parted by
    ", " between d - 1 - j closing and as many opening brackets.  Each such
    separator is replaced by the lines the indenting encoder writes there,
    the longest first, so no shorter one is found in the lines put in."""
    d = a.ndim
    text = json.dumps(a.tolist())

    def line(depth: int) -> str:
        return "\n" + "  " * (level + depth)
    for j in range(d):
        closes = "".join(line(i) + "]" for i in range(d - 1, j, -1))
        opens = "".join("[" + line(i + 1) for i in range(j + 1, d))
        text = text.replace("]" * (d - 1 - j) + ", " + "[" * (d - 1 - j),
                            closes + "," + line(j + 1) + opens)
    return ("".join("[" + line(i + 1) for i in range(d)) + text[d:-d]
            + "".join(line(i) + "]" for i in range(d - 1, -1, -1)))


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get("CRBMKIT_OUT_DIR", "")
    path = out if os.path.isabs(out) or not base else os.path.join(base, out)
    with open(path, "w") as fh:
        fh.write(text)


class _UsageError(Exception):
    """A malformed argument, found before any work starts; exit code 2."""


def _check_printable(bits: int, what: str) -> None:
    """Refuse a payload whose integers, all below 2^bits, may have more
    decimal digits than Python converts to a string."""
    limit = sys.get_int_max_str_digits()
    if limit and bits * math.log10(2.0) >= limit:
        raise _UsageError(f"{what} prints integers up to 2^{bits}, past "
                          f"sys.get_int_max_str_digits() = {limit} digits")


def _cmd_bounds(args) -> int:
    if args.k < 0 or args.n < 1 or (args.m is not None and args.m < 0):
        raise _UsageError("--k must be >= 0, --n >= 1 and --m >= 0")
    # the RBM route, 2^(k+n-1) - 1, is the widest count
    _check_printable(args.k + args.n - 1,
                     f"bounds at (k, n) = ({args.k}, {args.n})")
    rep = _cli.universal_m_table(args.k, args.n)
    deterministic = None  # its bounds are stated for k >= 1 only
    if args.k:
        deterministic = dict(zip(("sufficient", "necessary"),
                                 _cli.deterministic_m_bounds(args.k, args.n)))
    payload = {
        "schema": "crbmkit-bounds/1",
        "k": args.k, "n": args.n,
        "universal": rep,
        "deterministic": deterministic,
    }
    if args.m is not None:
        value, regime = _cli.expected_dim(args.k, args.n, args.m)
        payload["expected_dim"] = {"value": value, "regime": regime}
        payload["divergence_upper"] = _cli.divergence_upper(
            args.k, args.n, args.m)
    _emit(payload, args.out)
    return 0


def _cmd_table1(args) -> int:
    if args.rmax < 1:
        raise _UsageError("--rmax must be >= 1")
    # F(r) < 2^S(r) is the widest integer of row r, and grows with r
    _check_printable(_cli.s_value(args.rmax), f"table1 --rmax {args.rmax}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["r", "coef", "F", "R", "K", "P"])
    for r in range(1, args.rmax + 1):
        v = _cli.seq_values(r)
        writer.writerow([r, format(2.0 ** -v.S, ".17g"), v.F, v.paper_resets,
                         format(v.K, ".17g"), format(v.P, ".17g")])
    _write(buf.getvalue(), args.out)
    return 0


#: cells (8 bytes each) charged per star by pack's size check, before the
#: packing is built: its JSON payload, one object per star, outweighs the
#: build and the validation; tracemalloc peaks at 129.7-141.8 cells per star
#: over the whole command (CPython 3.11, (k, r) = (12, 1), (14, 1), (16, 1),
#: (17, 1), (14, 2), (16, 2), (14, 3), (16, 4); the top of the range is
#: (12, 1), where the fixed cost weighs most), rounded up
PACK_STAR_CELLS = 144


def _cmd_pack(args) -> int:
    if args.k < 0 or args.r < 1:
        raise _UsageError("--k must be >= 0 and --r >= 1")
    stars = _cli.star_count(args.k, args.r)
    _cli.check_cells(
        stars * PACK_STAR_CELLS,
        f"pack at (k, r) = ({args.k}, {args.r}) with {stars} stars")
    seq = _cli.build_packing(args.k, args.r)
    report = _cli.validate_packing(seq)
    payload = {
        "schema": "crbmkit-pack/1",
        "k": args.k, "r": args.r,
        "stars": [],
        "resets": [{"position": pos, "fixed_mask": mask, "fixed_values": values}
                   for pos, mask, values in zip(seq.reset_positions.tolist(),
                                                seq.reset_masks.tolist(),
                                                seq.reset_values.tolist())],
        "star_count": report.star_count,
        "reset_count": report.reset_count,
        "valid": report.ok,
        "violations": list(report.violations),
    }
    for center, free in zip(seq.centers.tolist(), seq.free_masks.tolist()):
        fixed_mask, fixed_values = _cli.star_cylinder(center, free, args.k)
        payload["stars"].append({"center": center, "fixed_mask": fixed_mask,
                                 "fixed_values": fixed_values})
    _emit(payload, args.out)
    return 0


def _random_target(args):
    """The seeded target ``ConditionalTable`` of a compile."""
    k, n = args.k, args.n
    if args.mode == "universal":
        return _cli.random_conditional(k, n, args.seed)
    rng = np.random.default_rng(args.seed)
    if args.mode == "support":
        d = args.d if args.d is not None else min(2, (1 << k) * ((1 << n) - 1))
        extras = rng.choice((1 << k) * (1 << n), size=d, replace=False)
        rows = np.zeros(((1 << k), (1 << n)))
        for x in range(1 << k):
            rows[x, rng.integers(0, 1 << n)] = 1.0
        for e in extras:
            rows[e // (1 << n), e % (1 << n)] += 1.0
        rows *= rng.uniform(0.5, 1.5, size=rows.shape)
        rows /= rows.sum(axis=1, keepdims=True)
        return _cli.ConditionalTable(k, n, rows)
    if args.mode == "common":
        size = args.support_size
        support = sorted(rng.choice(1 << n, size=size, replace=False).tolist())
        rows = np.zeros(((1 << k), (1 << n)))
        rows[:, support] = rng.dirichlet(np.ones(size), size=1 << k)
        return _cli.ConditionalTable(k, n, rows)
    # partition: each block's mass spread evenly over its 2^(n-l) outputs
    l = args.l
    masses = rng.dirichlet(np.ones(1 << l), size=1 << k)
    y = np.arange(1 << n)
    return _cli.ConditionalTable(k, n,
                                 masses[:, y & ((1 << l) - 1)] / (1 << (n - l)))


def _mode_reads(args, options, **reads) -> None:
    """Refuse each of the mode-specific ``options`` that was given but is
    not among the ``reads`` of the mode of ``args`` (a usage error); one it
    reads and was not given takes its value in ``reads``."""
    unread = [f"--{name.replace('_', '-')}" for name in options
              if name not in reads and getattr(args, name) is not None]
    if unread:
        raise _UsageError(f"{args.mode} mode reads no {', '.join(unread)}")
    for name, value in reads.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _check_compile_args(args) -> None:
    k, n = args.k, args.n
    _mode_reads(args, ("r", "d", "support_size", "l"), **{
        "universal": {"r": None}, "support": {"d": None},
        "common": {"r": None, "support_size": 2},
        "partition": {"r": None, "l": max(n - 1, 0)}}[args.mode])
    min_k = 1 if args.mode == "universal" else 0
    if k < min_k or n < 1:
        raise _UsageError(f"--k must be >= {min_k} and --n >= 1 in {args.mode} mode")
    if (args.r is not None and args.r < 1) \
            or not (args.eps > 0 and math.isfinite(args.eps)):
        raise _UsageError("--r must be >= 1 and --eps finite and > 0")
    if args.mode == "partition" and not 0 <= args.l <= n:
        raise _UsageError(f"--l must be in [0, n] = [0, {n}]")
    if args.mode == "support" and args.d is not None \
            and not 0 <= args.d <= 1 << (k + n):
        raise _UsageError(f"--d must be in [0, 2^(k+n)] = [0, {1 << (k + n)}]")
    if args.mode == "common" and not 1 <= args.support_size <= 1 << n:
        raise _UsageError(f"--support-size must be in [1, 2^n] = [1, {1 << n}]")


def _cmd_compile(args) -> int:
    _check_compile_args(args)
    _cli.check_cells(1 << (args.k + args.n),
                     f"a table at (k, n) = ({args.k}, {args.n})")
    target = _random_target(args)
    if args.mode == "universal":
        params, report = _cli.compile_universal(target, args.r, args.eps)
    elif args.mode == "support":
        params, report = _cli.compile_support_points(target, args.d, args.eps)
    elif args.mode == "common":
        params, report = _cli.compile_common_support(target, args.r, args.eps)
    else:
        params, report = _cli.compile_partition(target, args.l, args.r, args.eps)
    payload = {
        "schema": "crbmkit-compile/1",
        "seed": args.seed,
        "mode": args.mode,
        "target": target,
        "params": params,
        "report": report,
    }
    _emit(payload, args.out)
    return 0


def _cmd_dim(args) -> int:
    if args.k < 0 or args.n < 1 or args.m < 0:
        raise _UsageError("--k must be >= 0, --n >= 1 and --m >= 0")
    rep = _cli.certify_dimension(args.k, args.n, args.m, seed=args.seed)
    payload = {"schema": "crbmkit-dim/1"} | _json_value(rep)
    _emit(payload, args.out)
    return 0


def _cmd_divergence(args) -> int:
    if args.k < 1 or args.n < 1 or args.m < 0:
        raise _UsageError("--k and --n must be >= 1 and --m >= 0")
    _cli.check_cells(1 << (args.k + args.n),
                     f"a table at (k, n) = ({args.k}, {args.n})")
    target = _cli.random_conditional(args.k, args.n, args.seed)
    params, div = _cli.divergence_witness(target, args.m)
    payload = {
        "schema": "crbmkit-divergence/1",
        "seed": args.seed,
        "k": args.k, "n": args.n, "m_budget": args.m,
        "divergence": div,
        "divergence_upper": _cli.divergence_upper(args.k, args.n, args.m),
        "params": params,
    }
    _emit(payload, args.out)
    return 0


def _json_arg(text: str):
    """A JSON value given inline or as the path of a JSON file."""
    try:
        if os.path.exists(text):
            with open(text) as fh:
                return json.load(fh)
        return json.loads(text)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"not JSON or a JSON file: {exc}")


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` parse to bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _face_mask(face, n: int) -> int:
    """Bitmask of a face listed by its distinct 1-based indices in 1..n."""
    if not (isinstance(face, list)
            and all(_is_int(i) and 1 <= i <= n for i in face)
            and len(set(face)) == len(face)):
        raise _UsageError(f"face {face!r} must list distinct indices in 1..{n}")
    return sum(1 << (i - 1) for i in face)


def _mrf_inputs(spec, theta_entries) -> tuple[int, list[int], dict[int, float]]:
    """Ground set size, generator masks and theta by face mask."""
    try:
        n = spec["n"]
        faces = list(spec["faces"])
        entries = [(face, v) for face, v in theta_entries]
    except (KeyError, TypeError, ValueError):
        raise _UsageError('--complex must be {"n": N, "faces": [[i, ...], ...]} '
                          'and --theta [[[i, ...], value], ...]') from None
    if not _is_int(n):
        raise _UsageError("the complex's n must be an integer")
    generators = [_face_mask(face, n) for face in faces]
    theta = {}
    for face, v in entries:
        # json parses NaN, Infinity and 1e999 to floats; the comparison also
        # refuses an int too large for a double
        if not ((_is_int(v) or isinstance(v, float))
                and abs(v) <= sys.float_info.max):
            raise _UsageError(f"theta value {v!r} must be a finite number")
        a = _face_mask(face, n)
        if a and not any(a & ~g == 0 for g in generators):
            raise _UsageError(f"theta face {face!r} is not a face of the complex")
        if a in theta:
            raise _UsageError(f"theta face {face!r} is given twice")
        theta[a] = float(v)
    return n, generators, theta


def _cmd_mrf(args) -> int:
    n, generators, theta = _mrf_inputs(args.complex, args.theta)
    if not 0 <= args.k < n:
        raise _UsageError(f"--k must be in [0, n - 1] = [0, {n - 1}]")
    _cli.check_cells(1 << n, f"a field over n = {n} units")
    complex_ = _cli.SimplicialComplex.from_generators(n, generators)
    # the verification evaluates the compiled CRBM: price it before compiling
    m = _cli.conditional_budget(complex_, args.k)
    _cli.check_cells(
        _cli.eval_cells(args.k, n - args.k, m),
        f"verifying a field over n = {n} units with {m} hidden units")
    # at k = 0 this is the joint compile, and its one row the Gibbs law
    model = _cli.MrfModel(complex_, theta)
    params = _cli.compile_conditional_mrf(model, args.k)
    want = _cli.conditional_of_joint(_cli.mrf_distribution(model), args.k)
    tv = _cli.tv_row_distance(want, _cli.eval_conditional(params))
    payload = {
        "schema": "crbmkit-mrf/1",
        "n": n, "k": args.k,
        "hidden_units": params.m,
        "params": params,
        "verification_tv": tv,
    }
    _emit(payload, args.out)
    return 0


def _cmd_ltn(args) -> int:
    _mode_reads(args, ("m", "n", "seed"),
                **({} if args.mode == "parity" else {"m": 2, "n": 1, "seed": 0}))
    if args.mode == "parity" and args.k < 1:
        raise _UsageError("--k must be >= 1 in parity mode")
    if args.mode == "embed" and (args.k < 0 or args.m < 1 or args.n < 1):
        raise _UsageError("--k must be >= 0 and --m, --n >= 1 in embed mode")
    if not (args.eps > 0 and math.isfinite(args.eps)):
        raise _UsageError("--eps must be finite and > 0")
    n, m = (1, args.k) if args.mode == "parity" else (args.n, args.m)
    # the embedding evaluates the CRBM of the net's m units: price it first
    _cli.check_cells(_cli.eval_cells(args.k, n, m),
                     f"embedding a net at (k, n, m) = ({args.k}, {n}, {m})")
    if args.mode == "parity":
        net = _cli.parity_net(args.k)
    else:
        rng = np.random.default_rng(args.seed)
        net = _cli.ThresholdNet(args.k, args.m, args.n,
                                rng.standard_normal((args.m, args.k)),
                                rng.standard_normal(args.m) + 0.1,
                                rng.standard_normal((args.m, args.n)),
                                rng.standard_normal(args.n) + 0.05)
    params, t_used = _cli.embed_ltn_in_crbm(net, args.eps)
    tv = _cli.tv_row_distance(_cli.eval_conditional(params), _cli.ltn_table(net))
    payload = {
        "schema": "crbmkit-ltn/1",
        "mode": args.mode,
        "k": net.k, "m": net.m, "n": net.n,
        "scale": t_used,
        "params": params,
        "verification_tv": tv,
    }
    _emit(payload, args.out)
    return 0


def _cmd_verify_all(args) -> int:
    results = _cli.verify_all(seed_offset=args.seed)
    # no timings in the payload: identical seeds must give identical bytes
    payload = {
        "schema": "crbmkit-verify/1",
        "seed": args.seed,
        "all_passed": all(r.passed for r in results),
        "criteria": [{
            "name": r.name, "claim": r.claim, "passed": r.passed,
            "detail": r.detail,
        } for r in results],
    }
    _emit(payload, args.out)
    return 0 if payload["all_passed"] else 1


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take no negative seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crbmkit",
        description="Constructive CRBM compilation and certification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn, parser=p)
        p.add_argument("--out", default=None)
        return p

    p = command("bounds", _cmd_bounds, "closed-form bound report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)

    p = command("table1", _cmd_table1, "counting-sequence table as CSV")
    p.add_argument("--rmax", type=int, default=5)

    p = command("pack", _cmd_pack, "build and validate a star packing")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = command("compile", _cmd_compile, "compile a random target table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--mode", choices=["universal", "support", "common",
                                      "partition"], default="universal")
    p.add_argument("--d", type=int, default=None,
                   help="support budget (support mode)")
    p.add_argument("--support-size", type=int, default=None,
                   help="|T| for common mode (default 2)")
    p.add_argument("--l", type=int, default=None,
                   help="block width (partition mode)")

    p = command("dim", _cmd_dim, "dimension certification report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)

    p = command("divergence", _cmd_divergence, "divergence witness for a budget")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)

    p = command("mrf", _cmd_mrf, "compile a random field into (C)RBM weights")
    p.add_argument("--complex", required=True, type=_json_arg,
                   help='JSON {"n": 3, "faces": [[1,2],[2,3]]} or a file path')
    p.add_argument("--theta", required=True, type=_json_arg,
                   help='JSON [[[1,2], 0.5], ...] or a file path')
    p.add_argument("--k", type=int, default=0)

    p = command("ltn", _cmd_ltn, "embed a threshold network")
    p.add_argument("--mode", choices=["parity", "embed"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="embed mode (2)")
    p.add_argument("--n", type=int, default=None, help="embed mode (1)")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--seed", type=_seed, default=None, help="embed mode (0)")

    p = command("verify-all", _cmd_verify_all, "run the acceptance suite")
    p.add_argument("--seed", type=_seed, default=0,
                   help="offset for the randomized criteria's draws")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        args.parser.error(str(exc))
    except CrbmKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
