import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest

from crbmkit import bitspace, cli, packing
from crbmkit.cli import PACK_STAR_CELLS, main

SCHEMAS = json.loads((pathlib.Path(__file__).resolve().parent.parent
                      / "docs" / "output-schemas.json").read_text())


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_table1_matches_printed_rows(capsys):
    code, out = run_cli(["table1", "--rmax", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,coef,F,R,K,P"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[2], r[3]) for r in rows] == [
        ("1", "0"), ("3", "1"), ("20", "4"), ("284", "44"), ("8408", "1144")]
    assert float(rows[0][4]) == 0.5 and float(rows[0][5]) == 0.5


def test_bounds_json(capsys):
    code, out = run_cli(["bounds", "--k", "3", "--n", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["universal"]["m_by_depth"] == {"1": 12, "2": 10}
    assert obj["universal"]["necessary"] == 4


def test_bounds_has_no_deterministic_bounds_without_inputs(capsys):
    # the deterministic bounds are stated for k >= 1; k = 0 emits null
    # rather than the k = 1 figures
    code, out = run_cli(["bounds", "--k", "0", "--n", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["deterministic"] is None
    jsonschema.validate(obj, SCHEMAS["crbmkit-bounds/1"])
    code, out = run_cli(["bounds", "--k", "1", "--n", "2"], capsys)
    assert json.loads(out)["deterministic"] == {"sufficient": 1,
                                                "necessary": 0}


def test_compile_deterministic_output(capsys):
    argv = ["compile", "--k", "2", "--n", "1", "--r", "1",
            "--eps", "0.01", "--seed", "7"]
    code, first = run_cli(argv, capsys)
    assert code == 0
    code, second = run_cli(argv, capsys)
    assert first == second  # identical seeds give byte-identical output
    obj = json.loads(first)
    assert obj["report"]["within_budget"] is True
    assert obj["report"]["achieved_tv"] <= 0.01
    assert obj["params"]["m"] == obj["report"]["hidden_units_used"]


@pytest.mark.parametrize("mode,extra", [
    ("support", ["--d", "2"]),
    ("common", ["--support-size", "2"]),
    ("partition", ["--l", "1"]),
])
def test_compile_modes(mode, extra, capsys):
    argv = ["compile", "--k", "2", "--n", "2", "--eps", "0.01",
            "--seed", "3", "--mode", mode] + extra
    code, out = run_cli(argv, capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["achieved_tv"] <= 0.01
    assert obj["report"]["within_budget"] is True


def test_dim_json(capsys):
    code, out = run_cli(["dim", "--k", "1", "--n", "3", "--m", "1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["expected_value"] == 8 and obj["numeric"] == 8 and obj["agree"]


def test_dim_certifies_a_wide_input_at_one_output(capsys):
    # (12,1,2): the log-gradient differences both ranks build take 0.12M
    # cells; the tropical matrix with the 2^k identity columns of the input
    # cylinders would need 33.9M
    code, out = run_cli(["dim", "--k", "12", "--n", "1", "--m", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["numeric"] == obj["expected_value"] == 29
    assert obj["tropical"] <= obj["numeric"]


def test_dim_refuses_the_placement_table_above_the_limit(capsys,
                                                       monkeypatch):
    # (24,1,0): D takes 2^24 cells, but the placement check's affine table
    # of the 2^25 states takes 26 * 2^25, so the call is refused at entry
    from crbmkit import dimension
    monkeypatch.setattr(dimension, "_numeric_dim", None)
    monkeypatch.setattr(dimension, "_certificate", None)
    code = main(["dim", "--k", "24", "--n", "1", "--m", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: CapExceeded: certify_dimension at "
                          "(k, n, m) = (24, 1, 0) needs 872415232 cells")


def test_divergence_json(capsys):
    code, out = run_cli(["divergence", "--k", "1", "--n", "2", "--m", "1",
                         "--seed", "5"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["divergence"] <= obj["divergence_upper"] + 0.05


def test_pack_json(capsys):
    code, out = run_cli(["pack", "--k", "6", "--r", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["valid"] and obj["star_count"] == 20


#: SHA-256 of the pack payload, as printed before validation became one pass
PACK_DIGESTS = {
    (6, 3): "a35aa0552cc2fb3d6b34cb65826495fa8d5891d89ae94557b737575d349d3bbd",
    (10, 3): "40399addd6515835b9066a9e19e2d9dc027d0a4c5f60182891fea2ec789981bb",
    (12, 2): "07a4f90ed14d1a0eaad37286f66c853c17b1d0114b374df9a48c037036331a09",
}


@pytest.mark.parametrize("k, r", sorted(PACK_DIGESTS))
def test_pack_payload_is_golden(k, r, capsys):
    code, out = run_cli(["pack", "--k", str(k), "--r", str(r)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PACK_DIGESTS[(k, r)]


#: SHA-256 of payloads holding only integers, booleans, strings and
#: closed-form floats, as printed before the CLI became the one JSON writer;
#: at k = 60 the ten depths' keys sort as strings ("1", "10", "2", ...).
#: The k = 60 digest was re-recorded when the counts became exact integer
#: ceilings: its float ceilings read the necessary and the deterministic
#: sufficient count 4 too low (54901024028897476, 111573048832920676)
INTEGER_DIGESTS = {
    ("bounds", "--k", "3", "--n", "2", "--m", "4"):
        "0ab82e95edf6c67d14496884a9888f3dcc0b55d187b2217457506fd8936088e1",
    ("bounds", "--k", "60", "--n", "2"):
        "a734891b985e6e6b2968d99057cb3b0a053f58d55cfd0d1c8372750051f024ca",
    ("dim", "--k", "3", "--n", "3", "--m", "4", "--seed", "0"):
        "73f86ad44927f86f05aca21cd4d13ec7f295113aeb375d9dc3830364e390c1b2",
}


@pytest.mark.parametrize("argv", sorted(INTEGER_DIGESTS),
                         ids=lambda argv: "-".join(argv))
def test_integer_payload_is_golden(argv, capsys):
    code, out = run_cli(list(argv), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INTEGER_DIGESTS[argv]


def _first_refused_pack_k(r):
    k = packing.seq_values(r).S
    while packing.star_count(k, r) * PACK_STAR_CELLS <= bitspace.MAX_CELLS:
        k += 1
    return k


@pytest.mark.parametrize("k, r", [(24, 1), (19, 1), (20, 2)])
def test_oversized_pack_is_refused_before_it_is_built(k, r, monkeypatch,
                                                      capsys):
    # (19, 1) and (20, 2) are the first k refused at r = 1 and r = 2;
    # (24, 1) is the largest k that build_packing alone admits at r = 1
    assert k == _first_refused_pack_k(r) or k == 24
    built = []
    monkeypatch.setattr(packing, "build_packing", lambda *a: built.append(a))
    code = main(["pack", "--k", str(k), "--r", str(r)])
    err = capsys.readouterr().err
    assert code == 1 and built == []
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    stars = packing.star_count(k, r)
    assert errors == [
        f"error: CapExceeded: pack at (k, r) = ({k}, {r}) with {stars} stars "
        f"needs {stars * PACK_STAR_CELLS} cells, above the limit "
        f"MAX_CELLS = {bitspace.MAX_CELLS}"]


def test_pack_admits_the_k_below_the_first_refused(monkeypatch, capsys):
    monkeypatch.setattr(bitspace, "MAX_CELLS", 5000)
    k = _first_refused_pack_k(2)
    code, out = run_cli(["pack", "--k", str(k - 1), "--r", "2"], capsys)
    assert code == 0 and json.loads(out)["valid"]
    assert main(["pack", "--k", str(k), "--r", "2"]) == 1


@pytest.mark.parametrize("k, r", [(14, 2), (14, 3)])
def test_pack_peak_is_within_its_price(k, r):
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["pack", "--k", str(k), "--r", str(r)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= packing.star_count(k, r) * PACK_STAR_CELLS * 8


def test_mrf_command(capsys):
    code, out = run_cli([
        "mrf", "--complex", '{"n": 3, "faces": [[1,2,3]]}',
        "--theta", '[[[1,2], 1.0], [[1,2,3], -0.7]]'], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["hidden_units"] == 4
    assert obj["verification_tv"] <= 1e-6


def seeded_full_field(n):
    """--complex and --theta of the full field on n units, theta drawn per
    face, in ascending mask order, at seed n."""
    rng = np.random.default_rng(n)
    faces = [[i + 1 for i in range(n) if a >> i & 1] for a in range(1, 1 << n)]
    theta = [[face, float(t)] for face, t in
             zip(faces, rng.standard_normal(len(faces)))]
    return json.dumps({"n": n, "faces": [list(range(1, n + 1))]}), \
        json.dumps(theta)


#: SHA-256 of mrf's stdout on the seeded full field on 6 units, recorded at
#: the commit before the joint (k = 0) call ran through the conditional
#: compile and its verification
MRF_GOLDEN = {
    0: "058081b8d27c31b95d161857b0ef6798"
       "8271ada327e8b771efcfa2beb3a0bc62",
    2: "21c8d05507a01b9dad7d332bdfd0a7c0"
       "b9a17b1736e6d82a8e34a4225891adc6",
}


@pytest.mark.parametrize("k", sorted(MRF_GOLDEN))
def test_mrf_stdout_matches_its_golden_hash(k, capsys):
    complex_, theta = seeded_full_field(6)
    code, out = run_cli(["mrf", "--complex", complex_, "--theta", theta,
                         "--k", str(k)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MRF_GOLDEN[k]


#: SHA-256 of stdout at seed 0; like the compiler's goldens they pin every
#: float bit, so they hold for one numpy build on one CPU family.  The
#: divergence hash was recorded at the commit before every compile mode ran
#: through one tau-schedule entry; the compile hashes were re-recorded when
#: each step's sharpness ladder began to start at the rung its kind last
#: passed in the level, which moves the weights of the steps that had passed
#: below it but no unit count or tau
COMPILE_GOLDEN = {
    ("compile", "--k", "8", "--n", "1", "--r", "3"):
        "fe98605961574a9dd146ceb29d0ca902ade8337df4cc984c85e5e81d6c10d737",
    # the deepest reset schedule: 99 resets at r = 4
    ("compile", "--k", "10", "--n", "1", "--r", "4"):
        "2bfdeb049bafdd67750f74f72ba74937e50cf4aa6533d318c543204bfec1fb0c",
    ("compile", "--mode", "support", "--k", "8", "--n", "2", "--d", "4"):
        "06cee6acb5e1da7bd4e25b0e9bc55c5d355f5a71a9c1a9f7d6b319fa95752c22",
    ("compile", "--mode", "common", "--k", "8", "--n", "2",
     "--support-size", "3"):
        "306a2dd3d77dc25225bfe6f28e008604763f208751cff45689fe39cc2edff13d",
    ("compile", "--mode", "partition", "--k", "8", "--n", "3", "--l", "2"):
        "2ac50e3a0aa10cd99ab51a9a31ab50154b25e08a84a500002240e32f0324260c",
    # (10,3) picks r = 4 (2087 units) and passes at tau = 64: its doomed
    # tau = 16 and 32 levels must stop at their first stars to keep it a
    # few seconds
    ("compile", "--k", "10", "--n", "3"):
        "3e572ef5fe903bb26c6254582b6e1c7722f8ed8fdcbe5116c5e382a03c7fa64d",
    # (13,1) picks r = 4 (2371 units): priced on its blocked final
    # evaluation, 19.4M cells, it fits the cell limit, where the unblocked
    # (2^14, 2371) activations would not
    ("compile", "--k", "13", "--n", "1"):
        "5331c8928aeb86604598317ca1cd8f722805c0372510b8580b3da36e9df9cda6",
    # a one-component target (the single-block partition) walks no star,
    # and its start model must meet eps
    ("compile", "--mode", "partition", "--k", "8", "--n", "3", "--l", "0"):
        "21581821b5d9affcfbd6235ecaa25b7a50c74c64c9eba80b612bd90175f6342d",
    # the 2028 point fills clamp lambda to 1e-300 and each passes only at
    # rung 1024 of the tau = 16 level; a fill's ladder starts at the rung
    # the last fill passed, so only the first climbs the six rungs below,
    # which keeps it a few seconds
    ("compile", "--mode", "support", "--k", "12", "--n", "1", "--d", "8"):
        "800f2d52d0e0cddfbde0e8f95e72be6a4e9f8d6f1f52334dff7b9ac4a9b46ed7",
    # a one-component compile is priced at 0 units whatever depth it is
    # given: at r = 3 it reports budget_bound 0 and uses no unit
    ("compile", "--mode", "common", "--k", "8", "--n", "2",
     "--support-size", "1", "--r", "3"):
        "e3bd6cbd231354326e0d247b95b1fd86c1730e5ced05a5eb083b67cf2d38aa05",
    ("divergence", "--k", "3", "--n", "3", "--m", "10"):
        "a00772e918f199533352d9534e618299662907623dee8932e79e389169a8c32f",
    # a 2^15-cell target and no unit: the payload is nearly all arrays, so
    # this pins the writer's bytes where its C-encoded arrays matter.
    # Recorded with the pure-Python indenting encoder
    ("compile", "--mode", "common", "--k", "14", "--n", "1",
     "--support-size", "1"):
        "67a259fce13fe3151b56ead5d73703eedd538c9afc3c240bdfee2cccdfd34dfe",
}


@pytest.mark.parametrize("argv", sorted(COMPILE_GOLDEN),
                         ids=lambda argv: "-".join(argv))
def test_compile_stdout_matches_its_golden_hash(argv, capsys):
    code, out = run_cli([*argv, "--seed", "0"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPILE_GOLDEN[argv]


#: one call of each subcommand that writes JSON, compile in every mode
EMITTING = [
    ["bounds", "--k", "3", "--n", "2", "--m", "4"],
    ["bounds", "--k", "0", "--n", "2"],
    ["pack", "--k", "4", "--r", "2"],
    ["compile", "--k", "3", "--n", "2", "--seed", "0"],
    ["compile", "--mode", "support", "--k", "3", "--n", "2", "--seed", "0"],
    ["compile", "--mode", "common", "--k", "3", "--n", "2", "--seed", "0"],
    ["compile", "--mode", "common", "--k", "3", "--n", "2",
     "--support-size", "1", "--seed", "0"],
    ["compile", "--mode", "partition", "--k", "3", "--n", "2", "--seed", "0"],
    ["dim", "--k", "2", "--n", "2", "--m", "2", "--seed", "0"],
    ["divergence", "--k", "2", "--n", "3", "--m", "6", "--seed", "0"],
    ["divergence", "--k", "2", "--n", "3", "--m", "0", "--seed", "0"],
    ["mrf", "--complex", '{"n": 3, "faces": [[1, 2, 3]]}', "--theta",
     "[[[1, 2], 0.5], [[1, 2, 3], -0.3]]"],
    ["mrf", "--complex", '{"n": 3, "faces": [[1, 2, 3]]}', "--theta",
     "[[[1, 2], 0.5]]", "--k", "1"],
    ["ltn", "--mode", "parity", "--k", "3"],
    ["ltn", "--mode", "embed", "--k", "3", "--m", "4", "--n", "2", "--seed",
     "0"],
    ["verify-all", "--seed", "0"],
]


def indented_json(payload) -> str:
    """The payload as the pure-Python indenting encoder writes it."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      default=cli._json_value)


@pytest.mark.parametrize("argv", EMITTING, ids=lambda argv: "-".join(argv[:3]))
def test_emit_writes_the_indenting_encoders_bytes(argv, capsys, monkeypatch):
    # the writer puts C-encoded arrays into the indented skeleton; its text
    # must be the indenting json.dumps of the payload, byte for byte
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload, out: (
        payloads.append(payload), emit(payload, out)))
    code, out = run_cli(argv, capsys)
    assert code == 0 and len(payloads) == 1
    assert out == indented_json(payloads[0]) + "\n"


@pytest.mark.parametrize("array", [
    np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3)), np.zeros((1, 0, 2)),
    np.array(2.5), np.array([7]), np.arange(5), np.arange(6).reshape(2, 3),
    np.arange(-12, 12).reshape(2, 3, 4) * 0.5, np.arange(3, dtype=np.uint8),
    np.array([True, False]), np.array([[True], [False]]),
    np.array([-0.0, 5e-324, 1.7e308, -1.7e308, 0.1, 1e16, np.nan, np.inf,
              -np.inf]),
    np.array([[-0.0, 5e-324], [1.7e308, 2.0]]).T,
    np.arange(16, dtype=np.float32).reshape(2, 2, 2, 2) / 3,
], ids=lambda a: f"{a.dtype}-{'x'.join(map(str, a.shape))}")
def test_dumps_writes_arrays_as_the_indenting_encoder_does(array):
    # every array at several depths, inside dataclasses, lists and tuples,
    # next to a string that reads as a placeholder
    from crbmkit.distributions import Dist

    for payload in ({"a": array},
                    {"b": [array, {"c": (array, 1)}], "d": "\x000"},
                    {"e": {"f": [[array]], "g": Dist.uniform(1)}}):
        assert cli._dumps(payload) == indented_json(payload)


def test_compiled_params_pickle_and_round_trip_through_the_json():
    # a compiled model pickles with its report, and both its unpickled
    # arrays and its JSON read back to the same bytes
    import pickle

    from crbmkit import compile_universal, random_conditional
    from crbmkit.crbm import append_hidden_unit

    params, report = compile_universal(random_conditional(3, 2, 0))
    names = ("W", "V", "b", "c")
    again = pickle.loads(pickle.dumps((params, report)))
    assert repr(again[1]) == repr(report)
    assert again[0].m == params.m
    read = json.loads(cli._dumps({"params": params}))["params"]
    for name in names:
        a = getattr(params, name)
        assert getattr(again[0], name).tobytes() == a.tobytes()
        assert np.array(read[name], dtype=float).tobytes() == a.tobytes()
    # the unpickled model grows like any other, and leaves the compiled
    # model as it was
    grown = append_hidden_unit(again[0], np.ones((1, 2)), np.ones((1, 3)),
                               [0.5])
    assert grown.m == params.m + 1
    assert all(getattr(again[0], name).tobytes()
               == getattr(params, name).tobytes() for name in names)


def test_mrf_refuses_its_verification_before_compiling(capsys, monkeypatch):
    # a full field on 13 units compiles 8178 units, whose verification
    # evaluates (2^0 + 2^13) * 8178 + 2^13 cells, over the limit
    from crbmkit import mrf
    calls = []
    solve = mrf.younes_solve
    monkeypatch.setattr(mrf, "younes_solve",
                        lambda *a: calls.append(a) or solve(*a))
    code = main(["mrf", "--complex", json.dumps({"n": 13, "faces": [
        list(range(1, 14))]}), "--theta", "[[[1, 2], 0.5]]"])
    err = capsys.readouterr().err
    assert code == 1 and calls == []
    assert err.startswith("error: CapExceeded: verifying a field over n = 13 "
                          "units with 8178 hidden units needs 67010546 cells")


def test_ltn_command(capsys):
    code, out = run_cli(["ltn", "--mode", "parity", "--k", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["verification_tv"] <= 1e-3
    assert obj["params"]["m"] == 3


def test_domain_error_exit_code(capsys):
    # k = 2 cannot host a depth-2 packing: S(2) = 3
    code = main(["pack", "--k", "2", "--r", "2"])
    assert code == 1


def test_infeasible_depth_is_one_error_line(capsys):
    # k = 0 has no feasible depth; the packing's budget refuses it
    code = main(["compile", "--mode", "common", "--k", "0", "--n", "2",
                 "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: InfeasibleDepth: k = 0 < S(1) = 1\n"


def test_single_block_partition_refuses_infeasible_depth(capsys):
    # l = 0 needs no unit, but a given depth is checked as at l >= 1
    for l in ("0", "1"):
        code = main(["compile", "--mode", "partition", "--k", "3", "--n", "2",
                     "--l", l, "--r", "7", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: InfeasibleDepth: k = 3 < S(7) = 28\n"
    code, out = run_cli(["compile", "--mode", "partition", "--k", "0",
                         "--n", "2", "--l", "0", "--seed", "0"], capsys)
    assert code == 0 and json.loads(out)["report"]["hidden_units_used"] == 0


def test_unreachable_eps_reports_budget_exceeded(capsys):
    code = main(["compile", "--k", "1", "--n", "1", "--r", "1",
                 "--eps", "1e-15", "--seed", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert "BudgetExceeded" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--k", "2"])  # missing required arguments
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["compile", "--k", "2", "--n", "1", "--seed", "0", "--mode", "partition",
     "--l", "5"],
    ["compile", "--k", "2", "--n", "1", "--seed", "0", "--mode", "support",
     "--d", "50"],
    ["compile", "--k", "2", "--n", "2", "--seed", "0", "--mode", "common",
     "--support-size", "9"],
    ["compile", "--k", "0", "--n", "1", "--seed", "0"],
    ["compile", "--k", "2", "--n", "2", "--seed", "0", "--r", "0"],
    ["compile", "--k", "2", "--n", "2", "--seed", "0", "--eps", "-1"],
    ["compile", "--k", "2", "--n", "2", "--seed", "0", "--eps", "inf"],
    ["divergence", "--k", "1", "--n", "0", "--m", "1", "--seed", "0"],
    ["divergence", "--k", "1", "--n", "1", "--m", "-1", "--seed", "0"],
    ["mrf", "--complex", '{"n":3,"faces":[[1,2]]}', "--theta", '[]', "--k", "3"],
    ["mrf", "--complex", '{"n":3,"faces":[[0,2]]}', "--theta", '[[[1,2],0.5]]'],
    ["mrf", "--complex", '{"n":3,"faces":[[1,4]]}', "--theta", '[[[1,2],0.5]]'],
    ["mrf", "--complex", '{"n":3,"faces":[[1,2]]}', "--theta", '[[[1,3],0.5]]'],
    ["mrf", "--complex", '{"n":3,"faces":[[[1]], [2, 2]]}', "--theta", '[]'],
    ["mrf", "--complex", '{"n":3}', "--theta", '[]'],
    ["mrf", "--complex", '{"n": 2, "faces": [[1,2]]}', "--theta", '[[[1,2], NaN]]'],
    ["mrf", "--complex", '{"n": 2, "faces": [[1,2]]}',
     "--theta", '[[[1,2], Infinity]]'],
    # a repeated face, in any order of its indices, is refused, not summed
    # or overwritten
    ["mrf", "--complex", '{"n": 2, "faces": [[1,2]]}',
     "--theta", '[[[1,2], 0.5], [[2,1], 0.3]]'],
    ["mrf", "--complex", '{"n": true, "faces": [[true]]}', "--theta", '[]'],
    ["mrf", "--complex", "not json", "--theta", '[]'],
    ["bounds", "--k", "1", "--n", "0"],
    ["dim", "--k", "1", "--n", "1", "--m", "-1"],
    ["ltn", "--mode", "parity", "--k", "0"],
    ["ltn", "--mode", "embed", "--k", "2", "--m", "0"],
    ["ltn", "--mode", "parity", "--k", "2", "--eps", "inf"],
    ["pack", "--k", "3", "--r", "-1"],
    ["table1", "--rmax", "-1"],
    # numpy's generators refuse a negative seed after the work has started
    ["compile", "--k", "2", "--n", "1", "--seed", "-1"],
    ["dim", "--k", "1", "--n", "1", "--m", "1", "--seed", "-1"],
    ["divergence", "--k", "1", "--n", "1", "--m", "1", "--seed", "-1"],
    ["ltn", "--mode", "embed", "--k", "2", "--seed", "-1"],
    ["verify-all", "--seed", "-5000"],
    # an option the mode does not read is refused, not ignored
    ["compile", "--mode", "support", "--k", "3", "--n", "2", "--r", "9",
     "--l", "7", "--seed", "0"],
    ["compile", "--mode", "support", "--k", "3", "--n", "2", "--r", "2",
     "--seed", "0"],
    ["compile", "--k", "3", "--n", "2", "--d", "99", "--support-size", "77",
     "--seed", "0"],
    ["compile", "--mode", "common", "--k", "3", "--n", "2", "--d", "2",
     "--seed", "0"],
    ["compile", "--mode", "partition", "--k", "3", "--n", "2",
     "--support-size", "2", "--seed", "0"],
    ["compile", "--mode", "common", "--k", "3", "--n", "2", "--l", "1",
     "--seed", "0"],
    ["compile", "--k", "3", "--n", "2", "--l", "1", "--seed", "0"],
    ["ltn", "--mode", "parity", "--k", "3", "--m", "9", "--n", "4",
     "--seed", "5"],
    ["ltn", "--mode", "parity", "--k", "3", "--m", "2"],
    ["ltn", "--mode", "parity", "--k", "3", "--n", "1"],
    ["ltn", "--mode", "parity", "--k", "3", "--seed", "0"],
])
def test_malformed_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("argv", [
    ["compile", "--k", "30", "--n", "1", "--seed", "0"],
    ["divergence", "--k", "30", "--n", "1", "--m", "1", "--seed", "0"],
    ["ltn", "--mode", "parity", "--k", "30"],
    ["mrf", "--complex", json.dumps({"n": 30, "faces": [list(range(1, 31))]}),
     "--theta", "[]"],
    # tables of 2^22 and 2^21 cells, but embeddings evaluated at 48.2M and
    # 44.0M cells, over the limit
    pytest.param(["ltn", "--mode", "parity", "--k", "21"], id="ltn-parity-21"),
    pytest.param(["ltn", "--mode", "embed", "--k", "20", "--m", "40",
                  "--n", "1"], id="ltn-embed-20-40"),
], ids=lambda argv: argv[0])
def test_oversized_table_is_refused_before_it_is_drawn(argv, capsys,
                                                       monkeypatch):
    # 2^30 or more cells, or an evaluation over the limit: refused before
    # the table, complex or embedding is built
    import crbmkit.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("embedding built before the cell check")
    monkeypatch.setattr(cli, "embed_ltn_in_crbm", refuse)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: CapExceeded: ")


def test_integers_past_the_str_digit_limit_are_refused_at_entry(capsys):
    # at Python's default limit of 4300 digits: 2^14284 has 4300 and
    # 2^14285 has 4301; table1's row r prints integers below 2^S(r), with
    # S(168) = 14196 and S(169) = 14365
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["bounds", "--k", "14284", "--n", "1"]) == 0
        assert main(["table1", "--rmax", "168"]) == 0
        capsys.readouterr()
        for argv in (["bounds", "--k", "14285", "--n", "1"],
                     ["bounds", "--k", "1", "--n", "14285"],
                     ["table1", "--rmax", "169"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            err = capsys.readouterr().err
            assert exc.value.code == 2
            assert err.endswith(
                "past sys.get_int_max_str_digits() = 4300 digits\n")
    finally:
        sys.set_int_max_str_digits(saved)


def test_out_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CRBMKIT_OUT_DIR", str(tmp_path))
    code = main(["bounds", "--k", "1", "--n", "1", "--out", "report.json"])
    assert code == 0
    obj = json.loads((tmp_path / "report.json").read_text())
    assert obj["universal"]["m_min"] == 1


def test_verify_all_passes(capsys):
    code, out = run_cli(["verify-all"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["all_passed"] is True
    assert len(obj["criteria"]) == 9
    jsonschema.validate(obj, SCHEMAS[obj["schema"]])


JSON_COMMANDS = [
    ["bounds", "--k", "3", "--n", "2", "--m", "4"],
    ["pack", "--k", "4", "--r", "2"],
    ["compile", "--k", "2", "--n", "1", "--seed", "0"],
    ["dim", "--k", "1", "--n", "2", "--m", "1"],
    ["divergence", "--k", "1", "--n", "2", "--m", "1", "--seed", "0"],
    ["mrf", "--complex", '{"n": 3, "faces": [[1,2,3]]}',
     "--theta", '[[[1,2,3], 0.5]]'],
    ["ltn", "--mode", "parity", "--k", "2"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: argv[0])
def test_payload_matches_shipped_schema(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS[payload["schema"]])


def test_every_shipped_schema_is_exercised():
    tags = {f"crbmkit-{argv[0]}/1" for argv in JSON_COMMANDS}
    assert tags | {"crbmkit-verify/1"} == set(SCHEMAS)


def test_cli_runs_without_jsonschema():
    # payloads are checked by the tests only, so the runtime needs no jsonschema
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['jsonschema'] = None; "
         "from crbmkit.cli import main; "
         "sys.exit(main(['bounds', '--k', '3', '--n', '2']))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == "crbmkit-bounds/1"


@pytest.mark.parametrize("argv", [
    ["pack", "--k", "4", "--r", "2"],
    ["dim", "--k", "2", "--n", "2", "--m", "2"],
    ["ltn", "--mode", "parity", "--k", "3"],
    ["ltn", "--mode", "embed", "--k", "2", "--m", "2", "--n", "2"],
    ["compile", "--k", "2", "--n", "2", "--seed", "0"],
    ["compile", "--mode", "support", "--k", "2", "--n", "2", "--seed", "0"],
    ["compile", "--mode", "common", "--k", "2", "--n", "2", "--seed", "0"],
    ["compile", "--mode", "partition", "--k", "2", "--n", "2", "--seed", "0"],
    ["divergence", "--k", "2", "--n", "2", "--m", "2", "--seed", "0"],
    ["mrf", "--complex", '{"n": 3, "faces": [[1, 2, 3]]}',
     "--theta", '[[[1, 2], 0.5]]'],
])
def test_cli_runs_without_scipy(argv):
    # scipy is needed only by the exact code-size solvers; the step
    # pipeline reduces with its own log-sum-exp
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['scipy'] = None; "
         f"from crbmkit.cli import main; sys.exit(main({argv!r}))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == f"crbmkit-{argv[0]}/1"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "crbmkit.cli", "table1", "--rmax", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("r,coef,F,R,K,P")


def _loaded_by(argv):
    """The crbmkit modules, fractions and scipy.optimize loaded in a fresh
    interpreter that imports the CLI and then, given arguments, runs it."""
    script = (
        "import contextlib, io, json, sys\n"
        "import crbmkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = crbmkit.cli.main({argv!r}) if {argv!r} else 0\n"
        "print(json.dumps([rc, [m for m in sys.modules if m in "
        "('fractions', 'scipy.optimize') or m.split('.')[0] == 'crbmkit']]))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout)
    assert rc == 0
    return set(loaded)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is only needed by the exact code-size solvers, and the
    # import loads no library module a subcommand may not run: the CLI
    # resolves every library function, bitspace's too, when it calls it
    assert _loaded_by([]) == {"crbmkit", "crbmkit.cli", "crbmkit.errors"}


MRF_ARGS = ["mrf", "--complex", '{"n": 3, "faces": [[1, 2, 3]]}',
            "--theta", '[[[1, 2], 0.5], [[1, 2, 3], -0.3]]']
NOT_PACKING_OR_BOUNDS = {"compiler", "sharing", "dimension", "mrf", "ltn",
                         "verify"}


@pytest.mark.parametrize("argv, unloaded", [
    (["table1", "--rmax", "5"], NOT_PACKING_OR_BOUNDS),
    (["bounds", "--k", "3", "--n", "2", "--m", "4"], NOT_PACKING_OR_BOUNDS),
    (["pack", "--k", "4", "--r", "2"], NOT_PACKING_OR_BOUNDS),
    (["ltn", "--mode", "parity", "--k", "3"], {"compiler", "dimension"}),
    (["ltn", "--mode", "embed", "--k", "2", "--m", "2", "--n", "2"],
     {"compiler", "dimension"}),
    (MRF_ARGS, {"compiler", "dimension"}),
    (MRF_ARGS + ["--k", "1"], {"compiler", "dimension"}),
])
def test_subcommand_imports_only_the_modules_it_runs(argv, unloaded):
    loaded = _loaded_by(argv)
    assert not loaded & {f"crbmkit.{name}" for name in unloaded}
    assert "fractions" not in loaded
