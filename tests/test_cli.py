from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hyp

from steinberg import (
    algebra, cartan_from_name, cli, enumerate_weyl, parabolic, root_system, varieties,
)
from steinberg.algebra import SubspaceBasis
from steinberg.varieties import VerificationReport


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_markdown_frozen_row(capsys):
    code, out, err = run(capsys, ["table", "--type", "A2", "--p", "0", "--q", "1"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == (
        "| type | J | K | n | d | l | f | dimX | dimY | cosets"
        " | inv_dim | anti_dim | passed |"
    )
    assert lines[1].startswith("| --- |")
    assert lines[2] == "| A2 | 0 | 1 | 3 | 8 | 2 | 2 | 6 | 4 | 2 | 2 | 2 | true |"
    assert len(lines) == 3


def test_table_csv_frozen(capsys):
    code, out, _ = run(capsys, ["table", "--type", "A2", "--p", "0", "--q", "1",
                                "--format", "csv"])
    assert code == 0
    assert out == (
        "type,J,K,n,d,l,f,dimX,dimY,cosets,inv_dim,anti_dim,passed\n"
        "A2,0,1,3,8,2,2,6,4,2,2,2,true\n"
    )


def test_table_all_pairs_counts(capsys):
    code, out, _ = run(capsys, ["table", "--type", "A1", "--all-pairs"])
    assert code == 0
    assert len(out.splitlines()) == 2 + 4  # header, separator, 2^1 * 2^1 rows
    code, out, _ = run(capsys, ["table", "--type", "B2", "--all-pairs",
                                "--format", "csv"])
    assert len(out.splitlines()) == 1 + 16


def test_table_default_pair_is_borel(capsys):
    code, out, _ = run(capsys, ["table", "--type", "A2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "A2,-,-,3,8,2,0,6,6,6,6,6,true"


def test_table_json_schema(capsys):
    code, out, _ = run(capsys, ["table", "--type", "A2", "--p", "0", "--q", "1",
                                "--format", "json"])
    payload = json.loads(out)
    assert payload["schema"] == "steinberg/1"
    assert payload["command"] == "table"
    row = payload["rows"][0]
    assert row == {
        "type": "A2", "J": [0], "K": [1], "n": 3, "d": 8, "l": 2, "f": 2,
        "dimX": 6, "dimY": 4, "cosets": 2, "inv_dim": 2, "anti_dim": 2,
        "passed": True,
    }


def test_components_default_and_pair(capsys):
    code, out, _ = run(capsys, ["components", "--type", "A2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "type,J,K,label,dim_Zw,dim_Yw,eta_dim_preserved"
    assert len(lines) == 1 + 6
    assert lines[1] == "A2,-,-,e,6,6,true"

    code, out, _ = run(capsys, ["components", "--type", "A2", "--p", "0",
                                "--q", "1", "--format", "csv"])
    assert out.splitlines()[1:] == [
        "A2,0,1,s1s2,6,4,false",
        "A2,0,1,s1s2s1,6,4,false",
    ]


def test_components_json(capsys):
    code, out, _ = run(capsys, ["components", "--type", "A2", "--p", "0",
                                "--q", "1", "--format", "json"])
    payload = json.loads(out)
    assert payload["command"] == "components"
    assert payload["rows"][0] == {
        "type": "A2", "J": [0], "K": [1], "label": "s1s2",
        "dim_Zw": 6, "dim_Yw": 4, "eta_dim_preserved": False,
    }


def test_verify_hotta_only(capsys):
    code, out, _ = run(capsys, ["verify", "--type", "B2", "--hotta"])
    assert code == 0
    assert out.splitlines() == [
        "PASS hotta s=1: expected 4, computed 4",
        "PASS hotta s=2: expected 4, computed 4",
        "summary: 2 passed, 0 failed",
    ]


def test_verify_all_pairs_exit_zero(capsys):
    code, out, _ = run(capsys, ["verify", "--type", "A3", "--all-pairs"])
    assert code == 0
    assert out.splitlines()[-1] == "summary: 192 passed, 0 failed"
    assert all(line.startswith("PASS ") for line in out.splitlines()[:-1])


def test_verify_default_sweeps_everything(capsys):
    code, out, _ = run(capsys, ["verify", "--type", "A1"])
    assert code == 0
    # 4 pairs x 3 checks + 1 hotta line + summary
    assert out.splitlines()[-1] == "summary: 13 passed, 0 failed"


def test_verify_and_table_sweeps_build_no_double_coset(capsys, monkeypatch):
    # the computed side reads the partition's member indices; a DoubleCoset
    # record is made only when a caller reads ``cosets``
    built = []

    class Counted(parabolic.DoubleCoset):
        def __new__(cls, *fields):
            built.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(parabolic, "DoubleCoset", Counted)
    for argv in (["verify", "--type", "B3"], ["table", "--type", "B3", "--all-pairs"]):
        code, out, err = run(capsys, argv)
        assert code == 0 and err == "" and out, argv
    assert built == []
    # the count does see the records that a read of ``cosets`` builds
    g = enumerate_weyl(root_system(cartan_from_name("B3")))
    assert len(parabolic.double_cosets(g, [0], [1]).cosets) == len(built) > 0


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, ["verify", "--type", "A2", "--p", "0", "--q", "1",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"schema", "command", "type", "reports", "summary"}
    assert payload["schema"] == "steinberg/1"
    assert payload["command"] == "verify"
    assert payload["type"] == "A2"
    assert payload["summary"] == {"passed": 3, "failed": 0}
    for report in payload["reports"]:
        assert {"claim", "expected", "computed", "passed", "witness"} <= set(report)
        assert report["passed"] is True


def test_verify_csv(capsys):
    code, out, _ = run(capsys, ["verify", "--type", "A2", "--p", "0", "--q", "1",
                                "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "type,claim,expected,computed,passed"
    assert lines[1] == "A2,invariant-dimension J={0} K={1},2,2,true"


def test_verify_failure_exit_code(capsys, monkeypatch):
    def broken(group, J, K):
        return VerificationReport(
            claim="invariant-dimension J={} K={}",
            expected=1, computed=2, passed=False,
            witness=SubspaceBasis(vectors=(), dimension=0),
        )

    monkeypatch.setattr(varieties, "verify_invariant_isomorphism", broken)
    code, out, _ = run(capsys, ["verify", "--type", "A1", "--p", "", "--q", ""])
    assert code == 1
    assert "FAIL invariant-dimension" in out
    assert out.splitlines()[-1] == "summary: 2 passed, 1 failed"


def _csv_rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def _delta_e_where_nonempty(side):
    """PairContext's eps_J (side "J") or eps_K ("K"), δ_e when that subset is nonempty."""
    real = getattr(varieties.PairContext, f"eps_{side.lower()}").func
    return property(lambda ctx: algebra.delta(ctx.group.identity) if getattr(ctx, side)
                    else real(ctx))


@pytest.mark.parametrize("sides", ["J", "K", "JK"])
@pytest.mark.parametrize("name", ["A3", "B3"])
def test_table_fails_a_row_under_a_sign_mutation(capsys, monkeypatch, name, sides):
    # the dimensions stay at the coset count; only sign-twisted absorption
    # sees the wrong idempotent, so a table row must read that clause too
    if sides == "JK":  # every nonempty subset's eps, on both sides at once
        real = varieties._idempotent
        monkeypatch.setattr(varieties, "_idempotent", lambda group, S, sign: (
            algebra.delta(group.identity) if sign and S else real(group, S, sign)))
    else:
        monkeypatch.setattr(varieties.PairContext, f"eps_{sides.lower()}",
                            _delta_e_where_nonempty(sides))
    code, out, err = run(capsys, ["table", "--type", name, "--all-pairs", "--format", "csv"])
    rows = _csv_rows(out)
    assert len(rows) == 4 ** 3
    failed = [(r["J"], r["K"]) for r in rows if r["passed"] == "false"]
    assert failed == [(r["J"], r["K"]) for r in rows
                      if any(r[side] != "-" for side in sides)]
    assert code == 1 and err == ""
    assert all(r["cosets"] == r["inv_dim"] == r["anti_dim"] for r in rows)


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_table_rows_agree_with_the_verify_reports(capsys, name):
    code, out, err = run(capsys, ["table", "--type", name, "--all-pairs", "--format", "csv"])
    table = _csv_rows(out)
    assert code == 0 and err == "" and {row["passed"] for row in table} == {"true"}
    code, out, _ = run(capsys, ["verify", "--type", name, "--all-pairs", "--format", "csv"])
    assert code == 0
    reports = {r["claim"]: r for r in _csv_rows(out)}
    assert len(reports) == 3 * len(table) == 3 * 4 ** (2 if name == "G2" else 3)
    for row in table:
        pair = "J={{{}}} K={{{}}}".format(*(row[S].replace("-", "") for S in ("J", "K")))
        inv = reports.pop(f"invariant-dimension {pair}")
        anti = reports.pop(f"anti-invariant-dimension {pair}")
        assert row["cosets"] == inv["expected"] == anti["expected"]
        assert (row["inv_dim"], row["anti_dim"]) == (inv["computed"], anti["computed"])
        both = "true" if inv["passed"] == anti["passed"] == "true" else "false"
        assert row["passed"] == both
    assert all(claim.startswith("averaging-image ") for claim in reports)


def test_unknown_type_exits_2(capsys):
    code, out, err = run(capsys, ["table", "--type", "Z9", "--p", "0", "--q", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_bad_subsets_exit_3(capsys):
    for p in ["5", "0,0", "x", "-1"]:
        code, _, err = run(capsys, ["table", "--type", "A2", "--p", p, "--q", "1"])
        assert code == 3, p
        assert err.startswith("error:")
    # argparse hands "--p=--" over as an empty list, not as the text "--"
    code, _, err = run(capsys, ["table", "--type", "A2", "--p=--", "--q", "1"])
    assert code == 3 and err == "error: subset '--' is not a comma-separated integer list\n"


def test_order_cap(capsys):
    code, _, err = run(capsys, ["table", "--type", "A2", "--p", "0", "--q", "1",
                                "--order-cap", "5"])
    assert code == 2 and "error:" in err
    # the cap is inclusive
    code, out, _ = run(capsys, ["table", "--type", "A2", "--p", "0", "--q", "1",
                                "--order-cap", "6"])
    assert code == 0
    # argparse reads --order-cap=-- as an empty list, past its int conversion
    code, _, err = run(capsys, ["table", "--type", "A2", "--order-cap=--"])
    assert code == 2 and err.startswith("error:")


# digits, separators, signs, and non-ASCII digits: Arabic-Indic three (int() reads
# it as 3), fullwidth one (1) and superscript two (int() rejects it)
_FUZZ_TEXT = hyp.text(alphabet="0123456789, +-\u0663\uff11\u00b2", max_size=8)
_FUZZ_CAP = hyp.one_of(
    hyp.integers(min_value=-3, max_value=12).map(str),
    hyp.integers(min_value=-10**30, max_value=10**30).map(str),
    _FUZZ_TEXT,
)


@settings(deadline=None, max_examples=80)
@given(
    command=hyp.sampled_from(["components", "table"]),
    name=hyp.sampled_from(["A2", "B2"]),
    p=hyp.none() | _FUZZ_TEXT,
    q=hyp.none() | _FUZZ_TEXT,
    cap=hyp.none() | _FUZZ_CAP,
)
def test_cli_boundary_fuzz(command, name, p, q, cap):
    argv = [command, "--type", name]
    for flag, value in (("--p", p), ("--q", q), ("--order-cap", cap)):
        if value is not None:
            argv.append(f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting an option value
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


def test_cartan_file(tmp_path, capsys):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"matrix": [[2, -1], [-1, 2]]}))
    code, out, _ = run(capsys, ["table", "--cartan", str(path), "--p", "0",
                                "--q", "1", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1].startswith("A2,0,1,")


def test_cartan_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, ["table", "--cartan", str(missing), "--p", "0", "--q", "0"])
    assert code == 2 and err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["table", "--cartan", str(bad), "--p", "0", "--q", "0"])
    assert code == 2

    nokey = tmp_path / "nokey.json"
    nokey.write_text(json.dumps({"rows": []}))
    code, _, err = run(capsys, ["table", "--cartan", str(nokey), "--p", "0", "--q", "0"])
    assert code == 2

    affine = tmp_path / "affine.json"
    affine.write_text(json.dumps({"matrix": [[2, -2], [-2, 2]]}))
    code, _, err = run(capsys, ["table", "--cartan", str(affine), "--p", "0", "--q", "0"])
    assert code == 2

    notcartan = tmp_path / "notcartan.json"
    notcartan.write_text(json.dumps({"matrix": [[2, 1], [1, 2]]}))
    code, _, err = run(capsys, ["table", "--cartan", str(notcartan), "--p", "0", "--q", "0"])
    assert code == 2


@pytest.mark.parametrize("payload", [
    {"matrix": 5},
    {"matrix": [5]},
    {"matrix": [[2]], "labels": 5},
])
def test_cartan_file_malformed_payload(tmp_path, capsys, payload):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["table", "--cartan", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


# any JSON value; integers run to 4,200 digits, below what int() refuses to read
_JSON_LEAF = hyp.one_of(
    hyp.none(), hyp.booleans(), hyp.floats(), hyp.text(max_size=4),
    hyp.integers(), hyp.integers(min_value=-10**4200, max_value=10**4200),
)
_JSON = hyp.recursive(
    _JSON_LEAF,
    lambda inner: (hyp.lists(inner, max_size=4)
                   | hyp.dictionaries(hyp.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)
# off-diagonal pairs (a_ij, a_ji): finite bonds, affine or worse bonds, or any two leaves
_BOND = hyp.one_of(
    hyp.sampled_from([(0, 0), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1)]),
    hyp.sampled_from([(-2, -2), (-1, -4), (-4, -1), (-2, -3), (0, -1)]),
    hyp.tuples(_JSON_LEAF, _JSON_LEAF),
)


@hyp.composite
def _square(draw):
    """A square matrix, mostly 2 on the diagonal and bonds off it, so it gets past
    the shape checks to the bond check, the root closure and the labels."""
    n = draw(hyp.integers(min_value=1, max_value=4))
    m = [[2] * n for _ in range(n)]
    for i in range(n):
        if draw(hyp.integers(0, 3)) == 0:  # one diagonal entry in four is any leaf
            m[i][i] = draw(_JSON_LEAF)
        for j in range(i):
            m[i][j], m[j][i] = draw(_BOND)
    return m


@settings(deadline=None, max_examples=150)
@given(matrix=_square() | _JSON,
       labels=hyp.just(None) | hyp.lists(_JSON_LEAF, max_size=4) | _JSON)
def test_cartan_file_fuzz(tmp_path_factory, matrix, labels):
    payload = {"matrix": matrix} if labels is None else {"matrix": matrix, "labels": labels}
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["table", "--cartan", str(path)])
    assert code in (0, 2, 3), (payload, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("error:") <= 1
    assert (code == 0) == (err.getvalue() == "") == (out.getvalue() != "")


def test_cartan_file_nested_past_recursion_limit(tmp_path, capsys):
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"matrix": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run(capsys, ["components", "--cartan", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def _one_error_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "", argv
    assert err.startswith("error:") and len(err.splitlines()) == 1, err[:200]
    assert "Traceback" not in err
    return err


# Python refuses to convert integers of more than 4,300 digits from text
_TOO_LONG = "9" * 5000


def test_type_rank_too_long_to_read(capsys):
    err = _one_error_line(capsys, ["table", "--type", "A" + _TOO_LONG])
    assert err == "error: type A rank has 5000 digits, too many to read\n"


@pytest.mark.parametrize("payload", [
    '{"matrix": [[' + _TOO_LONG + "]]}",
    '{"matrix": [[2]], "labels": [' + _TOO_LONG + "]}",
    '{"matrix": [[-' + _TOO_LONG + "]]}",
], ids=["entry", "label", "negative-entry"])
def test_cartan_file_integer_too_long_to_read(tmp_path, capsys, payload):
    path = tmp_path / "long.json"
    path.write_text(payload)
    err = _one_error_line(capsys, ["table", "--cartan", str(path)])
    # the JSON is valid, and Python's advice to raise its limit is no CLI option
    limit = sys.get_int_max_str_digits()
    assert err == (f"error: an integer in {path} has 5000 digits, "
                   f"more than the {limit} that can be read\n")
    assert "set_int_max_str_digits" not in err


def test_cartan_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"matrix": [[2]], "labels": ["\xe9"]}')
    _one_error_line(capsys, ["table", "--cartan", str(path)])


@pytest.mark.parametrize("source, rank", [
    (["--type", "A100000"], 100000),
    (["--type", "A" + "9" * 4000], None),  # readable, but its matrix would never finish
    (["--type", "D200"], 200),
    (["--cartan", "diagonal.json"], 64),
], ids=["A100000", "A4000digits", "D200", "diagonal64"])
def test_rank_above_order_cap_refused_before_any_matrix_work(
        tmp_path, capsys, monkeypatch, source, rank):
    from steinberg import rootsys

    def forbidden(*args, **kwargs):
        raise AssertionError("rank checked after the matrix work began")

    monkeypatch.setattr(rootsys, "standard_cartan", forbidden)
    monkeypatch.setattr(rootsys, "_closure", forbidden)
    if source[0] == "--cartan":
        path = tmp_path / source[1]
        path.write_text(json.dumps({"matrix": [
            [2 if i == j else 0 for j in range(rank)] for i in range(rank)]}))
        source = ["--cartan", str(path)]
    err = _one_error_line(capsys, ["table", *source])
    if rank is not None:
        assert err == (f"error: rank {rank} gives a group order of at least 2^rank, "
                       "above cap 51840\n")


def test_rank_bound_admits_what_the_cap_admits(tmp_path, capsys):
    # A1^3 has order exactly 2^3, so a cap of 8 admits it and 7 refuses its rank
    path = tmp_path / "a1cubed.json"
    path.write_text(json.dumps({"matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}))
    code, out, _ = run(capsys, ["table", "--cartan", str(path), "--order-cap", "8"])
    assert code == 0 and out.splitlines()[2].startswith("| A1xA1xA1 |")
    err = _one_error_line(capsys, ["table", "--cartan", str(path), "--order-cap", "7"])
    assert err == "error: rank 3 gives a group order of at least 2^rank, above cap 7\n"
    # above the rank bound, the cap itself still refuses A3 (order 24)
    err = _one_error_line(capsys, ["table", "--type", "A3", "--order-cap", "8"])
    assert err == "error: group order exceeds cap 8\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, ["table", "--type", "A2", "--p", "0", "--q", "1",
                                "--format", "csv", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[1] == "A2,0,1,3,8,2,2,6,4,2,2,2,true"


def test_deterministic_output(capsys):
    argv = ["verify", "--type", "B2", "--all-pairs", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = ["components", "--type", "B3", "--all-pairs", "--format", "csv"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_out_file_unwritable(tmp_path, capsys, monkeypatch):
    target = tmp_path / "missing-dir" / "report.md"
    code, out, err = run(capsys, ["table", "--type", "A2", "--p", "0", "--q", "1",
                                  "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not target.exists()

    # the file is opened before the sweep: no pair is computed for nothing
    def refuse(*args):
        raise AssertionError("a pair was computed before --out was opened")

    monkeypatch.setattr(varieties, "pair_context", refuse)
    monkeypatch.setattr(parabolic, "_component_reps", refuse)
    for command in ("table", "components", "verify"):
        code, out, err = run(capsys, [command, "--type", "D4", "--all-pairs",
                                      "--out", str(target)])
        assert code == 2 and out == "", command
        assert err.startswith(f"error: cannot write {target}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["table", "components", "verify"])
@pytest.mark.parametrize("selection,expected", [
    (["--type", "A2", "--p", "9"], 3),
    (["--type", "Z9"], 2),
])
def test_bad_input_leaves_out_file_untouched(tmp_path, capsys, command, selection, expected):
    target = tmp_path / "report.md"
    target.write_bytes(b"an earlier report\n")
    code, out, err = run(capsys, [command, *selection, "--out", str(target)])
    assert code == expected and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert target.read_bytes() == b"an earlier report\n"


SRC = Path(__file__).resolve().parents[1] / "src"


def cli_child(argv, **kwargs):
    """``python -m steinberg.cli argv`` in a child process, stderr piped."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, "-m", "steinberg.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kwargs)


def test_import_loads_neither_dataclasses_nor_inspect():
    # importing both costs about 22 ms per process, more than a small run's work
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def modules(*imports):
        code = "import sys\n" + "".join(f"import {m}\n" for m in imports)
        code += "print(' '.join(sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return set(out.split())

    added = modules("steinberg.cli") - modules()
    assert "steinberg.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["table", "components", "verify"])
def test_full_device_exits_2_with_one_error_line(capsys, command):
    code, out, err = run(capsys, [command, "--type", "A2", "--out", "/dev/full"])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write /dev/full: ") and len(err.splitlines()) == 1

    with open("/dev/full", "w") as full:
        child = cli_child([command, "--type", "A2"], stdout=full)
        _, err = child.communicate(timeout=120)
    err = err.decode()
    assert child.returncode == 2, err
    assert err.startswith("error: cannot write stdout: ") and len(err.splitlines()) == 1


def test_closed_stdout_ends_the_sweep_quietly():
    child = cli_child(["components", "--type", "D5", "--all-pairs"], stdout=subprocess.PIPE)
    try:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        _, err = child.communicate(timeout=120)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 0 and err == b""


class Sink(io.TextIOBase):
    """A stdout that records the size of each write and hashes what it gets.

    It keeps the text only if asked to; from write ``closed_at`` on it acts
    as a pipe whose reader has gone.
    """

    def __init__(self, keep=False, closed_at=None):
        self.sizes, self.parts, self.keep, self.closed_at = [], [], keep, closed_at
        self.digest = hashlib.sha256()

    def write(self, text):
        if len(self.sizes) == self.closed_at:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        self.sizes.append(len(text))
        self.digest.update(text.encode("utf-8"))
        if self.keep:
            self.parts.append(text)
        return len(text)


@pytest.mark.parametrize("closed_at,expected", [(0, 0), (1, 1)])
def test_closed_stdout_exit_code_counts_written_reports(capsys, monkeypatch, closed_at, expected):
    real = varieties.verify_invariant_isomorphism
    calls = Counter()

    def first_pair_fails(group, J, K):
        calls[J, K] += 1
        report = real(group, J, K)
        return report._replace(passed=False) if (J, K) == ((), ()) else report

    monkeypatch.setattr(varieties, "verify_invariant_isomorphism", first_pair_fails)
    monkeypatch.setattr(sys, "stdout", Sink(closed_at=closed_at))
    # markdown verify writes one piece per pair; the first pair's holds the failure
    code, _, err = run(capsys, ["verify", "--type", "A1", "--all-pairs"])
    assert code == expected and err == ""
    # the sweep stopped at the write that failed
    assert sum(calls.values()) == closed_at + 1


@pytest.mark.parametrize("closed_at,expected", [(1, 0), (2, 1)])
def test_closed_stdout_exit_code_counts_written_table_rows(capsys, monkeypatch, closed_at,
                                                           expected):
    real = varieties._dimension_report

    def first_pair_fails(group, J, K, sign):
        report = real(group, J, K, sign)
        return report._replace(passed=False) if (J, K, sign) == ((), (), True) else report

    monkeypatch.setattr(varieties, "_dimension_report", first_pair_fails)
    sink = Sink(closed_at=closed_at)
    monkeypatch.setattr(sys, "stdout", sink)
    # markdown table writes its header, then one piece per pair; the first
    # pair's row is false, so the exit code is 1 once that row is written
    code, _, err = run(capsys, ["table", "--type", "A1", "--all-pairs"])
    assert code == expected and err == ""
    assert len(sink.sizes) == closed_at


# stdout sha256 of B4 --all-pairs --format json, recorded before the output
# was streamed, when each document was one json.dumps
B4_JSON_SHA256 = {
    "table": "5e6ac23e127ca15538c9f31721c462c812104173e511b9aebff8bb0cea01a746",
    "components": "f4e0928c6c79b5b0a6a842958c3ab7bc4e8db4d00d76356d042c67dc27ed0776",
    "verify": "a75c37109eb942306e692c2d481ca7de1725cfd3d99258c8f65231ff7d150b35",
}


@pytest.mark.parametrize("command", sorted(B4_JSON_SHA256))
def test_output_streams_pair_by_pair(monkeypatch, command):
    sink = Sink(keep=True)
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main([command, "--type", "B4", "--all-pairs", "--format", "json"]) == 0
    out = "".join(sink.parts)
    assert sink.digest.hexdigest() == B4_JSON_SHA256[command]
    document = json.loads(out)
    assert json.dumps(document, indent=2) + "\n" == out
    # each pair's rows, as the whole document renders them, joined by ",\n"
    pair_sizes = Counter()
    for row in document["reports" if command == "verify" else "rows"]:
        pair = row["claim"].partition(" J=")[2] if command == "verify" else (row["J"], row["K"])
        item = "    " + json.dumps(row, indent=2).replace("\n", "\n    ")
        pair_sizes[str(pair)] += len(item) + 2
    assert len(pair_sizes) == 256 and len(sink.sizes) >= 256
    opening = out[:out.index("[") + 1]
    assert max(sink.sizes) <= len(opening) + max(pair_sizes.values())


def test_components_sweep_peak_stays_below_its_output(monkeypatch):
    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(["components", "--type", "B4", "--all-pairs", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.digest.hexdigest() == B4_JSON_SHA256["components"]
    assert peak < sum(sink.sizes), (peak, sum(sink.sizes))


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_components_sweep_renders_per_subset_not_per_pair(capsys, monkeypatch, fmt):
    # 64 pairs of 8 subsets: the renderer runs for the header, the row
    # template and each distinct subset's cell, never once per pair
    calls = Counter()
    row = cli._row

    def counting(*args):
        calls["row"] += 1
        return row(*args)

    monkeypatch.setattr(cli, "_row", counting)
    code, out, err = run(capsys, ["components", "--type", "B3", "--all-pairs", "--format", fmt])
    assert code == 0 and err == "" and out
    assert calls["row"] <= 8 + 4, calls


def test_empty_json_list_renders_as_json_dumps():
    envelope = {"schema": cli.SCHEMA, "command": "table", "rows": [cli._ITEMS]}
    text = "".join(cli._document("json", envelope, cli.TABLE_COLUMNS, iter(())))
    assert text == json.dumps({**envelope, "rows": []}, indent=2) + "\n"


def test_console_script_installed():
    import importlib.metadata as md
    import tomllib
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    target = declared["project"]["scripts"]["steinberg"]
    assert target == "steinberg.cli:main"

    entry = md.EntryPoint(name="steinberg", value=target, group="console_scripts")
    with pytest.raises(SystemExit) as exc:
        entry.load()(["--help"])
    assert exc.value.code == 0

    # when the package is installed, its metadata must agree with pyproject
    try:
        dist = md.distribution("steinberg")
    except md.PackageNotFoundError:
        return
    scripts = {ep.name: ep.value for ep in dist.entry_points
               if ep.group == "console_scripts"}
    assert scripts.get("steinberg") == target


# frozen: stdout sha256 of every table/verify format on four types with
# --all-pairs, recorded from the implementation before the per-pair context;
# the A2/B3/G2/D4 components digests were recorded before the
# integer-numerator algebra, the F4 and --cartan ones before the components
# path lifted min reps to max reps by greedy ascent, the B4 ones before it
# read them from per-subset coset tables
CORPUS_SHA256 = {
    ("components", "B4", "markdown"):
        "91641609071db90d7d41f4947eeaf15d2bc558ee2ec74d2eca8d2e1b61d8b802",
    ("components", "B4", "csv"):
        "837d7eadc8706126cd25c69ccb4f23000411b694eaf2cf822f4cc703107d974f",
    ("components", "B4", "json"):
        "f4e0928c6c79b5b0a6a842958c3ab7bc4e8db4d00d76356d042c67dc27ed0776",
    ("components", "F4", "markdown"):
        "13dc286b33b12cad6e1fa0ec5256e69a7f953168451bc39065c46a2870132c71",
    ("components", "F4", "csv"):
        "46ea0d5735fdcf512d0d80deaecefdebe17eb0210e36b556e48b4d3f4e2e5483",
    ("components", "F4", "json"):
        "180b8c9285b81d8981b64783fe67f775e97a9e1043c09bfbbfd5ad7b84780b2c",
    ("components", "cartan-A1xA2", "csv"):
        "24a4b847c0d350b1000215730b09ad850416732af63c3ced60ce73b6a5a5cf1d",
    ("components", "cartan-A1xA2", "json"):
        "b29e3d999d4596410e8762a7b1962e629d2df06530643b2f031af8ef0862deef",
    ("components", "A2", "markdown"):
        "14b504e12e6129b8be6b9ba20383f61a2c574cbd97168fc9f01c724fb5e0d7cf",
    ("components", "A2", "csv"):
        "c1d9fc0146d09569cc2b2ee6e11794cdc8ab1de51bd511142bd599af68a85e03",
    ("components", "A2", "json"):
        "01fc749a265e5cabe76d47c3258abe6dbe1e4d68e4e6ff644cb8cf711ef37071",
    ("components", "B3", "markdown"):
        "8e12e9c2a20e90cfd9f66d0a1050ddc46611bd765f7d15e2769df3770af6a1e5",
    ("components", "B3", "csv"):
        "b9680394a1169fb9b4bfdae8b4ba945d6e95ece27574740b5f8d3f1913ef7a26",
    ("components", "B3", "json"):
        "062727ded365d0641623c2927a98e5dbf13bd87cb4c83a99220cc4bafbbae714",
    ("components", "G2", "markdown"):
        "95e1f4c071d68d6e0aed331623dc41a8fd7826c16943caa2bd192c564708a238",
    ("components", "G2", "csv"):
        "05feb4dfaf3617f8473c321435cac7cd95129001b5848d4fcd537c309588363d",
    ("components", "G2", "json"):
        "58ac64792d8532c6715367b074deb1683059a0bd570dcb37d0a846221c3c091e",
    ("components", "D4", "markdown"):
        "5404cba3c74811222eedcafadf7a676b8d667429578c5e24fc84920fc3b94f95",
    ("components", "D4", "csv"):
        "f9689e6ee649590ff40bc94899c9874eb6daa2cf7164e7e1f741dbc6fdbe436f",
    ("components", "D4", "json"):
        "57c92b8df1183cd88dc9a5a654e823c057f864be748724dd0795fe2e762c1361",
    ("table", "A2", "markdown"):
        "f11ebf8556f84e5e460b06d1e47eb11e7d4130ae36b9648087c0d1ebda06111e",
    ("table", "A2", "csv"):
        "e01ddcd7b14cc00a4351279c491b2e459a85ed371226dddff08886d3f38cf999",
    ("table", "A2", "json"):
        "0912992484265cab199342b4f43fd3b99d8742568e47ed3dfc09eb2790bfa48f",
    ("table", "B3", "markdown"):
        "a6ea4c4b36ef2e067072f4b4d87ed658a758c5fcb83e93aba95e269e57cb79b0",
    ("table", "B3", "csv"):
        "73b04e53a7753ab8dfda3390c149db38cee23047f75bfa8027a38011388ae9cf",
    ("table", "B3", "json"):
        "8cce367cf0b6152063104262338b925347807ec9397daad12bf552e5d847aa9e",
    ("table", "G2", "markdown"):
        "dfdf90f1e56a840fb23e4bd8ee80d152d81dc14426c0e9142eb74c8a49b51758",
    ("table", "G2", "csv"):
        "c9449dcf00a2e3a84388b9a877a49f51c31d81f835e7a379c6f4711a12b193ef",
    ("table", "G2", "json"):
        "5b3c9d6890ee4de07c07d916cf3d4c13eb41d79d94ff08b597200a51989de2af",
    ("table", "D4", "markdown"):
        "55856fb31b192d4a9dfaa7949003fa8ed7d67f843cbcc089e64d14f9b09e9d32",
    ("table", "D4", "csv"):
        "f78b0aa6e3bba1ac3d9fe55047ec03cc917e32b220e6ca59d1cd966c9aaf27bf",
    ("table", "D4", "json"):
        "e7d22798e81f56ce8146ac1e940aa1dfaaf7caea2228824b31f5b87c6defd9a3",
    ("verify", "A2", "markdown"):
        "ff2ae4a5a0e30575b3bed9f5bccd3e7f8032545419a63c1b8a91b5ca13375004",
    ("verify", "A2", "csv"):
        "68f02cb4ea56fd342ba48672906e69b8932282523f51211281de0c193e6e83eb",
    ("verify", "A2", "json"):
        "ddf781cfe27c196f42e7778b2d6bf6895228068d40878d89082f2eb5c068b63e",
    ("verify", "B3", "markdown"):
        "9108f706d5049582e8d2a01e615859a9f52edfe5a6ed8563c6a8b626579d39e5",
    ("verify", "B3", "csv"):
        "51035d299b2301e6d60a7db169bbd2796fd757191343257837f6a9f39581b1af",
    ("verify", "B3", "json"):
        "e62e2857db95a63035b52dcb08b08e79bcf3c26d61e9945484f900ad120e2842",
    ("verify", "G2", "markdown"):
        "d21db216d360b25181be08b33332785432ae903ccaf012b80d1ab824e7e23be6",
    ("verify", "G2", "csv"):
        "849a5db677fe059d2b9e15e11710dfeddef3c1462afbe6649559b99c922879f7",
    ("verify", "G2", "json"):
        "8e1efeb53f23eac92586831d9900347e50210c5d23ce07d52eb00cdb2d6d5297",
    ("verify", "D4", "markdown"):
        "a2cd9b881bdab3a5a5891cccc49f3595e85ecaee124f3d008969de35b77b243f",
    ("verify", "D4", "csv"):
        "8a1de6a549b9e2ada2f4b4bdcb12774fd2fc329989612be809d4363f4e8f843d",
    ("verify", "D4", "json"):
        "a8f561048759c55daae382f9ba74d65a4f9a23803584e6947b26823395ba787a",
}


# corpus names read from a --cartan file: matrix and pair selection; the
# reducible A1xA2 with K = {1, 2} puts a quoted "1,2" cell in the csv
CARTAN_CORPUS = {
    "cartan-A1xA2": ([[2, 0, 0], [0, 2, -1], [0, -1, 2]], ["--p", "0", "--q", "1,2"]),
}


@pytest.mark.parametrize("command,name,fmt", sorted(CORPUS_SHA256))
def test_cli_bytes_frozen_corpus(tmp_path, capsys, command, name, fmt):
    if name in CARTAN_CORPUS:
        matrix, selection = CARTAN_CORPUS[name]
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps({"matrix": matrix}))
        source = ["--cartan", str(path), *selection]
    else:
        source = ["--type", name, "--all-pairs"]
    code, out, err = run(capsys, [command, *source, "--format", fmt])
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == CORPUS_SHA256[command, name, fmt]
