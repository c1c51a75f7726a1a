from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hyp

from cli_digests import CARTAN, DIGESTS
from steinberg import algebra, cli, parabolic, varieties
from steinberg.algebra import SubspaceBasis
from steinberg.rootsys import cartan_from_name, enumerate_weyl, root_system, validate_cartan
from steinberg.varieties import VerificationReport

SHA256 = dict(DIGESTS)


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


# A1xA2 with the A2 on indices 0 and 2, so the A1 sits between its letters
INTERLEAVED_A1XA2 = [[2, 0, -1], [0, 2, 0], [-1, 0, 2]]


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "interleaved-A1xA2"])
def test_components_rows_match_y_components(tmp_path, capsys, name):
    # the CLI renders its rows from _component_reps indices without building
    # the y_components reports; every row must still be the library's report
    if name == "interleaved-A1xA2":
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps({"matrix": INTERLEAVED_A1XA2}))
        source, datum = ["--cartan", str(path)], validate_cartan(INTERLEAVED_A1XA2)
    else:
        source, datum = ["--type", name], cartan_from_name(name)
    code, out, err = run(capsys, ["components", *source, "--all-pairs", "--format", "json"])
    assert code == 0 and err == ""
    group = enumerate_weyl(root_system(datum))
    by_pair: dict[tuple, list] = {}
    for row in json.loads(out)["rows"]:
        by_pair.setdefault((tuple(row["J"]), tuple(row["K"])), []).append(row)
    assert len(by_pair) == 4 ** group.rank
    for (J, K), rows in by_pair.items():
        assert [(r["label"], r["dim_Zw"], r["dim_Yw"], r["eta_dim_preserved"]) for r in rows] == [
            (c.label.name, c.dim_zw, c.dim_yw, c.eta_dim_preserved)
            for c in varieties.y_components(group, J, K)
        ], (J, K)


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


def _csv_pair(row):
    """The (J, K) of a csv row, as tuples of 0-based indices."""
    return tuple(() if row[S] == "-" else tuple(map(int, row[S].split(","))) for S in "JK")


def _delta_e_where_nonempty(side):
    """PairContext.__init__ that sets eps_J (side "J") or eps_K ("K") to δ_e when
    that subset is nonempty."""
    real = varieties.PairContext.__init__

    def init(ctx, group, J, K):
        real(ctx, group, J, K)
        if getattr(ctx, side):
            setattr(ctx, f"eps_{side.lower()}", algebra.delta(group.identity))

    return init


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
        monkeypatch.setattr(varieties.PairContext, "__init__", _delta_e_where_nonempty(sides))
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
    # int() reads each of these as an index; a subset takes ASCII digits only
    for p in ["0_1", "+1", "\u0663", "\uff11"]:
        code, out, err = run(capsys, ["table", "--type", "A4", "--p", p, "--q", "1"])
        assert (code, out) == (3, ""), p
        assert err == f"error: subset {p!r} is not a comma-separated integer list\n"
    # spaces around the entries are still stripped
    assert run(capsys, ["table", "--type", "A4", "--p", " 0 , 1 ", "--q", "1"]) == \
        run(capsys, ["table", "--type", "A4", "--p", "0,1", "--q", "1"])
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
    # ASCII digits only, as a subset reads them: int() reads the first five as
    # 6, and argparse hands --order-cap=-- over as an empty list
    for cap in ["\u0666", "\uff16", "+6", "0_6", " 6", "--", ""]:
        code, out, err = run(capsys, ["table", "--type", "A2", f"--order-cap={cap}"])
        assert (code, out) == (2, ""), cap
        assert err == f"error: argument --order-cap: invalid int value: {cap!r}\n"


# digits, separators, signs, and non-ASCII digits: Arabic-Indic three, fullwidth
# one and superscript two, which a subset and --order-cap both refuse
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
    # every value is read by cli, not argparse, so none ends in SystemExit
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
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


@pytest.mark.parametrize("source, rank, cap", [
    (["--type", "A100000"], 100000, None),  # no flag: the default cap, 51840
    (["--type", "A" + "9" * 4000], None, None),  # readable, but its matrix would never finish
    (["--type", "D200"], 200, None),
    (["--cartan", "diagonal.json"], 64, None),
    # a cap of 0 or below admits no group, and a negative int has bits of its own
    (["--type", "A1"], 1, 0),
    (["--type", "A120"], 120, -2**130),
    (["--cartan", "diagonal.json"], 64, -1),
], ids=["A100000", "A4000digits", "D200", "diagonal64", "A1-cap0", "A120-cap-2^130",
        "diagonal64-cap-1"])
def test_rank_above_order_cap_refused_before_any_matrix_work(
        tmp_path, capsys, monkeypatch, source, rank, cap):
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
    flag = [] if cap is None else [f"--order-cap={cap}"]
    err = _one_error_line(capsys, ["table", *source, *flag])
    if rank is not None:
        assert err == (f"error: rank {rank} gives a group order of at least 2^rank, "
                       f"above cap {51840 if cap is None else cap}\n")


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
    # a sweep runs every pair, so a pair selection beside it is refused, valid or not
    (["--type", "A2", "--all-pairs", "--p", "0"], 2),
    (["--type", "A2", "--all-pairs", "--q", "1"], 2),
    (["--type", "A2", "--all-pairs", "--p", "9", "--q", "x"], 2),
    (["--type", "A2", "--q", "x"], 3),
    # |W(E7)| is above the default cap, but the subset is refused before enumeration
    (["--type", "E7", "--p", "9"], 3),
    # a Cartan error comes before the subset's
    (["--type", "Z9", "--p", "9"], 2),
])
def test_bad_input_leaves_out_file_untouched(tmp_path, capsys, monkeypatch, command,
                                             selection, expected):
    # the pair flags need only the rank, so no refused input enumerates a group
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_weyl(*args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_weyl", counting)
    target = tmp_path / "report.md"
    target.write_bytes(b"an earlier report\n")
    code, out, err = run(capsys, [command, *selection, "--out", str(target)])
    assert code == expected and out == "" and calls == []
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert target.read_bytes() == b"an earlier report\n"
    assert run(capsys, [command, "--type", "A2", "--p", "0", "--q", "1"])[0] == 0
    assert len(calls) == 1


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


def _address_space_after_import() -> int:
    """VmPeak, in bytes, of a child that has imported the CLI."""
    code = ("import steinberg.cli\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmPeak:')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         check=True, capture_output=True, text=True).stdout
    return int(out) << 10


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
@pytest.mark.parametrize("headroom_mb, header", [(8, False), (40, True)])
def test_running_out_of_memory_exits_2_with_one_error_line(headroom_mb, header):
    # The limit is on the child's own address space, set in the child only.
    # Above its import, E6's group needs about 24 MB and the Borel pair's bases
    # about 75 MB, so 8 MB fails inside enumeration, before the first byte,
    # and 40 MB in the first pair, after the header.
    resource = pytest.importorskip("resource")
    limit = _address_space_after_import() + (headroom_mb << 20)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    child = cli_child(["table", "--type", "E6"], stdout=subprocess.PIPE,
                      preexec_fn=limit_address_space)
    try:
        out, err = child.communicate(timeout=120)
    finally:
        child.kill()
        child.wait()
    err = err.decode()
    assert child.returncode == 2 and "Traceback" not in err, err
    message = "error: out of memory for E6 (order cap 51840)"
    if header:
        assert out.decode().splitlines() == [
            "| " + " | ".join(cli.TABLE_COLUMNS) + " |",
            "| " + " | ".join(["---"] * len(cli.TABLE_COLUMNS)) + " |"]
        assert err == message + " at pair J={} K={}\n"
    else:
        assert out == b"" and err == message + "\n"


def test_a_lost_memory_error_is_out_of_memory(capsys, monkeypatch):
    # out of memory, CPython 3.11 and 3.12 can lose a call's MemoryError and raise
    # this SystemError instead (seen under RLIMIT_AS in WeylGroup.__init__)
    def lost(args, at):
        raise SystemError("<function WeylGroup.__init__ at 0x7f> returned NULL without "
                          "setting an exception")

    monkeypatch.setattr(cli, "_run", lost)
    assert run(capsys, ["table", "--type", "E6"]) == (
        2, "", "error: out of memory for E6 (order cap 51840)\n")

    def other(args, at):
        raise SystemError("bad argument to internal function")

    monkeypatch.setattr(cli, "_run", other)
    with pytest.raises(SystemError, match="bad argument"):
        cli.main(["table", "--type", "E6"])


@pytest.mark.parametrize("command", ["table", "components", "verify"])
def test_closed_descriptor_1_is_a_write_error(tmp_path, capsys, command):
    # with descriptor 1 closed at start the interpreter sets sys.stdout to None:
    # the same exit 2 and one line as an unwritable stdout, and --out still works
    def close_stdout():
        os.close(1)

    child = cli_child([command, "--type", "A1"], preexec_fn=close_stdout)
    _, err = child.communicate(timeout=60)
    err = err.decode()
    assert child.returncode == 2 and "Traceback" not in err, err
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write stdout: ")
    target = tmp_path / "out.md"
    child = cli_child([command, "--type", "A1", "--out", str(target)], preexec_fn=close_stdout)
    _, err = child.communicate(timeout=60)
    assert child.returncode == 0 and err == b""
    assert target.read_text(encoding="utf-8") == run(capsys, [command, "--type", "A1"])[1]


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

    def first_pair_fails(ctx, sign):
        report = real(ctx, sign)
        return report._replace(passed=False) if (ctx.J, ctx.K, sign) == ((), (), True) else report

    monkeypatch.setattr(varieties, "_dimension_report", first_pair_fails)
    sink = Sink(closed_at=closed_at)
    monkeypatch.setattr(sys, "stdout", sink)
    # markdown table writes its header, then one piece per pair; the first
    # pair's row is false, so the exit code is 1 once that row is written
    code, _, err = run(capsys, ["table", "--type", "A1", "--all-pairs"])
    assert code == expected and err == ""
    assert len(sink.sizes) == closed_at


@pytest.mark.parametrize("command", ["components", "table", "verify"])
def test_output_streams_pair_by_pair(monkeypatch, command):
    sink = Sink(keep=True)
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main([command, "--type", "B4", "--all-pairs", "--format", "json"]) == 0
    out = "".join(sink.parts)
    assert sink.digest.hexdigest() == SHA256[f"{command} --type B4 --all-pairs --format json"]
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
    assert code == 0
    assert sink.digest.hexdigest() == SHA256["components --type B4 --all-pairs --format json"]
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


def test_pair_sweep_is_yielded_from_the_subsets():
    # a rank-12 sweep has 4^12 = 16,777,216 pairs; its first few cost the
    # 4,096 subsets alone, not the list of every pair
    args = cli._parser().parse_args(["table", "--type", "A1", "--all-pairs"])
    tracemalloc.start()
    try:
        pairs, _ = cli._resolve_pairs(args, 12)
        first = [next(pairs) for _ in range(5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [((), ()), ((), (0,)), ((), (1,)), ((), (0, 1)), ((), (2,))]
    assert peak < 1 << 20, peak


def test_one_pair_of_a_rank_15_input_runs_in_seconds(tmp_path):
    # A1^15 has order 2^15, under the default cap, and 4^15 pairs in its
    # sweep: a single pair must not list them
    path = tmp_path / "a1x15.json"
    path.write_text(json.dumps({"matrix": [[2 * (i == j) for j in range(15)] for i in range(15)]}))
    child = cli_child(["table", "--cartan", str(path), "--p", "0", "--q", "1"],
                      stdout=subprocess.PIPE)
    try:
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 0 and err == b""
    assert out.splitlines()[-1].endswith(b" | 8192 | 8192 | 8192 | true |")


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


# the frozen corpus and Hotta entries of the manifest keep the test ids they
# had before it; every other entry's test id is its command line
CORPUS = {
    f"{command}-{name}-{fmt}": f"{command} --type {name} --all-pairs --format {fmt}"
    for command, names in [("table", "A2 B3 G2 D4"), ("verify", "A2 B3 G2 D4"),
                           ("components", "A2 B3 G2 D4 B4 F4")]
    for name in names.split() for fmt in ("markdown", "csv", "json")
}
CORPUS |= {f"components-cartan-A1xA2-{fmt}":
           f"components --cartan a1xa2.json --p 0 --q 1,2 --format {fmt}"
           for fmt in ("csv", "json")}
HOTTA = {name: f"verify --type {name} --hotta --format json" for name in ("B2", "G2", "B3", "D4")}


def check_bytes(tmp_path, monkeypatch, line):
    """Run one manifest command line in-process, its stdout hashed as it is written."""
    for name, matrix in CARTAN.items():
        (tmp_path / name).write_text(json.dumps({"matrix": matrix}))
    monkeypatch.chdir(tmp_path)
    sink, err = Sink(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", sink)
    with redirect_stderr(err):
        code = cli.main(shlex.split(line))
    assert (code, err.getvalue(), sink.digest.hexdigest()) == (0, "", SHA256[line]), line


@pytest.mark.parametrize("line", CORPUS.values(), ids=list(CORPUS))
def test_cli_bytes_frozen_corpus(tmp_path, monkeypatch, line):
    check_bytes(tmp_path, monkeypatch, line)


@pytest.mark.parametrize("line", HOTTA.values(), ids=list(HOTTA))
def test_cli_bytes_frozen_hotta(tmp_path, monkeypatch, line):
    check_bytes(tmp_path, monkeypatch, line)


@pytest.mark.parametrize(
    "line", [line for line in SHA256 if line not in {*CORPUS.values(), *HOTTA.values()}], ids=str)
def test_cli_bytes(tmp_path, monkeypatch, line):
    check_bytes(tmp_path, monkeypatch, line)


def test_cli_bytes_are_all_in_the_manifest():
    # no digest is checked in CI alone, and no command line is pinned twice
    workflow = (SRC.parent / ".github/workflows/tests.yml").read_text(encoding="utf-8")
    assert set(re.findall("[0-9a-fA-F]{64}", workflow)) <= set(SHA256.values())
    assert len(SHA256) == len(DIGESTS)


# A and its transpose have the same Coxeter matrix, so the same Weyl group
# (Bourbaki, *Lie groups and Lie algebras*, ch. VI, §1): the rho-orbit keys
# differ, but not the canonical words or the enumeration order, so every
# byte agrees once the type tag is masked; no oracle is needed
TRANSPOSE_COMMANDS = [
    ["table", "--all-pairs", "--format", "csv"],
    ["verify", "--format", "json"],
    ["components", "--all-pairs", "--format", "csv"],
    ["verify", "--hotta", "--format", "json"],
]


@pytest.mark.parametrize("name,transpose", [("B3", "C3"), ("G2", None), ("B4", None),
                                            ("F4", None)])
def test_transpose_gives_the_same_bytes_but_the_tag(tmp_path, capsys, name, transpose):
    # a transpose that no --type names is read from a --cartan file
    matrix = [list(column) for column in zip(*cartan_from_name(name).matrix)]
    source = ["--type", transpose]
    if transpose is None:
        path = tmp_path / "transpose.json"
        path.write_text(json.dumps({"matrix": matrix}))
        source = ["--cartan", str(path)]
    tag = validate_cartan(matrix).type_name

    def output(argv):  # a StringIO, not capsys: B4's verify JSON is 12 MB
        with redirect_stdout(io.StringIO()) as buf:
            assert cli.main(argv) == 0
        return buf.getvalue()

    for command, *options in TRANSPOSE_COMMANDS:
        if name == "F4" and command == "verify":
            continue  # F4 runs the two sweeps only: its verify JSON takes too long
        out = output([command, "--type", name, *options])
        t_out = output([command, *source, *options])
        assert t_out.count(tag) == out.count(name) > 0
        assert t_out.replace(tag, name) == out, (command, options)
    assert capsys.readouterr() == ("", "")


# relabelling the simple roots (A -> P A P^T: root i of the new matrix is
# root p[i] of A) changes every canonical word, table and coset order, but no
# count: pair (J, K) of the new matrix is pair (p(J), p(K)) of A, with the
# same label lengths, dimensions and eta, the same table row and the same
# verify reports
def _relabellings(tmp_path, name):
    """Two seeded relabellings of a type: each p, and --cartan of P A P^T."""
    matrix = cartan_from_name(name).matrix
    rng = random.Random(name)
    for _ in range(2):
        p = list(range(len(matrix)))
        while p == sorted(p):  # G2 has only the swap
            rng.shuffle(p)
        path = tmp_path / "relabelled.json"
        path.write_text(json.dumps({"matrix": [[matrix[i][j] for j in p] for i in p]}))
        yield p, ["--cartan", str(path)]


def _relabelled_pair(p, J, K):
    """The pair (p(J), p(K)) of the original matrix."""
    return tuple(sorted(p[i] for i in J)), tuple(sorted(p[k] for k in K))


@pytest.mark.parametrize("name", ["B3", "D4", "G2"])
def test_relabelling_keeps_each_pairs_components(tmp_path, capsys, name):
    rank = len(cartan_from_name(name).matrix)

    def components(source):
        with redirect_stdout(io.StringIO()) as buf:
            assert cli.main(["components", *source, "--all-pairs", "--format", "csv"]) == 0
        rows = _csv_rows(buf.getvalue())
        pairs = {}
        for row in rows:
            pairs.setdefault(_csv_pair(row), Counter())[
                row["label"].count("s"), row["dim_Zw"], row["dim_Yw"], row["eta_dim_preserved"]
            ] += 1
        assert {row["type"] for row in rows} == {name}
        return pairs

    original = components(["--type", name])
    for p, source in _relabellings(tmp_path, name):
        relabelled = components(source)
        assert len(relabelled) == 4 ** rank
        for (J, K), rows in relabelled.items():
            assert rows == original[_relabelled_pair(p, J, K)], (p, J, K)
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("name", ["B3", "D4", "G2"])
def test_relabelling_keeps_each_pairs_table_row_and_reports(tmp_path, capsys, name):
    rank = len(cartan_from_name(name).matrix)

    def csv_rows(command, source, *options):
        with redirect_stdout(io.StringIO()) as buf:
            assert cli.main([command, *source, *options, "--format", "csv"]) == 0
        rows = _csv_rows(buf.getvalue())
        assert {row["type"] for row in rows} == {name}
        return rows

    def table(source):
        # every cell but J and K: cosets, inv_dim, anti_dim and passed, and the
        # dimensions beside them
        return {_csv_pair(row): {c: v for c, v in row.items() if c not in ("J", "K")}
                for row in csv_rows("table", source, "--all-pairs")}

    def verify(source):
        reports = {}
        for row in csv_rows("verify", source, "--all-pairs"):
            stem, *pair = re.fullmatch(r"(\S+) J=\{([\d,]*)\} K=\{([\d,]*)\}",
                                       row["claim"]).groups()
            pair = tuple(tuple(map(int, S.split(","))) if S else () for S in pair)
            reports.setdefault(pair, {})[stem] = (
                row["expected"], row["computed"], row["passed"])
        return reports

    for run_of in table, verify:
        original = run_of(["--type", name])
        for p, source in _relabellings(tmp_path, name):
            relabelled = run_of(source)
            assert len(relabelled) == 4 ** rank
            for (J, K), cells in relabelled.items():
                assert cells == original[_relabelled_pair(p, J, K)], (run_of, p, J, K)
    assert capsys.readouterr() == ("", "")


# a block sum with interleaved indices, A1 on {1} and B3 on (0, 2, 3), or A2
# on (0, 2) and G2 on (1, 3): W is the product of the factors' groups and
# each W_J the product of their parabolics, so a pair's coset count and both
# dimensions multiply over the factors, at the pair restricted to each, and
# its n, l, d, f, dimX and dimY add
REDUCIBLE = {
    "A1xB3": ([[2, 0, -1, 0], [0, 2, 0, 0], [-1, 0, 2, -1], [0, 0, -2, 2]],
              [("A1", (1,)), ("B3", (0, 2, 3))]),
    "A2xG2": ([[2, 0, -1, 0], [0, 2, 0, -1], [-1, 0, 2, 0], [0, -3, 0, 2]],
              [("A2", (0, 2)), ("G2", (1, 3))]),
}


@pytest.mark.parametrize("tag", sorted(REDUCIBLE))
def test_reducible_table_rows_come_from_the_factor_rows(tmp_path, capsys, tag):
    matrix, factors = REDUCIBLE[tag]

    def table(source):
        with redirect_stdout(io.StringIO()) as buf:
            assert cli.main(["table", *source, "--all-pairs", "--format", "csv"]) == 0
        return {_csv_pair(row): row for row in _csv_rows(buf.getvalue())}

    path = tmp_path / "reducible.json"
    path.write_text(json.dumps({"matrix": matrix}))
    rows = table(["--cartan", str(path)])
    parts = [(table(["--type", name]), index) for name, index in factors]
    assert len(rows) == 4 ** len(matrix)
    for (J, K), row in rows.items():
        assert row["type"] == tag and row["passed"] == "true"
        restricted = [part[tuple(index.index(j) for j in J if j in index),
                           tuple(index.index(k) for k in K if k in index)]
                      for part, index in parts]
        for column in ("cosets", "inv_dim", "anti_dim"):
            assert int(row[column]) == math.prod(int(r[column]) for r in restricted), (J, K)
        for column in ("n", "l", "d", "f", "dimX", "dimY"):
            assert int(row[column]) == sum(int(r[column]) for r in restricted), (J, K)
    assert capsys.readouterr() == ("", "")


def _length_counts_from_heights(closure) -> list[int]:
    """Coefficients of the product over the exponents e of 1 + t + ... + t^e.

    The exponents are the conjugate partition of the positive roots' height
    counts n_1 >= n_2 >= ... (Kostant; Macdonald, "The Poincare series of a
    Coxeter group", 1972), read from the root closure alone.
    """
    heights = Counter(sum(beta) for beta in closure)
    counts = [heights[k] for k in range(1, max(heights, default=0) + 1)]
    poly = [1]  # the empty closure's, W of the empty subset being trivial
    for e in (sum(1 for n in counts if n >= j) for j in range(1, heights[1] + 1)):
        poly = [sum(poly[max(d - e, 0):d + 1]) for d in range(len(poly) + e)]
    return poly


@pytest.mark.parametrize("name", ["A6", "B3", "D4", "G2", *sorted(REDUCIBLE)])
def test_length_counts_are_the_product_over_the_exponents(tmp_path, name):
    # inputs no permutation oracle checks: A6, the relabelled matrices above and
    # the interleaved block sums
    if name in REDUCIBLE:
        matrices = [REDUCIBLE[name][0]]
    elif name == "A6":
        matrices = [cartan_from_name(name).matrix]
    else:
        matrices = [json.loads(Path(source[1]).read_text())["matrix"]
                    for _, source in _relabellings(tmp_path, name)]
    for matrix in matrices:
        datum = validate_cartan(matrix)
        group = enumerate_weyl(root_system(datum))
        lengths = Counter(group._length)
        poincare = [lengths[k] for k in range(max(lengths) + 1)]
        assert poincare == _length_counts_from_heights(datum.closure), matrix
        # W(t) = W^K(t)·W_K(t) for every K: x ranges over W^K through the
        # coset tables' tops x·w_K, and l(w_K) counts the roots supported on K
        for mask in range(1 << datum.rank):
            on_k = [beta for beta in datum.closure
                    if all(mask >> i & 1 for i, c in enumerate(beta) if c)]
            quotient = Counter(group._length[top] - len(on_k)
                               for top in parabolic._right_quotient(group, mask)[1])
            q = [quotient[k] for k in range(max(quotient) + 1)]
            w_k = _length_counts_from_heights(on_k)
            product = [sum(q[e] * w_k[d - e] for e in range(len(q)) if 0 <= d - e < len(w_k))
                       for d in range(len(q) + len(w_k) - 1)]
            assert min(quotient) == 0 and product == poincare, (matrix, mask)


def test_readme_quickstart_prints_what_it_says():
    # the README's ```python block ends each print line with the exact line printed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.rsplit("  # ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    assert len(expected) >= 5
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
