from __future__ import annotations

import json

import pytest

from steinberg import cli, varieties
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


def test_order_cap(capsys):
    code, _, err = run(capsys, ["table", "--type", "A2", "--p", "0", "--q", "1",
                                "--order-cap", "5"])
    assert code == 2 and "error:" in err
    # the cap is inclusive
    code, out, _ = run(capsys, ["table", "--type", "A2", "--p", "0", "--q", "1",
                                "--order-cap", "6"])
    assert code == 0


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


def test_out_file_unwritable(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.md"
    code, out, err = run(capsys, ["table", "--type", "A2", "--p", "0", "--q", "1",
                                  "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not target.exists()


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
