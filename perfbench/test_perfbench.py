"""Tests of the benchmark itself: tracer coverage, span nesting, exact
counters, timeouts, refusal outside a checkout, and BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import inspect
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import steinberg  # noqa: E402
from tracer import LAYERS, Tracer, summarize  # noqa: E402


def _layer_functions():
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"steinberg.{layer}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == module.__name__:
                out[f"{layer}.{name}"] = fn
    return out


def _package_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if name == "steinberg" or name.startswith("steinberg.")]


def test_every_public_function_is_wrapped():
    originals = _layer_functions()
    by_id = {id(fn): name for name, fn in originals.items()}
    tracer = Tracer()
    tracer.install()
    try:
        assert sorted(tracer.names) == sorted(originals)
        for module in _package_namespaces():
            for attr, obj in vars(module).items():
                assert id(obj) not in by_id, f"{module.__name__}.{attr} escaped the trace"
        rebound = [
            (steinberg.algebra, "double_cosets"), (steinberg.algebra, "parabolic_elements"),
            (steinberg.cli, "invariant_basis"), (steinberg.cli, "anti_invariant_basis"),
            (steinberg.cli, "enumerate_weyl"), (steinberg.cli, "main"),
            (steinberg, "double_cosets"), (steinberg, "span_dimension"),
        ]
        for module, attr in rebound:
            assert getattr(getattr(module, attr), "__traced__", None) is not None
    finally:
        tracer.uninstall()
    assert _layer_functions() == originals
    for module in _package_namespaces():
        for obj in vars(module).values():
            assert not hasattr(obj, "__traced__")


def test_benchmark_metrics_name_real_functions():
    names = set(_layer_functions())
    assert set(run.SELF_TIMED) <= names
    assert set(run.COUNTED) <= names


def test_spans_nest_and_self_times_sum_to_root_on_a2():
    tracer = Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()) as out:
            code = steinberg.cli.main(["verify", "--type", "A2"])
    finally:
        tracer.uninstall()
    assert code == 0 and out.getvalue().endswith("summary: 50 passed, 0 failed\n")
    spans = tracer.spans
    roots = [s for s in spans if s[3] == -1]
    assert len(roots) == 1 and tracer.names[roots[0][0]] == "cli.main"
    for fid, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            _, pstart, pend, _ = spans[parent]
            assert pstart <= start and end <= pend
    functions = summarize(tracer.names, spans)
    assert all(f["self_ns"] >= 0 for f in functions.values())
    assert sum(f["self_ns"] for f in functions.values()) == roots[0][2] - roots[0][1]
    assert functions["cli.main"]["calls"] == 1
    assert tracer.counters["varieties.reports"] == 50


def test_exact_counters_repeat_across_traced_runs(tmp_path):
    argv = ["verify", "--type", "B3"]
    seen = []
    for i in range(2):
        spans_path = tmp_path / f"spans{i}.json"
        result = run.run_child(
            [sys.executable, str(HERE / "tracer.py"), str(spans_path), *argv], 120
        )
        assert result["exit"] == 0 and not result["timed_out"]
        record = json.loads(spans_path.read_text())
        assert run.same_package(record["steinberg_file"])
        calls = {name: f["calls"] for name, f in
                 summarize(record["names"], record["spans"]).items()}
        seen.append((record["counters"], calls, result["bytes"], result["sha256"]))
    assert seen[0] == seen[1]
    counters = seen[0][0]
    assert counters["rootsys.group_order"] == 48
    for name in ["parabolic.cosets_total", "algebra.span_dimension.vectors_in",
                 "algebra.span_dimension.rank_out", "varieties.reports"]:
        assert counters[name] > 0


def test_traced_stdout_equals_untraced(tmp_path):
    argv = ["components", "--type", "B3", "--all-pairs", "--format", "csv"]
    plain = run.run_child([sys.executable, "-m", "steinberg.cli", *argv], 120)
    traced = run.run_child(
        [sys.executable, str(HERE / "tracer.py"), str(tmp_path / "s.json"), *argv], 120
    )
    assert plain["exit"] == traced["exit"] == 0
    assert plain["sha256"] == traced["sha256"] and plain["bytes"] == traced["bytes"] > 0


def test_run_past_its_limit_is_killed_and_recorded():
    result = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
    assert result["timed_out"]
    assert result["exit"] != 0
    assert result["wall_s"] < 30


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "components-d5-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "refused" in proc.stderr


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.EXPECTED) == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    fake = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, "ok": True}
    produced = run.end_to_end([fake], [fake])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in produced.items()
    }
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
