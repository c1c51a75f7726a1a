"""Benchmark of the steinberg CLI, end to end and per layer.

    python3 perfbench/run.py --workload verify-d4 --seed 1 --seconds 50 --trace 0

Each workload is one fixed CLI invocation, run as ``python -m steinberg.cli``
in a fresh child with the tree's ``src/`` on ``PYTHONPATH``.  With
``--trace 0`` the benchmark times a separate set-up child (import and build
the group) several times, then repeats the CLI run for ``--seconds`` and
reports medians.  With ``--trace 1`` it runs the same CLI invocation once
under ``tracer.py``, then untraced for the rest of ``--seconds``, and
reports per-layer self times and exact counters.  Every run's exit code and
stdout digest are checked against ``expected.json``; the traced run too, so
its stdout equals the untraced stdout byte for byte.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from tracer import LAYERS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

# The workloads, their arguments and the reasons for them are in README.md.
# ``limit_s`` caps one untraced run; a run past it is killed and counted.
WORKLOADS = {
    "verify-d4": {
        "argv": ["verify", "--type", "D4"], "type": "D4", "pairs": 256, "limit_s": 80,
    },
    "components-d5-sweep": {
        "argv": ["components", "--type", "D5", "--all-pairs", "--format", "json"],
        "type": "D5", "pairs": 1024, "limit_s": 40,
    },
}

# Every child is killed once the invocation is this old; it must end in 180 s.
DEADLINE_S = 170.0
TRACE_SLOWDOWN = 2.0  # a traced run may take this many untraced limits
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 5, 3.0, 25
SETUP_LIMIT_S = 60.0  # tracemalloc slows D5 set-up to about 14 s

SELF_TIMED = [
    "algebra.span_dimension", "algebra.average", "algebra.sign_average",
    "algebra.invariant_basis", "algebra.anti_invariant_basis",
    "parabolic.double_cosets", "parabolic.is_minimal_in_double_coset",
    "rootsys.word_name", "rootsys.enumerate_weyl", "rootsys.validate_cartan",
    "rootsys.root_system", "varieties.y_components", "varieties.averaging_image_check",
    "varieties.verify_anti_invariant_isomorphism", "varieties.hotta_verification",
    "cli.main",
]
COUNTED = [
    "algebra.average", "algebra.trivial_idempotent", "algebra.sign_idempotent",
    "parabolic.double_cosets", "parabolic.parabolic_elements", "rootsys.word_name",
]
EXACT_COUNTERS = [
    "algebra.span_dimension.vectors_in", "algebra.span_dimension.rank_out",
    "parabolic.cosets_total", "rootsys.group_order",
    "varieties.reports", "varieties.reports_failed",
]
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "count" for name in EXACT_COUNTERS},
    "algebra.span_dimension.kept_ratio": "frac",
    "parabolic.double_cosets.calls_per_pair": "count",
    "rootsys.enumerate_weyl.alloc_peak_mb": "MB",
    "cli.output_bytes": "bytes",
    "trace_overhead": "ratio",
}


class Refused(Exception):
    """The benchmark cannot measure this tree's program."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd, limit_s):
    """Run one child to completion or until ``limit_s``, draining its stdout.

    Returns wall time (start to exit with stdout fully read), the child's own
    CPU time and peak RSS from ``wait4``, its exit code, and the byte count,
    sha256 and tail of its stdout.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    digest = hashlib.sha256()
    out = {"bytes": 0, "tail": b"", "stderr": b""}

    def drain_stdout():
        while chunk := proc.stdout.read1(1 << 16):
            digest.update(chunk)
            out["bytes"] += len(chunk)
            out["tail"] = (out["tail"] + chunk)[-4096:]

    def drain_stderr():
        out["stderr"] = proc.stderr.read()[-2048:]

    readers = [threading.Thread(target=drain_stdout), threading.Thread(target=drain_stderr)]
    for reader in readers:
        reader.start()
    lock = threading.Lock()
    state = {"reaped": False, "timed_out": False}

    def kill():
        # Until wait4 returns the pid cannot be reused, so the signal reaches this child.
        with lock:
            if not state["reaped"]:
                state["timed_out"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(limit_s, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        with lock:
            state["reaped"] = True
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.stderr.close()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "bytes": out["bytes"],
        "sha256": digest.hexdigest(),
        "tail": out["tail"].decode("utf-8", "replace"),
        "stderr": out["stderr"].decode("utf-8", "replace"),
        "timed_out": state["timed_out"],
    }


def output_ok(workload, run) -> bool:
    """Exit code, stdout size and digest as recorded; no failed verify report."""
    expected = EXPECTED[workload]
    ok = (
        not run["timed_out"]
        and run["exit"] == expected["exit"]
        and run["bytes"] == expected["bytes"]
        and run["sha256"] == expected["sha256"]
    )
    if ok and WORKLOADS[workload]["argv"][0] == "verify":
        summary = re.search(r"summary: (\d+) passed, (\d+) failed\n$", run["tail"])
        ok = summary is not None and summary.group(2) == "0"
    return ok


class Session:
    """One benchmark invocation: its deadline, its runs and their outcome."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seconds = seconds
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.log: list[dict] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def run(self, kind, cmd, limit_s, check):
        run = run_child(cmd, min(limit_s, self.remaining()))
        run["kind"] = kind
        run["ok"] = check(run)
        self.attempted += 1
        self.failed += not run["ok"]
        self.log.append({k: v for k, v in run.items() if k not in ("tail", "stderr")})
        if not run["ok"]:
            print(f"{kind} run failed: exit {run['exit']}, timed out {run['timed_out']}, "
                  f"stderr {run['stderr'][-300:]!r}", file=sys.stderr)
        return run

    def build_group(self, *flags):
        """One set-up child; returns its run and its parsed record."""
        record = {}

        def check(run):
            try:
                record.update(json.loads(run["tail"].strip().splitlines()[-1]))
            except (ValueError, IndexError):
                return False
            return run["exit"] == 0 and same_package(record["steinberg_file"])

        cmd = [sys.executable, str(HERE / "build_group.py"), self.spec["type"], *flags]
        return self.run("setup", cmd, SETUP_LIMIT_S, check), record

    def measure_setup(self) -> list[dict]:
        runs = []
        t0 = time.perf_counter()
        while len(runs) < SETUP_MAX_REPS and (
            len(runs) < SETUP_MIN_REPS or time.perf_counter() - t0 < SETUP_MIN_S
        ):
            run, _ = self.build_group()
            runs.append(run)
            if not run["ok"]:
                break
        return runs

    def measure_cli(self, seconds) -> list[dict]:
        """Repeat the CLI run while at least half of the next one fits in ``seconds``."""
        cmd = [sys.executable, "-m", "steinberg.cli", *self.spec["argv"]]
        runs = []
        t0 = time.perf_counter()
        while True:
            run = self.run("cli", cmd, self.spec["limit_s"],
                           lambda r: output_ok(self.workload, r))
            runs.append(run)
            typical = statistics.median(r["wall_s"] for r in runs)
            if (run["timed_out"] or time.perf_counter() - t0 + typical / 2 > seconds
                    or typical > self.remaining()):
                return runs

    def traced(self, spans_path):
        """One CLI run under the tracer; returns the run and the span record.

        Its stdout must match the same recorded digest as the untraced runs.
        """
        record = {}

        def check(run):
            if not output_ok(self.workload, run):
                return False
            record.update(json.loads(spans_path.read_text(encoding="utf-8")))
            return same_package(record["steinberg_file"])

        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *self.spec["argv"]]
        run = self.run("traced", cmd, self.spec["limit_s"] * TRACE_SLOWDOWN, check)
        return run, record


def same_package(path) -> bool:
    return Path(path).resolve() == (SRC / "steinberg" / "__init__.py").resolve()


def check_provenance(timeout_s) -> str:
    """Path of the package the children import; refuses anything but src/."""
    if not (SRC / "steinberg" / "__init__.py").is_file():
        raise Refused(f"no package at {SRC / 'steinberg'}; run from a checkout of the repo")
    probe = subprocess.run(
        [sys.executable, "-c", "import steinberg; print(steinberg.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout_s,
    )
    path = probe.stdout.strip()
    if probe.returncode != 0 or not same_package(path):
        raise Refused(f"children import steinberg from {path or probe.stderr.strip()!r}, "
                      f"not from {SRC}")
    return path


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return probe.stdout.strip() if probe.returncode == 0 else "unknown"


def src_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "steinberg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_runs, cli_runs) -> dict:
    med = lambda runs, key: statistics.median(r[key] for r in runs)
    return {
        "wall_s": metric(med(cli_runs, "wall_s"), "s"),
        "cpu_s": metric(med(cli_runs, "cpu_s"), "s"),
        "setup_s": metric(med(setup_runs, "wall_s"), "s"),
        "peak_rss_mb": metric(med(cli_runs, "peak_rss_mb"), "MB"),
        "pass_frac": metric(sum(r["ok"] for r in cli_runs) / len(cli_runs), "frac"),
    }


def per_layer(spec, cli_runs, traced_run, record, alloc) -> dict:
    # A function that a later change deletes does no work: it reads 0.
    functions = defaultdict(lambda: {"calls": 0, "self_ns": 0})
    functions.update(summarize(record["names"], record["spans"]))
    counters = record["counters"]
    values = {}
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = functions[name]["self_ns"] / 1e9
    for name in COUNTED:
        values[f"{name}.calls"] = functions[name]["calls"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            f["self_ns"] for name, f in functions.items() if name.startswith(layer + ".")
        ) / 1e9
    for name in EXACT_COUNTERS:
        values[name] = counters.get(name, 0)
    vectors_in = counters.get("algebra.span_dimension.vectors_in", 0)
    values["algebra.span_dimension.kept_ratio"] = (
        counters.get("algebra.span_dimension.rank_out", 0) / vectors_in if vectors_in else 0.0
    )
    values["parabolic.double_cosets.calls_per_pair"] = (
        functions["parabolic.double_cosets"]["calls"] / spec["pairs"]
    )
    values["rootsys.enumerate_weyl.alloc_peak_mb"] = alloc["alloc_peak_bytes"] / 2**20
    values["cli.output_bytes"] = traced_run["bytes"]
    values["trace_overhead"] = (
        traced_run["wall_s"] / statistics.median(r["wall_s"] for r in cli_runs)
    )
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every workload is a fixed CLI invocation")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    session = Session(args.workload, args.seconds)
    try:
        package_file = check_provenance(session.remaining())
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    provenance = {
        "workload": args.workload, "argv": session.spec["argv"], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "commit": commit(),
        "src_sha256": src_digest(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "steinberg_file": package_file,
        "loadavg_start": os.getloadavg(),
    }

    if args.trace:
        RUNS.mkdir(exist_ok=True)
        spans_path = RUNS / f"{args.workload}-seed{args.seed}-spans.json"
        traced_run, record = session.traced(spans_path)
        cli_runs = session.measure_cli(args.seconds - traced_run["wall_s"])
        alloc_run, alloc = session.build_group("--tracemalloc")
        if traced_run["ok"] and alloc_run["ok"]:
            metrics = per_layer(session.spec, cli_runs, traced_run, record, alloc)
        else:
            metrics = None
    else:
        setup_runs = session.measure_setup()
        cli_runs = session.measure_cli(args.seconds)
        metrics = end_to_end(setup_runs, cli_runs)

    provenance["loadavg_end"] = os.getloadavg()
    print(json.dumps({"provenance": provenance, "runs": session.log}))
    if metrics is None:  # the traced run failed: nothing was measured
        metrics = {name: metric(0, unit) for name, unit in PER_LAYER.items()}
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
