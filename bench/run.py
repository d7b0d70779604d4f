"""Benchmark harness for jordan_voa: end-to-end metrics, or per-layer metrics traced.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Each pass of a workload runs in a fresh interpreter (``bench/workload.py``),
because every cache in the engine is process-global and a user's command-line
invocation starts cold.  Passes run one at a time from this process, in a
closed loop, until ``--seconds`` have gone by (at least one pass).  Every
pass's output is checked against ``bench/golden.json``; a failed check, row
or pass counts in ``failed`` and makes the run incorrect.

With ``--trace 0`` the end-to-end metrics are the medians over the passes:
``wall_s`` (work time after set-up), ``cpu_s`` (user+sys of the pass and its
children), ``setup_s`` (spawn until ``jordan_voa`` is imported, sampled by
set-up-only spawns) and ``peak_rss_mb``.  The three times are rescaled to
nominal machine speed (``bench/speed.py``); the report lines above the result
also give the unrescaled medians.  With ``--trace 1`` one more,
traced pass follows; its per-layer metrics are reported, with
``trace.overhead_s`` = traced ``wall_s`` minus untraced ``wall_s``, and its
spans are written to ``bench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the run's
environment.  See ``bench/NOTES.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

TIME_LIMIT_S = 170.0  # one invocation per workload must end within 180 s
SETUP_SPAWNS = 8  # set-up samples before each pass and after the last one
SETUP_REFERENCE_CALLS = 60  # about 20 ms of reference loop on each side of a set-up spawn

# The six one-dimensional kernels of the degree-18 sweep over r = -3..3, as
# (weight, r) in the CSV.  Each is the determinant power (p, nu) at
# r = 1 - 2*nu + p, with weight 2*nu*(Lam[1,-1] + ... + Lam[1,-p]).  Every
# other search, r = 3 included (its (4,1) sits at degree 20), finds none.
SWEEP_KERNELS = frozenset({
    ("2*Lam[1,-1]", "0"),  # (1,1)
    ("4*Lam[1,-1]", "-2"),  # (1,2)
    ("2*Lam[1,-2]+2*Lam[1,-1]", "1"),  # (2,1)
    ("4*Lam[1,-2]+4*Lam[1,-1]", "-1"),  # (2,2)
    ("2*Lam[1,-3]+2*Lam[1,-2]+2*Lam[1,-1]", "2"),  # (3,1)
    ("6*Lam[1,-2]+6*Lam[1,-1]", "-3"),  # (2,3), beyond the suite's degree-6 sweep
})

# workload -> (golden key, expected kernels); sweep_parallel must match sweep byte for byte
ROW_GOLDENS = {
    "sweep": ("sweep", SWEEP_KERNELS),
    "sweep_parallel": ("sweep", SWEEP_KERNELS),
    "sweep_generic": ("sweep_generic", frozenset()),
}


class SetupError(RuntimeError):
    """The engine could not be started from this checkout."""


# -- correctness ----------------------------------------------------------

def row_digest(row: str) -> str:
    return hashlib.blake2b(row.encode(), digest_size=2).hexdigest()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _row_ok(row: str, digest: str, kernels) -> bool:
    try:
        r0, weight, _, kernel_dim = next(csv.reader([row]))
        expected_dim = 1 if (weight, r0) in kernels else 0
        return int(kernel_dim) == expected_dim and row_digest(row) == digest
    except ValueError:
        return False


def check_rows(output: dict, golden: dict, kernels) -> tuple:
    """(attempted, failed) searches of a CSV sweep output against its golden.

    A search fails when its row is missing, its kernel dimension is wrong or
    its row differs from the golden; a pass that raised or exited nonzero
    fails every search.
    """
    attempted = golden["lines"] - 1
    if "error" in output or output.get("exit") != 0:
        return attempted, attempted
    text = output["text"]
    rows = text.splitlines()[1:]
    digests = golden["row_digests"]
    failed = sum(
        1
        for pos in range(attempted)
        if pos >= len(rows) or not _row_ok(rows[pos], digests[4 * pos: 4 * pos + 4], kernels)
    )
    if not failed and sha256(text) != golden["sha256"]:
        failed = 1  # header, extra rows, or a row digest collision
    return attempted, failed


def check_lines(output: dict, golden_lines: list) -> tuple:
    """(attempted, failed) suite checks: each summary line must equal its golden."""
    attempted = len(golden_lines)
    if "error" in output:
        return attempted, attempted
    lines = output["lines"]
    failed = sum(1 for pos, want in enumerate(golden_lines)
                 if pos >= len(lines) or lines[pos] != want)
    if not failed and len(lines) != attempted:
        failed = 1
    return attempted, failed


def check_output(name: str, output: dict, golden: dict) -> tuple:
    if name == "certify":
        return check_lines(output, golden["certify"])
    key, kernels = ROW_GOLDENS[name]
    return check_rows(output, golden[key], kernels)


# -- passes ---------------------------------------------------------------

def _spawn(args: list, deadline: float):
    """Run bench/workload.py once; returns (setup_s, result or None).

    The pass is killed at the deadline and then yields no result.
    """
    # -S: set-up is the interpreter and the engine, not this Python's site hooks
    cmd = [sys.executable, "-S", str(HERE / "workload.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.wait()
    if first.strip() != "ready":
        raise SetupError(f"the engine did not start: {' '.join(cmd)}")
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return setup_s, None
    return setup_s, json.loads(lines[-1])


def setup_sample(deadline: float) -> tuple:
    """One set-up time, raw and rescaled by the reference loop timed just before and after."""
    before = speed.time_reference(SETUP_REFERENCE_CALLS)
    setup_s, _ = _spawn(["--setup-only"], deadline)
    after = speed.time_reference(SETUP_REFERENCE_CALLS)
    return setup_s, setup_s * speed.NOMINAL_S / speed.typical(before + after)


def measure(name: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    """Run one workload; returns attempted/failed counts and its metrics."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    pass_args = ["--workload", name, "--seed", str(seed)]
    passes, attempted, failed = [], 0, 0

    def one_pass(extra):
        nonlocal attempted, failed
        _, result = _spawn(pass_args + extra, deadline)
        output = result["output"] if result else {"error": "the pass ended without a result"}
        tried, bad = check_output(name, output, golden)
        attempted += tried
        failed += bad
        return result

    start = time.monotonic()
    while True:
        begun = time.monotonic()
        setups.extend(setup_sample(deadline) for _ in range(SETUP_SPAWNS))
        result = one_pass([])
        if result is not None:
            passes.append(result)
        took = time.monotonic() - begun
        reserve = 2.5 * took if trace else 1.2 * took
        if result is None or time.monotonic() - start >= seconds or time.monotonic() + reserve > deadline:
            break
    setups.extend(setup_sample(deadline) for _ in range(SETUP_SPAWNS))

    metrics, raw = {}, {}
    if passes:
        raw = {key: statistics.median(p[key] for p in passes)
               for key in ("raw_wall_s", "raw_cpu_s", "slowdown")}
        raw["raw_setup_s"] = statistics.median(raw_s for raw_s, _ in setups)
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(rescaled for _, rescaled in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
    if trace:
        OUT.mkdir(exist_ok=True)
        traced = one_pass(["--trace-file", str(OUT / f"trace-{name}-seed{seed}.jsonl")])
        layers = traced.get("layers") if traced else None
        untraced_wall = metrics.get("wall_s")
        metrics = {}
        if layers and untraced_wall is not None:
            metrics = {**layers, "trace.overhead_s": traced["wall_s"] - untraced_wall}
    return {"attempted": attempted, "failed": failed, "passes": len(passes), "metrics": metrics, "raw": raw}


# -- reporting ------------------------------------------------------------

def git_sha():
    try:
        done = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _seed_record(name, seed) -> dict:
    if workload.WORKLOADS[name][1]:
        return {"seed": seed, "used": True}
    return {"seed": seed, "used": False, "note": "fixed input; the seed is not used"}


def environment(names, seed, load_at_start) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_at_start": load_at_start,
        "seeds": {name: _seed_record(name, seed) for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workload.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_at_start = list(os.getloadavg())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    golden = json.loads((HERE / "golden.json").read_text())
    names = list(workload.WORKLOADS) if args.workload == "all" else [args.workload]
    prefix = len(names) > 1

    attempted = failed = 0
    metrics = {}
    report = []
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace), golden)
            attempted += run["attempted"]
            failed += run["failed"]
            fail_frac = run["failed"] / run["attempted"]
            report.append(f"{name}: {run['passes']} pass(es), fail_frac {fail_frac:.6g} ratio "
                          f"({run['failed']} of {run['attempted']} failed)")
            raw = ", ".join(f"{key} {value:.6g}" for key, value in run["raw"].items())
            report.append(f"  unrescaled medians: {raw}")
            for metric, value in run["metrics"].items():
                report.append(f"  {metric:34s} {value:>16.6f} {units[metric]}")
                metrics[f"{name}.{metric}" if prefix else metric] = {"value": value, "unit": units[metric]}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = failed == 0 and attempted > 0
    print("\n".join(report))
    print(json.dumps({"environment": environment(names, args.seed, load_at_start)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
