"""One pass of one benchmark workload, in a fresh interpreter.

Run by ``bench/run.py``; not meant to be called by hand.  The pass imports
``jordan_voa`` from this checkout's ``src`` directory, prints ``ready`` on
stdout so the parent can time set-up, runs the workload once (traced if
``--trace-file`` is given) and prints one JSON object with its timings and
raw output, which the parent checks against the goldens.  Its times are
rescaled to nominal machine speed by ``speed.Ticker``; the raw ones are kept
beside them.

Every cache in the engine is process-global, so each pass starts cold, as a
user's command-line invocation does.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import multiprocessing.util
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent

SWEEP_ARGV = ["singular-sweep", "--rmin", "-3", "--rmax", "3",
              "--max-degree", "18", "--no-degree-guard"]
GENERIC_DEGREE = 16


def _certify(engine, seed):
    suite = engine.suite
    results = suite.run_paper_suite(suite.SuiteConfig(seed=seed))
    return {
        "lines": [res.summary_line() for res in results],
        "check_seconds": {check_id: res.seconds
                          for (check_id, _), res in zip(suite.ALL_CHECKS, results)},
    }


def _cli_sweep(engine, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = engine.cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
    return {"text": buf.getvalue(), "exit": code, "via_cli": True}


def _sweep_generic(engine, seed):
    reports = engine.singular.singular_sweep(["generic"], GENERIC_DEGREE)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r0", "weight", "basis_dim", "kernel_dim"])
    for rep in reports:
        writer.writerow([rep.r0, str(rep.weight).replace(" ", ""), rep.basis_dim, rep.kernel_dim])
    return {"text": buf.getvalue(), "exit": 0}


# name -> (function(engine, seed) -> output, whether the seed changes the input)
WORKLOADS = {
    "certify": (_certify, True),
    "sweep": (lambda engine, seed: _cli_sweep(engine, SWEEP_ARGV), False),
    "sweep_generic": (_sweep_generic, False),
    "sweep_parallel": (lambda engine, seed: _cli_sweep(engine, SWEEP_ARGV + ["--workers", "2"]), False),
}


def _children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + _children_cpu_seconds()


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def import_engine():
    """Import jordan_voa from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import jordan_voa
    import jordan_voa.cli  # noqa: F401  (the package root does not import the front end)

    location = Path(jordan_voa.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"jordan_voa was imported from {location}, not from {src}")
    return sys.modules["jordan_voa"]


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def process_stats(engine, tracer) -> dict:
    """Raw counts of this process: the tracer's totals and the engine's cache sizes."""
    pair = engine.liealg._pair_bracket.cache_info()
    matrices = list(engine.singular._MATRIX_CACHE.values())
    return {
        "calls": dict(tracer.calls),
        "seconds": dict(tracer.seconds),
        "self_seconds": dict(tracer.self_seconds),
        "spans": list(tracer.spans),
        "pair_hits": pair.hits,
        "pair_misses": pair.misses,
        "act_cache_entries": len(engine.fock._ACT_CACHE),
        "matrix_rows": sum(len(rows) for _, rows in matrices),
        "matrix_cols": sum(len(basis) for basis, _ in matrices),
        "matrix_cache_entries": len(matrices),
    }


def _merge(total: dict, part: dict) -> dict:
    """Add one process's stats into another's: counts and times sum, spans append."""
    for key, value in part.items():
        if isinstance(value, dict):
            bucket = total.setdefault(key, {})
            for name, amount in value.items():
                bucket[name] = bucket.get(name, 0) + amount
        elif isinstance(value, list):
            total.setdefault(key, []).extend(value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def _follow_pool_workers(engine, tracer, prefix):
    """Have each forked pool worker write its own stats when it exits.

    A worker inherits the installed wrappers; it starts from zero because the
    sweep forks its pool before the engine has done any work.
    """
    def dump():
        path = Path(f"{prefix}.worker{os.getpid()}.json")
        path.write_text(json.dumps(process_stats(engine, tracer)))

    def after_fork(tracer):
        tracer.reset()
        multiprocessing.util.Finalize(tracer, dump, exitpriority=100)

    multiprocessing.util.register_after_fork(tracer, after_fork)


def _collect_pool_workers(stats, prefix):
    for path in sorted(Path(prefix).parent.glob(Path(prefix).name + ".worker*.json")):
        _merge(stats, json.loads(path.read_text()))
        path.unlink()
    return stats


def layer_metrics(stats, output, children_cpu_s):
    """Per-layer metrics of one traced pass (trace.overhead_s is added by the parent).

    ``_s`` metrics are the time of the outermost calls, ``_self_s`` leaves
    out the timed calls nested inside; with pool workers both are summed over
    the processes.
    """
    calls = defaultdict(int, stats["calls"])
    seconds = defaultdict(float, stats["seconds"])
    self_seconds = defaultdict(float, stats["self_seconds"])
    check_seconds = output.get("check_seconds", {})
    pair_lookups = stats["pair_hits"] + stats["pair_misses"]
    act_gen_calls = calls["fock.act_gen"]
    act_cache = stats["act_cache_entries"]
    searches = [span for span in stats["spans"] if span["name"] == "singular.search"]
    search_ms = [span["seconds"] * 1000 for span in searches]
    return {
        "suite.c1_s": check_seconds.get("1", 0.0),
        "suite.c3_s": check_seconds.get("3", 0.0),
        "suite.c5_s": check_seconds.get("5", 0.0),
        "suite.c10_s": check_seconds.get("10", 0.0),
        "suite.rest_s": sum((s for c, s in check_seconds.items() if c not in ("1", "3", "5", "10")), 0.0),
        "liealg.bracket_r_calls": calls["liealg.bracket_r"],
        "liealg.bracket_r_s": seconds["liealg.bracket_r"],
        "liealg.pair_bracket_hit_ratio": stats["pair_hits"] / pair_lookups if pair_lookups else 0.0,
        "liealg.pair_bracket_misses": stats["pair_misses"],
        "fock.act_calls": calls["fock.act"],
        "fock.act_self_s": self_seconds["fock.act"],
        "fock.act_gen_calls": act_gen_calls,
        # each process starts with an empty cache, so its size is the growth
        "fock.act_gen_hit_ratio": (act_gen_calls - act_cache) / act_gen_calls if act_gen_calls else 0.0,
        "fock.act_cache_entries": act_cache,
        "fock.weight_space_basis_s": seconds["fock.weight_space_basis"],
        "virops.act_L_calls": calls["virops.act_L"],
        "virops.act_L_self_s": self_seconds["virops.act_L"],
        "virops.vertex_mode_s": seconds["virops.vertex_mode"],
        "virops.recursion_oracle_s": seconds["virops.recursion_oracle"],
        "virops.recursion_oracle_calls": calls["virops.recursion_oracle"],
        "virops.virasoro_probe_s": seconds["virops.virasoro_probe"],
        "singular.search_matrix_s": seconds["singular.search_matrix"],
        "singular.matrix_rows": stats["matrix_rows"],
        "singular.matrix_cols": stats["matrix_cols"],
        "singular.matrix_cache_entries": stats["matrix_cache_entries"],
        "singular.kernel_q_calls": calls["singular.kernel_q"],
        "singular.kernel_q_s": seconds["singular.kernel_q"],
        "singular.kernel_qr_calls": calls["singular.kernel_qr"],
        "singular.kernel_qr_s": seconds["singular.kernel_qr"],
        "singular.is_singular_s": seconds["singular.is_singular"],
        "singular.searches": calls["singular.search"],
        "singular.search_p50_ms": _percentile(search_ms, 50),
        "singular.search_p99_ms": _percentile(search_ms, 99),
        "singular.kernels_found": sum(span["kernel_dim"] for span in searches),
        "singular.pool_children_cpu_s": children_cpu_s,
        "scalar.gcd_calls": calls["scalar.gcd"],
        "scalar.gcd_s": seconds["scalar.gcd"],
        "scalar.exact_div_calls": calls["scalar.exact_div"],
        "scalar.exact_div_s": seconds["scalar.exact_div"],
        "scalar.evaluate_calls": calls["scalar.evaluate"],
        "scalar.evaluate_s": seconds["scalar.evaluate"],
        "scalar.mul_calls": calls["scalar.mul"],
        "scalar.add_calls": calls["scalar.add"],
        "griess.jordan_verify_s": seconds["griess.jordan_verify"],
        "cli.format_s": self_seconds["cli.main"],
        "cli.stdout_bytes": len(output["text"].encode()) if output.get("via_cli") else 0,
    }


def run_pass(engine, name, seed, trace_file=None):
    """Run one workload pass; returns the result object the parent reads."""
    run, _ = WORKLOADS[name]
    tracer = None
    if trace_file:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        _follow_pool_workers(engine, tracer, trace_file)
    cpu0, kids0 = _cpu_seconds(), _children_cpu_seconds()
    with speed.Ticker() as ticker:
        start = time.perf_counter()
        try:
            output = run(engine, seed)
        except Exception as exc:  # reported as failed operations by the parent
            output = {"error": repr(exc)}
        wall = time.perf_counter() - start
        cpu, kids = _cpu_seconds() - cpu0, _children_cpu_seconds() - kids0
    result = {
        "wall_s": ticker.rescale(wall),
        "cpu_s": ticker.rescale(cpu),
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "slowdown": ticker.slowdown(),
        "peak_rss_mb": _peak_rss_mb(),
        "output": output,
    }
    if tracer is not None:
        tracer.uninstall()
        stats = _collect_pool_workers(process_stats(engine, tracer), trace_file)
        if "error" not in output:
            result["layers"] = layer_metrics(stats, output, kids)
        with open(trace_file, "w", encoding="utf-8") as out:
            out.write(json.dumps({"workload": name, "seed": seed, "wall_s": wall}) + "\n")
            for span in stats["spans"]:
                out.write(json.dumps(span) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    engine = import_engine()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = run_pass(engine, args.workload, args.seed, args.trace_file)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
