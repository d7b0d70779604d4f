"""Self-tests of the benchmark harness: output checks, tracing wrappers, metric names.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import signal
import sys
import time
from fractions import Fraction

import pytest

import run
import speed
import workload
from tracing import Tracer

ENGINE = workload.import_engine()
MODULES = sorted(name for name in sys.modules if name.split(".")[0] == "jordan_voa")


def _golden_for(text: str) -> dict:
    rows = text.splitlines()
    return {
        "lines": len(rows),
        "sha256": run.sha256(text),
        "row_digests": "".join(run.row_digest(row) for row in rows[1:]),
    }


SMALL_SWEEP = (
    "r0,weight,basis_dim,kernel_dim\n"
    '0,"2*Lam[1,-1]",1,1\n'
    '0,"Lam[1,-2]",0,0\n'
    '1,"2*Lam[1,-2]+2*Lam[1,-1]",2,1\n'
)
SMALL_KERNELS = {("2*Lam[1,-1]", "0"), ("2*Lam[1,-2]+2*Lam[1,-1]", "1")}


def test_unaltered_sweep_output_passes():
    golden = _golden_for(SMALL_SWEEP)
    assert run.check_rows({"text": SMALL_SWEEP, "exit": 0}, golden, SMALL_KERNELS) == (3, 0)


@pytest.mark.parametrize(
    "altered",
    [
        SMALL_SWEEP.replace('"Lam[1,-2]",0,0', '"Lam[1,-2]",1,0'),  # another basis dimension
        SMALL_SWEEP.replace('"Lam[1,-2]",0,0', '"Lam[1,-2]",0,1'),  # an unexpected kernel
        SMALL_SWEEP.rsplit("\n", 2)[0] + "\n",  # a missing search
    ],
)
def test_altered_sweep_row_is_one_failure(altered):
    golden = _golden_for(SMALL_SWEEP)
    assert run.check_rows({"text": altered, "exit": 0}, golden, SMALL_KERNELS) == (3, 1)


def test_each_altered_sweep_row_is_a_failure():
    golden = _golden_for(SMALL_SWEEP)
    altered = SMALL_SWEEP.replace(",1,1\n", ",9,1\n").replace(",2,1\n", ",9,1\n")
    assert run.check_rows({"text": altered, "exit": 0}, golden, SMALL_KERNELS) == (3, 2)


def test_extra_sweep_row_is_a_failure():
    golden = _golden_for(SMALL_SWEEP)
    extra = SMALL_SWEEP + '2,"Lam[1,-3]",0,0\n'
    assert run.check_rows({"text": extra, "exit": 0}, golden, SMALL_KERNELS) == (3, 1)


def test_cli_exit_or_error_fails_every_search():
    golden = _golden_for(SMALL_SWEEP)
    assert run.check_rows({"text": "", "exit": "SystemExit(2)"}, golden, SMALL_KERNELS) == (3, 3)
    assert run.check_rows({"error": "RuntimeError()"}, golden, SMALL_KERNELS) == (3, 3)


def test_altered_suite_line_is_one_failure():
    golden = json.loads((run.HERE / "golden.json").read_text())["certify"]
    assert len(golden) == 12
    assert "2027795 exhaustive triples" in golden[0] and "602946" in golden[2]
    assert run.check_lines({"lines": list(golden)}, golden) == (12, 0)
    altered = list(golden)
    altered[2] = altered[2].replace("602946", "602945")
    assert run.check_lines({"lines": altered}, golden) == (12, 1)


def test_committed_goldens_cover_every_workload():
    golden = json.loads((run.HERE / "golden.json").read_text())
    for name in workload.WORKLOADS:
        if name != "certify":
            key, _ = run.ROW_GOLDENS[name]
            entry = golden[key]
            assert len(entry["row_digests"]) == 4 * (entry["lines"] - 1)


def test_ticker_samples_the_reference_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Ticker() as ticker:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(ticker.samples) >= 5
    assert ticker.spent == pytest.approx(sum(ticker.samples))
    assert ticker.rescale(0.2) == pytest.approx((0.2 - ticker.spent) / ticker.slowdown())


def test_rescaling_divides_by_the_reference_slowdown():
    ticker = speed.Ticker()
    ticker.samples = [2 * speed.NOMINAL_S] * 8 + [40 * speed.NOMINAL_S] * 2  # two pre-empted ticks
    ticker.spent = 0.5
    assert ticker.slowdown() == pytest.approx(2.0)
    assert ticker.rescale(10.5) == pytest.approx(5.0)


def test_recursion_is_counted_but_timed_once():
    tracer = Tracer()

    def countdown(n):
        time.sleep(0.01)
        return n if n == 0 else wrapped(n - 1)

    wrapped = tracer._timed("countdown", countdown)
    start = time.perf_counter()
    wrapped(3)
    total = time.perf_counter() - start
    assert tracer.calls["countdown"] == 4
    assert 0.04 <= tracer.seconds["countdown"] <= total


def test_self_time_leaves_out_nested_timed_calls():
    tracer = Tracer()
    inner = tracer._timed("inner", lambda: time.sleep(0.05))
    outer = tracer._timed("outer", lambda: inner())
    outer()
    assert tracer.seconds["outer"] >= tracer.seconds["inner"] >= 0.05
    assert tracer.self_seconds["outer"] == pytest.approx(
        tracer.seconds["outer"] - tracer.seconds["inner"])
    assert tracer.self_seconds["outer"] < 0.05


def _bindings():
    """Every module-level binding and Scalar attribute in the package, by identity."""
    out = {(name, attr): value for name in MODULES for attr, value in vars(sys.modules[name]).items()}
    out.update({("Scalar", attr): value for attr, value in vars(ENGINE.scalar.Scalar).items()})
    return out


def _small_workload():
    State, Generator = ENGINE.fock.State, ENGINE.liealg.Generator
    u = State.from_monomial((Generator(1, 2, -1, -1),))
    reports = ENGINE.singular.singular_sweep([Fraction(0), Fraction(1), "generic"], 6)
    return (
        [(str(rep.weight), rep.r0, rep.basis_dim, rep.kernel_dim) for rep in reports],
        str(ENGINE.virops.vertex_mode_by_recursion(1, 2, -3, -2, 0, u)),
        str(ENGINE.virops.act_L(1, 1, -1, u)),
        ENGINE.singular.kernel_basis([[1, 2], [2, 4]]),
        ENGINE.singular.kernel_basis_poly([[ENGINE.R, ENGINE.ONE]]),
    )


@pytest.fixture(scope="module")
def traced():
    expected = _small_workload()
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        outputs = _small_workload()
    finally:
        tracer.uninstall()
    return {"tracer": tracer, "expected": expected, "outputs": outputs, "before": before}


def test_wrappers_restore_every_binding(traced):
    after = _bindings()
    assert after.keys() == traced["before"].keys()
    changed = [key for key, value in after.items() if traced["before"][key] is not value]
    assert changed == []
    for name in ("act", "act_L", "kernel_basis", "kernel_basis_poly"):
        original = getattr(ENGINE, name)
        holders = [mod for mod in MODULES if name in vars(sys.modules[mod])]
        assert len(holders) >= 2
        assert all(vars(sys.modules[mod])[name] is original for mod in holders)


def test_traced_outputs_equal_untraced(traced):
    assert traced["outputs"] == traced["expected"]


def test_tracer_counts_recursion_and_times_outermost(traced):
    tracer = traced["tracer"]
    assert tracer.calls["virops.recursion_oracle"] > 1
    assert tracer.calls["virops.act_L"] > 1
    assert tracer.calls["singular.search"] == len(traced["outputs"][0])
    assert tracer.calls["scalar.mul"] > 0 and tracer.calls["fock.act_gen"] > 0
    for name in ("virops.act_L", "fock.act"):
        assert 0 <= tracer.self_seconds[name] <= tracer.seconds[name]
    # act_L calls act, so its self time leaves out the nested act time
    assert tracer.self_seconds["virops.act_L"] < tracer.seconds["virops.act_L"]
    spans = [s for s in tracer.spans if s["name"] == "singular.search"]
    assert len(spans) == tracer.calls["singular.search"]
    assert {"weight", "r0", "basis_dim", "kernel_dim", "seconds"} <= spans[0].keys()


def test_per_layer_metrics_name_existing_layers(traced):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["per_layer"]]
    package = run.ROOT / "src" / "jordan_voa"
    for name in names:
        layer = name.split(".")[0]
        assert layer == "trace" or (package / f"{layer}.py").is_file(), name
    emitted = workload.layer_metrics(workload.process_stats(ENGINE, traced["tracer"]), {"text": ""}, 0.0)
    assert sorted(names) == sorted([*emitted, "trace.overhead_s"])
