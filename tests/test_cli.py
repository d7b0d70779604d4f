"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import re
import shlex
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from jordan_voa import cli, fock
from jordan_voa.griess import griess_product, omega
from jordan_voa.liealg import _pair_bracket
from jordan_voa.scalar import ONE, R
from jordan_voa.singular import singular_sweep
from jordan_voa.virops import _probe_ids, act_L

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_bracket_text_output(capsys):
    code, out = run_cli(capsys, "bracket", "v[1,1](1,2)", "v[1,1](-2,-1)")
    assert code == 0
    assert out.strip() == "2*v[1,1](-1,1) + v[1,1](-2,2) + 2*r"


def test_bracket_specialized(capsys):
    code, out = run_cli(capsys, "bracket", "v[1,1](1,2)", "v[1,1](-2,-1)", "--r", "3")
    assert code == 0
    assert out.strip() == "2*v[1,1](-1,1) + v[1,1](-2,2) + 6"


def test_act_json_output(capsys):
    code, out = run_cli(
        capsys, "act", "v[1,1](1,1)", "--state", "v[1,1](-1,-1)", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"monomial": [], "coeff": "2*r"}]


def test_act_l_command(capsys):
    code, out = run_cli(capsys, "act-L", "--i", "1", "--j", "2", "--m", "-2",
                        "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"monomial": [[1, 2, -1, -1]], "coeff": "1/2"}]


def test_vertex_mode_command(capsys):
    code, out = run_cli(
        capsys, "vertex-mode", "--i", "1", "--j", "2", "--m", "-1", "--n", "-1",
        "--l", "-1", "--state", "1", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"monomial": [[1, 2, -1, -1]], "coeff": "1"}]


def test_weight_basis_command(capsys):
    code, out = run_cli(
        capsys, "weight-basis", "--weight", "2*Lam[1,-1] + 2*Lam[1,-2]",
        "--d", "1", "--output", "json",
    )
    assert code == 0
    basis = json.loads(out)
    assert len(basis) == 2


def test_singular_check_exit_codes(capsys):
    code, out = run_cli(capsys, "singular-check", "--p", "2", "--nu", "1", "--r", "1")
    assert code == 0 and "SINGULAR: true" in out
    code, out = run_cli(capsys, "singular-check", "--p", "2", "--nu", "1", "--r", "0")
    assert code == 1 and "SINGULAR: false" in out and "witness" in out
    # default parameter is the certification value 1 - 2 nu + p
    code, out = run_cli(capsys, "singular-check", "--p", "1", "--nu", "2")
    assert code == 0 and "SINGULAR: true" in out
    # --d 2 adds the certifiable mixed-index generators, which also annihilate
    code, out = run_cli(capsys, "singular-check", "--p", "2", "--nu", "1", "--d", "2")
    assert code == 0 and out == "SINGULAR: true\n"


def test_singular_check_covers_the_first_oscillator_by_default():
    args = cli.build_parser().parse_args(["singular-check", "--p", "2", "--nu", "1"])
    assert args.d == 1


def test_singular_check_strict_mixed(capsys):
    """The example in README's notes on the singular condition."""
    argv = ["singular-check", "--p", "2", "--nu", "1", "--d", "2", "--strict-mixed"]
    assert f"`{shlex.join(argv)}`" in README.read_text()
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert out.splitlines()[0] == "SINGULAR: false"
    assert out.splitlines()[1].startswith("witness: v[1,2](2,-1) -> ")


def test_sweep_csv_output_and_determinism(capsys):
    import csv
    import io

    args = ("singular-sweep", "--rmin", "0", "--rmax", "1", "--max-degree", "3")
    code, first = run_cli(capsys, *args)
    assert code == 0
    rows = list(csv.reader(io.StringIO(first)))
    assert rows[0] == ["r0", "weight", "basis_dim", "kernel_dim"]
    assert all(len(row) == 4 for row in rows)
    assert ["0", "2*Lam[1,-1]", "1", "1"] in rows
    assert ["1", "2*Lam[1,-1]", "1", "0"] in rows
    code, second = run_cli(capsys, *args)
    assert first == second


def test_verify_det_command(capsys):
    code, out = run_cli(capsys, "verify-det", "--p", "2")
    assert code == 0 and "PASS" in out


def test_griess_table_command(capsys):
    code, out = run_cli(capsys, "griess-table", "--d", "2", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["basis"]) == 3
    assert payload["verdict"]["isomorphic_to_symmetric_matrices"] == "True"


def test_griess_table_builds_its_table_once(capsys, monkeypatch):
    from jordan_voa import griess

    asked = []

    def counted(*args):
        asked.append(args)
        return griess_product(*args)

    monkeypatch.setattr(griess, "griess_product", counted)
    code, _ = run_cli(capsys, "griess-table", "--d", "3")
    assert code == 0 and len(asked) == 6 * 6  # each ordered pair of the six basis states once


def test_griess_table_one_dimensional(capsys):
    code, out = run_cli(capsys, "griess-table", "--d", "1")
    assert code == 0
    assert "w[1, 1] . w[1, 1] = 2*w[1, 1]" in out
    assert "'off_diagonal_scale': None" in out


@pytest.mark.parametrize("d", [1, 3])
def test_griess_table_text_verdict_prints_its_scales_as_numbers(capsys, d):
    """The scales print as in the JSON verdict and check 11's summary, not as Fraction reprs."""
    code, out = run_cli(capsys, "griess-table", "--d", str(d))
    assert code == 0
    assert "Fraction(" not in out and "'diagonal_scale': 2," in out
    code, out = run_cli(capsys, "griess-table", "--d", str(d), "--output", "json")
    verdict = json.loads(out)["verdict"]
    scales = verdict["diagonal_scale"], verdict["off_diagonal_scale"]
    assert scales == ("2", "1" if d > 1 else "None")


def test_virasoro_check_command(capsys):
    code, out = run_cli(capsys, "virasoro-check", "--d", "2", "--max-degree", "3")
    assert code == 0 and "PASS" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_invalid_generator_is_reported(capsys):
    code = cli.main(["bracket", "v[1,1](1,2)", "nonsense"])
    assert code == 2


def test_degree_guard(capsys):
    assert cli.main(["singular-sweep", "--rmin", "0", "--rmax", "0", "--max-degree", "21"]) == 2
    assert capsys.readouterr().err == (
        "error: --max-degree 21 exceeds 20; pass --no-degree-guard\n"
    )


def test_sweep_output_is_pinned_to_degree_14(capsys):
    """The sweep's CSV bytes, with every kernel and basis dimension, stay as recorded."""
    code, out = run_cli(capsys, "singular-sweep", "--rmin", "-3", "--rmax", "3",
                        "--max-degree", "14", "--no-degree-guard")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4bd0ae8cc525c406f804ba31b4cd6addc1928e2e9273e78f0da441417d1057cb"
    )


def test_sweep_output_is_pinned_to_degree_20(capsys):
    code, out = run_cli(capsys, "singular-sweep", "--rmin", "-3", "--rmax", "3",
                        "--max-degree", "20")
    assert code == 0 and out.count("\n") == 18992
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ccd57de88152736469901212bdc55e2e1a15155c03699eac5a22ebdc90951394"
    )



def _sweep_reference(rmin, rmax, max_degree, output):
    """What singular-sweep printed when it built every report first: singular_sweep's list,
    written by one csv.writer or one json.dumps."""
    reports = singular_sweep(range(rmin, rmax + 1), max_degree)
    if output == "json":
        return json.dumps([
            {"r": str(rep.r0), "weight": str(rep.weight).replace(" ", ""),
             "basis_dim": rep.basis_dim, "kernel_dim": rep.kernel_dim,
             "vectors": [v.to_json_obj() for v in rep.kernel_vectors]}
            for rep in reports
        ]) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r0", "weight", "basis_dim", "kernel_dim"])
    for rep in reports:
        writer.writerow([rep.r0, str(rep.weight).replace(" ", ""), rep.basis_dim, rep.kernel_dim])
    return buf.getvalue()


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("rmin, rmax, max_degree", [(-3, 3, 12), (-20, 20, 6)])
def test_streamed_sweep_equals_the_report_list(capsys, output, rmin, rmax, max_degree):
    code, out = run_cli(capsys, "singular-sweep", "--rmin", str(rmin), "--rmax", str(rmax),
                        "--max-degree", str(max_degree), "--output", output)
    assert code == 0
    assert out == _sweep_reference(rmin, rmax, max_degree, output)
    if (rmin, rmax) == (-3, 3):  # det^nu of size p for (p, nu) = (1,2), (2,2), (1,1), (2,1), (3,1)
        assert out.count('"kernel_dim": 1' if output == "json" else ",1\n") == 5


def _sweep_peak_bytes(rmin, rmax, output):
    """tracemalloc's peak over one degree-12 singular-sweep from a cold cache, output discarded."""
    fock.clear_action_cache()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(["singular-sweep", "--rmin", str(rmin), "--rmax", str(rmax),
                             "--max-degree", "12", "--output", output]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            fock.clear_action_cache()


@pytest.mark.parametrize("output", ["csv", "json"])
def test_sweep_memory_does_not_grow_with_the_r_span(output):
    """41 parameters peak within 256 kB of one: the sweep keeps a row per weight, with a
    report only where a kernel is nonzero, and writes each line as it goes.  Holding all
    11111 reports took 1.7 MB more (csv), and the whole JSON list 9 MB more."""
    _sweep_peak_bytes(0, 0, output)  # first-use allocations stay out of the comparison
    one = _sweep_peak_bytes(0, 0, output)
    assert _sweep_peak_bytes(-20, 20, output) - one < 256 * 1024

def test_environment_sets_no_default(monkeypatch, capsys):
    monkeypatch.setenv("JORDAN_VOA_D", "3")
    monkeypatch.setenv("JORDAN_VOA_OUTPUT", "json")
    code, out = run_cli(capsys, "bracket", "v[1,1](1,2)", "v[1,1](-2,-1)")
    assert code == 0 and out == "2*v[1,1](-1,1) + v[1,1](-2,2) + 2*r\n"
    assert cli.main(["weight-basis", "--weight", "2*Lam[3,-1]"]) == 2  # default d=2


@pytest.mark.parametrize("argv", [
    ["virasoro-check", "--d", "0"],
    ["singular-check", "--p", "2", "--nu", "1", "--d", "0"],
    ["paper-suite", "--d", "1"],
    ["weight-basis", "--weight", "2*Lam[1,-1]", "--d", "two"],
    ["paper-suite", "--d", "4"],
])
def test_bad_d_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "argument --d" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["griess-table", "--r", "1"],
    ["griess-table", "--max-degree", "3"],
    ["verify-det", "--p", "2", "--d", "3"],
    ["singular-sweep", "--rmin", "0", "--rmax", "0", "--r", "1"],
    ["paper-suite", "--window-override=-5:5"],
    ["bracket", "v[1,1](1,2)", "v[1,1](-2,-1)", "--output", "csv"],
    ["paper-suite", "--no-degree-guard"],
    ["act-L", "--i", "1", "--j", "2", "--m", "-2", "--window-override=-5:5"],
    ["vertex-mode", "--i", "1", "--j", "2", "--m", "-1", "--n", "-1", "--l", "-1",
     "--window-override=-5:5"],
    ["singular-check", "--p", "2", "--nu", "1", "--full-algebra"],
    ["weight-basis", "--weight", "2*Lam[1,-1]", "--restricted"],
    ["verify-det", "--p", "2", "--index-bound", "3"],
    ["singular-sweep", "--rmin", "0", "--rmax", "0", "--workers", "2"],
])
def test_flags_a_subcommand_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["paper-suite", "--max-degree", "7"], "--max-degree"),
    (["paper-suite", "--samples", "-1"], "--samples"),
    (["paper-suite", "--max-degree", "0"], "--max-degree"),
    (["paper-suite", "--max-degree", "1"], "--max-degree"),
    (["singular-sweep", "--rmin", "0", "--rmax", "0", "--max-degree", "-1"], "--max-degree"),
    # one beyond suite.MAX_SAMPLES, and an input that would run for hours
    (["paper-suite", "--samples", "1000001"], "--samples"),
    (["paper-suite", "--samples", "1000000000"], "--samples"),
    (["virasoro-check", "--max-degree", "7"], "--max-degree"),
    (["singular-check", "--p", "8", "--nu", "1"], "--p"),
    (["singular-check", "--p", "0", "--nu", "1"], "--p"),
    (["singular-check", "--p", "1", "--nu", "29"], "--nu"),
    (["singular-check", "--p", "1", "--nu", "1000"], "--nu"),
    (["verify-det", "--p", "5"], "--p"),
    (["virasoro-check", "--d", "5"], "--d"),
    (["virasoro-check", "--d", "0"], "--d"),
    (["griess-table", "--d", "9"], "--d"),
    (["griess-table", "--d", "0"], "--d"),
    # one beyond cli.VERTEX_MODE_MAX, and the 23.5 s input that motivated the bound
    (["vertex-mode", "--i", "1", "--j", "2", "--m", "-301", "--n", "-1", "--l", "0"], "--m"),
    (["vertex-mode", "--i", "1", "--j", "2", "--m", "-1", "--n", "-301", "--l", "0"], "--n"),
    (["vertex-mode", "--i", "1", "--j", "2", "--m", "-1", "--n", "-1", "--l", "-301"], "--l"),
    (["vertex-mode", "--i", "1", "--j", "2", "--m", "-1", "--n", "-1", "--l", "301"], "--l"),
    (["vertex-mode", "--i", "1", "--j", "2", "--m", "-3000", "--n", "-3000", "--l", "0"], "--m"),
    # one beyond cli.SINGULAR_CHECK_MAX_D, and the 29.7 s input that motivated the bound
    (["singular-check", "--p", "1", "--nu", "1", "--d", "1001"], "--d"),
    (["singular-check", "--p", "1", "--nu", "1", "--d", "16000"], "--d"),
])
def test_paper_suite_out_of_range_is_a_usage_error(argv, flag, capsys):
    # parse only: nothing runs, so no suite and no sweep can start
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_singular_check_d_at_the_bound_parses():
    # parse only, as above: the check at the bound is not run here
    args = cli.build_parser().parse_args(["singular-check", "--p", "1", "--nu", "1", "--d", "1000"])
    assert args.d == 1000 and cli.SINGULAR_CHECK_MAX_D == 1000


def test_paper_suite_samples_at_the_bound_parse():
    # parse only, as above: the 15 s battery at the bound is not run here
    args = cli.build_parser().parse_args(["paper-suite", "--samples", "1000000"])
    assert args.samples == 1000000 and cli.MAX_SAMPLES == 1000000


def test_vertex_mode_modes_at_the_bound_parse():
    # parse only, as above: the operator at the bound is not built here
    args = cli.build_parser().parse_args(
        ["vertex-mode", "--i", "1", "--j", "2", "--m", "-300", "--n", "-300", "--l", "300"])
    assert (args.m, args.n, args.l) == (-300, -300, 300) and cli.VERTEX_MODE_MAX == 300


@pytest.mark.parametrize("kwargs", [
    {"d": 4}, {"d": 1}, {"max_degree": 7}, {"max_degree": -1}, {"samples": -1},
    {"max_degree": 0}, {"max_degree": 1}, {"samples": 1000001},
])
def test_suite_config_rejects_out_of_range_scale(kwargs):
    from jordan_voa.suite import SuiteConfig

    with pytest.raises(ValueError):
        SuiteConfig(**kwargs)


@pytest.mark.parametrize("argv, message", [
    (["act-L", "--i", "1", "--j", "7", "--m", "3", "--d", "2"], "oscillator index 7"),
    (["vertex-mode", "--i", "1", "--j", "5", "--m", "-1", "--n", "-1", "--l", "10",
      "--d", "2"], "oscillator index 5"),
    (["singular-sweep", "--rmin", "3", "--rmax", "0"], "empty parameter range"),
    (["singular-sweep", "--rmin", "0", "--rmax", "0", "--max-degree", "0"],
     "no weight to search"),
    (["singular-check", "--p", "2", "--nu", "1", "--strict-mixed"], "no mixed index pairs"),
    (["weight-basis", "--weight", "2*Lam[2,-1]", "--d", "1"], "oscillator index 2 beyond d=1"),
    (["weight-basis", "--weight", "2*Lam[1]"], "cannot parse weight term '2*Lam[1]'"),
    (["weight-basis", "--weight", "Lam[1,-1,2]"], "cannot parse weight term 'Lam[1,-1,2]'"),
    (["weight-basis", "--weight", "x*Lam[1,-1]"], "cannot parse weight term 'x*Lam[1,-1]'"),
    (["weight-basis", "--weight", "Lam[a,-1]"], "cannot parse weight term 'Lam[a,-1]'"),
    # one above cli.STATE_MAX_DEGREE
    (["act-L", "--i", "1", "--j", "1", "--m", "0", "--state", "v[1,1](-500,-501)"],
     "state degree 1001 is above 1000"),
    # one above cli.SWEEP_MAX_R_SPAN
    (["singular-sweep", "--rmin", "-20", "--rmax", "21"], "--rmax - --rmin is 41, above 40"),
    # weights above cli.STATE_MAX_DEGREE, and bases above fock.MAX_BASIS_FACTORS factors
    (["weight-basis", "--weight", "4000*Lam[1,-1]", "--d", "1"], "weight degree 4000 is above 1000"),
    (["weight-basis", "--weight", "1001*Lam[1,-1]", "--d", "1"], "weight degree 1001 is above 1000"),
    (["weight-basis", "--weight", "+".join(f"Lam[1,-{k}]" for k in range(1, 19)), "--d", "1"],
     "more than 11111 basis monomials, above 100000 factors in all"),
    (["weight-basis", "--weight", "900*Lam[1,-1]+" + "+".join(f"Lam[1,-{k}]" for k in range(2, 14)),
      "--d", "1"], "more than 219 basis monomials, above 100000 factors in all"),
    # a word whose first factor to act takes the vacuum to degree 1201, above cli.STATE_MAX_DEGREE
    (["act", *(f"v[1,1](-{k},-1)" for k in range(1, 1201)), "--d", "1"],
     "the word takes the state to degree 1201, above 1000"),
    # every suffix counts: the result, of degree 999, is reached through degree 1001
    (["act", "v[1,1](1,1)", "v[1,1](-500,-501)", "--d", "1"],
     "the word takes the state to degree 1001, above 1000"),
    (["act", "v[1,1](-1,-1)", "--state", "v[1,1](-500,-499)", "--d", "1"],
     "the word takes the state to degree 1001, above 1000"),
    # act-L's result has the state's degree minus --m
    (["act-L", "--i", "1", "--j", "1", "--m", "-200000", "--d", "1"],
     "--m -200000 takes the state to degree 200000, above 1000"),
    (["act-L", "--i", "1", "--j", "2", "--m", "-1", "--state", "v[1,1](-500,-500)"],
     "--m -1 takes the state to degree 1001, above 1000"),
])
def test_inputs_with_nothing_to_compute_are_usage_errors(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_singular_check_bounds_the_degree_of_the_power(monkeypatch, capsys):
    """nu*p*(p+1) above 56 is exit 2 before any state is built, though each flag is in range."""
    def build(p, nu):
        raise AssertionError(f"det^{nu} of size {p} was built")

    monkeypatch.setattr(cli, "det_power_state", build)
    for p, nu in (("7", "2"), ("5", "2"), ("2", "10")):
        assert cli.main(["singular-check", "--p", p, "--nu", nu]) == 2
        assert "beyond 56" in capsys.readouterr().err
    for p, nu in (("7", "1"), ("1", "28")):  # degree 56: in bound
        with pytest.raises(AssertionError, match="was built"):
            cli.main(["singular-check", "--p", p, "--nu", nu])


@pytest.mark.parametrize("state", [
    '[{"monomial": [[1,1,-1]], "coeff": "1"}]',
    "[1]",
    '[{"monomial": [[1,1,-1,-1]]}]',
    '[{"monomial": [["a",1,-1,-1]], "coeff": "1"}]',
    '[{"monomial": [[1,1,-1,-1]], "coeff": 2}]',
    '[{"monomial": [[1,1,-1,-1]], "coeff": "1/0"}]',
    '[{"monomial": [[0,1,-1,-1]], "coeff": "1"}]',
    '[{"monomial": [[1,1,-501,-500]], "coeff": "1"}]',  # one above cli.STATE_MAX_DEGREE
    '[{"monomial": [[1,1,-1,-1]], "coeff": "r^1001"}]',  # one above scalar.MAX_LITERAL_POWER
])
@pytest.mark.parametrize("argv", [
    ["act", "v[1,1](1,1)"],
    ["act-L", "--i", "1", "--j", "1", "--m", "0"],
    ["vertex-mode", "--i", "1", "--j", "2", "--m", "-1", "--n", "-1", "--l", "-1"],
])
def test_malformed_state_json_is_a_usage_error(argv, state, capsys):
    assert cli.main([*argv, "--state", state]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("state", [
    "v[1,1](-500,-500)",
    '[{"monomial": [[1,1,-500,-500]], "coeff": "1"}]',
    '[{"monomial": [[1,1,-1,-1]], "coeff": "r^1000"}]',
])
def test_states_at_the_input_bounds_are_accepted(state, capsys):
    code, out = run_cli(capsys, "act-L", "--i", "1", "--j", "1", "--m", "0", "--state", state)
    assert code == 0
    assert out


def test_act_l_refuses_a_result_above_the_degree_bound_before_acting(monkeypatch, capsys):
    """The state's degree minus --m above 1000 is exit 2 before act_L runs; 1000 is in bound."""
    def apply(*args, **kwargs):
        raise AssertionError("act_L ran")

    monkeypatch.setattr(cli, "act_L", apply)
    for flags, degree in ((["--m", "-1001"], 1001), (["--m", "-200000"], 200000),
                          (["--m", "-2", "--state", "v[1,1](-500,-499)"], 1001)):
        assert cli.main(["act-L", "--i", "1", "--j", "1", *flags]) == 2
        assert f"takes the state to degree {degree}, above 1000" in capsys.readouterr().err
    for flags in (["--m", "-1000"], ["--m", "-1", "--state", "v[1,1](-500,-499)"]):
        with pytest.raises(AssertionError, match="act_L ran"):
            cli.main(["act-L", "--i", "1", "--j", "1", *flags])


@pytest.mark.parametrize("argv", [
    ["weight-basis", "--weight", "1000*Lam[1,-1]", "--d", "1"],
    ["act", "v[1,1](-1,-1)", "--state", "v[1,1](-500,-498)", "--d", "1"],
    ["act", "v[1,1](1,1)", "v[1,1](-500,-500)", "--d", "1"],
    ["act-L", "--i", "1", "--j", "1", "--m", "-1000", "--d", "1"],
    ["act-L", "--i", "1", "--j", "2", "--m", "-1", "--state", "v[1,1](-500,-499)"],
])
def test_weights_and_words_at_the_degree_bound_are_accepted(argv, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out


@pytest.mark.parametrize("value", ["1e999999999", "1e5", "1E-3", "1.5e2", "inf", "nan",
                                   "1_000", "1/2/3", ".", "", "3" * 101])
def test_r_outside_the_documented_forms_is_refused_before_a_fraction_is_built(value, monkeypatch,
                                                                                capsys):
    def build(*args):
        raise AssertionError(f"Fraction{args} was built")

    monkeypatch.setattr(cli, "Fraction", build)
    with pytest.raises(SystemExit) as exc:
        cli.main(["bracket", "v[1,1](1,2)", "v[1,1](-2,-1)", "--r", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot parse parameter value {value!r}" in err
    assert "of at most 100 characters" in err


@pytest.mark.parametrize("value, r0", [("1/2", Fraction(1, 2)), ("-3/2", Fraction(-3, 2)),
                                       ("1.5", Fraction(3, 2)), ("-.25", Fraction(-1, 4)),
                                       ("+7", Fraction(7)), (" 2 ", Fraction(2)),
                                       ("3" * 100, Fraction(int("3" * 100)))])
def test_r_takes_rationals_and_decimals_of_bounded_length(value, r0):
    assert cli._parse_r(value) == r0


def test_r_with_a_zero_denominator_is_refused():
    with pytest.raises(argparse.ArgumentTypeError, match="cannot parse parameter value '1/0'"):
        cli._parse_r("1/0")


def test_paper_suite_defaults_are_the_certification_scale():
    from jordan_voa.suite import SuiteConfig

    args = cli.build_parser().parse_args(["paper-suite"])
    default = SuiteConfig()
    assert (args.d, args.max_degree, args.seed, args.samples) == (
        default.d, default.max_degree, default.seed, default.samples
    )


def test_verify_det_index_bound_defaults_to_p_plus_two(capsys):
    code, out = run_cli(capsys, "verify-det", "--p", "1", "--output", "json")
    [result] = json.loads(out)
    assert code == 0 and result["details"].endswith("exchange modes up to p + 2")
    assert result["checked"] == 3 * 6 + 3  # modes 0, 2 and 3 on 6 states, then 3 eigenvalues


def test_paper_suite_small(capsys):
    code, out = run_cli(
        capsys, "paper-suite", "--d", "2", "--max-degree", "2", "--samples", "20",
    )
    assert code == 0
    assert "PASS  bracket-antisymmetry-jacobi" in out
    assert "checks passed" in out


def test_failed_sweep_verification_exits_one(monkeypatch, capsys):
    """A kernel vector that fails its singularity check is exit 1, not a traceback."""
    from jordan_voa import singular

    monkeypatch.setattr(singular, "is_singular", lambda *args, **kwargs: (False, ["probe"]))
    code = cli.main(["singular-sweep", "--rmin", "0", "--rmax", "0", "--max-degree", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: search produced a non-singular vector")
    assert "witness probe" in err


def _constant_shifted_bracket(g, h):
    """The pair bracket with one added to its coefficient of r: a wrong central term.

    It shows only where r != 0, so its row runs at r = 1 (p = 2, nu = 1).
    """
    terms, const = _pair_bracket(g, h)
    return terms, const + 1


def _griess_product_shifted(pairs):
    """griess_product with w[2,2]/3 added to the product of each (left, right) in pairs."""
    def product(i, j, k, l, d):
        out = griess_product(i, j, k, l, d)
        return out + omega(2, 2).scale(Fraction(1, 3)) if ((i, j), (k, l)) in pairs else out
    return product


def _vacuum_probe_dropped(pairs, m, n, vec):
    """The id probe with the vacuum's central term at (2, -2) and (-2, 2) lost.

    A fault of the engine shows in both orientations; check 10 probes only
    m < n, and tests/test_virops.py checks the oddness that certifies the mirror.
    """
    if (m, n) in ((2, -2), (-2, 2)) and list(vec) == [fock._mono_id(())]:
        return {}
    return _probe_ids(pairs, m, n, vec)


# test id -> (argv at the smallest scale, one fault in the code it runs: (module, attribute, fake))
PLANTED_FAULTS = {
    "virasoro-check": (["virasoro-check", "--d", "1", "--max-degree", "0"],
                       ("suite", "_central", lambda m, n, d: 0)),
    "virasoro-check-vacuum": (["virasoro-check", "--d", "2", "--max-degree", "0"],
                              ("suite", "_probe_ids", _vacuum_probe_dropped)),
    "verify-det": (["verify-det", "--p", "1"], ("singular", "R", R + ONE)),
    "singular-check": (["singular-check", "--p", "2", "--nu", "1"],
                       ("fock", "_pair_bracket", _constant_shifted_bracket)),
    "griess-table": (["griess-table", "--d", "1"],
                     ("griess", "act_L", lambda *args, **kwargs: act_L(*args, **kwargs).scale(R))),
    # one ordered product wrong: a non-commutative table
    "griess-table-one-order": (["griess-table", "--d", "2"],
                               ("griess", "griess_product",
                                _griess_product_shifted({((1, 1), (1, 2))}))),
    # both orders wrong alike: a commutative table that is not Sym_2
    "griess-table-both-orders": (["griess-table", "--d", "2"],
                                 ("griess", "griess_product",
                                  _griess_product_shifted({((1, 1), (1, 2)), ((1, 2), (1, 1))}))),
    "paper-suite": (["paper-suite", "--d", "2", "--max-degree", "2", "--samples", "0"],
                    ("suite", "binomial_matrix_det", lambda shift, size: 0)),
}


@pytest.mark.parametrize("planted", [False, True], ids=["clean", "planted"])
@pytest.mark.parametrize("argv, fault", PLANTED_FAULTS.values(), ids=PLANTED_FAULTS.keys())
def test_verifying_subcommands_fail_on_a_planted_fault(argv, fault, planted, monkeypatch, capsys):
    """Each verifying subcommand tests something at its smallest scale: a fault is exit 1."""
    if planted:
        module, attr, fake = fault
        monkeypatch.setattr(importlib.import_module(f"jordan_voa.{module}"), attr, fake)
    fock.clear_action_cache()
    try:
        code, _ = run_cli(capsys, *argv)
    finally:
        fock.clear_action_cache()
    assert code == (1 if planted else 0)


@pytest.mark.parametrize("argv", [
    ["virasoro-check", "--d", "1", "--max-degree", "0", "--output", "json"],
    ["verify-det", "--p", "1", "--output", "json"],
], ids=lambda argv: argv[0])
def test_check_reports_count_what_they_tested(argv, capsys):
    """JSON reports carry "checked"; stderr has one real timing and peak memory line per check."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    results = json.loads(captured.out)
    assert code == 0
    assert all(res["passed"] and res["checked"] > 0 for res in results)
    timings = [re.fullmatch(r"\[ *(\d+\.\d\d)s +(\d+\.\d) MB\] (.+)", line)
               for line in captured.err.splitlines()]
    assert [m.group(3) for m in timings] == [res["name"] for res in results]
    assert all(float(m.group(2)) > 0 for m in timings)


def test_each_suite_check_starts_with_an_empty_action_cache(monkeypatch):
    from jordan_voa import fock, suite
    from jordan_voa.liealg import Generator

    seen = []
    # a raising image is cached; a lowering one, or one that grading kills, leaves no entry
    raising, state = Generator(1, 1, 1, 1), fock.State.from_monomial((Generator(1, 1, -1, -1),))

    def probe(config):
        seen.append(len(fock._ACT_CACHE) + sum(map(len, fock._IMAGES)))
        fock.act(raising, state)
        return suite.CheckResult("probe", 1)

    monkeypatch.setattr(suite, "ALL_CHECKS", (("a", probe), ("b", probe), ("c", probe)))
    fock.act(raising, state)
    results = suite.run_paper_suite(suite.SuiteConfig(d=2, max_degree=2, samples=0))
    assert [res.passed for res in results] == [True] * 3
    assert seen == [0, 0, 0]
    assert any(fock._IMAGES)  # the probes did fill the cache, so the zeros come from clearing it


def test_a_check_that_tests_nothing_or_raises_fails(monkeypatch):
    from jordan_voa import suite

    def empty(config):
        return suite.CheckResult("empty", 0)

    def broken(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(suite, "ALL_CHECKS", (("a", empty), ("b", broken)))
    results = suite.run_paper_suite(suite.SuiteConfig(d=2, max_degree=2, samples=0))
    assert [(res.name, res.checked, res.passed) for res in results] == [
        ("empty", 0, False), ("broken", 0, False)
    ]
    assert results[1].summary_line() == "FAIL  broken: raised RuntimeError('boom')"


def _readme_flag_table():
    """subcommand -> the flags README's table lists for it."""
    table = {}
    for line in README.read_text().splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            flags = set(re.findall(r"`(--[a-z-]+)", cells[2]))
            for name in re.findall(r"`([a-zA-Z-]+)`", cells[1]):
                assert name not in table, f"{name} is listed twice"
                table[name] = flags
    return table


def test_readme_flag_table_lists_each_subcommands_optional_flags():
    [subparsers] = [action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    parsers = {
        name: {flag for action in sub._actions if not action.required
               for flag in action.option_strings if flag not in ("-h", "--help")}
        for name, sub in subparsers.choices.items()
    }
    assert _readme_flag_table() == parsers


def _readme_examples():
    """(argv, comment) for each jordan-voa line in README's sh blocks.

    comment is the text of the "# " line right after the command, or None.
    """
    lines = README.read_text().splitlines()
    examples = []
    in_sh = False
    for pos, line in enumerate(lines):
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("jordan-voa "):
            following = lines[pos + 1]
            comment = following[2:] if following.startswith("# ") else None
            examples.append((shlex.split(line)[1:], comment))
    return examples


# paper-suite is left out: the acceptance fixture runs it
README_EXAMPLES = [ex for ex in _readme_examples() if ex[0][0] != "paper-suite"]


def test_readme_examples_are_found():
    commands = [argv[0] for argv, _ in README_EXAMPLES]
    assert {"bracket", "act", "weight-basis", "singular-check", "singular-sweep"} <= set(commands)
    assert len(commands) == len(set(commands))


@pytest.mark.parametrize("argv, comment", README_EXAMPLES,
                         ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_example(argv, comment, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    if argv[0] in ("bracket", "act"):
        assert out == comment + "\n"
    if argv[0] == "singular-check":
        assert out == "SINGULAR: true\n"
