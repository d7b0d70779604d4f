"""Fuzzing the command line: argv drawn from each subcommand's own parser.

Every argv the parser of cli.build_parser() could be handed, valid or not,
must end in exit code 0, 1 or 2, with no traceback and within a deadline.
The draws read each subcommand's actions, so a new flag is fuzzed without
editing this file.  Numbers come from a small window and junk text, so a
valid draw stays cheap; the bounds of the flags that cap the work are
pinned in test_cli.py, and each cheap one is run at its bound here.
"""

import argparse
import contextlib
import io
import time
from datetime import timedelta

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from jordan_voa import cli, fock, singular  # noqa: E402

# derandomized and without an example database, so every run draws the same argv
FUZZ = settings(max_examples=20, deadline=timedelta(seconds=3), derandomize=True, database=None)

JUNK = ["", "x", "1.5", "1/0", "--", "-", "  ", "1/2", "-3/2", "1e999999999"]
GENERATORS = ["v[1,1](1,1)", "v[1,2](-1,-2)", "v[2,1](1,-1)", "v[1,1](-2,-1)", "v[2,2](0,3)",
              "v[0,1](1,1)", "v[1,1](1)", "v[3,3](-1,-1)", "w[1,1](1,1)"]
STATES = ["1", "v[1,1](-1,-1)", "v[1,2](-1,-2)*v[1,1](-1,-1)", "v[2,1](-2,-1)", "v[1,1](1,1)",
          "v[1,1](-1,-1)+v[1,2](-1,-1)", "[]", '[{"monomial": [[1, 1, 2, 2]], "coeff": "1"}]',
          '[{"monomial": [[1, 1, -1, -2]], "coeff": "r - 1/2"}]', '[{"monomial": 3}]', "{", "[1"]
WEIGHTS = ["0", "2*Lam[1,-1]", "2*Lam[1,-1] + 2*Lam[1,-2]", "Lam[1,-1] + Lam[2,-1]", "Lam[1,0]",
           "3*Lam[2,-2]", "Lam[0,-1]", "-1*Lam[1,-1]", "Lam[1,-1", "2*Lam[a,b]", "4000*Lam[1,-1]"]
BY_DEST = {  # the values drawn for an action, by its destination
    "state": STATES, "weight": WEIGHTS, "element": GENERATORS, "left": GENERATORS,
    "right": GENERATORS, "i": ["1", "2", "3"], "j": ["1", "2", "3"],
}

# Flags whose valid values set the size of the run, as (subcommand, flag) -> the values drawn,
# the invalid ones first, so the simplest draws fail fast.  The largest valid run among them,
# paper-suite --d 2 --max-degree 2 --samples 0, takes about 0.5 s.  A work flag is always
# given: omitted, it would run the default scale (paper-suite: the whole battery, 3 s).
WORK = {
    ("paper-suite", "--d"): ["1", "4", "x", "2"],
    ("paper-suite", "--max-degree"): ["1", "7", "x", "2"],
    ("paper-suite", "--samples"): ["-1", "x", "1000001", "0"],
    ("verify-det", "--p"): ["0", "5", "x", "1", "2", "3"],
    ("virasoro-check", "--max-degree"): ["-1", "x", "0", "1", "2"],
    ("singular-sweep", "--max-degree"): ["-1", "x", "0", "1", "4"],
    ("act-L", "--m"): ["x", "-200000", "-1000", "-1", "0", "3"],
}

# Each flag that caps cheap work, given its bound: in process on a 2-vCPU x86-64 host the
# slowest, verify-det --p 4, takes 0.76 s and the rest at most 0.15 s.  The bounds that cost
# seconds, paper-suite --samples 1000000 and singular-check --p 7, stay parse-only in
# test_cli.py, as do the values one past each bound.
AT_THE_BOUND = [
    ["vertex-mode", "--i", "1", "--j", "2", "--m", "-300", "--n", "-300", "--l", "-300"],
    ["vertex-mode", "--i", "1", "--j", "2", "--m", "-300", "--n", "-300", "--l", "300"],
    ["griess-table", "--d", str(cli.GRIESS_MAX_D)],
    ["singular-check", "--p", "1", "--nu", "1", "--d", str(cli.SINGULAR_CHECK_MAX_D)],
    ["virasoro-check", "--d", str(cli.VIRASORO_MAX_D), "--max-degree", "0"],
    ["verify-det", "--p", "4"],
]

PARSER = cli.build_parser()
SUBCOMMANDS = next(
    action for action in PARSER._actions if isinstance(action, argparse._SubParsersAction)
).choices


def _values(command: str, action: argparse.Action, junk: list):
    """Text for one occurrence of the action's value, junk among the choices."""
    flag = action.option_strings[0] if action.option_strings else None
    if (command, flag) in WORK:
        return st.sampled_from(WORK[command, flag])
    if action.choices:
        return st.sampled_from([*action.choices, *junk])
    if action.dest in BY_DEST:
        return st.sampled_from(BY_DEST[action.dest] + junk)
    return st.one_of(st.integers(-2, 2).map(str), st.sampled_from(junk or ["1"]))


def _argument(command: str, action: argparse.Action, junk: list):
    """The argv pieces of one action: its flag and value, or nothing when left out."""
    flag = action.option_strings[0] if action.option_strings else None
    if action.nargs == 0:
        return st.sampled_from([[], [flag]])
    values = _values(command, action, junk)
    if action.nargs == "+":
        words = st.lists(values, min_size=0, max_size=3)
    else:
        words = values.map(lambda text: [text])
    if flag is None:
        return words
    given_flag = words.map(lambda texts: [flag, *texts])
    if action.required or (command, flag) in WORK:
        return given_flag
    return st.one_of(st.just([]), given_flag)


def _argv(command: str, junk: list):
    actions = [a for a in SUBCOMMANDS[command]._actions if not isinstance(a, argparse._HelpAction)]
    pieces = st.tuples(*[_argument(command, action, junk) for action in actions])
    return pieces.flatmap(st.permutations).map(
        lambda parts: [command, *(word for part in parts for word in part)]
    )


def _argvs(command: str):
    """argv with junk among the values, or with none, so that some draws get past parsing."""
    return st.one_of(_argv(command, JUNK), _argv(command, []))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_any_argv_exits_cleanly(command):
    @FUZZ
    @given(_argvs(command))
    def check(argv):
        try:
            code, err = _run(argv)
        finally:
            fock.clear_action_cache()
            singular._MATRIX_CACHE.clear()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv

    check()


def test_the_draws_reach_every_exit_code():
    """The window of values is wide enough to pass, to fail a check, and to be refused."""
    assert _run(["singular-check", "--p", "2", "--nu", "1"])[0] == 0
    assert _run(["singular-check", "--p", "2", "--nu", "1", "--r", "1/2"])[0] == 1
    assert _run(["verify-det", "--p", "5"])[0] == 2


@pytest.mark.parametrize("argv", AT_THE_BOUND, ids=" ".join)
def test_each_cheap_work_flag_runs_at_its_bound(argv):
    """A flag's bound is a valid value that runs, within the fuzz deadline."""
    start = time.perf_counter()
    try:
        code, err = _run(argv)
    finally:
        fock.clear_action_cache()
        singular._MATRIX_CACHE.clear()
    assert time.perf_counter() - start < FUZZ.deadline.total_seconds(), argv
    assert code == 0, (argv, err)
