"""The battery on each planted fault of the catalogue (faults.py): exactly its checks fail.

The battery runs at a small scale (d = 2, max_degree 2, 200 sampled
triples), or at the default scale for the faults in AT_DEFAULT_SCALE.
run_check empties the cached brackets and images before each check
(_pair_bracket's lru_cache, fock's memo, and its id tables with their
images), so no check reads what another cached.  From the exact check sets
the catalogue reads as the battery's fault-by-check matrix, and the checks
that no fault fails alone are pinned, so that list can only shrink.
"""

import multiprocessing

import pytest

from faults import AT_DEFAULT_SCALE, FAULTS, faulty_code
from jordan_voa import suite, virops
from jordan_voa.suite import SuiteConfig, run_paper_suite

SMALL = SuiteConfig(d=2, max_degree=2, samples=200)

_ORIGINAL_CODE = {function: function.__code__ for function, _, _ in FAULTS.values()}


def _failing_checks(config=SMALL) -> set:
    return {result.name for result in run_paper_suite(config) if not result.passed}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_planted_fault_fails_its_checks(name, plant):
    plant(name)
    assert _failing_checks(SuiteConfig() if name in AT_DEFAULT_SCALE else SMALL) == FAULTS[name][2]


@pytest.mark.parametrize("name", sorted(AT_DEFAULT_SCALE))
def test_default_scale_faults_pass_the_small_battery(name, plant):
    plant(name)
    assert _failing_checks() == set()


@pytest.mark.parametrize("edits, refusal", [
    ([("_multiple(", "f(")], "3 times"),
    ([("2 * (-m - 1)", "2 * (-1 - m)"), ("2 * (-m - 1)", "2 * (-m - 2)")], "0 times"),
    ([("return 2 * (-m - 1) * _multiple(m + 1, n)", "return 2*(-m - 1)*_multiple(m + 1, n)  # 2c")],
     "change no code"),
    ([("c(m, n): the oracle", "c(m, n), the oracle")], "change no code"),
    ([("def _multiple(m: int, n: int)", "def _multiple(n: int, m: int)")], "argument names"),
])
def test_an_edit_that_plants_no_fault_is_refused(edits, refusal):
    with pytest.raises(ValueError, match=refusal):
        faulty_code(virops._multiple, edits)


def test_the_battery_passes_once_the_faults_are_removed():
    """Runs after the catalogue: no fault, cached bracket or image is left behind."""
    assert all(function.__code__ is code for function, code in _ORIGINAL_CODE.items())
    assert _failing_checks() == set()


def test_every_check_but_3_and_7_is_alone_in_failing_some_fault():
    """The fault-by-check matrix, read from the exact check sets: every check fails some fault,
    and the checks that fail no fault alone are pinned, so the list can only shrink."""
    faults_of = {check.report_name: [name for name, (_, _, checks) in FAULTS.items()
                                     if check.report_name in checks]
                 for _, check in suite.ALL_CHECKS}
    assert all(faults_of.values())
    assert {check for check, names in faults_of.items()
            if all(len(FAULTS[name][2]) > 1 for name in names)} == {
        "action-respects-bracket", "diagonal-raising-eigenvalue"}


def _reported(results) -> list:
    return [(res.summary_line(), res.checked, res.failures) for res in results]


@pytest.mark.parametrize("fault", [None, "contraction-ignores-the-index"], ids=["clean", "planted"])
def test_the_pool_reports_what_the_in_process_battery_reports(fault, plant, monkeypatch):
    """Forked workers see the planted code, and their results come back in criterion order.

    The reference runs each check here, through run_check; pools of one and two workers match it."""
    if fault:
        plant(fault)
    config = SuiteConfig(d=2, max_degree=2, samples=0)
    in_process = [suite.run_check(check, config) for _, check in suite.ALL_CHECKS]
    for cpus in (1, 2):
        monkeypatch.setattr(suite, "_usable_cpus", lambda: cpus)
        pooled = run_paper_suite(config)
        assert _reported(pooled) == _reported(in_process)
        assert [res.name for res in pooled] == [check.report_name for _, check in suite.ALL_CHECKS]
        assert sum(not res.passed for res in pooled) == (len(FAULTS[fault][2]) if fault else 0)
        assert multiprocessing.active_children() == []  # every worker was reaped
