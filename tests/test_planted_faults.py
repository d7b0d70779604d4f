"""A catalogue of planted faults, each with the checks of the battery that must catch it.

Each fault is one function of the engine and one or more edits (old text,
new text) of its source.  faulty_code makes them on the function's current
source, which must hold each old text exactly once, so every fault mutates
today's code, and an engine change that moves an anchor fails here with the
function's name and the text it no longer holds.  plant puts the result into
the original's __code__ (for the lru_cached _pair_bracket, the code of the
function it wraps), so every module that imported the function by name runs
the fault too, in the original's module and names.  That reaches both places
a pair bracket is cached: _pair_bracket's memo, which the action, bracket_r
and check 1's sampled triples read, and the table of checks 1 and 3
(suite._int_bracket_table), which calls the wrapped closed form itself,
uncached, as liealg._closed_pair_bracket.  The battery runs at a small scale
(d = 2, max_degree 2, 200 sampled triples: 0.2 to 0.4 s a fault), or at the
default scale for the faults in AT_DEFAULT_SCALE, which the small battery
misses.
run_check empties the cached brackets and images before each check
(_pair_bracket's lru_cache, fock's memo, and its id tables with their
images), so no check reads what another cached; the fixture clears them
also before and after each fault, so none is left to a test that runs
outside the battery.
"""

import ast
import inspect
import multiprocessing
import textwrap

import pytest

from jordan_voa import fock, liealg, scalar, singular, suite, virops
from jordan_voa.scalar import Scalar
from jordan_voa.suite import SuiteConfig, run_paper_suite

SMALL = SuiteConfig(d=2, max_degree=2, samples=200)

_WIDE = "max(abs(g.m), abs(g.n), abs(h.m), abs(h.n)) >= 5"  # a pair with a mode of |m| >= 5

FAULTS = {  # name -> (the function, its edits (old text, new text), the checks that must fail)
    "multiple-drops-its-factor-2": (
        virops._multiple, [("return 2 * (-m - 1)", "return (-m - 1)")],
        {"vertex-mode-binomial-formula"}),
    "slot-swap-keeps-the-indices": (
        virops._recursion_ids, [("i, j, m, n = j, i, n, m", "m, n = n, m")],
        {"vertex-mode-binomial-formula"}),
    "mode-sum-window-loses-its-top-summand": (
        virops._mode_sum, [("hi = m - depth + 1, depth - 1", "hi = m - depth + 1, depth - 2")],
        {"lowering-recursions", "vertex-mode-binomial-formula", "virasoro-central-charge",
         "griess-jordan-isomorphism"}),
    "normal-order-negates-its-constant": (
        liealg._normal_order, [("), _contraction(x, y)", "), -_contraction(x, y)")],
        {"diagonal-pair-bracket-closed-form", "diagonal-raising-eigenvalue",
         "determinant-power-singular", "determinant-commutation", "virasoro-central-charge"}),
    "pair-bracket-negates-its-constant": (
        liealg._pair_bracket.__wrapped__, [("const += scalar", "const -= scalar")],
        {"diagonal-pair-bracket-closed-form", "diagonal-raising-eigenvalue",
         "determinant-power-singular", "determinant-commutation", "virasoro-central-charge"}),
    "pair-bracket-negates-its-constant-at-a-wide-mode": (
        liealg._pair_bracket.__wrapped__,
        [("return (terms, const)", f"return (terms, -const if {_WIDE} else const)")],
        {"diagonal-pair-bracket-closed-form"}),
    "pair-bracket-negates-its-constant-for-a-mixed-pair-at-a-wide-mode": (
        # the battery's known escape: check 3 stops at |m| = 4, check 1's exhaustive part at 3.
        # tests/test_liealg.py's test_closed_form_matches_the_straightened_commutator and
        # test_pair_bracket_matches_the_leibniz_rule_at_the_sampled_scale catch it
        liealg._pair_bracket.__wrapped__,
        [("return (terms, const)",
          f"return (terms, -const if (g.i != g.j or h.i != h.j) and {_WIDE} else const)")],
        set()),
    "contraction-ignores-the-index": (
        liealg._contraction, [("x[0] == y[0] and ", "")],
        {"bracket-antisymmetry-jacobi", "action-respects-bracket", "lowering-recursions",
         "vertex-mode-binomial-formula", "virasoro-central-charge",
         "griess-jordan-isomorphism"}),
    "contract-reads-only-the-first-slot": (
        # only check 1's sampled part runs this pre-test; the table finds its pairs by mode
        liealg._contract, [("m == -x and i == k or m == -y and i == l", "m == -x and i == k"),
                           ("n == -x and j == k or n == -y and j == l", "n == -x and j == k")],
        {"bracket-antisymmetry-jacobi"}),
    "census-counts-only-the-first-slot": (
        fock._census, [("_slot(head.i, head.m), _slot(head.j, head.n)", "_slot(head.i, head.m),")],
        {"action-respects-bracket", "lowering-recursions", "vertex-mode-binomial-formula",
         "diagonal-raising-eigenvalue", "determinant-power-singular", "singular-kernel-sweep",
         "determinant-commutation", "virasoro-central-charge", "griess-jordan-isomorphism"}),
    "needs-ask-one-copy-of-a-diagonal-mode": (
        # grading only saves work: the recursion it lets through stays exact, so no check sees
        # it; tests/test_fock.py's mask test against a count of the modes does
        fock._needs, [("0b11 if (i, m) == (j, n) else 0b01", "0b01")], set()),
    "act-id-drops-its-constant": (
        fock._act_id, [("_add(result, rest, R * const)", "pass")],
        {"action-respects-bracket", "diagonal-raising-eigenvalue", "determinant-power-singular",
         "singular-kernel-sweep", "determinant-commutation", "virasoro-central-charge"}),
    "insert-conses-above-the-head": (
        # one monomial takes an id per order of its factors, read back unsorted
        fock._insert_id, [("if head is not None and _GENS[head] < gen:", "if False:")],
        {"action-respects-bracket", "determinant-power-singular", "determinant-commutation",
         "virasoro-central-charge"}),
    "generic-minor-returns-one": (
        singular._generic_minor, [("norm = 0\n", "return ONE\n")], {"singular-kernel-sweep"}),
    "minor-digits-read-unsigned": (
        # with the second edit alone, a negative minor never runs out of digits
        singular._balanced_digits, [("while value:", "while value > 0:"),
                                    ("if digit > half:", "if False:")],
        {"singular-kernel-sweep"}),
    "search-generators-drop-v11-11": (
        singular._search_generators, [("out.append(Generator(1, 1, 1, 1))", "pass")],
        {"singular-kernel-sweep"}),
    "expected-pairs-ignore-r": (
        # check 9 then expects a kernel at every r; its dimension test fails where none is found
        singular.expected_singular_pairs, [("if certification_r(p, nu) != r0:", "if False:")],
        {"singular-kernel-sweep"}),
    "sweep-stops-one-degree-short": (
        # each report it returns is right; check 9 fails the expected kernels it never searched
        singular.sweep_rows, [("weights(max_degree)", "weights(max_degree - 1)")],
        {"singular-kernel-sweep"}),
    "singularity-is-never-refuted": (
        # every determinant power then passes at generic r too, where check 8 refutes it
        singular.is_singular, [("if not image.is_zero():", "if False:")],
        {"determinant-power-singular"}),
    "rref-ignores-its-row-swaps-in-the-sign": (
        # only the transfer determinants read the sign; the kernels use the rows alone
        scalar.fraction_free_rref, [("sign = -sign", "sign = sign")],
        {"mode-transfer-determinants"}),
    "vertex-mode-reads-the-degree-one-too-low": (
        virops._vertex_ids, [("_DEGREES[next(iter(vec))]", "_DEGREES[next(iter(vec))] - 1")],
        {"vertex-mode-binomial-formula"}),
    "vertex-operator-keeps-its-generators": (
        # act_ids then indexes the id tables with a Generator: check 5 raises, under its own name
        virops._vertex_operator,
        [("return _id_form(", "return tuple("),
         ("(sign * binom(", "(_normal_order((i, center - k), (j, k))[0], sign * binom("),
         (", i, j, center - k, k)", ")")],
        {"vertex-mode-binomial-formula"}),
    "scalar-negation-returns-its-input": (
        Scalar.__neg__, [("Scalar([-c for c in self])", "self")], {"singular-kernel-sweep"}),
}

AT_DEFAULT_SCALE = {  # faults the small battery misses
    "minor-digits-read-unsigned", "scalar-negation-returns-its-input",
    "pair-bracket-negates-its-constant-for-a-mixed-pair-at-a-wide-mode"}

_ORIGINAL_CODE = {function: function.__code__ for function, _, _ in FAULTS.values()}


def _parse(source: str):
    """The function that source defines, stripped of its decorators, and a dump of its code:
    its arguments and every statement after its docstring."""
    node = ast.parse(source).body[0]
    node.decorator_list = []
    body = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
    return node, ast.dump(node.args) + "".join(map(ast.dump, body))


def _arguments(code) -> tuple:
    return code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]


def faulty_code(function, edits):
    """function's code with each (old text, new text) edit made in turn on its current source.

    Each old text must occur exactly once in the source as the edits before
    it left it.  The source is compiled without its decorators, in the
    function's own file at its own lines, and run in a copy of its globals,
    so the module keeps its name.  Raises ValueError when an old text is
    not there once, when the edits change no code (a docstring, comment or
    spacing edit plants nothing), or when they change the argument names.
    """
    name = function.__qualname__
    source = original = textwrap.dedent(inspect.getsource(function))
    for old, new in edits:
        if source.count(old) != 1:
            raise ValueError(f"{name} holds {old!r} {source.count(old)} times, not once")
        source = source.replace(old, new)
    node, dump = _parse(source)
    if dump == _parse(original)[1]:
        raise ValueError(f"the edits of {name} change no code")
    tree = ast.increment_lineno(ast.Module([node], []), function.__code__.co_firstlineno - 1)
    namespace = dict(function.__globals__)
    exec(compile(tree, inspect.getsourcefile(function), "exec"), namespace)
    code = namespace[function.__name__].__code__
    if _arguments(code) != _arguments(function.__code__):
        raise ValueError(f"the edits of {name} change its argument names")
    return code


@pytest.fixture
def plant():
    """plant(function, edits) runs faulty_code(function, edits) as function until the test ends."""
    planted = []

    def put(function, edits):
        code = faulty_code(function, edits)
        planted.append((function, function.__code__))
        fock.clear_action_cache()
        function.__code__ = code

    try:
        yield put
    finally:
        for function, code in planted:
            function.__code__ = code
        fock.clear_action_cache()


def _failing_checks(config=SMALL) -> set:
    return {result.name for result in run_paper_suite(config) if not result.passed}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_planted_fault_fails_its_checks(name, plant):
    function, edits, checks = FAULTS[name]
    plant(function, edits)
    assert _failing_checks(SuiteConfig() if name in AT_DEFAULT_SCALE else SMALL) == checks


@pytest.mark.parametrize("name", sorted(AT_DEFAULT_SCALE))
def test_default_scale_faults_pass_the_small_battery(name, plant):
    function, edits, _ = FAULTS[name]
    plant(function, edits)
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


def _reported(results) -> list:
    return [(res.summary_line(), res.checked, res.failures) for res in results]


@pytest.mark.parametrize("fault", [None, "contraction-ignores-the-index"], ids=["clean", "planted"])
def test_the_pool_reports_what_the_in_process_battery_reports(fault, plant, monkeypatch):
    """Forked workers see the planted code, and their results come back in criterion order.

    The reference runs each check here, through run_check; pools of one and two workers match it."""
    if fault:
        function, edits, _ = FAULTS[fault]
        plant(function, edits)
    config = SuiteConfig(d=2, max_degree=2, samples=0)
    in_process = [suite.run_check(check, config) for _, check in suite.ALL_CHECKS]
    for cpus in (1, 2):
        monkeypatch.setattr(suite, "_usable_cpus", lambda: cpus)
        pooled = run_paper_suite(config)
        assert _reported(pooled) == _reported(in_process)
        assert [res.name for res in pooled] == [check.report_name for _, check in suite.ALL_CHECKS]
        assert sum(not res.passed for res in pooled) == (len(FAULTS[fault][2]) if fault else 0)
        assert multiprocessing.active_children() == []  # every worker was reaped
