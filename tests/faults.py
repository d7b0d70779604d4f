"""A catalogue of planted faults, each with the checks of the battery that must catch it.

This is the one way the tests plant a fault in the engine's source.  Each
fault is one function of the engine and one or more edits (old text, new
text) of its source.  faulty_code makes them on the function's current
source, which must hold each old text exactly once, so every fault mutates
today's code, and an engine change that moves an anchor fails with the
function's name and the text it no longer holds.  The plant fixture
(conftest.py) puts the result into the original's __code__ (for the
lru_cached _pair_bracket, the code of the function it wraps), so every
module that imported the function by name runs the fault too, in the
original's module and names.  That reaches both places a pair bracket is
cached: _pair_bracket's memo, which the action, bracket_r and check 1's
sampled triples read, and the table of checks 1 and 3
(suite._int_bracket_table), which calls the wrapped closed form itself,
uncached, as liealg._closed_pair_bracket.

Each entry's check set is exact: test_planted_faults.py runs the battery
on it at a small scale (d = 2, max_degree 2, 200 sampled triples: 0.2 to
0.4 s a fault), or at the default scale for the faults in
AT_DEFAULT_SCALE, which the small battery misses.  A fault that the
battery misses has the empty set, and a comment names the test that
catches it.  Other tests plant an entry by name and make their own
assertions on it.
"""

import ast
import inspect
import textwrap

from jordan_voa import fock, griess, liealg, scalar, singular, suite, virops
from jordan_voa.scalar import Scalar

_WIDE = "max(abs(g.m), abs(g.n), abs(h.m), abs(h.n)) >= 5"  # a pair with a mode of |m| >= 5

_PRODUCT = "return act_L(i, j, 0, omega(k, l))"


def _griess_shift(where: str, shift: str):
    """griess_product, with shift/3 added to the product of w[i,j] and w[k,l] where `where` holds."""
    return griess.griess_product, [
        (_PRODUCT, f"{_PRODUCT} + ({shift}.scale(Fraction(1, 3)) if {where} else State())")]


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
    "binomial-determinant-reads-zero": (
        virops.binomial_matrix_det, [("return _int_det(_binomial_rows(L, M))", "return 0")],
        {"mode-transfer-determinants"}),
    "central-charge-reads-zero": (
        # the expected side of check 10's identity
        virops._central, [("return d * (m**3 - m) // 3 if m + n == 0 else 0", "return 0")],
        {"virasoro-central-charge"}),
    "probe-drops-the-vacuums-central-term": (
        # at (2, -2) and (-2, 2) on the vacuum alone, the only degree-0 monomial; check 10
        # probes only m < n, and tests/test_virops.py checks the oddness that certifies the mirror
        virops._probe_ids,
        [("acc = _mode_sum_ids(",
          "if (m, n) in ((2, -2), (-2, 2)) and [_DEGREES[mid] for mid in vec] == [0]:\n"
          "        return {}\n"
          "    acc = _mode_sum_ids(")],
        {"virasoro-central-charge"}),
    "normal-order-negates-its-constant": (
        liealg._normal_order, [("), _contraction(x, y)", "), -_contraction(x, y)")],
        {"diagonal-pair-bracket-closed-form", "diagonal-raising-eigenvalue",
         "determinant-power-singular", "determinant-commutation", "virasoro-central-charge"}),
    "pair-bracket-negates-its-constant": (
        liealg._pair_bracket.__wrapped__, [("const += scalar", "const -= scalar")],
        {"diagonal-pair-bracket-closed-form", "diagonal-raising-eigenvalue",
         "determinant-power-singular", "determinant-commutation", "virasoro-central-charge"}),
    "pair-bracket-adds-one-to-its-constant": (
        liealg._pair_bracket.__wrapped__, [("return (terms, const)", "return (terms, const + 1)")],
        {"bracket-antisymmetry-jacobi", "diagonal-pair-bracket-closed-form",
         "action-respects-bracket", "lowering-recursions", "vertex-mode-binomial-formula",
         "diagonal-raising-eigenvalue", "determinant-power-singular", "determinant-commutation",
         "virasoro-central-charge", "griess-jordan-isomorphism"}),
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
    "pair-bracket-doubles-its-terms-from-mode-4": (
        liealg._pair_bracket.__wrapped__,
        [("tuple((gen, coeff) for",
          "tuple((gen, 2 * coeff if max(abs(g.m), abs(g.n), abs(h.m), abs(h.n)) >= 4 else coeff)"
          " for")],
        {"bracket-antisymmetry-jacobi", "diagonal-pair-bracket-closed-form",
         "action-respects-bracket", "lowering-recursions", "vertex-mode-binomial-formula",
         "virasoro-central-charge"}),
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
    "partner-modes-read-only-the-first-slot": (
        liealg._partner_modes,
        [("return [(k, -x) for k, x in ((g.i, g.m), (g.j, g.n)) if x]",
          "return [(g.i, -g.m)] if g.m else []")],
        {"bracket-antisymmetry-jacobi", "action-respects-bracket"}),
    "census-counts-only-the-first-slot": (
        fock._census, [("_slot(head.i, head.m), _slot(head.j, head.n)", "_slot(head.i, head.m),")],
        {"action-respects-bracket", "lowering-recursions", "vertex-mode-binomial-formula",
         "diagonal-raising-eigenvalue", "determinant-power-singular", "singular-kernel-sweep",
         "determinant-commutation", "virasoro-central-charge", "griess-jordan-isomorphism"}),
    "census-counts-a-factors-slots-as-a-set": (
        # one copy of v_i(-x) for v[i,i](-x,-x), so it kills v[i,i](x,x), which needs two
        fock._census, [("(_slot(head.i, head.m), _slot(head.j, head.n))",
                        "{_slot(head.i, head.m), _slot(head.j, head.n)}")],
        {"action-respects-bracket", "diagonal-raising-eigenvalue", "determinant-power-singular",
         "singular-kernel-sweep", "determinant-commutation", "virasoro-central-charge"}),
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
    "state-of-leaves-its-coefficients-bare": (
        # equal values, other types: check 4 raises on a bare int, where it reads a len
        fock._state_of, [("Scalar.of(c) for", "c for")], {"lowering-recursions"}),
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
    "search-generators-drop-v11-m1-2": (
        singular._search_generators, [("k == 1 and l < -1]", "k == 1 and l < -2]")],
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
    "singularity-is-never-certified": (
        singular.is_singular, [("if not image.is_zero():", "if True:")],
        {"determinant-power-singular", "singular-kernel-sweep"}),
    "eigenvalue-identity-expects-a-shifted-r": (
        # the expected side of check 9b's eigenvalue identity
        singular.verify_det_lemmas, [("2 * alpha - p + 1", "2 * alpha - p + 2")],
        {"determinant-commutation"}),
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
    "bracket-table-raises": (
        suite._int_bracket_table, [("index = {", "raise RuntimeError('broken table')\n    index = {")],
        {"bracket-antisymmetry-jacobi", "action-respects-bracket"}),
    "griess-product-is-zero": (
        griess.griess_product, [(_PRODUCT, "return State()")], {"griess-jordan-isomorphism"}),
    "griess-product-rescaled": (
        # still isomorphic to Sym_d, at scales (4, 2): check 11 pins the engine's (2, 1)
        griess.griess_product, [(_PRODUCT, f"{_PRODUCT}.scale(Fraction(2))")],
        {"griess-jordan-isomorphism"}),
    # one ordered product wrong: a non-commutative table
    "griess-product-shifted-in-one-order": (
        *_griess_shift("((i, j), (k, l)) == ((1, 1), (1, 2))", "omega(2, 2)"),
        {"griess-jordan-isomorphism"}),
    # both orders wrong alike: a commutative table that is not Sym_d
    "griess-product-shifted-in-both-orders": (
        *_griess_shift("{(i, j), (k, l)} == {(1, 1), (1, 2)}", "omega(2, 2)"),
        {"griess-jordan-isomorphism"}),
    "griess-product-shifted-at-d-8": (
        # check 11 stops at d = 3; tests/test_griess.py's test_jordan_verify_up_to_d_8 catches it
        *_griess_shift("(i, j, k, l) == (7, 8, 8, 8)", "omega(1, 5)"), set()),
}

AT_DEFAULT_SCALE = {  # faults the small battery misses
    "minor-digits-read-unsigned", "scalar-negation-returns-its-input",
    "search-generators-drop-v11-m1-2",
    "pair-bracket-negates-its-constant-for-a-mixed-pair-at-a-wide-mode"}


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
