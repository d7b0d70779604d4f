"""Command-line front end.

Subcommands mirror the library: bracket computations, module actions, mode
operators, weight-space bases, singular-vector checks and sweeps, the
degree-2 algebra table, Virasoro probes, and the one-shot verification
battery.  Reports are deterministic for a fixed configuration and seed;
timings go to stderr so stdout stays byte-stable.

Each subcommand accepts only the flags it reads, and every setting is a
flag; nothing is read from the environment.  --d is a flag only where it
sets the size of the work (griess-table, virasoro-check, paper-suite);
every other command reads its oscillators off its input, and
singular-check certifies against the raising generators over the
oscillators of its state (singular._raising_family).

The battery (suite) and the degree-2 table (griess) are imported inside the
handlers that run them, so no other subcommand compiles them.

Exit codes: 0 success, 1 failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction

from .fock import State, Weight, act_word, monomial, monomial_degree, weight_space_basis
from .liealg import UNIT, bracket_r, canonicalize, parse_generator_literal
from .singular import (
    GENERIC,
    SingularVerificationError,
    certification_r,
    det_power_state,
    is_singular,
    sweep_rows,
)
from .scalar import MAX_D, MAX_DEGREE, MAX_SAMPLES, MIN_D, MIN_DEGREE, SuiteConfig
from .virops import act_L, vertex_mode

# The largest --max-degree of singular-sweep without --no-degree-guard: --rmin -3 --rmax 3
# --max-degree 20 takes 0.4 s and 20 MB as a process on a 2-vCPU x86-64 host (degree 22, with
# --no-degree-guard: 0.7 s and 22 MB), the median of 5 runs.
DEGREE_GUARD = 20
# singular-check takes det^nu of degree nu*p*(p+1) up to 56, as --p 7 --nu 1: 4.1 s and
# 112 MB on the same host.  --p 8 (degree 72), run in a child capped at 1 GB of address space,
# ran out of memory after 42 s.  verify-det --p 4 takes 0.9 s and 28 MB; --p 5, in process,
# 59 s and 588 MB.
DET_POWER_DEGREE_BOUND = 56
# the largest --p whose det alone, of degree p*(p+1), is within the bound
DET_POWER_MAX_P = max(p for p in range(1, DET_POWER_DEGREE_BOUND + 1)
                      if p * (p + 1) <= DET_POWER_DEGREE_BOUND)
# The largest --d each command takes, on the same host: virasoro-check --d 4 --max-degree 6
# takes 3.8 s and 86 MB (--d 5, its check run by run_check in a process of its own: 10.7 s,
# 232 MB); griess-table --d 8 takes 0.2 s, process start included (the table and its check
# at d = 12: 0.4 s in process).
VIRASORO_MAX_D = 4
GRIESS_MAX_D = 8
# The largest degree a --state may have: act-L on a degree-1000 state takes at most 0.3 s on
# the same host (on the degree-200000 v[1,1](-100000,-100000): 2.2 s and 116 MB).  It bounds
# each state act passes through, what act-L returns (act-L --m -200000 on the vacuum took 9 s
# and printed 2.5 MB) and weight-basis's weight too: at most 500 factors a monomial, each one
# recursion level where monomials are interned and weights paired up.
STATE_MAX_DEGREE = 1000
# The largest |--m|, |--n| and |--l| of vertex-mode: --m -300 --n -300 --l -300 takes 0.13 s on
# the vacuum and at most 0.6 s on a degree-1000 state, in process on the same host (the vacuum
# at --m -1000 --n -1000 --l -1000: 2.5 s; --m -3000 --n -3000 --l 0: 23.5 s).
VERTEX_MODE_MAX = 300
# The largest --rmax - --rmin of singular-sweep, a bound on what it prints.  Its memory does not
# grow with the span (a row per weight, with a report only where a kernel is nonzero):
# --rmin -20 --rmax 20 --max-degree 20 takes 0.55 s and 20 MB as a process on the same host, as
# much memory as --rmin -3 --rmax 3, and prints 111233 rows, 4.7 MB of CSV (--output json:
# 0.8 s, 20 MB, 11.9 MB printed).
SWEEP_MAX_R_SPAN = 40
# The longest --r value, a rational like 1/2 or a decimal like 1.5.  Exponent notation is
# refused: Fraction("1e30000000") alone builds a 30-million-digit power of ten (68 s).
R_MAX_LENGTH = 100
_R_RE = re.compile(r"[-+]?(\d+(/\d+)?|\d*\.\d+)")


def _parse_r(text: str):
    if text == GENERIC:
        return GENERIC
    squeezed = text.strip()
    if len(squeezed) <= R_MAX_LENGTH and _R_RE.fullmatch(squeezed):
        try:
            return Fraction(squeezed)
        except ZeroDivisionError:
            pass
    raise argparse.ArgumentTypeError(
        f"cannot parse parameter value {text!r}: expected a rational like 1/2 or a decimal "
        f"like 1.5, of at most {R_MAX_LENGTH} characters")


def _parse_weight(text: str) -> Weight:
    counts: dict = {}
    squeezed = text.replace(" ", "")
    if squeezed in ("", "0"):
        return Weight()
    for token in squeezed.split("+"):
        head, _, body = token.partition("Lam[")
        if not body or not body.endswith("]"):
            raise ValueError(f"cannot parse weight term {token!r}")
        try:
            mult = int(head.rstrip("*")) if head else 1
            k, l = (int(part) for part in body[:-1].split(","))
        except ValueError:
            raise ValueError(f"cannot parse weight term {token!r}") from None
        counts[(k, l)] = counts.get((k, l), 0) + mult
    return Weight(counts)


def _parse_state(text: str) -> State:
    squeezed = text.strip()
    if squeezed == "1":
        return State.vacuum()
    if squeezed.startswith("["):
        state = State.from_json_obj(json.loads(squeezed))
    else:
        factors = [parse_generator_literal(part) for part in squeezed.split("*")]
        elems = [canonicalize(*quad) for quad in factors]
        for elem in elems:
            if len(elem.terms) != 1:
                raise ValueError(f"state literal {text!r} must be a product of lowering generators")
        gens = [next(iter(e.terms)) for e in elems]
        state = State.from_monomial(monomial(gens))
    degree = max(map(monomial_degree, state.terms), default=0)
    if degree > STATE_MAX_DEGREE:
        raise ValueError(f"state degree {degree} is above {STATE_MAX_DEGREE}")
    return state


def _emit_state(state: State, output: str):
    if output == "json":
        print(json.dumps(state.to_json_obj()))
    else:
        print(str(state))


def _int_in(low: int, high: int | None = None):
    """An argparse type for integers in [low, high] (no upper end when high is None)."""
    expected = f">= {low}" if high is None else f"in {low}..{high}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"expected an integer {expected}, got {text!r}")
        return value

    return parse


def _flags(parser, *names, formats=("text", "json"), ranges=None):
    """Add the named shared flags and --output.

    ranges maps "d" or "max-degree" to an allowed (low, high) range.  A
    subcommand with other defaults overrides them with set_defaults.
    """
    ranges = {"d": (1, None), "max-degree": (0, None), **(ranges or {})}
    specs = {  # name -> (type, default, help)
        "d": (_int_in(*ranges["d"]), 2, "number of oscillators (default %(default)s)"),
        "r": (_parse_r, GENERIC,
              'parameter value: a rational like 1/2, or "generic" (default %(default)s)'),
        "max-degree": (_int_in(*ranges["max-degree"]), 4, "degree bound (default %(default)s)"),
        "seed": (int, 0, None),
        "state": (str, "1", 'state literal or JSON (default vacuum "1")'),
    }
    for name in names:
        kind, default, text = specs[name]
        parser.add_argument(f"--{name}", type=kind, default=default, help=text)
    parser.add_argument("--output", choices=formats, default=formats[0])


def _specialized(result, r):
    """A Lie element or state evaluated at r, or unchanged when r is generic."""
    return result if r == GENERIC else result.specialize(r)


def _cmd_bracket(args) -> int:
    left = canonicalize(*parse_generator_literal(args.left))
    right = canonicalize(*parse_generator_literal(args.right))
    result = _specialized(bracket_r(left, right), args.r)
    if args.output == "json":
        print(json.dumps({
            "terms": [{"generator": list(g), "coeff": str(c)}
                      for g, c in sorted(result.terms.items()) if g != UNIT],
            "const": str(result.coefficient(UNIT)),
        }))
    else:
        print(str(result))
    return 0


def _cmd_act(args) -> int:
    state = _parse_state(args.state)
    quads = [parse_generator_literal(text) for text in args.element]
    word = [canonicalize(*quad) for quad in quads]
    degree = max(map(monomial_degree, state.terms), default=0)
    for _, _, m, n in reversed(quads):  # the action is graded: each factor adds -(m + n)
        degree -= m + n
        if degree > STATE_MAX_DEGREE:
            raise ValueError(f"the word takes the state to degree {degree}, "
                             f"above {STATE_MAX_DEGREE}")
    _emit_state(_specialized(act_word(word, state), args.r), args.output)
    return 0


def _cmd_act_l(args) -> int:
    state = _parse_state(args.state)
    degree = max(map(monomial_degree, state.terms), default=0) - args.m
    if degree > STATE_MAX_DEGREE:  # L(m) takes degree D to D - m
        raise ValueError(f"--m {args.m} takes the state to degree {degree}, "
                         f"above {STATE_MAX_DEGREE}")
    result = act_L(args.i, args.j, args.m, state)
    _emit_state(_specialized(result, args.r), args.output)
    return 0


def _cmd_vertex_mode(args) -> int:
    state = _parse_state(args.state)
    result = vertex_mode(args.i, args.j, args.m, args.n, args.l, state)
    _emit_state(_specialized(result, args.r), args.output)
    return 0


def _cmd_weight_basis(args) -> int:
    lam = _parse_weight(args.weight)
    if lam.total_degree() > STATE_MAX_DEGREE:
        raise ValueError(f"weight degree {lam.total_degree()} is above {STATE_MAX_DEGREE}")
    basis = weight_space_basis(lam)
    if args.output == "json":
        print(json.dumps([[list(g) for g in mono] for mono in basis]))
    else:
        for mono in basis:
            print("*".join(str(g) for g in mono) if mono else "1")
        print(f"dimension: {len(basis)}")
    return 0


def _cmd_singular_check(args) -> int:
    if args.nu * args.p * (args.p + 1) > DET_POWER_DEGREE_BOUND:
        raise ValueError(f"det^{args.nu} of size {args.p} has degree nu*p*(p+1) "
                         f"beyond {DET_POWER_DEGREE_BOUND}")
    r0 = certification_r(args.p, args.nu) if args.r is None else args.r
    state = det_power_state(args.p, args.nu)
    ok, witness = is_singular(state, r0=r0, strict=args.strict_mixed)
    if args.output == "json":
        payload = {"p": args.p, "nu": args.nu, "r": str(r0), "singular": ok}
        if witness:
            payload["witness"] = {"generator": list(witness[0]),
                                  "image": witness[1].to_json_obj()}
        print(json.dumps(payload))
    else:
        print(f"SINGULAR: {'true' if ok else 'false'}")
        if witness:
            print(f"witness: {witness[0]} -> {witness[1]}")
    return 0 if ok else 1


def _cmd_singular_sweep(args) -> int:
    if args.max_degree > DEGREE_GUARD and not args.no_degree_guard:
        raise ValueError(f"--max-degree {args.max_degree} exceeds {DEGREE_GUARD}; "
                         "pass --no-degree-guard")
    if args.rmin > args.rmax:
        raise ValueError(f"empty parameter range: --rmin {args.rmin} exceeds --rmax {args.rmax}")
    if args.rmax - args.rmin > SWEEP_MAX_R_SPAN:
        raise ValueError(f"--rmax - --rmin is {args.rmax - args.rmin}, above {SWEEP_MAX_R_SPAN}")
    if args.max_degree < 1:
        raise ValueError(f"no weight to search: --max-degree {args.max_degree} is below 1")
    r_values = range(args.rmin, args.rmax + 1)
    rows = sweep_rows(r_values, args.max_degree)
    texts = [str(row.weight).replace(" ", "") for row in rows]
    # r outside, weights inside, as singular_sweep lists them; rep is None for a zero kernel
    cells = ((r0, text, row.basis_dim, row.kernels.get(pos))
             for pos, r0 in enumerate(r_values) for row, text in zip(rows, texts))
    if args.output == "json":  # json.dumps of the whole list, one item at a time
        sep = "["
        for r0, text, basis_dim, rep in cells:
            sys.stdout.write(sep + json.dumps({
                "r": str(r0),
                "weight": text,
                "basis_dim": basis_dim,
                "kernel_dim": rep.kernel_dim if rep else 0,
                "vectors": [v.to_json_obj() for v in rep.kernel_vectors] if rep else [],
            }))
            sep = ", "
        sys.stdout.write("]\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["r0", "weight", "basis_dim", "kernel_dim"])
        writer.writerows((r0, text, basis_dim, rep.kernel_dim if rep else 0)
                         for r0, text, basis_dim, rep in cells)
    return 0


def _cmd_verify_det(args) -> int:
    from .suite import determinant_commutation, run_check

    return _report([run_check(determinant_commutation, (args.p,))], args.output)


def _cmd_griess_table(args) -> int:
    from .griess import GriessVerificationError, build_griess_table, jordan_verify

    try:
        table = build_griess_table(args.d)
    except GriessVerificationError as exc:  # a product outside the rational w span: no table
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        verdict = jordan_verify(table)
        ok = True
    except GriessVerificationError as exc:
        verdict = {"error": str(exc)}
        ok = False
    if args.output == "json":
        payload = table.to_json_obj()
        payload["verdict"] = {k: str(v) for k, v in verdict.items()}
        print(json.dumps(payload))
    else:
        for (left, right), vec in sorted(table.products.items()):
            body = " + ".join(
                f"{c}*w{list(table.basis[pos])}" for pos, c in enumerate(vec) if c
            ) or "0"
            print(f"w{list(left)} . w{list(right)} = {body}")
        print(f"verdict: {verdict}")
    return 0 if ok else 1


def _cmd_virasoro_check(args) -> int:
    from .suite import run_check, virasoro_central_charge

    return _report([run_check(virasoro_central_charge, (args.d,), args.max_degree)], args.output)


def _cmd_paper_suite(args) -> int:
    from .suite import run_paper_suite

    config = SuiteConfig(d=args.d, max_degree=args.max_degree,
                         seed=args.seed, samples=args.samples)
    try:
        results = run_paper_suite(config)
    except ChildProcessError as exc:  # a worker died before its checks could report
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _report(results, args.output)


def _report(results, output: str) -> int:
    """Print CheckResults, their times and peak memory to stderr; exit 0 iff every check passed."""
    if output == "json":
        print(json.dumps([
            {"name": res.name, "passed": res.passed, "checked": res.checked,
             "details": res.details, "failures": res.failures}
            for res in results
        ]))
    else:
        for res in results:
            print(res.summary_line())
        passed = sum(1 for r in results if r.passed)
        print(f"{passed}/{len(results)} checks passed")
    for res in results:
        print(f"[{res.seconds:7.2f}s {res.peak_mb:6.1f} MB] {res.name}", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordan-voa",
        description="Exact computations in the oscillator module behind the "
                    "symmetric-matrix Jordan vertex algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="deformed bracket of two generators")
    p.add_argument("left")
    p.add_argument("right")
    _flags(p, "r")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("act", help="act by a word of generators on a state")
    p.add_argument("element", nargs="+", help='generator literals "v[i,j](m,n)"')
    _flags(p, "state", "r")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("act-L", help="apply a mode-sum operator L[i,j](m)")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _flags(p, "state", "r")
    p.set_defaults(func=_cmd_act_l)

    p = sub.add_parser("vertex-mode", help="apply a closed-form vertex mode")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    mode = _int_in(-VERTEX_MODE_MAX, VERTEX_MODE_MAX)
    p.add_argument("--m", type=mode, required=True)
    p.add_argument("--n", type=mode, required=True)
    p.add_argument("--l", type=mode, required=True)
    _flags(p, "state", "r")
    p.set_defaults(func=_cmd_vertex_mode)

    p = sub.add_parser("weight-basis", help="enumerate a weight-space basis")
    p.add_argument("--weight", required=True, help='e.g. "2*Lam[1,-1] + 2*Lam[1,-2]"')
    _flags(p)
    p.set_defaults(func=_cmd_weight_basis)

    p = sub.add_parser("singular-check", help="certify a determinant power")
    p.add_argument("--p", type=_int_in(1, DET_POWER_MAX_P), required=True, help="determinant size")
    p.add_argument("--nu", type=_int_in(1, DET_POWER_DEGREE_BOUND // 2), required=True,
                   help=f"power, with nu*p*(p+1) at most {DET_POWER_DEGREE_BOUND}")
    p.add_argument("--strict-mixed", action="store_true",
                   help="include reversed-order mixed generators (fails for p >= 2)")
    p.add_argument("--r", type=_parse_r, default=None,
                   help="parameter value (default: the certification value 1-2*nu+p)")
    _flags(p)
    p.set_defaults(func=_cmd_singular_check)

    p = sub.add_parser("singular-sweep", help="kernel search over all weights")
    p.add_argument("--rmin", type=int, required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--no-degree-guard", action="store_true",
                   help=f"allow --max-degree beyond {DEGREE_GUARD}")
    _flags(p, "max-degree", formats=("csv", "json"))
    p.set_defaults(func=_cmd_singular_sweep)

    p = sub.add_parser("verify-det", help="determinant commutation identities")
    p.add_argument("--p", type=_int_in(1, 4), required=True, help="determinant size")
    _flags(p)
    p.set_defaults(func=_cmd_verify_det)

    p = sub.add_parser("griess-table", help="degree-2 structure constants")
    _flags(p, "d", ranges={"d": (1, GRIESS_MAX_D)})
    p.set_defaults(func=_cmd_griess_table)

    p = sub.add_parser("virasoro-check",
                       help="Virasoro relation on the basis states of bounded degree")
    _flags(p, "d", "max-degree",
           ranges={"d": (1, VIRASORO_MAX_D), "max-degree": (0, MAX_DEGREE)})
    p.set_defaults(func=_cmd_virasoro_check)

    p = sub.add_parser("paper-suite", help="run the full verification battery")
    suite = SuiteConfig()
    p.add_argument("--samples", type=_int_in(0, MAX_SAMPLES), default=suite.samples,
                   help="sampled bracket triples (default %(default)s)")
    _flags(p, "d", "max-degree", "seed",
           ranges={"d": (MIN_D, MAX_D), "max-degree": (MIN_DEGREE, MAX_DEGREE)})
    p.set_defaults(func=_cmd_paper_suite,
                   d=suite.d, max_degree=suite.max_degree, seed=suite.seed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularVerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
