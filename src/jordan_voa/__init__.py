"""Exact computation engine for the oscillator module behind the
symmetric-matrix Jordan vertex algebra.

The package provides exact arithmetic in Q[r], the quadratic oscillator Lie
algebra with its deformed bracket, the induced vacuum module with degree and
weight gradings, mode-sum and vertex-mode operators, singular-vector search
and certification, and the degree-2 Jordan-algebra verification, together
with a command-line front end and a one-shot regression battery.

Importing the package runs none of its modules, so a command compiles only
the modules it runs.  Each engine module is in sys.modules and is the
package's attribute (jordan_voa.suite) from the start, as a lazy module
whose code runs on its first attribute access; each exported name loads its
module on first access (PEP 562).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# module -> the names the package root exports from it
_EXPORTS = {
    "scalar": ("Scalar", "ZERO", "ONE", "R", "parse_scalar", "SuiteConfig"),
    "liealg": ("Generator", "LieElement", "canonicalize", "bracket_r"),
    "fock": ("MIXED", "State", "Weight", "act", "act_word", "degree_of", "weight_space_basis"),
    "virops": ("act_L", "vertex_mode", "vertex_mode_by_recursion", "binomial_matrix_det",
               "virasoro_bracket_probe"),
    "singular": ("KernelReport", "certification_r", "det_state", "det_power_state",
                 "is_singular", "kernel_basis", "kernel_basis_poly", "singular_search",
                 "singular_sweep", "verify_det_lemmas"),
    "griess": ("build_griess_table", "griess_product", "jordan_verify", "omega"),
    "suite": ("run_paper_suite",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def _lazy_module(name: str):
    """The package's module name, put in sys.modules unrun unless it is there already.

    Resolved against __package__, so it holds when this file is imported as
    jordan_voa.__init__ too.
    """
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = find_spec(fullname)
        spec.loader = LazyLoader(spec.loader)
        sys.modules[fullname] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    return sys.modules[fullname]


globals().update({name: _lazy_module(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_OWNER[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
