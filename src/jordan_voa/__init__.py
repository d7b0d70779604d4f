"""Exact computation engine for the oscillator module behind the
symmetric-matrix Jordan vertex algebra.

The package provides exact arithmetic in Q[r], the quadratic oscillator Lie
algebra with its deformed bracket, the induced vacuum module with degree and
weight gradings, mode-sum and vertex-mode operators, singular-vector search
and certification, and the degree-2 Jordan-algebra verification, together
with a command-line front end and a one-shot regression battery.
"""

from .scalar import Scalar, ZERO, ONE, R, parse_scalar
from .liealg import Generator, LieElement, canonicalize, bracket_r
from .fock import (
    MIXED,
    State,
    Weight,
    act,
    act_word,
    degree_of,
    weight_space_basis,
)
from .virops import (
    act_L,
    vertex_mode,
    vertex_mode_by_recursion,
    binomial_matrix_det,
    virasoro_bracket_probe,
)
from .singular import (
    KernelReport,
    certification_r,
    det_state,
    det_power_state,
    is_singular,
    kernel_basis,
    kernel_basis_poly,
    singular_search,
    singular_sweep,
    verify_det_lemmas,
)
from .griess import build_griess_table, griess_product, jordan_verify, omega
from .suite import SuiteConfig, run_paper_suite

__version__ = "0.1.0"
