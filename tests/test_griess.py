"""Degree-2 products and the symmetric-matrix Jordan verification."""

from fractions import Fraction

import pytest

from jordan_voa.fock import Weight, weight_space_basis
from jordan_voa.griess import (
    GriessVerificationError,
    build_griess_table,
    griess_product,
    jordan_verify,
    omega,
)


def test_disjoint_diagonal_product_vanishes():
    assert griess_product(1, 1, 2, 2, 2).is_zero()


def test_diagonal_square():
    # w11 . w11 = 2 w11 (unit scaling of the degree-2 algebra)
    assert griess_product(1, 1, 1, 1, 2) == omega(1, 1).scale(2)


def test_off_diagonal_square():
    # w12 . w12 = (1/2)(w11 + w22)
    expected = (omega(1, 1) + omega(2, 2)).scale(Fraction(1, 2))
    assert griess_product(1, 2, 1, 2, 2) == expected


def test_mixed_product_three_indices():
    # w12 . w23 = (1/2) w13
    assert griess_product(1, 2, 2, 3, 3) == omega(1, 3).scale(Fraction(1, 2))


def test_product_index_validation():
    with pytest.raises(ValueError, match=r"oscillator index 3 out of range 1\.\.2"):
        griess_product(1, 3, 1, 1, 2)
    with pytest.raises(ValueError, match=r"oscillator index 0 out of range 1\.\.2"):
        griess_product(1, 1, 0, 1, 2)


def test_table_symmetry_and_closure():
    for d in (2, 3):
        table = build_griess_table(d)
        assert len(table.basis) == d * (d + 1) // 2
        for left in table.basis:
            for right in table.basis:
                assert table.products[(left, right)] == table.products[(right, left)]
                # structure constants are exact rationals (no r dependence)
                assert all(isinstance(c, Fraction) for c in table.products[(left, right)])


def test_degree_two_dimension():
    for d in (2, 3):
        count = 0
        for i in range(1, d + 1):
            for j in range(i, d + 1):
                lam = Weight({(i, -1): 2}) if i == j else Weight({(i, -1): 1, (j, -1): 1})
                count += len(weight_space_basis(lam))
        assert count == d * (d + 1) // 2


def test_jordan_verify_small_sizes():
    for d in (2, 3):
        report = jordan_verify(build_griess_table(d))
        assert report["commutative"]
        assert report["jordan_identity"]
        assert report["isomorphic_to_symmetric_matrices"]
        assert report["dimension"] == d * (d + 1) // 2
        assert report["diagonal_scale"] == 2
        assert report["off_diagonal_scale"] == 1


def test_jordan_verify_one_dimensional():
    report = jordan_verify(build_griess_table(1))
    assert report["dimension"] == 1
    assert report["jordan_identity"]
    assert report["isomorphic_to_symmetric_matrices"]
    assert report["diagonal_scale"] == 2
    assert report["off_diagonal_scale"] is None


@pytest.mark.parametrize("fault", [
    "griess-product-shifted-in-one-order",  # a non-commutative table
    "griess-product-shifted-in-both-orders",  # commutative, not Sym_3
], ids=["one-order", "both-orders"])
def test_jordan_verify_rejects_a_perturbed_product(fault, plant):
    plant(fault)
    with pytest.raises(GriessVerificationError):
        jordan_verify(build_griess_table(3))


def test_jordan_verify_up_to_d_8(plant):
    """Check 11 at every griess-table --d beyond 3, and a planted fault at d = 8."""
    for d in range(4, 9):
        report = jordan_verify(build_griess_table(d))
        assert report["dimension"] == d * (d + 1) // 2
        assert (report["diagonal_scale"], report["off_diagonal_scale"]) == (2, 1)

    plant("griess-product-shifted-at-d-8")
    with pytest.raises(GriessVerificationError, match=r"the pair \(7, 8\), \(8, 8\)"):
        jordan_verify(build_griess_table(8))
