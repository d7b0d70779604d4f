"""Property tests for the linear-combination core and the module action."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from jordan_voa.fock import (  # noqa: E402
    State,
    act,
    monomial_degree,
    monomial_weight,
    weight_space_basis,
    weights,
)
from jordan_voa.liealg import LieElement, canonical_generators  # noqa: E402
from jordan_voa.scalar import Scalar, parse_scalar  # noqa: E402

# derandomized and without an example database, so every run checks the same cases
PROFILE = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
scalars = st.lists(rationals, max_size=4).map(Scalar)
generators = st.sampled_from(canonical_generators(3, 2))
elements = st.builds(
    LieElement, st.dictionaries(generators, scalars, max_size=3), scalars
)


def basis_monomials(max_degree, d):
    """The vacuum and every basis monomial of degree <= max_degree over d oscillators."""
    return [()] + [m for lam in weights(max_degree, d) for m in weight_space_basis(lam, d=d)]


states = st.dictionaries(
    st.sampled_from(basis_monomials(4, 2)), scalars, max_size=3
).map(State)
points = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@PROFILE
@given(elements, elements, states)
def test_act_is_additive_in_the_operator(x, y, u):
    assert act(x + y, u) == act(x, u) + act(y, u)


@PROFILE
@given(elements, scalars, states)
def test_act_is_homogeneous_in_the_operator(x, c, u):
    assert act(x.scale(c), u) == act(x, u).scale(c)


@PROFILE
@given(generators, states)
def test_generator_acts_as_its_one_term_element(g, u):
    assert act(g, u) == act(LieElement.from_generator(g), u)


@PROFILE
@given(states, states, points)
def test_state_specialize_commutes_with_addition(a, b, r0):
    assert (a + b).specialize(r0) == a.specialize(r0) + b.specialize(r0)


@PROFILE
@given(elements, elements, points)
def test_element_specialize_commutes_with_addition(a, b, r0):
    assert (a + b).specialize(r0) == a.specialize(r0) + b.specialize(r0)


@PROFILE
@given(scalars)
def test_parse_scalar_inverts_str(p):
    assert parse_scalar(str(p)) == p


@PROFILE
@given(states)
def test_state_json_round_trip(u):
    text = json.dumps(u.to_json_obj())
    assert State.from_json_obj(json.loads(text)) == u


def _mode_shift(g):
    """Weight change of g: +1 per created mode v_k(l), -1 per annihilated v_k(-l)."""
    shift = {}
    for k, mode in ((g.i, g.m), (g.j, g.n)):
        if mode:
            key = (k, mode) if mode < 0 else (k, -mode)
            shift[key] = shift.get(key, 0) + (1 if mode < 0 else -1)
    return shift


@PROFILE
@given(st.sampled_from(canonical_generators(4, 3)), st.sampled_from(basis_monomials(5, 3)))
def test_act_shifts_degree_and_weight_by_the_generator(g, u):
    expected = monomial_weight(u).shifted(_mode_shift(g))
    for mono in act(g, State.from_monomial(u)).terms:
        assert monomial_degree(mono) == monomial_degree(u) + g.degree()
        assert expected is not None and monomial_weight(mono) == expected


@PROFILE
@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
