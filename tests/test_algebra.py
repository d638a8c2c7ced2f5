"""Noncommutative operator algebra over the coefficient ring: normal
forms, commutators, adjoints, and vector-triple operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsplit.algebra import (
    OperatorExpr,
    VectorExpr,
    _word_mul,
    commutator,
    gen_J,
    gen_K,
    op_H,
    op_m,
    op_P,
    op_Pmag,
    op_scalar,
    vec_J,
    vec_P,
    vec_Phat,
)
from spinsplit.scalars import Ring


@pytest.fixture(scope="module")
def ring():
    return Ring()


def test_bracket_rotations(ring):
    # [J_a, J_b] = i eps_abc J_c
    i = op_scalar(ring, "I")
    assert commutator(gen_J(ring, 0), gen_J(ring, 1)) == i * gen_J(ring, 2)
    assert commutator(gen_J(ring, 1), gen_J(ring, 0)) == -i * gen_J(ring, 2)
    assert commutator(gen_J(ring, 0), gen_J(ring, 0)).is_zero()


def test_bracket_boosts_close_on_rotations(ring):
    i = op_scalar(ring, "I")
    assert commutator(gen_K(ring, 0), gen_K(ring, 1)) == -i * gen_J(ring, 2)


def test_bracket_mixed(ring):
    i = op_scalar(ring, "I")
    assert commutator(gen_J(ring, 0), gen_K(ring, 1)) == i * gen_K(ring, 2)


def test_momentum_brackets(ring):
    i = op_scalar(ring, "I")
    assert commutator(gen_J(ring, 2), op_P(ring, 0)) == i * op_P(ring, 1)
    assert commutator(gen_K(ring, 0), op_P(ring, 0)) == i * op_H(ring)
    assert commutator(gen_K(ring, 0), op_P(ring, 1)).is_zero()
    assert commutator(gen_K(ring, 0), op_H(ring)) == i * op_P(ring, 0)
    assert commutator(gen_J(ring, 1), op_H(ring)).is_zero()


def test_bracket_with_inverse_energy(ring):
    # [K_a, H^-1] = -i P_a H^-2
    i = op_scalar(ring, "I")
    hinv = op_H(ring) ** (-1)
    lhs = commutator(gen_K(ring, 0), hinv)
    rhs = -i * op_P(ring, 0) * op_H(ring) ** (-2)
    assert lhs == rhs


def test_normal_form_orders_words(ring):
    # the same operator written in two orders agrees after normal form
    a = gen_K(ring, 0) * gen_J(ring, 1)
    b = gen_J(ring, 1) * gen_K(ring, 0) + commutator(
        gen_K(ring, 0), gen_J(ring, 1))
    assert a == b


def test_adjoint_is_involutive_and_antimultiplicative(ring):
    x = gen_K(ring, 0) * op_H(ring) + op_scalar(ring, "I") * gen_J(ring, 2)
    y = op_P(ring, 1) * gen_J(ring, 0)
    assert x.adjoint().adjoint() == x
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()


def test_generators_self_adjoint(ring):
    for a in range(3):
        assert gen_J(ring, a).adjoint() == gen_J(ring, a)
        assert gen_K(ring, a).adjoint() == gen_K(ring, a)
    assert op_H(ring).adjoint() == op_H(ring)
    assert (op_scalar(ring, "I") * op_H(ring)).adjoint() == \
        -op_scalar(ring, "I") * op_H(ring)


def test_vector_dot_cross(ring):
    p, j = vec_P(ring), vec_J(ring)
    # P . (P x J) = 0
    assert p.dot(p.cross(j)).is_zero()
    # component bookkeeping of the cross product
    c = p.cross(j)
    assert c[0] == op_P(ring, 1) * gen_J(ring, 2) - \
        op_P(ring, 2) * gen_J(ring, 1)


def test_phat_unit_and_double_cross(ring):
    phat, j = vec_Phat(ring), vec_J(ring)
    assert phat.dot(phat) == op_scalar(ring, 1)
    # Phat x (Phat x J) = Phat (Phat.J) - J
    lhs = phat.cross(phat.cross(j))
    rhs = phat * phat.dot(j) - j
    assert lhs == rhs


def test_pmag_squares_to_dot(ring):
    p = vec_P(ring)
    assert op_Pmag(ring) ** 2 == p.dot(p)


def test_scalar_valued_detection(ring):
    e = op_H(ring) ** 2 - vec_P(ring).dot(vec_P(ring)) - op_m(ring) ** 2
    assert e.is_zero()
    s = op_H(ring) * op_Pmag(ring)
    assert s.is_scalar_valued()
    assert not gen_J(ring, 0).is_scalar_valued()


def test_massless_ring_identifies_h_with_pmag():
    r = Ring(massless=True)
    assert (op_H(r) - op_Pmag(r)).is_zero()
    assert op_m(r).is_zero()


def test_division_by_operator_rejected(ring):
    with pytest.raises((ValueError, TypeError, ArithmeticError)):
        op_H(ring) / gen_J(ring, 0)


def test_vector_equality_and_arithmetic(ring):
    j = vec_J(ring)
    assert j - j == VectorExpr([OperatorExpr(ring) for _ in range(3)])
    assert (j + j) == 2 * j


def test_word_mul_reorders_a_second_word_that_is_not_ordered():
    # the first word is ordered, the second may be any word: adjoint
    # passes reversed words, so even an empty first word reorders
    assert _word_mul((), (3, 0)) == {(0, 3): (1, 0)}  # K1 J1 = J1 K1
    # K2 J1 = J1 K2 + [K2, J1] = J1 K2 - i K3
    assert _word_mul((), (4, 0)) == {(0, 4): (1, 0), (5,): (0, -1)}
    # J1 K3 K1 = J1 K1 K3 + J1 [K3, K1] = J1 K1 K3 - i J1 J2
    assert _word_mul((0,), (5, 3)) == {(0, 3, 5): (1, 0), (0, 1): (0, -1)}


# -- operator laws on random expressions ----------------------------------
#
# Laws that hold in any associative algebra with an involution, whatever
# the engine's conventions: each side is normal-ordered independently, so
# a wrong bracket, derivation or reordering shows as a nonzero difference.
# The draws are seeded and keep no example database, so every run checks
# the same expressions.

_RINGS = (Ring(), Ring(massless=True))
_LAWS = settings(derandomize=True, database=None, deadline=None,
                 max_examples=12)

# a coefficient: 1, i, H, m + P[a], P[a], Phat[a] or P[a]/(H + P[b]) with
# b != a, whose denominator factor is outside the basis m, |P|^2, H^2
_COEFFICIENT = st.tuples(st.integers(0, 6), st.integers(0, 2),
                         st.integers(1, 2))
# a word of one to three generators J[a] (0-2) or K[a] (3-5), in the
# order drawn, not normal order
_WORD = st.lists(st.integers(0, 5), min_size=1, max_size=3)
_EXPR = st.lists(st.tuples(_COEFFICIENT, _WORD), min_size=1, max_size=2)
# one term: a double commutator of sums multiplies out to too many terms
# for the time budget
_TERM = st.lists(st.tuples(_COEFFICIENT, _WORD), min_size=1, max_size=1)


def _coefficient(ring, kind, a, shift):
    if kind == 0:
        return op_scalar(ring, 1)
    if kind == 1:
        return op_scalar(ring, "I")
    if kind == 2:
        return op_H(ring)
    if kind == 3:
        return op_m(ring) + op_P(ring, a)
    if kind == 4:
        return op_P(ring, a)
    if kind == 5:
        return vec_Phat(ring)[a]
    return op_P(ring, a) / (op_H(ring) + op_P(ring, (a + shift) % 3))


def _build(ring, recipe):
    """The sum of coefficient * word over the recipe's terms."""
    out = OperatorExpr(ring)
    for (kind, a, shift), word in recipe:
        term = _coefficient(ring, kind, a, shift)
        for g in word:
            term = term * (gen_J(ring, g) if g < 3 else gen_K(ring, g - 3))
        out = out + term
    return out


def _jacobi(x, y, z):
    return (commutator(x, commutator(y, z)) + commutator(y, commutator(z, x))
            + commutator(z, commutator(x, y)))


def test_jacobi_on_two_boosts_and_a_momentum():
    # [K_a, [K_b, P_c]] + cyclic: the [K, K] bracket meets the momentum
    # derivations here, so a sign slip in either breaks the sum
    for ring in _RINGS:
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    x, y, z = gen_K(ring, a), gen_K(ring, b), op_P(ring, c)
                    assert _jacobi(x, y, z).is_zero(), (ring, a, b, c)


@_LAWS
@given(st.sampled_from(_RINGS), _EXPR, _EXPR, _EXPR)
def test_product_is_associative_and_distributive(ring, rx, ry, rz):
    x, y, z = (_build(ring, r) for r in (rx, ry, rz))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@_LAWS
@given(st.sampled_from(_RINGS), _TERM, _TERM, _TERM)
def test_commutator_satisfies_jacobi(ring, rx, ry, rz):
    x, y, z = (_build(ring, r) for r in (rx, ry, rz))
    assert _jacobi(x, y, z).is_zero()


@_LAWS
@given(st.sampled_from(_RINGS), _EXPR, _EXPR)
def test_commutator_is_the_difference_of_products(ring, rx, ry):
    x, y = _build(ring, rx), _build(ring, ry)
    assert commutator(x, y) == x * y - y * x
    assert commutator(y, x) == -commutator(x, y)


@_LAWS
@given(st.sampled_from(_RINGS), _EXPR, _EXPR)
def test_adjoint_is_an_involutive_antihomomorphism(ring, rx, ry):
    x, y = _build(ring, rx), _build(ring, ry)
    assert x.adjoint().adjoint() == x
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()
