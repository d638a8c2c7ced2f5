"""Noncommutative operator algebra over the coefficient ring: normal
forms, commutators, adjoints, and vector-triple operations."""

import pytest

from spinsplit.algebra import (
    OperatorExpr,
    VectorExpr,
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
