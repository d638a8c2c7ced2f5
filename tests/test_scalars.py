"""Coefficient-ring arithmetic: field operations, derivations, and the
massless quotient."""

import random

import pytest
import sympy as sp

from spinsplit import scalars
from spinsplit.identities import CATALOG
from spinsplit.lang import format_expr
from spinsplit.scalars import CoefficientError, Ring, eps


@pytest.fixture(scope="module")
def ring():
    return Ring()


@pytest.fixture(scope="module")
def mring():
    return Ring(massless=True)


def test_eps_values():
    assert eps(0, 1, 2) == 1
    assert eps(1, 0, 2) == -1
    assert eps(2, 0, 1) == 1
    assert eps(0, 0, 2) == 0


def test_field_axioms(ring):
    a = ring.H() * ring.P(0) + ring.m() ** 2
    b = ring.i() * ring.R()
    assert a + b - b == a
    assert a * ring.one() == a
    assert a * ring.zero() == ring.zero()
    assert (a * b) / b == a
    assert a - a == ring.zero()
    assert (-a) + a == ring.zero()


def test_inverse_roundtrip(ring):
    a = ring.H() + ring.R()
    assert a * a.inverse() == ring.one()
    assert (ring.one() / a) * a == ring.one()


def test_zero_inverse_raises(ring):
    with pytest.raises(CoefficientError):
        ring.zero().inverse()


def test_pow_negative_and_fractional_h(ring):
    # H^2 = P.P + m^2 holds as ring elements
    lhs = ring.H() ** 2
    rhs = sum((ring.P(a) ** 2 for a in range(3)), ring.m() ** 2)
    assert lhs == rhs
    assert ring.H() ** (-2) == (ring.H() ** 2).inverse()


def test_conjugate(ring):
    a = ring.i() * ring.P(1)
    assert a.conjugate() == -a
    assert ring.H().conjugate() == ring.H()
    assert (a * a).conjugate() == a * a


def test_phat_normalization(ring):
    s = sum((ring.Phat(a) ** 2 for a in range(3)), ring.zero())
    assert s == ring.one()


def test_boost_derivative_of_energy(ring):
    # the boost derivation sends H to i P_a (commutator convention)
    for a in range(3):
        assert ring.H().boost_derivative(a) == ring.i() * ring.P(a)
    # and P_b to i delta_ab H
    assert ring.P(0).boost_derivative(0) == ring.i() * ring.H()
    assert ring.P(1).boost_derivative(0) == ring.zero()


def test_rotation_derivative_of_momentum(ring):
    # the rotation derivation sends P_b to i eps_abc P_c
    got = ring.P(1).rotation_derivative(0)
    assert got == ring.i() * ring.P(2)
    assert ring.H().rotation_derivative(2) == ring.zero()
    assert ring.R().rotation_derivative(0) == ring.zero()


def test_derivations_are_leibniz(ring):
    a = ring.H() * ring.P(2)
    b = ring.R().inverse()
    prod = a * b
    for axis in range(3):
        lhs = prod.boost_derivative(axis)
        rhs = (a.boost_derivative(axis) * b
               + a * b.boost_derivative(axis))
        assert lhs == rhs


def test_massless_quotient_folds_energy(mring):
    # at m = 0 the energy coincides with |P|
    assert mring.H() == mring.R()
    assert mring.m() == mring.zero()
    s = sum((mring.P(a) ** 2 for a in range(3)), mring.zero())
    assert mring.H() ** 2 == s


def test_ring_mismatch_rejected(ring, mring):
    with pytest.raises((ValueError, TypeError)):
        ring.H() + mring.H()


def test_ring_has_no_frozen_point_mode():
    with pytest.raises(TypeError):
        Ring(point=1)


def test_repr_does_not_crash(ring):
    assert repr(ring.H() * ring.Phat(0))
    assert repr(ring)


# -- oracle tests for the fraction representation ------------------------
#
# Each random element is built twice: as a Scalar, and as a plain sympy
# expression in which H and |P| are explicit square roots.  At momentum
# points where |P| and H are rational (Pythagorean quadruples) both sides
# evaluate exactly, so every sum, product, inverse and derivation is
# checked against sympy's own arithmetic.

P1, P2, P3 = sp.symbols("P1 P2 P3", real=True)
M = sp.Symbol("m", positive=True)
_PSQ = P1**2 + P2**2 + P3**2

# (P1, P2, P3, m) with integer |P| and H
_MASSIVE_POINTS = [(1, 2, 2, 4), (2, -3, 6, 24), (-2, 1, 2, 4),
                   (6, 2, -9, 60)]
_MASSLESS_POINTS = [(1, 2, 2, 0), (2, -3, 6, 0), (-8, 1, 4, 0)]


def _sym_h(massless):
    return sp.sqrt(_PSQ) if massless else sp.sqrt(_PSQ + M**2)


def _value(s, point):
    """Exact value of a Scalar at a point where H and |P| are rational, or
    None where a component has a pole (rationalizing 1/x multiplies by
    conjugates of x, which may vanish where x does not)."""
    subs = dict(zip((P1, P2, P3, M), point))
    h = sp.sqrt(sum(x**2 for x in point))
    r = sp.sqrt(sum(x**2 for x in point[:3]))
    total = 0
    for (eh, er), v in s.parts.items():
        num, den = sp.fraction(v)
        if den.subs(subs) == 0:
            return None
        total += num.subs(subs) / den.subs(subs) * h**eh * r**er
    return total


def _atoms(ring):
    """(Scalar, sympy expression) pairs: H, |P|, m, P_a, i, integers and
    the non-standard denominators 1/(P1 + i*P2) and 1/(H + P3)."""
    h = _sym_h(ring.massless)
    out = [(ring.H(), h), (ring.R(), sp.sqrt(_PSQ)), (ring.i(), sp.I),
           (ring.from_expr(3), sp.Integer(3)),
           (ring.from_expr(sp.Rational(-1, 2)), sp.Rational(-1, 2)),
           ((ring.P(0) + ring.i() * ring.P(1)).inverse(),
            1 / (P1 + sp.I * P2)),
           ((ring.H() + ring.P(2)).inverse(), 1 / (h + P3))]
    out += [(ring.P(a), (P1, P2, P3)[a]) for a in range(3)]
    if not ring.massless:
        out.append((ring.m(), M))
    return out


def _random_pairs(ring, seed, count):
    rng = random.Random(seed)
    atoms = _atoms(ring)
    pool = list(atoms)
    for _ in range(count):
        (a, ea), (b, eb) = rng.choice(pool), rng.choice(atoms)
        op = rng.randrange(4)
        if op == 0:
            pool.append((a + b, ea + eb))
        elif op == 1:
            pool.append((a * b, ea * eb))
        elif op == 2:
            pool.append((a - b * b, ea - eb * eb))
        else:
            pool.append(((a + b).inverse(), 1 / (ea + eb)))
    return pool


def _points(ring):
    return _MASSLESS_POINTS if ring.massless else _MASSIVE_POINTS


def _assert_agrees(ring, s, expr):
    checked = 0
    for point in _points(ring):
        got = _value(s, point)
        if got is not None:
            want = expr.subs(dict(zip((P1, P2, P3, M), point)))
            assert sp.expand_complex(got - want) == 0, (s, expr, point)
            checked += 1
    assert checked >= 2, (s, expr)


@pytest.mark.parametrize("massless", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_field_operations_match_sympy(massless, seed):
    ring = Ring(massless=massless)
    for s, expr in _random_pairs(ring, seed, 12):
        _assert_agrees(ring, s, expr)
        if not s.is_zero():
            _assert_agrees(ring, s.inverse(), 1 / expr)
            assert s * s.inverse() == ring.one()


@pytest.mark.parametrize("seed", [4, 5])
def test_random_derivations_match_sympy(seed):
    """[K_a, f] = i*H*df/dP_a and [J_a, f] = i*eps_abc P_c df/dP_b on f
    as a function of the momentum."""
    ring = Ring()
    h = _sym_h(False)
    syms = (P1, P2, P3)
    for s, expr in _random_pairs(ring, seed, 6)[-6:]:
        for a in range(3):
            _assert_agrees(ring, s.boost_derivative(a),
                           sp.I * h * sp.diff(expr, syms[a]))
            rot = sum(eps(a, b, c) * syms[c] * sp.diff(expr, syms[b])
                      for b in range(3) for c in range(3))
            _assert_agrees(ring, s.rotation_derivative(a), sp.I * rot)


@pytest.mark.parametrize("massless", [False, True])
def test_parts_are_cancel_normal_forms(massless):
    ring = Ring(massless=massless)
    for s, _ in _random_pairs(ring, 6, 10):
        for v in (s * s).parts.values():
            assert v == sp.cancel(v)


def test_sum_and_product_components_match_cancel(ring):
    """Componentwise references: a sum adds components; a product folds
    H^2 -> |P|^2 + m^2 and |P|^2 -> P.P, as the sympy-cancel ring did."""
    psq, hsq = _PSQ, _PSQ + M**2
    pairs = _random_pairs(ring, 7, 10)
    for (a, _), (b, _) in zip(pairs, pairs[3:]):
        total = a + b
        for key in {(0, 0), (1, 0), (0, 1), (1, 1)}:
            want = a.parts.get(key, 0) + b.parts.get(key, 0)
            assert sp.cancel(total.parts.get(key, 0) - want) == 0
        want = {}
        for (h1, r1), c1 in a.parts.items():
            for (h2, r2), c2 in b.parts.items():
                h, r = h1 + h2, r1 + r2
                c = c1 * c2 * hsq ** (h // 2) * psq ** (r // 2)
                key = (h % 2, r % 2)
                want[key] = want.get(key, 0) + c
        prod = a * b
        for key in {(0, 0), (1, 0), (0, 1), (1, 1)}:
            assert sp.cancel(prod.parts.get(key, 0) - want.get(key, 0)) == 0


def test_conjugate_of_complex_denominator(ring):
    z = ring.P(0) + ring.i() * ring.P(1)
    zbar = ring.P(0) - ring.i() * ring.P(1)
    w = (z * ring.H() + ring.m()).inverse()
    assert z.inverse().conjugate() == zbar.inverse()
    assert z.inverse().conjugate() * zbar == ring.one()
    assert w.conjugate() == (zbar * ring.H() + ring.m()).inverse()
    assert w.conjugate().conjugate() == w
    expr = 1 / ((P1 - sp.I * P2) * _sym_h(False) + M)
    _assert_agrees(ring, w.conjugate(), expr)


def test_massless_ring_denominators(mring):
    # 1/(|P| + P3) rationalizes to a norm -(P1^2 + P2^2) that is neither
    # a power of |P|^2 nor irreducible over Q(i)
    x = (mring.R() + mring.P(2)).inverse()
    z = mring.P(0) + mring.i() * mring.P(1)
    assert x * (mring.R() + mring.P(2)) == mring.one()
    assert x * z.inverse() * z == x
    assert x.boost_derivative(0) * (mring.R() + mring.P(2)) ** 2 \
        == -(mring.R() + mring.P(2)).boost_derivative(0)
    _assert_agrees(mring, x + z.inverse(),
                   1 / (sp.sqrt(_PSQ) + P3) + 1 / (P1 + sp.I * P2))


def test_catalog_arithmetic_calls_cancel_only_in_printer(monkeypatch):
    calls = []
    real = sp.cancel

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sp, "cancel", counting)
    monkeypatch.setattr(scalars, "_cancel_memo", {})
    ring = Ring()
    pairs = CATALOG["rotation-connection-self-adjoint"](ring)
    assert pairs and all((lhs - rhs).is_zero() for lhs, rhs in pairs)
    assert calls == []
    # the printer view is the one remaining caller
    text = format_expr(pairs[0][0])
    assert calls and text
