"""Coefficient-ring arithmetic: field operations, derivations, and the
massless quotient."""

import random

import pytest
import sympy as sp
from sympy.polys.domains import QQ_I
from sympy.polys.domains.gaussiandomains import GaussianRational

import reference
from spinsplit import algebra, identities, scalars
from spinsplit.identities import CATALOG, MASSLESS_CATALOG
from spinsplit.lang import _fmt_component, format_expr
from spinsplit.poincare import eps
from spinsplit.scalars import CoefficientError, Ring


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
    # on all 27 triples, against two independent forms of the symbol:
    # (a - b)(b - c)(c - a) / 2 and sympy's LeviCivita
    for a in range(3):
        for b in range(3):
            for c in range(3):
                sign = (a - b) * (b - c) * (c - a) // 2
                assert eps(a, b, c) == sign == sp.LeviCivita(a, b, c)
                assert type(eps(a, b, c)) is int


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
    for (eh, er), v in reference.sympy_parts(s).items():
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
    """Each component prints as the text of its ``cancel`` normal form."""
    ring = Ring(massless=massless)
    for s, _ in _random_pairs(ring, 6, 10):
        for c in (s * s)._c.values():
            assert _fmt_component(ring, c) == reference.component_text(c)


def test_sum_and_product_components_match_cancel(ring):
    """Componentwise references: a sum adds components; a product folds
    H^2 -> |P|^2 + m^2 and |P|^2 -> P.P, as the sympy-cancel ring did."""
    psq, hsq = _PSQ, _PSQ + M**2
    pairs = _random_pairs(ring, 7, 10)
    parts = reference.sympy_parts
    for (a, _), (b, _) in zip(pairs, pairs[3:]):
        total = a + b
        for key in {(0, 0), (1, 0), (0, 1), (1, 1)}:
            want = parts(a).get(key, 0) + parts(b).get(key, 0)
            assert sp.cancel(parts(total).get(key, 0) - want) == 0
        want = {}
        for (h1, r1), c1 in parts(a).items():
            for (h2, r2), c2 in parts(b).items():
                h, r = h1 + h2, r1 + r2
                c = c1 * c2 * hsq ** (h // 2) * psq ** (r // 2)
                key = (h % 2, r % 2)
                want[key] = want.get(key, 0) + c
        prod = a * b
        for key in {(0, 0), (1, 0), (0, 1), (1, 1)}:
            assert sp.cancel(parts(prod).get(key, 0)
                             - want.get(key, 0)) == 0


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


def test_conjugate_keeps_one_representation(ring):
    """A factor whose leading coefficient conjugates out of the first
    quadrant is renormalized, so the conjugate of an inverse is the
    inverse of the conjugate in components and memo key."""
    i, p1, p2 = ring.i(), ring.P(0), ring.P(1)
    for z in ((1 + i) * p1 + p2, 2 * i * p1 + (3 - i) * ring.H() * p2,
              (1 + i) * ring.m() + p2 * p1):
        got, want = z.inverse().conjugate(), z.conjugate().inverse()
        assert got == want
        assert got._c == want._c
        assert got._memo_key() == want._memo_key()
        assert got.conjugate()._memo_key() == z.inverse()._memo_key()


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


def test_catalog_arithmetic_and_printing_call_no_cancel(monkeypatch):
    calls = []
    real = sp.cancel

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sp, "cancel", counting)
    # cold memos: a memo hit may return a Scalar whose view another test
    # already built
    for name in ("_cancel_memo", "_product_memo", "_inverse_memo",
                 "_derivation_memo"):
        monkeypatch.setattr(scalars, name, {})
    ring = Ring()
    pairs = CATALOG["rotation-connection-self-adjoint"](ring)
    assert pairs and all((lhs - rhs).is_zero() for lhs, rhs in pairs)
    assert calls == []
    # the printer computes the cancel normal form by ring arithmetic
    texts = [format_expr(side) for pair in pairs for side in pair]
    assert calls == [] and all(texts)
    # the counter sees cancel where it is called
    coeff = next(iter(pairs[0][0].terms.values()))
    reference.sympy_component(next(iter(coeff._c.values())))
    assert calls


def test_catalog_arithmetic_builds_no_gaussian_rationals(monkeypatch):
    """The engine computes over Gaussian integers: building and checking
    both catalogs from cold memos makes no Q(i) element."""
    made = []
    real = GaussianRational.new.__func__

    def counting(cls, x, y):
        made.append((x, y))
        return real(cls, x, y)

    for name in ("_cancel_memo", "_product_memo", "_inverse_memo",
                 "_derivation_memo"):
        monkeypatch.setattr(scalars, name, {})
    monkeypatch.setattr(algebra, "_insert_memo", {})
    # the catalog's connection builders cache their result per ring
    for value in vars(identities).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    monkeypatch.setattr(GaussianRational, "new", classmethod(counting))
    checked = 0
    for massless, catalog in ((False, CATALOG), (True, MASSLESS_CATALOG)):
        ring = Ring(massless=massless)
        for name in sorted(catalog):
            for lhs, rhs in catalog[name](ring):
                assert (lhs - rhs).is_zero(), name
                checked += 1
    assert checked == 210
    assert made == []
    # the counter sees Q(i) elements where they are made
    assert QQ_I(1, 2) and made


def test_number_text_is_parsed_once(monkeypatch):
    """A number given as text or as a number is converted once per ring."""
    ring = Ring()
    first = [ring.from_expr(x) for x in ("I", "1/2", 3, sp.I)]
    calls = []
    real = sp.sympify

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sp, "sympify", counting)
    again = [ring.from_expr(x) for x in ("I", "1/2", 3, sp.I)]
    assert all(a is b for a, b in zip(first, again))
    assert calls == []
    assert ring.from_expr("I") == ring.i()
    assert ring.from_expr("1/2") * 2 == ring.one()


def test_a_ring_builds_its_integers_and_i_without_sympify(monkeypatch):
    calls = []
    real = sp.sympify

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sp, "sympify", counting)
    ring = Ring()
    zero, one, i, minus_one = (ring.zero(), ring.one(), ring.i(),
                               ring.from_expr(-1))
    assert calls == []
    assert zero.is_zero() and one.is_one() and i * i == minus_one
    assert ring.from_expr(3) == one + one + one and calls == []
    # the counter sees sympify where it is called
    assert ring.from_expr("1/2") * 2 == one and calls


@pytest.mark.parametrize("source", ["0", sp.S.Zero, P1 - P1, "P1 - P1"])
def test_zero_from_sympy_is_the_rings_zero(source):
    # sympy lists the zero polynomial as one zero term; on a fresh ring
    # that term must not become a zero that does not test as zero and is
    # then kept as the ring's number 0
    ring = Ring()
    assert ring.from_expr(source).is_zero()
    assert ring.zero().is_zero() and ring.zero() == Ring().zero()
    p = ring.P(0)
    assert p + sp.S.Zero == p and p + ring.from_expr(source) == p
    assert (p + sp.S.Zero)._memo_key() == p._memo_key()
    assert (Ring().P(0) - sp.S.Zero)._c == p._c


def test_non_rational_coefficient_names_q_i(ring):
    for expr in (sp.sqrt(2), sp.sqrt(P1) + 1, sp.exp(M), sp.Float(0.5) * P1):
        with pytest.raises(ValueError, match=r"rational function of "
                           r"P1, P2, P3, m over Q\(i\)$"):
            ring.from_expr(expr)
    # rational and Gaussian-rational coefficients are accepted
    x = ring.from_expr(P1 / 2 + sp.I / 3)
    assert x * 6 == ring.from_expr(3 * P1 + 2 * sp.I)


def _key_atoms(ring):
    """Sixteen atoms: P_a, H, |P|, i, 2, 1/3, m, five inverses, P1 + i
    and H + P2."""
    p1, p2, p3 = (ring.P(a) for a in range(3))
    h, r, i = ring.H(), ring.R(), ring.i()
    return [p1, p2, p3, h, r, i, ring.from_expr(2),
            ring.from_expr(sp.Rational(1, 3)), ring.m(), p1.inverse(),
            h.inverse(), r.inverse(), (p1 + i * p2).inverse(),
            (h + p3).inverse(), p1 + i, h + p2]


@pytest.mark.parametrize("massless", [False, True])
def test_equal_values_have_equal_memo_keys(monkeypatch, massless):
    """Each value has one representation: equal results of different
    computations have equal components and equal memo keys, so a memo
    finds a value however it was computed."""
    for name in ("_product_memo", "_inverse_memo", "_derivation_memo"):
        monkeypatch.setattr(scalars, name, {})
    ring = Ring(massless=massless)
    atoms = _key_atoms(ring)
    rng = random.Random(20)
    for _ in range(400):
        a, b, c = (rng.choice(atoms) for _ in range(3))
        pairs = [((a * b) * c, a * (b * c)), ((a + b) * c, a * c + b * c),
                 (a + b - b, a)]
        if not b.is_zero():
            pairs.append(((a * b) / b, a))
        for x, y in pairs:
            assert x == y
            assert x._c == y._c
            assert x._memo_key() == y._memo_key(), (x, y)
