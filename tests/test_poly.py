"""The exact engine's polynomials against sympy's: every operation the
engine uses on seeded random polynomials in P1, P2, P3, m over Z[i],
compared with sympy's sparse polynomials over ZZ_I in the same
generators and lex order, including the exact divisions that must
return None."""

import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ_I

import reference
from reference import from_sympy, to_sympy
from spinsplit.poly import (
    ONE,
    Poly,
    canonical_unit,
    gaussian_gcd,
    gaussian_mul,
    gcd_mod,
)
from spinsplit.scalars import _SCREEN_POINT, _SCREEN_PRIME, _SCREEN_ROOT

# seeded draws, no example database: every run checks the same examples
_SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                     deadline=None)

_GAUSSIAN = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
_UNIT_FREE = _GAUSSIAN.filter(lambda c: c != (0, 0))
_POLY = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4), _UNIT_FREE,
                        max_size=6).map(Poly)
_NONZERO = _POLY.filter(bool)


def _gi(c):
    return ZZ_I(*c)


def _pair(g):
    return int(g.x), int(g.y)


@_SETTINGS
@given(_POLY, _POLY, _GAUSSIAN, st.integers(0, 4))
def test_ring_operations_match_sympy(a, b, k, n):
    sa, sb = to_sympy(a), to_sympy(b)
    assert from_sympy(sa + sb) == a + b
    assert from_sympy(sa - sb) == a - b
    assert from_sympy(-sa) == -a
    assert from_sympy(sa * sb) == a * b
    if a or n:  # sympy refuses 0**0
        assert from_sympy(sa**n) == a**n
    assert from_sympy(sa.mul_ground(_gi(k))) == a.scale(k)
    assert from_sympy(sa.new([(m, ZZ_I(c.x, -c.y)) for m, c in sa.items()])) \
        == a.conjugate()
    assert (a * b).is_ground == (sa * sb).is_ground


@_SETTINGS
@given(_POLY, _NONZERO, _POLY)
def test_exact_division_matches_sympy(a, b, c):
    """a*b divides by b; a*b + c divides by b exactly where sympy's
    remainder is zero, else the division returns None."""
    assert (a * b).exquo(b) == a
    for n in (a * b + c, a + c):
        quo, rem = to_sympy(n).div(to_sympy(b))
        got = n.exquo(b)
        if rem:
            assert got is None
        else:
            assert got == from_sympy(quo)


@_SETTINGS
@given(_POLY, _UNIT_FREE)
def test_dividing_out_a_constant_matches_sympy(a, k):
    scaled = a.scale(k)
    assert scaled.quo_ground(k) == a
    assert from_sympy(to_sympy(scaled).quo_ground(_gi(k))) == a
    assert scaled.exquo(Poly.constant(k)) == a


@_SETTINGS
@given(_NONZERO)
def test_derivative_degrees_content_and_leading_term_match_sympy(a):
    sa = to_sympy(a)
    for j, x in enumerate(reference.SYMPY_RING.gens):
        assert from_sympy(sa.diff(x)) == a.diff(j)
    assert a.degrees() == sa.degrees()
    assert a.content() == _pair(sa.content())
    assert a.LC == _pair(sa.LC)
    assert a.quo_ground(a.content()).content() == (1, 0)


@_SETTINGS
@given(_GAUSSIAN, _GAUSSIAN)
def test_gaussian_units_and_gcd_match_sympy(a, b):
    assert canonical_unit(a) == _pair(ZZ_I.canonical_unit(_gi(a)))
    assert gaussian_mul(a, b) == _pair(_gi(a) * _gi(b))
    assert gaussian_gcd(a, b) == _pair(ZZ_I.gcd(_gi(a), _gi(b)))


def _image(p, j, modulus, root):
    """sympy's univariate image of p in the j-th variable at the screen
    point, its Gaussian coefficients sent to the integers mod the
    modulus, i to root."""
    gens = reference.SYMPY_RING.gens
    point = [(x, v) for k, (x, v) in enumerate(zip(gens, _SCREEN_POINT))
             if k != j]
    image = to_sympy(p).evaluate(point) if point else to_sympy(p)
    coeffs = [0] * (max((m[0] for m in image), default=-1) + 1)
    for (e,), c in image.items():
        coeffs[e] = (int(c.x) + int(c.y) * root) % modulus
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def test_screen_prime_is_one_mod_four_with_a_root_of_minus_one():
    assert sp.isprime(_SCREEN_PRIME) and _SCREEN_PRIME % 4 == 1
    assert pow(_SCREEN_ROOT, 2, _SCREEN_PRIME) == _SCREEN_PRIME - 1


@_SETTINGS
@given(_POLY, st.integers(0, 3))
def test_images_mod_p_match_sympy(a, j):
    assert a.evaluate(j, _SCREEN_POINT, _SCREEN_PRIME, _SCREEN_ROOT) \
        == _image(a, j, _SCREEN_PRIME, _SCREEN_ROOT)


# a small prime = 1 (mod 4), so that random images share factors
_SMALL_PRIME, _SMALL_ROOT = 13, 5


@_SETTINGS
@given(_POLY, _POLY, _POLY, st.integers(0, 3))
def test_gcd_mod_matches_sympy(g, u, v, j):
    """The monic gcd of the images of g*u and g*v over GF(13) is
    sympy's."""
    a, b = (_image(g * w, j, _SMALL_PRIME, _SMALL_ROOT) for w in (u, v))
    x = sp.Symbol("x")
    want = sp.Poly(list(reversed(a)) or [0], x, modulus=_SMALL_PRIME).gcd(
        sp.Poly(list(reversed(b)) or [0], x, modulus=_SMALL_PRIME))
    monic = [c % _SMALL_PRIME for c in reversed(want.all_coeffs())]
    while monic and not monic[-1]:
        monic.pop()
    assert gcd_mod(a, b, _SMALL_PRIME) == monic


@_SETTINGS
@given(_POLY, _NONZERO, _POLY, _UNIT_FREE)
def test_equal_values_built_two_ways_hash_equal(a, b, c, k):
    """A Poly never changes once built, so equal values have equal
    hashes however they were computed, and each finds the other in a
    dict or a frozenset key."""
    for x, y in (((a * b) * c, a * (b * c)), ((a + b) * c, a * c + b * c),
                 ((a * b).exquo(b), a), (a + c - c, a),
                 (a.scale(k).quo_ground(k), a), (a**2, a * a)):
        hash(x)
        assert x == y
        assert hash(x) == hash(y)
        assert {x: 1}[y] == 1
        assert frozenset([(0, x)]) == frozenset([(0, y)])


def _product_agrees(product, a, b):
    return from_sympy(to_sympy(a) * to_sympy(b)) == product(a, b)


def _conjugating_one_coefficient(a, b):
    """a*b with one complex coefficient conjugated."""
    terms = dict((a * b).items())
    m = next(m for m, (x, y) in terms.items() if y)
    x, y = terms[m]
    terms[m] = (x, -y)
    return Poly(terms)


@_SETTINGS
@given(_POLY, _POLY)
def test_product_check_fails_a_product_with_one_coefficient_conjugated(
        a, b):
    assume(any(y for _, (_, y) in (a * b).items()))
    assert _product_agrees(Poly.__mul__, a, b)
    assert not _product_agrees(_conjugating_one_coefficient, a, b)


def test_constants_and_generators():
    assert ONE == Poly.constant((1, 0)) and not Poly.constant((0, 0))
    assert [from_sympy(x) for x in reference.SYMPY_RING.gens] \
        == [Poly.gen(j) for j in range(4)]
    assert Poly.gen(0).is_ground is False and ONE.is_ground
