"""Exact scalar coefficient ring for the relativistic operator algebra.

Coefficients are rational functions of the momentum components P1, P2, P3
and the mass m, extended by the two dependent square roots

    H = sqrt(P1^2 + P2^2 + P3^2 + m^2)   (energy)
    R = sqrt(P1^2 + P2^2 + P3^2)         (momentum magnitude |P|)

so every element has the unique reduced form

    a + b*H + c*R + d*H*R

with a, b, c, d rational functions of (P1, P2, P3, m) over Q(i).  Reduction
uses H^2 = R^2 + m^2 and R^2 = P1^2 + P2^2 + P3^2.

Representation.  Each component is an exact fraction ``(num, q, den)``
with the value num / (q * prod(f**e for f, e in den)):

  * ``num`` is a sparse polynomial (a sympy ``PolyElement``) in
    P1, P2, P3, m with Gaussian-integer coefficients (ZZ_I);
  * ``q`` is a positive integer, the rational part of the denominator;
  * ``den`` maps polynomial factors to positive exponents.

Arithmetic on Gaussian integers is plain integer arithmetic, where Q(i)
coefficients would carry a fraction in each real and imaginary part.
The form is kept reduced:

  * no denominator factor divides ``num``, and gcd(q, integer content of
    ``num``) = 1, the integer content being the gcd of the real and
    imaginary parts of all its coefficients;
  * m, psq = |P|^2 and hsq = H^2 are the monic basis factors;
  * any other factor is primitive over ZZ_I, with its leading coefficient
    in the first quadrant (real part > 0, imaginary part >= 0).

A value built from m, psq and hsq alone has exactly one representation:
the three are irreducible, so "no factor divides num" means num and the
denominator are coprime.  A factor of any other kind is kept whole, and
it may be reducible over ZZ_I: (P1 - P2)/(P1^2 - P2^2) and 1/(P1 + P2)
are equal values held over different factors, with different memo keys.
The printer cancels such a factor against the numerator (``_cancelled``),
so equal values still print the same text.

The denominators the algebra produces are products of m, psq and hsq:
``inverse`` rationalizes an element by conjugating in H and in R, then
splits the rational norm against m, psq and hsq by trial division and
keeps a non-constant remainder as one more factor.  Dividing by what is
left, a Gaussian-integer constant c, multiplies the numerator by conj(c)
and ``q`` by |c|^2.  Sums rescale both fractions to the common
denominator (the lcm of the two ``q`` and the larger exponent of each
factor), products multiply ``q`` and add exponents, and the derivations
apply the quotient rule to the factored form.  A fraction is reduced by
dividing its numerator exactly by each denominator factor while the
remainder is zero (one polynomial is a Groebner basis of its ideal, so
that test is exact), then numerator and ``q`` by their integer gcd.

Zero test.  A fraction is zero iff its numerator is the zero polynomial,
so an element is zero iff it has no components, and equality (the
difference is zero) is decided exactly.  No arithmetic calls
``sympy.cancel``.

Printing.  The printer writes each component as the fraction P/Q that
``sympy.cancel`` would give for num/(q*den), computed here by ring
arithmetic (``Ring._cancelled``): no sympy expression is built and
``cancel`` is not called.  The text is a function of the value alone, so
equal values print the same text however they were computed; the
printer keeps it in the ``_parts`` slot, so it is built once per
``Scalar``.

Memos.  A ``Scalar`` never changes after construction, and neither do its
numerators and denominator dicts (a ``PolyElement`` caches its hash, so
no polynomial is filled in place once hashed), so each value has one
canonical key, built on first use: the ring mode and the frozenset of
(basis key, numerator, q, frozenset of denominator items) over its
components.  The mode is part of the key because the numerators of the
two modes compare equal.  The key names four memos:

  * ``_product_memo``: (key of a, key of b) -> a * b, for products of two
    non-constant elements (a constant factor only scales numerators);
  * ``_inverse_memo``: key -> inverse; zero is never stored, so its
    inverse raises on every call;
  * ``_derivation_memo``: ("boost" or "rotation", axis, key) -> the
    commutator with K_axis or J_axis;
  * ``algebra._shift_memo``: (word, key) -> the scalar moved left through
    the word.

Each is a pure function of the components, so a hit returns what the
call would compute.  Like ``algebra._insert_memo`` they are process-wide
and unbounded, and what they return is shared: callers never mutate it.

Massless mode sets m = 0 and identifies H with R (basis {1, R}).
"""

from __future__ import annotations

from math import gcd

import sympy as sp
from sympy.polys.domains import ZZ, ZZ_I
from sympy.polys.monomials import monomial_div
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from .poincare import eps

__all__ = ["Ring", "Scalar", "CoefficientError"]

P1, P2, P3 = sp.symbols("P1 P2 P3", real=True)
M = sp.Symbol("m", positive=True)

# the coefficient type; ``new`` builds an element from two ints unconverted
_GI = ZZ_I.dtype
_ONE = ZZ_I.one

_product_memo: dict = {}
_inverse_memo: dict = {}
_derivation_memo: dict = {}

# ``sympy.cancel`` memoized by expression.  Nothing in the package calls
# it: only the benchmark harness (which reads the memo's size and traces
# the call) and the tests' sympy view of the printer hold these two
# names, and they go when the benchmark stops reading them.
_cancel_memo: dict = {}


def _cached_cancel(expr):
    out = _cancel_memo.get(expr)
    if out is None:
        out = sp.cancel(expr)
        _cancel_memo[expr] = out
    return out


class CoefficientError(ArithmeticError):
    """Raised on division by an identically-zero coefficient."""


# -- exact fractions over a factored denominator ------------------------------
#
# A fraction is a triple (num, q, den): num a PolyElement over ZZ_I, q a
# positive int, den a dict {PolyElement: exponent > 0}.  The helpers below
# never reduce; ``_reduce`` does, once per result component.


def _iscale(n, k):
    """n times a positive integer k."""
    return n if k == 1 else n.mul_ground(_GI.new(k, 0))


def _lowest(n, q):
    """(n, q) with their integer gcd, the gcd of q and of the real and
    imaginary parts of n's coefficients, divided out."""
    if q == 1:
        return n, q
    g = q
    for c in n.values():
        g = gcd(g, c.x, c.y)
        if g == 1:
            return n, q
    n = n.new([(mon, c.new(c.x // g, c.y // g)) for mon, c in n.items()])
    return n, q // g


def _lift(num, den, target):
    """num/den rewritten over ``target``, a multiple of ``den``."""
    for f, e in target.items():
        k = e - den.get(f, 0)
        if k:
            num = num * f**k
    return num


def _add(a, b):
    (n1, q1, d1), (n2, q2, d2) = a, b
    q = q1
    if q1 != q2:
        q = q1 // gcd(q1, q2) * q2
        n1, n2 = _iscale(n1, q // q1), _iscale(n2, q // q2)
    if d1 == d2:
        return n1 + n2, q, d1
    den = dict(d1)
    for f, e in d2.items():
        if e > den.get(f, 0):
            den[f] = e
    return _lift(n1, d1, den) + _lift(n2, d2, den), q, den


def _mul(a, b):
    (n1, q1, d1), (n2, q2, d2) = a, b
    if not d2:
        return n1 * n2, q1 * q2, d1
    if not d1:
        return n1 * n2, q1 * q2, d2
    den = dict(d1)
    for f, e in d2.items():
        den[f] = den.get(f, 0) + e
    return n1 * n2, q1 * q2, den


def _times(c, f, k):
    """c * f**k for a basis factor f, cancelling against f in the
    denominator first."""
    n, q, d = c
    e = d.get(f, 0)
    if e:
        d = dict(d)
        used = min(e, k)
        if used == e:
            del d[f]
        else:
            d[f] = e - used
        k -= used
    return (n * f**k if k else n), q, d


def _over(c, f):
    """c / f for a basis factor f."""
    n, q, d = c
    d = dict(d)
    d[f] = d.get(f, 0) + 1
    return n, q, d


def _quotient(n, f):
    """n / f if the non-constant polynomial f divides n, else None.  The
    highest and the lowest monomial of a product are the products of the
    factors' highest and lowest monomials, which rules most cases out
    before the division."""
    if (n.is_ground or monomial_div(n.LM, f.LM) is None
            or monomial_div(min(n), min(f)) is None):
        return None
    q, r = n.div(f)
    # ``div`` hashes the empty quotient before filling it in place, so
    # the quotient's cached hash is stale; a copy hashes its terms
    return None if r else q.copy()


def _reduce(c):
    """Divide the numerator by each denominator factor while it divides,
    then numerator and q by their integer gcd."""
    n, q, d = c
    if not n:
        return n, 1, {}
    if d:
        out = {}
        for f, e in d.items():
            while e:
                quo = _quotient(n, f)
                if quo is None:
                    break
                n, e = quo, e - 1
            if e:
                out[f] = e
        d = out
    n, q = _lowest(n, q)
    return n, q, d


def _diff(c, j):
    """d(num/(q*den))/dx_j by the quotient rule on the factored
    denominator: only factors that depend on x_j gain one power."""
    n, q, d = c
    x = n.ring.gens[j]
    dn = n.diff(x)
    moving = [(f, e, f.diff(x)) for f, e in d.items()]
    moving = [t for t in moving if t[2]]
    if not moving:
        return dn, q, d
    num = dn
    for f, _, _ in moving:
        num = num * f
    for i, (_, e, fx) in enumerate(moving):
        term = fx * e
        for k, (g, _, _) in enumerate(moving):
            if k != i:
                term = term * g
        num = num - n * term
    den = dict(d)
    for f, e, _ in moving:
        den[f] = e + 1
    return num, q, den


def _conj(c):
    """The complex conjugate of a Gaussian integer."""
    return c.new(c.x, -c.y)


class Ring:
    """A coefficient ring mode: massive or massless.

    ``psq`` and ``hsq`` are |P|^2 and H^2 as polynomials of the mode.
    """

    def __init__(self, massless: bool = False):
        self.massless = massless
        self.poly = PolyRing((P1, P2, P3, M), ZZ_I, lex)
        # the generators in sympy's order, m first, for gcds: over ZZ_I,
        # and over ZZ for real polynomials
        self._gcd_rings = (PolyRing((M, P1, P2, P3), ZZ_I, lex),
                           PolyRing((M, P1, P2, P3), ZZ, lex))
        zero = self.poly.zero
        x1, x2, x3, m = self.poly.gens
        self._p = (x1, x2, x3)
        self._m = zero if massless else m
        self.psq = sum((p**2 for p in self._p), zero)
        self.hsq = self.psq + self._m**2
        self._i = _GI.new(0, 1)
        self._numbers = {}  # number, or its source text -> constant Scalar
        # denominator factors that ``_split`` divides out, all monic
        self._basis = []
        for f in (self._m, self.psq, self.hsq):
            if not f.is_ground and f not in self._basis:
                self._basis.append(f)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.massless == other.massless

    def __hash__(self):
        return hash(self.massless)

    def __repr__(self):
        return f"Ring({'massless' if self.massless else 'massive'})"

    # -- element builders ------------------------------------------------

    def from_expr(self, expr) -> "Scalar":
        """Scalar from a sympy expression in P1, P2, P3, m (no H or R)."""
        # numbers are nearly every call (the algebra's constants 0, 1, i,
        # -1), and a Scalar is immutable, so one instance per number
        # serves; a number given as text is also kept under that text,
        # so the text is parsed once
        if isinstance(expr, (int, str, sp.Expr)):
            out = self._numbers.get(expr)
            if out is not None:
                return out
        value = sp.sympify(expr)
        if not value.is_number:
            return Scalar(self, {(0, 0): self._fraction(value)})
        out = self._numbers.get(value)
        if out is None:
            out = Scalar(self, {(0, 0): self._fraction(value)})
            self._numbers[value] = out
        if isinstance(expr, str):
            self._numbers[expr] = out
        return out

    def zero(self) -> "Scalar":
        return self.from_expr(0)

    def one(self) -> "Scalar":
        return self.from_expr(1)

    def i(self) -> "Scalar":
        return self.from_expr(sp.I)

    def m(self) -> "Scalar":
        return Scalar(self, {(0, 0): (self._m, 1, {})})

    def H(self) -> "Scalar":
        return Scalar(self, {(1, 0): (self.poly.one, 1, {})})

    def R(self) -> "Scalar":
        return Scalar(self, {(0, 1): (self.poly.one, 1, {})})

    def P(self, axis: int) -> "Scalar":
        return Scalar(self, {(0, 0): (self._p[axis], 1, {})})

    def Phat(self, axis: int) -> "Scalar":
        return self.P(axis) * self.R() ** -1

    # -- conversion and reduction ------------------------------------------

    def _poly(self, expr):
        try:
            return self.poly.from_expr(expr)
        except ValueError:
            raise ValueError(
                f"coefficient {expr} is not a rational function of "
                f"P1, P2, P3, m over Q(i)"
            ) from None

    def _fraction(self, expr):
        """A sympy rational function as a fraction of this ring; ``together``
        clears rational coefficients into the denominator."""
        num, den = sp.fraction(sp.together(expr))
        den = self._poly(den)
        if not den:
            raise CoefficientError("division by identically-zero coefficient")
        return self._divided(self._poly(num), den)

    def _divided(self, num, den):
        """The fraction num / den for a nonzero polynomial den: den split
        into its constant c and factors, and the constant moved up,
        1/c = conj(c) / |c|^2."""
        c, factors = self._split(den)
        return num.mul_ground(_conj(c)), c.x**2 + c.y**2, factors

    def _split(self, n):
        """Write a nonzero polynomial as c * prod(f**e), c a Gaussian
        integer: trial division by m, psq and hsq, then the rest as one
        primitive factor whose leading coefficient is in the first
        quadrant."""
        factors = {}
        for f in self._basis:
            q = _quotient(n, f)
            while q is not None:
                n = q
                factors[f] = factors.get(f, 0) + 1
                q = _quotient(n, f)
        if n.is_ground:
            return n.LC, factors
        c = n.content()
        f = n.quo_ground(c)
        u = ZZ_I.canonical_unit(f.LC)
        factors[f.mul_ground(u)] = 1
        return c * _conj(u), factors

    def _cancelled(self, c):
        """The pair (P, Q) that ``sympy.cancel`` gives for the fraction
        c = (num, q, den): P/Q = num/(q*prod(f**e)) with P and Q coprime
        over ZZ_I and the leading coefficient of Q in the first quadrant,
        leading in lex order with m first (sympy's generator order).

        Only the constant content and a factor outside the basis can be
        shared: the basis factors are irreducible and divide no reduced
        numerator, and every factor is primitive, so the content of the
        denominator is q."""
        n, q, d = c
        den = _iscale(self.poly.one, q)
        for f, e in d.items():
            den = den * f**e
        if q != 1:
            g = ZZ_I(q)
            for k in n.values():
                g = ZZ_I.gcd(g, k)
                if g.x**2 + g.y**2 == 1:
                    break
            else:
                n, den = n.quo_ground(g), den.quo_ground(g)
        for f, e in d.items():
            if f not in self._basis:
                h = self._gcd(n, f**e)
                if not h.is_ground:
                    n, den = n.exquo(h), den.exquo(h)
        _, lc = max(den.items(),
                    key=lambda t: (t[0][3], t[0][0], t[0][1], t[0][2]))
        u = ZZ_I.canonical_unit(lc)
        if u != _ONE:
            n, den = n.mul_ground(u), den.mul_ground(u)
        return n, den

    def _gcd(self, a, b):
        """gcd(a, b) over ZZ_I, taken in sympy's generator order, where
        the subresultants recurse on m (of degree at most 2 in the
        factors the algebra makes) rather than on P1, and over ZZ when
        both are real, where the heuristic gcd applies."""
        gaussian, real = self._gcd_rings
        if any(c.y for c in a.values()) or any(c.y for c in b.values()):
            return a.set_ring(gaussian).gcd(b.set_ring(gaussian)).set_ring(
                self.poly)
        h = real.from_dict({(k[3],) + k[:3]: c.x for k, c in a.items()}).gcd(
            real.from_dict({(k[3],) + k[:3]: c.x for k, c in b.items()}))
        return self.poly.from_dict({k[1:] + k[:1]: _GI.new(c, 0)
                                    for k, c in h.items()})

    def _conj_poly(self, p):
        """Complex conjugate of every coefficient of p (P, m are real)."""
        return p.new([(mon, _conj(c)) for mon, c in p.items()])

    def fold(self, parts: dict) -> dict:
        """Reduce raw (eH, eR) exponent pairs to the mode's basis."""
        out = {}
        for (h, r), c in parts.items():
            if not c[0]:
                continue
            # H^2 -> R^2 + m^2, R^2 -> psq
            if h >= 2:
                c = _times(c, self.hsq, h // 2)
                h %= 2
            if self.massless and h == 1:
                # H == R in the massless quotient
                h, r = 0, r + 1
            if r >= 2:
                c = _times(c, self.psq, r // 2)
                r %= 2
            key = (h, r)
            out[key] = _add(out[key], c) if key in out else c
        return out


class Scalar:
    """An element a + b*H + c*R + d*H*R of a coefficient :class:`Ring`.

    Immutable; all arithmetic returns new instances whose components are
    reduced fractions (see the module docstring).  ``_c`` maps each
    nonzero (eH, eR) basis key to its component; ``_parts`` is None until
    the printer fills it with the text of each component.
    """

    __slots__ = ("ring", "_c", "_parts", "_key")

    def __init__(self, ring: Ring, parts: dict, _canonical: bool = False):
        """``parts`` maps raw (eH, eR) exponent pairs to fractions; with
        ``_canonical`` they are already folded and reduced."""
        self.ring = ring
        self._parts = None
        self._key = None
        if _canonical:
            self._c = {k: c for k, c in parts.items() if c[0]}
        else:
            comps = {}
            for k, c in ring.fold(parts).items():
                c = _reduce(c)
                if c[0]:
                    comps[k] = c
            self._c = comps

    def _memo_key(self):
        """The canonical key of this value for the memos (module
        docstring)."""
        if self._key is None:
            self._key = (self.ring.massless, frozenset(
                (k, n, q, frozenset(d.items()))
                for k, (n, q, d) in self._c.items()))
        return self._key

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._constant() == (_ONE, 1)

    def _constant(self):
        """A nonzero constant element as (k, q), its value the Gaussian
        integer k over the positive integer q; else None."""
        if len(self._c) == 1:
            n, q, d = self._c.get((0, 0), (None, 1, None))
            if n is not None and not d and n.is_ground:
                return n.LC, q
        return None

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Scalar is unhashable; compare with ==")

    def __repr__(self):
        if self.is_zero():
            return "Scalar(0)"
        bits = []
        for (h, r), (n, q, d) in sorted(self._c.items()):
            den = [str(q)] if q != 1 else []
            den += [f"({f})" + (f"**{e}" if e > 1 else "")
                    for f, e in d.items()]
            text = f"({n})" + ("/(" + "*".join(den) + ")" if den else "")
            tag = "H" * h + "R" * r
            bits.append(text + ("*" + tag if tag else ""))
        return "Scalar(" + " + ".join(bits) + ")"

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Scalar"):
        if self.ring != other.ring:
            raise ValueError("scalars from different ring modes")

    def __add__(self, other):
        if isinstance(other, (int, sp.Expr)):
            other = self.ring.from_expr(other)
        self._check(other)
        comps = dict(self._c)
        for k, c in other._c.items():
            comps[k] = _reduce(_add(comps[k], c)) if k in comps else c
        return Scalar(self.ring, comps, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ring,
                      {k: (-n, q, d) for k, (n, q, d) in self._c.items()},
                      _canonical=True)

    def __sub__(self, other):
        if isinstance(other, (int, sp.Expr)):
            other = self.ring.from_expr(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, sp.Expr)):
            other = self.ring.from_expr(other)
        self._check(other)
        for a, b in ((self, other), (other, self)):
            k = b._constant()
            if k is not None:
                return a._scaled(*k)
        key = (self._memo_key(), other._memo_key())
        out = _product_memo.get(key)
        if out is None:
            parts = {}
            for (h1, r1), c1 in self._c.items():
                for (h2, r2), c2 in other._c.items():
                    k = (h1 + h2, r1 + r2)
                    c = _mul(c1, c2)
                    parts[k] = _add(parts[k], c) if k in parts else c
            out = _product_memo[key] = Scalar(self.ring, parts)
        return out

    __rmul__ = __mul__

    def _scaled(self, k, q=1) -> "Scalar":
        """self times k/q, k a Gaussian integer and q a positive integer.
        No denominator factor divides a numerator times a nonzero
        constant, so scaling skips the fold and the factor reduction and
        divides out only the integer gcd; k = 0 leaves zero numerators,
        which are dropped, and k/q = 1 is self."""
        if q == 1 and k == _ONE:
            return self
        return Scalar(self.ring,
                      {key: (*_lowest(n.mul_ground(k), q0 * q), d)
                       for key, (n, q0, d) in self._c.items()},
                      _canonical=True)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; the extension is a field, so this exists
        for every nonzero element."""
        if self.is_zero():
            raise CoefficientError("division by identically-zero coefficient")
        key = self._memo_key()
        out = _inverse_memo.get(key)
        if out is not None:
            return out
        ring = self.ring
        # Multiplying by the conjugate in H (negated H-odd part) leaves no
        # H-odd part; then the conjugate in R leaves a rational norm.  A
        # conjugation with nothing to negate is skipped.
        conjugates = []
        norm = self
        for slot in (0, 1):
            if any(k[slot] for k in norm._c):
                conj = Scalar(ring,
                              {k: ((-n, q, d) if k[slot] else (n, q, d))
                               for k, (n, q, d) in norm._c.items()},
                              _canonical=True)
                norm = norm * conj
                conjugates.append(conj)
        assert norm._c.keys() <= {(0, 0)}, "rationalization failed"
        if norm.is_zero():
            raise CoefficientError("division by identically-zero coefficient")
        num, q, den = norm._c[(0, 0)]
        inv_num = _iscale(ring.poly.one, q)
        for f, e in den.items():
            inv_num = inv_num * f**e
        out = Scalar(ring, {(0, 0): ring._divided(inv_num, num)})
        for conj in conjugates:
            out = conj * out
        _inverse_memo[key] = out
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, sp.Expr)):
            other = self.ring.from_expr(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("integer exponent required")
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- involutions and derivations ----------------------------------------

    def conjugate(self) -> "Scalar":
        """Complex conjugation: i -> -i (P, m, H, R are real)."""
        conj = self.ring._conj_poly
        comps = {}
        for k, (n, q, d) in self._c.items():
            n, den = conj(n), {}
            for f, e in d.items():
                # the conjugate of a factor may leave the first quadrant;
                # 1/g**e = u**e / (u*g)**e for the unit u that restores it
                g = conj(f)
                u = ZZ_I.canonical_unit(g.LC)
                if u != _ONE:
                    g, n = g.mul_ground(u), n.mul_ground(u**e)
                den[g] = e
            comps[k] = (n, q, den)
        return Scalar(self.ring, comps, _canonical=True)

    def boost_derivative(self, axis: int) -> "Scalar":
        """The commutator [K_axis, c] as a derivation on the ring.

        Generated by [K_a, P_b] = i*H*delta_ab, [K_a, H] = i*P_a and the
        induced [K_a, R] = i*H*P_a/R.
        """
        key = ("boost", axis, self._memo_key())
        out = _derivation_memo.get(key)
        if out is not None:
            return out
        ring = self.ring
        i_pa = ring._p[axis].mul_ground(ring._i)
        parts = {}

        def acc(k, val):
            parts[k] = _add(parts[k], val) if k in parts else val

        for (h, r), c in self._c.items():
            # i*H * dc/dP_a, same H/R exponents plus one H
            n, q, d = c
            dn, dq, dd = _diff(c, axis)
            if dn:
                acc((h + 1, r), (dn.mul_ground(ring._i), dq, dd))
            if h:
                # c * i*P_a * H^{h-1} R^r
                acc((h - 1, r), (n * i_pa, q, d))
            if r:
                # c H^h * i*H*P_a*R/psq * R^{r-1}
                acc((h + 1, r), _over((n * i_pa, q, d), ring.psq))
        out = _derivation_memo[key] = Scalar(ring, parts)
        return out

    def rotation_derivative(self, axis: int) -> "Scalar":
        """The commutator [J_axis, c]: i*eps_{abc} P_c dc/dP_b (H, R are
        rotation invariant)."""
        key = ("rotation", axis, self._memo_key())
        out = _derivation_memo.get(key)
        if out is not None:
            return out
        ring = self.ring
        parts = {}
        for k, c in self._c.items():
            d = None
            for b in range(3):
                for cc in range(3):
                    e = eps(axis, b, cc)
                    if e:
                        dn, dq, dd = _diff(c, b)
                        if dn:
                            term = (dn * ring._p[cc].mul_ground(ring._i * e),
                                    dq, dd)
                            d = term if d is None else _add(d, term)
            if d is not None:
                parts[k] = d
        out = _derivation_memo[key] = Scalar(ring, parts)
        return out
