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

  * ``num`` is a sparse polynomial in P1, P2, P3, m with Gaussian-integer
    coefficients, a :class:`~spinsplit.poly.Poly`: exponent tuples in
    lex order with P1 first, mapped to (re, im) pairs of ints;
  * ``q`` is a positive integer, the rational part of the denominator;
  * ``den`` maps polynomial factors to positive exponents.

Arithmetic on Gaussian integers is plain integer arithmetic, where Q(i)
coefficients would carry a fraction in each real and imaginary part, and
no polynomial operation calls sympy.  The form is kept reduced:

  * no denominator factor divides ``num``, and gcd(q, integer content of
    ``num``) = 1, the integer content being the gcd of the real and
    imaginary parts of all its coefficients;
  * m, psq = |P|^2 and hsq = H^2 are the monic basis factors;
  * any other factor is primitive over the Gaussian integers, with its
    leading coefficient in the first quadrant (real part > 0, imaginary
    part >= 0).

A value built from m, psq and hsq alone has exactly one representation:
the three are irreducible, so "no factor divides num" means num and the
denominator are coprime.  A factor of any other kind is kept whole, and
it may be reducible over the Gaussian integers: (P1 - P2)/(P1^2 - P2^2)
and 1/(P1 + P2) are equal values held over different factors, with
different memo keys.
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
dividing its numerator exactly by each denominator factor while it
divides (``Poly.exquo``: lex division by one polynomial, which stops at
the first leading term the factor's does not divide), then numerator and
``q`` by their integer gcd.

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

Cancelling a factor f outside the basis needs gcd(num, f**e), which a
multivariate gcd over the Gaussian integers can take minutes to find on
large factors.  A coprimality screen (``Ring._coprime``) proves most such
pairs coprime first: it takes univariate images at one integer point,
reduced modulo a prime p = 1 (mod 4) with i sent to a square root of -1,
and their gcd over the integers mod p (``gcd_mod``).  Only a pair it
cannot settle (a shared factor, or a leading coefficient that vanishes
at the point or mod p) reaches the one fallback, ``_sympy_gcd``, which
converts the pair to sympy and takes its multivariate gcd.

The module imports no sympy.  An operand of ``Scalar`` arithmetic or
``==`` is an int or a ``Scalar``; with an operator, ``OperatorExpr``'s
reflected method answers, and any other operand is a ``TypeError`` (or,
for ``==``, unequal).  ``Ring.from_expr`` builds constants from an int or
the text "I" alone.  sympy is imported only where it is used: by the gcd
fallback and by ``_cached_cancel``, which only the benchmark harness
reads.

Memos.  A ``Scalar`` never changes after construction, and neither do its
numerators and denominator dicts (a ``Poly`` is immutable and caches its
hash), so each value has one canonical key, built on first use: the ring
mode and the frozenset of (basis key, numerator, q, frozenset of
denominator items) over its components.  The mode is part of the key
because the numerators of the two modes compare equal.  The key names
three memos:

  * ``_product_memo``: (key of a, key of b) -> a * b, for products of two
    non-constant elements (a constant factor only scales numerators);
  * ``_inverse_memo``: key -> inverse; zero is never stored, so its
    inverse raises on every call;
  * ``_derivation_memo``: ("boost" or "rotation", axis, key) -> the
    commutator with K_axis or J_axis.

Each is a pure function of the components, so a hit returns what the
call would compute.  Like ``algebra._insert_memo`` and
``algebra._word_memo`` they are process-wide and unbounded, and what they
return is shared: callers never mutate it.

Massless mode sets m = 0 and identifies H with R (basis {1, R}).
"""

from __future__ import annotations

from math import gcd

from .poincare import eps
from .poly import (
    ONE,
    ZERO,
    Poly,
    canonical_unit,
    gaussian_gcd,
    gaussian_mul,
    gcd_mod,
)

__all__ = ["Ring", "Scalar", "CoefficientError"]

_ONE = (1, 0)  # the Gaussian integer 1 as an (re, im) pair
_UNSET = object()  # ``Scalar._const`` before ``_constant`` first runs

# the integer point (P1, P2, P3, m) at which ``Ring._coprime`` takes its
# univariate images, and the prime p = 1 (mod 4) they are reduced modulo,
# with i sent to a square root of -1 mod p
_SCREEN_POINT = (3, 5, 7, 11)
_SCREEN_PRIME = 2**61 - 31
_SCREEN_ROOT = 583529827753931384

_product_memo: dict = {}
_inverse_memo: dict = {}
_derivation_memo: dict = {}

# ``sympy.cancel`` memoized by expression.  Nothing in the package or
# the tests calls it: only the benchmark harness holds these two names
# (it reads the memo's size and traces the call), and they go when the
# benchmark stops reading them.
_cancel_memo: dict = {}


def _cached_cancel(expr):
    import sympy as sp

    out = _cancel_memo.get(expr)
    if out is None:
        out = sp.cancel(expr)
        _cancel_memo[expr] = out
    return out


class CoefficientError(ArithmeticError):
    """Raised on division by an identically-zero coefficient."""


# -- exact fractions over a factored denominator ------------------------------
#
# A fraction is a triple (num, q, den): num a Poly over Z[i], q a positive
# int, den a dict {Poly: exponent > 0}.  The helpers below never reduce;
# ``_reduce`` does, once per result component.


def _lowest(n, q):
    """(n, q) with their integer gcd, the gcd of q and of the real and
    imaginary parts of n's coefficients, divided out."""
    if q == 1:
        return n, q
    g = q
    for x, y in n.values():
        g = gcd(g, x, y)
        if g == 1:
            return n, q
    return n.quo_ground((g, 0)), q // g


def _lift(num, den, target):
    """num/den rewritten over ``target``, a multiple of ``den``."""
    for f, e in target.items():
        k = e - den.get(f, 0)
        if k:
            num = num * f**k
    return num


def _add(a, b, minus=False):
    """a + b, or a - b with ``minus``."""
    (n1, q1, d1), (n2, q2, d2) = a, b
    q = q1
    if q1 != q2:
        q = q1 // gcd(q1, q2) * q2
        n1, n2 = n1.scale((q // q1, 0)), n2.scale((q // q2, 0))
    den = d1
    if d1 != d2:
        den = dict(d1)
        for f, e in d2.items():
            if e > den.get(f, 0):
                den[f] = e
        n1, n2 = _lift(n1, d1, den), _lift(n2, d2, den)
    return (n1 - n2 if minus else n1 + n2), q, den


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
                quo = n.exquo(f)
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
    dn = n.diff(j)
    moving = [(f, e, f.diff(j)) for f, e in d.items()]
    moving = [t for t in moving if t[2]]
    if not moving:
        return dn, q, d
    num = dn
    for f, _, _ in moving:
        num = num * f
    for i, (_, e, fx) in enumerate(moving):
        term = fx.scale((e, 0))
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
    return c[0], -c[1]


def _sympy_gcd(a, b):
    """gcd(a, b) up to a unit by sympy's multivariate gcd over Z[i]: the
    one fallback, for the pairs ``Ring._coprime`` cannot settle."""
    import sympy as sp

    gens = sp.symbols("P1 P2 P3 m")

    def to_sympy(p):
        return sp.Poly.from_dict({m: x + y * sp.I for m, (x, y) in p.items()},
                                 gens, domain="ZZ_I")

    h = to_sympy(a).gcd(to_sympy(b))
    return Poly({m: tuple(int(v) for v in c.as_real_imag())
                 for m, c in h.terms() if c})


class Ring:
    """A coefficient ring mode: massive or massless.

    Numerators and denominator factors are :class:`~spinsplit.poly.Poly`
    polynomials in P1, P2, P3, m over Z[i]; ``psq`` and ``hsq`` are |P|^2
    and H^2 among them.
    """

    def __init__(self, massless: bool = False):
        self.massless = massless
        self._p = tuple(Poly.gen(j) for j in range(3))
        self._m = ZERO if massless else Poly.gen(3)
        self.psq = self._p[0]**2 + self._p[1]**2 + self._p[2]**2
        self.hsq = self.psq + self._m**2
        self._i = (0, 1)
        # int -> constant Scalar, filled as ``from_expr`` meets them, and
        # i under "I", the one text ``from_expr`` takes
        self._numbers = {"I": self._number(self._i)}
        # denominator factors that ``_split`` divides out, all monic
        self._basis = []
        for f in (self._m, self.psq, self.hsq):
            if not f.is_ground and f not in self._basis:
                self._basis.append(f)
        # P1, P2, P3, m, H and R, one immutable instance each, as for
        # numbers
        self._atoms = tuple(Scalar(self, {k: (f, 1, {})}) for k, f in (
            ((0, 0), self._p[0]), ((0, 0), self._p[1]), ((0, 0), self._p[2]),
            ((0, 0), self._m), ((1, 0), ONE), ((0, 1), ONE)))

    def __eq__(self, other):
        return isinstance(other, Ring) and self.massless == other.massless

    def __hash__(self):
        return hash(self.massless)

    def __repr__(self):
        return f"Ring({'massless' if self.massless else 'massive'})"

    # -- element builders ------------------------------------------------

    def _number(self, c) -> "Scalar":
        """The constant Scalar c, a Gaussian integer pair."""
        return Scalar(self, {(0, 0): (Poly.constant(c), 1, {})},
                      _canonical=True)

    def from_expr(self, expr) -> "Scalar":
        """The constant Scalar for an int (a bool is the int it is) or for
        the text "I"; any other operand is a TypeError."""
        # numbers are nearly every call (the algebra's constants 0, 1, -1),
        # and a Scalar is immutable, so one instance per number serves
        out = self._numbers.get(expr) if isinstance(expr, (int, str)) else None
        if out is None:
            if not isinstance(expr, int):
                raise TypeError(f"Ring.from_expr takes an int or 'I', "
                                f"not {type(expr).__name__} {expr!r}")
            out = self._numbers[expr] = self._number((int(expr), 0))
        return out

    def zero(self) -> "Scalar":
        return self.from_expr(0)

    def one(self) -> "Scalar":
        return self.from_expr(1)

    def i(self) -> "Scalar":
        return self._numbers["I"]

    def m(self) -> "Scalar":
        return self._atoms[3]

    def H(self) -> "Scalar":
        return self._atoms[4]

    def R(self) -> "Scalar":
        return self._atoms[5]

    def P(self, axis: int) -> "Scalar":
        return self._atoms[axis]

    def Phat(self, axis: int) -> "Scalar":
        return self.P(axis) * self.R() ** -1

    # -- conversion and reduction ------------------------------------------

    def _divided(self, num, den):
        """The fraction num / den for a nonzero polynomial den: den split
        into its constant c and factors, and the constant moved up,
        1/c = conj(c) / |c|^2."""
        c, factors = self._split(den)
        return num.scale(_conj(c)), c[0]**2 + c[1]**2, factors

    def _split(self, n):
        """Write a nonzero polynomial as c * prod(f**e), c a Gaussian
        integer: trial division by m, psq and hsq, then the rest as one
        primitive factor whose leading coefficient is in the first
        quadrant."""
        factors = {}
        for f in self._basis:
            q = n.exquo(f)
            while q is not None:
                n = q
                factors[f] = factors.get(f, 0) + 1
                q = n.exquo(f)
        if n.is_ground:
            return n.LC, factors
        c = n.content()
        f = n.quo_ground(c)
        u = canonical_unit(f.LC)
        factors[f.scale(u)] = 1
        return gaussian_mul(c, _conj(u)), factors

    def _cancelled(self, c):
        """The pair (P, Q) that ``sympy.cancel`` gives for the fraction
        c = (num, q, den): P/Q = num/(q*prod(f**e)) with P and Q coprime
        over the Gaussian integers and the leading coefficient of Q in the
        first quadrant, leading in lex order with m first (sympy's
        generator order).

        Only the constant content and a factor outside the basis can be
        shared: the basis factors are irreducible and divide no reduced
        numerator, and every factor is primitive, so the content of the
        denominator is q."""
        n, q, d = c
        den = Poly.constant((q, 0))
        for f, e in d.items():
            den = den * f**e
        if q != 1:
            g = (q, 0)
            for k in n.values():
                g = gaussian_gcd(g, k)
                if g == _ONE:
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
        u = canonical_unit(lc)
        if u != _ONE:
            n, den = n.scale(u), den.scale(u)
        return n, den

    def _gcd(self, a, b):
        """gcd(a, b) over Z[i] up to a constant: one where the screen
        proves a and b coprime, else sympy's (``_sympy_gcd``)."""
        return ONE if self._coprime(a, b) else _sympy_gcd(a, b)

    def _coprime(self, a, b):
        """True if a and b provably share no non-constant factor, False
        if the screen cannot tell.

        For each variable x both depend on, the other variables are set
        to ``_SCREEN_POINT`` and i to a square root of -1 mod
        ``_SCREEN_PRIME``, which maps Z[i] onto the integers mod that
        prime.  A common factor g of positive degree in x divides both
        images, and where a keeps its degree in x, g keeps its own (the
        leading coefficients in x multiply), so a constant univariate gcd
        of the images rules out every such g."""
        for j, (da, db) in enumerate(zip(a.degrees(), b.degrees())):
            if da > 0 and db > 0:
                ia = a.evaluate(j, _SCREEN_POINT, _SCREEN_PRIME, _SCREEN_ROOT)
                ib = b.evaluate(j, _SCREEN_POINT, _SCREEN_PRIME, _SCREEN_ROOT)
                if (len(ia) != da + 1
                        or len(gcd_mod(ia, ib, _SCREEN_PRIME)) > 1):
                    return False
        return True

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
    the printer fills it with the text of each component; ``_const`` holds
    what ``_constant`` returns once it has been asked.
    """

    __slots__ = ("ring", "_c", "_parts", "_key", "_const")

    def __init__(self, ring: Ring, parts: dict, _canonical: bool = False):
        """``parts`` maps raw (eH, eR) exponent pairs to fractions; with
        ``_canonical`` they are already folded and reduced."""
        self.ring = ring
        self._parts = None
        self._key = None
        self._const = _UNSET
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
        out = self._const
        if out is _UNSET:
            out = None
            if len(self._c) == 1:
                n, q, d = self._c.get((0, 0), (None, 1, None))
                if n is not None and not d and n.is_ground:
                    out = n.LC, q
            self._const = out
        return out

    def __eq__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else (self - other).is_zero()

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

    def _operand(self, other):
        """``other`` as a Scalar of this ring, an int converted; None for
        an operand of any other type, for which the operator returns
        NotImplemented."""
        if isinstance(other, int):
            return self.ring.from_expr(other)
        if not isinstance(other, Scalar):
            return None
        if self.ring != other.ring:
            raise ValueError("scalars from different ring modes")
        return other

    def __add__(self, other):
        # a Scalar of this very ring, nearly every operand, skips the checks
        if other.__class__ is not Scalar or other.ring is not self.ring:
            other = self._operand(other)
            if other is None:
                return NotImplemented
        if not other._c:
            return self
        if not self._c:
            return other
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
        if other.__class__ is not Scalar or other.ring is not self.ring:
            other = self._operand(other)
            if other is None:
                return NotImplemented
        if not other._c:
            return self
        comps = dict(self._c)
        for k, (n, q, d) in other._c.items():
            comps[k] = (_reduce(_add(comps[k], (n, q, d), minus=True))
                        if k in comps else (-n, q, d))
        return Scalar(self.ring, comps, _canonical=True)

    def __rsub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        if other.__class__ is not Scalar or other.ring is not self.ring:
            other = self._operand(other)
            if other is None:
                return NotImplemented
        k = other._constant()
        if k is not None:
            return self._scaled(*k)
        k = self._constant()
        if k is not None:
            return other._scaled(*k)
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
        """self times k/q, k a Gaussian integer (an (re, im) pair) and q a
        positive integer.
        No denominator factor divides a numerator times a nonzero
        constant, so scaling skips the fold and the factor reduction and
        divides out only the integer gcd; k = 0 leaves zero numerators,
        which are dropped, and k/q = 1 is self."""
        if q == 1 and k == _ONE:
            return self
        return Scalar(self.ring,
                      {key: (*_lowest(n.scale(k), q0 * q), d)
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
        inv_num = Poly.constant((q, 0))
        for f, e in den.items():
            inv_num = inv_num * f**e
        out = Scalar(ring, {(0, 0): ring._divided(inv_num, num)})
        for conj in conjugates:
            out = conj * out
        _inverse_memo[key] = out
        return out

    def __truediv__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self.inverse() * other

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
        comps = {}
        for k, (n, q, d) in self._c.items():
            n, den = n.conjugate(), {}
            for f, e in d.items():
                # the conjugate of a factor may leave the first quadrant;
                # 1/g**e = u**e / (u*g)**e for the unit u that restores it
                g = f.conjugate()
                u = canonical_unit(g.LC)
                if u != _ONE:
                    g = g.scale(u)
                    for _ in range(e % 4):  # u**4 = 1
                        n = n.scale(u)
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
        i_pa = ring._p[axis].scale(ring._i)
        parts = {}

        def acc(k, val):
            parts[k] = _add(parts[k], val) if k in parts else val

        for (h, r), c in self._c.items():
            # i*H * dc/dP_a, same H/R exponents plus one H
            n, q, d = c
            dn, dq, dd = _diff(c, axis)
            if dn:
                acc((h + 1, r), (dn.scale(ring._i), dq, dd))
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
                            term = (dn * ring._p[cc].scale((0, e)), dq, dd)
                            d = term if d is None else _add(d, term)
            if d is not None:
                parts[k] = d
        out = _derivation_memo[key] = Scalar(ring, parts)
        return out
