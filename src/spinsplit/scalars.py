"""Exact scalar coefficient ring for the relativistic operator algebra.

Coefficients are rational functions of the momentum components P1, P2, P3
and the mass m, extended by the two dependent square roots

    H = sqrt(P1^2 + P2^2 + P3^2 + m^2)   (energy)
    R = sqrt(P1^2 + P2^2 + P3^2)         (momentum magnitude |P|)

so every element has the unique reduced form

    a + b*H + c*R + d*H*R

with a, b, c, d rational functions of (P1, P2, P3, m) over Q(i).  Reduction
uses H^2 = R^2 + m^2 and R^2 = P1^2 + P2^2 + P3^2.

Representation.  Each component is an exact fraction ``(num, den)``:

  * ``num`` is a sparse polynomial (a sympy ``PolyElement``) in
    P1, P2, P3, m over QQ_I;
  * ``den`` maps monic polynomial factors to positive exponents.

The denominators the algebra produces are products of m, psq = |P|^2 and
hsq = H^2: ``inverse`` rationalizes an element by conjugating in H and in
R, then splits the rational norm against m, psq and hsq by trial division
and keeps a non-constant remainder as one more factor.  Sums rescale both
fractions to the common factored denominator (the larger exponent of each
factor), products add exponents, and the derivations apply the quotient
rule to the factored form.  A fraction is reduced by dividing its
numerator exactly by each denominator factor while the remainder is zero;
one polynomial is a Groebner basis of its ideal, so that test is exact.

Zero test.  A fraction is zero iff its numerator is the zero polynomial,
so an element is zero iff it has no components, and equality (the
difference is zero) is decided exactly.  No arithmetic calls
``sympy.cancel``.

Where ``cancel`` remains.  ``Scalar.parts`` is a lazily built view of the
components as sympy expressions, each the ``cancel`` normal form of
num/den (memoized in ``_cancel_memo``).  Only the printer and ``repr``
read it.  The view is a function of the components alone,
so equal values print the same text however they were computed.

Massless mode sets m = 0 and identifies H with R (basis {1, R}).
"""

from __future__ import annotations

import itertools

import sympy as sp
from sympy.polys.domains import QQ_I
from sympy.polys.monomials import monomial_div
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

__all__ = ["Ring", "Scalar", "CoefficientError"]

P1, P2, P3 = sp.symbols("P1 P2 P3", real=True)
M = sp.Symbol("m", positive=True)
P_SYMS = (P1, P2, P3)

# Levi-Civita on 0-based axes.
_EPS = {}
for _p in itertools.permutations(range(3)):
    _EPS[_p] = int(sp.LeviCivita(*_p))


def eps(a, b, c):
    """Levi-Civita symbol with 0-based axes; 0 on repeated indices."""
    return _EPS.get((a, b, c), 0)


# per axis a, the (b, c, eps_abc) of the nonzero symbols, b ascending
_EPS_PAIRS = tuple(tuple((b, c, eps(a, b, c)) for b in range(3)
                         for c in range(3) if eps(a, b, c))
                   for a in range(3))


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
# A fraction is a pair (num, den): num a PolyElement, den a dict
# {monic PolyElement: exponent > 0}.  The helpers below never reduce;
# ``_reduce`` does, once per result component.


def _lift(num, den, target):
    """num/den rewritten over ``target``, a multiple of ``den``."""
    for f, e in target.items():
        k = e - den.get(f, 0)
        if k:
            num = num * f**k
    return num


def _add(a, b):
    (n1, d1), (n2, d2) = a, b
    if d1 == d2:
        return n1 + n2, d1
    den = dict(d1)
    for f, e in d2.items():
        if e > den.get(f, 0):
            den[f] = e
    return _lift(n1, d1, den) + _lift(n2, d2, den), den


def _mul(a, b):
    (n1, d1), (n2, d2) = a, b
    if not d2:
        return n1 * n2, d1
    if not d1:
        return n1 * n2, d2
    den = dict(d1)
    for f, e in d2.items():
        den[f] = den.get(f, 0) + e
    return n1 * n2, den


def _times(c, f, k):
    """c * f**k for a monic polynomial f, cancelling against f in the
    denominator first."""
    n, d = c
    e = d.get(f, 0)
    if e:
        d = dict(d)
        used = min(e, k)
        if used == e:
            del d[f]
        else:
            d[f] = e - used
        k -= used
    return (n * f**k if k else n), d


def _over(c, f):
    """c / f for a monic polynomial f."""
    n, d = c
    d = dict(d)
    d[f] = d.get(f, 0) + 1
    return n, d


def _quotient(n, f):
    """n / f if the non-constant polynomial f divides n, else None.  The
    highest and the lowest monomial of a product are the products of the
    factors' highest and lowest monomials, which rules most cases out
    before the division."""
    if (n.is_ground or monomial_div(n.LM, f.LM) is None
            or monomial_div(min(n), min(f)) is None):
        return None
    q, r = n.div(f)
    return None if r else q


def _reduce(c):
    """Divide the numerator by each denominator factor while it divides."""
    n, d = c
    if not n:
        return n, {}
    if not d:
        return c
    out = {}
    for f, e in d.items():
        while e:
            q = _quotient(n, f)
            if q is None:
                break
            n, e = q, e - 1
        if e:
            out[f] = e
    return n, out


def _diff(c, j):
    """d(num/den)/dx_j by the quotient rule on the factored denominator:
    only factors that depend on x_j gain one power."""
    n, d = c
    x = n.ring.gens[j]
    dn = n.diff(x)
    moving = [(f, e, f.diff(x)) for f, e in d.items()]
    moving = [t for t in moving if t[2]]
    if not moving:
        return dn, d
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
    return num, den


def _as_expr(c):
    """The sympy view of a fraction, in ``cancel`` normal form."""
    n, d = c
    expr = n.as_expr()
    if d:
        expr = expr / sp.Mul(*(f.as_expr() ** e for f, e in d.items()))
    return expr if expr.is_Atom else _cached_cancel(expr)


class Ring:
    """A coefficient ring mode: massive or massless.

    ``psq`` and ``hsq`` are |P|^2 and H^2 as polynomials of the mode.
    """

    def __init__(self, massless: bool = False):
        self.massless = massless
        self.poly = PolyRing((P1, P2, P3, M), QQ_I, lex)
        zero = self.poly.zero
        x1, x2, x3, m = self.poly.gens
        self._p = (x1, x2, x3)
        self._m = zero if massless else m
        self.psq = sum((p**2 for p in self._p), zero)
        self.hsq = self.psq + self._m**2
        self._i = self.poly.domain.convert(sp.I)
        self._numbers = {}  # sympy number -> constant Scalar
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
        expr = sp.sympify(expr)
        if not expr.is_number:
            return Scalar(self, {(0, 0): self._fraction(expr)})
        # numbers are nearly every call (the algebra's constants 0, 1, i,
        # -1), and a Scalar is immutable, so one instance per number serves
        out = self._numbers.get(expr)
        if out is None:
            out = Scalar(self, {(0, 0): self._fraction(expr)})
            self._numbers[expr] = out
        return out

    def zero(self) -> "Scalar":
        return self.from_expr(0)

    def one(self) -> "Scalar":
        return self.from_expr(1)

    def i(self) -> "Scalar":
        return self.from_expr(sp.I)

    def m(self) -> "Scalar":
        return Scalar(self, {(0, 0): (self._m, {})})

    def H(self) -> "Scalar":
        return Scalar(self, {(1, 0): (self.poly.one, {})})

    def R(self) -> "Scalar":
        return Scalar(self, {(0, 1): (self.poly.one, {})})

    def P(self, axis: int) -> "Scalar":
        return Scalar(self, {(0, 0): (self._p[axis], {})})

    def Phat(self, axis: int) -> "Scalar":
        return self.P(axis) * self.R() ** -1

    # -- conversion and reduction ------------------------------------------

    def _poly(self, expr):
        try:
            return self.poly.from_expr(expr)
        except ValueError:
            raise ValueError(
                f"coefficient {expr} is not a rational function of "
                f"P1, P2, P3, m over {self.poly.domain}"
            ) from None

    def _fraction(self, expr):
        """A sympy rational function as a fraction of this ring."""
        num, den = sp.fraction(sp.together(expr))
        den = self._poly(den)
        if not den:
            raise CoefficientError("division by identically-zero coefficient")
        c, factors = self._split(den)
        return self._poly(num).quo_ground(c), factors

    def _split(self, n):
        """Write a nonzero polynomial as c * prod(f**e), f monic: trial
        division by m, psq and hsq, then the rest as one factor."""
        factors = {}
        for f in self._basis:
            q = _quotient(n, f)
            while q is not None:
                n = q
                factors[f] = factors.get(f, 0) + 1
                q = _quotient(n, f)
        c = n.LC
        if not n.is_ground:
            factors[n.quo_ground(c)] = 1
        return c, factors

    def _conj_poly(self, p):
        """Complex conjugate of every coefficient of p (P, m are real)."""
        return self.poly.from_dict(
            {mon: QQ_I(c.x, -c.y) for mon, c in p.items()})

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
    reduced fractions (see the module docstring).  ``parts`` maps each
    nonzero (eH, eR) basis key to the component as a sympy expression in
    ``cancel`` normal form.
    """

    __slots__ = ("ring", "_c", "_parts")

    def __init__(self, ring: Ring, parts: dict, _canonical: bool = False):
        """``parts`` maps raw (eH, eR) exponent pairs to fractions; with
        ``_canonical`` they are already folded and reduced."""
        self.ring = ring
        self._parts = None
        if _canonical:
            self._c = {k: c for k, c in parts.items() if c[0]}
        else:
            comps = {}
            for k, c in ring.fold(parts).items():
                c = _reduce(c)
                if c[0]:
                    comps[k] = c
            self._c = comps

    @property
    def parts(self) -> dict:
        if self._parts is None:
            self._parts = {k: _as_expr(c) for k, c in self._c.items()}
        return self._parts

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._constant() == self.ring.poly.domain.one

    def _constant(self):
        """The coefficient of a nonzero constant element, else None."""
        if len(self._c) == 1:
            n, d = self._c.get((0, 0), (None, None))
            if n is not None and not d and n.is_ground:
                return n.LC
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
        for (h, r), c in sorted(self.parts.items(), key=lambda kv: kv[0]):
            tag = "".join(["H" * h, "R" * r])
            bits.append(f"({c})" + ("*" + tag if tag else ""))
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
        return Scalar(self.ring, {k: (-n, d) for k, (n, d) in self._c.items()},
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
                return a._scaled(k)
        parts = {}
        for (h1, r1), c1 in self._c.items():
            for (h2, r2), c2 in other._c.items():
                k = (h1 + h2, r1 + r2)
                c = _mul(c1, c2)
                parts[k] = _add(parts[k], c) if k in parts else c
        return Scalar(self.ring, parts)

    __rmul__ = __mul__

    def _scaled(self, k) -> "Scalar":
        """self times a constant k of the coefficient domain.  A reduced
        fraction times a nonzero constant stays reduced, so scaling the
        numerators skips the fold and the reduction; k = 0 leaves zero
        numerators, which are dropped."""
        return Scalar(self.ring, {key: (n.mul_ground(k), d)
                                  for key, (n, d) in self._c.items()},
                      _canonical=True)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; the extension is a field, so this exists
        for every nonzero element."""
        if self.is_zero():
            raise CoefficientError("division by identically-zero coefficient")
        ring = self.ring
        # Multiplying by the conjugate in H (negated H-odd part) leaves no
        # H-odd part; then the conjugate in R leaves a rational norm.  A
        # conjugation with nothing to negate is skipped.
        conjugates = []
        norm = self
        for slot in (0, 1):
            if any(k[slot] for k in norm._c):
                conj = Scalar(ring, {k: ((-n, d) if k[slot] else (n, d))
                                     for k, (n, d) in norm._c.items()},
                              _canonical=True)
                norm = norm * conj
                conjugates.append(conj)
        assert norm._c.keys() <= {(0, 0)}, "rationalization failed"
        if norm.is_zero():
            raise CoefficientError("division by identically-zero coefficient")
        num, den = norm._c[(0, 0)]
        c, factors = ring._split(num)
        inv_num = ring.poly.one
        for f, e in den.items():
            inv_num = inv_num * f**e
        out = Scalar(ring, {(0, 0): (inv_num.quo_ground(c), factors)})
        for conj in conjugates:
            out = conj * out
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
        return Scalar(self.ring,
                      {k: (conj(n), {conj(f): e for f, e in d.items()})
                       for k, (n, d) in self._c.items()},
                      _canonical=True)

    def boost_derivative(self, axis: int) -> "Scalar":
        """The commutator [K_axis, c] as a derivation on the ring.

        Generated by [K_a, P_b] = i*H*delta_ab, [K_a, H] = i*P_a and the
        induced [K_a, R] = i*H*P_a/R.
        """
        ring = self.ring
        i_pa = ring._p[axis].mul_ground(ring._i)
        out = {}

        def acc(key, val):
            out[key] = _add(out[key], val) if key in out else val

        for (h, r), c in self._c.items():
            # i*H * dc/dP_a, same H/R exponents plus one H
            dn, dd = _diff(c, axis)
            if dn:
                acc((h + 1, r), (dn.mul_ground(ring._i), dd))
            if h:
                # c * i*P_a * H^{h-1} R^r
                acc((h - 1, r), (c[0] * i_pa, c[1]))
            if r:
                # c H^h * i*H*P_a*R/psq * R^{r-1}
                acc((h + 1, r), _over((c[0] * i_pa, c[1]), ring.psq))
        return Scalar(ring, out)

    def rotation_derivative(self, axis: int) -> "Scalar":
        """The commutator [J_axis, c]: i*eps_{abc} P_c dc/dP_b (H, R are
        rotation invariant)."""
        ring = self.ring
        out = {}
        for key, c in self._c.items():
            d = None
            for b in range(3):
                for cc in range(3):
                    e = eps(axis, b, cc)
                    if e:
                        dn, dd = _diff(c, b)
                        if dn:
                            term = (dn * ring._p[cc].mul_ground(ring._i * e),
                                    dd)
                            d = term if d is None else _add(d, term)
            if d is not None:
                out[key] = d
        return Scalar(ring, out)
