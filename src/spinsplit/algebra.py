"""Exact operator algebra over the coefficient ring.

Operators are finite sums of monomials ``coefficient * word`` where the
coefficient lives in :class:`spinsplit.scalars.Ring` (it carries H, the
momentum components and their rational functions) and the word is a
PBW-ordered product of the six non-scalar generators

    J1 <= J2 <= J3 <= K1 <= K2 <= K3.

Reordering uses the commutation relations

    [J_a, J_b] = i eps_abc J_c
    [J_a, K_b] = i eps_abc K_c
    [K_a, K_b] = -i eps_abc J_c

stated once, as one rule, in ``_gen_commutator``: the engine's own copy,
independent of the ``poincare.BRACKETS`` table that the catalog checks it
against.
Reordering a word produces constants only, exact Gaussian integers held
as (re, im) pairs of ints like the coefficients of the ring's
polynomials (``Poly``); they are summed and multiplied as pairs,
memoized per (word, generator) for every ring, and scale a coefficient
by multiplying its numerators.  Coefficients are moved through
generators with the derivation rules implemented on
:class:`~spinsplit.scalars.Scalar`.  Every public operation returns a
fully normal-ordered expression, so equality is structural: two
expressions are equal iff they have the same words with equal
coefficients.
"""

from __future__ import annotations

import sympy as sp

from .poincare import eps
from .poly import gaussian_mul
from .scalars import CoefficientError, Ring, Scalar

__all__ = [
    "OperatorExpr",
    "VectorExpr",
    "op_scalar",
    "op_H",
    "op_P",
    "op_Pmag",
    "op_m",
    "gen_J",
    "gen_K",
    "vec_J",
    "vec_K",
    "vec_P",
    "vec_Phat",
    "commutator",
]

# Generator indices: 0..2 = J1..J3, 3..5 = K1..K3.  The engine's
# constants are Gaussian integers, (re, im) pairs of ints.
_ONE = (1, 0)

GENERATOR_NAMES = ("J[1]", "J[2]", "J[3]", "K[1]", "K[2]", "K[3]")


def _gen_commutator(a: int, b: int):
    """[g_a, g_b] as a list of (generator, constant): i eps J for [J, J],
    i eps K for [J, K] and [K, J], -i eps J for [K, K]."""
    boosts = (a >= 3) + (b >= 3)
    sign = -1 if boosts == 2 else 1
    shift = 3 if boosts == 1 else 0
    return [(c + shift, (0, sign * e)) for c in range(3)
            if (e := eps(a % 3, b % 3, c))]


def _collect(terms) -> dict:
    """Sum (word, constant) terms by word; zero sums are dropped."""
    out: dict = {}
    for w, c in terms:
        if w in out:
            old = out[w]
            c = (old[0] + c[0], old[1] + c[1])
        out[w] = c
    return {w: c for w, c in out.items() if c[0] or c[1]}


_insert_memo: dict = {}


def _insert_gen(word: tuple, g: int) -> dict:
    """Normal-order ``word * g`` for an already-ordered word.

    Returns {word: constant}.  Constants are ring-independent
    Gaussian integers, so results are memoized globally.
    """
    key = (word, g)
    cached = _insert_memo.get(key)
    if cached is not None:
        return cached
    if not word or word[-1] <= g:
        out = {word + (g,): _ONE}
    else:
        head, last = word[:-1], word[-1]
        # last*g = g*last + [last, g]
        out = _collect(
            [(w3, gaussian_mul(c2, c3))
             for w2, c2 in _insert_gen(head, g).items()
             for w3, c3 in _insert_gen(w2, last).items()]
            + [(w3, gaussian_mul(ch, c3)) for h, ch in _gen_commutator(last, g)
               for w3, c3 in _insert_gen(head, h).items()])
    _insert_memo[key] = out
    return out


def _word_mul(w1: tuple, w2: tuple) -> dict:
    """Normal-order the concatenation of two ordered words:
    {word: constant}."""
    acc = {w1: _ONE}
    for g in w2:
        acc = _collect((w3, gaussian_mul(c, c3)) for w, c in acc.items()
                       for w3, c3 in _insert_gen(w, g).items())
    return acc


def _deriv(g: int, c: Scalar) -> Scalar:
    """[g, c] for a generator and a scalar coefficient."""
    if g < 3:
        return c.rotation_derivative(g)
    return c.boost_derivative(g - 3)


def _word_times_scalar(word: tuple, c: Scalar):
    """Move a scalar left through an ordered word: word*c as [(Scalar, word)].

    Subwords keep their relative order, so no generator reordering is
    needed here.
    """
    if not word:
        return [(c, ())]
    g, rest = word[0], word[1:]
    out = []
    for c2, w2 in _word_times_scalar(rest, c):
        out.append((c2, (g,) + w2))
        dc = _deriv(g, c2)
        if not dc.is_zero():
            out.append((dc, w2))
    return out


class OperatorExpr:
    """A normal-ordered sum of (scalar coefficient, generator word) terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict | None = None):
        self.ring = ring
        clean = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    clean[w] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_scalar(cls, c: Scalar) -> "OperatorExpr":
        return cls(c.ring, {(): c})

    @classmethod
    def from_generator(cls, ring: Ring, g: int) -> "OperatorExpr":
        return cls(ring, {(g,): ring.one()})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar_valued(self) -> bool:
        return all(w == () for w in self.terms)

    def scalar_part(self) -> Scalar:
        return self.terms.get((), self.ring.zero())

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("OperatorExpr is unhashable; compare with ==")

    def __repr__(self):
        if self.is_zero():
            return "OperatorExpr(0)"
        bits = []
        for w in sorted(self.terms):
            gens = "*".join(GENERATOR_NAMES[g] for g in w) or "1"
            bits.append(f"{self.terms[w]!r} * {gens}")
        return "OperatorExpr(" + "  +  ".join(bits) + ")"

    # -- ring arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, OperatorExpr):
            return other
        if isinstance(other, Scalar):
            return OperatorExpr.from_scalar(other)
        if isinstance(other, (int, sp.Expr)):
            return OperatorExpr.from_scalar(self.ring.from_expr(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms[w] + c if w in terms else c
        return OperatorExpr(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return OperatorExpr(self.ring, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                for cmid, wmid in _word_times_scalar(w1, c2):
                    c = c1 * cmid
                    for w3, k in _word_mul(wmid, w2).items():
                        add = c._scaled(k)
                        out[w3] = out[w3] + add if w3 in out else add
        return OperatorExpr(self.ring, out)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __truediv__(self, other):
        """Division by a scalar-valued expression: multiplication by its
        inverse on the left, ``q / s == Pow(s,-1) * q`` as in the operator
        language (the inverse is central only up to derivation terms)."""
        if isinstance(other, (int, sp.Expr)):
            other = self.ring.from_expr(other)
        if isinstance(other, Scalar):
            inv = other.inverse()
            return OperatorExpr.from_scalar(inv) * self
        if isinstance(other, OperatorExpr):
            if not other.is_scalar_valued():
                raise CoefficientError("division by operator-valued expression")
            return self / other.scalar_part()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("integer exponent required")
        if n < 0:
            if not self.is_scalar_valued():
                raise CoefficientError(
                    "negative power of operator-valued expression"
                )
            return OperatorExpr.from_scalar(self.scalar_part() ** n)
        out = OperatorExpr.from_scalar(self.ring.one())
        for _ in range(n):
            out = out * self
        return out

    # -- algebra operations -----------------------------------------------

    def adjoint(self) -> "OperatorExpr":
        """Hermitian adjoint: reverses words, conjugates i; H, P, J, K are
        self-adjoint."""
        one = self.ring.one()
        out = OperatorExpr(self.ring)
        for w, c in self.terms.items():
            rev = _word_mul((), w[::-1])
            out = out + OperatorExpr(
                self.ring, {w2: one._scaled(k) for w2, k in rev.items()}
            ) * OperatorExpr.from_scalar(c.conjugate())
        return out


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return a * b - b * a


class VectorExpr:
    """Three operator components indexed by a Cartesian axis."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if len(comps) != 3:
            raise ValueError("a vector has exactly three components")
        self.components = comps

    def __getitem__(self, a: int) -> OperatorExpr:
        return self.components[a]

    def __iter__(self):
        return iter(self.components)

    @property
    def ring(self):
        return self.components[0].ring

    def __add__(self, other):
        return VectorExpr(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        return VectorExpr(a - b for a, b in zip(self, other))

    def __neg__(self):
        return VectorExpr(-a for a in self)

    def __mul__(self, other):
        return VectorExpr(a * other for a in self)

    def __rmul__(self, other):
        return VectorExpr(other * a for a in self)

    def __truediv__(self, other):
        return VectorExpr(a / other for a in self)

    def __eq__(self, other):
        if not isinstance(other, VectorExpr):
            return NotImplemented
        return all(a == b for a, b in zip(self, other))

    def __hash__(self):
        raise TypeError("VectorExpr is unhashable; compare with ==")

    def dot(self, other: "VectorExpr") -> OperatorExpr:
        """Order-preserving sum a_i * b_i."""
        out = self[0] * other[0]
        for a in (1, 2):
            out = out + self[a] * other[a]
        return out

    def cross(self, other: "VectorExpr") -> "VectorExpr":
        """Order-preserving eps_ijk a_j b_k."""
        comps = []
        for i in range(3):
            acc = None
            for j in range(3):
                for k in range(3):
                    e = eps(i, j, k)
                    if e:
                        term = self[j] * other[k] * e
                        acc = term if acc is None else acc + term
            comps.append(acc)
        return VectorExpr(comps)


# -- generator builders ----------------------------------------------------


def op_scalar(ring: Ring, expr) -> OperatorExpr:
    return OperatorExpr.from_scalar(ring.from_expr(expr))


def op_H(ring: Ring) -> OperatorExpr:
    return OperatorExpr.from_scalar(ring.H())


def op_m(ring: Ring) -> OperatorExpr:
    return OperatorExpr.from_scalar(ring.m())


def op_P(ring: Ring, axis: int) -> OperatorExpr:
    return OperatorExpr.from_scalar(ring.P(axis))


def op_Pmag(ring: Ring) -> OperatorExpr:
    return OperatorExpr.from_scalar(ring.R())


def gen_J(ring: Ring, axis: int) -> OperatorExpr:
    return OperatorExpr.from_generator(ring, axis)


def gen_K(ring: Ring, axis: int) -> OperatorExpr:
    return OperatorExpr.from_generator(ring, axis + 3)


def vec_J(ring: Ring) -> VectorExpr:
    return VectorExpr(gen_J(ring, a) for a in range(3))


def vec_K(ring: Ring) -> VectorExpr:
    return VectorExpr(gen_K(ring, a) for a in range(3))


def vec_P(ring: Ring) -> VectorExpr:
    return VectorExpr(op_P(ring, a) for a in range(3))


def vec_Phat(ring: Ring) -> VectorExpr:
    return VectorExpr(
        OperatorExpr.from_scalar(ring.Phat(a)) for a in range(3)
    )
