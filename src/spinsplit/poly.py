"""Sparse polynomials in P1, P2, P3, m over the Gaussian integers Z[i].

A :class:`Poly` maps exponent tuples (e1, e2, e3, e4) of P1, P2, P3, m to
nonzero coefficients, each a pair (re, im) of ints standing for re + im*i.
Tuples compare in lex order with P1 first, the exact engine's term order,
so the leading term is the one with the largest tuple.

A ``Poly`` never changes after construction and caches its hash, so it
keys the engine's memos.  Only the operations the engine uses are here:
sums, products, powers, scaling by a Gaussian integer, exact division
(``exquo`` returns None where the divisor does not divide, and no step
rounds), derivatives, degrees, content, leading term, and the univariate
images mod a prime that the printer's coprimality screen compares with
``gcd_mod``.  Standard library only.
"""

from __future__ import annotations

__all__ = ["Poly", "ZERO", "ONE", "canonical_unit", "gaussian_gcd",
           "gaussian_mul", "gcd_mod"]

_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # the powers of i
_CONSTANT = (0, 0, 0, 0)


# -- Gaussian integers as (re, im) pairs --------------------------------------


def canonical_unit(c):
    """The unit u for which u*c lies in the first quadrant (real part > 0,
    imaginary part >= 0); 1 for zero."""
    x, y = c
    if y > 0:
        quadrant = 0 if x > 0 else 1
    elif y < 0:
        quadrant = 2 if x < 0 else 3
    else:
        quadrant = 0 if x >= 0 else 2
    return _UNITS[-quadrant]


def gaussian_mul(a, b):
    (ax, ay), (bx, by) = a, b
    return ax * bx - ay * by, ax * by + ay * bx


def _gquo(a, b):
    """a / b for Gaussian integers if b divides a, else None."""
    (ax, ay), (bx, by) = a, b
    if not by:
        if bx == 1:
            return a
        if ax % bx or ay % bx:
            return None
        return ax // bx, ay // bx
    n = bx * bx + by * by
    x, y = ax * bx + ay * by, ay * bx - ax * by
    if x % n or y % n:
        return None
    return x // n, y // n


def gaussian_gcd(a, b):
    """The gcd of two Gaussian integers, in the first quadrant: Euclid's
    algorithm with the quotient rounded to the nearest Gaussian integer,
    so each remainder has at most half the norm of the divisor."""
    while b[0] or b[1]:
        (ax, ay), (bx, by) = a, b
        n = bx * bx + by * by
        x, y = ax * bx + ay * by, ay * bx - ax * by
        qx, qy = (2 * x + n) // (2 * n), (2 * y + n) // (2 * n)
        a, b = b, (ax - qx * bx + qy * by, ay - qx * by - qy * bx)
    return gaussian_mul(a, canonical_unit(a))


# -- polynomials -------------------------------------------------------------


class Poly:
    """An immutable sparse polynomial in P1, P2, P3, m over Z[i] (module
    docstring).  The constructor takes ownership of ``terms``, a dict of
    exponent tuple -> nonzero (re, im) pair, which nothing changes
    afterwards."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict):
        self._terms = terms
        self._hash = None

    @staticmethod
    def constant(c) -> "Poly":
        """The constant polynomial c, a Gaussian integer pair."""
        return Poly({_CONSTANT: c} if c[0] or c[1] else {})

    @staticmethod
    def gen(j: int) -> "Poly":
        """The j-th variable: P1, P2, P3 and m for j = 0..3."""
        mono = [0, 0, 0, 0]
        mono[j] = 1
        return Poly({tuple(mono): (1, 0)})

    # -- queries ------------------------------------------------------------

    def items(self):
        return self._terms.items()

    def values(self):
        return self._terms.values()

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    @property
    def is_ground(self) -> bool:
        """True for a constant, zero included."""
        t = self._terms
        return not t or (len(t) == 1 and _CONSTANT in t)

    @property
    def LC(self):
        """The coefficient of the leading term; (0, 0) for zero."""
        t = self._terms
        return t[max(t)] if t else (0, 0)

    def degrees(self):
        """The degree in each variable; -1 in each for zero."""
        out = [-1, -1, -1, -1]
        for mono in self._terms:
            for j in range(4):
                if mono[j] > out[j]:
                    out[j] = mono[j]
        return tuple(out)

    def content(self):
        """The gcd of the coefficients, in the first quadrant."""
        g = (0, 0)
        for c in self._terms.values():
            g = gaussian_gcd(c, g)
            if g == (1, 0):
                break
        return g

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        for mono, (x, y) in sorted(self._terms.items(), reverse=True):
            powers = [name + (f"**{e}" if e > 1 else "")
                      for name, e in zip(("P1", "P2", "P3", "m"), mono) if e]
            bits.append("*".join([f"({x}{y:+d}*I)" if y else str(x)]
                                 + powers))
        return " + ".join(bits)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return Poly({m: (-x, -y) for m, (x, y) in self._terms.items()})

    def __add__(self, other):
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        for m, c in b.items():
            old = out.get(m)
            if old is None:
                out[m] = c
            else:
                x, y = old[0] + c[0], old[1] + c[1]
                if x or y:
                    out[m] = (x, y)
                else:
                    del out[m]
        return Poly(out)

    def __sub__(self, other):
        out = self._terms.copy()
        for m, (cx, cy) in other._terms.items():
            old = out.get(m)
            if old is None:
                out[m] = (-cx, -cy)
            else:
                x, y = old[0] - cx, old[1] - cy
                if x or y:
                    out[m] = (x, y)
                else:
                    del out[m]
        return Poly(out)

    def scale(self, k) -> "Poly":
        """self times the Gaussian integer k, a pair."""
        kx, ky = k
        if not ky:
            if kx == 1:
                return self
            if not kx:
                return Poly({})
            return Poly({m: (x * kx, y * kx)
                         for m, (x, y) in self._terms.items()})
        return Poly({m: (x * kx - y * ky, x * ky + y * kx)
                     for m, (x, y) in self._terms.items()})

    def quo_ground(self, k) -> "Poly":
        """self divided by a Gaussian integer k that divides every
        coefficient."""
        return Poly({m: _gquo(c, k) for m, c in self._terms.items()})

    def conjugate(self) -> "Poly":
        """The complex conjugate of every coefficient."""
        return Poly({m: (x, -y) for m, (x, y) in self._terms.items()})

    def __mul__(self, other):
        if len(self._terms) < len(other._terms):
            self, other = other, self
        a, b = self._terms, other._terms
        if len(b) <= 1:
            if not b:
                return Poly({})
            ((mb, (bx, by)),) = b.items()
            if mb == _CONSTANT:
                return self.scale((bx, by))
            b0, b1, b2, b3 = mb
            if not by:
                return Poly({(e0 + b0, e1 + b1, e2 + b2, e3 + b3):
                             (x * bx, y * bx)
                             for (e0, e1, e2, e3), (x, y) in a.items()})
            return Poly({(e0 + b0, e1 + b1, e2 + b2, e3 + b3):
                         (x * bx - y * by, x * by + y * bx)
                         for (e0, e1, e2, e3), (x, y) in a.items()})
        return Poly(_mul_terms(a, b))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        t = self._terms
        if len(t) == 1:
            ((mono, c),) = t.items()
            k = (1, 0)
            for _ in range(n):
                k = gaussian_mul(k, c)
            return Poly({tuple(e * n for e in mono): k})
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def exquo(self, f) -> "Poly | None":
        """self / f if f divides self over Z[i], else None.

        Lex division by one polynomial: while f divides self, each
        remainder's leading term is a multiple of f's, so the first step
        whose leading monomial or coefficient does not divide decides
        None.  The lowest monomial of a product is the product of the
        factors' lowest monomials, which rules most cases out first."""
        t, ft = self._terms, f._terms
        if not ft:
            raise ZeroDivisionError("polynomial division by zero")
        if len(ft) == 1:
            ((fm, fc),) = ft.items()
            f0, f1, f2, f3 = fm
            out = {}
            for (e0, e1, e2, e3), c in t.items():
                d = (e0 - f0, e1 - f1, e2 - f2, e3 - f3)
                q = _gquo(c, fc)
                if q is None or min(d) < 0:
                    return None
                out[d] = q
            return Poly(out)
        if not t:
            return self
        lo, flo = min(t), min(ft)
        if (lo[0] < flo[0] or lo[1] < flo[1] or lo[2] < flo[2]
                or lo[3] < flo[3]):
            return None
        lm = max(ft)
        lc = ft[lm]
        l0, l1, l2, l3 = lm
        rest = [(m, c) for m, c in ft.items() if m != lm]
        r = t.copy()
        q = {}
        while r:
            m = max(r)
            d = (m[0] - l0, m[1] - l1, m[2] - l2, m[3] - l3)
            qc = _gquo(r.pop(m), lc)
            if qc is None or min(d) < 0:
                return None
            q[d] = qc
            qx, qy = qc
            d0, d1, d2, d3 = d
            for (g0, g1, g2, g3), (fx, fy) in rest:
                k = (d0 + g0, d1 + g1, d2 + g2, d3 + g3)
                px, py = qx * fx - qy * fy, qx * fy + qy * fx
                old = r.get(k)
                if old is None:
                    r[k] = (-px, -py)
                else:
                    x, y = old[0] - px, old[1] - py
                    if x or y:
                        r[k] = (x, y)
                    else:
                        del r[k]
        return Poly(q)

    def diff(self, j: int) -> "Poly":
        """The derivative in the j-th variable."""
        out = {}
        for mono, (x, y) in self._terms.items():
            e = mono[j]
            if e:
                out[mono[:j] + (e - 1,) + mono[j + 1:]] = (x * e, y * e)
        return Poly(out)

    def evaluate(self, j: int, point, p: int, root: int):
        """The univariate image in the j-th variable over the integers mod
        p: every other variable k set to point[k], and i to ``root``, a
        square root of -1 mod p.  The coefficients come lowest degree
        first, with no trailing zero; [] for a zero image."""
        powers = {}
        out = {}
        for mono, (x, y) in self._terms.items():
            v = x + y * root
            for k in range(4):
                e = mono[k]
                if e and k != j:
                    pk = powers.get((k, e))
                    if pk is None:
                        pk = powers[(k, e)] = pow(point[k], e, p)
                    v *= pk
            e = mono[j]
            out[e] = (out.get(e, 0) + v) % p
        coeffs = [out.get(e, 0) for e in range(max(out, default=-1) + 1)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return coeffs


def _mul_terms(a: dict, b: dict) -> dict:
    """The terms of the product of two term dicts, each with two terms or
    more."""
    out = {}
    get = out.get
    bs = list(b.items())
    for (a0, a1, a2, a3), (ax, ay) in a.items():
        for (b0, b1, b2, b3), (bx, by) in bs:
            k = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            x, y = ax * bx - ay * by, ax * by + ay * bx
            old = get(k)
            out[k] = (x, y) if old is None else (old[0] + x, old[1] + y)
    return {k: c for k, c in out.items() if c[0] or c[1]}


def gcd_mod(a: list, b: list, p: int) -> list:
    """The monic gcd of two univariate polynomials over the integers mod a
    prime p, coefficients lowest degree first (as ``Poly.evaluate`` gives
    them); [] when both are zero."""
    while b:
        inv = pow(b[-1], -1, p)
        a = a[:]
        db = len(b) - 1
        while len(a) > db:
            c = a[-1] * inv % p
            shift = len(a) - 1 - db
            for k in range(db):
                a[shift + k] = (a[shift + k] - c * b[k]) % p
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


ZERO = Poly({})
ONE = Poly({_CONSTANT: (1, 0)})
