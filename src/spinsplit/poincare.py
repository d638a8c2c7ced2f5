"""The Poincare bracket table and the Levi-Civita symbol: the data both
engines read, in plain Python.

The exact operator algebra (:mod:`spinsplit.algebra`,
:mod:`spinsplit.identities`) and the numerical one
(:mod:`spinsplit.reps`, :mod:`spinsplit.connections`,
:mod:`spinsplit.splitting`) take the brackets and ``eps`` from here.  The
module imports only the standard library, so loading the numerical
engine loads neither sympy nor the symbolic modules.
"""

from __future__ import annotations

import itertools

__all__ = ["BRACKETS", "bracket_axes", "bracket_terms", "eps"]

# Levi-Civita on 0-based axes: the sign of each permutation of (0, 1, 2),
# -1 to the number of its inversions
_EPS = {p: (-1) ** sum(x > y for x, y in itertools.combinations(p, 2))
        for p in itertools.permutations(range(3))}


def eps(a, b, c):
    """Levi-Civita symbol with 0-based axes; 0 on repeated indices."""
    return _EPS.get((a, b, c), 0)


# per axis a, the (b, c, eps_abc) of the nonzero symbols, b ascending
_EPS_PAIRS = tuple(tuple((b, c, eps(a, b, c)) for b in range(3)
                         for c in range(3) if eps(a, b, c))
                   for a in range(3))

# The ten bracket families [A_a, B_b] among {J, K, P, H}, as (sign, C) with
#   [A_a, B_b] = i sign eps_abc C_c    (A, B and C vectors: JJ, JK, KK, JP)
#   [A_a, B_b] = i sign delta_ab C     (C = H a scalar: KP)
#   [A_a, B]   = i sign C_a            (B = H a scalar: KH)
# or None where the bracket vanishes (JH, PP, PH, HH).  The identity
# catalog and the numerical algebra check both read this table.  The
# normal-ordering engine does not: ``algebra._gen_commutator`` keeps its
# own one-rule copy of the J, K brackets with domain constants, so the
# catalog checks the engine against the table.
BRACKETS = {
    "JJ": (1, "J"),
    "JK": (1, "K"),
    "KK": (-1, "J"),
    "JP": (1, "P"),
    "KP": (1, "H"),
    "KH": (1, "P"),
    "JH": None,
    "PP": None,
    "PH": None,
    "HH": None,
}


def bracket_axes(letter: str):
    """The axes of generator ``letter``: none (None) for H, 0..2 else."""
    return (None,) if letter == "H" else range(3)


def bracket_terms(family: str, a: int | None, b: int | None) -> list:
    """[A_a, B_b] / i for the ``BRACKETS`` family "AB", as a list of
    (coefficient, generator letter, axis) terms; the axis of H is None,
    as is ``a`` or ``b`` where A or B is H."""
    entry = BRACKETS[family]
    if entry is None:
        return []
    sign, target = entry
    if target == "H":
        return [(sign, target, None)] if a == b else []
    if b is None:
        return [(sign, target, a)]
    return [(sign * eps(a, b, c), target, c) for c in range(3)
            if eps(a, b, c)]
