"""Connection-induced splittings of the angular momentum J = L + S,
their diagnostics, and the flat-connection position operator.

Every operator here reads its representation and grid from the section
it acts on; a splitting is fixed by its connection alone.  For a
connection D, the orbital part acts along the rotational tangent fields
V_a = e_a x k, read from ``_ROTATIONAL`` when L is applied:

    L_a psi = -i D_{V_a} psi          S_a psi = J_a psi - L_a psi

On a whole section L_a is ``connections.apply_connection`` along V_a
times -i, so the one whole-section covariant loop is that module's.  S
is always computed by subtraction, so L + S = J holds to rounding by
construction.  The diagnostics measure, on smooth test sections:

  * the vector-operator property  [L_a, J_b] = i eps_abc L_c  (and for S),
  * the so(3) residual  [L_a, L_b] - i eps_abc L_c,
  * the defect identity [L_a, L_b] - i eps_abc L_c = -F_D(V_a, V_b),
  * the massless parallel/perpendicular commutator relation, which needs
    no connection: Jpar_a = khat_a (S.khat) and Jperp_a = J_a - Jpar_a.

All four run through one sweep, ``_vector_op_residuals``, which takes
the operator X as a shell action: X_a v for any axes at once on one
radial shell of a pass (``reps._ShellPass``), from that pass's
derivatives.  L is ``SplitOperators._shell`` and Jperp is
``_perp_shell``.  One shell loop over psi gives X_c psi, and J_c psi
when the vector-operator parts of L and S (always together) are asked
for; a second loop meets the pairs shell by shell, and each pair leaves
only its weighted density until its norm is taken.  The so(3) part
subtracts khat_c P psi from its target X_c psi when given a pointwise
shell action P (chi for the Jperp closure, which keeps chi psi as one
whole section), and takes an optional addend per pair (F(V_a, V_b) psi
for the defect identity, taken on whole sections before the sweep).

In whole-section derivative passes, radial and angular:
``so3_residual`` takes 4 and 4, all three parts in one call
(``vector_op_residual``) 7 and 10, the defect identity 13 and 13 (4
plus 3 per curvature commutator), and the Jperp closure 0 and 4.
Traced peaks at (8, 48, 96), in sections of 1.77 MB, massive spin 1
with the flat connection: the three parts 13.56, so(3) alone 6.53 and
the defect 9.57; the Jperp closure on massless helicity +1 peaks at
6.28.  Each value equals, bit for bit, the one-field loop per pair.
The largest residual is taken with ``np.max``, which returns NaN when
any residual is NaN; the builtin ``max`` would keep a number found
before it.

The affine connection with weight f = H/m is flat; +i times its
covariant derivative along the constant Cartesian directions is the
mean (Newton-Wigner) position operator (``_q_affine``).  This module
also builds it directly from its closed form in the generators
(``_q_closed_form``); it acts as the plain componentwise gradient
i*grad in the coordinates used here.
"""

from __future__ import annotations

import numpy as np

from .connections import (
    ConnectionKind,
    TangentField,
    _covariant_shell,
    apply_connection,
    apply_connections,
    curvature_commutator,
)
from .grid import Section, _norm_of_density, _weighted_density
from .poincare import _EPS_PAIRS, eps
from .reps import (
    _act_chi,
    _act_J,
    _actions,
    _by_shell,
    _ShellPass,
    _test_norm,
    inner,
)

__all__ = [
    "SplittingError",
    "SplitOperators",
    "so3_residual",
    "vector_op_residual",
    "defect_identity_residual",
    "jperp_so3_residual",
    "nw_match_residual",
    "nw_gradient_residual",
    "nw_hermiticity_defect",
]


class SplittingError(ValueError):
    """Invalid splitting request: a section of the wrong kind of rep."""


_ROTATIONAL = tuple(TangentField.rotational(a) for a in range(3))


class SplitOperators:
    """The splitting of J induced by the connection ``kind``, on any
    section."""

    __slots__ = ("kind",)

    def __init__(self, kind: ConnectionKind):
        self.kind = kind

    def _shell(self, p: _ShellPass, axes, out, s_part=False) -> None:
        """L_a v, or S_a v = J_a v - L_a v when ``s_part``, on the shell
        of the pass p for each axis in ``axes``, written into the
        shell-sized arrays of ``out``: the shell action of L."""
        f = self.kind.weight(p.sh.r, p.rep.mass)[0]
        _covariant_shell(p, self.kind, f, [_ROTATIONAL[a] for a in axes],
                         out)
        for a, o in zip(axes, out):
            o *= -1j
            if s_part:
                np.subtract(p.J(a), o, out=o)

    def L(self, a: int, psi: Section) -> Section:
        out = apply_connection(self.kind, _ROTATIONAL[a], psi)
        out.values *= -1j
        return out

    def J(self, a: int, psi: Section) -> Section:
        return Section(psi.rep, psi.grid,
                       _act_J(psi.rep, psi.grid, a, psi.values))

    def S(self, a: int, psi: Section) -> Section:
        return self.J(a, psi) - self.L(a, psi)


def _chi(p: _ShellPass) -> np.ndarray:
    """chi v = (S.khat) v on the shell of the pass p, built once and kept
    on the pass."""
    return p._once("chi", lambda: _act_chi(p.rep, p.sh, p.v))


def _perp_shell(p: _ShellPass, axes, out) -> None:
    """Jperp_a v = J_a v - khat_a chi v on the shell of the pass p for
    each axis in ``axes``, written into ``out``: the shell action of the
    massless perpendicular angular momentum."""
    for a, o in zip(axes, out):
        np.subtract(p.J(a), p.sh.khat[a][..., None] * _chi(p), out=o)


_PAIRS = ((0, 1), (0, 2), (1, 2))
# the (a, b) of the so(3) part and of each vector-operator part
_PART_PAIRS = {"so3": _PAIRS, **dict.fromkeys(
    "LS", tuple((a, b) for a in range(3) for b in range(3)))}


def _vector_op_residuals(act, psi: Section, vector=False, parallel=None,
                         addend=None) -> list:
    """[so3], or [so3, L, S] when ``vector``, for the operator X with the
    shell action ``act(p, axes, out)`` (``SplitOperators._shell`` for L,
    ``_perp_shell`` for Jperp): so3 is the max over a < b of
    ||([X_a, X_b] - i eps_abc T_c + A_ab) psi|| / ||psi||, and L and S
    are the vector-operator residuals, max over (a, b) of
    ||([Y_a, J_b] - i eps_abc Y_c) psi|| / ||psi||, of Y = X and
    Y = J - X.  The target T_c psi is X_c psi, or X_c psi - khat_c P psi
    when the pointwise shell action P = ``parallel`` is given; the addend
    A_ab psi is the whole section ``addend[a, b]``, or none.

    One shell loop over psi builds X_c psi, P psi when P is given, and
    J_c psi when ``vector``; T_c psi and (J - X)_c psi = J_c psi - X_c psi
    are formed on each shell where they are read.  Then one shell loop
    serves every pair of every part, and on each shell it takes
      - the pass of each X_c psi once: its X_a (X_c psi) gives both
        so(3) halves for a != c, and its J_b (X_c psi) the trailing X
        half for every b;
      - the pass of each J_b psi once: its X_a (J_b psi) gives the
        leading X half and, subtracted from J_a (J_b psi), the leading
        J - X half, formed in the X half's array once that has met its
        partner;
      - the angular pass of each (J - X)_a psi once: its J_b ((J - X)_a
        psi) gives the trailing J - X half for every b.
    In this order at most nine vector-operator halves and two so(3)
    halves, each one shell in size, wait for their partners.  A finished
    pair leaves only its weighted density on the shell, and its norm is
    taken over the whole grid at the end.  Every value is built by the
    arithmetic of the one-field call per pair, so each residual equals it
    bit for bit."""
    rep, grid, v = psi.rep, psi.grid, psi.values
    nrm = _test_norm(psi)
    w = grid.invariant_weights
    x_psi = [np.empty_like(v) for _ in range(3)]
    j_psi = [np.empty_like(v) for _ in range(3)] if vector else []
    p_psi = np.empty_like(v) if parallel else None
    for p in _by_shell(rep, grid, v):
        s = slice(p.i, p.i + 1)
        act(p, range(3), [val[s] for val in x_psi])
        for c, val in enumerate(j_psi):
            val[s] = p.J(c)
        if parallel:
            p_psi[s] = parallel(p)
    del p
    parts = ("so3", "L", "S") if vector else ("so3",)
    dens = {(x, a, b): np.empty(grid.shape)
            for x in parts for a, b in _PART_PAIRS[x]}
    for i in range(grid.n_r):
        s = slice(i, i + 1)
        waiting = {}

        def meet(pair, half, leads):
            # the leading half Y_a (Z_b psi) comes first, Z_b (Y_a psi)
            # is subtracted
            if pair not in waiting:
                waiting[pair] = half
                return
            other = waiting.pop(pair)
            x, a, b = pair
            out = half - other if leads else other - half
            del other
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    # Y_c psi on the shell, or T_c psi for so(3)
                    if x == "S":
                        y_c = j_psi[c][s] - x_psi[c][s]
                    elif x == "so3" and parallel:
                        y_c = (x_psi[c][s] - grid.shell(i).khat[c][..., None]
                               * p_psi[s])
                    else:
                        y_c = x_psi[c][s]
                    out = out - y_c * (1j * e)
                    del y_c
            if x == "so3" and addend:
                out = out + addend[a, b][s]
            dens[pair][s] = _weighted_density(w[s], out)

        for c in range(3):
            p = _ShellPass(rep, grid, i, x_psi[c][s], x_psi[c])
            others = [a for a in range(3) if a != c]
            x_x = [np.empty_like(p.v) for _ in others]
            act(p, others, x_x)
            for a, half in zip(others, x_x):
                meet(("so3", min(a, c), max(a, c)), half, a < c)
            del x_x, half
            for b in range(3 if vector else 0):
                meet(("L", c, b), p.J(b), False)
            del p
        for b in range(3 if vector else 0):
            p = _ShellPass(rep, grid, i, j_psi[b][s], j_psi[b])
            x_j = [np.empty_like(p.v) for _ in range(3)]
            act(p, range(3), x_j)
            for a in range(3):
                meet(("L", a, b), x_j[a], True)
                meet(("S", a, b), np.subtract(p.J(a), x_j[a],
                                              out=x_j[a]), True)
                x_j[a] = None
            del p
        for a in range(3 if vector else 0):
            p = _ShellPass(rep, grid, i, j_psi[a][s] - x_psi[a][s])
            for b in range(3):
                meet(("S", a, b), p.J(b), False)
            del p
    return [float(np.max([_norm_of_density(dens[x, a, b]) / nrm
                          for a, b in _PART_PAIRS[x]]))
            for x in parts]


def vector_op_residual(ops: SplitOperators, psi: Section):
    """(so3, vector_op): ``so3_residual`` and the larger of the
    vector-operator residuals of L and of S, max over (a,b) and X = L, S
    of ||([X_a, J_b] - i eps_abc X_c) psi|| / ||psi||, all three parts
    checked on one set of actions."""
    so3_part, *parts = _vector_op_residuals(ops._shell, psi, vector=True)
    return so3_part, float(np.max(parts))


def so3_residual(ops: SplitOperators, psi: Section) -> float:
    """max over (a,b) of ||([L_a, L_b] - i eps_abc L_c) psi|| / ||psi||."""
    return _vector_op_residuals(ops._shell, psi)[0]


def defect_identity_residual(ops: SplitOperators, psi: Section) -> float:
    """max over (a,b) of
    ||([L_a, L_b] - i eps_abc L_c + F(V_a, V_b)) psi|| / ||psi||:
    the so(3) failure of L equals minus the curvature evaluated on the
    rotational fields, for every connection."""
    curvature = {(a, b): curvature_commutator(
        ops.kind, _ROTATIONAL[a], _ROTATIONAL[b], psi).values
        for a, b in _PAIRS}
    return _vector_op_residuals(ops._shell, psi, addend=curvature)[0]


def jperp_so3_residual(psi: Section) -> float:
    """Massless: max over (a,b) of
    ||([Jperp_a, Jperp_b] - i eps_abc (Jperp_c - Jpar_c)) psi|| / ||psi||
    — the perpendicular parts close on the full algebra only after the
    parallel correction, so they do not generate rotations by themselves.
    Jpar_c = khat_c chi, and chi psi is kept from psi's pass."""
    if psi.rep.kind != "massless":
        raise SplittingError("the parallel/perpendicular split is the "
                             "massless decomposition; use L/S instead")
    return _vector_op_residuals(_perp_shell, psi, parallel=_chi)[0]


# -- the flat-connection (mean) position operator --------------------------------
#
# Q_a, built two ways from the same generator actions, so the two agree to
# rounding: +i times the flat affine connection along the constant
# Cartesian direction e_a, and the explicit generator expression
#
#     Q_a = (1/H) (K_a - i k_a/(2H))
#           - (1/(m H (H+m))) [k x (H J + k x K)]_a
#
# Q is self-adjoint under the invariant measure d^3k/H, and after the
# unitary rescaling by sqrt(H) (to plain-measure wave functions) it acts
# as the componentwise gradient i*grad.


_E = tuple(TangentField.constant(np.eye(3)[a]) for a in range(3))


def _require_massive(psi: Section) -> None:
    if psi.rep.kind != "massive":
        raise SplittingError(
            "the mean position operator needs m > 0 (no flat connection "
            "exists on the massless bundles)")


def _q_affine(psi: Section) -> list:
    """[Q_a psi for a = 0, 1, 2] as +i D^flat_{e_a} psi, from one
    derivative pass over psi."""
    _require_massive(psi)
    out = apply_connections(ConnectionKind.flat_massive(), _E, psi)
    return [Section(psi.rep, psi.grid, 1j * d.values) for d in out]


def _q_closed_form(psi: Section) -> list:
    """[Q_a psi for a = 0, 1, 2] from the generator expression, from one
    derivative pass over psi."""
    _require_massive(psi)
    rep, grid, kv = psi.rep, psi.grid, psi.values
    m = rep.mass
    omega = grid.omega[..., None]
    ks = (grid.kx, grid.ky, grid.kz)
    actions = _actions(rep, grid, kv,
                       [(tag, c) for tag in "JK" for c in range(3)])
    jpsi, kpsi = actions[:3], actions[3:]
    del actions
    # w_c = (H J + k x K)_c
    w = []
    for c in range(3):
        acc = omega * jpsi[c]
        for d, e_, s in _EPS_PAIRS[c]:
            acc = acc + s * ks[d][..., None] * kpsi[e_]
        w.append(acc)
    del jpsi
    coef = 1.0 / (m * omega * (omega + m))
    qs = []
    for a in range(3):
        out = (1.0 / omega) * (kpsi[a] - 1j * ks[a][..., None]
                               / (2.0 * omega) * kv)
        for b, c, s in _EPS_PAIRS[a]:
            out = out - coef * s * ks[b][..., None] * w[c]
        qs.append(Section(rep, grid, out))
    return qs


def nw_match_residual(psi: Section) -> float:
    """max_a || (Q_a^affine - Q_a^closed-form) psi || / ||psi||."""
    nrm = _test_norm(psi)
    qa = _q_affine(psi)
    qc = _q_closed_form(psi)
    return float(np.max([(qa[a] - qc[a]).norm() / nrm for a in range(3)]))


def nw_gradient_residual(psi: Section) -> float:
    """max_a || H^(-1/2) Q_a (H^(1/2) psi) - i (grad psi)_a || / ||psi||.

    The conjugation by sqrt(H) maps to the coordinates in which the
    inner product is the plain (unweighted) momentum integral; there the
    mean position operator acts as the componentwise gradient i*grad."""
    rep, grid = psi.rep, psi.grid
    nrm = _test_norm(psi)
    sqw = np.sqrt(grid.omega)
    q = _q_closed_form(psi * sqw)
    g = grid.gradient(psi.values)
    return float(np.max([
        ((q[a] * (1.0 / sqw))
         - Section(rep, grid, 1j * g[a])).norm() / nrm
        for a in range(3)
    ]))


def nw_hermiticity_defect(psi: Section, phi: Section) -> float:
    """max_a |<psi, Q_a phi> - <Q_a psi, phi>| / (||psi|| ||phi||)."""
    scale = _test_norm(psi) * _test_norm(phi)
    q_phi = _q_closed_form(phi)
    q_psi = _q_closed_form(psi)
    return float(np.max([
        abs(inner(psi, q_phi[a]) - inner(q_psi[a], phi)) / scale
        for a in range(3)
    ]))
