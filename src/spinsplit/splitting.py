"""Connection-induced splittings of the angular momentum J = L + S,
their diagnostics, and the flat-connection position operator.

Every operator here reads its representation and grid from the section
it acts on; a splitting is fixed by its connection alone.  For a
connection D, the orbital part acts along the rotational tangent fields
V_a = e_a x k, read from ``_ROTATIONAL`` when L is applied:

    L_a psi = -i D_{V_a} psi          S_a psi = J_a psi - L_a psi

S is always computed by subtraction, so L + S = J holds to rounding by
construction.  The diagnostics measure, on smooth test sections:

  * the vector-operator property  [L_a, J_b] = i eps_abc L_c  (and for S),
  * the so(3) residual  [L_a, L_b] - i eps_abc L_c,
  * the defect identity [L_a, L_b] - i eps_abc L_c = -F_D(V_a, V_b),
  * the massless parallel/perpendicular commutator relation, which needs
    no connection: Jpar_a = khat_a (S.khat) and Jperp_a = J_a - Jpar_a.

Every diagnostic applies the fields that act on one section in one
batched covariant derivative, with one derivative pass over that
section: X_c psi for all c at once, and in the vector-operator check
X_a (J_b psi) for all a at once, one J_b psi at a time.  Each value
equals, bit for bit, the one-field call it replaces.  The largest
residual is taken with ``np.max``, which returns NaN when any residual
is NaN; the builtin ``max`` would keep a number found before it.

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
    _covariant_values,
    apply_connections,
    curvature_commutator,
)
from .grid import Section
from .reps import _act_chi, _act_J, _act_K, _derivatives, _test_norm, inner
from .scalars import _EPS_PAIRS, eps

__all__ = [
    "SplittingError",
    "SplitOperators",
    "vector_op_residual",
    "so3_residual",
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

    def _l_values(self, axes, psi: Section, der=None) -> list:
        """The values of L_a psi for each axis in ``axes``, from one
        derivative pass over psi (``der``, taken here unless given)."""
        vals = _covariant_values(
            psi.rep, psi.grid, self.kind,
            [_ROTATIONAL[a] for a in axes], psi.values, der)
        for val in vals:
            val *= -1j
        return vals

    def L_axes(self, axes, psi: Section) -> list:
        """[L_a psi for a in axes], from one derivative pass over psi."""
        return [Section(psi.rep, psi.grid, val)
                for val in self._l_values(axes, psi)]

    def S_axes(self, axes, psi: Section) -> list:
        """[S_a psi for a in axes]: J and L share one derivative pass over
        psi, and each S_a psi = J_a psi - L_a psi is formed in the L
        array."""
        rep, grid, v = psi.rep, psi.grid, psi.values
        der = _derivatives(grid, v)
        s_vals = self._l_values(axes, psi, der)
        for a, s in zip(axes, s_vals):
            np.subtract(_act_J(rep, grid, a, v, der), s, out=s)
        return [Section(rep, grid, s) for s in s_vals]

    def L(self, a: int, psi: Section) -> Section:
        return self.L_axes((a,), psi)[0]

    def J(self, a: int, psi: Section) -> Section:
        return Section(psi.rep, psi.grid,
                       _act_J(psi.rep, psi.grid, a, psi.values))

    def S(self, a: int, psi: Section) -> Section:
        return self.S_axes((a,), psi)[0]


def _j_perp(axes, psi: Section, chi=None) -> list:
    """[Jperp_a psi for a in axes] on a massless section, from one angular
    pass over psi and its helicity action ``chi`` (taken here unless
    given): J_a psi - khat_a chi, formed in the fresh J array."""
    rep, grid, v = psi.rep, psi.grid, psi.values
    if chi is None:
        chi = _act_chi(rep, grid, v)
    der = _derivatives(grid, v, radial=False)
    out = []
    for a in axes:
        j = _act_J(rep, grid, a, v, der)
        j -= grid.khat[a][..., None] * chi
        out.append(Section(rep, grid, j))
    return out


def _vector_op_part(ops: SplitOperators, act, psi: Section) -> float:
    """max over (a,b) of ||([X_a, J_b] - i eps_abc X_c) psi|| / ||psi||
    for the part X of J whose batched action ``(axes, psi) -> [X_a psi]``
    is ``act`` (``ops.L_axes`` or ``ops.S_axes``).

    One derivative pass over psi gives the three X_c psi.  Then, for each
    b, J_b psi is built from its own angular pass over psi, and one pass
    over it gives X_a (J_b psi) for all three a at once; only one J_b psi
    and its three images are alive at a time.  Each J_b (X_a psi) retakes
    the angular pass over X_a psi instead of holding three such passes
    for all b.  Every value equals, bit for bit, the one-field call per
    pair (a, b)."""
    rep, grid = psi.rep, psi.grid
    nrm = _test_norm(psi)
    x_psi = act(range(3), psi)
    residuals = []
    for b in range(3):
        j_b = ops.J(b, psi)
        x_j = act(range(3), j_b)
        del j_b
        for a in range(3):
            out = x_j[a] - Section(
                rep, grid, _act_J(rep, grid, b, x_psi[a].values))
            x_j[a] = None
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    out = out - x_psi[c] * (1j * e)
            residuals.append(out.norm() / nrm)
            del out
    return float(np.max(residuals))


def vector_op_residual(ops: SplitOperators, psi: Section) -> float:
    """The larger of the vector-operator residuals of L and of S: max
    over (a,b) and X = L, S of ||([X_a, J_b] - i eps_abc X_c) psi|| /
    ||psi||.  L is checked first, and its sections are gone before S's
    check starts."""
    return float(np.max([_vector_op_part(ops, ops.L_axes, psi),
                         _vector_op_part(ops, ops.S_axes, psi)]))


_PAIRS = ((0, 1), (0, 2), (1, 2))


def _so3_failures(act, psi: Section, finish, target=None) -> list:
    """[finish([X_a, X_b] psi - i eps_abc T_c) for the pairs (a, b) in
    _PAIRS], with ``act`` the batched action of X and T_c = X_c psi, or
    ``target(c, X_c psi)`` when ``target`` is given.  The fields
    acting on one section share its derivative pass: X_c psi for all c,
    then X_a and X_b on X_c psi for the two axes other than c."""
    x_psi = act(range(3), psi)
    second = {}  # (a, c) -> X_a X_c psi, until its pair is complete
    results = []  # pair (0, 1) completes at c = 1, the other two at c = 2
    for c in range(3):
        others = [a for a in range(3) if a != c]
        for a, val in zip(others, act(others, x_psi[c])):
            second[(a, c)] = val
        for a, b in _PAIRS:
            if (a, b) in second and (b, a) in second:
                out = second.pop((a, b)) - second.pop((b, a))
                for d in range(3):
                    e = eps(a, b, d)
                    if e:
                        t_d = (x_psi[d] if target is None
                               else target(d, x_psi[d]))
                        out = out - t_d * (1j * e)
                        del t_d
                results.append(finish(out))
                del out
    return results


def _so3_max(act, psi: Section, target=None) -> float:
    """The largest of ``_so3_failures``' norms, relative to ||psi||."""
    nrm = _test_norm(psi)
    return float(np.max(_so3_failures(act, psi, lambda out: out.norm() / nrm,
                                      target)))


def so3_residual(ops: SplitOperators, psi: Section) -> float:
    """max over (a,b) of ||([L_a, L_b] - i eps_abc L_c) psi|| / ||psi||."""
    return _so3_max(ops.L_axes, psi)


def defect_identity_residual(ops: SplitOperators, psi: Section) -> float:
    """max over (a,b) of
    ||([L_a, L_b] - i eps_abc L_c + F(V_a, V_b)) psi|| / ||psi||:
    the so(3) failure of L equals minus the curvature evaluated on the
    rotational fields, for every connection."""
    nrm = _test_norm(psi)
    # every so(3) failure first, so the L sections are gone before the
    # curvature passes
    failures = _so3_failures(ops.L_axes, psi, lambda out: out)
    residuals = []
    for i, (a, b) in enumerate(_PAIRS):
        out = failures[i] + curvature_commutator(
            ops.kind, _ROTATIONAL[a], _ROTATIONAL[b], psi)
        failures[i] = None
        residuals.append(out.norm() / nrm)
    return float(np.max(residuals))


def jperp_so3_residual(psi: Section) -> float:
    """Massless: max over (a,b) of
    ||([Jperp_a, Jperp_b] - i eps_abc (Jperp_c - Jpar_c)) psi|| / ||psi||
    — the perpendicular parts close on the full algebra only after the
    parallel correction, so they do not generate rotations by themselves."""
    rep, grid = psi.rep, psi.grid
    if rep.kind != "massless":
        raise SplittingError("the parallel/perpendicular split is the "
                             "massless decomposition; use L/S instead")
    # psi's helicity action, shared by Jperp_c psi and every Jpar_c psi
    chi = _act_chi(rep, grid, psi.values)

    def act(axes, phi):
        return _j_perp(axes, phi, chi if phi is psi else None)

    def target(c, perp_c):  # perp_c - Jpar_c psi
        return perp_c - Section(rep, grid, grid.khat[c][..., None] * chi)

    return _so3_max(act, psi, target)


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
    der = _derivatives(grid, kv)
    jpsi = [_act_J(rep, grid, c, kv, der) for c in range(3)]
    kpsi = [_act_K(rep, grid, c, kv, der) for c in range(3)]
    del der
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
