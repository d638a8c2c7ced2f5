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
batched covariant derivative, in one shell loop over that section
(``reps._by_shell``): X_c psi for all c at once, and J_a psi beside
L_a psi when S is wanted.  The so(3) check of L and the
vector-operator check of L and S are served by one set of actions
(``_vector_op_residuals``, which takes any of the three parts): one
loop over psi gives L_c psi and J_c psi, each L_c psi takes one pass
that gives L_a (L_c psi) for so(3) and J_b (L_c psi) for the L part,
each J_b psi takes one pass that gives L_a (J_b psi) for both parts,
and each S_a psi takes one angular pass for J_b (S_a psi) for every b.
The pairs of every part meet shell by shell, and each leaves only its
weighted density until its norm is taken.  ``so3_residual`` is the
so(3) part alone (4 radial and 4 angular passes), and
``vector_op_residual`` the L and S parts (4 and 10, where the two parts
on their own actions took 8 and 32).  All three in one call
(``vector_op_residual`` with ``so3``) take 7 and 10, where the two
calls took 8 and 14.  At (8, 48, 96), massive spin 1 with the flat
connection, the three parts peak at 23.99 MB (13.6 sections), the L
and S parts at 23.10 MB and the so(3) part at 11.56 MB.  Each value equals, bit for bit, the one-field call it
replaces.  The largest residual is taken with ``np.max``, which returns
NaN when any residual is NaN; the builtin ``max`` would keep a number
found before it.  ``_so3_failures`` keeps whole sections, for the
diagnostics that need the so(3) failure itself or a target other than
L_c psi.

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

    def _shell(self, p: _ShellPass, f, axes, out, s_part=False) -> None:
        """L_a v, or S_a v = J_a v - L_a v when ``s_part``, on the shell
        of the pass p for each axis in ``axes``, written into the
        shell-sized arrays of ``out``; f is the boost weight on the
        shell."""
        _covariant_shell(p, self.kind, f, [_ROTATIONAL[a] for a in axes],
                         out)
        for a, o in zip(axes, out):
            o *= -1j
            if s_part:
                np.subtract(p.J(a), o, out=o)

    def _axes(self, axes, psi: Section, s_part: bool) -> list:
        rep, grid, v = psi.rep, psi.grid, psi.values
        f = self.kind.weight(grid.r, rep.mass)
        out = [np.empty_like(v) for _ in axes]
        for p in _by_shell(rep, grid, v):
            s = slice(p.i, p.i + 1)
            self._shell(p, f[p.i], axes, [o[s] for o in out], s_part)
        return [Section(rep, grid, o) for o in out]

    def L_axes(self, axes, psi: Section) -> list:
        """[L_a psi for a in axes], from one shell loop over psi."""
        return self._axes(axes, psi, False)

    def S_axes(self, axes, psi: Section) -> list:
        """[S_a psi for a in axes]: J and L share one shell loop over psi,
        and each S_a psi = J_a psi - L_a psi is formed in the L array."""
        return self._axes(axes, psi, True)

    def L(self, a: int, psi: Section) -> Section:
        return self.L_axes((a,), psi)[0]

    def J(self, a: int, psi: Section) -> Section:
        return Section(psi.rep, psi.grid,
                       _act_J(psi.rep, psi.grid, a, psi.values))

    def S(self, a: int, psi: Section) -> Section:
        return self.S_axes((a,), psi)[0]


def _j_perp(axes, psi: Section, chi=None) -> list:
    """[Jperp_a psi for a in axes] on a massless section, from one shell
    loop over psi and its helicity action ``chi`` (taken here unless
    given): J_a psi - khat_a chi, formed in the fresh J array."""
    rep, grid, v = psi.rep, psi.grid, psi.values
    if chi is None:
        chi = _act_chi(rep, grid, v)
    out = []
    for a, j in zip(axes, _actions(rep, grid, v, [("J", a) for a in axes])):
        j -= grid.khat[a][..., None] * chi
        out.append(Section(rep, grid, j))
    return out


_PAIRS = ((0, 1), (0, 2), (1, 2))


def _vector_op_residuals(ops: SplitOperators, psi: Section,
                         parts) -> list:
    """For each part in ``parts``: for "L" and "S", the vector-operator
    residual max over (a, b) of ||([X_a, J_b] - i eps_abc X_c) psi|| /
    ||psi|| of X = L or S; for "so3", the so(3) residual max over a < b
    of ||([L_a, L_b] - i eps_abc L_c) psi|| / ||psi||.

    One shell loop over psi builds L_c psi, and J_c psi when a
    vector-operator part is asked for; S_c psi = J_c psi - L_c psi is
    formed on each shell where it is read.  Then one shell loop serves
    every pair of every part, and on each shell it takes
      - the pass of each L_c psi once: its L_a (L_c psi) gives both
        so(3) halves for a != c (the radial derivative is taken only for
        these), and its J_b (L_c psi) the trailing L half for every b;
      - the pass of each J_b psi once: its L_a (J_b psi) gives the
        leading L half and, subtracted from J_a (J_b psi), the leading S
        half, formed in the L half's array once that has met its
        partner;
      - the angular pass of each S_a psi once: its J_b (S_a psi) gives
        the trailing S half for every b.
    In this order at most nine vector-operator halves and two so(3)
    halves, each one shell in size, wait for their partners.  A finished
    pair leaves only its weighted density on the shell, and its norm is
    taken over the whole grid at the end.  Every value is built by the
    arithmetic of the one-field call per pair, so each residual equals it
    bit for bit."""
    rep, grid, v = psi.rep, psi.grid, psi.values
    nrm = _test_norm(psi)
    w = grid.invariant_weights
    f = ops.kind.weight(grid.r, rep.mass)
    vector = [x for x in ("L", "S") if x in parts]
    l_psi = [np.empty_like(v) for _ in range(3)]
    j_psi = [np.empty_like(v) for _ in range(3)] if vector else []
    for p in _by_shell(rep, grid, v):
        s = slice(p.i, p.i + 1)
        ops._shell(p, f[p.i], range(3), [val[s] for val in l_psi])
        for c, val in enumerate(j_psi):
            val[s] = p.J(c)
    del p
    keys = {"so3": _PAIRS}
    keys.update(dict.fromkeys(vector, [(a, b) for a in range(3)
                                       for b in range(3)]))
    dens = {(x, a, b): np.empty(grid.shape)
            for x in set(parts) for a, b in keys[x]}
    for i in range(grid.n_r):
        s = slice(i, i + 1)
        waiting = {}

        def x_psi(x, c):
            # X_c psi on the shell (L_c psi for so(3))
            return j_psi[c][s] - l_psi[c][s] if x == "S" else l_psi[c][s]

        def meet(pair, half, leads):
            # the leading half X_a (Y_b psi) comes first, Y_b (X_a psi)
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
                    out = out - x_psi(x, c) * (1j * e)
            dens[pair][s] = _weighted_density(w[s], out)

        for c in range(3 if "so3" in parts or "L" in parts else 0):
            p = _ShellPass(rep, grid, i, l_psi[c][s], l_psi[c])
            if "so3" in parts:
                others = [a for a in range(3) if a != c]
                l_l = [np.empty_like(p.v) for _ in others]
                ops._shell(p, f[i], others, l_l)
                for a, half in zip(others, l_l):
                    meet(("so3", min(a, c), max(a, c)), half, a < c)
                del l_l, half
            if "L" in parts:
                for b in range(3):
                    meet(("L", c, b), p.J(b), False)
            del p
        for b in range(3 if vector else 0):
            p = _ShellPass(rep, grid, i, j_psi[b][s], j_psi[b])
            l_j = [np.empty_like(p.v) for _ in range(3)]
            ops._shell(p, f[i], range(3), l_j)
            for a in range(3):
                if "L" in parts:
                    meet(("L", a, b), l_j[a], True)
                if "S" in parts:
                    meet(("S", a, b), np.subtract(p.J(a), l_j[a],
                                                  out=l_j[a]), True)
                l_j[a] = None
            del p
        for a in range(3 if "S" in parts else 0):
            p = _ShellPass(rep, grid, i, x_psi("S", a))
            for b in range(3):
                meet(("S", a, b), p.J(b), False)
            del p
    return [float(np.max([_norm_of_density(dens[x, a, b]) / nrm
                          for a, b in keys[x]]))
            for x in parts]


def vector_op_residual(ops: SplitOperators, psi: Section, so3=False):
    """The larger of the vector-operator residuals of L and of S: max
    over (a,b) and X = L, S of ||([X_a, J_b] - i eps_abc X_c) psi|| /
    ||psi||, both parts checked on one set of actions.  With ``so3``, the
    pair (``so3_residual``, that value), the so(3) check riding on the
    same set of actions."""
    if not so3:
        return float(np.max(_vector_op_residuals(ops, psi, ("L", "S"))))
    so3_part, *parts = _vector_op_residuals(ops, psi, ("so3", "L", "S"))
    return so3_part, float(np.max(parts))


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
    """max over (a,b) of ||([L_a, L_b] - i eps_abc L_c) psi|| / ||psi||,
    the pairs met shell by shell."""
    return _vector_op_residuals(ops, psi, ("so3",))[0]


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
