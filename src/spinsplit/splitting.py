"""Connection-induced splittings of the angular momentum J = L + S,
their diagnostics, the flat-connection position operator, and the
parallel fiber frame on massive bundles.

For a connection D, the orbital part acts along the rotational tangent
fields V_a = e_a x k:

    L_a psi = -i D_{V_a} psi          S_a psi = J_a psi - L_a psi

S is always computed by subtraction, so L + S = J holds to rounding by
construction.  The diagnostics measure, on smooth test sections:

  * the vector-operator property  [L_a, J_b] = i eps_abc L_c  (and for S),
  * internality of S (commutes with multiplication by scalar functions),
  * the so(3) residual  [L_a, L_b] - i eps_abc L_c,
  * the defect identity [L_a, L_b] - i eps_abc L_c = -F_D(V_a, V_b),
  * the massless parallel/perpendicular commutator relation.

Every diagnostic applies the fields that act on one section in one
batched covariant derivative, with one derivative pass over that
section: X_c psi for all c at once, and in the vector-operator check
X_a (J_b psi) for all a at once, one J_b psi at a time.  Each value
equals, bit for bit, the one-field call it replaces.  The largest
residual is taken with ``np.max``, which returns NaN when any residual
is NaN; the builtin ``max`` would keep a number found before it.

The affine connection with weight f = H/m is flat; +i times its
covariant derivative along the constant Cartesian directions is the
mean (Newton-Wigner) position operator, which this module also builds
directly from its closed form in the generators, and which acts as the
plain componentwise gradient i*grad in the coordinates used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import (
    ConnectionKind,
    TangentField,
    _check_mesh,
    _covariant_values,
    _edge_transport_batch,
    _probe_fiber,
    apply_connections,
    curvature_commutator,
)
from .grid import MomentumGrid, Section
from .reps import RepSpec, _act_chi, _act_J, _act_K, _derivatives, inner
from .scalars import _EPS_PAIRS, eps

__all__ = [
    "SplittingError",
    "SplitOperators",
    "vector_op_residual",
    "internality_residual",
    "leibniz_term_norm",
    "so3_residual",
    "defect_identity_residual",
    "jperp_so3_residual",
    "NWOperator",
    "nw_match_residual",
    "nw_gradient_residual",
    "nw_hermiticity_defect",
    "ParallelFrame",
    "parallel_frame",
    "spin_endomorphism_at",
    "spin_in_frame",
]


class SplittingError(ValueError):
    """Invalid splitting request (rep/connection mismatch, bad frame)."""


_ROTATIONAL = tuple(TangentField.rotational(a) for a in range(3))


class SplitOperators:
    """The splitting of J induced by a connection.

    ``symmetry_breaking`` adds the constant field e_3 of the given
    strength to every V_a; this deliberately destroys rotational
    symmetry and serves as a mutation control for the vector-operator
    diagnostics.
    """

    __slots__ = ("rep", "grid", "kind", "_fields")

    def __init__(self, rep: RepSpec, grid: MomentumGrid,
                 kind: ConnectionKind, symmetry_breaking: float = 0.0):
        self.rep = rep
        self.grid = grid
        self.kind = kind
        if symmetry_breaking:
            extra = (TangentField.constant((0.0, 0.0, 1.0)).values(grid)
                     * symmetry_breaking)
            self._fields = tuple(
                TangentField.from_array(v.values(grid) + extra)
                for v in _ROTATIONAL
            )
        else:
            self._fields = _ROTATIONAL

    def field(self, a: int) -> TangentField:
        return self._fields[a]

    def _l_values(self, axes, psi: Section, der=None) -> list:
        """The values of L_a psi for each axis in ``axes``, from one
        derivative pass over psi (``der``, taken here unless given)."""
        vals = _covariant_values(
            psi.rep, psi.grid, self.kind,
            [self._fields[a] for a in axes], psi.values, der)
        for val in vals:
            val *= -1j
        return vals

    def L_axes(self, axes, psi: Section) -> list:
        """[L_a psi for a in axes], from one derivative pass over psi."""
        return [Section(psi.rep, psi.grid, val)
                for val in self._l_values(axes, psi)]

    def J_axes(self, axes, psi: Section) -> list:
        """[J_a psi for a in axes], from one angular pass over psi."""
        rep, grid, v = psi.rep, psi.grid, psi.values
        der = _derivatives(grid, v, radial=False)
        return [Section(rep, grid, _act_J(rep, grid, a, v, der))
                for a in axes]

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

    # massless parallel/perpendicular aliases (pointwise helicity part
    # and its complement)
    def j_parallel(self, a: int, psi: Section) -> Section:
        self._require_massless()
        chi = _act_chi(psi.rep, psi.grid, psi.values)
        return Section(psi.rep, psi.grid,
                       psi.grid.khat[a][..., None] * chi)

    def j_perp(self, a: int, psi: Section) -> Section:
        return self.J(a, psi) - self.j_parallel(a, psi)

    def j_perp_axes(self, axes, psi: Section) -> list:
        """[Jperp_a psi for a in axes], from one angular pass and one
        helicity action over psi."""
        self._require_massless()
        return self._j_perp(axes, psi,
                            _act_chi(psi.rep, psi.grid, psi.values))

    def _j_perp(self, axes, psi: Section, chi: np.ndarray) -> list:
        """j_perp_axes with psi's helicity action ``chi`` given."""
        out = self.J_axes(axes, psi)
        for a, j in zip(axes, out):
            # J_a psi - Jpar_a psi, formed in the fresh J array
            j.values -= psi.grid.khat[a][..., None] * chi
        return out

    def _require_massless(self):
        if self.rep.kind != "massless":
            raise SplittingError("parallel/perpendicular split is the "
                                 "massless decomposition; use L/S instead")


def _component(ops: SplitOperators, which: str):
    """The batched action ``(axes, psi) -> [X_a psi]`` of X = L or S."""
    if which == "L":
        return ops.L_axes
    if which == "S":
        return ops.S_axes
    raise SplittingError(f"unknown splitting component {which!r}")


def vector_op_residual(ops: SplitOperators, psi: Section,
                       which: str = "L") -> float:
    """max over (a,b) of ||([X_a, J_b] - i eps_abc X_c) psi|| / ||psi||
    for X = L or S.

    One derivative pass over psi gives the three X_c psi.  Then, for each
    b, J_b psi is built from its own angular pass over psi, and one pass
    over it gives X_a (J_b psi) for all three a at once; only one J_b psi
    and its three images are alive at a time.  Each J_b (X_a psi) retakes
    the angular pass over X_a psi instead of holding three such passes
    for all b.  Every value equals, bit for bit, the one-field call per
    pair (a, b)."""
    act = _component(ops, which)
    rep, grid = psi.rep, psi.grid
    nrm = psi.norm()
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


def internality_residual(ops: SplitOperators, f: np.ndarray, psi: Section,
                         which: str = "S") -> float:
    """max_a ||X_a(f psi) - f X_a(psi)|| / ||psi||.  Converges to zero
    for X = S (S acts pointwise); for X = L it converges to the Leibniz
    term ``leibniz_term_norm`` instead."""
    act = _component(ops, which)
    f = np.asarray(f)
    nrm = psi.norm()
    x_fpsi = act(range(3), psi * f)
    x_psi = act(range(3), psi)
    return float(np.max([(x_fpsi[a] - x_psi[a] * f).norm() / nrm
                         for a in range(3)]))


def leibniz_term_norm(ops: SplitOperators, f: np.ndarray,
                      psi: Section) -> float:
    """max_a ||df(V_a) psi|| / ||psi|| — the exact value the L-version of
    the internality residual converges to."""
    grid = psi.grid
    df = grid.gradient(np.asarray(f)[..., None])[..., 0]
    nrm = psi.norm()
    residuals = []
    for a in range(3):
        xv = ops.field(a).values(grid)
        dfx = sum(xv[i] * df[i] for i in range(3))
        residuals.append((psi * dfx).norm() / nrm)
    return float(np.max(residuals))


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


def so3_residual(ops: SplitOperators, psi: Section,
                 which: str = "L") -> float:
    """max over (a,b) of ||([X_a, X_b] - i eps_abc X_c) psi|| / ||psi||."""
    act = _component(ops, which)
    nrm = psi.norm()
    return float(np.max(_so3_failures(act, psi,
                                      lambda out: out.norm() / nrm)))


def defect_identity_residual(ops: SplitOperators, psi: Section) -> float:
    """max over (a,b) of
    ||([L_a, L_b] - i eps_abc L_c + F(V_a, V_b)) psi|| / ||psi||:
    the so(3) failure of L equals minus the curvature evaluated on the
    rotational fields, for every connection."""
    nrm = psi.norm()
    # every so(3) failure first, so the L sections are gone before the
    # curvature passes
    failures = _so3_failures(ops.L_axes, psi, lambda out: out)
    residuals = []
    for i, (a, b) in enumerate(_PAIRS):
        out = failures[i] + curvature_commutator(ops.kind, ops.field(a),
                                                 ops.field(b), psi)
        failures[i] = None
        residuals.append(out.norm() / nrm)
    return float(np.max(residuals))


def jperp_so3_residual(ops: SplitOperators, psi: Section) -> float:
    """Massless: max over (a,b) of
    ||([Jperp_a, Jperp_b] - i eps_abc (Jperp_c - Jpar_c)) psi|| / ||psi||
    — the perpendicular parts close on the full algebra only after the
    parallel correction, so they do not generate rotations by themselves."""
    ops._require_massless()
    nrm = psi.norm()
    # psi's helicity action, shared by Jperp_c psi and every Jpar_c psi
    chi = _act_chi(psi.rep, psi.grid, psi.values)

    def act(axes, phi):
        return (ops._j_perp(axes, psi, chi) if phi is psi
                else ops.j_perp_axes(axes, phi))

    def target(c, perp_c):  # perp_c - ops.j_parallel(c, psi)
        return perp_c - Section(psi.rep, psi.grid,
                                psi.grid.khat[c][..., None] * chi)

    return float(np.max(_so3_failures(act, psi,
                                      lambda out: out.norm() / nrm, target)))


# -- the flat-connection (mean) position operator --------------------------------


_E = tuple(TangentField.constant(np.eye(3)[a]) for a in range(3))


class NWOperator:
    """The mean position operator on a massive bundle.

    mode "affine": +i times the flat affine connection along the
    constant Cartesian directions.  mode "closed-form": the explicit
    generator expression

        Q_a = (1/H) (K_a - i k_a/(2H))
              - (1/(m H (H+m))) [k x (H J + k x K)]_a

    Both are built from the same generator actions, so they agree to
    rounding.  Q is self-adjoint under the invariant measure d^3k/H, and
    after the unitary rescaling by sqrt(H) (to plain-measure
    wave functions) it acts as the componentwise gradient i*grad.
    """

    __slots__ = ("rep", "grid", "mode", "_kind")

    def __init__(self, rep: RepSpec, grid: MomentumGrid,
                 mode: str = "affine"):
        if rep.kind != "massive":
            raise SplittingError(
                "the mean position operator needs m > 0 (no flat "
                "connection exists on the massless bundles)"
            )
        if mode not in ("affine", "closed-form"):
            raise SplittingError(f"unknown construction mode {mode!r}")
        self.rep = rep
        self.grid = grid
        self.mode = mode
        self._kind = ConnectionKind.flat_massive()

    def apply(self, a: int, psi: Section) -> Section:
        return self.apply_axes((a,), psi)[0]

    def apply_axes(self, axes, psi: Section) -> list:
        """[Q_a psi for a in axes], from one derivative pass over psi."""
        rep, grid = psi.rep, psi.grid
        if self.mode == "affine":
            out = apply_connections(self._kind, [_E[a] for a in axes], psi)
            return [Section(rep, grid, 1j * d.values) for d in out]
        m = rep.mass
        omega = grid.omega(m)[..., None]
        ks = (grid.kx, grid.ky, grid.kz)
        kv = psi.values
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
        for a in axes:
            out = (1.0 / omega) * (kpsi[a] - 1j * ks[a][..., None]
                                   / (2.0 * omega) * kv)
            for b, c, s in _EPS_PAIRS[a]:
                out = out - coef * s * ks[b][..., None] * w[c]
            qs.append(Section(rep, grid, out))
        return qs


def nw_match_residual(rep: RepSpec, grid: MomentumGrid,
                      psi: Section) -> float:
    """max_a || (Q_a^affine - Q_a^closed-form) psi || / ||psi||."""
    qa = NWOperator(rep, grid, "affine").apply_axes(range(3), psi)
    qc = NWOperator(rep, grid, "closed-form").apply_axes(range(3), psi)
    nrm = psi.norm()
    return float(np.max([(qa[a] - qc[a]).norm() / nrm for a in range(3)]))


def nw_gradient_residual(rep: RepSpec, grid: MomentumGrid,
                         psi: Section) -> float:
    """max_a || H^(-1/2) Q_a (H^(1/2) psi) - i (grad psi)_a || / ||psi||.

    The conjugation by sqrt(H) maps to the coordinates in which the
    inner product is the plain (unweighted) momentum integral; there the
    mean position operator acts as the componentwise gradient i*grad."""
    sqw = np.sqrt(grid.omega(rep.mass))
    q = NWOperator(rep, grid, "closed-form").apply_axes(range(3), psi * sqw)
    g = grid.gradient(psi.values)
    nrm = psi.norm()
    return float(np.max([
        ((q[a] * (1.0 / sqw))
         - Section(rep, grid, 1j * g[a])).norm() / nrm
        for a in range(3)
    ]))


def nw_hermiticity_defect(rep: RepSpec, grid: MomentumGrid, psi: Section,
                          phi: Section) -> float:
    """max_a |<psi, Q_a phi> - <Q_a psi, phi>| / (||psi|| ||phi||)."""
    q = NWOperator(rep, grid, "closed-form")
    q_phi = q.apply_axes(range(3), phi)
    q_psi = q.apply_axes(range(3), psi)
    scale = psi.norm() * phi.norm()
    return float(np.max([
        abs(inner(psi, q_phi[a]) - inner(q_psi[a], phi)) / scale
        for a in range(3)
    ]))


# -- parallel fiber frame ---------------------------------------------------------


@dataclass(frozen=True)
class ParallelFrame:
    """An orthonormal fiber frame over one shell, generated by parallel
    transport of the reference-node basis along a fixed spanning tree
    (meridian from the reference colatitude, then latitude circles).
    The radial connection form of every built-in connection vanishes
    (the covariant derivative along e_k is the plain radial derivative),
    so the frame extends to all shells unchanged.
    """

    radius: float
    thetas: np.ndarray       # (n_theta,)
    phis: np.ndarray         # (n_phi,)
    frames: np.ndarray       # (n_theta, n_phi, d, d); columns = frame
    tree: str
    unitarity_defect: float


def parallel_frame(rep: RepSpec, kind: ConnectionKind | None = None,
                   n_theta: int = 24, n_phi: int = 48,
                   radius: float = 1.5, n_steps: int = 8) -> ParallelFrame:
    """Transport the identity basis over the shell mesh along the
    spanning tree.  Default connection: the flat affine weight, for
    which the result is path-independent."""
    if kind is None:
        kind = ConnectionKind.flat_massive()
    if rep.kind != "massive":
        raise SplittingError("the parallel frame construction is for "
                             "massive bundles (flatness requires m > 0)")
    _check_mesh(n_theta, n_phi, radius, SplittingError)
    d = rep.dim
    thetas = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    phis = np.arange(n_phi) * (2 * np.pi / n_phi)
    frames = np.zeros((n_theta, n_phi, d, d), dtype=np.complex128)
    # meridian leg (phi = phis[0]): reference node is (thetas[0], phis[0]);
    # its edges are transported in one batch from the identity and chained
    frames[0, 0] = np.eye(d)
    meridian = _edge_transport_batch(rep, kind, radius, thetas[:-1],
                                     phis[0], thetas[1:], phis[0],
                                     n_steps=n_steps)
    for j in range(n_theta - 1):
        frames[j + 1, 0] = meridian[j] @ frames[j, 0]
    # latitude circles, vectorized over theta
    for l in range(n_phi - 1):
        t = _edge_transport_batch(rep, kind, radius,
                                  thetas, np.full(n_theta, phis[l]),
                                  thetas, np.full(n_theta, phis[l + 1]),
                                  n_steps=n_steps)
        frames[:, l + 1] = np.einsum("jab,jbc->jac", t, frames[:, l])
    gram = np.einsum("jlba,jlbc->jlac", np.conj(frames), frames)
    defect = float(np.max(np.abs(gram - np.eye(d))))
    return ParallelFrame(radius, thetas, phis, frames,
                         "meridian-then-latitude", defect)


def spin_endomorphism_at(ops: SplitOperators, node: tuple) -> list:
    """The fiber endomorphisms [S_1, S_2, S_3] at grid node (ir, it, ip),
    sampled by applying S to one smooth section per fiber basis vector
    (S acts pointwise, so the scalar profile divides out)."""
    return [_probe_fiber(ops.rep, ops.grid, node,
                         lambda sec, a=a: ops.S(a, sec), SplittingError)
            for a in range(3)]


def spin_in_frame(ops: SplitOperators, frame: ParallelFrame,
                  nodes) -> dict:
    """Express the sampled spin endomorphisms in the parallel frame at
    the given grid nodes and compare with the constant standard spin
    matrices.  Returns per-node deviations and the worst case."""
    rep, grid = ops.rep, ops.grid
    report = {"nodes": [], "max_deviation": 0.0}
    for node in nodes:
        ir, it, ip = node
        th, ph = float(grid.theta[it]), float(grid.phi[ip])
        jt = int(np.argmin(np.abs(frame.thetas - th)))
        lp = int(np.argmin(np.abs(frame.phis - ph)))
        if (abs(frame.thetas[jt] - th) > 1e-9
                or abs(frame.phis[lp] - ph) > 1e-9):
            raise SplittingError(
                "frame mesh does not contain the sampled node; build the "
                "frame with the grid's angular resolution"
            )
        u = frame.frames[jt, lp]
        mats = spin_endomorphism_at(ops, node)
        dev = float(np.max([
            np.linalg.norm(np.conj(u.T) @ mats[a] @ u - rep.spin_mats[a])
            for a in range(3)
        ]))
        report["nodes"].append({"node": tuple(int(x) for x in node),
                                "deviation": dev})
        report["max_deviation"] = float(np.max([report["max_deviation"],
                                                dev]))
    return report
