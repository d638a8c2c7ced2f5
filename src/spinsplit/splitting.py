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
    _edge_transport_batch,
    _probe_fiber,
    apply_connection,
    curvature_commutator,
)
from .grid import MomentumGrid, Section
from .reps import RepSpec, _act_chi, _act_J, _act_K, _derivatives, inner
from .scalars import eps

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

    ``symmetry_breaking`` adds a fixed constant field (default direction
    e_3) of the given strength to every V_a; this deliberately destroys
    rotational symmetry and serves as a mutation control for the
    vector-operator diagnostics.
    """

    __slots__ = ("rep", "grid", "kind", "_fields")

    def __init__(self, rep: RepSpec, grid: MomentumGrid,
                 kind: ConnectionKind, symmetry_breaking: float = 0.0,
                 breaking_direction=(0.0, 0.0, 1.0)):
        self.rep = rep
        self.grid = grid
        self.kind = kind
        if symmetry_breaking:
            u = np.asarray(breaking_direction, dtype=float)
            extra = TangentField.constant(u).values(grid) * symmetry_breaking
            self._fields = tuple(
                TangentField.from_array(v.values(grid) + extra)
                for v in _ROTATIONAL
            )
        else:
            self._fields = _ROTATIONAL

    def field(self, a: int) -> TangentField:
        return self._fields[a]

    def L(self, a: int, psi: Section) -> Section:
        d = apply_connection(self.kind, self._fields[a], psi)
        return Section(psi.rep, psi.grid, -1j * d.values)

    def J(self, a: int, psi: Section) -> Section:
        return Section(psi.rep, psi.grid,
                       _act_J(psi.rep, psi.grid, a, psi.values))

    def S(self, a: int, psi: Section) -> Section:
        return self.J(a, psi) - self.L(a, psi)

    # massless parallel/perpendicular aliases (pointwise helicity part
    # and its complement)
    def j_parallel(self, a: int, psi: Section) -> Section:
        if self.rep.kind != "massless":
            raise SplittingError("parallel/perpendicular split is the "
                                 "massless decomposition; use L/S instead")
        chi = _act_chi(psi.rep, psi.grid, psi.values)
        return Section(psi.rep, psi.grid,
                       psi.grid.khat[a][..., None] * chi)

    def j_perp(self, a: int, psi: Section) -> Section:
        return self.J(a, psi) - self.j_parallel(a, psi)


def _component(ops: SplitOperators, which: str):
    if which == "L":
        return ops.L
    if which == "S":
        return ops.S
    raise SplittingError(f"unknown splitting component {which!r}")


def vector_op_residual(ops: SplitOperators, psi: Section,
                       which: str = "L") -> float:
    """max over (a,b) of ||([X_a, J_b] - i eps_abc X_c) psi|| / ||psi||
    for X = L or S."""
    act = _component(ops, which)
    nrm = psi.norm()
    x_psi = [act(c, psi) for c in range(3)]
    j_psi = [ops.J(b, psi) for b in range(3)]
    worst = 0.0
    for a in range(3):
        for b in range(3):
            out = act(a, j_psi[b]) - ops.J(b, x_psi[a])
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    out = out - x_psi[c] * (1j * e)
            worst = max(worst, out.norm() / nrm)
    return worst


def internality_residual(ops: SplitOperators, f: np.ndarray, psi: Section,
                         which: str = "S") -> float:
    """max_a ||X_a(f psi) - f X_a(psi)|| / ||psi||.  Converges to zero
    for X = S (S acts pointwise); for X = L it converges to the Leibniz
    term ``leibniz_term_norm`` instead."""
    act = _component(ops, which)
    f = np.asarray(f)
    nrm = psi.norm()
    return max((act(a, psi * f) - act(a, psi) * f).norm() / nrm
               for a in range(3))


def leibniz_term_norm(ops: SplitOperators, f: np.ndarray,
                      psi: Section) -> float:
    """max_a ||df(V_a) psi|| / ||psi|| — the exact value the L-version of
    the internality residual converges to."""
    grid = psi.grid
    df = grid.gradient(np.asarray(f)[..., None])[..., 0]
    nrm = psi.norm()
    worst = 0.0
    for a in range(3):
        xv = ops.field(a).values(grid)
        dfx = sum(xv[i] * df[i] for i in range(3))
        worst = max(worst, (psi * dfx).norm() / nrm)
    return worst


def so3_residual(ops: SplitOperators, psi: Section,
                 which: str = "L") -> float:
    """max over (a,b) of ||([X_a, X_b] - i eps_abc X_c) psi|| / ||psi||."""
    act = _component(ops, which)
    nrm = psi.norm()
    x_psi = [act(c, psi) for c in range(3)]
    worst = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            out = act(a, x_psi[b]) - act(b, x_psi[a])
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    out = out - x_psi[c] * (1j * e)
            worst = max(worst, out.norm() / nrm)
    return worst


def defect_identity_residual(ops: SplitOperators, psi: Section) -> float:
    """max over (a,b) of
    ||([L_a, L_b] - i eps_abc L_c + F(V_a, V_b)) psi|| / ||psi||:
    the so(3) failure of L equals minus the curvature evaluated on the
    rotational fields, for every connection."""
    nrm = psi.norm()
    l_psi = [ops.L(c, psi) for c in range(3)]
    worst = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            out = ops.L(a, l_psi[b]) - ops.L(b, l_psi[a])
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    out = out - l_psi[c] * (1j * e)
            out = out + curvature_commutator(ops.kind, ops.field(a),
                                             ops.field(b), psi)
            worst = max(worst, out.norm() / nrm)
    return worst


def jperp_so3_residual(ops: SplitOperators, psi: Section) -> float:
    """Massless: max over (a,b) of
    ||([Jperp_a, Jperp_b] - i eps_abc (Jperp_c - Jpar_c)) psi|| / ||psi||
    — the perpendicular parts close on the full algebra only after the
    parallel correction, so they do not generate rotations by themselves."""
    nrm = psi.norm()
    worst = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            out = (ops.j_perp(a, ops.j_perp(b, psi))
                   - ops.j_perp(b, ops.j_perp(a, psi)))
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    out = out - (ops.j_perp(c, psi)
                                 - ops.j_parallel(c, psi)) * (1j * e)
            worst = max(worst, out.norm() / nrm)
    return worst


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
        if self.mode == "affine":
            d = apply_connection(self._kind, _E[a], psi)
            return Section(psi.rep, psi.grid, 1j * d.values)
        rep, grid = psi.rep, psi.grid
        m = rep.mass
        omega = grid.omega(m)[..., None]
        ks = (grid.kx, grid.ky, grid.kz)
        kv = psi.values
        der = _derivatives(grid, kv)
        jpsi = [_act_J(rep, grid, c, kv, der) for c in range(3)]
        kpsi = [_act_K(rep, grid, c, kv, der) for c in range(3)]
        # w_c = (H J + k x K)_c
        w = []
        for c in range(3):
            acc = omega * jpsi[c]
            for d in range(3):
                for e_ in range(3):
                    s = eps(c, d, e_)
                    if s:
                        acc = acc + s * ks[d][..., None] * kpsi[e_]
            w.append(acc)
        out = (1.0 / omega) * (kpsi[a]
                               - 1j * ks[a][..., None] / (2.0 * omega) * kv)
        coef = 1.0 / (m * omega * (omega + m))
        for b in range(3):
            for c in range(3):
                s = eps(a, b, c)
                if s:
                    out = out - coef * s * ks[b][..., None] * w[c]
        return Section(rep, grid, out)


def nw_match_residual(rep: RepSpec, grid: MomentumGrid,
                      psi: Section) -> float:
    """max_a || (Q_a^affine - Q_a^closed-form) psi || / ||psi||."""
    qa = NWOperator(rep, grid, "affine")
    qc = NWOperator(rep, grid, "closed-form")
    nrm = psi.norm()
    return max((qa.apply(a, psi) - qc.apply(a, psi)).norm() / nrm
               for a in range(3))


def nw_gradient_residual(rep: RepSpec, grid: MomentumGrid, psi: Section,
                         mode: str = "closed-form") -> float:
    """max_a || H^(-1/2) Q_a (H^(1/2) psi) - i (grad psi)_a || / ||psi||.

    The conjugation by sqrt(H) maps to the coordinates in which the
    inner product is the plain (unweighted) momentum integral; there the
    mean position operator acts as the componentwise gradient i*grad."""
    q = NWOperator(rep, grid, mode)
    sqw = np.sqrt(grid.omega(rep.mass))
    g = grid.gradient(psi.values)
    nrm = psi.norm()
    return max(
        ((q.apply(a, psi * sqw) * (1.0 / sqw))
         - Section(rep, grid, 1j * g[a])).norm() / nrm
        for a in range(3)
    )


def nw_hermiticity_defect(rep: RepSpec, grid: MomentumGrid, psi: Section,
                          phi: Section, mode: str = "closed-form") -> float:
    """max_a |<psi, Q_a phi> - <Q_a psi, phi>| / (||psi|| ||phi||)."""
    q = NWOperator(rep, grid, mode)
    scale = psi.norm() * phi.norm()
    return max(
        abs(inner(psi, q.apply(a, phi)) - inner(q.apply(a, psi), phi))
        / scale
        for a in range(3)
    )


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
                   radius: float = 1.5, n_steps: int = 8,
                   reference_basis: np.ndarray | None = None
                   ) -> ParallelFrame:
    """Transport a reference orthonormal basis over the shell mesh along
    the spanning tree.  Default connection: the flat affine weight, for
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
    u0 = np.eye(d, dtype=np.complex128) if reference_basis is None \
        else np.asarray(reference_basis, dtype=np.complex128)
    frames = np.zeros((n_theta, n_phi, d, d), dtype=np.complex128)
    # meridian leg (phi = phis[0]): reference node is (thetas[0], phis[0]);
    # its edges are transported in one batch from the identity and chained
    frames[0, 0] = u0
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
        dev = max(
            float(np.linalg.norm(np.conj(u.T) @ mats[a] @ u
                                 - rep.spin_mats[a]))
            for a in range(3)
        )
        report["nodes"].append({"node": tuple(int(x) for x in node),
                                "deviation": dev})
        report["max_deviation"] = max(report["max_deviation"], dev)
    return report
