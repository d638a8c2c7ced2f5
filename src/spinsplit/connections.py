"""Connections on discretized bundles: directional covariant derivatives,
curvature by commutator and by holonomy, and the lattice Chern number.

Built-in connection kinds (D = covariant derivative along a tangent
field X of momentum space):

  Boost      D_X psi = -(i/H)(X.K) psi - (X.k)/(2H^2) psi
  Rotation   D_X psi = -i[(1/|k|)(X x khat).J + (X.khat)(1/H)(khat.K)] psi
                        - (X.k)/(2H^2) psi
  Affine(f)  f*Boost + (1-f)*Rotation with a named radial weight profile
  FlatMassive = Affine(f = H/m); requires m > 0 (the massless limit is
               singular: the affine family degenerates to a single
               connection at m = 0)

All are built from the exact generator actions of :mod:`spinsplit.reps`.
A section takes one derivative pass (d_r, d_theta, d_phi) for every
tangent field applied to it (``apply_connections``; ``apply_connection``
is its one-field case).  After that pass the covariant derivative is
pointwise in r, so ``_covariant_values`` evaluates the formulas above
one radial shell at a time on the grid's ``shell`` view: each K_a v and
J_a v is built once per shell for all the fields, straight from the
shell formulas ``reps._k_formula`` and ``reps._j_formula`` (a covariant
derivative never enters the whole-section actions ``_act_K`` and
``_act_J``), the fields are evaluated on the shell alone, and every
temporary is one shell in size.  The representation and the grid are
read from the section.  The curvature commutator and the splitting
diagnostics batch the fields that act on one section.  The boost and
rotation kinds build only the branch their weight keeps.
For sphere-tangential directions every built-in connection also has a
closed pointwise form  D_X = X.grad + A(X)  with fiber endomorphism

  A_boost(X)    = -i |k| ((X x khat).S) / (H(H+m))
  A_rotation(X) = -(i/|k|) (X x khat).S

(massless: both reduce to the rotation form).  ``_form_matrix`` is the
one implementation of this form, vectorized over any batch of points.
It returns the form's nonzero fiber entries (``reps._spin_dot`` scaled by
the radial coefficient), never the dense (d, d) matrix.  An edge batch
evaluates it once, at all 2n + 1 nodes of its n RK4 steps (each step's
end node is the next step's start), and ``_transport``, the one classic
4th-order integrator of U' = -A U, applies each node's entries to the
transported stack with ``reps._entries_act``, as the spin actions are
applied.  Parallel transport integrates the form directly, off-grid.
``holonomy`` transports the fiber matrices of the four legs of a shell
loop as one batch.  The lattice Chern number reads each link only
through one overlap, so it transports the link's start frame vector
instead of the fiber matrix, and it passes its mesh as a column of theta
and a row of phi, so the sines and cosines are taken once per mesh line.
"""

from __future__ import annotations

import numpy as np

from .grid import MomentumGrid, Section
from .reps import (
    RepSpec,
    _act_chi,
    _act_J,
    _act_K,
    _derivatives,
    _entries_act,
    _j_formula,
    _k_formula,
    _on_shell,
    _spin_dot,
    _test_norm,
)
from .scalars import _EPS_PAIRS, eps

__all__ = [
    "ConnectionLabError",
    "ConnectionKind",
    "TangentField",
    "apply_connection",
    "apply_connections",
    "leibniz_residual",
    "lie_bracket",
    "curvature_commutator",
    "cross_commutator_check",
    "HolonomyLoop",
    "holonomy",
    "chern_number",
]


class ConnectionLabError(ValueError):
    """Invalid connection, profile, frame or resolution condition."""


def _real_components(values, what: str) -> np.ndarray:
    """``values`` as float64; complex or non-numeric input raises."""
    if np.iscomplexobj(values):
        raise ConnectionLabError(f"{what} must be real; got complex values")
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConnectionLabError(f"{what} must be real numbers: {exc}") \
            from None


# -- radial weight profiles ----------------------------------------------------

def lambda_flat_profile(lam: float):
    """f = lambda * H/m; lambda = 1 is the flat weight."""
    return lambda r, m: lam * np.sqrt(m**2 + r**2) / m


class ConnectionKind:
    """A connection variant: boost, rotation, affine(f) or flat-massive."""

    __slots__ = ("variant", "_profile")

    def __init__(self, variant: str, profile=None):
        if variant not in ("boost", "rotation", "affine", "flat-massive"):
            raise ConnectionLabError(f"unknown connection variant {variant!r}")
        self.variant = variant
        self._profile = profile

    @classmethod
    def boost(cls):
        return cls("boost")

    @classmethod
    def rotation(cls):
        return cls("rotation")

    @classmethod
    def affine(cls, profile) -> "ConnectionKind":
        """profile: the boost weight, a callable f(r, mass)."""
        if not callable(profile):
            raise ConnectionLabError(
                f"an affine profile is a callable f(r, mass); got "
                f"{profile!r}")
        return cls("affine", profile)

    @classmethod
    def flat_massive(cls):
        return cls("flat-massive", lambda_flat_profile(1.0))

    def weight(self, r, mass):
        """The boost weight f at the radii r, shape r.shape (rotation
        weight is 1 - f).  A profile's output is broadcast to that shape;
        one that does not broadcast or is not finite raises."""
        r = np.asarray(r, dtype=float)
        if self.variant == "boost":
            return np.ones_like(r)
        if self.variant == "rotation":
            return np.zeros_like(r)
        if self.variant == "flat-massive" and not mass > 0:
            raise ConnectionLabError(
                "flat-massive connection is singular at m = 0: the affine "
                "family degenerates and cannot reach flatness"
            )
        name = getattr(self._profile, "__qualname__", repr(self._profile))
        f = self._profile(r, mass)
        try:
            f = np.broadcast_to(_real_components(f, "a weight"), r.shape)
        except (ConnectionLabError, ValueError) as exc:
            raise ConnectionLabError(
                f"weight profile {name} must give real values that "
                f"broadcast to the radial shape {r.shape}: {exc}") from None
        if not np.isfinite(f).all():
            raise ConnectionLabError(
                f"weight profile {name} is not finite at r = {r!r}, "
                f"mass = {mass!r}")
        return f

    def __repr__(self):
        return f"ConnectionKind({self.variant!r})"


# -- tangent fields -------------------------------------------------------------


class TangentField:
    """A momentum-space tangent field: named spherical frame, constant
    vector, rotational field e_a x k, or explicit per-node values (real,
    shape (3,) + grid.shape).  The named, constant and rotational fields
    are analytic: they are evaluated on whatever grid or radial shell asks
    for them, so the covariant pass evaluates them one shell at a time and
    never builds their whole-grid arrays."""

    __slots__ = ("name", "_const", "_axis", "_array")

    def __init__(self, name, const=None, axis=None, array=None):
        self.name = name
        self._const = const
        self._axis = axis
        self._array = array

    @classmethod
    def named(cls, name: str) -> "TangentField":
        if name not in ("e_k", "e_theta", "e_phi"):
            raise ConnectionLabError(f"unknown frame name {name!r}")
        return cls(name)

    @classmethod
    def constant(cls, u) -> "TangentField":
        u = _real_components(u, "a constant tangent field")
        if u.shape != (3,):
            raise ConnectionLabError("constant tangent field needs a 3-vector")
        return cls("constant", const=u)

    @classmethod
    def rotational(cls, axis: int) -> "TangentField":
        """The rotation generator field e_axis x k (axis 0-based)."""
        if axis not in (0, 1, 2):
            raise ConnectionLabError("rotational axis must be 0, 1 or 2")
        return cls("rotational", axis=axis)

    @classmethod
    def from_array(cls, values) -> "TangentField":
        return cls("array",
                   array=_real_components(values, "tangent field values"))

    def values(self, grid) -> np.ndarray:
        """Cartesian components, shape (3,) + grid.shape, on a
        :class:`MomentumGrid` or, for the analytic fields, a
        :class:`~spinsplit.grid.GridShell`."""
        if self.name == "e_k":
            return grid.e_k
        if self.name == "e_theta":
            return grid.e_theta
        if self.name == "e_phi":
            return grid.e_phi
        if self.name == "constant":
            out = np.zeros((3,) + grid.shape)
            for a in range(3):
                out[a] = self._const[a]
            return out
        if self.name == "rotational":
            ks = (grid.kx, grid.ky, grid.kz)
            # (e_a x k)_i = eps_ami k_m
            out = np.zeros((3,) + grid.shape)
            for m, i, e in _EPS_PAIRS[self._axis]:
                out[i] += e * ks[m]
            return out
        arr = self._array
        if arr.shape != (3,) + grid.shape:
            raise ConnectionLabError(
                f"tangent array has shape {arr.shape}, "
                f"expected {(3,) + grid.shape}"
            )
        return arr

    def shell_values(self, grid: MomentumGrid, i: int) -> np.ndarray:
        """``values(grid)[:, i:i + 1]``, shape (3, 1, N_theta, N_phi):
        analytic fields are evaluated on ``grid.shell(i)`` alone (the same
        bits, elementwise), array fields are checked against the grid and
        sliced."""
        if self.name == "array":
            return self.values(grid)[:, i:i + 1]
        return self.values(grid.shell(i))


def lie_bracket(x: TangentField, y: TangentField,
                grid: MomentumGrid) -> np.ndarray:
    """Jacobi-Lie bracket [X, Y], shape (3,) + grid.shape.

    Analytic for the pairs the diagnostics use:
      [e_theta, e_phi]  = -(cot(theta)/|k|) e_phi
      [V_a, V_b]        = -eps_abc V_c   for rotational V_a = e_a x k
      constant fields   -> 0
    General fields fall back to grid differencing of the components.
    """
    if x.name == "constant" and y.name == "constant":
        return np.zeros((3,) + grid.shape)
    if x.name == "rotational" and y.name == "rotational":
        out = np.zeros((3,) + grid.shape)
        for c in range(3):
            e = eps(x._axis, y._axis, c)
            if e:
                out -= e * TangentField.rotational(c).values(grid)
        return out
    pair = (x.name, y.name)
    if pair == ("e_theta", "e_phi") or pair == ("e_phi", "e_theta"):
        cot = (np.cos(grid.theta) / np.sin(grid.theta))[None, :, None]
        coeff = -(cot / grid.kmag) + np.zeros(grid.shape)
        out = coeff[None, ...] * grid.e_phi
        return out if pair == ("e_theta", "e_phi") else -out
    xv, yv = x.values(grid), y.values(grid)
    out = np.zeros((3,) + grid.shape)
    for i in range(3):
        gx = grid.gradient(xv[i][..., None])[..., 0]
        gy = grid.gradient(yv[i][..., None])[..., 0]
        for m in range(3):
            out[i] += xv[m] * gy[m] - yv[m] * gx[m]
    return out


# -- covariant derivatives -------------------------------------------------------


def _cross_khat(grid: MomentumGrid, xv: np.ndarray, a: int) -> np.ndarray:
    """Component a of X x khat."""
    w_a = np.zeros(grid.shape)
    for b, c, e in _EPS_PAIRS[a]:
        w_a += e * xv[b] * grid.khat[c]
    return w_a


def _axis_sum(weights, terms) -> np.ndarray:
    """sum_a weights[a] * terms[a] over the axes a = 0, 1, 2, in that
    order, added to zeros; each weight is a grid field, each term has a
    trailing fiber axis."""
    acc = np.zeros_like(terms[0])
    for w, term in zip(weights, terms):
        acc += w[..., None] * term
    return acc


def _covariant_values(rep: RepSpec, grid: MomentumGrid,
                      kind: ConnectionKind, xs, v: np.ndarray,
                      der=None) -> list:
    """D_X v for every tangent field X in ``xs``, for the connection
    f*Boost + (1 - f)*Rotation with boost weight f = 1 (boost), 0
    (rotation) or a radial profile (affine).

    One derivative pass over the whole of v (``der``, computed here
    unless given) serves every field.  The rest is pointwise in r, so
    ``_covariant_shell`` runs it one radial shell at a time and writes
    each shell of the output sections: the fields are evaluated on the
    shell alone (``TangentField.shell_values``), and every temporary is
    one shell in size and is freed when that call returns, before the
    next shell builds its own."""
    f = kind.weight(grid.r, rep.mass)
    der = _derivatives(grid, v) if der is None else der
    out = [np.empty_like(v) for _ in xs]
    for i in range(grid.n_r):
        _covariant_shell(rep, grid, i, kind, f[i], xs, v, der, out)
    return out


def _covariant_shell(rep: RepSpec, grid: MomentumGrid, i: int,
                     kind: ConnectionKind, f, xs, v: np.ndarray, der,
                     out) -> None:
    """Shell ``i`` of D_X v, written into shell i of each section in
    ``out``, with boost weight f on the shell:

      Boost     (-i/H) X.K v - shift
      Rotation  -i [((X x khat)/|k|).J v + (X.khat)/H radial] - shift

    with shift = (X.k)/(2H^2) v and radial = khat.K v (massive) or
    i|k| d_r v (massless).  K_a v and J_a v are built once for all the
    fields.  The boost and rotation kinds build only the branch their
    weight keeps; f*A + (1 - f)*B would multiply the other by exact
    zero."""
    use_boost = kind.variant != "rotation"
    use_rotation = kind.variant != "boost"
    massive = rep.kind == "massive"
    sh, v, der = _on_shell(grid, i, v, der)
    omega = sh.omega[..., None]
    if use_boost or massive:
        k_v = [_k_formula(rep, sh, a, v, der) for a in range(3)]
    if use_rotation:
        j_v = [_j_formula(rep, sh, a, v, der) for a in range(3)]
        radial = (_axis_sum(sh.khat, k_v) if massive
                  else 1j * sh.kmag[..., None] * der[0])
    for o, x in zip(out, xs):
        xv = x.shell_values(grid, i)
        xk = (xv[0] * sh.kx + xv[1] * sh.ky + xv[2] * sh.kz)[..., None]
        shift = xk / (2.0 * omega**2) * v
        if use_boost:
            boost = (-1j / omega) * _axis_sum(xv, k_v) - shift
        if use_rotation:
            xkhat = sum(xv[a] * sh.khat[a] for a in range(3))[..., None]
            acc = _axis_sum(
                [_cross_khat(sh, xv, a) / sh.kmag for a in range(3)], j_v)
            acc += xkhat / omega * radial
            rotation = -1j * acc - shift
        if use_boost and use_rotation:
            np.add(f * boost, (1.0 - f) * rotation, out=o[i:i + 1])
        else:
            o[i:i + 1] = boost if use_boost else rotation


def apply_connections(kind: ConnectionKind, xs, psi: Section) -> list:
    """The covariant derivatives D_X psi for every tangent field X in
    ``xs``, from one derivative pass over psi; each equals, bit for bit,
    ``apply_connection(kind, X, psi)``."""
    rep, grid = psi.rep, psi.grid
    vals = _covariant_values(rep, grid, kind, xs, psi.values)
    return [Section(rep, grid, val) for val in vals]


def apply_connection(kind: ConnectionKind, x: TangentField,
                     psi: Section) -> Section:
    """Covariant derivative D_X psi for the given connection kind."""
    (out,) = apply_connections(kind, (x,), psi)
    return out


def leibniz_residual(kind: ConnectionKind, xs, f: np.ndarray,
                     psi: Section) -> float:
    """The largest over the tangent fields X in the sequence ``xs`` of
    || D_X(f psi) - f D_X psi - df(X) psi || / ||psi|| for a smooth
    scalar grid function f, with D_X(f psi) and D_X psi each taken in one
    pass for all fields."""
    grid = psi.grid
    nrm = _test_norm(psi)
    f = np.asarray(f)
    lhs = apply_connections(kind, xs, psi * f)
    rhs = apply_connections(kind, xs, psi)
    df = grid.gradient(f[..., None])[..., 0]
    residuals = []
    for i, x in enumerate(xs):
        xv = x.values(grid)
        dfx = sum(xv[a] * df[a] for a in range(3))
        res = rhs[i] * f + psi * dfx
        residuals.append((lhs[i] - res).norm() / nrm)
        lhs[i] = rhs[i] = None
    return float(np.max(residuals))


def curvature_commutator(kind: ConnectionKind, x: TangentField,
                         y: TangentField, psi: Section) -> Section:
    """F(X, Y) psi = (D_X D_Y - D_Y D_X - D_[X,Y]) psi.  D_X psi, D_Y psi
    and D_[X,Y] psi share one derivative pass over psi."""
    xy = TangentField.from_array(lie_bracket(x, y, psi.grid))
    dx, dy, dxy = apply_connections(kind, (x, y, xy), psi)
    out = apply_connection(kind, x, dy)
    del dy
    out = out - apply_connection(kind, y, dx)
    del dx
    return out - dxy


def cross_commutator_check(psi: Section) -> dict:
    """Residuals of the mixed boost/rotation commutators along the
    spherical frame on a massive section:

      [D^K_theta, D^R_phi] = i J_k/|k|^2 + (i cot(theta)/(H|k|)) K_phi
      [D^R_theta, D^K_phi] = i J_k/|k|^2 + (i cot(theta)/|k|^2)   J_theta

    (J_k = khat.J acts pointwise as S.khat; K_phi = e_phi.K;
    J_theta = e_theta.J).  The extra frame-operator term in each identity
    comes from the non-vanishing bracket [e_theta, e_phi] acting through
    the connection that supplies the phi-leg.  One derivative pass over
    psi serves K_phi, J_theta and the four covariant derivatives of psi.
    """
    rep, grid = psi.rep, psi.grid
    if rep.kind != "massive":
        raise ConnectionLabError(
            "cross commutators compare distinct connections; massive only"
        )
    nrm = _test_norm(psi)
    boost, rot = ConnectionKind.boost(), ConnectionKind.rotation()
    eth, eph = TangentField.named("e_theta"), TangentField.named("e_phi")
    omega = grid.omega[..., None]
    rmag = grid.kmag[..., None]
    cot = (np.cos(grid.theta) / np.sin(grid.theta))[None, :, None, None]
    der = _derivatives(grid, psi.values)
    kphi = np.zeros_like(psi.values)
    jtheta = np.zeros_like(psi.values)
    for a in range(3):
        kphi += (grid.e_phi[a][..., None]
                 * _act_K(rep, grid, a, psi.values, der))
        jtheta += (grid.e_theta[a][..., None]
                   * _act_J(rep, grid, a, psi.values, der))
    # D_theta psi and D_phi psi of each kind, from the same pass
    first = {}
    for kind in (boost, rot):
        first[kind.variant, "theta"], first[kind.variant, "phi"] = (
            Section(rep, grid, val) for val in _covariant_values(
                rep, grid, kind, (eth, eph), psi.values, der))
    del der
    # the right-hand sides come first, so K_phi, J_theta and J_k are
    # dropped before the commutators take their passes
    jk = _act_chi(rep, grid, psi.values)
    rhs = {
        "boost-theta rotation-phi":
            1j * jk / rmag**2 + 1j * cot * (kphi / (omega * rmag)),
        "rotation-theta boost-phi":
            1j * jk / rmag**2 + 1j * cot * (jtheta / rmag**2),
    }
    del jk, kphi, jtheta

    def comm(kind1, kind2):
        # each first-level derivative is used once and dropped after it
        out = apply_connection(kind1, eth, first.pop((kind2.variant, "phi")))
        return out - apply_connection(kind2, eph,
                                      first.pop((kind1.variant, "theta")))

    out = {}
    for label, kinds in (("boost-theta rotation-phi", (boost, rot)),
                         ("rotation-theta boost-phi", (rot, boost))):
        lhs = comm(*kinds).values
        out[label] = Section(rep, grid, lhs - rhs.pop(label)).norm() / nrm
    return out


# -- pointwise connection form, transport and holonomy ---------------------------


def _form_matrix(rep: RepSpec, kind: ConnectionKind, r0: float,
                 khat: np.ndarray, vel: np.ndarray) -> list:
    """Local connection form A(vel) = coef (vel x khat).S on the shell of
    radius r0 at the unit directions khat for sphere-tangential velocities
    vel, both of shape (3, ...).  The form is returned as its nonzero fiber
    entries, (row, column, field) in row-major order with fields of shape
    (...), for ``_entries_act`` to apply; the dense (..., d, d) matrix is
    never built."""
    # vel x khat, as np.cross forms it but without moving the axes
    cross = [vel[1] * khat[2] - vel[2] * khat[1],
             vel[2] * khat[0] - vel[0] * khat[2],
             vel[0] * khat[1] - vel[1] * khat[0]]
    if rep.kind == "massless":
        coef = -1j / r0
    else:
        m = rep.mass
        omega = np.sqrt(m**2 + r0**2)
        f = float(kind.weight(np.array([r0]), m)[0])
        coef = (f * (-1j * r0 / (omega * (omega + m)))
                + (1.0 - f) * (-1j / r0))
    form = []
    for b, c, terms in _spin_dot(rep, cross):
        # a position's terms are summed first, in axis order, as in the
        # dense sum over axes; the terms are fresh, so coef scales the
        # field in place
        field = sum(terms[1:], terms[0])
        field *= coef
        form.append((b, c, field))
    return form


def _require_count(value, minimum: int, what: str):
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ConnectionLabError(
            f"{what} must be an integer >= {minimum}; got {value!r}")


def _node_times(n_steps: int) -> np.ndarray:
    """The 2 n_steps + 1 node times of classic RK4 on [0, 1]: step i runs
    from node 2i over the midpoint node 2i + 1 to node 2i + 2, the start of
    step i + 1."""
    _require_count(n_steps, 1, "n_steps")
    h = 1.0 / n_steps
    times = [0.0]
    for i in range(n_steps):
        times += [i * h + h / 2, i * h + h]
    return np.array(times)


def _transport(apply_form, u: np.ndarray, n_steps: int) -> np.ndarray:
    """Classic 4th-order integration of U' = -A(t) U over t in [0, 1];
    ``apply_form(j, w)`` returns A w at node j of ``_node_times``.  Each k
    below is A w, the negated slope, so it is subtracted: u - (h/2) k is
    u + (h/2)(-A u) exactly."""
    h = 1.0 / n_steps
    for i in range(n_steps):
        k1 = apply_form(2 * i, u)
        k2 = apply_form(2 * i + 1, u - h / 2 * k1)
        k3 = apply_form(2 * i + 1, u - h / 2 * k2)
        k4 = apply_form(2 * i + 2, u - h * k3)
        u = u - (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def _sphere_frame(theta, phi):
    """The unit direction khat and the frame vectors e_theta, e_phi, each
    stacked on a leading axis of 3, from one sine and cosine of each
    angle.  theta and phi may be broadcastable (a column and a row of a
    mesh): the sines and cosines are taken at their own shapes."""
    sin_th, cos_th = np.sin(theta), np.cos(theta)
    sin_ph, cos_ph = np.sin(phi), np.cos(phi)

    def stack(*comps):
        return np.stack(np.broadcast_arrays(*comps))

    khat = stack(sin_th * cos_ph, sin_th * sin_ph, cos_th)
    e_th = stack(cos_th * cos_ph, cos_th * sin_ph, -sin_th)
    e_ph = stack(-sin_ph, cos_ph, np.zeros_like(phi))
    return khat, e_th, e_ph


def _edge_transport_batch(rep, kind, r0, th_a, ph_a, th_b, ph_b, n_steps=3,
                          start=None):
    """Vectorized transport along geodesic-in-coordinates edges from
    (th_a, ph_a) to (th_b, ph_b).  ``start`` is what is transported: by
    default the identity, which returns the stacked (..., d, d) transport
    matrices; a stack of fiber vectors (..., d, 1) returns their images
    (RK4 is linear in U, so these are the matrices applied to the
    vectors).

    The form is evaluated once, at every RK4 node of every edge, in one
    ``_form_matrix`` call, and each RK4 stage applies its node's entries
    with ``_entries_act``.  The transported columns lead the stack, so a
    fiber row is one component of its last axis."""
    th_a, ph_a, th_b, ph_b = map(np.asarray, (th_a, ph_a, th_b, ph_b))
    batch = np.broadcast_shapes(th_a.shape, ph_a.shape, th_b.shape,
                                ph_b.shape)
    if start is None:
        start = np.eye(rep.dim)
    start = np.asarray(start, dtype=np.complex128)
    u = np.broadcast_to(start, batch + start.shape[-2:])
    u = np.moveaxis(u, -1, 0).copy()
    t = _node_times(n_steps).reshape((-1,) + (1,) * len(batch))
    dth = th_b - th_a
    dph = ph_b - ph_a
    th = th_a + dth * t
    ph = ph_a + dph * t
    khat, e_th, e_ph = _sphere_frame(th, ph)
    # sin(theta) is minus the z component of e_theta
    vel = r0 * (dth * e_th - e_th[2] * dph * e_ph)
    del e_th, e_ph
    form = _form_matrix(rep, kind, r0, khat, vel)
    del khat, vel
    nodes = [[(b, c, field[j]) for b, c, field in form]
             for j in range(len(t))]
    del form

    def apply_form(j, w):
        return _entries_act(nodes[j], rep.dim, w)

    u = _transport(apply_form, u, n_steps)
    return np.moveaxis(u, 0, -1)


class HolonomyLoop:
    """A closed quadrilateral on one shell: theta in [theta1, theta2],
    phi in [phi1, phi2] at radius r0, traversed
    (theta1,phi1) -> (theta2,phi1) -> (theta2,phi2) -> (theta1,phi2) -> close."""

    __slots__ = ("r0", "theta1", "theta2", "phi1", "phi2")

    def __init__(self, r0, theta1, theta2, phi1, phi2):
        if not 0 < r0 < np.inf:
            raise ConnectionLabError("need a finite r0 > 0")
        if not (0.0 < theta1 <= theta2 < np.pi):
            raise ConnectionLabError("need 0 < theta1 <= theta2 < pi")
        if not (np.isfinite(phi1) and np.isfinite(phi2)):
            raise ConnectionLabError(
                f"need finite phi1 and phi2; got {phi1!r}, {phi2!r}")
        if phi2 < phi1:
            raise ConnectionLabError("need phi1 <= phi2")
        self.r0 = float(r0)
        self.theta1 = float(theta1)
        self.theta2 = float(theta2)
        self.phi1 = float(phi1)
        self.phi2 = float(phi2)

    def solid_angle(self) -> float:
        """Enclosed solid angle (spherical excess of the quadrilateral)."""
        return ((np.cos(self.theta1) - np.cos(self.theta2))
                * (self.phi2 - self.phi1))


def holonomy(rep: RepSpec, kind: ConnectionKind, loop: HolonomyLoop,
             n_steps: int = 64) -> np.ndarray:
    """End-to-start fiber map of parallel transport around the loop.  The
    four legs are transported in one batch from the identity; RK4 is linear
    in U, so their product is the same discrete transport."""
    th1, th2, ph1, ph2 = loop.theta1, loop.theta2, loop.phi1, loop.phi2
    legs = _edge_transport_batch(
        rep, kind, loop.r0,
        np.array([th1, th2, th2, th1]), np.array([ph1, ph1, ph2, ph2]),
        np.array([th2, th2, th1, th1]), np.array([ph1, ph2, ph2, ph1]),
        n_steps=n_steps)
    return legs[3] @ legs[2] @ legs[1] @ legs[0]


# -- lattice Chern number ---------------------------------------------------------


_CHERN_MARGIN = 0.35  # least distance of a plaquette phase from +-pi


def chern_number(rep: RepSpec, kind: ConnectionKind,
                 n_theta: int = 48, n_phi: int = 96,
                 radius: float = 1.5):
    """Lattice Chern number of the helicity subbundle on one shell.

    Link variables are unit-fiber parallel-transport overlaps
    conj(v_b) . T v_a between the local helicity frame vectors; each link
    transports its start vector v_a, not the fiber matrix T.  Plaquette
    field strengths are the link phases; two polar caps are closed by
    Wilson loops around the boundary circles.  Returns (integer,
    pre-rounding real).  A plaquette phase within ``_CHERN_MARGIN`` of
    the branch cut raises a resolution error.  At m = 0 the form does not
    read ``kind``.  The integer is a topological invariant of the
    subbundle: a smooth endomorphism-valued 1-form added to the connection
    form does not change it.
    """
    if rep.kind != "massless":
        raise ConnectionLabError(
            "the Chern diagnostic restricts to the massless shell bundle"
        )
    _require_count(n_theta, 2, "n_theta")
    _require_count(n_phi, 2, "n_phi")
    if not 0 < radius < np.inf:
        raise ConnectionLabError(
            f"radius must be positive and finite; got {radius!r}")
    if rep.helicity == 0:
        return 0, 0.0
    h = rep.helicity
    dtheta = np.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * dtheta
    phi = np.arange(n_phi) * (2 * np.pi / n_phi)
    # the mesh as a column of theta and a row of phi: the transport takes
    # its sines and cosines once per mesh line, not once per node
    th_c, ph_r = theta[:, None], phi[None, :]
    _, e_th, e_ph = _sphere_frame(th_c, ph_r)
    v = ((e_th + 1j * h * e_ph) / np.sqrt(2.0))  # (3, n_theta, n_phi)
    v = np.moveaxis(v, 0, -1)  # (n_theta, n_phi, 3)

    def link(th_a, ph_a, th_b, ph_b, va, vb):
        tva = _edge_transport_batch(rep, kind, radius, th_a, ph_a, th_b,
                                    ph_b, start=va[..., None])[..., 0]
        ov = np.sum(np.conj(vb) * tva, axis=-1)
        return ov / np.abs(ov)

    # theta-edges (j -> j+1) and phi-edges (l -> l+1, periodic)
    u_th = link(th_c[:-1], ph_r, th_c[1:], ph_r, v[:-1], v[1:])
    ph_next = np.roll(ph_r, -1, axis=1).copy()
    ph_next[:, -1] += 2 * np.pi  # keep the edge short, not wrapped
    u_ph = link(th_c, ph_r, th_c, ph_next, v, np.roll(v, -1, axis=1))

    # plaquette phases: edge (j,l)->(j,l+1)->(j+1,l+1)->(j+1,l)->(j,l)
    plaq = (u_ph[:-1] * np.roll(u_th, -1, axis=1)
            * np.conj(u_ph[1:]) * np.conj(u_th))
    phases = np.angle(plaq)
    if np.max(np.abs(phases)) > np.pi - _CHERN_MARGIN:
        raise ConnectionLabError(
            "plaquette phase too close to the branch cut; refine the mesh"
        )
    total = float(np.sum(phases))

    # polar caps: the Wilson loop of the links around each boundary circle
    # is the gauge-invariant holonomy phase of the circle (the frame
    # factors cancel telescopically), which equals the enclosed cap flux
    # up to orientation; the caps are small so no branch ambiguity arises
    north = float(np.angle(np.prod(u_ph[0])))
    south = float(np.angle(np.prod(u_ph[-1])))
    total_flux = total - north + south
    # sign convention: the helicity +1 subbundle carries index -2
    raw = -total_flux / (2 * np.pi)
    return int(np.rint(raw)), raw
