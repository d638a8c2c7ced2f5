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
Each covariant derivative takes one derivative pass (d_r, d_theta,
d_phi) over its section and builds every J and K action it needs from
that pass.
For sphere-tangential directions every built-in connection also has a
closed pointwise form  D_X = X.grad + A(X)  with fiber endomorphism

  A_boost(X)    = -i |k| ((X x khat).S) / (H(H+m))
  A_rotation(X) = -(i/|k|) (X x khat).S

(massless: both reduce to the rotation form); parallel transport along
shell loops integrates these forms directly, off-grid, with a classic
4th-order integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridError, MomentumGrid, Section
from .reps import RepSpec, _act, _act_J, _act_K, _derivatives
from .scalars import eps

__all__ = [
    "ConnectionLabError",
    "ConnectionKind",
    "TangentField",
    "register_profile",
    "sampled_profile",
    "profile_names",
    "apply_connection",
    "leibniz_residual",
    "lie_bracket",
    "curvature_commutator",
    "CurvatureSample",
    "curvature_sample_commutator",
    "curvature_sample_holonomy",
    "cross_commutator_check",
    "HolonomyLoop",
    "holonomy",
    "chern_number",
]


class ConnectionLabError(ValueError):
    """Invalid connection, profile, frame or resolution condition."""


# -- radial weight profiles ----------------------------------------------------

_PROFILES: dict = {}


def register_profile(name: str, fn) -> None:
    """Register a radial weight profile; ``fn(r, mass) -> array``."""
    _PROFILES[name] = fn


def profile_names():
    return tuple(sorted(_PROFILES))


register_profile("flat", lambda r, m: np.sqrt(m**2 + r**2) / m)
register_profile("flat-negative", lambda r, m: -np.sqrt(m**2 + r**2) / m)
register_profile("zero", lambda r, m: np.zeros_like(r))
register_profile("one", lambda r, m: np.ones_like(r))


def constant_profile(value: float):
    return lambda r, m: np.full_like(np.asarray(r, dtype=float), value)


def lambda_flat_profile(lam: float):
    """f = lambda * H/m; lambda = 1 is the flat weight."""
    return lambda r, m: lam * np.sqrt(m**2 + r**2) / m


def sampled_profile(r_table, f_table):
    """Monotone-cubic interpolation of a sampled radial table."""
    from scipy.interpolate import PchipInterpolator
    r_table = np.asarray(r_table, dtype=float)
    f_table = np.asarray(f_table, dtype=float)
    if r_table.ndim != 1 or r_table.shape != f_table.shape or \
            len(r_table) < 2 or np.any(np.diff(r_table) <= 0):
        raise ConnectionLabError(
            "sampled profile needs strictly increasing r values and "
            "matching f values"
        )
    interp = PchipInterpolator(r_table, f_table)
    return lambda r, m: interp(r)


class ConnectionKind:
    """A connection variant: boost, rotation, affine(f) or flat-massive."""

    __slots__ = ("variant", "profile_name", "_profile")

    def __init__(self, variant: str, profile_name: str | None = None,
                 profile=None):
        if variant not in ("boost", "rotation", "affine", "flat-massive"):
            raise ConnectionLabError(f"unknown connection variant {variant!r}")
        self.variant = variant
        self.profile_name = profile_name
        self._profile = profile

    @classmethod
    def boost(cls):
        return cls("boost")

    @classmethod
    def rotation(cls):
        return cls("rotation")

    @classmethod
    def affine(cls, profile) -> "ConnectionKind":
        """profile: a registered name or a callable f(r, mass)."""
        if callable(profile):
            return cls("affine", "<callable>", profile)
        if profile not in _PROFILES:
            raise ConnectionLabError(
                f"unknown profile {profile!r}; registered: {profile_names()}"
            )
        return cls("affine", profile, _PROFILES[profile])

    @classmethod
    def flat_massive(cls):
        return cls("flat-massive", "flat", _PROFILES["flat"])

    def weight(self, r, mass):
        """The boost weight f (rotation weight is 1 - f)."""
        if self.variant == "boost":
            return np.ones_like(np.asarray(r, dtype=float))
        if self.variant == "rotation":
            return np.zeros_like(np.asarray(r, dtype=float))
        if self.variant == "flat-massive" and not mass > 0:
            raise ConnectionLabError(
                "flat-massive connection is singular at m = 0: the affine "
                "family degenerates and cannot reach flatness"
            )
        return self._profile(r, mass)

    def __repr__(self):
        if self.variant == "affine":
            return f"ConnectionKind.affine({self.profile_name!r})"
        return f"ConnectionKind({self.variant!r})"


# -- tangent fields -------------------------------------------------------------


class TangentField:
    """A momentum-space tangent field: named spherical frame, constant
    vector, rotational field e_a x k, or explicit per-node values."""

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
        u = np.asarray(u, dtype=float)
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
        return cls("array", array=np.asarray(values, dtype=float))

    def values(self, grid: MomentumGrid) -> np.ndarray:
        """Cartesian components, shape (3,) + grid.shape."""
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
            out = np.zeros((3,) + grid.shape)
            a = self._axis
            for i in range(3):
                for m in range(3):
                    e = eps(i, a, m)
                    if e:
                        out[i] += e * ks[m]
            return out
        arr = self._array
        if arr.shape != (3,) + grid.shape:
            raise ConnectionLabError(
                f"tangent array has shape {arr.shape}, "
                f"expected {(3,) + grid.shape}"
            )
        return arr


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


def _covariant_values(rep: RepSpec, grid: MomentumGrid, xv: np.ndarray,
                      v: np.ndarray, f) -> np.ndarray:
    """D_X v for the connection f*Boost + (1 - f)*Rotation, with boost
    weight f = 1 (boost), 0 (rotation) or a radial profile (affine).  One
    derivative pass over v serves every J and K action, and each K_a v
    feeds both the boost sum X.K v and the radial sum khat.K v."""
    der = _derivatives(grid, v)
    omega = grid.omega(rep.mass)[..., None]
    xk = (xv[0] * grid.kx + xv[1] * grid.ky + xv[2] * grid.kz)[..., None]
    xkhat = sum(xv[a] * grid.khat[a] for a in range(3))[..., None]
    boost = np.zeros_like(v)
    rotation = np.zeros_like(v)
    if rep.kind == "massless":
        radial = 1j * grid.kmag[..., None] * der[0]
    else:
        radial = np.zeros_like(v)
    for a in range(3):
        k_a = _act_K(rep, grid, a, v, der)
        boost += xv[a][..., None] * k_a
        if rep.kind == "massive":
            radial += grid.khat[a][..., None] * k_a
        del k_a  # one K_a v alive at a time
        w_a = np.zeros(grid.shape)  # (X x khat)_a
        for b in range(3):
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    w_a += e * xv[b] * grid.khat[c]
        rotation += ((w_a / grid.kmag)[..., None]
                     * _act_J(rep, grid, a, v, der))
    rotation += xkhat / omega * radial
    # drop the derivative pass before combining: it sets the peak memory
    del der, radial
    shift = xk / (2.0 * omega**2) * v
    return (f * ((-1j / omega) * boost - shift)
            + (1.0 - f) * (-1j * rotation - shift))


def apply_connection(kind: ConnectionKind, x: TangentField,
                     psi: Section) -> Section:
    """Covariant derivative D_X psi for the given connection kind."""
    rep, grid = psi.rep, psi.grid
    xv = x.values(grid)
    f = kind.weight(grid.r, rep.mass)[:, None, None, None]
    return Section(rep, grid, _covariant_values(rep, grid, xv, psi.values, f))


def leibniz_residual(kind: ConnectionKind, x: TangentField, f: np.ndarray,
                     psi: Section) -> float:
    """|| D_X(f psi) - f D_X psi - df(X) psi || / ||psi|| for a smooth
    scalar grid function f."""
    grid = psi.grid
    f = np.asarray(f)
    lhs = apply_connection(kind, x, psi * f)
    rhs = apply_connection(kind, x, psi) * f
    xv = x.values(grid)
    df = grid.gradient(f[..., None])[..., 0]
    dfx = sum(xv[a] * df[a] for a in range(3))
    rhs = rhs + psi * dfx
    return (lhs - rhs).norm() / psi.norm()


def curvature_commutator(kind: ConnectionKind, x: TangentField,
                         y: TangentField, psi: Section) -> Section:
    """F(X, Y) psi = (D_X D_Y - D_Y D_X - D_[X,Y]) psi."""
    xy = TangentField.from_array(lie_bracket(x, y, psi.grid))
    out = apply_connection(kind, x, apply_connection(kind, y, psi))
    out = out - apply_connection(kind, y, apply_connection(kind, x, psi))
    out = out - apply_connection(kind, xy, psi)
    return out


@dataclass(frozen=True)
class CurvatureSample:
    """A pointwise curvature estimate: the fiber endomorphism F(X, Y) at
    one momentum node, tagged with the method that produced it."""

    node: tuple          # (r, theta, phi)
    frame: tuple         # names of the tangent pair (X, Y)
    estimate: np.ndarray  # (d, d) complex
    method: str          # "commutator" | "holonomy"


def curvature_sample_commutator(rep: RepSpec, grid: MomentumGrid,
                                kind: ConnectionKind, x: TangentField,
                                y: TangentField, node: tuple
                                ) -> CurvatureSample:
    """Estimate the fiber endomorphism F(X, Y) at grid node (ir, it, ip)
    by applying the commutator curvature to one smooth section per fiber
    basis vector and reading off the node values (curvature is pointwise
    in the section, so the scalar profile divides out)."""
    ir, it, ip = node
    g = ((grid.kmag - grid.r_min) * (grid.r_max - grid.kmag)
         * (1.0 - (grid.kz / grid.kmag) ** 2))
    g0 = g[ir, it, ip]
    if abs(g0) < 1e-12:
        raise ConnectionLabError(
            "sample node too close to a shell boundary or pole"
        )
    d = rep.dim
    est = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        vals = np.zeros(grid.shape + (d,), dtype=np.complex128)
        vals[..., j] = g
        f = curvature_commutator(kind, x, y, Section(rep, grid, vals))
        est[:, j] = f.values[ir, it, ip] / g0
    pos = (float(grid.r[ir]), float(grid.theta[it]), float(grid.phi[ip]))
    return CurvatureSample(pos, (x.name, y.name), est, "commutator")


def curvature_sample_holonomy(rep: RepSpec, kind: ConnectionKind,
                              r0: float, theta0: float, phi0: float,
                              delta: float = 0.02, n_steps: int = 32
                              ) -> CurvatureSample:
    """Estimate F(e_theta, e_phi) at (r0, theta0, phi0) from the holonomy
    of a small quadrilateral: U ~ exp(-F * r0^2 * solid_angle), so the
    estimate is (1 - U)/(r0^2 * solid_angle)."""
    a = delta / np.sin(theta0)
    loop = HolonomyLoop(r0, theta0 - delta / 2, theta0 + delta / 2,
                        phi0 - a / 2, phi0 + a / 2)
    u = holonomy(rep, kind, loop, n_steps=n_steps)
    area = r0**2 * loop.solid_angle()
    est = (np.eye(rep.dim) - u) / area
    return CurvatureSample((r0, theta0, phi0), ("e_theta", "e_phi"),
                           est, "holonomy")


def cross_commutator_check(psi: Section) -> dict:
    """Residuals of the mixed boost/rotation commutators along the
    spherical frame on a massive section:

      [D^K_theta, D^R_phi] = i J_k/|k|^2 + (i cot(theta)/(H|k|)) K_phi
      [D^R_theta, D^K_phi] = i J_k/|k|^2 + (i cot(theta)/|k|^2)   J_theta

    (J_k = khat.J acts pointwise as S.khat; K_phi = e_phi.K;
    J_theta = e_theta.J).  The extra frame-operator term in each identity
    comes from the non-vanishing bracket [e_theta, e_phi] acting through
    the connection that supplies the phi-leg.
    """
    rep, grid = psi.rep, psi.grid
    if rep.kind != "massive":
        raise ConnectionLabError(
            "cross commutators compare distinct connections; massive only"
        )
    boost, rot = ConnectionKind.boost(), ConnectionKind.rotation()
    eth, eph = TangentField.named("e_theta"), TangentField.named("e_phi")
    omega = grid.omega(rep.mass)[..., None]
    rmag = grid.kmag[..., None]
    cot = ((np.cos(grid.theta) / np.sin(grid.theta))[None, :, None]
           + np.zeros(grid.shape))[..., None]
    jk = _act(rep, grid, "chi", None, psi.values)
    der = _derivatives(grid, psi.values)
    kphi = np.zeros_like(psi.values)
    jtheta = np.zeros_like(psi.values)
    for a in range(3):
        kphi += (grid.e_phi[a][..., None]
                 * _act_K(rep, grid, a, psi.values, der))
        jtheta += (grid.e_theta[a][..., None]
                   * _act_J(rep, grid, a, psi.values, der))
    del der  # not needed by the commutators below
    nrm = psi.norm()

    def comm(kind1, kind2):
        out = apply_connection(kind1, eth, apply_connection(kind2, eph, psi))
        return out - apply_connection(kind2, eph,
                                      apply_connection(kind1, eth, psi))

    out = {}
    for label, kinds, frame_op, scale in (
        ("boost-theta rotation-phi", (boost, rot), kphi, omega * rmag),
        ("rotation-theta boost-phi", (rot, boost), jtheta, rmag**2),
    ):
        lhs = comm(*kinds).values
        rhs = 1j * jk / rmag**2 + 1j * cot * (frame_op / scale)
        out[label] = Section(rep, grid, lhs - rhs).norm() / nrm
    return out


# -- pointwise connection forms and holonomy -------------------------------------


def _form_matrix(rep: RepSpec, kind: ConnectionKind, k: np.ndarray,
                 xdot: np.ndarray) -> np.ndarray:
    """Local connection form A(X) at an off-grid point k for a
    sphere-tangential direction xdot; shape (d, d)."""
    r = float(np.linalg.norm(k))
    khat = k / r
    if abs(float(np.dot(xdot, khat))) > 1e-9 * np.linalg.norm(xdot):
        raise ConnectionLabError(
            "closed connection form implemented for sphere-tangential "
            "directions only"
        )
    cross = np.cross(xdot, khat)
    s_dot = np.einsum("a,abc->bc", cross, rep.spin_mats)
    if rep.kind == "massless":
        return (-1j / r) * s_dot
    m = rep.mass
    omega = np.sqrt(m**2 + r**2)
    a_boost = (-1j * r / (omega * (omega + m))) * s_dot
    a_rot = (-1j / r) * s_dot
    f = float(kind.weight(np.array([r]), m)[0])
    return f * a_boost + (1.0 - f) * a_rot


class HolonomyLoop:
    """A closed quadrilateral on one shell: theta in [theta1, theta2],
    phi in [phi1, phi2] at radius r0, traversed
    (theta1,phi1) -> (theta2,phi1) -> (theta2,phi2) -> (theta1,phi2) -> close."""

    __slots__ = ("r0", "theta1", "theta2", "phi1", "phi2")

    def __init__(self, r0, theta1, theta2, phi1, phi2):
        if not (0.0 < theta1 <= theta2 < np.pi):
            raise ConnectionLabError("need 0 < theta1 <= theta2 < pi")
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

    def legs(self):
        """Four parametrized legs (point(t), velocity(t)) for t in [0,1]."""
        r0 = self.r0
        th1, th2, ph1, ph2 = self.theta1, self.theta2, self.phi1, self.phi2

        def kpt(th, ph):
            return r0 * np.array([np.sin(th) * np.cos(ph),
                                  np.sin(th) * np.sin(ph),
                                  np.cos(th)])

        def e_th(th, ph):
            return np.array([np.cos(th) * np.cos(ph),
                             np.cos(th) * np.sin(ph), -np.sin(th)])

        def e_ph(th, ph):
            return np.array([-np.sin(ph), np.cos(ph), 0.0])

        dth, dph = th2 - th1, ph2 - ph1
        return [
            (lambda t: kpt(th1 + dth * t, ph1),
             lambda t: r0 * dth * e_th(th1 + dth * t, ph1)),
            (lambda t: kpt(th2, ph1 + dph * t),
             lambda t: r0 * np.sin(th2) * dph * e_ph(th2, ph1 + dph * t)),
            (lambda t: kpt(th2 - dth * t, ph2),
             lambda t: -r0 * dth * e_th(th2 - dth * t, ph2)),
            (lambda t: kpt(th1, ph2 - dph * t),
             lambda t: -r0 * np.sin(th1) * dph * e_ph(th1, ph2 - dph * t)),
        ]


def _transport(rep, kind, point_fn, vel_fn, n_steps, u0):
    """4th-order integration of U' = -A(x(t), x'(t)) U over t in [0,1]."""
    u = u0
    h = 1.0 / n_steps
    for i in range(n_steps):
        t = i * h

        def rhs(tt, uu):
            return -_form_matrix(rep, kind, point_fn(tt), vel_fn(tt)) @ uu

        k1 = rhs(t, u)
        k2 = rhs(t + h / 2, u + h / 2 * k1)
        k3 = rhs(t + h / 2, u + h / 2 * k2)
        k4 = rhs(t + h, u + h * k3)
        u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        # re-unitarize: keep the transport drift-free
        w, _, vt = np.linalg.svd(u)
        u = w @ vt
    return u


def holonomy(rep: RepSpec, kind: ConnectionKind, loop: HolonomyLoop,
             n_steps: int = 64) -> np.ndarray:
    """End-to-start fiber map of parallel transport around the loop."""
    u = np.eye(rep.dim, dtype=np.complex128)
    for point_fn, vel_fn in loop.legs():
        u = _transport(rep, kind, point_fn, vel_fn, n_steps, u)
    return u


# -- lattice Chern number ---------------------------------------------------------


def _sphere_frame(theta, phi):
    e_th = np.stack([np.cos(theta) * np.cos(phi),
                     np.cos(theta) * np.sin(phi),
                     -np.sin(theta)])
    e_ph = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    return e_th, e_ph


def _edge_transport_batch(rep, kind, r0, th_a, ph_a, th_b, ph_b, n_steps=3,
                          perturbation=None):
    """Vectorized transport along geodesic-in-coordinates edges from
    (th_a, ph_a) to (th_b, ph_b); returns stacked (..., d, d) matrices."""
    th_a, ph_a = np.broadcast_arrays(th_a, ph_a)
    th_b, ph_b = np.broadcast_arrays(th_b, ph_b)
    shape = th_a.shape
    d = rep.dim
    u = np.broadcast_to(np.eye(d, dtype=np.complex128),
                        shape + (d, d)).copy()
    dth = th_b - th_a
    dph = ph_b - ph_a
    h = 1.0 / n_steps

    def a_of(t):
        th = th_a + dth * t
        ph = ph_a + dph * t
        e_th, e_ph = _sphere_frame(th, ph)
        # velocity: r0*(dth*e_th + sin(th)*dph*e_ph); A = -(i/r)(v x khat).S
        # massive: weighted combination of the boost/rotation forms
        khat = np.stack([np.sin(th) * np.cos(ph),
                         np.sin(th) * np.sin(ph), np.cos(th)])
        vel = r0 * (dth * e_th + np.sin(th) * dph * e_ph)
        cross = np.cross(vel, khat, axis=0)
        s_dot = np.einsum("a...,abc->...bc", cross, rep.spin_mats)
        if rep.kind == "massless":
            coef = -1j / r0
        else:
            m = rep.mass
            omega = np.sqrt(m**2 + r0**2)
            f = float(kind.weight(np.array([r0]), m)[0])
            coef = (f * (-1j * r0 / (omega * (omega + m)))
                    + (1.0 - f) * (-1j / r0))
        out = coef * s_dot
        if perturbation is not None:
            out = out + perturbation(th, ph, vel)
        return out

    for i in range(n_steps):
        t = i * h
        k1 = -a_of(t) @ u
        k2 = -a_of(t + h / 2) @ (u + h / 2 * k1)
        k3 = -a_of(t + h / 2) @ (u + h / 2 * k2)
        k4 = -a_of(t + h) @ (u + h * k3)
        u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def chern_number(rep: RepSpec, kind: ConnectionKind,
                 n_theta: int = 48, n_phi: int = 96,
                 radius: float = 1.5, margin: float = 0.35,
                 perturbation=None):
    """Lattice Chern number of the helicity subbundle on one shell.

    Link variables are unit-fiber parallel-transport overlaps between the
    local helicity frame vectors; plaquette field strengths are the link
    phases; two polar caps are closed by Wilson loops around the boundary
    circles.  Returns (integer, pre-rounding real).  A plaquette phase
    within ``margin`` of the branch cut raises a resolution error.

    ``perturbation(theta, phi, velocity) -> (..., d, d)`` adds a smooth
    endomorphism-valued 1-form to the connection; the integer must not
    change (the index is a topological invariant of the subbundle).
    """
    if rep.kind != "massless":
        raise ConnectionLabError(
            "the Chern diagnostic restricts to the massless shell bundle"
        )
    if rep.helicity == 0:
        return 0, 0.0
    h = rep.helicity
    dtheta = np.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * dtheta
    phi = np.arange(n_phi) * (2 * np.pi / n_phi)
    th_g, ph_g = np.meshgrid(theta, phi, indexing="ij")
    e_th, e_ph = _sphere_frame(th_g, ph_g)
    v = ((e_th + 1j * h * e_ph) / np.sqrt(2.0))  # (3, n_theta, n_phi)
    v = np.moveaxis(v, 0, -1)  # (n_theta, n_phi, 3)

    def link(th_a, ph_a, th_b, ph_b, va, vb):
        t = _edge_transport_batch(rep, kind, radius, th_a, ph_a, th_b, ph_b,
                                  perturbation=perturbation)
        ov = np.einsum("...c,...cd,...d->...", np.conj(vb), t, va)
        return ov / np.abs(ov)

    # theta-edges (j -> j+1) and phi-edges (l -> l+1, periodic)
    u_th = link(th_g[:-1], ph_g[:-1], th_g[1:], ph_g[1:],
                v[:-1], v[1:])
    ph_next = np.roll(ph_g, -1, axis=1).copy()
    ph_next[:, -1] += 2 * np.pi  # keep the edge short, not wrapped
    u_ph = link(th_g, ph_g, th_g, ph_next, v, np.roll(v, -1, axis=1))

    # plaquette phases: edge (j,l)->(j,l+1)->(j+1,l+1)->(j+1,l)->(j,l)
    plaq = (u_ph[:-1] * np.roll(u_th, -1, axis=1)
            * np.conj(u_ph[1:]) * np.conj(u_th))
    phases = np.angle(plaq)
    if np.max(np.abs(phases)) > np.pi - margin:
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
