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

(massless: both reduce to the rotation form).  ``_form_matrix`` is the
one implementation of this form, vectorized over any batch of points, and
``_transport`` the one classic 4th-order integrator of U' = -A U; each
step's end form is the next step's start form, so n steps evaluate the
form 2n + 1 times.  Parallel transport integrates the form directly,
off-grid.  ``holonomy`` transports the fiber matrices of the four legs of
a shell loop as one batch, and the parallel fiber frame transports the
matrices of its mesh edges in batches.  The lattice Chern number reads
each link only through one overlap, so it transports the link's start
frame vector instead of the fiber matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import MomentumGrid, Section
from .reps import RepSpec, _act_chi, _act_J, _act_K, _derivatives
from .scalars import eps

__all__ = [
    "ConnectionLabError",
    "ConnectionKind",
    "TangentField",
    "register_profile",
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
register_profile("zero", lambda r, m: np.zeros_like(r))
register_profile("one", lambda r, m: np.ones_like(r))


def constant_profile(value: float):
    return lambda r, m: np.full_like(np.asarray(r, dtype=float), value)


def lambda_flat_profile(lam: float):
    """f = lambda * H/m; lambda = 1 is the flat weight."""
    return lambda r, m: lam * np.sqrt(m**2 + r**2) / m


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


def _probe_fiber(rep: RepSpec, grid: MomentumGrid, node: tuple, op,
                 error=ConnectionLabError) -> np.ndarray:
    """The (d, d) fiber endomorphism of the pointwise operator ``op`` at
    grid node (ir, it, ip), read off by applying it to one smooth section
    per fiber basis vector (the scalar bump profile divides out)."""
    ir, it, ip = node
    g = ((grid.kmag - grid.r_min) * (grid.r_max - grid.kmag)
         * (1.0 - (grid.kz / grid.kmag) ** 2))
    g0 = g[ir, it, ip]
    if abs(g0) < 1e-12:
        raise error("sample node too close to a shell boundary or pole")
    d = rep.dim
    est = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        vals = np.zeros(grid.shape + (d,), dtype=np.complex128)
        vals[..., j] = g
        est[:, j] = op(Section(rep, grid, vals)).values[ir, it, ip] / g0
    return est


def curvature_sample_commutator(rep: RepSpec, grid: MomentumGrid,
                                kind: ConnectionKind, x: TangentField,
                                y: TangentField, node: tuple
                                ) -> CurvatureSample:
    """Estimate the fiber endomorphism F(X, Y) at grid node (ir, it, ip)
    from the commutator curvature, which is pointwise in the section."""
    est = _probe_fiber(rep, grid, node,
                       lambda sec: curvature_commutator(kind, x, y, sec))
    ir, it, ip = node
    pos = (float(grid.r[ir]), float(grid.theta[it]), float(grid.phi[ip]))
    return CurvatureSample(pos, (x.name, y.name), est, "commutator")


def curvature_sample_holonomy(rep: RepSpec, kind: ConnectionKind,
                              r0: float, theta0: float, phi0: float,
                              delta: float = 0.02, n_steps: int = 32
                              ) -> CurvatureSample:
    """Estimate F(e_theta, e_phi) at (r0, theta0, phi0) from the holonomy
    of a small quadrilateral: U ~ exp(-F * r0^2 * solid_angle), so the
    estimate is (1 - U)/(r0^2 * solid_angle)."""
    if not 0 < delta < np.inf:
        raise ConnectionLabError(
            f"delta must be positive and finite; got {delta!r}")
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
    cot = (np.cos(grid.theta) / np.sin(grid.theta))[None, :, None, None]
    jk = _act_chi(rep, grid, psi.values)
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


# -- pointwise connection form, transport and holonomy ---------------------------


def _form_matrix(rep: RepSpec, kind: ConnectionKind, r0: float,
                 khat: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """Local connection form A(vel) on the shell of radius r0 at the unit
    directions khat for sphere-tangential velocities vel; khat and vel have
    shape (3, ...), the result (..., d, d)."""
    cross = np.cross(vel, khat, axis=0)
    # cross.S as a per-axis sum: every fiber entry of the spin matrices has
    # at most two nonzero terms, so the order of the sum cannot move a bit
    spin = rep.spin_mats
    s_dot = cross[0][..., None, None] * spin[0]
    for a in (1, 2):
        s_dot += cross[a][..., None, None] * spin[a]
    if rep.kind == "massless":
        coef = -1j / r0
    else:
        m = rep.mass
        omega = np.sqrt(m**2 + r0**2)
        f = float(kind.weight(np.array([r0]), m)[0])
        coef = (f * (-1j * r0 / (omega * (omega + m)))
                + (1.0 - f) * (-1j / r0))
    return coef * s_dot


def _require_count(value, minimum: int, what: str, error=ConnectionLabError):
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise error(f"{what} must be an integer >= {minimum}; got {value!r}")


def _transport(a_of, u: np.ndarray, n_steps: int) -> np.ndarray:
    """Classic 4th-order integration of U' = -A(t) U over t in [0, 1];
    ``a_of(t)`` returns the stacked forms (..., d, d) and ``u`` is the
    start, a stack of fiber matrices (..., d, d) or of vectors (..., d, 1).
    Each step's end form a_of(t + h) is the next step's start form, so the
    form is evaluated 2 n_steps + 1 times."""
    _require_count(n_steps, 1, "n_steps")
    h = 1.0 / n_steps
    a_start = a_of(0.0)
    for i in range(n_steps):
        t = i * h
        a_mid = a_of(t + h / 2)
        a_end = a_of(t + h)
        k1 = -a_start @ u
        k2 = -a_mid @ (u + h / 2 * k1)
        k3 = -a_mid @ (u + h / 2 * k2)
        k4 = -a_end @ (u + h * k3)
        u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        a_start = a_end
    return u


def _sphere_frame(theta, phi):
    e_th = np.stack([np.cos(theta) * np.cos(phi),
                     np.cos(theta) * np.sin(phi),
                     -np.sin(theta)])
    e_ph = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    return e_th, e_ph


def _edge_transport_batch(rep, kind, r0, th_a, ph_a, th_b, ph_b, n_steps=3,
                          perturbation=None, start=None):
    """Vectorized transport along geodesic-in-coordinates edges from
    (th_a, ph_a) to (th_b, ph_b).  ``start`` is what is transported: by
    default the identity, which returns the stacked (..., d, d) transport
    matrices; a stack of fiber vectors (..., d, 1) returns their images
    (RK4 is linear in U, so these are the matrices applied to the
    vectors).  ``perturbation(theta, phi, velocity) -> (..., d, d)`` is
    added to the connection form."""
    th_a, ph_a = np.broadcast_arrays(th_a, ph_a)
    th_b, ph_b = np.broadcast_arrays(th_b, ph_b)
    if start is None:
        start = np.eye(rep.dim)
    start = np.asarray(start, dtype=np.complex128)
    u = np.broadcast_to(start, th_a.shape + start.shape[-2:]).copy()
    dth = th_b - th_a
    dph = ph_b - ph_a

    def a_of(t):
        th = th_a + dth * t
        ph = ph_a + dph * t
        e_th, e_ph = _sphere_frame(th, ph)
        khat = np.stack([np.sin(th) * np.cos(ph),
                         np.sin(th) * np.sin(ph), np.cos(th)])
        vel = r0 * (dth * e_th + np.sin(th) * dph * e_ph)
        out = _form_matrix(rep, kind, r0, khat, vel)
        if perturbation is not None:
            out = out + perturbation(th, ph, vel)
        return out

    return _transport(a_of, u, n_steps)


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


def _check_mesh(n_theta, n_phi, radius, error=ConnectionLabError):
    """Shell-mesh arguments of the transport diagnostics."""
    _require_count(n_theta, 2, "n_theta", error)
    _require_count(n_phi, 2, "n_phi", error)
    if not 0 < radius < np.inf:
        raise error(f"radius must be positive and finite; got {radius!r}")


def chern_number(rep: RepSpec, kind: ConnectionKind,
                 n_theta: int = 48, n_phi: int = 96,
                 radius: float = 1.5, margin: float = 0.35,
                 perturbation=None):
    """Lattice Chern number of the helicity subbundle on one shell.

    Link variables are unit-fiber parallel-transport overlaps
    conj(v_b) . T v_a between the local helicity frame vectors; each link
    transports its start vector v_a, not the fiber matrix T.  Plaquette
    field strengths are the link phases; two polar caps are closed by
    Wilson loops around the boundary circles.  Returns (integer,
    pre-rounding real).  A plaquette phase within ``margin`` (finite,
    0 <= margin < pi) of the branch cut raises a resolution error.

    ``perturbation(theta, phi, velocity) -> (..., d, d)`` adds a smooth
    endomorphism-valued 1-form to the connection; the integer must not
    change (the index is a topological invariant of the subbundle).
    """
    if rep.kind != "massless":
        raise ConnectionLabError(
            "the Chern diagnostic restricts to the massless shell bundle"
        )
    _check_mesh(n_theta, n_phi, radius)
    if not 0.0 <= margin < np.pi:
        raise ConnectionLabError(
            f"margin must be finite with 0 <= margin < pi; got {margin!r}")
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
        tva = _edge_transport_batch(rep, kind, radius, th_a, ph_a, th_b,
                                    ph_b, perturbation=perturbation,
                                    start=va[..., None])[..., 0]
        ov = np.sum(np.conj(vb) * tva, axis=-1)
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
