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
pointwise in r, so ``apply_connections`` evaluates the formulas above
in one shell loop (``reps._by_shell``): on each shell,
``_covariant_shell`` takes K_a v and J_a v from the shell's pass, built
once for all the fields and for any other action on that shell (a
covariant derivative never enters the whole-section actions ``_act_K``
and ``_act_J``), the fields are evaluated on the shell alone, and every
temporary is one shell in size.  The representation and the grid are
read from the section.  This is the one whole-section covariant loop:
the curvature commutator batches its fields through it, and the
splitting's L (``splitting.SplitOperators``) is -i times its derivative
along the rotational fields, with S = J - L.  The boost and rotation
kinds build only the branch their weight keeps.
For sphere-tangential directions every built-in connection also has a
closed pointwise form  D_X = X.grad + A(X)  with fiber endomorphism

  A_boost(X)    = -i |k| ((X x khat).S) / (H(H+m))
  A_rotation(X) = -(i/|k|) (X x khat).S

(massless: both reduce to the rotation form).  ``_form_matrix`` is the
one implementation of this form, vectorized over any batch of points.
It returns the form's nonzero fiber entries (``reps._spin_dot`` scaled by
the radial coefficient), never the dense (d, d) matrix: their (row,
column) positions and one array of their fields, written in place.  An
edge batch builds its frames at their broadcast shape and evaluates the
form once, at all 2n + 1 nodes of its n RK4 steps (each step's end node
is the next step's start).  ``_transport``, the one classic 4th-order
integrator of U' = -A U, keeps the transported columns fiber-major and
applies each node's form as one stacked product (``_node_act``), which
rounds every row as ``reps._entries_act`` applies the spin actions.
Parallel transport integrates the form directly, off-grid.
``holonomy`` transports the fiber matrices of the four legs of a shell
loop as one batch.  The lattice Chern number reads each link only
through one overlap, so it transports the link's start frame vector
instead of the fiber matrix, in blocks of whole mesh rows of at most
``_CHERN_BLOCK`` links, and it passes its mesh as a column of theta and
a row of phi, so the sines and cosines are taken once per mesh line.
"""

from __future__ import annotations

import numpy as np

from .grid import MomentumGrid, Section
from .poincare import _EPS_PAIRS, eps
from .reps import (
    RepSpec,
    _act_chi,
    _by_shell,
    _ShellPass,
    _spin_dot,
    _test_norm,
)

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


def _covariant_shell(p: _ShellPass, kind: ConnectionKind, f, xs,
                     out) -> None:
    """D_X v on the shell of the pass p, for each field X in ``xs``,
    written into the shell-sized array of ``out`` at its place, with
    boost weight f on the shell:

      Boost     (-i/H) X.K v - shift
      Rotation  -i [((X x khat)/|k|).J v + (X.khat)/H radial] - shift

    with shift = (X.k)/(2H^2) v and radial = khat.K v (massive) or
    i|k| d_r v (massless).  K_a v and J_a v are the pass's own, built
    once for all the fields and for any other action on the shell.  The
    boost and rotation kinds build only the branch their weight keeps;
    f*A + (1 - f)*B would multiply the other by exact zero."""
    use_boost = kind.variant != "rotation"
    use_rotation = kind.variant != "boost"
    massive = p.rep.kind == "massive"
    sh, v = p.sh, p.v
    omega = sh.omega[..., None]
    if use_boost or massive:
        k_v = [p.K(a) for a in range(3)]
    if use_rotation:
        j_v = [p.J(a) for a in range(3)]
        radial = (_axis_sum(sh.khat, k_v) if massive
                  else 1j * sh.kmag[..., None] * p.dr)
    for o, x in zip(out, xs):
        xv = x.shell_values(p.grid, p.i)
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
            np.add(f * boost, (1.0 - f) * rotation, out=o)
        else:
            o[...] = boost if use_boost else rotation
        # this field's temporaries go before the next field builds its own
        shift = boost = rotation = acc = None


def apply_connections(kind: ConnectionKind, xs, psi: Section) -> list:
    """The covariant derivatives D_X psi for every tangent field X in
    ``xs``, from one derivative pass over psi and one shell loop, with
    boost weight f = 1 (boost), 0 (rotation) or a radial profile (affine)
    read on each shell; each equals, bit for bit,
    ``apply_connection(kind, X, psi)``.  The fields are evaluated on the
    shell alone (``TangentField.shell_values``), and every temporary is
    one shell in size and is freed before the next shell builds its own."""
    rep, grid, v = psi.rep, psi.grid, psi.values
    f = kind.weight(grid.r, rep.mass)
    out = [np.empty_like(v) for _ in xs]
    for p in _by_shell(rep, grid, v):
        s = slice(p.i, p.i + 1)
        _covariant_shell(p, kind, f[p.i], xs, [o[s] for o in out])
    return [Section(rep, grid, o) for o in out]


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
    # one shell loop over psi gives K_phi, J_theta and D_theta psi and
    # D_phi psi of each kind
    v = psi.values
    kphi = np.zeros_like(v)
    jtheta = np.zeros_like(v)
    first = {(kind.variant, leg): np.empty_like(v)
             for kind in (boost, rot) for leg in ("theta", "phi")}
    weights = [(kind, kind.weight(grid.r, rep.mass)) for kind in (boost, rot)]
    for p in _by_shell(rep, grid, v):
        s = slice(p.i, p.i + 1)
        for a in range(3):
            kphi[s] += p.sh.e_phi[a][..., None] * p.K(a)
            jtheta[s] += p.sh.e_theta[a][..., None] * p.J(a)
        for kind, f in weights:
            _covariant_shell(
                p, kind, f[p.i], (eth, eph),
                [first[kind.variant, leg][s] for leg in ("theta", "phi")])
    first = {key: Section(rep, grid, val) for key, val in first.items()}
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
                 khat: np.ndarray, vel: np.ndarray
                 ) -> tuple[list, np.ndarray]:
    """Local connection form A(vel) = coef (vel x khat).S on the shell of
    radius r0 at the unit directions khat for sphere-tangential velocities
    vel, both of shape (3, ...).  The form is returned as its nonzero fiber
    entries, ``(positions, fields)``: the (row, column) positions in
    row-major order, and one array of shape (entries, ...) whose row e is
    the field of position e, each written in place; the dense (..., d, d)
    matrix is never built."""
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
    positions = sorted({(b, c) for entries in rep.spin_entries
                        for b, c, _ in entries})
    fields = np.empty((len(positions),) + cross[0].shape,
                      dtype=np.complex128)
    for field, (_, _, terms) in zip(fields, _spin_dot(rep, cross)):
        # a position's terms are summed first, in axis order, as in the
        # dense sum over axes, and then scaled by coef
        if len(terms) == 1:
            np.multiply(terms[0], coef, out=field)
        else:
            np.add(terms[0], terms[1], out=field)
            for term in terms[2:]:
                field += term
            field *= coef
    return positions, fields


def _node_act(form, dim: int):
    """``apply_form(j, w)`` for ``_transport``: A w at node j for a form
    ``(positions, fields)`` of ``_form_matrix`` whose fields hold their
    values at every node along the axis after the entries.  w is
    fiber-major, shape (dim, columns, ...).  The product is stacked:
    every entry's field times its column of w in one multiplication, the
    field first, then each row the sum of its products in the entries'
    order, so each row of A w is, bit for bit, the row
    ``reps._entries_act`` writes.  A row without entries is zero."""
    positions, fields = form
    cols = np.array([c for _, c in positions], dtype=np.intp)
    spans = [[e for e, (b, _) in enumerate(positions) if b == row]
             for row in range(dim)]

    def apply_form(j, w):
        prod = fields[:, j, None] * w[cols]
        out = np.empty_like(w)
        for row, span in zip(out, spans):
            if not span:
                row[...] = 0.0
            elif len(span) == 1:
                row[...] = prod[span[0]]
            else:
                np.add(prod[span[0]], prod[span[1]], out=row)
                for e in span[2:]:
                    row += prod[e]
        return out

    return apply_form


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
    of shape (3,) + the broadcast shape of theta and phi, from one sine
    and cosine of each angle.  theta and phi may be broadcastable (a
    column and a row of a mesh): the sines and cosines are taken at their
    own shapes, and each component is written into its frame at the
    broadcast shape."""
    sin_th, cos_th = np.sin(theta), np.cos(theta)
    sin_ph, cos_ph = np.sin(phi), np.cos(phi)
    shape = (3,) + np.broadcast_shapes(np.shape(theta), np.shape(phi))
    khat, e_th, e_ph = np.empty(shape), np.empty(shape), np.empty(shape)
    np.multiply(sin_th, cos_ph, out=khat[0])
    np.multiply(sin_th, sin_ph, out=khat[1])
    khat[2] = cos_th
    np.multiply(cos_th, cos_ph, out=e_th[0])
    np.multiply(cos_th, sin_ph, out=e_th[1])
    np.negative(sin_th, out=e_th[2])
    np.negative(sin_ph, out=e_ph[0])
    e_ph[1] = cos_ph
    e_ph[2] = 0.0
    return khat, e_th, e_ph


def _edge_transport_batch(rep, kind, r0, th_a, ph_a, th_b, ph_b, n_steps=3,
                          start=None):
    """Vectorized transport along geodesic-in-coordinates edges from
    (th_a, ph_a) to (th_b, ph_b).  ``start`` is what is transported: by
    default the identity, which returns the stacked (..., d, d) transport
    matrices; a stack of fiber vectors (..., d, 1) returns their images
    (RK4 is linear in U, so these are the matrices applied to the
    vectors).  The result is C-contiguous, the layout whose matrix
    products and fiber sums its callers have always rounded.

    The form is evaluated once, at every RK4 node of every edge, in one
    ``_form_matrix`` call, and each RK4 stage applies its node's fields
    as one stacked product (``_node_act``).  The transported columns are
    kept fiber-major, as a (d, columns, ...) block, so a fiber row is one
    leading slice."""
    th_a, ph_a, th_b, ph_b = map(np.asarray, (th_a, ph_a, th_b, ph_b))
    batch = np.broadcast_shapes(th_a.shape, ph_a.shape, th_b.shape,
                                ph_b.shape)
    if start is None:
        start = np.eye(rep.dim)
    start = np.asarray(start, dtype=np.complex128)
    u = np.broadcast_to(start, batch + start.shape[-2:])
    u = np.moveaxis(u, (-2, -1), (0, 1)).copy()
    t = _node_times(n_steps).reshape((-1,) + (1,) * len(batch))
    dth = th_b - th_a
    dph = ph_b - ph_a
    th = th_a + dth * t
    ph = ph_a + dph * t
    khat, e_th, e_ph = _sphere_frame(th, ph)
    # vel = r0 (dth e_theta + sin(theta) dph e_phi), formed in the frame
    # arrays; sin(theta) is minus the z component of e_theta
    np.multiply(e_th[2] * dph, e_ph, out=e_ph)
    np.multiply(dth, e_th, out=e_th)
    e_th -= e_ph
    del e_ph
    e_th *= r0
    form = _form_matrix(rep, kind, r0, khat, e_th)
    del khat, e_th
    u = _transport(_node_act(form, rep.dim), u, n_steps)
    return np.ascontiguousarray(np.moveaxis(u, (0, 1), (-2, -1)))


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
# the most links one edge batch of ``chern_number`` transports, in whole
# mesh rows.  The benchmark's 18 Chern cases (2 cores, six fresh processes
# each, the least of three sweeps) took a median 0.55 s at 2048 links,
# 0.62 s with one batch per direction and 0.71 s at 512; the (48, 96)
# traced peak is 3.9 MiB at 2048, 7.4 MiB with one batch
_CHERN_BLOCK = 2048


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

    def links(th_a, ph_a, th_b, ph_b, va, vb):
        # the links of the mesh rows of va, transported in blocks of
        # whole rows; the phi row is shared by every block
        n_rows = va.shape[0]
        out = np.empty(va.shape[:-1], dtype=np.complex128)
        step = max(1, _CHERN_BLOCK // n_phi)
        for lo in range(0, n_rows, step):
            s = slice(lo, lo + step)
            ends = [x[s] if x.shape[0] == n_rows else x
                    for x in (th_a, ph_a, th_b, ph_b)]
            tva = _edge_transport_batch(rep, kind, radius, *ends,
                                        start=va[s, ..., None])[..., 0]
            ov = np.sum(np.conj(vb[s]) * tva, axis=-1)
            out[s] = ov / np.abs(ov)
        return out

    # theta-edges (j -> j+1) and phi-edges (l -> l+1, periodic)
    u_th = links(th_c[:-1], ph_r, th_c[1:], ph_r, v[:-1], v[1:])
    ph_next = np.roll(ph_r, -1, axis=1).copy()
    ph_next[:, -1] += 2 * np.pi  # keep the edge short, not wrapped
    u_ph = links(th_c, ph_r, th_c, ph_next, v, np.roll(v, -1, axis=1))

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
