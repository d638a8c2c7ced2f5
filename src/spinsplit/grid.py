"""Discretized momentum-space grids and sections.

A :class:`MomentumGrid` covers a spherical shell ``r_min <= |k| <= r_max``
(the origin is always excluded) for one mass m >= 0, that of the
representation whose sections it carries, with

* radial Chebyshev-Lobatto collocation nodes (ascending), in r at m = 0
  and in asinh(r/m) at m > 0 (see ``radial_collocation``), carrying a
  spectral differentiation matrix and Clenshaw-Curtis quadrature weights;
* a latitude mesh staggered off the poles, ``theta_j = (j+1/2)*pi/N_theta``;
* a uniform periodic longitude mesh ``phi_l = 2*pi*l/N_phi`` with N_phi
  even, so every node's antipode in longitude is also a node.

Angular derivatives use 8th-order centered differences.  Latitude stencils
that cross a pole are closed with the exact parity rule for single-valued
functions on R^3 expressed in spherical coordinates,

    f(-theta, phi) = f(theta, phi + pi),
    f(pi + x, phi) = f(pi - x, phi + pi),

which is why N_phi must be even.  This applies to fiber components stored
in a fixed Cartesian-frame basis (as all sections here are), not to
spherical-frame components.

The grid holds its mass's energy ``omega`` = sqrt(m^2 + |k|^2) and the
weights ``invariant_weights`` of the invariant measure d^3k/omega, and a
:class:`Section` refuses a representation of another mass.

Section values have the logical shape (N_r, N_theta, N_phi, d), r, theta
and phi ascending.  They are stored component-major: each fiber component
is one contiguous (N_r, N_theta, N_phi) block, as ``component_major``
lays them out (``np.moveaxis`` of a C-contiguous (d, N_r, N_theta, N_phi)
array).  numpy's elementwise operations, ``empty_like`` and ``zeros_like``
keep that layout, so a product of a grid field with a section runs its
inner loop along a whole block instead of along the short fiber axis.
The derivatives work block by block and return the same layout.  The
angular stencils run one radial shell at a time and take any number of
shells, and ``d_r`` gives one shell's row of the radial derivative on
request, each with the bits of its slice of the whole-section
derivative; so code that works a section one shell at a time never
holds a whole derivative pass.  ``MomentumGrid.shell`` gives one shell's
coordinate fields, shaped (1, N_theta, N_phi), for that code.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "GridError",
    "GridShell",
    "MomentumGrid",
    "Section",
    "component_major",
    "radial_collocation",
]


class GridError(ValueError):
    """Invalid grid parameters or mismatched grid operations."""


# 8th-order centered first-derivative stencil, offsets -4..4.
_FD8 = np.array(
    [1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280]
)
_FD8_HALF = 4


def component_major(shape, dtype=np.complex128) -> np.ndarray:
    """An empty array of ``shape`` (N_r, N_theta, N_phi, ...) whose every
    trailing index (a fiber component) is one contiguous (N_r, N_theta,
    N_phi) block: ``np.moveaxis`` of a C-contiguous array with the
    trailing axes in front."""
    shape = tuple(shape)
    n = len(shape) - 3
    base = np.empty(shape[3:] + shape[:3], dtype=dtype)
    return np.moveaxis(base, tuple(range(n)), tuple(range(3, 3 + n)))


def _trailing_first(values: np.ndarray) -> np.ndarray:
    """The view of ``values`` (N_r, N_theta, N_phi, ...) with its trailing
    axes moved in front; C-contiguous exactly when ``values`` is
    component-major."""
    n = values.ndim - 3
    return np.moveaxis(values, tuple(range(3, 3 + n)), tuple(range(n)))


def _blocks(values: np.ndarray) -> np.ndarray:
    """The (N_r, N_theta, N_phi) blocks of ``values``, one per trailing
    index, as an array of shape (blocks, N_r, N_theta, N_phi): a view of
    a component-major array."""
    return _trailing_first(values).reshape((-1,) + values.shape[:3])


def _as_float(values) -> np.ndarray:
    """``values`` as float64, or complex128 if complex."""
    return np.asarray(
        values,
        dtype=np.complex128 if np.iscomplexobj(values) else np.float64)


def _cheb_nodes(n: int):
    """Chebyshev-Lobatto nodes on [-1, 1], ascending."""
    return -np.cos(np.pi * np.arange(n) / (n - 1))


def _diff_matrix(x: np.ndarray) -> np.ndarray:
    """Polynomial collocation differentiation matrix for distinct nodes.
    Nodes so close or so far apart that the products of their spacings
    underflow or overflow give non-finite entries, which
    ``radial_collocation`` reports."""
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.prod(dx, axis=1)
        d = (c[:, None] / c[None, :]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def _quad_weights(x: np.ndarray) -> np.ndarray:
    """Clenshaw-Curtis weights on [-1, 1] for Chebyshev-Lobatto nodes.

    Solves V^T w = m in the Chebyshev basis (well-conditioned: V is a
    cosine matrix), where m_k = int_{-1}^{1} T_k.
    """
    n = len(x)
    k = np.arange(n)
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    v = np.cos(k[None, :] * theta[:, None])  # v[j, k] = T_k(x_j)
    m = np.array([0.0 if kk % 2 else 2.0 / (1.0 - kk**2) for kk in k])
    m[0] = 2.0
    return np.linalg.solve(v.T, m)


def radial_collocation(n_r: int, r_min: float, r_max: float,
                       mass: float = 0.0):
    """The radial nodes r (ascending), the differentiation matrix d/dr at
    them and the quadrature weights for dr on [r_min, r_max], for a grid
    that serves the given mass.

    Chebyshev-Lobatto nodes lie directly in r at mass 0 and in
    t = asinh(r/mass) at mass > 0.  The sinh nodes make
    sqrt(mass^2 + r^2) = mass*cosh(t) entire in the collocation variable,
    which massive-representation operators need for spectral accuracy at
    small N_r; the linear nodes differentiate radial polynomials exactly,
    which massless operators exploit.  Raises :class:`GridError` for a
    negative or non-finite mass, and when the matrix or the weights are
    not finite, as when the node spacing underflows (a mass far above
    r_max)."""
    if not (mass >= 0 and np.isfinite(mass)):
        raise GridError(f"a grid's mass must be finite and >= 0; "
                        f"got {mass!r}")
    x = _cheb_nodes(n_r)
    if mass == 0:
        half = 0.5 * (r_max - r_min)
        r = r_min + half * (x + 1.0)
        d_r = _diff_matrix(r)
        w_r = half * _quad_weights(x)
    else:
        t_min = np.arcsinh(r_min / mass)
        t_max = np.arcsinh(r_max / mass)
        half = 0.5 * (t_max - t_min)
        t = t_min + half * (x + 1.0)
        r = mass * np.sinh(t)
        drdt = mass * np.cosh(t)
        d_r = _diff_matrix(t) / drdt[:, None]
        w_r = half * _quad_weights(x) * drdt
    if not (np.isfinite(d_r).all() and np.isfinite(w_r).all()):
        raise GridError(
            f"the radial nodes for mass={mass} with N_r={n_r} on "
            f"[{r_min}, {r_max}] give a non-finite radial "
            f"differentiation matrix or quadrature weights")
    return r, d_r, w_r


class MomentumGrid:
    """Spherical-shell momentum grid; see the module docstring for layout."""

    def __init__(self, n_r: int, n_theta: int, n_phi: int,
                 r_min: float, r_max: float, mass: float = 0.0):
        for name, val in (("N_r", n_r), ("N_theta", n_theta),
                          ("N_phi", n_phi)):
            if not isinstance(val, (int, np.integer)) or val < 4:
                raise GridError(f"{name} must be an integer >= 4, got {val!r}")
        if n_phi % 2:
            raise GridError(
                "N_phi must be even (cross-pole closures pair each "
                "longitude with its antipode)"
            )
        r_min = float(r_min)
        r_max = float(r_max)
        if not (0.0 < r_min < r_max):
            raise GridError(
                f"need 0 < r_min < r_max (origin excluded); "
                f"got r_min={r_min}, r_max={r_max}"
            )
        self.n_r = int(n_r)
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        self.r_min = r_min
        self.r_max = r_max

        self.r, self._d_r_matrix, self.w_r = radial_collocation(
            self.n_r, r_min, r_max, mass)
        self.mass = float(mass)

        self.dtheta = np.pi / self.n_theta
        self.theta = (np.arange(self.n_theta) + 0.5) * self.dtheta
        self.dphi = 2.0 * np.pi / self.n_phi
        self.phi = np.arange(self.n_phi) * self.dphi

        # Broadcastable coordinate fields over (r, theta, phi).
        r3 = self.r[:, None, None]
        th = self.theta[None, :, None]
        ph = self.phi[None, None, :]
        st, ct = np.sin(th), np.cos(th)
        # shape (1, N_theta, 1): every sin(theta) factor broadcasts it
        self.sin_theta = st
        sp_, cp = np.sin(ph), np.cos(ph)
        self.kx = (r3 * st * cp) + np.zeros(self.shape)
        self.ky = (r3 * st * sp_) + np.zeros(self.shape)
        self.kz = (r3 * ct) + np.zeros(self.shape)
        self.kmag = r3 + np.zeros(self.shape)
        # the energy sqrt(m^2 + |k|^2) of the mass the grid serves
        self.omega = np.sqrt(self.mass**2 + self.kmag**2)
        # reciprocals of the divisors of the generator kernels, built once:
        # numpy divides a complex array by a real one as (a + b*0)*(1/c),
        # so a complex product with these gives the quotient's values (only
        # the sign of a zero can differ); a real product would not, since
        # x*(1/c) is not the IEEE quotient x/c
        self.inv_kmag = 1.0 / self.kmag
        self.inv_kmag_sin_theta = 1.0 / (self.kmag * st)
        self.inv_sin_theta = 1.0 / st
        self.khat = np.stack(
            [self.kx, self.ky, self.kz], axis=0) / self.kmag
        # Spherical orthonormal frame (Cartesian components).
        zero = np.zeros(self.shape)
        self.e_k = self.khat
        self.e_theta = np.stack([ct * cp + zero, ct * sp_ + zero, -st + zero])
        self.e_phi = np.stack([-sp_ + zero, cp + zero, zero])
        self._shells = {}

    # -- basic queries ------------------------------------------------------

    @property
    def shape(self):
        return (self.n_r, self.n_theta, self.n_phi)

    def __eq__(self, other):
        return isinstance(other, MomentumGrid) and self.spec() == other.spec()

    def __hash__(self):
        return hash(tuple(sorted(self.spec().items())))

    def spec(self) -> dict:
        return {
            "N_r": self.n_r,
            "N_theta": self.n_theta,
            "N_phi": self.n_phi,
            "r_min": self.r_min,
            "r_max": self.r_max,
            "mass": self.mass,
        }

    def __repr__(self):
        return (f"MomentumGrid({self.n_r}, {self.n_theta}, {self.n_phi}, "
                f"r_min={self.r_min}, r_max={self.r_max}, mass={self.mass})")

    @functools.cached_property
    def invariant_weights(self) -> np.ndarray:
        """Quadrature weights for the invariant measure d^3k/omega, shape
        (N_r, N_theta, N_phi): built on first use, read-only."""
        w = self.volume_weights() / self.omega
        w.flags.writeable = False
        return w

    def shell(self, i: int) -> "GridShell":
        """Radial shell ``i`` as a :class:`GridShell`, built once."""
        if i not in self._shells:
            self._shells[i] = GridShell(self, i)
        return self._shells[i]

    # -- derivatives ---------------------------------------------------------
    #
    # All operate on arrays of shape (N_r, N_theta, N_phi, ...) whose fiber
    # components are Cartesian-frame (single-valued on R^3), real or
    # complex, and return float64 or complex128 arrays of the same shape,
    # component-major (see ``component_major``) whatever the input layout.

    def d_r(self, values: np.ndarray,
            shell: int | None = None) -> np.ndarray:
        """Spectral radial derivative along axis 0, or only its radial
        shell ``shell`` (shape (1, N_theta, N_phi, ...)).

        Each fiber component's block is differentiated through its
        float64 view (made contiguous first if the input is not
        component-major), as one (N_r, N_r) by (N_r, rest) product, or
        for one shell the product of that matrix row alone: each output
        row is the same sum over the same products, so a shell has the
        bits of its slice of the whole derivative.  For a complex block
        the real matrix acts on the real and imaginary parts alike; the
        complex contraction computes the same sums plus products with the
        matrix's zero imaginary part, so the values agree with it (only
        the sign of a zero can differ), in about a third of the time."""
        values = _as_float(values)
        rows = slice(None) if shell is None else slice(shell, shell + 1)
        matrix = self._d_r_matrix[rows]
        out = component_major((len(matrix),) + values.shape[1:],
                              values.dtype)
        n = self.n_r
        for block, res in zip(_blocks(values), _blocks(out)):
            flat = np.ascontiguousarray(block).view(np.float64)
            np.einsum("ij,jk->ik", matrix, flat.reshape(n, -1),
                      out=res.view(np.float64).reshape(len(matrix), -1))
        return out

    def _pole_extended(self, values: np.ndarray) -> np.ndarray:
        """Extend the latitude axis (axis 1) by the exact cross-pole parity
        rule; axis 2 is the longitude."""
        h = _FD8_HALF
        flip = self.n_phi // 2
        north = np.roll(values[:, h - 1::-1], flip, axis=2)
        south = np.roll(values[:, :-h - 1:-1], flip, axis=2)
        return np.concatenate([north, values, south], axis=1)

    def d_theta(self, values: np.ndarray) -> np.ndarray:
        """8th-order latitude derivative with exact pole closures, one
        radial shell of every component block at a time; ``values`` may
        hold any number of shells (one shell of a section gives its slice
        of the section's derivative)."""
        values = _as_float(values)
        out = component_major(values.shape, values.dtype)
        src, dst = _blocks(values), _blocks(out)
        for i in range(len(values)):
            ext = self._pole_extended(src[:, i])
            acc = dst[:, i]
            acc[...] = 0.0
            for s, c in enumerate(_FD8):
                if c:
                    acc += c * ext[:, s:s + self.n_theta]
            acc /= self.dtheta
        return out

    def d_phi(self, values: np.ndarray) -> np.ndarray:
        """8th-order periodic longitude derivative, one radial shell of
        every component block at a time.  The longitude axis is
        wrap-padded once by the stencil half-width, and each stencil term
        reads one slice of the padded copy (as ``d_theta`` does): the same
        values as rolling the shell once per term, with one copy instead
        of eight.  Like ``d_theta`` it takes any number of shells."""
        values = _as_float(values)
        out = component_major(values.shape, values.dtype)
        src, dst = _blocks(values), _blocks(out)
        h = _FD8_HALF
        for i in range(len(values)):
            v = src[:, i]
            ext = np.concatenate([v[:, :, -h:], v, v[:, :, :h]], axis=2)
            acc = dst[:, i]
            acc[...] = 0.0
            for s, c in enumerate(_FD8):
                if c:
                    acc += c * ext[:, :, s:s + self.n_phi]
            acc /= self.dphi
        return out

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Cartesian gradient; returns shape (3,) + values.shape."""
        extra = values.ndim - 3
        idx = (slice(None),) * 3 + (None,) * extra
        r3 = self.kmag[idx]
        st = self.sin_theta[idx]
        dr = self.d_r(values)
        dth = self.d_theta(values) / r3
        dph = self.d_phi(values) / (r3 * st)
        out = np.empty((3,) + values.shape, dtype=values.dtype)
        for a in range(3):
            ek = self.e_k[a][idx]
            et = self.e_theta[a][idx]
            ep = self.e_phi[a][idx]
            out[a] = ek * dr + et * dth + ep * dph
        return out

    # -- quadrature ----------------------------------------------------------

    def volume_weights(self) -> np.ndarray:
        """Quadrature weights for d^3k, shape (N_r, N_theta, N_phi)."""
        w = (self.w_r[:, None, None]
             * (self.r**2)[:, None, None]
             * self.sin_theta
             * self.dtheta * self.dphi)
        return w + np.zeros(self.shape)


class GridShell:
    """One radial shell of a :class:`MomentumGrid`: the grid's coordinate
    fields under the same names, sliced to shape (1, N_theta, N_phi) (the
    frames and ``khat`` to (3, 1, N_theta, N_phi), ``r`` to (1,)).  The
    slices are views, so an elementwise expression gives, shell by shell,
    the bits it gives on the whole grid.  The generator formulas of
    :mod:`spinsplit.reps` (the methods of its ``_ShellPass``) read a
    shell, and the whole-section actions evaluate them once per shell.
    The analytic tangent fields of :mod:`spinsplit.connections` take a
    shell in place of its grid.  A shell holds no reference to its grid:
    the grid caches its shells, and a cycle would leave every grid to the
    garbage collector."""

    __slots__ = ("shape", "r", "kx", "ky", "kz", "kmag", "omega",
                 "inv_kmag", "inv_kmag_sin_theta", "inv_sin_theta",
                 "sin_theta", "khat", "e_k", "e_theta", "e_phi")

    def __init__(self, grid: MomentumGrid, i: int):
        s = slice(i, i + 1)
        self.shape = (1, grid.n_theta, grid.n_phi)
        self.r = grid.r[s]
        for name in ("kx", "ky", "kz", "kmag", "omega", "inv_kmag",
                     "inv_kmag_sin_theta"):
            setattr(self, name, getattr(grid, name)[s])
        # (1, N_theta, 1): the same for every shell
        self.sin_theta = grid.sin_theta
        self.inv_sin_theta = grid.inv_sin_theta
        self.khat = grid.khat[:, s]
        self.e_k = self.khat
        self.e_theta = grid.e_theta[:, s]
        self.e_phi = grid.e_phi[:, s]


class Section:
    """A discretized bundle section: one complex fiber value per node.

    ``values`` has shape (N_r, N_theta, N_phi, d) in complex128, stored
    component-major (input in another layout is copied into it); fiber
    components are in a fixed Cartesian-frame basis.  Sections are treated
    as immutable values: arithmetic returns new instances.
    """

    __slots__ = ("rep", "grid", "values")

    def __init__(self, rep, grid: MomentumGrid, values: np.ndarray):
        # the grid's energy and invariant weights are its mass's
        if rep.mass != grid.mass:
            raise GridError(f"a rep of mass {rep.mass} on a grid built for "
                            f"mass {grid.mass}")
        values = np.asarray(values, dtype=np.complex128)
        expected = grid.shape + (rep.dim,)
        if values.shape != expected:
            raise GridError(
                f"section values have shape {values.shape}, "
                f"expected {expected}"
            )
        if not _trailing_first(values).flags.c_contiguous:
            copy = component_major(values.shape)
            copy[...] = values
            values = copy
        self.rep = rep
        self.grid = grid
        self.values = values

    def _check(self, other: "Section"):
        if self.grid != other.grid or self.rep != other.rep:
            raise GridError("sections live on different grids or reps")

    def __add__(self, other):
        self._check(other)
        return Section(self.rep, self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return Section(self.rep, self.grid, self.values - other.values)

    def __neg__(self):
        return Section(self.rep, self.grid, -self.values)

    def __mul__(self, factor):
        """Multiply by a complex scalar or a scalar grid function."""
        factor = np.asarray(factor)
        if factor.ndim == 3:
            factor = factor[..., None]
        return Section(self.rep, self.grid, self.values * factor)

    __rmul__ = __mul__

    def norm(self) -> float:
        """L^2 norm under the invariant measure d^3k/omega."""
        return _norm_of_density(
            _weighted_density(self.grid.invariant_weights, self.values))


def _weighted_density(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """w |values|^2, summed over the fiber: the integrand of the squared
    norm at each node of ``values`` (a section or some of its shells,
    with the matching slice of the weights w).  Elementwise, so a shell
    gives its slice of the section's density bit for bit, as long as its
    fiber components are laid out as the section's are."""
    return w * np.sum(np.abs(values) ** 2, axis=-1)


def _norm_of_density(dens: np.ndarray) -> float:
    """The norm whose ``_weighted_density`` over the whole grid is dens."""
    return float(np.sqrt(np.sum(dens).real))
