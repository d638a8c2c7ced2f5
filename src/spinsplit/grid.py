"""Discretized momentum-space grids and sections.

A :class:`MomentumGrid` covers a spherical shell ``r_min <= |k| <= r_max``
(the origin is always excluded) with

* radial Chebyshev-Lobatto collocation nodes (ascending) carrying a
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

Section values are stored in C order over (r ascending, theta
ascending, phi ascending, fiber component).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GridError",
    "MomentumGrid",
    "Section",
    "make_grid",
]


class GridError(ValueError):
    """Invalid grid parameters or mismatched grid operations."""


# 8th-order centered first-derivative stencil, offsets -4..4.
_FD8 = np.array(
    [1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280]
)
_FD8_HALF = 4


def _cheb_nodes(n: int):
    """Chebyshev-Lobatto nodes on [-1, 1], ascending."""
    return -np.cos(np.pi * np.arange(n) / (n - 1))


def _diff_matrix(x: np.ndarray) -> np.ndarray:
    """Polynomial collocation differentiation matrix for distinct nodes."""
    n = len(x)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
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


class MomentumGrid:
    """Spherical-shell momentum grid; see the module docstring for layout."""

    def __init__(self, n_r: int, n_theta: int, n_phi: int,
                 r_min: float, r_max: float,
                 radial_map: str = "linear", mass_scale: float = 1.0):
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

        # Radial collocation: Chebyshev-Lobatto nodes either directly in r
        # ("linear") or in t = asinh(r/mass_scale) ("sinh").  The sinh map
        # makes sqrt(mass^2 + r^2) = mass*cosh(t) entire in the collocation
        # variable, which massive-representation operators need for
        # spectral accuracy at small N_r; the linear map differentiates
        # radial polynomials exactly, which massless operators exploit.
        x = _cheb_nodes(self.n_r)
        if radial_map == "linear":
            half = 0.5 * (r_max - r_min)
            self.r = r_min + half * (x + 1.0)
            self._d_r_matrix = _diff_matrix(self.r)
            self.w_r = half * _quad_weights(x)
        elif radial_map == "sinh":
            if not mass_scale > 0:
                raise GridError("sinh radial map requires mass_scale > 0")
            t_min = np.arcsinh(r_min / mass_scale)
            t_max = np.arcsinh(r_max / mass_scale)
            half = 0.5 * (t_max - t_min)
            t = t_min + half * (x + 1.0)
            self.r = mass_scale * np.sinh(t)
            drdt = mass_scale * np.cosh(t)
            self._d_r_matrix = _diff_matrix(t) / drdt[:, None]
            self.w_r = half * _quad_weights(x) * drdt
        else:
            raise GridError(f"unknown radial_map {radial_map!r}")
        self.radial_map = radial_map
        self.mass_scale = float(mass_scale)

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
        self.khat = np.stack(
            [self.kx, self.ky, self.kz], axis=0) / self.kmag
        # Spherical orthonormal frame (Cartesian components).
        zero = np.zeros(self.shape)
        self.e_k = self.khat
        self.e_theta = np.stack([ct * cp + zero, ct * sp_ + zero, -st + zero])
        self.e_phi = np.stack([-sp_ + zero, cp + zero, zero])

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
            "radial_map": self.radial_map,
            "mass_scale": self.mass_scale,
        }

    def __repr__(self):
        return (f"MomentumGrid({self.n_r}, {self.n_theta}, {self.n_phi}, "
                f"r_min={self.r_min}, r_max={self.r_max})")

    def omega(self, mass: float) -> np.ndarray:
        """Energy sqrt(mass^2 + |k|^2), shape (N_r, N_theta, N_phi)."""
        return np.sqrt(mass**2 + self.kmag**2)

    # -- derivatives ---------------------------------------------------------
    #
    # All operate on arrays of shape (N_r, N_theta, N_phi, ...) whose fiber
    # components are Cartesian-frame (single-valued on R^3).

    def d_r(self, values: np.ndarray) -> np.ndarray:
        """Spectral radial derivative along axis 0."""
        return np.einsum("ij,j...->i...", self._d_r_matrix, values)

    def _pole_extended(self, values: np.ndarray) -> np.ndarray:
        """Extend the latitude axis by the exact cross-pole parity rule."""
        h = _FD8_HALF
        flip = self.n_phi // 2
        north = np.roll(values[:, h - 1::-1], flip, axis=2)
        south = np.roll(values[:, :-h - 1:-1], flip, axis=2)
        return np.concatenate([north, values, south], axis=1)

    def d_theta(self, values: np.ndarray) -> np.ndarray:
        """8th-order latitude derivative with exact pole closures."""
        ext = self._pole_extended(values)
        h = _FD8_HALF
        out = np.zeros_like(values)
        for s, c in enumerate(_FD8):
            if c:
                out += c * ext[:, s:s + self.n_theta]
        return out / self.dtheta

    def d_phi(self, values: np.ndarray) -> np.ndarray:
        """8th-order periodic longitude derivative.  The longitude axis is
        wrap-padded once by the stencil half-width, and each stencil term
        reads one slice of the padded copy (as ``d_theta`` does): the same
        values as rolling ``values`` once per term, with one copy instead
        of eight."""
        h = _FD8_HALF
        ext = np.concatenate(
            [values[:, :, -h:], values, values[:, :, :h]], axis=2)
        out = np.zeros_like(values)
        for s, c in enumerate(_FD8):
            if c:
                out += c * ext[:, :, s:s + self.n_phi]
        return out / self.dphi

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


def make_grid(n_r: int, n_theta: int, n_phi: int,
              r_min: float, r_max: float,
              radial_map: str = "linear",
              mass_scale: float = 1.0) -> MomentumGrid:
    """Build a :class:`MomentumGrid`; raises :class:`GridError` on invalid
    parameters."""
    return MomentumGrid(n_r, n_theta, n_phi, r_min, r_max,
                        radial_map=radial_map, mass_scale=mass_scale)


class Section:
    """A discretized bundle section: one complex fiber value per node.

    ``values`` has shape (N_r, N_theta, N_phi, d) in complex128; fiber
    components are in a fixed Cartesian-frame basis.  Sections are treated
    as immutable values: arithmetic returns new instances.
    """

    __slots__ = ("rep", "grid", "values")

    def __init__(self, rep, grid: MomentumGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        expected = grid.shape + (rep.dim,)
        if values.shape != expected:
            raise GridError(
                f"section values have shape {values.shape}, "
                f"expected {expected}"
            )
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
        w = self.grid.volume_weights() / self.grid.omega(self.rep.mass)
        dens = np.sum(np.abs(self.values) ** 2, axis=-1)
        return float(np.sqrt(np.sum(w * dens).real))
