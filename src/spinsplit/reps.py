"""Representation data and numerical generator actions on sections.

Massive representations (mass m > 0, spin s in {0, 1}) use a (2s+1)-dim
fiber with the standard spin matrices (S3 diagonal).  The generator
actions in canonical coordinates are

    H     : multiply by omega = sqrt(m^2 + |k|^2)
    P_a   : multiply by k_a
    J_a   : -i (k x grad)_a + S_a
    K_a   : (omega*Q_a + Q_a*omega)/2 + sigma*(S x k)_a/(omega+m),
            Q = i*grad, sigma = -1

where sigma is fixed by minimizing the boost-boost commutator residual
(see tests).  Massless representations (m = 0) use helicity h in
{-1, 0, +1}: h = 0 is a scalar fiber, |h| = 1 lives in the transverse
subspace of C^3 with Cartesian spin-1 matrices (S_a)_{bc} = -i eps_abc
and sections constrained to khat . psi = 0.  The massless boost action is

    K = khat (khat.K) + khat x J,    khat.K = i |k| d/d|k|,

where khat.K carries no constant term: the exact operator algebra gives
(khat.K)^adjoint - (khat.K) = 2i, and i|k|d/d|k| is the unique
i(|k|d/d|k| + c) with that adjoint defect under the d^3k/omega measure,
making the total K Hermitian (equivalently: K = khat*i(|k|d/d|k| + 1)
+ (khat x J - i*khat), the symmetrized transverse form).

The helicity operator chi = S.khat is pointwise (the orbital part of
J.khat vanishes identically).  Each fiber action has one direct call:
``_act_J``, ``_act_K`` and ``_act_chi``; ``_act`` dispatches on the
generator letters H, P, J, K of the commutation-relation catalog.
"""

from __future__ import annotations

import numpy as np

from .grid import GridError, MomentumGrid, Section
from .scalars import eps

__all__ = [
    "RepError",
    "RepSpec",
    "inner",
    "algebra_residual",
    "relation_ids",
    "random_test_section",
]


class RepError(ValueError):
    """Invalid representation parameters or constraint violations."""


def _spin_matrices_massive(spin: int) -> np.ndarray:
    if spin == 0:
        return np.zeros((3, 1, 1), dtype=np.complex128)
    if spin == 1:
        s = 1 / np.sqrt(2)
        sx = s * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        sy = s * np.array(
            [[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
        sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
        return np.stack([sx, sy, sz])
    raise RepError(f"massive spin must be 0 or 1, got {spin}")


def _spin_matrices_cartesian() -> np.ndarray:
    s = np.zeros((3, 3, 3), dtype=np.complex128)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    s[a, b, c] = -1j * e
    return s


class RepSpec:
    """A representation label: massive(mass, spin) or massless(helicity)."""

    __slots__ = ("kind", "mass", "spin", "helicity", "dim", "spin_mats")

    def __init__(self, kind: str, mass: float = 0.0,
                 spin: int | None = None, helicity: int | None = None):
        if kind == "massive":
            if not mass > 0:
                raise RepError("massive representation requires mass > 0")
            if spin not in (0, 1):
                raise RepError("massive spin must be 0 or 1")
            self.kind = "massive"
            self.mass = float(mass)
            self.spin = int(spin)
            self.helicity = None
            self.dim = 2 * self.spin + 1
            self.spin_mats = _spin_matrices_massive(self.spin)
        elif kind == "massless":
            if mass not in (0, 0.0):
                raise RepError("massless representation requires mass = 0")
            if helicity not in (-1, 0, 1):
                raise RepError("helicity must be -1, 0 or +1")
            self.kind = "massless"
            self.mass = 0.0
            self.spin = None
            self.helicity = int(helicity)
            self.dim = 3 if helicity else 1
            self.spin_mats = (
                _spin_matrices_cartesian() if helicity
                else np.zeros((3, 1, 1), dtype=np.complex128)
            )
        else:
            raise RepError(f"unknown representation kind {kind!r}")

    @classmethod
    def massive(cls, mass: float, spin: int) -> "RepSpec":
        return cls("massive", mass=mass, spin=spin)

    @classmethod
    def massless(cls, helicity: int) -> "RepSpec":
        return cls("massless", helicity=helicity)

    def spec(self) -> dict:
        if self.kind == "massive":
            return {"kind": "massive", "mass": self.mass, "spin": self.spin}
        return {"kind": "massless", "helicity": self.helicity}

    def __eq__(self, other):
        return isinstance(other, RepSpec) and self.spec() == other.spec()

    def __hash__(self):
        return hash(tuple(sorted(self.spec().items())))

    def __repr__(self):
        if self.kind == "massive":
            return f"RepSpec.massive(mass={self.mass}, spin={self.spin})"
        return f"RepSpec.massless(helicity={self.helicity})"

    # -- pointwise fiber matrix fields ---------------------------------------

    def chi_field(self, grid: MomentumGrid) -> np.ndarray:
        """Pointwise helicity matrix S.khat, shape grid.shape + (d, d)."""
        return np.einsum("a...,abc->...bc", grid.khat, self.spin_mats)

    def helicity_projector(self, grid: MomentumGrid) -> np.ndarray:
        """Pointwise projector onto the helicity-h transverse subspace
        (massless |h| = 1 only)."""
        if self.kind != "massless" or not self.helicity:
            raise RepError("helicity projector requires massless |h| = 1")
        kk = np.einsum("a...,b...->...ab", grid.khat, grid.khat)
        transverse = np.eye(3) - kk
        return 0.5 * (transverse + self.helicity * self.chi_field(grid))


# -- raw generator actions on value arrays -------------------------------------

_SIGMA_BOOST = -1.0  # sign of the massive spin-boost term, fixed by tests


def _derivatives(grid: MomentumGrid, v: np.ndarray, radial: bool = True):
    """One derivative pass over v: (d_r v, d_theta v, d_phi v).  J needs
    no radial derivative, so ``radial=False`` leaves d_r v as None."""
    return (grid.d_r(v) if radial else None, grid.d_theta(v), grid.d_phi(v))


def _act_J(rep: RepSpec, grid: MomentumGrid, a: int,
           v: np.ndarray, der=None) -> np.ndarray:
    if der is None:
        der = _derivatives(grid, v, radial=False)
    _, dth, dph = der
    orb = -1j * (grid.e_phi[a][..., None] * dth
                 - grid.e_theta[a][..., None] * dph
                 / grid.sin_theta[..., None])
    return orb + np.einsum("bc,...c->...b", rep.spin_mats[a], v)


def _act_K(rep: RepSpec, grid: MomentumGrid, a: int,
           v: np.ndarray, der=None) -> np.ndarray:
    if der is None:
        der = _derivatives(grid, v)
    dr, dth, dph = der
    if rep.kind == "massive":
        # multiplication-ordered orbital part i*omega*d_a: self-adjoint
        # under the invariant measure d^3k/omega (the symmetrized variant
        # differs by the radial scalar i k_a/(2 omega) and is self-adjoint
        # under the plain measure instead)
        omega = grid.omega(rep.mass)[..., None]
        r3 = grid.kmag[..., None]
        st = grid.sin_theta[..., None]
        # component a of the Cartesian gradient, accumulated in place
        out = grid.e_k[a][..., None] * dr
        out += grid.e_theta[a][..., None] * (dth / r3)
        out += grid.e_phi[a][..., None] * (dph / (r3 * st))
        out = 1j * omega * out
        ks = (grid.kx, grid.ky, grid.kz)
        for b in range(3):
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    out += (
                        (_SIGMA_BOOST * e / (omega + rep.mass))
                        * ks[c][..., None]
                        * np.einsum("bc,...c->...b", rep.spin_mats[b], v)
                    )
        return out
    radial = 1j * grid.kmag[..., None] * dr
    out = grid.khat[a][..., None] * radial
    for b in range(3):
        for c in range(3):
            e = eps(a, b, c)
            if e:
                out += (e * grid.khat[b][..., None]
                        * _act_J(rep, grid, c, v, der))
    return out


def _act_chi(rep: RepSpec, grid: MomentumGrid, v: np.ndarray) -> np.ndarray:
    """The pointwise helicity operator S.khat on v."""
    return np.einsum("...bc,...c->...b", rep.chi_field(grid), v)


def _act(rep: RepSpec, grid: MomentumGrid, tag: str, axis: int | None,
         v: np.ndarray, der=None) -> np.ndarray:
    """Generator ``tag`` in {H, P, J, K} (axis ``axis``) on v; ``der`` is
    an optional precomputed derivative pass over v, shared by the J and K
    actions."""
    if tag == "H":
        return grid.omega(rep.mass)[..., None] * v
    if tag == "P":
        k = (grid.kx, grid.ky, grid.kz)[axis]
        return k[..., None] * v
    if tag == "J":
        return _act_J(rep, grid, axis, v, der)
    if tag == "K":
        return _act_K(rep, grid, axis, v, der)
    raise RepError(f"unknown generator tag {tag!r}")


def inner(psi: Section, phi: Section) -> complex:
    """Inner product with the invariant measure d^3k/omega (conjugate
    linear in the first argument)."""
    if psi.grid != phi.grid or psi.rep != phi.rep:
        raise GridError("inner product requires matching rep and grid")
    w = psi.grid.volume_weights() / psi.grid.omega(psi.rep.mass)
    dens = np.einsum("...c,...c->...", np.conj(psi.values), phi.values)
    return complex(np.sum(w * dens))


# -- commutation-relation residual catalog -------------------------------------
#
# The ten bracket families among {J, K, P, H}:
#   JJ: [J_a,J_b] = i eps_abc J_c      JK: [J_a,K_b] = i eps_abc K_c
#   KK: [K_a,K_b] = -i eps_abc J_c     JP: [J_a,P_b] = i eps_abc P_c
#   KP: [K_a,P_b] = i delta_ab H       KH: [K_a,H] = i P_a
#   JH: [J_a,H] = 0                    PP: [P_a,P_b] = 0
#   PH: [P_a,H] = 0                    HH: [H,H] = 0

_RELATIONS = ("JJ", "JK", "KK", "JP", "KP", "KH", "JH", "PP", "PH", "HH")


def relation_ids():
    return _RELATIONS


def algebra_residual(rep: RepSpec, grid: MomentumGrid, relation_id: str,
                     psi: Section) -> float:
    """max over index pairs of ||(LHS - RHS) psi|| / ||psi|| for the named
    bracket family."""
    if relation_id not in _RELATIONS:
        raise RepError(
            f"unknown relation id {relation_id!r}; valid: {_RELATIONS}"
        )
    v = psi.values
    nrm = psi.norm()
    if nrm == 0.0:
        raise RepError("zero test section")

    def norm_of(values):
        return Section(rep, grid, values).norm()

    def one_pass(w, tags):
        # the derivative pass that the generators in ``tags`` need on w,
        # shared by every axis acting on w
        if not {"J", "K"} & set(tags):
            return None
        return _derivatives(grid, w, radial="K" in tags)

    def act(tag, axis, w, der=None):
        return _act(rep, grid, tag, axis, w, der)

    worst = 0.0
    t1, t2 = relation_id[0], relation_id[1]
    vec = {"J", "K", "P"}
    axes1 = range(3) if t1 in vec else (None,)
    axes2 = range(3) if t2 in vec else (None,)
    # one pass over v serves t1, t2 and every right-hand-side target (a
    # J target appears only beside K, whose pass covers it)
    v_der = one_pass(v, relation_id)
    for a in axes1:
        partners = [b for b in axes2
                    if relation_id not in ("JJ", "KK", "PP") or b > a]
        if not partners:
            continue
        u = act(t1, a, v, v_der)
        u_der = one_pass(u, t2)
        for b in partners:
            w = act(t2, b, v, v_der)
            lhs = act(t1, a, w, one_pass(w, t1)) - act(t2, b, u, u_der)
            if relation_id in ("JJ", "JK"):
                target = ("J", "K")[relation_id == "JK"]
                for c in range(3):
                    e = eps(a, b, c)
                    if e:
                        lhs = lhs - 1j * e * act(target, c, v, v_der)
            elif relation_id == "KK":
                for c in range(3):
                    e = eps(a, b, c)
                    if e:
                        lhs = lhs + 1j * e * act("J", c, v, v_der)
            elif relation_id == "JP":
                for c in range(3):
                    e = eps(a, b, c)
                    if e:
                        lhs = lhs - 1j * e * act("P", c, v)
            elif relation_id == "KP":
                if a == b:
                    lhs = lhs - 1j * act("H", None, v)
            elif relation_id == "KH":
                lhs = lhs - 1j * act("P", a, v)
            # JH, PP, PH, HH: RHS = 0
            worst = max(worst, norm_of(lhs) / nrm)
    return worst


# -- test sections -------------------------------------------------------------


def _radial_bump(grid: MomentumGrid, exponent: int = 1) -> np.ndarray:
    """Polynomial bump ((r-r_min)(r_max-r))^exponent, exactly zero at the
    shell boundaries.  The default keeps the degree low (2) so the radial
    collocation differentiates it exactly even at N_r = 4 and leaves
    spectral headroom for the non-polynomial energy factors the massive
    boost produces."""
    prof = ((grid.r - grid.r_min) * (grid.r_max - grid.r)) ** exponent
    peak = ((grid.r_max - grid.r_min) ** 2 / 4.0) ** exponent
    return (prof / peak)[:, None, None] + np.zeros(grid.shape)


def _angular_bump(grid: MomentumGrid, center: np.ndarray,
                  alpha: float) -> np.ndarray:
    """von Mises-Fisher bump exp(alpha*(khat.n0 - 1)); smooth on the whole
    sphere for any center."""
    cosang = np.einsum("a...,a->...", grid.khat, center)
    return np.exp(alpha * (cosang - 1.0))


def _polar_damping(grid: MomentumGrid, power: int) -> np.ndarray:
    """sin(theta)^power: vanishes to the given order at both poles and,
    for even powers, is a polynomial in the Cartesian coordinates — so
    it stays fully resolved by the angular differencing."""
    return grid.sin_theta**power


def random_test_section(rep: RepSpec, grid: MomentumGrid, seed: int,
                        profile: str = "gaussian-bump",
                        alpha: float = 3.0,
                        polar_damping: int | None = None,
                        radial_exponent: int = 1) -> Section:
    """Deterministic smooth random section.

    profile 'gaussian-bump': one angular bump; 'multi-bump': three.  The
    radial factor is a polynomial bump vanishing exactly at the shell
    boundaries.  ``alpha`` sets the angular concentration;
    ``polar_damping`` (an even integer) multiplies in sin(theta)^power,
    suppressing the section near the poles for diagnostics whose frame
    coefficients grow there.  Massless |h| = 1 output is projected onto
    the helicity-h transverse subspace.
    """
    if profile not in ("gaussian-bump", "multi-bump"):
        raise RepError(f"unknown profile {profile!r}")
    rng = np.random.default_rng(seed)
    n_bumps = 1 if profile == "gaussian-bump" else 3
    values = np.zeros(grid.shape + (rep.dim,), dtype=np.complex128)
    for _ in range(n_bumps):
        # bump centers kept away from the poles
        z = rng.uniform(-0.6, 0.6)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        s = np.sqrt(1.0 - z * z)
        center = np.array([s * np.cos(ph), s * np.sin(ph), z])
        amp = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
        bump = _angular_bump(grid, center, alpha)
        values += bump[..., None] * amp
    values *= _radial_bump(grid, radial_exponent)[..., None]
    if polar_damping is not None:
        if polar_damping < 0 or polar_damping % 2:
            raise RepError("polar_damping must be a nonnegative even "
                           "integer")
        values *= _polar_damping(grid, polar_damping)[..., None]
    if rep.kind == "massless" and rep.helicity:
        proj = rep.helicity_projector(grid)
        values = np.einsum("...bc,...c->...b", proj, values)
    return Section(rep, grid, values)
