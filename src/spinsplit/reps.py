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

Every spin-matrix row has at most two nonzero entries, each purely real
or purely imaginary, in the massive |m> basis and in the massless
Cartesian basis alike.  ``RepSpec`` lists them once, as (row, column,
coefficient) triples per axis.  ``_entries_act`` applies a fiber matrix
given by such entries, and it is the one sparse application: each row of
M v is its first nonzero product plus its second, in column order.  The
dense sum adds the same two products and exact zeros, so skipping the
zero entries cannot move a bit of its value.  ``_spin_act`` applies S_a
this way.  A weighted sum w.S = sum_a w_a S_a over fields w_a is listed
by ``_spin_dot``, each position with its per-axis terms, and applied the
same way: the helicity operator chi = S.khat (``_act_chi``, equal bit
for bit to the dense contraction with ``chi_field``) and the connection
form that the transport integrator of :mod:`spinsplit.connections`
applies to its stack at every RK4 node.

The generator formulas are written once for one radial shell
(``_j_formula``, ``_k_formula``) and evaluated on a
:class:`~spinsplit.grid.GridShell` as it stands.  ``_act_J`` and
``_act_K`` apply them to whole sections: the derivative pass is taken
over the whole section, and ``_by_shell`` runs the formula one shell at
a time, cut by ``_on_shell``, into one output section.  Every temporary
is one shell in size, and no shell re-enters ``_act_J`` or ``_act_K``,
so each whole-section action is one call of its name.  The covariant
kernel of :mod:`spinsplit.connections` cuts its shells with the same
``_on_shell`` and calls the formulas directly, so it never enters the
whole-section actions.

The helicity operator is pointwise (the orbital part of J.khat vanishes
identically).  Each fiber action has one direct call: ``_act_J``,
``_act_K`` and ``_act_chi``; ``_act`` dispatches on the generator
letters H, P, J, K of the bracket table ``algebra.BRACKETS``, and
``algebra_residual`` checks each family of that table, the one the
symbolic identity catalog also reads, building each first-level action
and its derivative pass once.  It reads the representation and the grid
from the section it is given, as every diagnostic on sections does.
"""

from __future__ import annotations

import numpy as np

from .algebra import BRACKETS, bracket_axes, bracket_terms
from .grid import GridError, GridShell, MomentumGrid, Section, component_major
from .scalars import _EPS_PAIRS

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
        for b, c, e in _EPS_PAIRS[a]:
            s[a, b, c] = -1j * e
    return s


class RepSpec:
    """A representation label: massive(mass, spin) or massless(helicity)."""

    __slots__ = ("kind", "mass", "spin", "helicity", "dim", "spin_mats",
                 "spin_entries")

    def __init__(self, kind: str, mass: float = 0.0,
                 spin: int | None = None, helicity: int | None = None):
        if kind == "massive":
            if not 0 < mass < np.inf:
                raise RepError("massive representation requires a finite "
                               f"mass > 0; got {mass!r}")
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
        # per axis, the (row, column, coefficient) triples of the nonzero
        # entries of S_a in row-major order
        self.spin_entries = tuple(
            tuple((b, c, mat[b, c]) for b in range(self.dim)
                  for c in range(self.dim) if mat[b, c] != 0)
            for mat in self.spin_mats)

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


def _on_shell(grid: MomentumGrid, i: int, v: np.ndarray, der):
    """Radial shell ``i`` of the grid, of v and of its derivative pass
    ``der`` (a None entry stays None): (grid.shell(i), v, der)."""
    s = slice(i, i + 1)
    return grid.shell(i), v[s], tuple(d if d is None else d[s] for d in der)


def _by_shell(formula, rep: RepSpec, grid: MomentumGrid, a: int,
              v: np.ndarray, der):
    """``formula(rep, shell, a, v, der)`` on each radial shell of the grid
    in turn, written into one array laid out like v, so every temporary
    is one shell in size."""
    out = np.empty_like(v)
    for i in range(grid.n_r):
        sh, v_i, der_i = _on_shell(grid, i, v, der)
        out[i:i + 1] = formula(rep, sh, a, v_i, der_i)
    return out


def _entries_act(entries, dim: int, v: np.ndarray) -> np.ndarray:
    """M v for the fiber matrix M listed as (row, column, coefficient)
    entries in row-major order.  A coefficient is a number, an array that
    broadcasts against one component of v, or a tuple of such terms whose
    products with the component are summed first.  Each row's first
    product is written and the next one added, in column order; a row
    without entries is zero."""
    out = np.empty_like(v)
    written = set()
    for b, c, coef in entries:
        terms = coef if isinstance(coef, tuple) else (coef,)
        vc = v[..., c]
        if b in written:
            prod = terms[0] * vc
            for term in terms[1:]:
                prod += term * vc
            out[..., b] += prod
            del prod
        else:
            row = out[..., b]
            np.multiply(terms[0], vc, out=row)
            for term in terms[1:]:
                row += term * vc
            written.add(b)
        del coef, terms
    for b in set(range(dim)) - written:
        out[..., b] = 0.0
    return out


def _spin_act(rep: RepSpec, a: int, v: np.ndarray) -> np.ndarray:
    """S_a v through the nonzero entries of S_a."""
    return _entries_act(rep.spin_entries[a], rep.dim, v)


def _spin_dot(rep: RepSpec, w):
    """w.S = sum_a w_a S_a for three weight arrays w_a, as the entries
    (row, column, terms) of its nonzero positions, yielded in row-major
    order; the terms w_a (S_a)_{row,column} are in axis order and are made
    when their position is reached, so a consumer that applies the entries
    one by one holds one position's terms at a time.  Each term is purely
    real or purely imaginary, so its product with a component rounds once,
    as in a dense contraction with the matrix field w.S; a summed field
    would round its complex products differently where the hardware fuses
    multiply-adds."""
    coefs = {}
    for a, entries in enumerate(rep.spin_entries):
        for b, c, coef in entries:
            coefs.setdefault((b, c), []).append((a, coef))
    for b, c in sorted(coefs):
        yield b, c, tuple(w[a] * coef for a, coef in coefs[b, c])


def _act_J(rep: RepSpec, grid: MomentumGrid, a: int, v: np.ndarray,
           der=None) -> np.ndarray:
    """J_a v on a whole section; ``der`` is the derivative pass over v,
    taken here unless given."""
    if der is None:
        der = _derivatives(grid, v, radial=False)
    return _by_shell(_j_formula, rep, grid, a, v, der)


def _j_formula(rep: RepSpec, sh: GridShell, a: int, v: np.ndarray,
               der) -> np.ndarray:
    # -i (e_phi d_theta - e_theta d_phi / sin(theta)) + S_a; the division
    # is a product with the grid's 1/sin(theta), which gives the
    # quotient's values on complex sections (see MomentumGrid)
    _, dth, dph = der
    return (-1j * (sh.e_phi[a][..., None] * dth - sh.e_theta[a][..., None]
                   * dph * sh.inv_sin_theta[..., None])
            + _spin_act(rep, a, v))


def _act_K(rep: RepSpec, grid: MomentumGrid, a: int, v: np.ndarray,
           der=None) -> np.ndarray:
    """K_a v on a whole section; ``der`` is the derivative pass over v,
    taken here unless given."""
    if der is None:
        der = _derivatives(grid, v)
    return _by_shell(_k_formula, rep, grid, a, v, der)


def _k_formula(rep: RepSpec, sh: GridShell, a: int, v: np.ndarray,
               der) -> np.ndarray:
    dr, dth, dph = der
    if rep.kind == "massless":
        # khat_a (i |k| d_r) + (khat x J)_a
        return sum((e * sh.khat[b][..., None] * _j_formula(rep, sh, c, v, der)
                    for b, c, e in _EPS_PAIRS[a]),
                   sh.khat[a][..., None] * (1j * sh.kmag[..., None] * dr))
    # multiplication-ordered orbital part i*omega*d_a: self-adjoint under
    # the invariant measure d^3k/omega (the symmetrized variant differs by
    # the radial scalar i k_a/(2 omega) and is self-adjoint under the
    # plain measure instead).  d_theta v / r and d_phi v / (r sin(theta))
    # are products with the grid's reciprocals, which give the quotients'
    # values on complex sections (see MomentumGrid).  The sum runs left to
    # right: i omega (grad v)_a, then sigma eps_abc S_b v k_c/(omega + m)
    # pair by pair
    omega = sh.omega[..., None]
    ks = (sh.kx, sh.ky, sh.kz)
    return sum((_spin_act(rep, b, v)
                * (_SIGMA_BOOST * e / (omega + rep.mass) * ks[c][..., None])
                for b, c, e in _EPS_PAIRS[a]),
               1j * omega * (sh.e_k[a][..., None] * dr
                             + sh.e_theta[a][..., None]
                             * (dth * sh.inv_kmag[..., None])
                             + sh.e_phi[a][..., None]
                             * (dph * sh.inv_kmag_sin_theta[..., None])))


def _act_chi(rep: RepSpec, grid: MomentumGrid, v: np.ndarray) -> np.ndarray:
    """The pointwise helicity operator S.khat on v, through the entries of
    ``_spin_dot``: bit for bit the dense contraction of ``chi_field``
    with v, without building the (d, d) matrix per node."""
    return _entries_act(_spin_dot(rep, grid.khat), rep.dim, v)


def _act(rep: RepSpec, grid: MomentumGrid, tag: str, axis: int | None,
         v: np.ndarray, der=None) -> np.ndarray:
    """Generator ``tag`` in {H, P, J, K} (axis ``axis``) on v; ``der`` is
    an optional precomputed derivative pass over v, shared by the J and K
    actions."""
    if tag == "H":
        return grid.omega[..., None] * v
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
    w = psi.grid.invariant_weights
    dens = np.einsum("...c,...c->...", np.conj(psi.values), phi.values)
    return complex(np.sum(w * dens))


def _test_norm(psi: Section) -> float:
    """||psi|| for a diagnostic that divides by it: a zero test section
    has no relative residual, so it raises."""
    nrm = psi.norm()
    if nrm == 0.0:
        raise RepError("zero test section")
    return nrm


# -- commutation-relation residuals -------------------------------------------

_RELATIONS = tuple(BRACKETS)


def relation_ids():
    return _RELATIONS


def algebra_residual(relation_id: str, psi: Section) -> float:
    """max over index pairs of ||(LHS - RHS) psi|| / ||psi|| for the named
    bracket family [A_a, B_b], in the rep and on the grid of psi.

    Each first-level action A_a v or B_b v is built once, with the one
    derivative pass its second-level actions need, and every second-level
    action on it is taken before it is dropped: B_b (A_a v) for the pairs
    it starts as A_a, A_a (B_b v) for those it starts as B_b.  The half of
    a pair's left side that comes first waits for the other.  The actions
    are visited axis by axis, B_b before A_b, so at most five halves wait
    at once (JK, KP)."""
    if relation_id not in _RELATIONS:
        raise RepError(
            f"unknown relation id {relation_id!r}; valid: {_RELATIONS}"
        )
    rep, grid, v = psi.rep, psi.grid, psi.values
    nrm = _test_norm(psi)

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

    t1, t2 = relation_id[0], relation_id[1]
    pairs = [(a, b) for a in bracket_axes(t1) for b in bracket_axes(t2)
             if relation_id not in ("JJ", "KK", "PP") or b > a]
    # per first-level action: the pairs it starts, each with the
    # second-level generator and axis, and whether the result is the half
    # A_a (B_b v) that leads the bracket A_a B_b - B_b A_a
    feeds = {}
    for a, b in pairs:
        feeds.setdefault((t1, a), []).append(((a, b), t2, b, False))
        feeds.setdefault((t2, b), []).append(((a, b), t1, a, True))
    order = sorted(feeds, key=lambda g: (0.5 if g[1] is None else g[1],
                                         g[0] != t2))

    def finish(a, b, lhs):
        for k, target, c in bracket_terms(relation_id, a, b):
            lhs = lhs - 1j * k * act(target, c, v, v_der)
        return norm_of(lhs) / nrm

    # one pass over v serves every first-level action and every
    # right-hand-side target (a J target appears only beside K, whose
    # pass covers it)
    v_der = one_pass(v, relation_id)
    waiting = {}
    residual = {}
    for tag, axis in order:
        g = act(tag, axis, v, v_der)
        uses = feeds[tag, axis]
        g_der = one_pass(g, [t for _, t, _, _ in uses])
        for pair, t, c, leads in uses:
            half = act(t, c, g, g_der)
            if pair not in waiting:
                waiting[pair] = half
                del half
                continue
            other = waiting.pop(pair)
            x, y = (half, other) if leads else (other, half)
            del half, other
            lhs = x - y
            del x, y
            residual[pair] = finish(*pair, lhs)
            del lhs
        del g, g_der
    return float(np.max([residual[pair] for pair in pairs]))


# -- test sections -------------------------------------------------------------


def _radial_bump(grid: MomentumGrid) -> np.ndarray:
    """Quadratic bump (r-r_min)(r_max-r), exactly zero at the shell
    boundaries and 1 at mid-shell.  The low degree lets the radial
    collocation differentiate it exactly even at N_r = 4 and leaves
    spectral headroom for the non-polynomial energy factors the massive
    boost produces."""
    prof = (grid.r - grid.r_min) * (grid.r_max - grid.r)
    peak = (grid.r_max - grid.r_min) ** 2 / 4.0
    return (prof / peak)[:, None, None] + np.zeros(grid.shape)


def _angular_bump(grid: MomentumGrid, center: np.ndarray) -> np.ndarray:
    """von Mises-Fisher bump exp(3*(khat.n0 - 1)); smooth on the whole
    sphere for any center."""
    cosang = np.einsum("a...,a->...", grid.khat, center)
    return np.exp(3.0 * (cosang - 1.0))


def _polar_damping(grid: MomentumGrid, power: int) -> np.ndarray:
    """sin(theta)^power: vanishes to the given order at both poles and,
    for even powers, is a polynomial in the Cartesian coordinates — so
    it stays fully resolved by the angular differencing."""
    return grid.sin_theta**power


def random_test_section(rep: RepSpec, grid: MomentumGrid, seed: int,
                        polar_damping: int | None = None) -> Section:
    """Deterministic smooth random section.

    One angular von Mises-Fisher bump (concentration 3) at a seeded
    center away from the poles, with a seeded complex amplitude per
    fiber component, times a quadratic radial bump vanishing exactly at
    the shell boundaries.  ``polar_damping`` (an even integer)
    multiplies in sin(theta)^power, suppressing the section near the
    poles for diagnostics whose frame coefficients grow there.
    Massless |h| = 1 output is projected onto the helicity-h transverse
    subspace.
    """
    rng = np.random.default_rng(seed)
    # bump center kept away from the poles
    z = rng.uniform(-0.6, 0.6)
    ph = rng.uniform(0.0, 2.0 * np.pi)
    s = np.sqrt(1.0 - z * z)
    center = np.array([s * np.cos(ph), s * np.sin(ph), z])
    amp = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    shape = grid.shape + (rep.dim,)
    values = np.multiply(_angular_bump(grid, center)[..., None], amp,
                         out=component_major(shape))
    values *= _radial_bump(grid)[..., None]
    if polar_damping is not None:
        if polar_damping < 0 or polar_damping % 2:
            raise RepError("polar_damping must be a nonnegative even "
                           "integer")
        values *= _polar_damping(grid, polar_damping)[..., None]
    if rep.kind == "massless" and rep.helicity:
        proj = rep.helicity_projector(grid)
        values = np.einsum("...bc,...c->...b", proj, values,
                           out=component_major(shape))
    return Section(rep, grid, values)
