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
applies to its stack at every RK4 node, there as one stacked product of
all the entries that sums each row as ``_entries_act`` does.

The generator formulas are written once, for one radial shell, as the
methods of ``_ShellPass``: the pass of one section on one shell.  It
takes the shell's derivative pass on first use, d_theta and d_phi of
the shell alone and, only when a K action asks, row i of d_r over the
whole section (each the slice of the whole-section derivative, bit for
bit), and it builds each S_a v, J_a v, K_a v and omega + m once for
every action on that shell, so a K triple builds each S_b v (massive)
or J_c v (massless) once.  ``_by_shell`` is the one shell loop over a
section: it yields the pass of each shell in turn, and its caller writes
every request it has on that section, generator actions or covariant
derivatives (:mod:`spinsplit.connections`), before the next shell
begins.  Every temporary is therefore one shell in size, and no whole
derivative pass is held.  ``_actions`` builds whole sections of any set
of J and K actions in one such loop; ``_act_J`` and ``_act_K`` are its
one-action calls, and no shell re-enters them, so each whole-section
action is one call of its name.

The helicity operator is pointwise (the orbital part of J.khat vanishes
identically).  Each fiber action has one direct call: ``_act_J``,
``_act_K`` and ``_act_chi``; ``_act`` dispatches on the generator
letters H, P, J, K of the bracket table ``poincare.BRACKETS``.
``algebra_residuals`` checks any set of families of that table, the one
the symbolic identity catalog also reads, on one shared set of actions:
one loop over psi builds each first-level J_a psi and K_a psi once, and
each first-level action takes its derivative pass once, one shell at a
time, for every second-level action on it.  ``algebra_residual`` is its
one-family call.  At (8, 48, 96) the ten families in one call take 11
radial and 11 angular passes, where ten one-family calls took 14 and 27,
and peak at 11.1 sections (19.6 MB for massive spin 1), where the
largest one-family call peaked at 14.0.  A diagnostic reads the
representation and the grid from the section it is given, as every
diagnostic on sections does.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    GridError,
    MomentumGrid,
    Section,
    _norm_of_density,
    _weighted_density,
    component_major,
)
from .poincare import _EPS_PAIRS, BRACKETS, bracket_axes, bracket_terms

__all__ = [
    "RepError",
    "RepSpec",
    "inner",
    "algebra_residuals",
    "relation_ids",
    "random_test_section",
]


class RepError(ValueError):
    """Invalid representation parameters or constraint violations."""


def _spin_matrices_massive(spin: int) -> np.ndarray:
    """S_a for spin 0 or 1, the spins ``RepSpec`` admits."""
    if spin == 0:
        return np.zeros((3, 1, 1), dtype=np.complex128)
    s = 1 / np.sqrt(2)
    sx = s * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    sy = s * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return np.stack([sx, sy, sz])


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


def _multiply(fields, tag: str, axis: int | None, v: np.ndarray):
    """The pointwise generator H (omega v) or P_axis (k_axis v), with
    ``fields`` a grid or one of its shells."""
    if tag == "H":
        return fields.omega[..., None] * v
    return (fields.kx, fields.ky, fields.kz)[axis][..., None] * v


class _ShellPass:
    """Radial shell ``i`` of a section and the generator actions on it.

    ``v`` holds the shell's values, shape (1, N_theta, N_phi, d), and
    ``whole`` the section they were cut from, which only the radial
    derivative reads.  The derivative pass is taken on first use: d_theta
    and d_phi of the shell alone, and row i of d_r over the whole section
    only when a K action asks for it, so each is the slice of the
    whole-section derivative, bit for bit.  Each S_a v, J_a v, K_a v and
    omega + m is built once and kept while the pass lives: the actions
    on one shell share them, so a K triple builds each S_b v (massive) or
    J_c v (massless) once."""

    __slots__ = ("rep", "grid", "i", "sh", "v", "_whole", "_dr", "_ang",
                 "_kept")

    def __init__(self, rep: RepSpec, grid: MomentumGrid, i: int,
                 v: np.ndarray, whole: np.ndarray | None = None):
        self.rep, self.grid, self.i = rep, grid, i
        self.sh = grid.shell(i)
        self.v = v
        self._whole = whole
        self._dr = self._ang = None
        self._kept = {}

    @property
    def dr(self) -> np.ndarray:
        """d_r v on the shell: row i of the whole section's derivative."""
        if self._dr is None:
            self._dr = self.grid.d_r(self._whole, self.i)
        return self._dr

    @property
    def ang(self):
        """(d_theta v, d_phi v) of the shell."""
        if self._ang is None:
            self._ang = (self.grid.d_theta(self.v), self.grid.d_phi(self.v))
        return self._ang

    def _once(self, key, build):
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def spin(self, a: int) -> np.ndarray:
        return self._once(("S", a), lambda: _spin_act(self.rep, a, self.v))

    def J(self, a: int) -> np.ndarray:
        return self._once(("J", a), lambda: self._j(a))

    def K(self, a: int) -> np.ndarray:
        return self._once(("K", a), lambda: self._k(a))

    def gen(self, tag: str, axis: int | None) -> np.ndarray:
        """Generator ``tag`` in {H, P, J, K} (axis ``axis``) on the shell."""
        if tag in ("H", "P"):
            return _multiply(self.sh, tag, axis, self.v)
        return self.J(axis) if tag == "J" else self.K(axis)

    def _j(self, a: int) -> np.ndarray:
        # -i (e_phi d_theta - e_theta d_phi / sin(theta)) + S_a; the
        # division is a product with the grid's 1/sin(theta), which gives
        # the quotient's values on complex sections (see MomentumGrid)
        sh, (dth, dph) = self.sh, self.ang
        return (-1j * (sh.e_phi[a][..., None] * dth - sh.e_theta[a][..., None]
                       * dph * sh.inv_sin_theta[..., None])
                + self.spin(a))

    def _k(self, a: int) -> np.ndarray:
        sh, rep = self.sh, self.rep
        if rep.kind == "massless":
            # khat_a (i |k| d_r) + (khat x J)_a
            return sum((e * sh.khat[b][..., None] * self.J(c)
                        for b, c, e in _EPS_PAIRS[a]),
                       sh.khat[a][..., None]
                       * (1j * sh.kmag[..., None] * self.dr))
        # multiplication-ordered orbital part i*omega*d_a: self-adjoint
        # under the invariant measure d^3k/omega (the symmetrized variant
        # differs by the radial scalar i k_a/(2 omega) and is self-adjoint
        # under the plain measure instead).  d_theta v / r and
        # d_phi v / (r sin(theta)) are products with the grid's
        # reciprocals, which give the quotients' values on complex
        # sections (see MomentumGrid).  The sum runs left to right:
        # i omega (grad v)_a, then sigma eps_abc S_b v k_c/(omega + m)
        # pair by pair
        dth, dph = self.ang
        omega = sh.omega[..., None]
        omega_m = self._once("omega+m", lambda: omega + rep.mass)
        ks = (sh.kx, sh.ky, sh.kz)
        return sum((self.spin(b)
                    * (_SIGMA_BOOST * e / omega_m * ks[c][..., None])
                    for b, c, e in _EPS_PAIRS[a]),
                   1j * omega * (sh.e_k[a][..., None] * self.dr
                                 + sh.e_theta[a][..., None]
                                 * (dth * sh.inv_kmag[..., None])
                                 + sh.e_phi[a][..., None]
                                 * (dph * sh.inv_kmag_sin_theta[..., None])))


def _by_shell(rep: RepSpec, grid: MomentumGrid, v: np.ndarray):
    """The shell loop over a section v: the ``_ShellPass`` of v on each
    radial shell in turn.  A caller writes what it wants of each shell
    before asking for the next, so every temporary is one shell in
    size."""
    for i in range(grid.n_r):
        yield _ShellPass(rep, grid, i, v[i:i + 1], v)


def _actions(rep: RepSpec, grid: MomentumGrid, v: np.ndarray, gens) -> list:
    """[g v for each generator (tag, axis) in ``gens``] as whole
    sections, from one shell loop over v."""
    out = [np.empty_like(v) for _ in gens]
    for p in _by_shell(rep, grid, v):
        for o, (tag, axis) in zip(out, gens):
            o[p.i:p.i + 1] = p.gen(tag, axis)
    return out


def _act_J(rep: RepSpec, grid: MomentumGrid, a: int,
           v: np.ndarray) -> np.ndarray:
    """J_a v on a whole section."""
    return _actions(rep, grid, v, [("J", a)])[0]


def _act_K(rep: RepSpec, grid: MomentumGrid, a: int,
           v: np.ndarray) -> np.ndarray:
    """K_a v on a whole section."""
    return _actions(rep, grid, v, [("K", a)])[0]


def _act_chi(rep: RepSpec, grid: MomentumGrid, v: np.ndarray) -> np.ndarray:
    """The pointwise helicity operator S.khat on v, through the entries of
    ``_spin_dot``: bit for bit the dense contraction of ``chi_field``
    with v, without building the (d, d) matrix per node."""
    return _entries_act(_spin_dot(rep, grid.khat), rep.dim, v)


def _act(rep: RepSpec, grid: MomentumGrid, tag: str, axis: int | None,
         v: np.ndarray) -> np.ndarray:
    """Generator ``tag`` in {H, P, J, K} (axis ``axis``) on a whole
    section v."""
    if tag in ("H", "P"):
        return _multiply(grid, tag, axis, v)
    if tag == "J":
        return _act_J(rep, grid, axis, v)
    if tag == "K":
        return _act_K(rep, grid, axis, v)
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
    bracket family [A_a, B_b], in the rep and on the grid of psi: the
    one-family call of ``algebra_residuals``."""
    return algebra_residuals((relation_id,), psi)[0]


def _halves(pair):
    """The two halves of the bracket pair (family AB, a, b) as (node,
    generator) pairs, each a (letter, axis): the half A_a (B_b v) that
    leads A_a B_b - B_b A_a, then B_b (A_a v)."""
    family, a, b = pair
    return ((family[1], b), (family[0], a)), ((family[0], a), (family[1], b))


def algebra_residuals(families, psi: Section) -> list:
    """[algebra_residual(rid, psi) for rid in families], each family
    checked on one shared set of generator actions on psi.

    A node is a first-level action g v; each half of a pair is a
    generator acting on a node.  One shell loop over psi builds every
    first-level J_a v and K_a v, which serve as nodes and as the
    right-hand-side targets.  The pairs are then finished in phases, one
    per P_b v or H v node (built whole in its phase) whose J or K half a
    pair needs, one for the pairs whose J and K halves all act on J and
    K nodes, and one for the pairs of pointwise halves alone.  A phase
    is one shell loop: on each shell it takes each node's derivative
    pass once, one node at a time, and gives it every half on that node.
    A half whose partner is pointwise (H or P on a node) is finished at
    once; of two J or K halves, the first to be built waits, one shell in
    size, for the other.  Each finished pair leaves only its weighted
    density on the shell, and its norm is taken over the whole grid when
    the phase ends.  Every half and target is built by the arithmetic of
    the one-action-per-pair loop, so each residual equals it bit for
    bit."""
    rids = tuple(families)
    for rid in rids:
        if rid not in _RELATIONS:
            raise RepError(
                f"unknown relation id {rid!r}; valid: {_RELATIONS}")
    rep, grid, v = psi.rep, psi.grid, psi.values
    nrm = _test_norm(psi)
    w = grid.invariant_weights
    pairs = [(rid, a, b) for rid in dict.fromkeys(rids)
             for a in bracket_axes(rid[0]) for b in bracket_axes(rid[1])
             if rid not in ("JJ", "KK", "PP") or b > a]

    def phase(pair):
        # the P or H node carrying a J or K half, else "JK" when the pair
        # has J or K halves, else None
        nodes = [node for node, (t, _) in _halves(pair) if t in "JK"]
        return next((n for n in nodes if n[0] in "PH"),
                    "JK" if nodes else None)

    first = sorted(
        {node for pair in pairs for node, _ in _halves(pair)
         if node[0] in "JK"}
        | {(t, c) for pair in pairs for _, t, c in bracket_terms(*pair)
           if t in "JK"})
    held = dict(zip(first, _actions(rep, grid, v, first)))
    residual = {}
    for key in dict.fromkeys(sorted(map(phase, pairs), key=str)):
        mine = [pair for pair in pairs if phase(pair) == key]
        whole = dict(held)
        if key not in ("JK", None):
            whole[key] = _act(rep, grid, *key, v)
        dens = {pair: np.empty(grid.shape) for pair in mine}
        uses = {}  # node -> [(pair, whether the half leads, generator)]
        for pair in mine:
            for leads, (node, gen) in zip((True, False), _halves(pair)):
                if gen[0] in "JK":
                    uses.setdefault(node, []).append((pair, leads, gen))
        for i in range(grid.n_r):
            sh, v_i = grid.shell(i), v[i:i + 1]

            def values(node):
                if node in whole:
                    return whole[node][i:i + 1]
                return _multiply(sh, *node, v_i)

            def finish(pair, x, y):
                lhs = x - y
                for k, target, c in bracket_terms(*pair):
                    t = (held[target, c][i:i + 1] if target in "JK"
                         else _multiply(sh, target, c, v_i))
                    lhs = lhs - 1j * k * t
                    del t
                dens[pair][i:i + 1] = _weighted_density(w[i:i + 1], lhs)

            waiting = {}
            for node in sorted(uses):
                p = _ShellPass(rep, grid, i, values(node), whole.get(node))
                for pair, leads, gen in uses[node]:
                    half = p.gen(*gen)
                    # the pair's other half: the second if this one leads
                    other_node, other_gen = _halves(pair)[leads]
                    if other_gen[0] in "HP":
                        other = _multiply(sh, *other_gen, values(other_node))
                    elif pair in waiting:
                        other = waiting.pop(pair)
                    else:
                        waiting[pair] = half
                        continue
                    finish(pair, *((half, other) if leads else (other, half)))
                    del half, other
                del p
            if key is None:
                for pair in mine:
                    x, y = (_multiply(sh, *gen, values(node))
                            for node, gen in _halves(pair))
                    finish(pair, x, y)
                    del x, y
        for pair in mine:
            residual[pair] = _norm_of_density(dens.pop(pair)) / nrm
        del whole
    return [float(np.max([residual[pair] for pair in pairs
                          if pair[0] == rid])) for rid in rids]


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
