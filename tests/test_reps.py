"""Representation actions on grid sections: commutation-relation
residuals, sign calibration, self-adjointness, helicity structure, and
deterministic test sections."""

import numpy as np
import pytest

import spinsplit.reps as reps_mod
from spinsplit.grid import Section, make_grid
from spinsplit.reps import (
    RepError,
    RepSpec,
    _act,
    _act_chi,
    _act_J,
    _act_K,
    _derivatives,
    _on_shell,
    _spin_act,
    algebra_residual,
    inner,
    random_test_section,
    relation_ids,
)

from spinsplit.scalars import eps

from conftest import MASS


# -- RepSpec validation -----------------------------------------------------------


def test_repspec_validation():
    with pytest.raises(RepError):
        RepSpec.massive(0.0, 1)
    with pytest.raises(RepError):
        RepSpec.massive(1.0, 2)
    with pytest.raises(RepError):
        RepSpec.massless(2)


def test_repspec_spec_round_trip():
    for rep in (RepSpec.massive(1.3, 0), RepSpec.massive(2.0, 1),
                RepSpec.massless(-1), RepSpec.massless(0)):
        assert RepSpec(**rep.spec()) == rep


def test_spin_matrices_su2():
    rep = RepSpec.massive(MASS, 1)
    s = rep.spin_mats
    for a in range(3):
        assert np.allclose(s[a], np.conj(s[a].T))  # Hermitian
    comm = s[0] @ s[1] - s[1] @ s[0]
    assert np.allclose(comm, 1j * s[2])
    casimir = sum(s[a] @ s[a] for a in range(3))
    assert np.allclose(casimir, 2.0 * np.eye(3))  # s(s+1), s = 1


# -- commutation-relation residuals ------------------------------------------------


@pytest.mark.parametrize("rid", relation_ids())
def test_algebra_residuals_massive(rid, rep_massive1, grid_mid_massive):
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    r = algebra_residual(rep_massive1, grid_mid_massive, rid, psi)
    assert r < 1e-2, f"{rid}: {r}"


@pytest.mark.parametrize("rid", relation_ids())
def test_algebra_residuals_massless(rid, rep_massless_plus,
                                    grid_mid_massless):
    psi = random_test_section(rep_massless_plus, grid_mid_massless, seed=3)
    r = algebra_residual(rep_massless_plus, grid_mid_massless, rid, psi)
    assert r < 1e-2, f"{rid}: {r}"


def test_exact_relations_at_rounding(rep_massive1, grid_small_massive):
    # purely multiplicative brackets vanish to rounding at any resolution
    psi = random_test_section(rep_massive1, grid_small_massive, seed=3)
    for rid in ("PP", "PH", "HH"):
        assert algebra_residual(rep_massive1, grid_small_massive,
                                rid, psi) < 1e-13


def test_residual_converges_under_refinement(rep_massive1,
                                             grid_small_massive,
                                             grid_mid_massive):
    vals = []
    for g in (grid_small_massive, grid_mid_massive):
        psi = random_test_section(rep_massive1, g, seed=3)
        vals.append(algebra_residual(rep_massive1, g, "KK", psi))
    assert vals[1] < vals[0] / 4  # at least second order


def test_boost_spin_sign_is_calibrated(monkeypatch, rep_massive1,
                                       grid_mid_massive):
    # flipping the spin-boost sign must blow up the boost-boost bracket:
    # the chosen sign is forced by the algebra, not a convention knob
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    good = algebra_residual(rep_massive1, grid_mid_massive, "KK", psi)
    monkeypatch.setattr(reps_mod, "_SIGMA_BOOST",
                        -reps_mod._SIGMA_BOOST)
    bad = algebra_residual(rep_massive1, grid_mid_massive, "KK", psi)
    assert good < 1e-2
    assert bad > 0.1


# -- inner product and self-adjointness ---------------------------------------------


def test_inner_is_hermitian_and_positive(rep_massive1, grid_small_massive):
    a = random_test_section(rep_massive1, grid_small_massive, seed=1)
    b = random_test_section(rep_massive1, grid_small_massive, seed=2)
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))
    assert inner(a, a).real > 0.0
    assert abs(inner(a, a).imag) < 1e-14 * inner(a, a).real


def test_boost_self_adjoint_under_invariant_measure(rep_massive1):
    # <psi, K_a phi> = <K_a psi, phi> under the energy-weighted measure,
    # with defect decreasing under refinement
    defects = []
    for dims in ((4, 12, 24), (6, 24, 48)):
        g = make_grid(*dims, 1.0, 2.0, radial_map="sinh",
                      mass_scale=MASS)
        a = random_test_section(rep_massive1, g, seed=1)
        b = random_test_section(rep_massive1, g, seed=2)
        ka = Section(rep_massive1, g, _act_K(rep_massive1, g, 2, a.values))
        kb = Section(rep_massive1, g, _act_K(rep_massive1, g, 2, b.values))
        d = abs(inner(a, kb) - inner(ka, b)) / (a.norm() * b.norm())
        defects.append(d)
    assert defects[1] < defects[0] / 4
    assert defects[1] < 1e-3


def test_rotation_self_adjoint(rep_massive1, grid_mid_massive):
    a = random_test_section(rep_massive1, grid_mid_massive, seed=1)
    b = random_test_section(rep_massive1, grid_mid_massive, seed=2)
    g = grid_mid_massive
    ja = Section(rep_massive1, g, _act_J(rep_massive1, g, 1, a.values))
    jb = Section(rep_massive1, g, _act_J(rep_massive1, g, 1, b.values))
    d = abs(inner(a, jb) - inner(ja, b)) / (a.norm() * b.norm())
    assert d < 1e-3  # limited by the angular quadrature at this rung


# -- helicity structure -------------------------------------------------------------


def test_chi_eigenrelation_massless(grid_mid_massless):
    for h in (-1, 1):
        rep = RepSpec.massless(h)
        psi = random_test_section(rep, grid_mid_massless, seed=3)
        chi = Section(rep, grid_mid_massless,
                      _act_chi(rep, grid_mid_massless, psi.values))
        assert (chi - psi * float(h)).norm() < 1e-12 * psi.norm()


def test_helicity_projector(grid_small_massless):
    rep = RepSpec.massless(1)
    p = rep.helicity_projector(grid_small_massless)
    assert np.allclose(np.einsum("...ab,...bc->...ac", p, p), p)
    tr = np.einsum("...aa->...", p)
    assert np.allclose(tr, 1.0)  # rank one per point
    with pytest.raises(RepError):
        RepSpec.massless(0).helicity_projector(grid_small_massless)


def _khat_overlap(grid, values):
    """max-node |khat . psi| / max-node |psi|."""
    dot = np.einsum("a...,...a->...", grid.khat, values)
    return float(np.max(np.abs(dot)) / np.max(np.abs(values)))


def test_transversality_preserved(rep_massless_plus, grid_mid_massless):
    g = grid_mid_massless
    psi = random_test_section(rep_massless_plus, g, seed=3)
    assert _khat_overlap(g, psi.values) < 1e-12
    out = _act_J(rep_massless_plus, g, 0, psi.values)
    assert _khat_overlap(g, out) < 0.05


def test_act_rejects_unknown_tag(rep_massive1, grid_small_massive):
    psi = random_test_section(rep_massive1, grid_small_massive, seed=3)
    for tag in ("X", "L"):
        with pytest.raises(RepError):
            _act(rep_massive1, grid_small_massive, tag, 0, psi.values)


# -- deterministic test sections ------------------------------------------------------


def test_sections_deterministic(rep_massive1, grid_small_massive):
    a = random_test_section(rep_massive1, grid_small_massive, seed=42)
    b = random_test_section(rep_massive1, grid_small_massive, seed=42)
    assert np.array_equal(a.values, b.values)
    c = random_test_section(rep_massive1, grid_small_massive, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_polar_damping_validation(rep_massive1, grid_small_massive):
    random_test_section(rep_massive1, grid_small_massive, seed=1,
                        polar_damping=4)
    with pytest.raises(RepError):
        random_test_section(rep_massive1, grid_small_massive, seed=1,
                            polar_damping=3)
    with pytest.raises(RepError):
        random_test_section(rep_massive1, grid_small_massive, seed=1,
                            polar_damping=-2)


# -- the sparse spin action ------------------------------------------------------

_ALL_REPS = [RepSpec.massive(MASS, 0), RepSpec.massive(MASS, 1),
             RepSpec.massless(-1), RepSpec.massless(0), RepSpec.massless(1)]


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("rep", _ALL_REPS, ids=repr)
def test_spin_act_matches_einsum_reference(rep, axis):
    rng = np.random.default_rng(axis)
    shape = (4, 12, 24, rep.dim)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ref = np.einsum("bc,...c->...b", rep.spin_mats[axis], v)
    assert np.array_equal(_spin_act(rep, axis, v), ref)


@pytest.mark.parametrize("rep", _ALL_REPS, ids=repr)
def test_spin_entries_are_the_nonzero_entries(rep):
    # at most two per row, each purely real or purely imaginary: the
    # conditions under which skipping the zeros keeps every sum exact
    for axis in range(3):
        dense = np.zeros((rep.dim, rep.dim), dtype=np.complex128)
        for b, c, coef in rep.spin_entries[axis]:
            dense[b, c] = coef
            assert coef.real == 0 or coef.imag == 0
        assert np.array_equal(dense, rep.spin_mats[axis])
        rows = [b for b, _, _ in rep.spin_entries[axis]]
        assert all(rows.count(b) <= 2 for b in range(rep.dim))


@pytest.mark.parametrize("rep", _ALL_REPS, ids=repr)
def test_act_chi_matches_einsum_reference(rep, grid_small_massive):
    # the sparse helicity action equals, bit for bit, the dense contraction
    # of the (d, d) matrix field S.khat with the section
    rng = np.random.default_rng(5)
    shape = grid_small_massive.shape + (rep.dim,)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ref = np.einsum("...bc,...c->...b", rep.chi_field(grid_small_massive), v)
    assert np.array_equal(_act_chi(rep, grid_small_massive, v), ref)


# -- the generator kernels against their quotient forms ----------------------------


def _act_J_quotient(rep, grid, a, v, der=None):
    # J_a v with d_phi v / sin(theta) as a quotient
    if der is None:
        der = _derivatives(grid, v, radial=False)
    _, dth, dph = der
    out = grid.e_phi[a][..., None] * dth
    term = grid.e_theta[a][..., None] * dph
    term /= grid.sin_theta[..., None]
    out -= term
    del term
    out *= -1j
    out += _spin_act(rep, a, v)
    return out


def _act_K_quotient(rep, grid, a, v, der=None):
    # K_a v with d_theta v / r and d_phi v / (r sin(theta)) as quotients
    # and omega + m formed per spin term
    if der is None:
        der = _derivatives(grid, v)
    dr, dth, dph = der
    if rep.kind == "massive":
        omega = grid.omega(rep.mass)[..., None]
        r3 = grid.kmag[..., None]
        st = grid.sin_theta[..., None]
        out = grid.e_k[a][..., None] * dr
        term = dth / r3
        term *= grid.e_theta[a][..., None]
        out += term
        np.divide(dph, r3 * st, out=term)
        term *= grid.e_phi[a][..., None]
        out += term
        del term
        out *= 1j * omega
        ks = (grid.kx, grid.ky, grid.kz)
        for b in range(3):
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    spin = _spin_act(rep, b, v)
                    spin *= ((reps_mod._SIGMA_BOOST * e
                              / (omega + rep.mass))
                             * ks[c][..., None])
                    out += spin
        return out
    radial = 1j * grid.kmag[..., None] * dr
    out = grid.khat[a][..., None] * radial
    del radial
    for b in range(3):
        for c in range(3):
            e = eps(a, b, c)
            if e:
                term = _act_J_quotient(rep, grid, c, v, der)
                term *= e * grid.khat[b][..., None]
                out += term
    return out


@pytest.mark.parametrize("rep", _ALL_REPS, ids=repr)
def test_generator_kernels_match_quotient_forms(rep, grid_small_massive,
                                                grid_small_massless):
    # the reciprocal products give the quotients bit for bit, with the
    # derivative pass taken inside or passed in
    grid = (grid_small_massive if rep.kind == "massive"
            else grid_small_massless)
    rng = np.random.default_rng(4)
    shape = grid.shape + (rep.dim,)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    der = _derivatives(grid, v)
    for a in range(3):
        assert np.array_equal(_act_J(rep, grid, a, v),
                              _act_J_quotient(rep, grid, a, v))
        assert np.array_equal(_act_K(rep, grid, a, v),
                              _act_K_quotient(rep, grid, a, v))
        assert np.array_equal(_act_K(rep, grid, a, v, der),
                              _act_K_quotient(rep, grid, a, v, der))


# -- the shell-wise actions against the whole-section bodies -----------------------


def _whole_section_act_J(rep, grid, a, v, der=None):
    """J_a v as it was written before it ran one radial shell at a time:
    the same body, on whole sections."""
    if der is None:
        der = _derivatives(grid, v, radial=False)
    _, dth, dph = der
    out = grid.e_phi[a][..., None] * dth
    term = grid.e_theta[a][..., None] * dph
    term *= grid.inv_sin_theta[..., None]
    out -= term
    del term
    out *= -1j
    out += _spin_act(rep, a, v)
    return out


def _whole_section_act_K(rep, grid, a, v, der=None):
    """K_a v as it was written before it ran one radial shell at a time:
    the same body, on whole sections."""
    if der is None:
        der = _derivatives(grid, v)
    dr, dth, dph = der
    if rep.kind == "massive":
        omega = grid.omega(rep.mass)[..., None]
        out = grid.e_k[a][..., None] * dr
        term = dth * grid.inv_kmag[..., None]
        term *= grid.e_theta[a][..., None]
        out += term
        np.multiply(dph, grid.inv_kmag_sin_theta[..., None], out=term)
        term *= grid.e_phi[a][..., None]
        out += term
        del term
        out *= 1j * omega
        ks = (grid.kx, grid.ky, grid.kz)
        omega_m = omega + rep.mass
        for b in range(3):
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    spin = _spin_act(rep, b, v)
                    spin *= ((reps_mod._SIGMA_BOOST * e / omega_m)
                             * ks[c][..., None])
                    out += spin
        return out
    radial = 1j * grid.kmag[..., None] * dr
    out = grid.khat[a][..., None] * radial
    del radial
    for b in range(3):
        for c in range(3):
            e = eps(a, b, c)
            if e:
                term = _whole_section_act_J(rep, grid, c, v, der)
                term *= e * grid.khat[b][..., None]
                out += term
    return out


@pytest.mark.parametrize("layout", ["component-major", "C-order"])
@pytest.mark.parametrize("rep", _ALL_REPS, ids=repr)
def test_shellwise_actions_match_whole_section_bytes(rep, layout):
    # each action runs its formula one radial shell at a time; the bytes
    # are those of the whole-section body, with the derivative pass taken
    # inside or passed in, and on one shell alone
    grid = (make_grid(5, 12, 24, 1.0, 2.0, radial_map="sinh",
                      mass_scale=MASS) if rep.kind == "massive"
            else make_grid(5, 12, 24, 1.0, 2.0))
    v = random_test_section(rep, grid, seed=13).values
    if layout == "C-order":
        v = np.ascontiguousarray(v)
    der = _derivatives(grid, v)
    for a in range(3):
        for act, ref in ((_act_J, _whole_section_act_J),
                         (_act_K, _whole_section_act_K)):
            assert act(rep, grid, a, v).tobytes() == \
                ref(rep, grid, a, v).tobytes()
            whole = ref(rep, grid, a, v, der)
            assert act(rep, grid, a, v, der).tobytes() == whole.tobytes()
            for i in (0, 3):
                shell, v_i, der_i = _on_shell(grid, i, v, der)
                assert act(rep, shell, a, v_i, der_i).tobytes() == \
                    whole[i:i + 1].tobytes()


@pytest.fixture
def action_entries(monkeypatch):
    """Count the entries of each traced generator action, as a layer
    tracer that rebinds the module's names counts them."""
    calls = {"_act_J": 0, "_act_K": 0}
    for name in calls:
        orig = getattr(reps_mod, name)

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(reps_mod, name, counted)
    return calls


@pytest.mark.parametrize("rep", [RepSpec.massive(MASS, 1),
                                 RepSpec.massless(1)], ids=repr)
def test_shell_loop_enters_each_action_once(rep, action_entries):
    # the shell loop runs the formulas directly: a whole-section action
    # is one entry of its traced name whatever N_r is, and the massless
    # K builds its J terms without entering the traced J
    grid = make_grid(6, 12, 24, 1.0, 2.0)
    v = random_test_section(rep, grid, seed=3).values
    reps_mod._act_J(rep, grid, 0, v)
    assert action_entries == {"_act_J": 1, "_act_K": 0}
    reps_mod._act_K(rep, grid, 0, v)
    assert action_entries == {"_act_J": 1, "_act_K": 1}
