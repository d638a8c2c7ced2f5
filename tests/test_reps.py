"""Representation actions on grid sections: commutation-relation
residuals, sign calibration, self-adjointness, helicity structure,
deterministic test sections, and bit-exact agreement of the spin,
helicity and generator actions with their references in
``reference.py``."""

import numpy as np
import pytest

import spinsplit.connections as connections_mod
import spinsplit.reps as reps_mod
import spinsplit.splitting as splitting_mod
from spinsplit.connections import (
    ConnectionKind,
    TangentField,
    apply_connection,
)
from spinsplit.grid import MomentumGrid, Section
from spinsplit.reps import (
    RepError,
    RepSpec,
    _act,
    _act_chi,
    _act_J,
    _act_K,
    _derivatives,
    _j_formula,
    _k_formula,
    _on_shell,
    _spin_act,
    algebra_residual,
    inner,
    random_test_section,
    relation_ids,
)

import reference
from conftest import MASS


# -- RepSpec validation -----------------------------------------------------------


def test_repspec_validation():
    with pytest.raises(RepError):
        RepSpec.massive(0.0, 1)
    for mass in (float("inf"), float("nan")):
        with pytest.raises(RepError, match=f"got {mass!r}"):
            RepSpec.massive(mass, 1)
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
    r = algebra_residual(rid, psi)
    assert r < 1e-2, f"{rid}: {r}"


@pytest.mark.parametrize("rid", relation_ids())
def test_algebra_residuals_massless(rid, rep_massless_plus,
                                    grid_mid_massless):
    psi = random_test_section(rep_massless_plus, grid_mid_massless, seed=3)
    r = algebra_residual(rid, psi)
    assert r < 1e-2, f"{rid}: {r}"


def test_exact_relations_at_rounding(rep_massive1, grid_small_massive):
    # purely multiplicative brackets vanish to rounding at any resolution
    psi = random_test_section(rep_massive1, grid_small_massive, seed=3)
    for rid in ("PP", "PH", "HH"):
        assert algebra_residual(rid, psi) < 1e-13


def test_residual_converges_under_refinement(rep_massive1,
                                             grid_small_massive,
                                             grid_mid_massive):
    vals = []
    for g in (grid_small_massive, grid_mid_massive):
        psi = random_test_section(rep_massive1, g, seed=3)
        vals.append(algebra_residual("KK", psi))
    assert vals[1] < vals[0] / 4  # at least second order


def test_boost_spin_sign_is_calibrated(monkeypatch, rep_massive1,
                                       grid_mid_massive):
    # flipping the spin-boost sign must blow up the boost-boost bracket:
    # the chosen sign is forced by the algebra, not a convention knob
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    good = algebra_residual("KK", psi)
    monkeypatch.setattr(reps_mod, "_SIGMA_BOOST",
                        -reps_mod._SIGMA_BOOST)
    bad = algebra_residual("KK", psi)
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
        g = MomentumGrid(*dims, 1.0, 2.0, mass=MASS)
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
    assert _spin_act(rep, axis, v).tobytes() == \
        reference.spin_act(rep, axis, v).tobytes()


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
    assert _act_chi(rep, grid_small_massive, v).tobytes() == \
        reference.chi(rep, grid_small_massive, v).tobytes()


# -- the shell-wise actions against the whole-section reference -----------------


@pytest.mark.parametrize("layout", ["component-major", "C-order",
                                    "unstructured"])
@pytest.mark.parametrize("rep", _ALL_REPS, ids=repr)
def test_shellwise_actions_match_reference_bytes(rep, layout):
    # each action runs its formula one radial shell at a time; the bytes
    # are those of the whole-section reference, with the derivative pass
    # taken inside or passed in, and those of the formula on one shell
    # alone, as the covariant kernel calls it.  Unstructured values are
    # neither smooth nor transverse
    grid = MomentumGrid(5, 12, 24, 1.0, 2.0, mass=rep.mass)
    v = random_test_section(rep, grid, seed=13).values
    if layout == "C-order":
        v = np.ascontiguousarray(v)
    elif layout == "unstructured":
        rng = np.random.default_rng(4)
        v = rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)
    der = _derivatives(grid, v)
    for a in range(3):
        for act, formula, ref in ((_act_J, _j_formula, reference.act_J),
                                  (_act_K, _k_formula, reference.act_K)):
            assert act(rep, grid, a, v).tobytes() == \
                ref(rep, grid, a, v).tobytes()
            whole = ref(rep, grid, a, v, der)
            assert act(rep, grid, a, v, der).tobytes() == whole.tobytes()
            for i in (0, 3):
                shell, v_i, der_i = _on_shell(grid, i, v, der)
                assert formula(rep, shell, a, v_i, der_i).tobytes() == \
                    whole[i:i + 1].tobytes()


@pytest.fixture
def action_entries(monkeypatch):
    """Count the entries of each traced generator action, as a layer
    tracer that rebinds the name in every module that imports it counts
    them."""
    calls = {"_act_J": 0, "_act_K": 0}
    for name in calls:
        orig = getattr(reps_mod, name)

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        for mod in (reps_mod, connections_mod, splitting_mod):
            if vars(mod).get(name) is orig:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("rep", [RepSpec.massive(MASS, 1),
                                 RepSpec.massless(1)], ids=repr)
def test_shell_loop_enters_each_action_once(rep, action_entries):
    # the shell loop runs the formulas directly: a whole-section action
    # is one entry of its traced name whatever N_r is, and the massless
    # K builds its J terms without entering the traced J.  A covariant
    # derivative builds its K and J terms from the formulas shell by
    # shell, so it enters neither traced action
    grid = MomentumGrid(6, 12, 24, 1.0, 2.0, mass=rep.mass)
    psi = random_test_section(rep, grid, seed=3)
    v = psi.values
    reps_mod._act_J(rep, grid, 0, v)
    assert action_entries == {"_act_J": 1, "_act_K": 0}
    reps_mod._act_K(rep, grid, 0, v)
    assert action_entries == {"_act_J": 1, "_act_K": 1}
    half = ConnectionKind.affine(lambda r, m: np.full_like(r, 0.5))
    apply_connection(half, TangentField.named("e_phi"), psi)
    assert action_entries == {"_act_J": 1, "_act_K": 1}
