"""Connection-induced splittings J = L + S: algebraic closure, the
curvature-defect identity, the flat spin, and the flat-connection
position operator."""

from functools import partial

import numpy as np
import pytest

from spinsplit.connections import (
    ConnectionKind,
    TangentField,
    cross_commutator_check,
    lambda_flat_profile,
    leibniz_residual,
)
from spinsplit.grid import Section
from spinsplit.reps import (
    RepError,
    RepSpec,
    _act_chi,
    _act_J,
    algebra_residual,
    random_test_section,
    relation_ids,
)
import spinsplit.splitting as splitting
from spinsplit.splitting import (
    SplitOperators,
    SplittingError,
    defect_identity_residual,
    jperp_so3_residual,
    nw_gradient_residual,
    nw_hermiticity_defect,
    nw_match_residual,
    so3_residual,
    vector_op_residual,
)

import reference
from conftest import MASS, break_rotational_symmetry, smooth_scalar

FLAT = ConnectionKind.flat_massive()
BOOST = ConnectionKind.boost()
ROT = ConnectionKind.rotation()


# -- basic structure -----------------------------------------------------------


def test_l_plus_s_is_j(rep_massive1, grid_small_massive):
    ops = SplitOperators(BOOST)
    psi = random_test_section(rep_massive1, grid_small_massive, seed=3)
    for a in range(3):
        diff = ops.L(a, psi) + ops.S(a, psi) - ops.J(a, psi)
        assert diff.norm() < 1e-14 * psi.norm()


def test_flat_splitting_closes_so3(rep_massive1, grid_small_massive,
                                   grid_mid_massive):
    vals = []
    for g in (grid_small_massive, grid_mid_massive):
        ops = SplitOperators(FLAT)
        psi = random_test_section(rep_massive1, g, seed=3)
        vals.append(so3_residual(ops, psi))
    assert vals[1] < 1e-3
    assert vals[1] < vals[0] / 4  # refinement-stable convergence to zero


def test_flat_spin_closes_so3(rep_massive1, grid_mid_massive):
    ops = SplitOperators(FLAT)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    s_shell = partial(ops._shell, s_part=True)  # X = S = J - L
    assert splitting._vector_op_residuals(s_shell, psi, ("so3",))[0] < 1e-3


def test_curved_splitting_fails_so3(rep_massive1, grid_mid_massive):
    # the boost splitting has nonzero curvature, so its so(3) residual
    # must stay bounded away from zero
    ops = SplitOperators(BOOST)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3,
                              polar_damping=4)
    assert so3_residual(ops, psi) > 0.05


def test_defect_equals_curvature(rep_massive1, grid_mid_massive):
    # [L_a, L_b] - i eps L_c = -F(V_a, V_b) exactly, connection by
    # connection (both sides are built from the same discrete operators)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3,
                              polar_damping=4)
    for kind in (BOOST, ROT, FLAT,
                 ConnectionKind.affine(lambda_flat_profile(0.5))):
        ops = SplitOperators(kind)
        assert defect_identity_residual(ops, psi) < 1e-12


def test_vector_operator_property(rep_massive1, grid_mid_massive):
    ops = SplitOperators(FLAT)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    assert splitting._vector_op_residuals(ops._shell, psi, ("L",))[0] < 1e-3
    assert splitting._vector_op_residuals(ops._shell, psi, ("S",))[0] < 1e-3


def test_symmetry_breaking_mutation(monkeypatch, rep_massive1,
                                    grid_mid_massive):
    # deforming the rotational fields destroys the vector-operator
    # property by an O(1) amount: the diagnostic is actually sensitive
    break_rotational_symmetry(monkeypatch, grid_mid_massive)
    ops = SplitOperators(FLAT)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    assert splitting._vector_op_residuals(ops._shell, psi, ("L",))[0] > 0.1


def _fiber_spin_gap(ops, phi):
    """max_a ||S_a phi - sigma_a phi|| / ||phi||, with sigma_a the
    constant fiber spin matrices."""
    rep, grid = phi.rep, phi.grid
    s = ops.S_axes(range(3), phi)
    return float(np.max([
        (s[a] - Section(rep, grid, reference.spin_act(rep, a, phi.values)))
        .norm() / phi.norm() for a in range(3)]))


@pytest.mark.parametrize("spin", (0, 1))
def test_flat_spin_is_fiber_spin(spin, grid_mid_massive):
    # the flat S acts as the constant spin matrices on psi and on f psi
    # alike, so it is internal (commutes with multiplication by f) and
    # is the fiber spin
    rep = RepSpec.massive(MASS, spin)
    ops = SplitOperators(FLAT)
    psi = random_test_section(rep, grid_mid_massive, seed=3)
    f = smooth_scalar(grid_mid_massive)
    assert _fiber_spin_gap(ops, psi) < 1e-13
    assert _fiber_spin_gap(ops, psi * f) < 1e-13


@pytest.mark.parametrize(
    "kind", [ConnectionKind.affine(lambda_flat_profile(1.01)), BOOST, ROT],
    ids=["affine-1.01", "boost", "rotation"])
def test_curved_spin_is_not_fiber_spin(rep_massive1, grid_mid_massive,
                                       kind):
    # mutation control: off the flat weight S is not the fiber spin
    ops = SplitOperators(kind)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    assert _fiber_spin_gap(ops, psi) > 1e-3


def test_orbital_part_is_not_internal(rep_massive1, grid_mid_massive):
    # L fails to commute with multiplication by f by exactly the Leibniz
    # term: L_a(f psi) - f L_a psi = -i df(V_a) psi
    g = grid_mid_massive
    ops = SplitOperators(FLAT)
    psi = random_test_section(rep_massive1, g, seed=3)
    f = smooth_scalar(g)
    df = g.gradient(f[..., None])[..., 0]
    l_fpsi = ops.L_axes(range(3), psi * f)
    l_psi = ops.L_axes(range(3), psi)
    terms, gaps = [], []
    for a in range(3):
        xv = TangentField.rotational(a).values(g)
        term = psi * (-1j * sum(xv[i] * df[i] for i in range(3)))
        terms.append(term.norm())
        gaps.append((l_fpsi[a] - l_psi[a] * f - term).norm())
    assert max(terms) > 0.05 * psi.norm()
    assert max(gaps) < 0.02 * max(terms)


# -- massless structure -------------------------------------------------------------


def test_massless_orbital_is_perpendicular(rep_massless_plus,
                                           grid_mid_massless):
    # for the massless rotation connection the induced L coincides with
    # the perpendicular part of J
    ops = SplitOperators(ROT)
    psi = random_test_section(rep_massless_plus, grid_mid_massless,
                              seed=3, polar_damping=4)
    rep, grid, v = psi.rep, psi.grid, psi.values
    chi = _act_chi(rep, grid, v)
    for a, orbital in enumerate(ops.L_axes(range(3), psi)):
        # Jperp_a = J_a - khat_a chi
        perp = Section(rep, grid, _act_J(rep, grid, a, v)
                       - grid.khat[a][..., None] * chi)
        assert (perp - orbital).norm() < 1e-13 * psi.norm()


def test_massless_so3_failure_is_curvature(rep_massless_plus,
                                           grid_mid_massless):
    ops = SplitOperators(ROT)
    psi = random_test_section(rep_massless_plus, grid_mid_massless,
                              seed=3, polar_damping=4)
    assert so3_residual(ops, psi) > 0.1   # no closure at m = 0
    assert defect_identity_residual(ops, psi) < 1e-12


def test_jperp_commutators(rep_massless_plus, grid_mid_massless):
    psi = random_test_section(rep_massless_plus, grid_mid_massless,
                              seed=3, polar_damping=4)
    assert jperp_so3_residual(psi) < 1e-3


def test_jperp_residual_rejects_massive_section(rep_massive1,
                                                grid_small_massive):
    # the parallel/perpendicular split is read off the section's rep
    psi = random_test_section(rep_massive1, grid_small_massive, seed=3)
    with pytest.raises(SplittingError):
        jperp_so3_residual(psi)


def _with_one_nan(rep, grid):
    psi = random_test_section(rep, grid, seed=3)
    psi.values[1, 2, 3, 0] = np.nan
    return psi


def test_nan_section_gives_nan_from_every_diagnostic(
        rep_massive1, grid_small_massive, rep_massless_plus,
        grid_small_massless):
    # a NaN must not be read as a zero residual: the builtin max keeps
    # its running value past a NaN, since nan > x is false
    g = grid_small_massive
    psi = _with_one_nan(rep_massive1, g)
    phi = random_test_section(rep_massive1, g, seed=5)
    f = smooth_scalar(g)
    flat = SplitOperators(FLAT)
    values = {
        "algebra-" + rid: algebra_residual(rid, psi)
        for rid in relation_ids()}
    values.update({
        "so3-L": so3_residual(flat, psi),
        "so3-S": splitting._vector_op_residuals(
            partial(flat._shell, s_part=True), psi, ("so3",))[0],
        "vector-op-L": splitting._vector_op_residuals(
            flat._shell, psi, ("L",))[0],
        "vector-op-S": splitting._vector_op_residuals(
            flat._shell, psi, ("S",))[0],
        "defect": defect_identity_residual(flat, psi),
        "leibniz": leibniz_residual(BOOST, [TangentField.named("e_phi")],
                                    f, psi),
        "nw-match": nw_match_residual(psi),
        "nw-gradient": nw_gradient_residual(psi),
        "nw-hermitian": nw_hermiticity_defect(phi, psi),
    })
    values["vector-op-so3"], values["vector-op"] = vector_op_residual(
        flat, psi)
    values.update({f"cross-{label}": res
                   for label, res in cross_commutator_check(psi).items()})
    h = grid_small_massless
    values["jperp-so3"] = jperp_so3_residual(
        _with_one_nan(rep_massless_plus, h))
    assert [name for name, res in values.items()
            if not np.isnan(res)] == []


# -- position operator ----------------------------------------------------------------


def test_nw_constructions_match(rep_massive1, grid_mid_massive):
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    assert nw_match_residual(psi) < 1e-12


def test_nw_acts_as_gradient(rep_massive1, grid_small_massive,
                             grid_mid_massive):
    vals = []
    for g in (grid_small_massive, grid_mid_massive):
        psi = random_test_section(rep_massive1, g, seed=3)
        vals.append(nw_gradient_residual(psi))
    assert vals[1] < 1e-3
    assert vals[1] < vals[0] / 4


def test_nw_hermitian(rep_massive1, grid_mid_massive):
    a = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    b = random_test_section(rep_massive1, grid_mid_massive, seed=5)
    assert nw_hermiticity_defect(a, b) < 1e-3


def test_nw_components_commute(rep_massive1, grid_small_massive,
                               grid_mid_massive):
    # flatness = commuting position components, approached under
    # refinement (iterated derivatives converge more slowly than single
    # applications)
    vals = []
    for g in (grid_small_massive, grid_mid_massive):
        q = splitting._q_affine
        psi = random_test_section(rep_massive1, g, seed=3)
        q_psi = q(psi)
        out = q(q_psi[1])[0] - q(q_psi[0])[1]
        vals.append(out.norm() / psi.norm())
    assert vals[1] < 1e-2
    assert vals[1] < vals[0] / 4


def test_nw_rejects_massless(rep_massless_plus, grid_small_massless):
    # both constructions read the rep off the section, and no flat
    # connection exists on the massless bundles
    psi = random_test_section(rep_massless_plus, grid_small_massless,
                              seed=3)
    for q in (splitting._q_affine, splitting._q_closed_form):
        with pytest.raises(SplittingError):
            q(psi)


# -- degeneracy at zero spin --------------------------------------------------------------


def test_spin0_connections_coincide(rep_massive0, grid_small_massive):
    # on one-dimensional fibers every built-in connection reduces to the
    # same scalar transport, so the splittings agree identically
    psi = random_test_section(rep_massive0, grid_small_massive, seed=3)
    ops_b = SplitOperators(BOOST)
    ops_r = SplitOperators(ROT)
    for a in range(3):
        assert (ops_b.L(a, psi) - ops_r.L(a, psi)).norm() \
            < 1e-13 * psi.norm()


# -- zero test sections ------------------------------------------------------------------


# each diagnostic divides by the norm of its test section, as a function of
# (the zero section, a nonzero one); the massless one takes a massless rep
ZERO_SECTION_CASES = {
    "algebra_residual": lambda z, psi: algebra_residual("JK", z),
    "so3_residual": lambda z, psi: so3_residual(SplitOperators(BOOST), z),
    "vector_op_residual":
        lambda z, psi: vector_op_residual(SplitOperators(BOOST), z),
    "defect_identity_residual":
        lambda z, psi: defect_identity_residual(SplitOperators(BOOST), z),
    "jperp_so3_residual": lambda z, psi: jperp_so3_residual(z),
    "nw_match_residual": lambda z, psi: nw_match_residual(z),
    "nw_gradient_residual": lambda z, psi: nw_gradient_residual(z),
    "nw_hermiticity_defect-psi": lambda z, psi: nw_hermiticity_defect(z, psi),
    "nw_hermiticity_defect-phi": lambda z, psi: nw_hermiticity_defect(psi, z),
    "leibniz_residual": lambda z, psi: leibniz_residual(
        BOOST, [TangentField.named("e_theta")], smooth_scalar(z.grid), z),
    "cross_commutator_check": lambda z, psi: cross_commutator_check(z),
}


@pytest.mark.parametrize("case", list(ZERO_SECTION_CASES))
def test_zero_test_section_is_rejected(case, rep_massive1, grid_small_massive,
                                       rep_massless_plus, grid_small_massless):
    # a relative residual of the zero section is 0/0: each diagnostic
    # raises RepError, not ZeroDivisionError
    rep, grid = ((rep_massless_plus, grid_small_massless)
                 if case == "jperp_so3_residual"
                 else (rep_massive1, grid_small_massive))
    zero = Section(rep, grid, np.zeros(grid.shape + (rep.dim,)))
    psi = random_test_section(rep, grid, seed=3)
    with pytest.raises(RepError, match="zero test section"):
        ZERO_SECTION_CASES[case](zero, psi)
