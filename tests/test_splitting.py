"""Connection-induced splittings J = L + S: algebraic closure, the
curvature-defect identity, the flat-connection position operator, and
the parallel fiber frame."""

import numpy as np
import pytest

from spinsplit.connections import (
    ConnectionKind,
    ConnectionLabError,
    TangentField,
    cross_commutator_check,
    lambda_flat_profile,
    leibniz_residual,
)
from spinsplit.grid import make_grid
from spinsplit.reps import (
    RepSpec,
    algebra_residual,
    random_test_section,
    relation_ids,
)
from spinsplit.splitting import (
    NWOperator,
    SplitOperators,
    SplittingError,
    defect_identity_residual,
    internality_residual,
    jperp_so3_residual,
    leibniz_term_norm,
    nw_gradient_residual,
    nw_hermiticity_defect,
    nw_match_residual,
    parallel_frame,
    so3_residual,
    spin_endomorphism_at,
    spin_in_frame,
    vector_op_residual,
)

from conftest import MASS, smooth_scalar

FLAT = ConnectionKind.flat_massive()
BOOST = ConnectionKind.boost()
ROT = ConnectionKind.rotation()


# -- basic structure -----------------------------------------------------------


def test_l_plus_s_is_j(rep_massive1, grid_small_massive):
    ops = SplitOperators(rep_massive1, grid_small_massive, BOOST)
    psi = random_test_section(rep_massive1, grid_small_massive, seed=3)
    for a in range(3):
        diff = ops.L(a, psi) + ops.S(a, psi) - ops.J(a, psi)
        assert diff.norm() < 1e-14 * psi.norm()


def test_flat_splitting_closes_so3(rep_massive1, grid_small_massive,
                                   grid_mid_massive):
    vals = []
    for g in (grid_small_massive, grid_mid_massive):
        ops = SplitOperators(rep_massive1, g, FLAT)
        psi = random_test_section(rep_massive1, g, seed=3)
        vals.append(so3_residual(ops, psi, "L"))
    assert vals[1] < 1e-3
    assert vals[1] < vals[0] / 4  # refinement-stable convergence to zero


def test_flat_spin_closes_so3(rep_massive1, grid_mid_massive):
    ops = SplitOperators(rep_massive1, grid_mid_massive, FLAT)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    assert so3_residual(ops, psi, "S") < 1e-3


def test_curved_splitting_fails_so3(rep_massive1, grid_mid_massive):
    # the boost splitting has nonzero curvature, so its so(3) residual
    # must stay bounded away from zero
    ops = SplitOperators(rep_massive1, grid_mid_massive, BOOST)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3,
                              polar_damping=4)
    assert so3_residual(ops, psi, "L") > 0.05


def test_defect_equals_curvature(rep_massive1, grid_mid_massive):
    # [L_a, L_b] - i eps L_c = -F(V_a, V_b) exactly, connection by
    # connection (both sides are built from the same discrete operators)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3,
                              polar_damping=4)
    for kind in (BOOST, ROT, FLAT,
                 ConnectionKind.affine(lambda_flat_profile(0.5))):
        ops = SplitOperators(rep_massive1, grid_mid_massive, kind)
        assert defect_identity_residual(ops, psi) < 1e-12


def test_vector_operator_property(rep_massive1, grid_mid_massive):
    ops = SplitOperators(rep_massive1, grid_mid_massive, FLAT)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    assert vector_op_residual(ops, psi, "L") < 1e-3
    assert vector_op_residual(ops, psi, "S") < 1e-3


def test_symmetry_breaking_mutation(rep_massive1, grid_mid_massive):
    # deforming the rotational fields destroys the vector-operator
    # property by an O(1) amount: the diagnostic is actually sensitive
    ops = SplitOperators(rep_massive1, grid_mid_massive, FLAT,
                symmetry_breaking=0.5)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    assert vector_op_residual(ops, psi, "L") > 0.1


def test_spin_is_internal(rep_massive1, grid_mid_massive):
    ops = SplitOperators(rep_massive1, grid_mid_massive, FLAT)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    f = smooth_scalar(grid_mid_massive)
    assert internality_residual(ops, f, psi, "S") < 1e-13


def test_orbital_part_is_not_internal(rep_massive1, grid_mid_massive):
    # L fails to commute with multiplication operators by exactly the
    # Leibniz derivative term
    ops = SplitOperators(rep_massive1, grid_mid_massive, FLAT)
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    f = smooth_scalar(grid_mid_massive)
    got = internality_residual(ops, f, psi, "L")
    expect = leibniz_term_norm(ops, f, psi)
    assert expect > 0.05
    assert abs(got - expect) < 0.02 * expect


# -- massless structure -------------------------------------------------------------


def test_massless_orbital_is_perpendicular(rep_massless_plus,
                                           grid_mid_massless):
    # for the massless rotation connection the induced L coincides with
    # the perpendicular part of J
    ops = SplitOperators(rep_massless_plus, grid_mid_massless, ROT)
    psi = random_test_section(rep_massless_plus, grid_mid_massless,
                              seed=3, polar_damping=4)
    for a in range(3):
        diff = ops.j_perp(a, psi) - ops.L(a, psi)
        assert diff.norm() < 1e-13 * psi.norm()


def test_massless_so3_failure_is_curvature(rep_massless_plus,
                                           grid_mid_massless):
    ops = SplitOperators(rep_massless_plus, grid_mid_massless, ROT)
    psi = random_test_section(rep_massless_plus, grid_mid_massless,
                              seed=3, polar_damping=4)
    assert so3_residual(ops, psi, "L") > 0.1   # no closure at m = 0
    assert defect_identity_residual(ops, psi) < 1e-12


def test_jperp_commutators(rep_massless_plus, grid_mid_massless):
    ops = SplitOperators(rep_massless_plus, grid_mid_massless, ROT)
    psi = random_test_section(rep_massless_plus, grid_mid_massless,
                              seed=3, polar_damping=4)
    assert jperp_so3_residual(ops, psi) < 1e-3


def test_parallel_split_requires_massless(rep_massive1,
                                          grid_small_massive):
    ops = SplitOperators(rep_massive1, grid_small_massive, BOOST)
    psi = random_test_section(rep_massive1, grid_small_massive, seed=3)
    with pytest.raises(SplittingError):
        ops.j_parallel(0, psi)


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
    flat = SplitOperators(rep_massive1, g, FLAT)
    values = {
        "algebra-" + rid: algebra_residual(rep_massive1, g, rid, psi)
        for rid in relation_ids()}
    values.update({
        "so3-L": so3_residual(flat, psi),
        "so3-S": so3_residual(flat, psi, "S"),
        "vector-op-L": vector_op_residual(flat, psi),
        "vector-op-S": vector_op_residual(flat, psi, "S"),
        "internality": internality_residual(flat, f, psi),
        "leibniz-term": leibniz_term_norm(flat, f, psi),
        "defect": defect_identity_residual(flat, psi),
        "leibniz": leibniz_residual(BOOST, TangentField.named("e_phi"), f,
                                    psi),
        "nw-match": nw_match_residual(rep_massive1, g, psi),
        "nw-gradient": nw_gradient_residual(rep_massive1, g, psi),
        "nw-hermitian": nw_hermiticity_defect(rep_massive1, g, phi, psi),
    })
    values.update({f"cross-{label}": res
                   for label, res in cross_commutator_check(psi).items()})
    h = grid_small_massless
    massless = SplitOperators(rep_massless_plus, h, BOOST)
    values["jperp-so3"] = jperp_so3_residual(
        massless, _with_one_nan(rep_massless_plus, h))
    assert [name for name, res in values.items()
            if not np.isnan(res)] == []


# -- position operator ----------------------------------------------------------------


def test_nw_constructions_match(rep_massive1, grid_mid_massive):
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    assert nw_match_residual(rep_massive1, grid_mid_massive,
                             psi) < 1e-12


def test_nw_acts_as_gradient(rep_massive1, grid_small_massive,
                             grid_mid_massive):
    vals = []
    for g in (grid_small_massive, grid_mid_massive):
        psi = random_test_section(rep_massive1, g, seed=3)
        vals.append(nw_gradient_residual(rep_massive1, g, psi))
    assert vals[1] < 1e-3
    assert vals[1] < vals[0] / 4


def test_nw_hermitian(rep_massive1, grid_mid_massive):
    a = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    b = random_test_section(rep_massive1, grid_mid_massive, seed=5)
    assert nw_hermiticity_defect(rep_massive1, grid_mid_massive,
                                 a, b) < 1e-3


def test_nw_components_commute(rep_massive1, grid_small_massive,
                               grid_mid_massive):
    # flatness = commuting position components, approached under
    # refinement (iterated derivatives converge more slowly than single
    # applications)
    vals = []
    for g in (grid_small_massive, grid_mid_massive):
        q = NWOperator(rep_massive1, g)
        psi = random_test_section(rep_massive1, g, seed=3)
        out = (q.apply(0, q.apply(1, psi)) - q.apply(1, q.apply(0, psi)))
        vals.append(out.norm() / psi.norm())
    assert vals[1] < 1e-2
    assert vals[1] < vals[0] / 4


def test_nw_rejects_massless(rep_massless_plus, grid_small_massless):
    with pytest.raises(SplittingError):
        NWOperator(rep_massless_plus, grid_small_massless)


def test_nw_rejects_bad_mode(rep_massive1, grid_small_massive):
    with pytest.raises(SplittingError):
        NWOperator(rep_massive1, grid_small_massive, mode="nope")


# -- parallel frame ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def frame24(rep_massive1):
    return parallel_frame(rep_massive1, n_theta=24, n_phi=48, radius=1.5)


def test_frame_unitary(frame24):
    assert frame24.unitarity_defect < 1e-8


def test_frame_requires_massive(rep_massless_plus):
    with pytest.raises(SplittingError):
        parallel_frame(rep_massless_plus)


@pytest.mark.parametrize("kwargs,name", [
    ({"n_theta": 1}, "n_theta"), ({"n_phi": 0}, "n_phi"),
    ({"n_phi": 8.0}, "n_phi"), ({"radius": 0.0}, "radius"),
    ({"radius": float("inf")}, "radius"), ({"n_steps": 0}, "n_steps"),
])
def test_frame_rejects_bad_mesh(rep_massive1, kwargs, name):
    with pytest.raises((SplittingError, ConnectionLabError), match=name):
        parallel_frame(rep_massive1, **kwargs)


def test_flat_transport_is_trivial(frame24, rep_massive1):
    # the flat connection is globally trivial in these coordinates, so
    # transporting the standard basis returns the standard basis
    d = rep_massive1.dim
    dev = np.max(np.abs(frame24.frames - np.eye(d)))
    assert dev < 1e-8


def test_spin_endomorphism_sampling(rep_massive1):
    g = make_grid(6, 24, 48, 1.5, 2.5, radial_map="sinh",
                  mass_scale=MASS)
    ops = SplitOperators(rep_massive1, g, FLAT)
    mats = spin_endomorphism_at(ops, (3, 12, 10))
    comm = mats[0] @ mats[1] - mats[1] @ mats[0]
    assert np.linalg.norm(comm - 1j * mats[2]) < 1e-8


def test_spin_constant_in_parallel_frame(rep_massive1, frame24):
    # expressed in the parallel frame, the sampled spin endomorphisms
    # are the constant standard spin matrices at every probed node
    g = make_grid(6, 24, 48, 1.0, 2.0, radial_map="sinh",
                  mass_scale=MASS)
    frame = parallel_frame(rep_massive1, n_theta=24, n_phi=48,
                           radius=float(g.r[3]))
    ops = SplitOperators(rep_massive1, g, FLAT)
    report = spin_in_frame(ops, frame, [(3, 6, 5), (3, 12, 20),
                                        (3, 18, 40)])
    assert report["max_deviation"] < 1e-10


def test_spin_in_frame_mesh_mismatch(rep_massive1):
    g = make_grid(6, 24, 48, 1.0, 2.0, radial_map="sinh",
                  mass_scale=MASS)
    frame = parallel_frame(rep_massive1, n_theta=10, n_phi=20,
                           radius=float(g.r[3]))
    ops = SplitOperators(rep_massive1, g, FLAT)
    with pytest.raises(SplittingError):
        spin_in_frame(ops, frame, [(3, 12, 10)])


# -- degeneracy at zero spin --------------------------------------------------------------


def test_spin0_connections_coincide(rep_massive0, grid_small_massive):
    # on one-dimensional fibers every built-in connection reduces to the
    # same scalar transport, so the splittings agree identically
    psi = random_test_section(rep_massive0, grid_small_massive, seed=3)
    ops_b = SplitOperators(rep_massive0, grid_small_massive, BOOST)
    ops_r = SplitOperators(rep_massive0, grid_small_massive, ROT)
    for a in range(3):
        assert (ops_b.L(a, psi) - ops_r.L(a, psi)).norm() \
            < 1e-13 * psi.norm()
