"""Connection laboratory: covariant derivatives and their bit-exact
agreement with the reference in ``reference.py``, Leibniz rule,
curvature, mixed-connection commutators, holonomy and flat transport,
and the lattice Chern number."""

import numpy as np
import pytest

import spinsplit.connections as connections
from spinsplit.connections import (
    ConnectionKind,
    ConnectionLabError,
    HolonomyLoop,
    TangentField,
    _edge_transport_batch,
    _form_matrix,
    apply_connection,
    apply_connections,
    chern_number,
    cross_commutator_check,
    curvature_commutator,
    holonomy,
    lambda_flat_profile,
    leibniz_residual,
    lie_bracket,
)
from spinsplit.grid import MomentumGrid, Section
from spinsplit.report import RunConfig
from spinsplit.reps import (
    RepSpec,
    _act_chi,
    _entries_act,
    random_test_section,
)

import reference
from conftest import MASS, bump_connection_form, smooth_scalar

ETH = TangentField.named("e_theta")
EPH = TangentField.named("e_phi")


# -- kinds and profiles -------------------------------------------------------


def test_kind_validation():
    with pytest.raises(ConnectionLabError):
        ConnectionKind("banana")
    with pytest.raises(ConnectionLabError):
        ConnectionKind.affine("no-such-profile")


def test_weights():
    r = np.array([1.0, 1.5, 2.0])
    assert np.allclose(ConnectionKind.boost().weight(r, MASS), 1.0)
    assert np.allclose(ConnectionKind.rotation().weight(r, MASS), 0.0)
    flat = ConnectionKind.flat_massive().weight(r, MASS)
    assert np.allclose(flat, np.sqrt(MASS**2 + r**2) / MASS)
    assert np.allclose(ConnectionKind.affine(
        lambda_flat_profile(1.0)).weight(r, MASS), flat)


def test_flat_weight_singular_at_zero_mass():
    with pytest.raises(ConnectionLabError):
        ConnectionKind.flat_massive().weight(np.array([1.0]), 0.0)


def test_scalar_weight_profile_broadcasts_to_radii(grid_small_massive,
                                                   rep_massive1):
    # a profile may return a number: it is the weight at every radius,
    # bit for bit the profile that fills the radii with it
    scalar = ConnectionKind.affine(lambda r, m: 0.5)
    full = ConnectionKind.affine(lambda r, m: np.full_like(r, 0.5))
    r = np.array([1.0, 1.5, 2.0])
    assert scalar.weight(r, MASS).shape == r.shape
    assert scalar.weight(r, MASS).tobytes() == full.weight(r, MASS).tobytes()
    psi = random_test_section(rep_massive1, grid_small_massive, seed=4)
    assert (apply_connection(scalar, EPH, psi).values.tobytes()
            == apply_connection(full, EPH, psi).values.tobytes())
    assert (holonomy(rep_massive1, scalar, _loop(0.05), n_steps=8).tobytes()
            == holonomy(rep_massive1, full, _loop(0.05), n_steps=8).tobytes())


def _two_weights(r, m):
    return np.array([0.25, 0.75])


def _nan_weight(r, m):
    return np.full_like(r, np.nan)


def _complex_weight(r, m):
    return np.full_like(r, 0.5 + 0.5j, dtype=complex)


@pytest.mark.parametrize("profile", [_two_weights, _nan_weight,
                                     _complex_weight],
                         ids=lambda p: p.__name__)
def test_bad_weight_profile_raises_naming_it(profile, grid_small_massive,
                                             rep_massive1):
    # neither the shell-grid derivative nor the transport reads a weight
    # that does not broadcast to the radii, is complex or is not finite
    kind = ConnectionKind.affine(profile)
    psi = random_test_section(rep_massive1, grid_small_massive, seed=4)
    with pytest.raises(ConnectionLabError, match=profile.__name__):
        apply_connection(kind, EPH, psi)
    with pytest.raises(ConnectionLabError, match=profile.__name__):
        holonomy(rep_massive1, kind, _loop(0.05), n_steps=8)


# -- tangent fields and brackets ------------------------------------------------


def test_tangent_fields_reject_complex_values():
    with pytest.raises(ConnectionLabError, match="real"):
        TangentField.from_array(np.ones((3, 4, 12, 24), dtype=complex))
    with pytest.raises(ConnectionLabError, match="real"):
        TangentField.constant((1j, 0, 0))


def test_array_field_checked_against_whole_grid(grid_small_massive,
                                                rep_massive1):
    psi = random_test_section(rep_massive1, grid_small_massive, seed=4)
    x = TangentField.from_array(np.ones((3, 1, 12, 24)))
    with pytest.raises(ConnectionLabError, match="shape"):
        apply_connection(ConnectionKind.boost(), x, psi)


def test_shell_values_are_whole_grid_values_sliced(grid_small_massive):
    g = grid_small_massive
    fields = [TangentField.named(n) for n in ("e_k", "e_theta", "e_phi")]
    fields += [TangentField.constant((0.3, -0.2, 0.9)),
               TangentField.rotational(0), TangentField.rotational(2),
               TangentField.from_array(
                   np.random.default_rng(2).normal(size=(3,) + g.shape))]
    for x in fields:
        whole = x.values(g)
        for i in range(g.n_r):
            got = x.shell_values(g, i)
            assert got.shape == (3, 1, g.n_theta, g.n_phi)
            assert got.tobytes() == whole[:, i:i + 1].tobytes()


def test_rotational_bracket_analytic(grid_small_massless):
    g = grid_small_massless
    v = [TangentField.rotational(a) for a in range(3)]
    got = lie_bracket(v[0], v[1], g)
    assert np.allclose(got, -v[2].values(g))


def test_bracket_fallback_matches_analytic(grid_mid_massless):
    # feed the rotational fields as raw arrays so the generic
    # finite-difference path is taken, and compare with the closed form
    g = grid_mid_massless
    v = [TangentField.rotational(a) for a in range(3)]
    num = lie_bracket(TangentField.from_array(v[0].values(g)),
                      TangentField.from_array(v[1].values(g)), g)
    assert np.max(np.abs(num + v[2].values(g))) < 1e-8


def test_frame_bracket(grid_mid_massless):
    g = grid_mid_massless
    b = lie_bracket(ETH, EPH, g)
    cot = (np.cos(g.theta) / np.sin(g.theta))[None, :, None]
    expect = -(cot / g.kmag)[None, ...] * g.e_phi
    assert np.allclose(b, expect)
    assert np.allclose(lie_bracket(EPH, ETH, g), -expect)


def test_constant_fields_commute(grid_small_massless):
    x = TangentField.constant([1.0, 0.0, 0.0])
    y = TangentField.constant([0.0, 1.0, 0.0])
    assert np.allclose(lie_bracket(x, y, grid_small_massless), 0.0)


# -- covariant derivative basics --------------------------------------------------


def test_massless_boost_equals_rotation(rep_massless_plus,
                                        grid_mid_massless):
    psi = random_test_section(rep_massless_plus, grid_mid_massless, seed=3)
    for x in (ETH, TangentField.rotational(0)):
        dk = apply_connection(ConnectionKind.boost(), x, psi)
        dr = apply_connection(ConnectionKind.rotation(), x, psi)
        assert (dk - dr).norm() < 1e-13 * psi.norm()


def test_leibniz_rule(rep_massive1, grid_small_massive, grid_mid_massive):
    vals = []
    for g in (grid_small_massive, grid_mid_massive):
        psi = random_test_section(rep_massive1, g, seed=3)
        f = smooth_scalar(g)
        vals.append(leibniz_residual(ConnectionKind.boost(), [ETH], f, psi))
    assert vals[1] < 1e-3
    assert vals[1] < vals[0] / 4


def test_leibniz_mutation_detected(rep_massive1, grid_mid_massive):
    # dropping the derivative correction term must produce an O(1) defect:
    # compare D_X(f psi) against f D_X psi alone
    g = grid_mid_massive
    psi = random_test_section(rep_massive1, g, seed=3)
    f = smooth_scalar(g)
    lhs = apply_connection(ConnectionKind.boost(), ETH, psi * f)
    wrong = apply_connection(ConnectionKind.boost(), ETH, psi) * f
    assert (lhs - wrong).norm() / psi.norm() > 0.05


@pytest.mark.parametrize("rep,kind", [
    (RepSpec.massive(MASS, 1), ConnectionKind.boost()),
    (RepSpec.massive(MASS, 1), ConnectionKind.rotation()),
    (RepSpec.massive(MASS, 1), ConnectionKind.affine(lambda r, m: 0.3)),
    (RepSpec.massless(1), ConnectionKind.boost()),
], ids=["massive1-boost", "massive1-rotation", "massive1-affine0.3",
        "massless+1-boost"])
@pytest.mark.parametrize("x", [ETH, EPH], ids=lambda x: x.name)
def test_closed_form_matches_generator_connection(rep, kind, x,
                                                  grid_mid_massive,
                                                  grid_mid_massless):
    # the generator-built D_X and the pointwise form X.grad + A(X) are
    # independent implementations of one connection
    g = grid_mid_massive if rep.kind == "massive" else grid_mid_massless
    psi = random_test_section(rep, g, seed=5)
    xv = x.values(g)
    grad = g.gradient(psi.values)
    out = apply_connection(kind, x, psi).values - np.einsum(
        "a...,a...->...", xv[..., None], grad)
    for ir, r0 in enumerate(g.r):
        a = reference.entries(_form_matrix(rep, kind, float(r0),
                                           g.khat[:, ir], xv[:, ir]))
        out[ir] -= _entries_act(a, rep.dim, psi.values[ir])
    assert Section(rep, g, out).norm() < 1e-12 * psi.norm()


# -- the shell-blocked covariant pass against its reference ----------------------


_COVARIANT_KINDS = {
    "boost": ConnectionKind.boost(),
    "rotation": ConnectionKind.rotation(),
    "flat": ConnectionKind.flat_massive(),
    "affine-half": ConnectionKind.affine(lambda r, m: 0.5),
    # a weight that differs from shell to shell
    "affine-shell": ConnectionKind.affine(
        lambda r, m: 0.25 + 0.5 * r / (1 + r)),
}
_COVARIANT_REPS = {
    "massive0": RepSpec.massive(MASS, 0),
    "massive1": RepSpec.massive(MASS, 1),
    "massless0": RepSpec.massless(0),
    "massless+1": RepSpec.massless(1),
    "massless-1": RepSpec.massless(-1),
}


_COVARIANT_FIELDS = {
    "array": lambda grid: TangentField.from_array(
        np.random.default_rng(13).normal(size=(3,) + grid.shape)),
    "e_theta": lambda grid: ETH,
    "e_phi": lambda grid: EPH,
    "rotational": lambda grid: TangentField.rotational(1),
    "constant": lambda grid: TangentField.constant((0.3, -0.2, 0.9)),
}


@pytest.mark.parametrize("fields", [*_COVARIANT_FIELDS, "batch"])
@pytest.mark.parametrize("kind_name,rep_name", [
    (k, r) for k in _COVARIANT_KINDS for r in _COVARIANT_REPS
    # the flat connection is massive only
    if not (k == "flat" and r.startswith("massless"))])
def test_covariant_pass_matches_reference_bytes(kind_name, rep_name, fields):
    # one pass over one field or over the batch of all five: each field's
    # derivative equals, bit for bit and the sign of a zero included, its
    # one-field call and the reference sum of single-axis actions.  Array
    # fields are sliced to each shell; the others are evaluated on it
    rep, kind = _COVARIANT_REPS[rep_name], _COVARIANT_KINDS[kind_name]
    grid = MomentumGrid(5, 12, 24, 1.0, 2.0, mass=rep.mass)
    psi = random_test_section(rep, grid, seed=11)
    xs = [field(grid) for name, field in _COVARIANT_FIELDS.items()
          if fields in ("batch", name)]
    batch = apply_connections(kind, xs, psi)
    assert len(batch) == len(xs)
    for x, out in zip(xs, batch):
        ref = reference.covariant(kind, rep, grid, x.values(grid),
                                  psi.values).tobytes()
        assert out.values.tobytes() == ref
        assert apply_connection(kind, x, psi).values.tobytes() == ref


def test_grid_shell_fields_are_slices(grid_small_massive):
    g = grid_small_massive
    for i in range(g.n_r):
        sh = g.shell(i)
        assert sh is g.shell(i)
        assert sh.shape == (1, g.n_theta, g.n_phi)
        for name in ("kx", "ky", "kz", "kmag", "omega", "inv_kmag",
                     "inv_kmag_sin_theta"):
            assert np.shares_memory(getattr(sh, name), getattr(g, name))
            assert np.array_equal(getattr(sh, name), getattr(g, name)[i:i + 1])
        for name in ("khat", "e_k", "e_theta", "e_phi"):
            assert np.array_equal(getattr(sh, name),
                                  getattr(g, name)[:, i:i + 1])
        assert np.array_equal(sh.r, g.r[i:i + 1])
        assert sh.sin_theta is g.sin_theta
        assert sh.inv_sin_theta is g.inv_sin_theta
        assert sh.omega.tobytes() == g.omega[i:i + 1].tobytes()


# -- curvature ---------------------------------------------------------------------


def _chi(rep, grid, psi):
    return _act_chi(rep, grid, psi.values)


def test_boost_curvature_closed_form(rep_massive1, grid_mid_massive):
    g = grid_mid_massive
    psi = random_test_section(rep_massive1, g, seed=11, polar_damping=4)
    F = curvature_commutator(ConnectionKind.boost(), ETH, EPH, psi)
    pred = (1j / (MASS**2 + g.kmag**2))[..., None] * _chi(rep_massive1,
                                                          g, psi)
    assert Section(rep_massive1, g,
                   F.values - pred).norm() / psi.norm() < 1e-3


def test_rotation_curvature_closed_form(rep_massive1, grid_mid_massive):
    g = grid_mid_massive
    psi = random_test_section(rep_massive1, g, seed=11, polar_damping=4)
    F = curvature_commutator(ConnectionKind.rotation(), ETH, EPH, psi)
    pred = (1j / g.kmag**2)[..., None] * _chi(rep_massive1, g, psi)
    assert Section(rep_massive1, g,
                   F.values - pred).norm() / psi.norm() < 1e-3


def test_massless_curvature(rep_massless_plus, grid_mid_massless):
    g = grid_mid_massless
    psi = random_test_section(rep_massless_plus, g, seed=11,
                              polar_damping=4)
    F = curvature_commutator(ConnectionKind.rotation(), ETH, EPH, psi)
    pred = (1j / g.kmag**2)[..., None] * _chi(rep_massless_plus, g, psi)
    assert Section(rep_massless_plus, g,
                   F.values - pred).norm() / psi.norm() < 1e-3


def test_flat_connection_has_zero_curvature(rep_massive1,
                                            grid_mid_massive):
    g = grid_mid_massive
    psi = random_test_section(rep_massive1, g, seed=11, polar_damping=4)
    F = curvature_commutator(ConnectionKind.flat_massive(), ETH, EPH, psi)
    assert F.norm() / psi.norm() < 1e-3


def test_affine_family_curvature_scaling(rep_massive1, grid_mid_massive):
    # F^lambda(e_theta, e_phi) = i (1 - lambda^2)/|k|^2 S.khat
    g = grid_mid_massive
    psi = random_test_section(rep_massive1, g, seed=11, polar_damping=4)
    chi = _chi(rep_massive1, g, psi)
    for lam in (0.5, 2.0):
        kind = ConnectionKind.affine(lambda_flat_profile(lam))
        F = curvature_commutator(kind, ETH, EPH, psi)
        pred = (1j * (1 - lam**2) / g.kmag**2)[..., None] * chi
        assert Section(rep_massive1, g,
                       F.values - pred).norm() / psi.norm() < 1e-3


def test_curvature_antisymmetry(rep_massive1, grid_small_massive):
    psi = random_test_section(rep_massive1, grid_small_massive, seed=11,
                              polar_damping=4)
    fxy = curvature_commutator(ConnectionKind.boost(), ETH, EPH, psi)
    fyx = curvature_commutator(ConnectionKind.boost(), EPH, ETH, psi)
    assert (fxy + fyx).norm() < 1e-10 * psi.norm()


# -- curvature from a small loop ------------------------------------------------------


def test_holonomy_small_loop_gives_curvature(rep_massive1,
                                             grid_mid_massive):
    # U ~ exp(-F r0^2 Omega) around a small loop, so (I - U)/(r0^2 Omega)
    # approaches the boost curvature F(e_theta, e_phi) = (i/H^2) S.khat
    # at first order in the loop size
    g = grid_mid_massive
    r0, th0, ph0 = float(g.r[3]), float(g.theta[12]), float(g.phi[10])
    khat = np.array([np.sin(th0) * np.cos(ph0), np.sin(th0) * np.sin(ph0),
                     np.cos(th0)])
    exact = (1j / (MASS**2 + r0**2)
             * np.einsum("a,abc->bc", khat, rep_massive1.spin_mats))
    errs = []
    for delta in (0.04, 0.02):
        a = delta / np.sin(th0)
        loop = HolonomyLoop(r0, th0 - delta / 2, th0 + delta / 2,
                            ph0 - a / 2, ph0 + a / 2)
        u = holonomy(rep_massive1, ConnectionKind.boost(), loop, n_steps=32)
        est = (np.eye(rep_massive1.dim) - u) / (r0**2 * loop.solid_angle())
        errs.append(np.linalg.norm(est - exact))
    assert errs[0] < 1e-2
    assert errs[1] < 0.6 * errs[0]


# -- mixed-connection commutators -----------------------------------------------------


@pytest.mark.parametrize("spin", (0, 1))
def test_cross_commutators(spin):
    rep = RepSpec.massive(MASS, spin)
    g = MomentumGrid(6, 24, 48, 1.0, 2.0, mass=MASS)
    psi = random_test_section(rep, g, seed=4, polar_damping=4)
    out = cross_commutator_check(psi)
    assert set(out) == {"boost-theta rotation-phi",
                        "rotation-theta boost-phi"}
    for label, resid in out.items():
        assert resid < 1e-3, f"{label}: {resid}"


def test_cross_commutators_massless_rejected(rep_massless_plus,
                                             grid_small_massless):
    psi = random_test_section(rep_massless_plus, grid_small_massless,
                              seed=4)
    with pytest.raises(ConnectionLabError):
        cross_commutator_check(psi)


# -- holonomy ---------------------------------------------------------------------------


# the radius and tolerances of the report's holonomy and chern suites
_TRANSPORT = RunConfig(["chern", "holonomy"])


def _loop(area):
    th1 = np.pi / 2 - 0.2
    dphi = float(np.sqrt(area))
    th2 = float(np.arccos(np.cos(th1) - area / dphi))
    return HolonomyLoop(_TRANSPORT.r0, th1, th2, 0.3, 0.3 + dphi)


def test_rotation_holonomy_exact(rep_massive1):
    loop = _loop(0.05)
    area = loop.solid_angle()
    u = holonomy(rep_massive1, ConnectionKind.rotation(), loop,
                 n_steps=96)
    th1, ph1 = np.pi / 2 - 0.2, 0.3
    khat = np.array([np.sin(th1) * np.cos(ph1),
                     np.sin(th1) * np.sin(ph1), np.cos(th1)])
    sk = np.einsum("a,abc->bc", khat, rep_massive1.spin_mats)
    # exp(-i area khat.S) from the eigenbasis of the Hermitian khat.S
    lam, vec = np.linalg.eigh(sk)
    pred = (vec * np.exp(-1j * area * lam)) @ vec.conj().T
    assert np.linalg.norm(u - pred) < 1e-6


def test_boost_holonomy_small_area(rep_massive1):
    r0 = _TRANSPORT.r0
    om2 = MASS**2 + r0**2
    for area_target in (0.01, 0.05):
        loop = _loop(area_target)
        area = loop.solid_angle()
        u = holonomy(rep_massive1, ConnectionKind.boost(), loop,
                     n_steps=96)
        tr = float(np.real(np.trace(u)))
        meas = float(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))
        pred = area * r0**2 / om2
        assert abs(meas - pred) / pred < _TRANSPORT.tolerance("holonomy")


def test_flat_holonomy_trivial(rep_massive1):
    u = holonomy(rep_massive1, ConnectionKind.flat_massive(), _loop(0.05),
                 n_steps=96)
    assert np.linalg.norm(u - np.eye(rep_massive1.dim)) \
        < _TRANSPORT.tolerance("holonomy_flat")


def test_flat_edge_transport_is_identity(rep_massive1):
    # the flat connection is globally trivial in these coordinates: every
    # meridian and latitude edge of a 24 x 48 shell mesh transports the
    # fiber by the identity
    th = ((np.arange(24) + 0.5) * (np.pi / 24))[:, None]
    ph = (np.arange(48) * (2 * np.pi / 48))[None, :]
    flat = ConnectionKind.flat_massive()
    for edges in ((th[:-1], ph, th[1:], ph),
                  (th, ph, th, ph + 2 * np.pi / 48)):
        t = _edge_transport_batch(rep_massive1, flat, 1.5, *edges,
                                  n_steps=8)
        assert np.max(np.abs(t - np.eye(rep_massive1.dim))) < 1e-8


def test_holonomy_unitary(rep_massive1):
    u = holonomy(rep_massive1, ConnectionKind.boost(), _loop(0.05),
                 n_steps=96)
    assert np.linalg.norm(np.conj(u.T) @ u
                          - np.eye(rep_massive1.dim)) < 1e-10


@pytest.mark.parametrize("n_steps", [0, -3, 2.5, True])
def test_holonomy_rejects_bad_step_count(rep_massive1, n_steps):
    with pytest.raises(ConnectionLabError, match="n_steps"):
        holonomy(rep_massive1, ConnectionKind.boost(), _loop(0.05),
                 n_steps=n_steps)


@pytest.mark.parametrize("r0", [0.0, -1.5, float("nan"), float("inf")])
def test_holonomy_loop_rejects_bad_radius(r0):
    with pytest.raises(ConnectionLabError, match="r0"):
        HolonomyLoop(r0, 1.0, 1.2, 0.3, 0.5)


@pytest.mark.parametrize("phi1,phi2", [(float("nan"), 0.5),
                                       (0.3, float("inf"))])
def test_holonomy_loop_rejects_nonfinite_phi(phi1, phi2):
    with pytest.raises(ConnectionLabError, match="phi1 and phi2"):
        HolonomyLoop(1.5, 1.0, 1.2, phi1, phi2)


# -- lattice Chern number -----------------------------------------------------------------


@pytest.mark.parametrize("h", (-1, 0, 1))
def test_chern_matches_helicity(h):
    rep = RepSpec.massless(h)
    n, raw = chern_number(rep, ConnectionKind.rotation())
    assert n == -2 * h
    assert abs(raw - n) < _TRANSPORT.tolerance("chern")


def test_chern_kind_independent():
    rep = RepSpec.massless(1)
    values = [chern_number(rep, kind)
              for kind in (ConnectionKind.boost(),
                           ConnectionKind.rotation(),
                           ConnectionKind.affine(lambda r, m: 0.0),
                           ConnectionKind.affine(lambda r, m: 1.0))]
    assert all(n == -2 for n, _ in values)
    raws = [raw for _, raw in values]
    assert max(raws) - min(raws) < 1e-6


def test_chern_invariant_under_perturbation(monkeypatch):
    rep = RepSpec.massless(1)
    n0, _ = chern_number(rep, ConnectionKind.rotation())
    bump_connection_form(monkeypatch)
    n1, _ = chern_number(rep, ConnectionKind.rotation())
    assert n1 == n0 == -2


def test_chern_massive_rejected(rep_massive1):
    with pytest.raises(ConnectionLabError):
        chern_number(rep_massive1, ConnectionKind.boost())


def test_chern_margin_guard_triggers(monkeypatch):
    # with a tight margin any nonzero plaquette phase is flagged as too
    # close to the branch cut
    monkeypatch.setattr(connections, "_CHERN_MARGIN", 3.1)
    rep = RepSpec.massless(1)
    with pytest.raises(ConnectionLabError, match="branch cut"):
        chern_number(rep, ConnectionKind.rotation(), n_theta=12,
                     n_phi=24)


@pytest.mark.parametrize("kwargs,name", [
    ({"n_theta": 1}, "n_theta"), ({"n_theta": 0}, "n_theta"),
    ({"n_theta": 12.0}, "n_theta"), ({"n_phi": 1}, "n_phi"),
    ({"radius": 0.0}, "radius"), ({"radius": -1.5}, "radius"),
    ({"radius": float("inf")}, "radius"),
])
def test_chern_rejects_bad_mesh(kwargs, name):
    with pytest.raises(ConnectionLabError, match=name):
        chern_number(RepSpec.massless(1), ConnectionKind.rotation(),
                     **kwargs)
