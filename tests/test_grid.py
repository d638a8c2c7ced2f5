"""Momentum-shell grid: differentiation accuracy, quadrature and
sections."""

import numpy as np
import pytest

from spinsplit.connections import (
    ConnectionKind,
    TangentField,
    apply_connections,
)
from spinsplit.grid import (
    GridError,
    MomentumGrid,
    Section,
    component_major,
    radial_collocation,
)
from spinsplit.reps import (
    RepSpec,
    _act_J,
    _act_K,
    _spin_act,
    inner,
    random_test_section,
)

import reference
from conftest import MASS


# -- construction and validation ----------------------------------------------


def test_spec_round_trip():
    g = MomentumGrid(5, 16, 32, 1.0, 2.0, mass=1.3)
    s = g.spec()
    assert s["mass"] == 1.3
    g2 = MomentumGrid(s["N_r"], s["N_theta"], s["N_phi"],
                      s["r_min"], s["r_max"], mass=s["mass"])
    assert g == g2
    assert np.allclose(g.r, g2.r)
    # a grid is built for one mass: the same shell at mass 0 is another
    assert g != MomentumGrid(5, 16, 32, 1.0, 2.0)


def test_bad_dimensions_rejected():
    with pytest.raises(GridError):
        MomentumGrid(1, 12, 24, 1.0, 2.0)
    with pytest.raises(GridError):
        MomentumGrid(4, 12, 24, 2.0, 1.0)
    with pytest.raises(GridError):
        MomentumGrid(4, 12, 24, -1.0, 2.0)
    for mass in (-1.3, np.nan, np.inf):
        with pytest.raises(GridError, match="mass must be finite and >= 0"):
            MomentumGrid(4, 12, 24, 1.0, 2.0, mass=mass)
        with pytest.raises(GridError, match="mass must be finite and >= 0"):
            radial_collocation(4, 1.0, 2.0, mass)


def test_non_finite_radial_collocation_rejected():
    # the products of the node spacings underflow, and the
    # differentiation matrix would be 0/0
    with pytest.raises(GridError, match="non-finite"):
        MomentumGrid(4, 12, 24, 1.0, 2.0, mass=1e150)
    with pytest.raises(GridError, match="non-finite"):
        MomentumGrid(6, 12, 24, 1e-100, 2e-100)


def test_theta_nodes_avoid_poles():
    g = MomentumGrid(4, 12, 24, 1.0, 2.0)
    assert g.theta.min() > 0.0
    assert g.theta.max() < np.pi
    assert np.all(np.sin(g.theta) > 0.0)


def test_coordinates_consistent():
    g = MomentumGrid(4, 12, 24, 1.0, 2.0)
    assert np.allclose(np.sqrt(g.kx**2 + g.ky**2 + g.kz**2), g.kmag)
    assert np.allclose(
        sum(g.khat[a] ** 2 for a in range(3)), 1.0)
    # spherical frame orthonormality
    for u in (g.e_theta, g.e_phi):
        assert np.allclose(sum(u[a] ** 2 for a in range(3)), 1.0)
        assert np.allclose(
            sum(u[a] * g.khat[a] for a in range(3)), 0.0, atol=1e-13)


def test_sin_theta_is_a_broadcast_view():
    # one (1, N_theta, 1) array serves every sin(theta) factor; it gives
    # the full-shape copies it replaces bit for bit
    g = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=MASS)
    assert g.sin_theta.shape == (1, g.n_theta, 1)
    full = np.sin(g.theta)[None, :, None] + np.zeros(g.shape)
    assert np.array_equal(g.sin_theta + np.zeros(g.shape), full)
    w = (g.w_r[:, None, None] * (g.r**2)[:, None, None] * full
         * g.dtheta * g.dphi)
    assert np.array_equal(g.volume_weights(), w)
    f = (g.kx * g.ky + g.kz**2)[..., None]
    grad = np.stack([g.e_k[a][..., None] * g.d_r(f)
                     + g.e_theta[a][..., None] * (g.d_theta(f)
                                                  / g.kmag[..., None])
                     + g.e_phi[a][..., None] * (g.d_phi(f)
                                                / (g.kmag * full)[..., None])
                     for a in range(3)])
    assert np.array_equal(g.gradient(f), grad)


@pytest.mark.parametrize("shape", [(4, 12, 24), (5, 8, 10), (4, 6, 8)])
@pytest.mark.parametrize("fiber", [(), (1,), (3,)])
def test_d_phi_matches_roll_reference(shape, fiber):
    g = MomentumGrid(*shape, 1.0, 2.0)
    rng = np.random.default_rng(sum(shape) + len(fiber))
    values = (rng.normal(size=shape + fiber)
              + 1j * rng.normal(size=shape + fiber))
    for v in (values, values.real):
        assert g.d_phi(v).tobytes() == reference.d_phi(g, v).tobytes()


@pytest.mark.parametrize("shape", [(4, 12, 24), (5, 8, 10), (4, 6, 8)])
@pytest.mark.parametrize("fiber", [(), (1,), (3,)])
def test_d_r_matches_einsum_reference(shape, fiber):
    # every block goes through its float64 view, made contiguous first
    # for strided input; that gives the values of the complex contraction
    g = MomentumGrid(*shape, 1.0, 2.0, mass=MASS)
    rng = np.random.default_rng(sum(shape) + len(fiber))
    values = (rng.normal(size=shape + fiber)
              + 1j * rng.normal(size=shape + fiber))
    strided = values[:, :, ::2]
    assert not strided.flags.c_contiguous
    for v in (values, values.real, strided):
        assert g.d_r(v).tobytes() == reference.d_r(g, v).tobytes()


def _component_major_copy(values):
    out = component_major(values.shape, values.dtype)
    out[...] = values
    return out


def _is_component_major(values):
    return np.moveaxis(values, -1, 0).flags.c_contiguous


@pytest.mark.parametrize("shape", [(4, 12, 24), (5, 8, 10)])
@pytest.mark.parametrize("fiber", [(1,), (3,)])
@pytest.mark.parametrize("name", ["d_r", "d_theta", "d_phi"])
def test_derivatives_layout_independent_bytes(shape, fiber, name):
    # C-order and component-major input give the same bytes, real and
    # complex alike, and the result is component-major either way
    g = MomentumGrid(*shape, 1.0, 2.0, mass=MASS)
    rng = np.random.default_rng(sum(shape) + len(fiber))
    values = (rng.normal(size=shape + fiber)
              + 1j * rng.normal(size=shape + fiber))
    op = getattr(g, name)
    for c_order in (values, np.ascontiguousarray(values.real)):
        assert c_order.flags.c_contiguous
        blocks = _component_major_copy(c_order)
        out = op(blocks)
        assert out.dtype == c_order.dtype
        assert out.tobytes() == op(c_order).tobytes()
        assert _is_component_major(out)
        assert _is_component_major(op(c_order))


@pytest.mark.parametrize("shape", [(4, 12, 24), (5, 8, 10)])
@pytest.mark.parametrize("fiber", [(1,), (3,)])
@pytest.mark.parametrize("name", ["d_r", "d_theta", "d_phi"])
def test_shell_derivatives_are_slices_of_the_whole(shape, fiber, name):
    # a shell loop takes d_r one row at a time and d_theta, d_phi one
    # shell at a time: each gives the bytes of its slice of the
    # whole-section call, for component-major and C-order input
    g = MomentumGrid(*shape, 1.0, 2.0, mass=MASS)
    rng = np.random.default_rng(sum(shape) + len(fiber))
    values = (rng.normal(size=shape + fiber)
              + 1j * rng.normal(size=shape + fiber))
    op = getattr(g, name)
    for v in (_component_major_copy(values), values):
        whole = op(v)
        for i in range(g.n_r):
            shell = g.d_r(v, i) if name == "d_r" else op(v[i:i + 1])
            assert shell.tobytes() == whole[i:i + 1].tobytes()


@pytest.mark.parametrize("rep", [RepSpec.massive(MASS, 1),
                                 RepSpec.massless(1), RepSpec.massless(0)],
                         ids=["massive1", "massless+1", "massless0"])
def test_component_major_layout_kept(rep):
    # component-major values stay component-major through the section
    # constructors, the derivatives, the generator actions and the
    # covariant pass; C-order input gives the same values
    g = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=rep.mass)
    psi = random_test_section(rep, g, seed=4)
    phi = random_test_section(rep, g, seed=5)
    v = psi.values
    assert _is_component_major(v)
    c_order = np.ascontiguousarray(v)
    assert c_order.flags.c_contiguous
    assert _is_component_major(Section(rep, g, c_order).values)
    kind = (ConnectionKind.flat_massive() if rep.kind == "massive"
            else ConnectionKind.boost())
    xs = [TangentField.rotational(a) for a in range(3)]
    ops = {
        "d_r": g.d_r, "d_theta": g.d_theta, "d_phi": g.d_phi,
        "J": lambda w: _act_J(rep, g, 2, w),
        "K": lambda w: _act_K(rep, g, 0, w),
        "S": lambda w: _spin_act(rep, 0, w),
    }
    for name, op in ops.items():
        out = op(v)
        assert _is_component_major(out), name
        assert out.tobytes() == op(c_order).tobytes(), name
    for out in apply_connections(kind, xs, psi):
        assert _is_component_major(out.values)
    f = g.kmag
    for sec in (psi + phi, psi - phi, psi * f, psi * 2.0, 2.0 * psi,
                -psi):
        assert _is_component_major(sec.values)
    assert (psi * f).values.tobytes() == (
        f[..., None] * c_order).tobytes()


def test_omega():
    g = MomentumGrid(4, 12, 24, 1.0, 2.0)
    assert np.allclose(g.omega, g.kmag)
    g = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=1.3)
    assert np.allclose(g.omega, np.sqrt(1.69 + g.kmag**2))


# -- differentiation -------------------------------------------------------------


def test_gradient_exact_on_polynomials():
    g = MomentumGrid(6, 24, 48, 1.0, 2.0)
    f = (g.kx * g.ky + g.kz**2)[..., None]
    gr = g.gradient(f)
    assert np.max(np.abs(gr[0][..., 0] - g.ky)) < 1e-6
    assert np.max(np.abs(gr[1][..., 0] - g.kx)) < 1e-6
    assert np.max(np.abs(gr[2][..., 0] - 2 * g.kz)) < 1e-6


def test_gradient_converges_on_smooth_function():
    errs = []
    for nt in (12, 24):
        g = MomentumGrid(6, nt, 2 * nt, 1.0, 2.0)
        f = np.exp(0.5 * g.kz) * np.sin(g.kx)
        fx = 0.5 * np.exp(0.5 * g.kz) * 0.0 + np.exp(0.5 * g.kz) * np.cos(g.kx)
        fz = 0.5 * np.exp(0.5 * g.kz) * np.sin(g.kx)
        gr = g.gradient(f[..., None])
        err = max(np.max(np.abs(gr[0][..., 0] - fx)),
                  np.max(np.abs(gr[2][..., 0] - fz)))
        errs.append(err)
    assert errs[1] < errs[0] / 8  # at least cubic decay in practice


def test_radial_derivative_with_sinh_map():
    g = MomentumGrid(8, 12, 24, 1.0, 2.0, mass=MASS)
    om = g.omega
    d = g.d_r(om[..., None])[..., 0]
    exact = g.kmag / om
    assert np.max(np.abs(d - exact)) < 1e-7


# -- quadrature -------------------------------------------------------------------


def test_volume_quadrature_converges():
    vol = 4.0 * np.pi / 3.0 * (2.0**3 - 1.0**3)
    rels = []
    for nt in (12, 24, 48):
        g = MomentumGrid(4, nt, 2 * nt, 1.0, 2.0)
        rels.append(abs(g.volume_weights().sum() - vol) / vol)
    assert rels[2] < 1e-3
    assert rels[0] / rels[1] > 3.0  # second-order decay in the pole caps
    assert rels[1] / rels[2] > 3.0


def test_norm_positive_definite():
    rep = RepSpec.massive(MASS, 1)
    g = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=MASS)
    psi = random_test_section(rep, g, seed=1)
    assert psi.norm() > 0.0
    zero = Section(rep, g, np.zeros_like(psi.values))
    assert zero.norm() == 0.0


@pytest.mark.parametrize("rep", [RepSpec.massive(MASS, 1),
                                 RepSpec.massless(1)], ids=repr)
def test_invariant_weights_built_once_read_only(rep):
    # d^3k/omega is built once per grid, with the bytes of the formula,
    # and the norm and the inner product read that array
    g = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=rep.mass)
    w = g.invariant_weights
    assert w is g.invariant_weights
    assert w.tobytes() == (g.volume_weights() / g.omega).tobytes()
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0, 0] = 1.0
    psi = random_test_section(rep, g, seed=1)
    dens = np.sum(np.abs(psi.values) ** 2, axis=-1)
    assert psi.norm() == float(np.sqrt(np.sum(w * dens).real))
    dens = np.einsum("...c,...c->...", np.conj(psi.values), psi.values)
    assert inner(psi, psi) == complex(np.sum(w * dens))


# -- section arithmetic -----------------------------------------------------------


def test_section_ops():
    rep = RepSpec.massive(MASS, 1)
    g = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=MASS)
    a = random_test_section(rep, g, seed=1)
    b = random_test_section(rep, g, seed=2)
    assert (a + b - b - a).norm() < 1e-14 * a.norm()
    assert ((-a) + a).norm() == 0.0
    assert np.allclose((a * 2.0).values, 2.0 * a.values)
    f = g.kmag  # grid-shaped scalar multiplier
    assert np.allclose((a * f).values, f[..., None] * a.values)


def test_section_shape_mismatch():
    rep = RepSpec.massive(MASS, 1)
    g = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=MASS)
    with pytest.raises(GridError, match="expected"):
        Section(rep, g, np.zeros(g.shape + (2,), dtype=complex))
    # a grid holds the energy and the invariant weights of the one mass
    # it is built for
    g0 = MomentumGrid(4, 12, 24, 1.0, 2.0)
    for r, grid in ((rep, g0), (RepSpec.massless(1), g)):
        with pytest.raises(GridError, match=f"a rep of mass {r.mass} on a "
                           f"grid built for mass {grid.mass}"):
            Section(r, grid, np.zeros(grid.shape + (r.dim,), dtype=complex))
