"""Momentum-shell grid: differentiation accuracy, quadrature and
sections."""

import numpy as np
import pytest

from spinsplit.grid import GridError, Section, make_grid
from spinsplit.reps import RepSpec, random_test_section

from conftest import MASS


# -- construction and validation ----------------------------------------------


def test_spec_round_trip():
    g = make_grid(5, 16, 32, 1.0, 2.0, radial_map="sinh", mass_scale=1.3)
    s = g.spec()
    g2 = make_grid(s["N_r"], s["N_theta"], s["N_phi"],
                   s["r_min"], s["r_max"],
                   radial_map=s["radial_map"], mass_scale=s["mass_scale"])
    assert g == g2
    assert np.allclose(g.r, g2.r)


def test_bad_dimensions_rejected():
    with pytest.raises(GridError):
        make_grid(1, 12, 24, 1.0, 2.0)
    with pytest.raises(GridError):
        make_grid(4, 12, 24, 2.0, 1.0)
    with pytest.raises(GridError):
        make_grid(4, 12, 24, -1.0, 2.0)


def test_theta_nodes_avoid_poles():
    g = make_grid(4, 12, 24, 1.0, 2.0)
    assert g.theta.min() > 0.0
    assert g.theta.max() < np.pi
    assert np.all(np.sin(g.theta) > 0.0)


def test_coordinates_consistent():
    g = make_grid(4, 12, 24, 1.0, 2.0)
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
    g = make_grid(4, 12, 24, 1.0, 2.0, radial_map="sinh", mass_scale=MASS)
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


def test_omega():
    g = make_grid(4, 12, 24, 1.0, 2.0)
    assert np.allclose(g.omega(0.0), g.kmag)
    assert np.allclose(g.omega(1.3), np.sqrt(1.69 + g.kmag**2))


# -- differentiation -------------------------------------------------------------


def test_gradient_exact_on_polynomials():
    g = make_grid(6, 24, 48, 1.0, 2.0)
    f = (g.kx * g.ky + g.kz**2)[..., None]
    gr = g.gradient(f)
    assert np.max(np.abs(gr[0][..., 0] - g.ky)) < 1e-6
    assert np.max(np.abs(gr[1][..., 0] - g.kx)) < 1e-6
    assert np.max(np.abs(gr[2][..., 0] - 2 * g.kz)) < 1e-6


def test_gradient_converges_on_smooth_function():
    errs = []
    for nt in (12, 24):
        g = make_grid(6, nt, 2 * nt, 1.0, 2.0)
        f = np.exp(0.5 * g.kz) * np.sin(g.kx)
        fx = 0.5 * np.exp(0.5 * g.kz) * 0.0 + np.exp(0.5 * g.kz) * np.cos(g.kx)
        fz = 0.5 * np.exp(0.5 * g.kz) * np.sin(g.kx)
        gr = g.gradient(f[..., None])
        err = max(np.max(np.abs(gr[0][..., 0] - fx)),
                  np.max(np.abs(gr[2][..., 0] - fz)))
        errs.append(err)
    assert errs[1] < errs[0] / 8  # at least cubic decay in practice


def test_radial_derivative_with_sinh_map():
    g = make_grid(8, 12, 24, 1.0, 2.0, radial_map="sinh", mass_scale=MASS)
    om = g.omega(MASS)
    d = g.d_r(om[..., None])[..., 0]
    exact = g.kmag / om
    assert np.max(np.abs(d - exact)) < 1e-7


# -- quadrature -------------------------------------------------------------------


def test_volume_quadrature_converges():
    vol = 4.0 * np.pi / 3.0 * (2.0**3 - 1.0**3)
    rels = []
    for nt in (12, 24, 48):
        g = make_grid(4, nt, 2 * nt, 1.0, 2.0)
        rels.append(abs(g.volume_weights().sum() - vol) / vol)
    assert rels[2] < 1e-3
    assert rels[0] / rels[1] > 3.0  # second-order decay in the pole caps
    assert rels[1] / rels[2] > 3.0


def test_norm_positive_definite():
    rep = RepSpec.massive(MASS, 1)
    g = make_grid(4, 12, 24, 1.0, 2.0, radial_map="sinh", mass_scale=MASS)
    psi = random_test_section(rep, g, seed=1)
    assert psi.norm() > 0.0
    zero = Section(rep, g, np.zeros_like(psi.values))
    assert zero.norm() == 0.0


# -- section arithmetic -----------------------------------------------------------


def test_section_ops():
    rep = RepSpec.massive(MASS, 1)
    g = make_grid(4, 12, 24, 1.0, 2.0, radial_map="sinh", mass_scale=MASS)
    a = random_test_section(rep, g, seed=1)
    b = random_test_section(rep, g, seed=2)
    assert (a + b - b - a).norm() < 1e-14 * a.norm()
    assert ((-a) + a).norm() == 0.0
    assert np.allclose((a * 2.0).values, 2.0 * a.values)
    f = g.kmag  # grid-shaped scalar multiplier
    assert np.allclose((a * f).values, f[..., None] * a.values)


def test_section_shape_mismatch():
    rep = RepSpec.massive(MASS, 1)
    g = make_grid(4, 12, 24, 1.0, 2.0)
    with pytest.raises(GridError):
        Section(rep, g, np.zeros(g.shape + (2,), dtype=complex))
