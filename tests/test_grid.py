"""Momentum-shell grid: differentiation accuracy, quadrature,
sections, and bit-exact serialization."""

import json
import struct

import numpy as np
import pytest

from spinsplit.grid import (
    GridError,
    Section,
    load_section,
    make_grid,
    save_section,
)
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


# -- serialization ----------------------------------------------------------------


def test_save_load_bit_exact(tmp_path):
    rep = RepSpec.massive(MASS, 1)
    g = make_grid(4, 12, 24, 1.0, 2.0, radial_map="sinh", mass_scale=MASS)
    psi = random_test_section(rep, g, seed=7)
    path = tmp_path / "psi.sect"
    save_section(path, psi)
    again = load_section(path, RepSpec.from_spec)
    assert again.rep == rep
    assert again.grid == g
    assert np.array_equal(again.values, psi.values)
    # sidecar JSON exists and matches the embedded header
    assert (tmp_path / "psi.sect.json").exists()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.sect"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(GridError):
        load_section(path, RepSpec.from_spec)


def test_load_detects_corruption(tmp_path):
    rep = RepSpec.massless(1)
    g = make_grid(4, 12, 24, 1.0, 2.0)
    psi = random_test_section(rep, g, seed=7)
    path = tmp_path / "psi.sect"
    save_section(path, psi)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF  # flip one byte in the body
    path.write_bytes(bytes(blob))
    with pytest.raises(GridError):
        load_section(path, RepSpec.from_spec)


def _header_file(tmp_path, header_bytes, body=b""):
    path = tmp_path / "bad.sect"
    path.write_bytes(b"SPSECT01" + struct.pack("<I", len(header_bytes))
                     + header_bytes + body)
    return path


@pytest.mark.parametrize("blob", [
    b"SPSECT01",                    # no header length
    b"SPSECT01\x10\x00",            # header length cut short
], ids=["no-length", "short-length"])
def test_load_rejects_truncated_file(tmp_path, blob):
    path = tmp_path / "short.sect"
    path.write_bytes(blob)
    with pytest.raises(GridError):
        load_section(path, RepSpec.from_spec)


@pytest.mark.parametrize("header", [
    b"{not json",
    b"\xff\xfe{}",
    b"[1, 2]",
], ids=["not-json", "not-utf8", "not-an-object"])
def test_load_rejects_unreadable_header(tmp_path, header):
    with pytest.raises(GridError):
        load_section(_header_file(tmp_path, header), RepSpec.from_spec)


@pytest.mark.parametrize("missing", ["sha256", "grid", "rep", "shape"])
def test_load_rejects_missing_header_key(tmp_path, missing):
    rep = RepSpec.massless(1)
    g = make_grid(4, 12, 24, 1.0, 2.0)
    good = tmp_path / "psi.sect"
    save_section(good, random_test_section(rep, g, seed=7))
    header = json.loads((tmp_path / "psi.sect.json").read_text())
    body = good.read_bytes()[-(g.node_count * rep.dim * 16):]
    del header[missing]
    path = _header_file(tmp_path, json.dumps(header).encode(), body)
    with pytest.raises(GridError):
        load_section(path, RepSpec.from_spec)
