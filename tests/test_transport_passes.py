"""One connection form per RK4 node and one transported vector per Chern
link: evaluation counts of the integrator, agreement of vector transport
with matrix transport, and bit-exact agreement of the form and of
``holonomy`` with reference implementations kept here."""

import numpy as np
import pytest

import spinsplit.connections as connections_mod
from spinsplit.connections import (
    ConnectionKind,
    HolonomyLoop,
    _edge_transport_batch,
    _form_matrix,
    _transport,
    chern_number,
    holonomy,
)
from spinsplit.reps import RepSpec

from conftest import MASS


def _half(r, m):
    return np.full_like(r, 0.5)


KINDS = {
    "boost": ConnectionKind.boost(),
    "rotation": ConnectionKind.rotation(),
    "affine-half": ConnectionKind.affine(_half),
}


# -- evaluation counts -------------------------------------------------------------


@pytest.mark.parametrize("n_steps", [1, 3, 8])
def test_transport_evaluates_form_once_per_node(n_steps):
    times = []

    def a_of(t):
        times.append(t)
        return np.zeros((1, 1), dtype=np.complex128)

    _transport(a_of, np.eye(1, dtype=np.complex128), n_steps)
    assert len(times) == 2 * n_steps + 1
    assert len(set(times)) == 2 * n_steps + 1


def test_chern_form_calls(monkeypatch):
    calls = []
    orig = connections_mod._form_matrix

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(connections_mod, "_form_matrix", counted)
    chern_number(RepSpec.massless(1), ConnectionKind.rotation(),
                 n_theta=12, n_phi=24)
    # two edge batches (theta and phi edges), 2 * 3 + 1 forms each
    assert len(calls) == 14


# -- vector transport of the Chern links -------------------------------------------


def _bump(th, ph, vel):
    mat = 1j * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    scale = 0.2 * np.sin(th) * np.cos(ph)
    return np.asarray(scale)[..., None, None] * mat


@pytest.mark.parametrize("perturbation", [None, _bump],
                         ids=["plain", "perturbed"])
@pytest.mark.parametrize("kind", list(KINDS.values()), ids=list(KINDS))
@pytest.mark.parametrize("h", [-1, 1])
def test_vector_links_match_matrix_links(h, kind, perturbation):
    rep = RepSpec.massless(h)
    n_theta, n_phi = 12, 24
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    phi = np.arange(n_phi) * (2 * np.pi / n_phi)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    e_th, e_ph = connections_mod._sphere_frame(th, ph)
    v = np.moveaxis((e_th + 1j * h * e_ph) / np.sqrt(2.0), 0, -1)
    edges = (th[:-1], ph[:-1], th[1:], ph[1:])
    mats = _edge_transport_batch(rep, kind, 1.5, *edges,
                                 perturbation=perturbation)
    vecs = _edge_transport_batch(rep, kind, 1.5, *edges,
                                 perturbation=perturbation,
                                 start=v[:-1, ..., None])
    assert vecs.shape == (n_theta - 1, n_phi, 3, 1)
    ov_mat = np.einsum("...c,...cd,...d->...", np.conj(v[1:]), mats,
                       v[:-1])
    ov_vec = np.sum(np.conj(v[1:]) * vecs[..., 0], axis=-1)
    assert np.max(np.abs(ov_vec - ov_mat)) < 1e-13


# -- bit-exact form and integrator ---------------------------------------------------


REPS = {
    "massive-s0": RepSpec.massive(MASS, 0),
    "massive-s1": RepSpec.massive(MASS, 1),
    "massless-h-1": RepSpec.massless(-1),
    "massless-h0": RepSpec.massless(0),
    "massless-h+1": RepSpec.massless(1),
}


def _einsum_form(rep, kind, r0, khat, vel):
    cross = np.cross(vel, khat, axis=0)
    s_dot = np.einsum("a...,abc->...bc", cross, rep.spin_mats)
    if rep.kind == "massless":
        coef = -1j / r0
    else:
        m = rep.mass
        omega = np.sqrt(m**2 + r0**2)
        f = float(kind.weight(np.array([r0]), m)[0])
        coef = (f * (-1j * r0 / (omega * (omega + m)))
                + (1.0 - f) * (-1j / r0))
    return coef * s_dot


@pytest.mark.parametrize("kind", list(KINDS.values()), ids=list(KINDS))
@pytest.mark.parametrize("rep", list(REPS.values()), ids=list(REPS))
def test_form_matrix_matches_einsum(rep, kind):
    rng = np.random.default_rng(7)
    th = rng.uniform(0.1, np.pi - 0.1, (5, 7))
    ph = rng.uniform(0.0, 2 * np.pi, (5, 7))
    khat = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                     np.cos(th)])
    e_th, e_ph = connections_mod._sphere_frame(th, ph)
    vel = (rng.normal(size=(5, 7)) * e_th + rng.normal(size=(5, 7)) * e_ph)
    got = _form_matrix(rep, kind, 1.5, khat, vel)
    assert got.shape == (5, 7, rep.dim, rep.dim)
    assert np.array_equal(got, _einsum_form(rep, kind, 1.5, khat, vel))


def _three_evaluation_rk4(a_of, u, n_steps):
    h = 1.0 / n_steps
    for i in range(n_steps):
        t = i * h
        a_mid = a_of(t + h / 2)
        k1 = -a_of(t) @ u
        k2 = -a_mid @ (u + h / 2 * k1)
        k3 = -a_mid @ (u + h / 2 * k2)
        k4 = -a_of(t + h) @ (u + h * k3)
        u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


@pytest.mark.parametrize("n_steps", [64, 96])
@pytest.mark.parametrize("kind", [ConnectionKind.boost(),
                                  ConnectionKind.flat_massive()],
                         ids=["boost", "flat"])
def test_holonomy_matches_three_evaluation_rk4(kind, n_steps, monkeypatch):
    rep = RepSpec.massive(MASS, 1)
    loop = HolonomyLoop(1.5, np.pi / 2 - 0.2, np.pi / 2 + 0.05, 0.3, 0.55)
    u = holonomy(rep, kind, loop, n_steps=n_steps)
    monkeypatch.setattr(connections_mod, "_transport",
                        _three_evaluation_rk4)
    assert np.array_equal(u, holonomy(rep, kind, loop, n_steps=n_steps))
