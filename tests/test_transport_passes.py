"""One sparse connection form per edge batch, evaluated at every RK4 node
at once, and one transported vector per Chern link: evaluation counts of
the integrator, agreement of vector transport with matrix transport and of
the sparse form application with the dense product, and bit-exact
agreement of the form and of ``holonomy`` with the einsum form and the
three-evaluation RK4 in ``reference.py``."""

import numpy as np
import pytest

import spinsplit.connections as connections_mod
from spinsplit.connections import (
    ConnectionKind,
    HolonomyLoop,
    _edge_transport_batch,
    _form_matrix,
    chern_number,
    holonomy,
)
from spinsplit.reps import RepSpec

import reference
from conftest import MASS, bump_connection_form


def _half(r, m):
    return np.full_like(r, 0.5)


KINDS = {
    "boost": ConnectionKind.boost(),
    "rotation": ConnectionKind.rotation(),
    "affine-half": ConnectionKind.affine(_half),
}


# -- evaluation counts -------------------------------------------------------------


@pytest.mark.parametrize("n_steps", [1, 3, 8])
def test_edge_batch_evaluates_form_once_at_every_node(n_steps, monkeypatch):
    forms, nodes = [], []
    orig_form = connections_mod._form_matrix
    orig_transport = connections_mod._transport

    def counted_form(rep, kind, r0, khat, vel):
        forms.append(khat)
        return orig_form(rep, kind, r0, khat, vel)

    def traced_transport(apply_form, u, n):
        def traced(j, w):
            nodes.append(j)
            return apply_form(j, w)
        return orig_transport(traced, u, n)

    monkeypatch.setattr(connections_mod, "_form_matrix", counted_form)
    monkeypatch.setattr(connections_mod, "_transport", traced_transport)
    _edge_transport_batch(RepSpec.massless(1), ConnectionKind.rotation(),
                          1.5, np.array([0.4, 1.2]), 0.3,
                          np.array([0.6, 1.5]), 0.7, n_steps=n_steps)
    (khat,) = forms
    assert khat.shape == (3, 2 * n_steps + 1, 2)
    # the 2n + 1 nodes of an edge are distinct points
    assert len({tuple(p) for p in khat[:, :, 0].T}) == 2 * n_steps + 1
    # step i takes its start, midpoint (twice) and end node
    assert nodes == [j for i in range(n_steps)
                     for j in (2 * i, 2 * i + 1, 2 * i + 1, 2 * i + 2)]


def test_chern_form_calls(monkeypatch):
    calls = []
    orig = connections_mod._form_matrix

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(connections_mod, "_form_matrix", counted)
    chern_number(RepSpec.massless(1), ConnectionKind.rotation(),
                 n_theta=12, n_phi=24)
    # two edge batches (theta and phi edges), one form evaluation each
    # over all 2 * 3 + 1 nodes of all their edges
    assert len(calls) == 2


# -- vector transport of the Chern links -------------------------------------------


@pytest.mark.parametrize("perturbed", [False, True],
                         ids=["plain", "perturbed"])
@pytest.mark.parametrize("kind", list(KINDS.values()), ids=list(KINDS))
@pytest.mark.parametrize("h", [-1, 1])
def test_vector_links_match_matrix_links(monkeypatch, h, kind, perturbed):
    if perturbed:
        bump_connection_form(monkeypatch)
    rep = RepSpec.massless(h)
    n_theta, n_phi = 12, 24
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    phi = np.arange(n_phi) * (2 * np.pi / n_phi)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    _, e_th, e_ph = connections_mod._sphere_frame(th, ph)
    v = np.moveaxis((e_th + 1j * h * e_ph) / np.sqrt(2.0), 0, -1)
    edges = (th[:-1], ph[:-1], th[1:], ph[1:])
    mats = _edge_transport_batch(rep, kind, 1.5, *edges)
    vecs = _edge_transport_batch(rep, kind, 1.5, *edges,
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


def _dense(entries, shape, dim):
    out = np.zeros(shape + (dim, dim), dtype=np.complex128)
    for b, c, field in entries:
        out[..., b, c] = field
    return out


@pytest.mark.parametrize("kind", list(KINDS.values()), ids=list(KINDS))
@pytest.mark.parametrize("rep", list(REPS.values()), ids=list(REPS))
def test_form_matrix_matches_einsum(rep, kind):
    rng = np.random.default_rng(7)
    th = rng.uniform(0.1, np.pi - 0.1, (5, 7))
    ph = rng.uniform(0.0, 2 * np.pi, (5, 7))
    khat = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                     np.cos(th)])
    _, e_th, e_ph = connections_mod._sphere_frame(th, ph)
    vel = (rng.normal(size=(5, 7)) * e_th + rng.normal(size=(5, 7)) * e_ph)
    entries = _form_matrix(rep, kind, 1.5, khat, vel)
    positions = [(b, c) for b, c, _ in entries]
    assert positions == sorted(set(positions))
    assert all(field.shape == (5, 7) for _, _, field in entries)
    # by value: the entries leave out the zeros, whose sign the dense
    # product does not fix
    assert np.array_equal(_dense(entries, (5, 7), rep.dim),
                          reference.connection_form(rep, kind, 1.5, khat,
                                                    vel))


@pytest.mark.parametrize("n_steps", [64, 96])
@pytest.mark.parametrize("kind", [ConnectionKind.boost(),
                                  ConnectionKind.flat_massive()],
                         ids=["boost", "flat"])
def test_holonomy_matches_three_evaluation_rk4(kind, n_steps, monkeypatch):
    rep = RepSpec.massive(MASS, 1)
    loop = HolonomyLoop(1.5, np.pi / 2 - 0.2, np.pi / 2 + 0.05, 0.3, 0.55)
    u = holonomy(rep, kind, loop, n_steps=n_steps)
    monkeypatch.setattr(connections_mod, "_edge_transport_batch",
                        reference.rk4_edges)
    assert u.tobytes() == holonomy(rep, kind, loop, n_steps=n_steps).tobytes()


@pytest.mark.parametrize("kind", list(KINDS.values()), ids=list(KINDS))
@pytest.mark.parametrize("rep", [REPS["massive-s1"], REPS["massless-h+1"]],
                         ids=["massive-s1", "massless-h+1"])
def test_sparse_transport_matches_dense_product(rep, kind):
    """Applying the form through its entries rounds like the dense batched
    product up to the last bits."""
    rng = np.random.default_rng(11)
    th_a = rng.uniform(0.2, np.pi - 0.2, 40)
    ph_a = rng.uniform(0.0, 2 * np.pi, 40)
    th_b = th_a + rng.uniform(-0.1, 0.1, 40)
    ph_b = ph_a + rng.uniform(-0.1, 0.1, 40)
    got = _edge_transport_batch(rep, kind, 1.5, th_a, ph_a, th_b, ph_b,
                                n_steps=8)
    ref = reference.rk4_edges(rep, kind, 1.5, th_a, ph_a, th_b, ph_b,
                              n_steps=8, dense=True)
    assert np.max(np.abs(got - ref)) < 1e-15
