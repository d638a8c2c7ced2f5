"""One derivative pass per covariant derivative: call counts of the grid
derivatives and the splitting diagnostics, and bit-exact agreement of
the shared-pass connection with a reference sum of single-axis
generator actions."""

import numpy as np
import pytest

import spinsplit.splitting as splitting_mod
from spinsplit.connections import (
    ConnectionKind,
    TangentField,
    apply_connection,
)
from spinsplit.grid import MomentumGrid, make_grid
from spinsplit.reps import RepSpec, _act_J, _act_K, random_test_section
from spinsplit.scalars import eps
from spinsplit.splitting import SplitOperators, so3_residual

from conftest import MASS

_DERIVATIVES = ("d_r", "d_theta", "d_phi", "gradient")


@pytest.fixture
def derivative_calls(monkeypatch):
    """Count the calls of each grid derivative."""
    calls = dict.fromkeys(_DERIVATIVES, 0)
    for name in _DERIVATIVES:
        orig = getattr(MomentumGrid, name)

        def counted(self, values, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(self, values)

        monkeypatch.setattr(MomentumGrid, name, counted)
    return calls


def _massive_grid():
    return make_grid(4, 12, 24, 1.0, 2.0, radial_map="sinh",
                     mass_scale=MASS)


def _half(r, m):
    return np.full_like(r, 0.5)


@pytest.mark.parametrize("kind", [
    ConnectionKind.boost(),
    ConnectionKind.rotation(),
    ConnectionKind.flat_massive(),
    ConnectionKind.affine(_half),
], ids=["boost", "rotation", "flat-massive", "affine"])
def test_one_derivative_pass_per_covariant_derivative(kind,
                                                      derivative_calls):
    rep = RepSpec.massive(MASS, 1)
    psi = random_test_section(rep, _massive_grid(), seed=3)
    apply_connection(kind, TangentField.named("e_phi"), psi)
    assert derivative_calls == {"d_r": 1, "d_theta": 1, "d_phi": 1,
                                "gradient": 0}


def test_so3_residual_reuses_orbital_actions(monkeypatch):
    calls = []
    orig = splitting_mod.apply_connection

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(splitting_mod, "apply_connection", counted)
    rep = RepSpec.massive(MASS, 1)
    grid = _massive_grid()
    ops = SplitOperators(rep, grid, ConnectionKind.flat_massive())
    so3_residual(ops, random_test_section(rep, grid, seed=3))
    # three L_c psi, then L_a (L_b psi) and L_b (L_a psi) for three pairs
    assert len(calls) == 9


def _reference(kind, rep, grid, xv, v):
    """D_X v as a sum of single-axis generator actions, each taking its
    own derivatives of v."""
    omega = grid.omega(rep.mass)[..., None]
    xk = (xv[0] * grid.kx + xv[1] * grid.ky + xv[2] * grid.kz)[..., None]
    acc = np.zeros_like(v)
    for a in range(3):
        acc += xv[a][..., None] * _act_K(rep, grid, a, v)
    boost = (-1j / omega) * acc - xk / (2.0 * omega**2) * v
    xkhat = sum(xv[a] * grid.khat[a] for a in range(3))[..., None]
    acc = np.zeros_like(v)
    for c in range(3):
        w = sum(eps(c, a, b) * xv[a] * grid.khat[b]
                for a in range(3) for b in range(3) if eps(c, a, b))
        acc += (w / grid.kmag)[..., None] * _act_J(rep, grid, c, v)
    if rep.kind == "massless":
        radial = 1j * grid.kmag[..., None] * grid.d_r(v)
    else:
        radial = np.zeros_like(v)
        for b in range(3):
            radial += grid.khat[b][..., None] * _act_K(rep, grid, b, v)
    acc += xkhat / omega * radial
    rotation = -1j * acc - xk / (2.0 * omega**2) * v
    if kind.variant == "boost":
        return boost
    if kind.variant == "rotation":
        return rotation
    f = kind.weight(grid.r, rep.mass)[:, None, None, None]
    return f * boost + (1.0 - f) * rotation


_CASES = [
    (RepSpec.massive(MASS, s), kind)
    for s in (0, 1)
    for kind in (ConnectionKind.boost(), ConnectionKind.rotation(),
                 ConnectionKind.flat_massive(), ConnectionKind.affine(_half))
] + [
    (RepSpec.massless(h), kind)
    for h in (-1, 1)
    for kind in (ConnectionKind.boost(), ConnectionKind.rotation(),
                 ConnectionKind.affine(_half))
]


@pytest.mark.parametrize("rep,kind", _CASES,
                         ids=[f"{r!r}-{k.variant}" for r, k in _CASES])
def test_shared_pass_matches_single_axis_actions_exactly(rep, kind):
    grid = (_massive_grid() if rep.kind == "massive"
            else make_grid(4, 12, 24, 1.0, 2.0))
    psi = random_test_section(rep, grid, seed=5)
    xv = np.random.default_rng(5).normal(size=(3,) + grid.shape)
    out = apply_connection(kind, TangentField.from_array(xv), psi)
    assert np.array_equal(out.values,
                          _reference(kind, rep, grid, xv, psi.values))
