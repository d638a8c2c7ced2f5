"""Shared fixtures: cached grids and representations.

Grids are expensive to build, so the commonly used resolutions are
constructed once per session and shared read-only across tests.
"""

import numpy as np
import pytest

import spinsplit.connections as connections
import spinsplit.splitting as splitting
from spinsplit.connections import TangentField
from spinsplit.grid import MomentumGrid
from spinsplit.reps import RepSpec, random_test_section

MASS = 1.3

# One line per acceptance criterion, echoed in the terminal summary so
# the verdicts are visible regardless of output capturing.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid_small_massive():
    return MomentumGrid(4, 12, 24, 1.0, 2.0, mass=MASS)


@pytest.fixture(scope="session")
def grid_mid_massive():
    return MomentumGrid(6, 24, 48, 1.0, 2.0, mass=MASS)


@pytest.fixture(scope="session")
def grid_small_massless():
    return MomentumGrid(4, 12, 24, 1.0, 2.0)


@pytest.fixture(scope="session")
def grid_mid_massless():
    return MomentumGrid(6, 24, 48, 1.0, 2.0)


@pytest.fixture(scope="session")
def rep_massive1():
    return RepSpec.massive(MASS, 1)


@pytest.fixture(scope="session")
def rep_massive0():
    return RepSpec.massive(MASS, 0)


@pytest.fixture(scope="session")
def rep_massless_plus():
    return RepSpec.massless(1)


def smooth_scalar(grid):
    """A smooth, pole-regular scalar test function on the grid."""
    st = np.sin(grid.theta)[None, :, None] + np.zeros(grid.shape)
    return np.exp(-((grid.kmag - 1.5) ** 2)) * st**2


def bump_connection_form(monkeypatch):
    """Add the smooth endomorphism-valued bump
    0.2 sin(theta) cos(phi) * i[[0, 1, 0], [-1, 0, 0], [0, 0, 0]] to the
    connection form that the transport integrator applies (3-dim fibers),
    as two more fiber entries of ``connections._form_matrix``."""
    form_matrix = connections._form_matrix

    def bumped(rep, kind, r0, khat, vel):
        bump = 0.2j * khat[0]  # khat_x = sin(theta) cos(phi)
        return (form_matrix(rep, kind, r0, khat, vel)
                + [(0, 1, bump), (1, 0, -bump)])

    monkeypatch.setattr(connections, "_form_matrix", bumped)


def break_rotational_symmetry(monkeypatch, grid, strength=0.5):
    """Mutation control: add the constant field ``strength`` e_3 to every
    rotational field V_a = e_a x k that L acts along, as array fields on
    ``grid``.  This destroys rotational symmetry, so the vector-operator
    diagnostics must fail."""
    extra = TangentField.constant((0.0, 0.0, 1.0)).values(grid) * strength
    monkeypatch.setattr(splitting, "_ROTATIONAL", tuple(
        TangentField.from_array(v.values(grid) + extra)
        for v in splitting._ROTATIONAL))


def section(rep, grid, seed=3, **kw):
    return random_test_section(rep, grid, seed=seed, **kw)
