"""One derivative pass per section for every field applied to it: call
counts of the grid derivatives for one field, for a batch of fields, for
the curvature, cross-commutator and splitting diagnostics and for each
bracket family of the commutation-relation catalog, and bit-exact
agreement of the shared-pass connection, one field or a batch, with a
reference sum of single-axis generator actions, and of
``algebra_residual`` with its one-action-per-pair loop."""

import numpy as np
import pytest

from spinsplit.connections import (
    ConnectionKind,
    TangentField,
    apply_connection,
    apply_connections,
    cross_commutator_check,
    curvature_commutator,
)
import spinsplit.splitting as splitting
from spinsplit.grid import MomentumGrid, Section, make_grid
from spinsplit.reps import (
    RepSpec,
    _act,
    _act_J,
    _act_K,
    _derivatives,
    algebra_residual,
    random_test_section,
    relation_ids,
)
from spinsplit.scalars import eps
from spinsplit.splitting import (
    NWOperator,
    SplitOperators,
    defect_identity_residual,
    jperp_so3_residual,
    so3_residual,
    vector_op_residual,
)

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


def test_three_field_batch_takes_one_pass(derivative_calls):
    rep = RepSpec.massive(MASS, 1)
    psi = random_test_section(rep, _massive_grid(), seed=3)
    fields = [TangentField.named(n) for n in ("e_k", "e_theta", "e_phi")]
    apply_connections(ConnectionKind.flat_massive(), fields, psi)
    assert derivative_calls == {"d_r": 1, "d_theta": 1, "d_phi": 1,
                                "gradient": 0}
    derivative_calls.update(dict.fromkeys(_DERIVATIVES, 0))
    ops = SplitOperators(rep, psi.grid, ConnectionKind.flat_massive())
    ops.S_axes(range(3), psi)  # J and L share the pass
    assert derivative_calls == {"d_r": 1, "d_theta": 1, "d_phi": 1,
                                "gradient": 0}


# (d_r, d_theta, d_phi) calls per diagnostic; when every field took its
# own pass they were
#   so3_residual           9, 9, 9
#   vector_op_residual L  12, 24, 24
#   vector_op_residual S  12, 36, 36
#   curvature_commutator   5, 5, 5
#   cross_commutator       9, 9, 9 (five passes over psi)
# and vector_op_residual took 10, 13, 13 with one X_a (J_b psi) call per
# pair.  Now: one pass over psi, then per b an angular pass over psi for
# J_b psi, one pass over J_b psi for its three X_a, and an angular pass
# over each X_a psi.
_PASS_TOTALS = {
    "so3": (4, 4, 4),
    "vector-op-L": (4, 16, 16),
    "vector-op-S": (4, 16, 16),
    "curvature": (3, 3, 3),
    "cross-commutator": (5, 5, 5),
}


@pytest.mark.parametrize("kind", [ConnectionKind.flat_massive(),
                                  ConnectionKind.boost()],
                         ids=["flat-massive", "boost"])
@pytest.mark.parametrize("diagnostic", list(_PASS_TOTALS))
def test_diagnostic_pass_totals(diagnostic, kind, derivative_calls):
    rep = RepSpec.massive(MASS, 1)
    grid = _massive_grid()
    psi = random_test_section(rep, grid, seed=3)
    ops = SplitOperators(rep, grid, kind)
    if diagnostic == "so3":
        so3_residual(ops, psi)
    elif diagnostic == "vector-op-L":
        vector_op_residual(ops, psi)
    elif diagnostic == "vector-op-S":
        vector_op_residual(ops, psi, "S")
    elif diagnostic == "cross-commutator":
        cross_commutator_check(psi)
    else:
        curvature_commutator(kind, TangentField.named("e_theta"),
                             TangentField.named("e_phi"), psi)
    d_r, d_theta, d_phi = _PASS_TOTALS[diagnostic]
    assert derivative_calls == {"d_r": d_r, "d_theta": d_theta,
                                "d_phi": d_phi, "gradient": 0}


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


@pytest.mark.parametrize("rep,kind", _CASES,
                         ids=[f"{r!r}-{k.variant}" for r, k in _CASES])
def test_batched_fields_match_one_field_calls_exactly(rep, kind):
    grid = (_massive_grid() if rep.kind == "massive"
            else make_grid(4, 12, 24, 1.0, 2.0))
    psi = random_test_section(rep, grid, seed=7)
    rng = np.random.default_rng(7)
    fields = [TangentField.from_array(rng.normal(size=(3,) + grid.shape))
              for _ in range(2)]
    fields += [TangentField.named("e_theta"), TangentField.rotational(2)]
    batch = apply_connections(kind, fields, psi)
    assert len(batch) == len(fields)
    for x, out in zip(fields, batch):
        assert np.array_equal(out.values,
                              apply_connection(kind, x, psi).values)
        assert np.array_equal(
            out.values,
            _reference(kind, rep, grid, x.values(grid), psi.values))


# -- splitting operators over several axes ------------------------------------------


def _split_cases():
    return [(RepSpec.massive(MASS, s), kind)
            for s in (0, 1)
            for kind in (ConnectionKind.flat_massive(),
                         ConnectionKind.boost())] + [
        (RepSpec.massless(1), ConnectionKind.boost()),
        (RepSpec.massless(-1), ConnectionKind.rotation())]


def _split_setup(rep, kind, symmetry_breaking=0.0):
    grid = (_massive_grid() if rep.kind == "massive"
            else make_grid(4, 12, 24, 1.0, 2.0))
    ops = SplitOperators(rep, grid, kind,
                         symmetry_breaking=symmetry_breaking)
    return ops, random_test_section(rep, grid, seed=11)


@pytest.mark.parametrize("rep,kind", _split_cases(),
                         ids=lambda v: repr(v))
def test_split_axes_match_single_axis_calls_exactly(rep, kind):
    ops, psi = _split_setup(rep, kind)
    axes = (2, 0, 1)
    for batch, single in ((ops.L_axes, ops.L), (ops.J_axes, ops.J)):
        for a, out in zip(axes, batch(axes, psi)):
            assert np.array_equal(out.values, single(a, psi).values)
    for a, out in zip(axes, ops.S_axes(axes, psi)):
        ref = ops.J(a, psi) - ops.L(a, psi)
        assert np.array_equal(out.values, ref.values)


def _so3_reference(act, psi):
    nrm = psi.norm()
    x_psi = [act(c, psi) for c in range(3)]
    worst = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            out = act(a, x_psi[b]) - act(b, x_psi[a])
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    out = out - x_psi[c] * (1j * e)
            worst = max(worst, out.norm() / nrm)
    return worst


def _vector_op_reference(ops, act, psi):
    nrm = psi.norm()
    x_psi = [act(c, psi) for c in range(3)]
    j_psi = [ops.J(b, psi) for b in range(3)]
    worst = 0.0
    for a in range(3):
        for b in range(3):
            out = act(a, j_psi[b]) - ops.J(b, x_psi[a])
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    out = out - x_psi[c] * (1j * e)
            worst = max(worst, out.norm() / nrm)
    return worst


@pytest.mark.parametrize("breaking", [0.0, 0.5],
                         ids=["symmetric", "broken"])
@pytest.mark.parametrize("rep,kind", _split_cases(),
                         ids=lambda v: repr(v))
def test_batched_diagnostics_match_one_field_loops_exactly(rep, kind,
                                                           breaking):
    """The residuals equal, bit for bit, the one-field loops each
    diagnostic ran before its fields were batched; with the rotational
    symmetry broken they are of order one, so the comparison covers a
    failing diagnostic as well as a passing one."""
    ops, psi = _split_setup(rep, kind, breaking)
    if breaking:
        assert vector_op_residual(ops, psi) > 0.1
    for which, act in (("L", ops.L), ("S", ops.S)):
        assert so3_residual(ops, psi, which) == _so3_reference(act, psi)
        assert vector_op_residual(ops, psi, which) \
            == _vector_op_reference(ops, act, psi)
    nrm = psi.norm()
    l_psi = [ops.L(c, psi) for c in range(3)]
    worst = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            out = ops.L(a, l_psi[b]) - ops.L(b, l_psi[a])
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    out = out - l_psi[c] * (1j * e)
            out = out + curvature_commutator(kind, ops.field(a),
                                             ops.field(b), psi)
            worst = max(worst, out.norm() / nrm)
    assert defect_identity_residual(ops, psi) == worst
    if rep.kind == "massless":
        worst = 0.0
        for a in range(3):
            for b in range(a + 1, 3):
                out = (ops.j_perp(a, ops.j_perp(b, psi))
                       - ops.j_perp(b, ops.j_perp(a, psi)))
                for c in range(3):
                    e = eps(a, b, c)
                    if e:
                        out = out - (ops.j_perp(c, psi)
                                     - ops.j_parallel(c, psi)) * (1j * e)
                worst = max(worst, out.norm() / nrm)
        assert jperp_so3_residual(ops, psi) == worst


def test_jperp_residual_takes_one_helicity_action_per_section(monkeypatch):
    """jperp_so3_residual applies the helicity operator chi once to psi
    and once to each Jperp_c psi (4 calls, down from 7 when every
    parallel target took its own), and its value equals, bit for bit,
    the residual with a fresh j_parallel per target."""
    rep = RepSpec.massless(1)
    grid = make_grid(4, 12, 24, 1.0, 2.0)
    psi = random_test_section(rep, grid, seed=3, polar_damping=4)
    ops = SplitOperators(rep, grid, ConnectionKind.boost())
    nrm = psi.norm()
    worst = 0.0
    for res in splitting._so3_failures(
            ops.j_perp_axes, psi, lambda out: out.norm() / nrm,
            lambda c, perp_c: perp_c - ops.j_parallel(c, psi)):
        worst = max(worst, res)
    calls = []
    orig = splitting._act_chi

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(splitting, "_act_chi", counted)
    assert jperp_so3_residual(ops, psi) == worst
    assert len(calls) == 4


@pytest.mark.parametrize("mode", ["affine", "closed-form"])
@pytest.mark.parametrize("spin", [0, 1])
def test_position_operator_axes_match_single_axis_calls_exactly(spin,
                                                                mode):
    rep = RepSpec.massive(MASS, spin)
    grid = _massive_grid()
    psi = random_test_section(rep, grid, seed=13)
    q = NWOperator(rep, grid, mode)
    axes = (1, 2, 0)
    for a, out in zip(axes, q.apply_axes(axes, psi)):
        assert np.array_equal(out.values, q.apply(a, psi).values)


# -- the commutation-relation catalog -------------------------------------------


def _one_action_per_pair_residual(rep, grid, relation_id, psi):
    """algebra_residual as it was when each index pair built its own
    second-generator action B_b v and took a pass over it."""
    v = psi.values
    nrm = psi.norm()

    def one_pass(w, tags):
        if not {"J", "K"} & set(tags):
            return None
        return _derivatives(grid, w, radial="K" in tags)

    def act(tag, axis, w, der=None):
        return _act(rep, grid, tag, axis, w, der)

    worst = 0.0
    t1, t2 = relation_id[0], relation_id[1]
    vec = {"J", "K", "P"}
    axes1 = range(3) if t1 in vec else (None,)
    axes2 = range(3) if t2 in vec else (None,)
    v_der = one_pass(v, relation_id)
    for a in axes1:
        partners = [b for b in axes2
                    if relation_id not in ("JJ", "KK", "PP") or b > a]
        if not partners:
            continue
        u = act(t1, a, v, v_der)
        u_der = one_pass(u, t2)
        for b in partners:
            w = act(t2, b, v, v_der)
            lhs = act(t1, a, w, one_pass(w, t1)) - act(t2, b, u, u_der)
            if relation_id in ("JJ", "JK"):
                target = ("J", "K")[relation_id == "JK"]
                for c in range(3):
                    e = eps(a, b, c)
                    if e:
                        lhs = lhs - 1j * e * act(target, c, v, v_der)
            elif relation_id == "KK":
                for c in range(3):
                    e = eps(a, b, c)
                    if e:
                        lhs = lhs + 1j * e * act("J", c, v, v_der)
            elif relation_id == "JP":
                for c in range(3):
                    e = eps(a, b, c)
                    if e:
                        lhs = lhs - 1j * e * act("P", c, v)
            elif relation_id == "KP":
                if a == b:
                    lhs = lhs - 1j * act("H", None, v)
            elif relation_id == "KH":
                lhs = lhs - 1j * act("P", a, v)
            worst = max(worst, Section(rep, grid, lhs).norm() / nrm)
    return worst


_ALGEBRA_REPS = [RepSpec.massive(MASS, 0), RepSpec.massive(MASS, 1),
                 RepSpec.massless(-1), RepSpec.massless(1)]


@pytest.mark.parametrize("relation_id", relation_ids())
@pytest.mark.parametrize("rep", _ALGEBRA_REPS, ids=repr)
def test_algebra_residual_matches_one_action_per_pair(rep, relation_id):
    grid = (_massive_grid() if rep.kind == "massive"
            else make_grid(4, 12, 24, 1.0, 2.0))
    psi = random_test_section(rep, grid, seed=9)
    assert algebra_residual(rep, grid, relation_id, psi) \
        == _one_action_per_pair_residual(rep, grid, relation_id, psi)


# (d_r, d_theta, d_phi) calls per bracket family: one pass over v and one
# over each first-level action.  When each index pair took its own pass
# over B_b v they were JJ 0, 6, 6; JK 4, 13, 13; KK 6, 6, 6; JP 0, 10, 10;
# KP 10, 10, 10; KH 4, 4, 4; JH 0, 4, 4.
_ALGEBRA_PASSES = {
    "JJ": (0, 4, 4), "JK": (4, 7, 7), "KK": (4, 4, 4), "JP": (0, 4, 4),
    "KP": (4, 4, 4), "KH": (2, 2, 2), "JH": (0, 2, 2), "PP": (0, 0, 0),
    "PH": (0, 0, 0), "HH": (0, 0, 0),
}


@pytest.mark.parametrize("relation_id", relation_ids())
@pytest.mark.parametrize("rep", [RepSpec.massive(MASS, 1),
                                 RepSpec.massless(1)], ids=repr)
def test_algebra_residual_pass_totals(rep, relation_id, derivative_calls):
    grid = (_massive_grid() if rep.kind == "massive"
            else make_grid(4, 12, 24, 1.0, 2.0))
    psi = random_test_section(rep, grid, seed=3)
    algebra_residual(rep, grid, relation_id, psi)
    d_r, d_theta, d_phi = _ALGEBRA_PASSES[relation_id]
    assert derivative_calls == {"d_r": d_r, "d_theta": d_theta,
                                "d_phi": d_phi, "gradient": 0}
