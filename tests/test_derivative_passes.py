"""One derivative pass per section for every field applied to it: pass
counts of the grid derivatives for one field, for a batch of fields, for
the curvature, cross-commutator and splitting diagnostics, for each
bracket family of the commutation-relation catalog and for all ten in
one call; bit-exact agreement of the batched splitting diagnostics with
their one-field loops and of ``algebra_residual`` with its
one-action-per-pair loop, both in ``reference.py``."""

from fractions import Fraction
from functools import partial

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
from spinsplit.grid import MomentumGrid, Section
import spinsplit.reps as reps
from spinsplit.reps import (
    RepSpec,
    algebra_residual,
    algebra_residuals,
    random_test_section,
    relation_ids,
)
from spinsplit.splitting import (
    SplitOperators,
    defect_identity_residual,
    jperp_so3_residual,
    so3_residual,
    vector_op_residual,
)

import reference
from conftest import MASS, break_rotational_symmetry

_DERIVATIVES = ("d_r", "d_theta", "d_phi", "gradient")


@pytest.fixture
def derivative_calls(monkeypatch):
    """Count the passes of each grid derivative in whole-section
    equivalents: a call that differentiates k radial shells counts
    k / N_r, so a pass taken one shell at a time counts 1, as a pass over
    the whole section does."""
    calls = dict.fromkeys(_DERIVATIVES, 0)
    for name in _DERIVATIVES:
        orig = getattr(MomentumGrid, name)

        def counted(self, values, *args, _name=name, _orig=orig):
            out = _orig(self, values, *args)
            calls[_name] += (1 if _name == "gradient"
                             else Fraction(out.shape[0], self.n_r))
            return out

        monkeypatch.setattr(MomentumGrid, name, counted)
    return calls


def _massive_grid():
    return MomentumGrid(4, 12, 24, 1.0, 2.0, mass=MASS)


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
    ops = SplitOperators(ConnectionKind.flat_massive())
    ops.S_axes(range(3), psi)  # J and L share the pass
    assert derivative_calls == {"d_r": 1, "d_theta": 1, "d_phi": 1,
                                "gradient": 0}


# (d_r, d_theta, d_phi) passes per diagnostic; when every field took its
# own pass they were
#   so3_residual           9, 9, 9
#   vector_op_residual L  12, 24, 24
#   vector_op_residual S  12, 36, 36
#   curvature_commutator   5, 5, 5
#   cross_commutator       9, 9, 9 (five passes over psi)
# and vector_op_residual took 10, 13, 13 with one X_a (J_b psi) call per
# pair, then 4, 16, 16 per part (8, 32, 32 for both) with one pass per
# section but each part on its own actions and an angular pass over each
# X_a psi for each b.  Now one pass over psi gives J_c psi and L_c psi,
# one pass over each J_b psi gives the L and the S half, and one angular
# pass over each X_a psi serves every b: 4, 7, 7 for one part and
# 4, 10, 10 for both.  The so(3) check and both vector-operator parts in
# one call share the pass over psi, and the pass over each L_c psi gives
# L_a (L_c psi) and J_b (L_c psi): 7, 10, 10, where the two calls took
# 8, 14, 14.  The defect identity takes the so(3) passes and the three
# curvature commutators: 4 + 3 * 3.
_PASS_TOTALS = {
    "so3": (4, 4, 4),
    "vector-op-L": (4, 7, 7),
    "vector-op-S": (4, 7, 7),
    "vector-op": (4, 10, 10),
    "so3+vector-op": (7, 10, 10),
    "defect": (13, 13, 13),
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
    ops = SplitOperators(kind)
    if diagnostic == "so3":
        so3_residual(ops, psi)
    elif diagnostic == "vector-op-L":
        splitting._vector_op_residuals(ops._shell, psi, ("L",))
    elif diagnostic == "vector-op-S":
        splitting._vector_op_residuals(ops._shell, psi, ("S",))
    elif diagnostic == "vector-op":
        splitting._vector_op_residuals(ops._shell, psi, ("L", "S"))
    elif diagnostic == "so3+vector-op":
        vector_op_residual(ops, psi)
    elif diagnostic == "defect":
        defect_identity_residual(ops, psi)
    elif diagnostic == "cross-commutator":
        cross_commutator_check(psi)
    else:
        curvature_commutator(kind, TangentField.named("e_theta"),
                             TangentField.named("e_phi"), psi)
    d_r, d_theta, d_phi = _PASS_TOTALS[diagnostic]
    assert derivative_calls == {"d_r": d_r, "d_theta": d_theta,
                                "d_phi": d_phi, "gradient": 0}


# -- splitting operators over several axes ------------------------------------------


def _split_cases():
    return [(RepSpec.massive(MASS, s), kind)
            for s in (0, 1)
            for kind in (ConnectionKind.flat_massive(),
                         ConnectionKind.boost())] + [
        (RepSpec.massless(1), ConnectionKind.boost()),
        (RepSpec.massless(-1), ConnectionKind.rotation())]


def _section(rep):
    grid = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=rep.mass)
    return random_test_section(rep, grid, seed=11)


def _j_par(c, sec):
    """Jpar_c sec = khat_c chi sec, with its own helicity action."""
    return Section(sec.rep, sec.grid, sec.grid.khat[c][..., None]
                   * splitting._act_chi(sec.rep, sec.grid, sec.values))


@pytest.mark.parametrize("rep,kind", _split_cases(),
                         ids=lambda v: repr(v))
def test_split_axes_match_single_axis_calls_exactly(rep, kind):
    ops, psi = SplitOperators(kind), _section(rep)
    axes = (2, 0, 1)
    for a, out in zip(axes, ops.L_axes(axes, psi)):
        assert np.array_equal(out.values, ops.L(a, psi).values)
    for a, out in zip(axes, ops.S_axes(axes, psi)):
        ref = ops.J(a, psi) - ops.L(a, psi)
        assert np.array_equal(out.values, ref.values)


@pytest.mark.parametrize("breaking", [0.0, 0.5],
                         ids=["symmetric", "broken"])
@pytest.mark.parametrize("rep,kind", _split_cases(),
                         ids=lambda v: repr(v))
def test_batched_diagnostics_match_one_field_loops_exactly(
        monkeypatch, rep, kind, breaking):
    """The residuals equal, bit for bit, the one-field loops each
    diagnostic ran before its fields were batched; with the rotational
    symmetry broken they are of order one, so the comparison covers a
    failing diagnostic as well as a passing one."""
    ops, psi = SplitOperators(kind), _section(rep)
    if breaking:
        break_rotational_symmetry(monkeypatch, psi.grid, breaking)
        assert vector_op_residual(ops, psi)[1] > 0.1
    parts = []
    for part, shell, act in (("L", ops._shell, ops.L),
                             ("S", partial(ops._shell, s_part=True), ops.S)):
        # the so(3) check of X = L and of X = S = J - L
        assert splitting._vector_op_residuals(shell, psi, ("so3",)) == [
            reference.so3_residual(act, psi)]
        parts.append(splitting._vector_op_residuals(
            ops._shell, psi, (part,))[0])
        assert parts[-1] == reference.vector_op_residual(act, ops.J, psi)
    assert so3_residual(ops, psi) == reference.so3_residual(ops.L, psi)
    assert vector_op_residual(ops, psi)[1] == max(parts)
    assert defect_identity_residual(ops, psi) == reference.so3_residual(
        ops.L, psi, curvature=lambda a, b: curvature_commutator(
            kind, splitting._ROTATIONAL[a], splitting._ROTATIONAL[b], psi))
    if rep.kind == "massless":
        def perp(a, sec):
            return ops.J(a, sec) - _j_par(a, sec)

        assert jperp_so3_residual(psi) == reference.so3_residual(
            perp, psi, target=lambda c, perp_c: perp_c - _j_par(c, psi))


@pytest.mark.parametrize("breaking", [0.0, 0.5],
                         ids=["symmetric", "broken"])
@pytest.mark.parametrize("rep,kind", _split_cases(),
                         ids=lambda v: repr(v))
def test_three_part_call_matches_so3_and_vector_op_exactly(
        monkeypatch, rep, kind, breaking):
    """The so(3) check and both vector-operator parts in one call return,
    bit for bit, ``so3_residual`` and ``vector_op_residual``, for a
    passing and for a failing splitting."""
    ops, psi = SplitOperators(kind), _section(rep)
    if breaking:
        break_rotational_symmetry(monkeypatch, psi.grid, breaking)
    so3, l_part, s_part = splitting._vector_op_residuals(
        ops._shell, psi, ("so3", "L", "S"))
    assert so3 == so3_residual(ops, psi)
    assert vector_op_residual(ops, psi) == (
        so3, float(np.max([l_part, s_part])))
    # each part alone gives the same bits as in the shared call
    assert splitting._vector_op_residuals(ops._shell, psi, ("S", "so3")) \
        == [s_part, so3]
    assert splitting._vector_op_residuals(ops._shell, psi, ("L", "S")) \
        == [l_part, s_part]


def _massless_section():
    rep = RepSpec.massless(1)
    grid = MomentumGrid(4, 12, 24, 1.0, 2.0)
    return random_test_section(rep, grid, seed=3, polar_damping=4)


def test_jperp_residual_takes_one_helicity_action_per_section(monkeypatch):
    """jperp_so3_residual applies the helicity operator chi once to psi
    and once to each Jperp_c psi (4 in whole-section equivalents, a shell
    counting 1 / N_r; 7 when every parallel target took its own), and its
    value equals, bit for bit, the residual with a fresh Jpar_c psi per
    target."""
    psi = _massless_section()
    ops = SplitOperators(ConnectionKind.boost())

    def perp(a, sec):
        return ops.J(a, sec) - _j_par(a, sec)

    worst = reference.so3_residual(
        perp, psi, target=lambda c, perp_c: perp_c - _j_par(c, psi))
    calls = []
    orig = splitting._act_chi

    def counted(rep, fields, v):
        calls.append(Fraction(v.shape[0], psi.grid.n_r))
        return orig(rep, fields, v)

    monkeypatch.setattr(splitting, "_act_chi", counted)
    assert jperp_so3_residual(psi) == worst
    assert sum(calls) == 4


def test_jperp_pass_totals(derivative_calls):
    """Jperp acts through J and the pointwise chi alone: one angular
    pass over psi and one over each Jperp_c psi, no radial pass."""
    jperp_so3_residual(_massless_section())
    assert derivative_calls == {"d_r": 0, "d_theta": 4, "d_phi": 4,
                                "gradient": 0}


# -- the commutation-relation catalog -------------------------------------------


_ALGEBRA_REPS = [RepSpec.massive(MASS, 0), RepSpec.massive(MASS, 1),
                 RepSpec.massless(-1), RepSpec.massless(1)]


@pytest.mark.parametrize("relation_id", relation_ids())
@pytest.mark.parametrize("rep", _ALGEBRA_REPS, ids=repr)
def test_algebra_residual_matches_one_action_per_pair(rep, relation_id):
    grid = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=rep.mass)
    psi = random_test_section(rep, grid, seed=9)
    assert algebra_residual(relation_id, psi) \
        == reference.algebra_residual(rep, grid, relation_id, psi)


@pytest.mark.parametrize("rep", _ALGEBRA_REPS, ids=repr)
def test_ten_families_in_one_call_match_one_action_per_pair(rep):
    grid = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=rep.mass)
    psi = random_test_section(rep, grid, seed=9)
    expected = {rid: reference.algebra_residual(rep, grid, rid, psi)
                for rid in relation_ids()}
    assert algebra_residuals(relation_ids(), psi) == list(expected.values())
    # a family asked for twice is checked once and reported twice
    assert algebra_residuals(("KK", "JP", "KK"), psi) == [
        expected["KK"], expected["JP"], expected["KK"]]


# (d_r, d_theta, d_phi) passes per bracket family: one pass over v and one
# over each first-level action.  When each index pair took its own pass
# over B_b v they were JJ 0, 6, 6; JK 4, 13, 13; KK 6, 6, 6; JP 0, 10, 10;
# KP 10, 10, 10; KH 4, 4, 4; JH 0, 4, 4.  The ten families in one call
# share them: one pass over v and one over each J_a v, K_a v, P_a v and
# H v, where the ten one-family calls took 14, 27, 27.
_ALGEBRA_PASSES = {
    "JJ": (0, 4, 4), "JK": (4, 7, 7), "KK": (4, 4, 4), "JP": (0, 4, 4),
    "KP": (4, 4, 4), "KH": (2, 2, 2), "JH": (0, 2, 2), "PP": (0, 0, 0),
    "PH": (0, 0, 0), "HH": (0, 0, 0), "all": (11, 11, 11),
}


@pytest.mark.parametrize("relation_id", list(_ALGEBRA_PASSES))
@pytest.mark.parametrize("rep", [RepSpec.massive(MASS, 1),
                                 RepSpec.massless(1)], ids=repr)
def test_algebra_residual_pass_totals(rep, relation_id, derivative_calls):
    grid = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=rep.mass)
    psi = random_test_section(rep, grid, seed=3)
    if relation_id == "all":
        algebra_residuals(relation_ids(), psi)
    else:
        algebra_residual(relation_id, psi)
    d_r, d_theta, d_phi = _ALGEBRA_PASSES[relation_id]
    assert derivative_calls == {"d_r": d_r, "d_theta": d_theta,
                                "d_phi": d_phi, "gradient": 0}


@pytest.mark.parametrize("rep", [RepSpec.massive(MASS, 1),
                                 RepSpec.massless(1)], ids=repr)
def test_ten_families_build_each_first_level_action_once(rep, monkeypatch):
    """Over the ten families each J_a v and K_a v is built once (the
    ten one-family calls built J on v 18 times and K on v 18 times, as
    first-level actions and as right-hand-side targets); counted in
    whole-section equivalents, a shell of v counting 1 / N_r."""
    grid = MomentumGrid(4, 12, 24, 1.0, 2.0, mass=rep.mass)
    psi = random_test_section(rep, grid, seed=3)
    built = {"J": 0, "K": 0}
    for tag in built:
        orig = getattr(reps._ShellPass, "_" + tag.lower())

        def counted(self, a, _tag=tag, _orig=orig):
            if np.shares_memory(self.v, psi.values):
                built[_tag] += Fraction(1, grid.n_r)
            return _orig(self, a)

        monkeypatch.setattr(reps._ShellPass, "_" + tag.lower(), counted)
    algebra_residuals(relation_ids(), psi)
    assert built == {"J": 3, "K": 3}


def test_vector_op_takes_one_covariant_pass_per_section(monkeypatch):
    """The vector-operator check of L and S takes the covariant derivative
    on psi and on each J_b psi once (it took 8 passes when each part
    built its own), counted in whole-section equivalents."""
    rep = RepSpec.massive(MASS, 1)
    grid = _massive_grid()
    psi = random_test_section(rep, grid, seed=3)
    shells = []
    orig = splitting._covariant_shell

    def counted(*args):
        shells.append(1)
        return orig(*args)

    monkeypatch.setattr(splitting, "_covariant_shell", counted)
    ops = SplitOperators(ConnectionKind.flat_massive())
    splitting._vector_op_residuals(ops._shell, psi, ("L", "S"))
    assert Fraction(len(shells), grid.n_r) == 4
