"""Peak memory of the covariant-derivative diagnostics, in sections.

Sharing one derivative pass among several tangent fields keeps more
accumulators alive at once.  These guards hold each diagnostic's traced
peak at rung (6, 24, 48) to the value it had when every field took its
own pass, so a speed-up cannot be bought with memory.  The peak counts
every array the call allocates (tracemalloc traces numpy's buffers) and
is divided by the size of one section of the representation.
"""

import gc
import tracemalloc
import weakref

import pytest

from spinsplit.connections import (
    ConnectionKind,
    TangentField,
    apply_connection,
    apply_connections,
    curvature_commutator,
)
from spinsplit.grid import MomentumGrid
from spinsplit.reps import (
    RepSpec,
    _act_J,
    _act_K,
    _derivatives,
    algebra_residual,
    inner,
    random_test_section,
    relation_ids,
)
import spinsplit.splitting as splitting
from spinsplit.splitting import SplitOperators, so3_residual

from conftest import MASS

# Traced peaks, in sections, with one derivative pass per field (numpy
# 2.4.6, Python 3.11.7), rounded up at the fourth decimal; each is the
# bound of its case.
_ONE_FIELD_PEAKS = {
    "massive1-flat": {"apply_connection": 10.4161,
                      "curvature_commutator": 12.9298,
                      "so3_residual": 15.9478,
                      "vector_op_residual-L": 17.9698,
                      "vector_op_residual-S": 18.9880},
    "massless+1-boost": {"apply_connection": 12.1874,
                         "curvature_commutator": 14.7010,
                         "so3_residual": 17.7190,
                         "vector_op_residual-L": 19.7410,
                         "vector_op_residual-S": 20.7592},
}


def _case(name):
    if name == "massive1-flat":
        grid = MomentumGrid(6, 24, 48, 1.0, 2.0, mass=MASS)
        return RepSpec.massive(MASS, 1), grid, ConnectionKind.flat_massive()
    return RepSpec.massless(1), MomentumGrid(6, 24, 48, 1.0, 2.0), \
        ConnectionKind.boost()


def _diagnostic(name, kind, ops, psi):
    eth, eph = TangentField.named("e_theta"), TangentField.named("e_phi")
    return {
        "apply_connection": lambda: apply_connection(kind, eph, psi),
        "curvature_commutator": lambda: curvature_commutator(
            kind, eth, eph, psi),
        "so3_residual": lambda: so3_residual(ops, psi),
        "vector_op_residual-L": lambda: splitting._vector_op_part(
            ops, ops.L_axes, psi),
        "vector_op_residual-S": lambda: splitting._vector_op_part(
            ops, ops.S_axes, psi),
    }[name]


def _peak_sections(fn, psi) -> float:
    fn()  # a first call, so one-time allocations are not counted
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / psi.values.nbytes


@pytest.mark.parametrize("diagnostic", list(_ONE_FIELD_PEAKS["massive1-flat"]))
@pytest.mark.parametrize("case", list(_ONE_FIELD_PEAKS))
def test_peak_memory_held_at_one_field_value(case, diagnostic):
    rep, grid, kind = _case(case)
    psi = random_test_section(rep, grid, seed=3)
    ops = SplitOperators(kind)
    peak = _peak_sections(_diagnostic(diagnostic, kind, ops, psi), psi)
    assert peak <= _ONE_FIELD_PEAKS[case][diagnostic]


# The covariant pass runs one radial shell at a time after its derivative
# pass, so its temporaries are shells, not sections, and it evaluates the
# tangent fields one shell at a time (the rotational fields' whole-grid
# arrays are never built).  Traced peaks of a three-field rotational
# apply_connections (numpy 2.4.6, Python 3.11.7), rounded up at the fourth
# decimal; the whole-section pass peaked at 13.0808 (massive1-flat) and
# 11.9127 (massless+1-boost) sections.
_SHELL_FIELD_PEAKS = {"massive1-flat": 8.6210, "massless+1-boost": 7.5601}


@pytest.mark.parametrize("case", list(_SHELL_FIELD_PEAKS))
def test_shell_field_pass_peak_held(case):
    rep, grid, kind = _case(case)
    psi = random_test_section(rep, grid, seed=3)
    xs = [TangentField.rotational(a) for a in range(3)]
    peak = _peak_sections(lambda: apply_connections(kind, xs, psi), psi)
    assert peak <= _SHELL_FIELD_PEAKS[case]


# The generator actions run their formulas one radial shell at a time
# into one output section.  Traced peaks of one whole-section action with
# its derivative pass given, and of algebra_residual over the ten
# families (numpy 2.4.6, Python 3.11.7), rounded up at the fourth
# decimal.  The whole-section bodies peaked at 2.3937 (J) and 3.3392 /
# 4.3950 (K) sections, and algebra_residual at 15.7402 / 16.4631.
_SHELL_ACTION_PEAKS = {
    "massive1-flat": {"J": 1.6754, "K": 1.9016, "algebra": 14.0919},
    "massless+1-boost": {"J": 1.6753, "K": 2.0404, "algebra": 14.1258},
}


@pytest.mark.parametrize("what", ["J", "K", "algebra"])
@pytest.mark.parametrize("case", list(_SHELL_ACTION_PEAKS))
def test_shell_action_peak_held(case, what):
    rep, grid, _ = _case(case)
    psi = random_test_section(rep, grid, seed=3)
    if what == "algebra":
        peak = max(_peak_sections(
            lambda rid=rid: algebra_residual(rid, psi), psi)
            for rid in relation_ids())
    else:
        act = _act_J if what == "J" else _act_K
        der = _derivatives(grid, psi.values)
        peak = _peak_sections(lambda: act(rep, grid, 0, psi.values, der),
                              psi)
    assert peak <= _SHELL_ACTION_PEAKS[case][what]


@pytest.mark.parametrize("case", list(_ONE_FIELD_PEAKS))
def test_grid_freed_without_garbage_collector(case):
    # the grid caches what it builds (shells, invariant weights); none of
    # it may refer back to the grid, or a grid would be freed only by the
    # cycle collector and its arrays would outlive their use
    gc.collect()
    gc.disable()
    try:
        rep, grid, kind = _case(case)
        psi = random_test_section(rep, grid, seed=3)
        ops = SplitOperators(kind)
        apply_connections(kind, [TangentField.rotational(a)
                                 for a in range(3)], psi)
        so3_residual(ops, psi)
        psi.norm()
        inner(psi, psi)
        ref = weakref.ref(grid)
        del grid, psi, ops
        assert ref() is None
    finally:
        gc.enable()
