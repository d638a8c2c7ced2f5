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
    chern_number,
    curvature_commutator,
)
from spinsplit.grid import MomentumGrid
from spinsplit.reps import (
    RepSpec,
    _act_J,
    _act_K,
    algebra_residual,
    algebra_residuals,
    inner,
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

from conftest import MASS

# Traced peaks, in sections, with one derivative pass per field (numpy
# 2.4.6, Python 3.11.7), rounded up at the fourth decimal; each is the
# bound of its case.  The "vector_op_residual" entry measures the so(3)
# check and both vector-operator parts in one call, on one set of
# actions; its bound is the traced peak of the L and S parts when they
# ran without the so(3) part, which had peaked at 18.9880 and 20.7592
# sections with one pass per field, for the S part alone.
_ONE_FIELD_PEAKS = {
    "massive1-flat": {"apply_connection": 10.4161,
                      "curvature_commutator": 12.9298,
                      "so3_residual": 15.9478,
                      "vector_op_residual": 15.3275},
    "massless+1-boost": {"apply_connection": 12.1874,
                         "curvature_commutator": 14.7010,
                         "so3_residual": 17.7190,
                         "vector_op_residual": 14.7392},
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
        "vector_op_residual": lambda: vector_op_residual(ops, psi),
    }[name]


def _peak_bytes(fn) -> int:
    fn()  # a first call, so one-time allocations are not counted
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def _peak_sections(fn, psi) -> float:
    return _peak_bytes(fn) / psi.values.nbytes


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
# into one output section, taking each shell's derivative pass as they
# go.  Traced peaks of one whole-section action, its derivative pass
# included, of algebra_residual for one family (the largest over the
# ten), and of algebra_residuals over the ten families in one call
# (numpy 2.4.6, Python 3.11.7), rounded up at the fourth decimal.  With
# a whole-section derivative pass the actions peaked at 3.6859 (J) and
# 4.8879 / 5.0549 (K) sections, 1.6754 (J) and 1.9016 / 2.0404 (K) with
# that pass given.  The one-family bound is algebra_residual's peak when
# each family built its own first-level actions (15.7402 / 16.4631
# before each was built once); it now peaks at 10.7804 / 11.2254.  At
# (8, 48, 96), massive spin 1, the ten families in one call peak at
# 19.63 MB (11.1 sections of 1.77 MB), where the largest one-family call
# peaked at 24.81 MB.
_SHELL_ACTION_PEAKS = {
    "massive1-flat": {"J": 2.0300, "K": 2.6050, "algebra": 14.0919,
                      "algebra-ten": 12.2281},
    "massless+1-boost": {"J": 2.0300, "K": 2.9118, "algebra": 14.1258,
                         "algebra-ten": 12.3346},
}


@pytest.mark.parametrize("what", ["J", "K", "algebra", "algebra-ten"])
@pytest.mark.parametrize("case", list(_SHELL_ACTION_PEAKS))
def test_shell_action_peak_held(case, what):
    rep, grid, _ = _case(case)
    psi = random_test_section(rep, grid, seed=3)
    if what == "algebra":
        peak = max(_peak_sections(
            lambda rid=rid: algebra_residual(rid, psi), psi)
            for rid in relation_ids())
    elif what == "algebra-ten":
        peak = _peak_sections(
            lambda: algebra_residuals(relation_ids(), psi), psi)
    else:
        act = _act_J if what == "J" else _act_K
        peak = _peak_sections(lambda: act(rep, grid, 0, psi.values), psi)
    assert peak <= _SHELL_ACTION_PEAKS[case][what]


# The so(3) check and both vector-operator parts in one call share one set
# of actions, and every pair meets shell by shell.  Traced peaks of that
# call (numpy 2.4.6, Python 3.11.7), rounded up at the fourth decimal;
# each is no higher than the "vector_op_residual" bound of its case.  At
# (8, 48, 96), massive spin 1 with the flat connection, it peaks at
# 23.99 MB (13.6 sections), where the so(3) part alone peaks at 11.56 MB
# and the L and S parts without it peaked at 23.10 MB.
_THREE_PART_PEAKS = {"massive1-flat": 15.0927, "massless+1-boost": 14.5893}


@pytest.mark.parametrize("case", list(_THREE_PART_PEAKS))
def test_three_part_splitting_peak_held(case):
    rep, grid, kind = _case(case)
    psi = random_test_section(rep, grid, seed=3)
    ops = SplitOperators(kind)
    peak = _peak_sections(lambda: vector_op_residual(ops, psi), psi)
    assert peak <= _THREE_PART_PEAKS[case]
    assert _THREE_PART_PEAKS[case] \
        <= _ONE_FIELD_PEAKS[case]["vector_op_residual"]


# The defect identity and the Jperp closure run the so(3) pairs shell by
# shell, as so3_residual does: the defect adds the three curvature
# commutators, taken on whole sections before the sweep, and Jperp keeps
# chi psi as one whole section and forms each target
# Jperp_c psi - khat_c chi psi on the shell where a pair reads it.  The
# defect bounds are the traced peaks (numpy 2.4.6, Python 3.11.7),
# rounded up at the fourth decimal, from when each pair's so(3) failure
# was kept as a whole section; the Jperp bound is its own traced peak,
# rounded up so, where it peaked at 8.7772 sections with its three
# targets kept as whole sections (10.4266 before the so(3) pairs met
# shell by shell).
_SO3_SWEEP_PEAKS = {
    ("massive1-flat", "defect_identity_residual"): 11.6474,
    ("massless+1-boost", "defect_identity_residual"): 10.9774,
    ("massless+1-boost", "jperp_so3_residual"): 6.9429,
}


@pytest.mark.parametrize("case,diagnostic", list(_SO3_SWEEP_PEAKS))
def test_so3_sweep_peak_held(case, diagnostic):
    rep, grid, kind = _case(case)
    psi = random_test_section(rep, grid, seed=3)
    ops = SplitOperators(kind)
    fn = {"defect_identity_residual":
          lambda: defect_identity_residual(ops, psi),
          "jperp_so3_residual": lambda: jperp_so3_residual(psi)}[diagnostic]
    assert _peak_sections(fn, psi) <= _SO3_SWEEP_PEAKS[case, diagnostic]


# chern_number transports its theta and phi links in blocks of whole mesh
# rows, so its temporaries are block-sized.  Traced peak on the (48, 96)
# mesh, in MiB (numpy 2.4.6, Python 3.11.7), rounded up at the fourth
# decimal; with every link of a direction in one batch it peaked at
# 6.2333 MiB, and at 24.4907 MiB on the (96, 192) mesh (now 6.4446 MiB).
_CHERN_PEAK_MIB = 3.9339


@pytest.mark.parametrize("h", [-1, 1])
def test_chern_peak_held(h):
    peak = _peak_bytes(lambda: chern_number(
        RepSpec.massless(h), ConnectionKind.rotation(), 48, 96))
    assert peak / 2**20 <= _CHERN_PEAK_MIB


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
