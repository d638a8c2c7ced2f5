"""Peak memory of the covariant-derivative diagnostics, in bytes.

Sharing one derivative pass among several tangent fields keeps more
accumulators alive at once, so a speed-up can be bought with memory.
These guards hold each diagnostic's traced peak at rung (6, 24, 48) to
the peak it had when the numerical code last changed, plus a slack of
4,096 bytes for Python objects, a small part of one radial shell of a
section (55,296 bytes).  The peak counts every array the call allocates
(tracemalloc traces numpy's buffers) above the memory in use before it.
A control holds one extra shell through each call and sees every bound
fail.
"""

import gc
import tracemalloc
import weakref
from functools import partial

import numpy as np
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

# Every peak below is a traced peak in bytes (numpy 2.4.6, Python
# 3.11.7); its bound is the peak plus this slack.
_SLACK = 4096

# One radial shell of a section at rung (6, 24, 48): 24 x 48 points of
# three complex components, 55,296 bytes.
_SHELL = (24, 48, 3)

# A section is 331,776 bytes.  The "vector_op_residual" entry is the
# so(3) check and both vector-operator parts in one call: they share one
# set of actions, and every pair meets shell by shell.  At (8, 48, 96),
# massive spin 1 with the flat connection, that call peaks at 23.99 MB
# (13.6 sections), where the so(3) part alone peaks at 11.56 MB.
_ONE_FIELD_PEAKS = {
    "massive1-flat": {"apply_connection": 1_484_376,
                      "curvature_commutator": 2_664_208,
                      "so3_residual": 2_536_376,
                      "vector_op_residual": 5_006_256},
    "massless+1-boost": {"apply_connection": 1_262_288,
                         "curvature_commutator": 2_442_088,
                         "so3_residual": 2_369_288,
                         "vector_op_residual": 4_839_336},
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


def _peak_bytes(fn, shell=False) -> int:
    """The traced peak of fn() above the memory in use before it; with
    ``shell``, one more shell-sized array is held through the call."""
    fn()  # a first call, so one-time allocations are not counted
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = np.empty(_SHELL, complex) if shell else None
        fn()
        peak = tracemalloc.get_traced_memory()[1]
        del held
    finally:
        tracemalloc.stop()
    return peak - base


def _one_field_peak(case, diagnostic, shell=False):
    rep, grid, kind = _case(case)
    psi = random_test_section(rep, grid, seed=3)
    ops = SplitOperators(kind)
    return _peak_bytes(_diagnostic(diagnostic, kind, ops, psi), shell)


@pytest.mark.parametrize("diagnostic", list(_ONE_FIELD_PEAKS["massive1-flat"]))
@pytest.mark.parametrize("case", list(_ONE_FIELD_PEAKS))
def test_peak_memory_held_at_one_field_value(case, diagnostic):
    assert _one_field_peak(case, diagnostic) \
        <= _ONE_FIELD_PEAKS[case][diagnostic] + _SLACK


# The covariant pass runs one radial shell at a time after its derivative
# pass, so its temporaries are shells, not sections, and it evaluates the
# tangent fields one shell at a time (the rotational fields' whole-grid
# arrays are never built).  Peaks of a three-field rotational
# apply_connections.
_SHELL_FIELD_PEAKS = {"massive1-flat": 2_176_248,
                      "massless+1-boost": 1_954_112}


def _shell_field_peak(case, shell=False):
    rep, grid, kind = _case(case)
    psi = random_test_section(rep, grid, seed=3)
    xs = [TangentField.rotational(a) for a in range(3)]
    return _peak_bytes(lambda: apply_connections(kind, xs, psi), shell)


@pytest.mark.parametrize("case", list(_SHELL_FIELD_PEAKS))
def test_shell_field_pass_peak_held(case):
    assert _shell_field_peak(case) <= _SHELL_FIELD_PEAKS[case] + _SLACK


# The generator actions run their formulas one radial shell at a time
# into one output section, taking each shell's derivative pass as they
# go.  Peaks of one whole-section action, its derivative pass included,
# of algebra_residual for one family (the largest over the ten), and of
# algebra_residuals over the ten families in one call.  At (8, 48, 96),
# massive spin 1, the ten families in one call peak at 19.63 MB (11.1
# sections of 1.77 MB).
_SHELL_ACTION_PEAKS = {
    "massive1-flat": {"J": 673_504, "K": 864_248, "algebra": 3_576_672,
                      "algebra-ten": 4_056_968},
    "massless+1-boost": {"J": 673_504, "K": 966_048, "algebra": 3_724_288,
                         "algebra-ten": 4_092_320},
}


def _shell_action_peak(case, what, shell=False):
    rep, grid, _ = _case(case)
    psi = random_test_section(rep, grid, seed=3)
    if what == "algebra":
        return max(_peak_bytes(
            lambda rid=rid: algebra_residual(rid, psi), shell)
            for rid in relation_ids())
    if what == "algebra-ten":
        return _peak_bytes(
            lambda: algebra_residuals(relation_ids(), psi), shell)
    act = _act_J if what == "J" else _act_K
    return _peak_bytes(lambda: act(rep, grid, 0, psi.values), shell)


@pytest.mark.parametrize("what", ["J", "K", "algebra", "algebra-ten"])
@pytest.mark.parametrize("case", list(_SHELL_ACTION_PEAKS))
def test_shell_action_peak_held(case, what):
    assert _shell_action_peak(case, what) \
        <= _SHELL_ACTION_PEAKS[case][what] + _SLACK


# The defect identity and the Jperp closure run the so(3) pairs shell by
# shell, as so3_residual does: the defect adds the three curvature
# commutators, taken on whole sections before the sweep, and Jperp keeps
# chi psi as one whole section and forms each target
# Jperp_c psi - khat_c chi psi on the shell where a pair reads it.
_SO3_SWEEP_PEAKS = {
    ("massive1-flat", "defect_identity_residual"): 3_589_464,
    ("massless+1-boost", "defect_identity_residual"): 3_422_496,
    ("massless+1-boost", "jperp_so3_residual"): 2_303_464,
}


def _so3_sweep_peak(case, diagnostic, shell=False):
    rep, grid, kind = _case(case)
    psi = random_test_section(rep, grid, seed=3)
    ops = SplitOperators(kind)
    fn = {"defect_identity_residual":
          lambda: defect_identity_residual(ops, psi),
          "jperp_so3_residual": lambda: jperp_so3_residual(psi)}[diagnostic]
    return _peak_bytes(fn, shell)


@pytest.mark.parametrize("case,diagnostic", list(_SO3_SWEEP_PEAKS))
def test_so3_sweep_peak_held(case, diagnostic):
    assert _so3_sweep_peak(case, diagnostic) \
        <= _SO3_SWEEP_PEAKS[case, diagnostic] + _SLACK


# chern_number transports its theta and phi links in blocks of whole mesh
# rows, so its temporaries are block-sized.  Peak on the (48, 96) mesh,
# the larger of the two helicities (6.4446 MiB on the (96, 192) mesh).
_CHERN_PEAK = 4_124_688


def _chern_peak(h, shell=False):
    return _peak_bytes(lambda: chern_number(
        RepSpec.massless(h), ConnectionKind.rotation(), 48, 96), shell)


@pytest.mark.parametrize("h", [-1, 1])
def test_chern_peak_held(h):
    assert _chern_peak(h) <= _CHERN_PEAK + _SLACK


def _bounds():
    """(peak function, parent peak) of every bound above, by name."""
    out = {}
    for case, peaks in _ONE_FIELD_PEAKS.items():
        for diagnostic, peak in peaks.items():
            out[f"{case}-{diagnostic}"] = (
                partial(_one_field_peak, case, diagnostic), peak)
    for case, peak in _SHELL_FIELD_PEAKS.items():
        out[f"{case}-apply_connections"] = (
            partial(_shell_field_peak, case), peak)
    for case, peaks in _SHELL_ACTION_PEAKS.items():
        for what, peak in peaks.items():
            out[f"{case}-{what}"] = (
                partial(_shell_action_peak, case, what), peak)
    for (case, diagnostic), peak in _SO3_SWEEP_PEAKS.items():
        out[f"{case}-{diagnostic}"] = (
            partial(_so3_sweep_peak, case, diagnostic), peak)
    out["chern"] = (partial(_chern_peak, 1), _CHERN_PEAK)
    return out


_BOUNDS = _bounds()


@pytest.mark.parametrize("name", list(_BOUNDS))
def test_one_extra_shell_fails_each_bound(name):
    """The slack is smaller than one shell: holding one more shell-sized
    array through the call lifts its peak over the bound."""
    peak_of, peak = _BOUNDS[name]
    assert peak_of(shell=True) > peak + _SLACK


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
