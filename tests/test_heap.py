"""The process keeps the memory it frees, and no result reads memory that
was never written.

Importing spinsplit sets glibc's mmap and trim thresholds so section-sized
arrays come from the main heap and freed pages stay mapped.  Recycled
heap chunks hold stale bytes where fresh pages were zero, so a kernel
that read an unwritten ``np.empty`` element would turn silently wrong;
the perturbation gate runs the numeric suites with glibc filling every
``malloc``'d block with a byte pattern and asks for the same report.
"""

import ctypes
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import spinsplit
from spinsplit import _HEAP_ENV, _keep_freed_memory
from spinsplit.grid import MomentumGrid
from spinsplit.reps import RepSpec, algebra_residual, random_test_section

from conftest import MASS


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# -- the helper ---------------------------------------------------------------


class _Libc:
    """A C library whose ``mallopt`` records its calls."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.fixture
def libc(monkeypatch):
    fake = _Libc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: fake)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    for name in _HEAP_ENV + ("GLIBC_TUNABLES",):
        monkeypatch.delenv(name, raising=False)
    return fake


def test_helper_sets_mmap_then_trim_threshold(libc, monkeypatch):
    # the perturbation byte sizes nothing, so it leaves the helper on
    monkeypatch.setenv("MALLOC_PERTURB_", "165")
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.perturb=165")
    assert _keep_freed_memory()
    assert libc.calls == [(-3, 32 << 20), (-1, 256 << 20)]


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [_unknown_name, lambda name: None],
                         ids=["unknown-name", "undefined"])
def test_helper_does_nothing_without_glibc(libc, monkeypatch, confstr):
    monkeypatch.setattr(os, "confstr", confstr)
    assert not _keep_freed_memory()
    assert libc.calls == []


@pytest.mark.parametrize("name,value", [
    *((name, "1048576") for name in _HEAP_ENV),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=1048576"),
    ("GLIBC_TUNABLES", "glibc.malloc.perturb=1:glibc.malloc.mmap_max=0"),
])
def test_environment_heap_settings_take_precedence(libc, monkeypatch, name,
                                                   value):
    monkeypatch.setenv(name, value)
    assert not _keep_freed_memory()
    assert libc.calls == []


def test_helper_does_nothing_without_mallopt(libc, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert not _keep_freed_memory()


# -- the gates ----------------------------------------------------------------


def test_second_algebra_residual_keeps_its_pages():
    # calling the helper again sets the same limits and says whether
    # they hold in this process
    if not _keep_freed_memory():
        pytest.skip("not glibc, or the environment sizes the heap")
    rep = RepSpec.massive(MASS, 1)
    grid = MomentumGrid(8, 48, 96, 1.0, 2.0, mass=MASS)
    psi = random_test_section(rep, grid, seed=1)
    algebra_residual("KK", psi)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    algebra_residual("KK", psi)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    section_pages = psi.values.nbytes // resource.getpagesize()
    assert section_pages == 432
    assert faults < section_pages


# every numeric suite, on rungs (4, 12, 24) and (8, 24, 48)
_RUN = ["run", "--normalize", "--grid", "8,24,48", "--mass", str(MASS),
        "--spin", "1", "--helicity", "1", "--suite", "algebra", "curvature",
        "splitting", "nw", "degeneracy", "fplus", "chern", "holonomy",
        "leibniz"]


@pytest.mark.skipif(not _glibc(), reason="MALLOC_PERTURB_ is glibc's")
def test_reports_do_not_read_unwritten_memory(tmp_path):
    src = str(Path(spinsplit.__file__).resolve().parent.parent)
    env = {name: value for name, value in os.environ.items()
           if name != "MALLOC_PERTURB_"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = {}
    for name, extra in (("plain", {}),
                        ("perturbed", {"MALLOC_PERTURB_": "165"})):
        out = tmp_path / f"{name}.json"
        runs[out] = subprocess.Popen(
            [sys.executable, "-m", "spinsplit.cli", *_RUN, "--json",
             str(out)], env={**env, **extra},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for out, proc in runs.items():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    plain, perturbed = (out.read_bytes() for out in runs)
    assert b'"records"' in plain
    assert plain == perturbed
