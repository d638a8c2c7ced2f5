"""spinsplit: a symbolic and numerical laboratory for connection-induced
splittings J = L + S of the relativistic angular momentum.

Layers:

* :mod:`spinsplit.poincare` — the Poincare bracket table and the
  Levi-Civita symbol that both engines read, in plain Python.
* :mod:`spinsplit.poly` — sparse polynomials over the Gaussian
  integers, in plain Python, for the exact coefficients.
* :mod:`spinsplit.scalars`, :mod:`spinsplit.algebra`,
  :mod:`spinsplit.identities` — exact operator algebra over rational
  coefficient functions, with a catalogue of verified identities.
* :mod:`spinsplit.lang` — a small expression language (parser, lowering
  to normal form, round-trip printer).
* :mod:`spinsplit.grid`, :mod:`spinsplit.reps` — momentum-shell grids,
  sections, and discretized generator actions.
* :mod:`spinsplit.connections`, :mod:`spinsplit.splitting` — covariant
  derivatives, curvature, holonomy, Chern numbers, induced splittings
  and the mean position operator.
* :mod:`spinsplit.report`, :mod:`spinsplit.cli` — suites, reports, CLI.

The numerical layers import no symbolic module: only the ``symbolic``
suite and ``eval`` load the exact algebra.  No module imports sympy when
it is loaded; the exact engine imports it only for the printer's gcd
fallback, and ``Ring.from_expr`` builds constants from an int or the
text "I" alone.

The process keeps the memory it frees.  The numerical engine's live
set swings by tens of MB (one section at (8, 48, 96) is 1.77 MB; the
ten algebra families in one call hold about 11, the vector-operator
check about 13.5), and by default glibc returns
the top of its heap to the kernel whenever a few MB lie free there, so
every swing would unmap pages and fault them back in, zeroed.  Under
glibc, importing the package raises the mmap threshold to 32 MiB and
the trim threshold to 256 MiB: section-sized arrays come from the main
heap and freed pages stay mapped, so resident memory stays near its
high-water mark after a peak.  glibc's own heap settings
(``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_``,
``MALLOC_TOP_PAD_``, ``MALLOC_MMAP_MAX_`` or their ``glibc.malloc.*``
entries in ``GLIBC_TUNABLES``) take precedence: when any is set, the
allocator is left alone.
"""

import os

__version__ = "0.1.0"

__all__ = ["__version__"]

# mallopt parameters (malloc.h) and the settings of the glibc heap
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
             "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")
_HEAP_TUNABLES = ("glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold",
                  "glibc.malloc.top_pad", "glibc.malloc.mmap_max")


def _keep_freed_memory() -> bool:
    """Keep section-sized blocks on glibc's main heap and freed pages in
    the process; return whether the limits were set.  Does nothing off
    glibc, without ``mallopt``, or when the environment sizes the heap."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):
        return False
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if any(name in os.environ for name in _HEAP_ENV) \
            or any(name + "=" in tunables for name in _HEAP_TUNABLES):
        return False
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(_M_TRIM_THRESHOLD, 256 << 20))


_keep_freed_memory()
