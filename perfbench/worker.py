"""One benchmark process: set up a workload, run its passes, print one JSON
line on stdout.  ``run.py`` starts a fresh process for every sample, so the
first pass is cold (empty symbolic memos) and a second pass in the same
process is warm.

Modes:
  probe   set up only, then report the set-up time;
  timed   set up, then run a cold pass and ``--warm`` warm passes,
          untraced;
  traced  as timed, with every layer entry point wrapped by the tracer.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "timed", "traced"),
                        required=True)
    parser.add_argument("--warm", type=int, default=0,
                        help="warm passes after the cold pass")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was "
                             "started (CLOCK_MONOTONIC is system-wide)")
    parser.add_argument("--mutate", action="store_true",
                        help="apply the workload's mutation control")
    return parser.parse_args(argv)


def _memo_stats(size_before, size_after, lookups):
    """Memo size and hit ratio over a pass: every lookup that did not add
    an entry was a hit."""
    misses = size_after - size_before
    return size_after, (lookups - misses) / lookups if lookups else 0.0


def main(argv=None):
    args = _parse_args(argv)
    sys.path[:0] = [str(SRC), str(HERE)]
    t_import = time.perf_counter()
    import spinsplit.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - t_import
    import spinsplit
    if Path(spinsplit.__file__).resolve().parent != SRC / "spinsplit":
        sys.exit(f"worker: spinsplit imported from {spinsplit.__file__}, "
                 f"not from {SRC}")
    import numpy
    import sympy
    from spinsplit import algebra, scalars

    from layertrace import Tracer
    import workloads
    from workloads import NO_TRACE, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.mutate:
        workload.mutate()
    tracer = (Tracer().install(callers=[workloads])
              if args.mode == "traced" else None)
    out = {"setup_s": time.monotonic() - args.t0, "import_s": import_s,
           "versions": {"python": sys.version.split()[0],
                        "numpy": numpy.__version__,
                        "sympy": sympy.__version__},
           "sizes": workload.sizes()}
    if args.mode != "probe":
        memo_sizes = (len(scalars._cancel_memo), len(algebra._insert_memo))

        def timed_pass():
            t0, c0 = time.perf_counter(), time.process_time()
            checks, fp = workload.run(tracer or NO_TRACE)
            return {"wall_s": time.perf_counter() - t0,
                    "cpu_s": time.process_time() - c0,
                    "attempted": len(checks),
                    "failed": [label for label, ok in checks if not ok],
                    "fingerprint": fp}

        out["passes"] = [timed_pass() for _ in range(1 + args.warm)]
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            layers = tracer.metrics()
            (layers["scalars.cancel_memo.size"],
             layers["scalars.cancel_memo.hit_ratio"]) = _memo_stats(
                memo_sizes[0], len(scalars._cancel_memo),
                layers["scalars.cancel.calls"])
            (layers["algebra.insert_memo.size"],
             layers["algebra.insert_memo.hit_ratio"]) = _memo_stats(
                memo_sizes[1], len(algebra._insert_memo),
                layers["algebra.insert_gen.calls"])
            out["layers"] = layers
    print(json.dumps(out))


if __name__ == "__main__":
    main()
