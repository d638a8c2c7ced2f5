"""Self-checks of the benchmark: the gate can fail and the tracer is faithful.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

For each workload:

* mutation: one worker runs with the workload's mutation controls, applied
  from outside the package (numeric: ``reps._SIGMA_BOOST = +1`` for the
  ladder and the flat holonomy with ``lambda_flat_profile(1.01)`` for
  transport; symbolic-catalog: ``identity_suite(flip_sign_of=...)``).  Each
  control must fail checks of its own.
* clean: untraced workers at ``--seed`` and ``--seed + 1`` fail no check.
* tracer: two traced workers at ``--seed`` give the fingerprint of the
  untraced one, every count metric repeats exactly, and the layers the
  workload bypasses read zero while the layer it exercises does not.

No timed benchmark run applies a mutation.  Prints one line per check and
exits 1 if any fails.  Takes about six minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import sys
import time

from run import WORKLOADS, spawn

WORKER_LIMIT_S = 170

# count metrics: they must repeat exactly across traced runs of one seed
COUNT_SUFFIXES = (".calls", ".size", ".pairs", ".expressions",
                  ".bytes_computed")

GRID_CALLS = ("grid.d_r.calls", "grid.d_theta.calls", "grid.d_phi.calls",
              "grid.gradient.calls")
# per workload: metrics that must read zero, and metrics that must not
BYPASSED = {
    "numeric": ("scalars.sympy_cancel.calls",),
    "symbolic-catalog": GRID_CALLS + ("connections.form_matrix.calls",),
}
EXERCISED = {
    "numeric": ("grid.gradient.calls", "reps.act_K.calls",
                "connections.edge_transport.calls",
                "connections.form_matrix.calls"),
    "symbolic-catalog": ("scalars.sympy_cancel.calls", "algebra.mul.calls"),
}
# per workload: a label prefix of a check that each mutation control fails
MUTATION_FAILS = {
    "numeric": ("algebra-massive-KK", "holonomy-flat:"),
    "symbolic-catalog": ("identity:",),
}


def _worker(workload, seed, mode, mutate=False):
    return spawn(workload, seed, mode, time.monotonic() + WORKER_LIMIT_S,
                 mutate=mutate)


def _failed(worker):
    return len(worker["passes"][0]["failed"])


def _fingerprint(worker):
    return worker["passes"][0]["fingerprint"]


def check_workload(workload, seed):
    """Yield (description, ok) for every self-check of one workload."""
    mutated = _worker(workload, seed, "timed", mutate=True)
    failed = mutated["passes"][0]["failed"]
    for prefix in MUTATION_FAILS[workload]:
        mine = [label for label in failed if label.startswith(prefix)]
        yield (f"mutation fails {len(mine)} {prefix}* of "
               f"{mutated['passes'][0]['attempted']} checks {mine[:4]}",
               len(mine) > 0)
    base = _worker(workload, seed, "timed")
    other = _worker(workload, seed + 1, "timed")
    for s, w in ((seed, base), (seed + 1, other)):
        yield f"seed {s}: failed_ratio 0", _failed(w) == 0
    traced = [_worker(workload, seed, "traced") for _ in range(2)]
    yield ("traced fingerprints equal the untraced one",
           all(_fingerprint(t) == _fingerprint(base) for t in traced))
    first, second = (t["layers"] for t in traced)
    counts = sorted(k for k in first if k.endswith(COUNT_SUFFIXES))
    drift = [k for k in counts if first[k] != second[k]]
    yield f"{len(counts)} counts repeat exactly {drift or ''}", not drift
    for name in BYPASSED[workload]:
        yield f"bypassed {name} = {first[name]}", first[name] == 0
    for name in EXERCISED[workload]:
        yield f"exercised {name} = {first[name]}", first[name] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOADS:
        for description, passed in check_workload(workload, args.seed):
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {workload}: {description}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
