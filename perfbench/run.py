"""spinsplit benchmark entry point.

    python3 perfbench/run.py --workload numeric --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every worker is a fresh process (see worker.py), run one at a
time.  With ``--trace 0`` the run starts the workload's planned workers, and
more while the passes have measured less than ``--seconds`` in all; it tops
up the set-up samples with set-up probes.  It reports the mean cold pass
time and the median set-up time and peak memory; warm pass times go to the
detail line only.  With
``--trace 1`` it runs one untraced and one traced worker with one cold pass
each and reports the per-layer metrics of the traced one.  Metric names and
units are read from BENCHMARK.json.

Stdout: a detail line (samples, fingerprint, machine, problem sizes), then
the result line {"correct", "attempted", "failed", "metrics"}.  A worker
that crashes or overruns ends the run with exit code 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# per workload: (workers, warm passes per worker).  A cold pass happens once
# per process, so the cold samples of a run are its workers.  On a few cores
# of a shared host the speed wanders by 20% and more, for seconds to
# minutes, so a run lasts most of a minute or more and spreads its cold
# samples over all of it.  The symbolic warm pass is reported in the detail
# line only: it is bound by memory latency and moved by 30% between
# minutes, more than any bound could hold.
PLAN = {"numeric": (1, 0), "symbolic-catalog": (5, 1)}
WORKLOADS = tuple(PLAN)
SETUP_SAMPLES = 4    # timed workers plus set-up-only probes per timed run
TIME_LIMIT_S = 170   # the whole run, workers included
# sympy's internals iterate over hashed sets; a fixed hash seed makes the
# symbolic work identical from process to process
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, mode, deadline, warm=0, mutate=False):
    """Run one worker and return its parsed JSON line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--warm", str(warm),
           "--t0", repr(t0)] + (["--mutate"] if mutate else [])
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("time limit reached before a worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker overran the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _contract():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _metrics(names, values):
    missing = sorted(set(names) - set(values))
    if missing:
        raise BenchError(f"no measurement for {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in names.items()}


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, timeout=5).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(out) if out.isdigit() else None


def _machine(versions):
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
            "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"), **versions}


def _verdict(workers):
    """Totals over every pass; correct only if no check failed and every
    pass produced the same result fingerprint."""
    passes = [p for w in workers for p in w["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = [label for p in passes for label in p["failed"]]
    prints = sorted({p["fingerprint"] for p in passes})
    return {"correct": not failed and len(prints) == 1,
            "attempted": attempted, "failed": len(failed),
            "failed_checks": sorted(set(failed))[:20],
            "fingerprints": prints}


def timed_run(workload, seed, seconds, deadline):
    """The planned workers, then more until the passes have measured
    ``seconds``; probes top the set-up samples up to SETUP_SAMPLES.

    The cold pass time is reported as a mean, the total time over the
    number of passes: with few samples whose speed jumps between two levels
    for seconds at a time, a median jumps with it, and a mean jumps less."""
    planned, warm = PLAN[workload]
    workers = []
    while len(workers) < planned or sum(
            p["wall_s"] for w in workers for p in w["passes"]) < seconds:
        if workers and time.monotonic() + 1.5 * workers[-1]["took_s"] \
                > deadline:
            break
        t0 = time.monotonic()
        workers.append(spawn(workload, seed, "timed", deadline, warm=warm))
        workers[-1]["took_s"] = time.monotonic() - t0
    probes = [spawn(workload, seed, "probe", deadline)
              for _ in range(SETUP_SAMPLES - len(workers))]
    verdict = _verdict(workers)
    setups = [w["setup_s"] for w in workers + probes]
    colds = [w["passes"][0]["wall_s"] for w in workers]
    warms = [p["wall_s"] for w in workers for p in w["passes"][1:]]
    rss = [w["peak_rss_mb"] for w in workers]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(colds),
        "peak_rss_mb": statistics.median(rss),
        "pass_ratio": 1.0 - verdict["failed"] / verdict["attempted"],
    }
    samples = {"setup_s": setups, "wall_s": colds, "warm_wall_s": warms,
               "peak_rss_mb": rss,
               "cpu_s": [[p["cpu_s"] for p in w["passes"]] for w in workers]}
    return verdict, values, samples, workers[0]


def traced_run(workload, seed, deadline):
    base = spawn(workload, seed, "timed", deadline)
    traced = spawn(workload, seed, "traced", deadline)
    # the tracer must not change results: both fingerprints must agree
    verdict = _verdict([base, traced])
    values = dict(traced["layers"])
    values["cli.import_s"] = traced["import_s"]
    values["trace.overhead_ratio"] = (traced["passes"][0]["wall_s"]
                                      / base["passes"][0]["wall_s"] - 1.0)
    samples = {"untraced_wall_s": base["passes"][0]["wall_s"],
               "traced_wall_s": traced["passes"][0]["wall_s"]}
    return verdict, values, samples, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description="spinsplit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "spinsplit" / "__init__.py").is_file():
        print(f"perfbench: no spinsplit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        end_to_end, per_layer = _contract()
        if args.trace:
            verdict, values, samples, worker = traced_run(
                args.workload, args.seed, deadline)
            metrics = _metrics(per_layer, values)
        else:
            verdict, values, samples, worker = timed_run(
                args.workload, args.seed, args.seconds, deadline)
            metrics = _metrics(end_to_end, values)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "samples": samples,
              "failed_ratio": verdict["failed"] / verdict["attempted"],
              "failed_checks": verdict["failed_checks"],
              "fingerprints": verdict["fingerprints"],
              "machine": _machine(worker["versions"]),
              "sizes": worker["sizes"]}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": verdict["correct"],
                      "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
