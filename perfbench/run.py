"""Benchmark of the fedmoe library, one workload per process.

    python3 perfbench/run.py --workload desk_fmoe --seed 101 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
The seed makes the scenario; a run sets up a few times, then repeats units
until the next one would end past ``--seconds``, but runs at least two. A
training unit is a set-up and one timed ``federation.run``; an evaluation
unit is one timed pass over the last set-up. With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json: the median set-up, and the mean
of the middle half of the units' times. With ``--trace 1`` it alternates
untraced and traced units (a traced unit always sets up afresh) and
reports the per-layer metrics of the traced ones, with the tracing
overhead. The last line of standard output is one JSON object; the exit
code is 1 when an output check fails and 2 when the program is missing.
"""

import os

# BLAS fan-out loses on this model's small matrices and adds run-to-run noise
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import ctypes.util
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import fedmoe  # noqa: F401
except ImportError as exc:
    print(f"error: cannot import fedmoe from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

import numpy as np
import scipy

import spans
import workloads

# a traced run needs one untraced and one traced unit; an untraced run
# times two, so that a 20 s desk_fmoe unit is not one sample of the host
MIN_UNITS = 2
SET_UPS_BEFORE = 4         # set-ups before the units; the first also warms up
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def keep_freed_memory() -> str:
    """Let glibc malloc reuse freed heap memory for numpy temporaries.

    By default every temporary above a few hundred KiB is mapped fresh and
    faulted in page by page; on a shared host that kernel time was the
    noisiest part of a run. Applies to parent and change alike.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        if libc.mallopt(M_MMAP_THRESHOLD, 32 << 20) and libc.mallopt(M_TRIM_THRESHOLD, 1 << 30):
            return "mmap_threshold=32MiB trim_threshold=1GiB"
    except (OSError, AttributeError, TypeError):
        pass
    return "default"


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30,
                          env=dict(os.environ, GIT_DIR=str(ROOT / ".git")))
    return proc.stdout.strip() or "unknown"


def environment(malloc: str) -> dict:
    return {"nproc": os.cpu_count(), "blas": {v: os.environ.get(v) for v in BLAS_VARS},
            "malloc": malloc, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "git": git_revision()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(keep_freed_memory()), sort_keys=True))

    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    set_up_s = []
    for _ in range(SET_UPS_BEFORE):
        last = workloads.set_up(w, args.seed)
        set_up_s.append(last.seconds)
    # an evaluation pass is read-only, so its untraced units share the last set-up
    shared = last if w.kind == "eval" else None
    del last
    units, traced, summaries, generate_s = [], [], [], []
    attempted = failed = 0
    while True:
        trace_unit = tracer is not None and attempted % 2 == 1
        attempted += 1
        unit_start = time.perf_counter()
        try:
            s, u, summary, gen_s = run_unit(w, args.seed, tracer if trace_unit else None,
                                            None if trace_unit else shared)
            if w.kind == "eval" and attempted == 1:
                compared, ranking = workloads.check_ranking(s)
                print(f"rank_target agrees with the sort oracle on {compared - len(ranking)}"
                      f" of {compared} sampled queries")
                u.problems += ranking
            if w.kind == "eval" and units and u.fingerprint != units[0].fingerprint:
                u.problems.append("evaluation passes gave different records")
            if trace_unit:
                u.problems += coverage_problems(w, summary)
        except Exception:  # a unit that raises counts as failed; the run goes on
            traceback.print_exc()
            failed += 1
        else:
            set_up = "shared" if s is shared else f"{s.seconds:.3f} s"
            print(f"unit {attempted} {'traced' if trace_unit else 'untraced'}: "
                  f"set-up {set_up}, run {u.run_s:.3f} s, test MRR {u.test_mrr:.4f}, "
                  f"fingerprint {json.dumps(u.fingerprint, sort_keys=True)}")
            for problem in u.problems:
                print(f"check failed: {problem}")
            failed += bool(u.problems)
            if trace_unit:
                traced.append(u)
                summaries.append(summary)
                generate_s.append(gen_s)
            else:
                units.append(u)
                if s is not shared:
                    set_up_s.append(s.seconds)
        now = time.perf_counter()
        elapsed, last = now - start, now - unit_start
        # stop when a unit as long as the last one would end past the deadline
        if attempted >= MIN_UNITS and elapsed + last > args.seconds:
            break

    correct = failed == 0 and bool(units) and (tracer is None or bool(traced))
    if not correct:
        metrics = {}
    elif tracer is None:
        metrics = end_to_end(units, set_up_s)
    else:
        metrics = per_layer(units, traced, summaries, generate_s)
    report(w, units, metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit}
                                  for k, (v, unit) in metrics.items()}}))
    return 0 if correct else 1


def run_unit(w, seed, tracer, s=None):
    """One set-up, unless ``s`` is given, and one timed part; with a tracer,
    both are traced.

    Returns the set-up, the unit's result, the span summary of the timed
    part and the seconds spent generating the scenario (both None untraced).
    """
    if tracer is None:
        if s is None:
            s = workloads.set_up(w, seed)
        run_s, output = workloads.run_timed(w, s)
        return s, workloads.finish(w, s, run_s, output), None, None
    tracer.clear()
    tracer.install()
    try:
        s = workloads.set_up(w, seed)
        gen_s = tracer.summary()["spans"]["data.generate_synthetic"]["incl"]
        tracer.clear()
        run_s, output = workloads.run_timed(w, s)
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    return s, workloads.finish(w, s, run_s, output), summary, gen_s


def coverage_problems(w, summary) -> list[str]:
    recorded = summary["spans"]
    out = [f"traced {w.name} recorded no {name} call" for name in w.exercised
           if name not in recorded]
    out += [f"traced {w.name} recorded {recorded[name]['calls']} {name} calls, expected none"
            for name in w.bypassed if name in recorded]
    return out


def middle_mean(values) -> float:
    """Mean of the middle half: drops the lowest and highest quarter.

    The host's speed switches between a fast and a slow state for seconds
    at a time; a median of units then jumps from one state to the other
    with the share of slow units, where this mean moves with it smoothly
    and still ignores stray outliers.
    """
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(units, set_up_s) -> dict:
    return {
        "setup_s": (statistics.median(set_up_s), "s"),
        "run_s": (middle_mean(u.run_s for u in units), "s"),
        "samples_per_s": (middle_mean(u.work / u.run_s for u in units), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "upload_bytes_per_round": (float(statistics.median(u.upload_bytes for u in units)), "B"),
    }


def per_layer(units, traced, summaries, generate_s) -> dict:
    metrics = spans.layer_metrics(summaries, generate_s)
    untraced = middle_mean(u.run_s for u in units)
    traced_s = middle_mean(u.run_s for u in traced)
    metrics["trace.overhead"] = (traced_s / untraced - 1.0, "ratio")
    metrics["trace.coverage"] = (statistics.median(s["top_level_s"] / u.run_s
                                                   for s, u in zip(summaries, traced)), "ratio")
    return metrics


def report(w, units, metrics) -> None:
    """Human-readable lines before the JSON result."""
    if units:
        u = units[0]
        work = "training samples x epochs x rounds" if w.kind == "train" else "queries ranked"
        floors = "" if w.kind == "eval" else " (checked above the random-ranking floor)"
        print(f"{w.name}: {len(units)} untraced units, {u.work} {work} per unit, "
              f"parameters train in {u.param_dtype}")
        print(f"test_mrr {u.test_mrr:.4f} %{floors}")
        print(f"fingerprint {json.dumps(u.fingerprint, sort_keys=True)}")
        same = all(x.fingerprint == u.fingerprint for x in units)
        print(f"fingerprint identical across untraced units: {same}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
