"""Benchmark of the tricurves CLI chains.

    python3 perfbench/run.py --workload {clouds,limit,certify} --seed N
                             --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's config is generated from the seed.  For S
seconds the benchmark repeats cycles of a cold pass (fresh output
directory) and a rerun pass (same directory) of the workload's CLI chain,
checks every pass against the workload's oracles, and prints one line per
metric followed by a JSON result line.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s``
(cold pass), ``rerun_s`` (rerun pass), ``setup_s`` (fresh interpreter
importing the CLI and loading the config) and ``peak_rss_mb`` (peak
resident memory of a fresh interpreter running one cold pass, measured
once at the start of the run, within its time budget).  The three
times are scaled to a reference machine speed: each measured interval is
multiplied by ``REF_PROBE_S`` over the mean of the speed probes
(``harness.SpeedProbe``) taken around it -- before each stage of a pass
and after its last, or just before and after a set-up sample.  The raw
times are printed too.  With
``--trace 1`` untraced and traced cycles alternate and the result holds
the per-layer metrics of the traced cycles plus the tracing overhead.

BLAS is pinned to one thread; only the ``clouds`` workload runs a pool,
with one job per available core.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # at least this many set-up samples per run
# The speed probe's median on the machine the bounds were tuned on (2-core
# Xeon under KVM, BLAS on one thread); times are reported at that speed.
REF_PROBE_S = 0.014
WORK_DIR = os.path.join(ROOT, ".perfbench_runs")
# the keys of workloads.WORKLOADS, which cannot be imported before BLAS is pinned
WORKLOAD_NAMES = ("clouds", "limit", "certify")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "tricurves", "__init__.py")):
        print(f"no tricurves sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy loads BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, ROOT]
    from perfbench import harness, workloads

    workload = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(WORK_DIR, f"{workload.name}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        cfg_path = os.path.join(run_dir, "experiment.ini")
        with open(cfg_path, "w") as fh:
            fh.write(workload.config_text(args.seed))
        return _measure(harness, workload, args, cfg_path, os.path.join(run_dir, "out"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run still uses it


def _measure(harness, workload, args, cfg_path, out_dir) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    # Cycles run until the next one would overrun the time budget; with
    # --trace 1 untraced and traced cycles alternate.  One set-up sample is
    # taken before each cycle, so that set-up time is sampled across the
    # run rather than at one moment of it.  Speed probes run between the
    # stages of every pass; a set-up sample is bracketed by the last probe
    # of the cycle before it and the first of the cycle after it.
    probe = harness.SpeedProbe()
    plain, traced, setup = [], [], []
    deadline = time.perf_counter() + args.seconds
    fresh_failed = 0
    if not args.trace:
        problems, peak_rss_mb = harness.fresh_pass(workload, cfg_path, out_dir, env)
        for stage, message in problems:
            print(f"{workload.name} fresh-process pass {stage}: {message}", file=sys.stderr)
        fresh_failed = int(bool(problems))
    last_probe = probe()
    while True:
        setup_raw = harness.setup_seconds(cfg_path, env)
        t0 = time.perf_counter()
        use_trace = bool(args.trace) and len(traced) < len(plain)
        cycle = harness.run_cycle(workload, cfg_path, out_dir, traced=use_trace, probe=probe)
        (traced if use_trace else plain).append(cycle)
        setup.append((setup_raw, [last_probe, cycle.cold.probes[0]]))
        last_probe = cycle.rerun.probes[-1]
        last = time.perf_counter() - t0
        enough = not args.trace or traced
        if enough and time.perf_counter() + last > deadline:
            break
    while len(setup) < SETUP_REPEATS:
        setup_raw = harness.setup_seconds(cfg_path, env)
        after = probe()
        setup.append((setup_raw, [last_probe, after]))
        last_probe = after
    cycles = plain + traced
    # the fresh-process pass of a --trace 0 run counts as one operation
    failed = sum(len(c.failed_ops()) for c in cycles) + fresh_failed
    attempted = sum(len(c.cold.stage_rcs) + len(c.rerun.stage_rcs) for c in cycles) + int(not args.trace)

    cold = [(c.cold.seconds, c.cold.probes) for c in plain]
    rerun = [(c.rerun.seconds, c.rerun.probes) for c in plain]
    probes = [p for c in cycles for p in c.cold.probes + c.rerun.probes]
    print(json.dumps({"environment": harness.environment(ROOT, harness.jobs_for(workload), BLAS_THREADS)}))
    print(f"workload {workload.name} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced cycles")
    print(f"speed probe s: median {harness.median(probes):.5f} over {len(probes)}, reference {REF_PROBE_S}")
    for label, samples in (("cold pass", cold), ("rerun pass", rerun), ("setup", setup)):
        print(f"{label} s, raw:    " + " ".join(f"{t:.4f}" for t, _ in samples))
        print(f"{label} s, scaled: " + " ".join(f"{_scaled(*s):.4f}" for s in samples))
    if args.trace:
        metrics = _layer_summary(harness, plain, traced)
    else:
        metrics = {
            "wall_s": (harness.median([_scaled(*s) for s in cold]), "s"),
            "rerun_s": (harness.median([_scaled(*s) for s in rerun]), "s"),
            "setup_s": (harness.median([_scaled(*s) for s in setup]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    manifests_invalid = max(max(c.cold.manifests_invalid, c.rerun.manifests_invalid) for c in cycles)
    print(f"ops_failed {failed} of {attempted} operations")
    print(f"pipeline.manifests_invalid {manifests_invalid} count")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _scaled(seconds, probes) -> float:
    """A measured interval at the reference speed, from the speed probes
    taken around it."""
    return seconds * REF_PROBE_S / (sum(probes) / len(probes))


def _layer_summary(harness, plain, traced) -> dict:
    """Median over traced cycles of each per-layer metric, and the tracing
    overhead: traced against untraced cycle time."""
    names = list(traced[0].layers)
    metrics = {}
    for name in names:
        unit = traced[0].layers[name][1]
        metrics[name] = (harness.median([c.layers[name][0] for c in traced]), unit)
    for name in names:
        values = {c.layers[name][0] for c in traced}
        if metrics[name][1] == "count" and len(values) > 1:
            print(f"count {name} differs between traced cycles: {sorted(values)}", file=sys.stderr)
    overhead = harness.median([c.seconds for c in traced]) / harness.median([c.seconds for c in plain]) - 1.0
    metrics["tracing.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
