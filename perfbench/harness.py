"""Runs a workload's CLI chain through ``tricurves.cli.main`` and measures it.

One cycle is a cold pass into a fresh output directory followed by a
rerun pass over the same directory.  After each pass the workload's
oracles run and every manifest is validated; after the rerun pass the
non-manifest artifacts are compared byte for byte with the cold pass.
An operation is one stage invocation; it fails when the stage exits
non-zero or when one of its outputs misses an oracle.

A traced cycle runs the same passes with ``tracer.Tracer`` patched into
the package (see ``LAYER_FUNCTIONS``) and stage spans opened here around
each CLI call, and yields the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

import tricurves
from tricurves import _kernels, cli, config, curves, eigensolvers, ensembles, operators, pipeline, spectral, verify
from tricurves.config import load_config

from . import workloads as wl
from .tracer import Tracer, aggregate

STAGES = ("sample", "spectrum", "ids", "lyapunov", "curve", "verify", "compare")
CHECKS = (
    "check_rank2_identity",
    "check_thouless_residual",
    "check_transfer_eigenvector_bounds",
    "check_exclusion",
    "check_weak_convergence",
    "check_mass",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _draws(seq, *args, **kwargs):
    arrays = (seq.xi, seq.eta, seq.q, seq.sub, seq.sup, seq.diag)
    return {"draws": sum(a.size for a in arrays if a is not None)}


def _check_failed(result, *args, **kwargs):
    check = result[0] if isinstance(result, tuple) else result
    return {"checks_failed": int(not check.passed)}


# (module, function, counters) -- each becomes the span "<module>.<function>"
LAYER_FUNCTIONS = [
    (ensembles, "sample", _draws),
    (operators, "build", None),
    (operators, "boundary_residual", None),
    (_kernels, "transfer_product_scaled", lambda r, *a, **k: {"steps": len(_arg(a, k, 0, "c")) - 1}),
    (_kernels, "sturm_counts",
     lambda r, *a, **k: {"steps": len(_arg(a, k, 0, "diag")) * len(_arg(a, k, 2, "lams"))}),
    (eigensolvers, "spectrum", lambda r, *a, **k: {"eigs": r.n, "n3_computed": r.n ** 3}),
    (eigensolvers, "rank2_det", None),
    (spectral, "phi_many",
     lambda r, *a, **k: {"cells": int(np.size(_arg(a, k, 1, "zs"))) * (len(_arg(a, k, 0, "ids").grid) - 1)}),
    (spectral, "stieltjes_many", None),
    (spectral, "estimate_ids", None),
    (spectral, "lyapunov_transfer", None),
    (curves, "trace_curve", None),
    (curves, "limit_measure_integral", None),
    (pipeline, "distance_to_arcs", None),
    (config, "config_hash", None),
] + [(verify, name, _check_failed) for name in CHECKS]


def _span_name(module, func: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{func}"


@dataclass
class PassResult:
    seconds: float
    stage_rcs: dict
    problems: list = field(default_factory=list)
    manifests_invalid: int = 0
    probes: list = field(default_factory=list)  # speed probe before each stage and after the last


@dataclass
class CycleResult:
    cold: PassResult
    rerun: PassResult
    layers: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.cold.seconds + self.rerun.seconds

    def failed_ops(self) -> list:
        """(pass, stage) of every failed operation in this cycle."""
        failed = []
        for label, p in (("cold", self.cold), ("rerun", self.rerun)):
            bad = {stage for stage, rc in p.stage_rcs.items() if rc != 0}
            bad |= {stage for stage, _ in p.problems}
            failed += [(label, stage) for stage in p.stage_rcs if stage in bad]
        return failed


def jobs_for(workload: wl.Workload) -> int:
    return len(os.sched_getaffinity(0)) if workload.pooled else 1


def _call_stage(argv: list) -> int:
    """One CLI invocation; its printed lines are captured so that the
    benchmark's own stdout ends with the result line."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:
        err.write(traceback.format_exc())
        rc = 1
    if rc != 0:
        sys.stderr.write(f"stage {argv[0]} exited {rc}:\n{out.getvalue()}{err.getvalue()}")
    return rc


def _snapshot(out_dir: str) -> dict:
    snap = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            st = os.stat(os.path.join(root, name))
            snap[os.path.relpath(os.path.join(root, name), out_dir)] = (st.st_mtime_ns, st.st_size, st.st_ino)
    return snap


def run_pass(workload, cfg_path, out_dir, jobs, tracer=None, io_counts=None, probe=None) -> PassResult:
    """One pass of the workload's chain.  ``probe``, if given, is called
    before each stage and after the last one; the pass time is the sum of
    the stage times and leaves the probes out."""
    rcs = {}
    probes = []
    seconds = 0.0
    for stage in workload.chain:
        if probe is not None:
            probes.append(probe())
        t0 = time.perf_counter()
        argv = [stage, "--config", cfg_path, "--out", out_dir, "--jobs", str(jobs)]
        if tracer is None:
            rcs[stage] = _call_stage(argv)
        else:
            before = _snapshot(out_dir) if os.path.isdir(out_dir) else {}
            with tracer.span(f"pipeline.stage.{stage}"):
                rcs[stage] = _call_stage(argv)
            _count_io(out_dir, stage, before, io_counts)
        seconds += time.perf_counter() - t0
    if probe is not None:
        probes.append(probe())
    return PassResult(seconds, rcs, probes=probes)


def _count_io(out_dir, stage, before, counts) -> None:
    """Files the stage created or rewrote, and manifest artifacts it reused."""
    after = _snapshot(out_dir)
    written = [rel for rel, st in after.items() if before.get(rel) != st]
    counts["written"] += len(written)
    counts["bytes_written"] += sum(after[rel][1] for rel in written)
    listed = wl.manifest_artifacts(os.path.join(out_dir, f"manifest_{stage}.txt"))
    counts["reused"] += sum(1 for rel in listed if rel in before and before[rel] == after.get(rel))


def run_cycle(workload, cfg_path, out_dir, traced=False, probe=None) -> CycleResult:
    """Cold pass into a fresh out_dir, then a rerun pass over it, each
    with the speed probe ``probe`` (see ``run_pass``)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = load_config(cfg_path)
    jobs = jobs_for(workload)
    tracer = Tracer() if traced else None
    io_counts = {"written": 0, "reused": 0, "bytes_written": 0}
    passes = []
    digests = []
    try:
        if tracer is not None:
            for module, func, count in LAYER_FUNCTIONS:
                tracer.instrument(module, func, _span_name(module, func), count)
        for _ in ("cold", "rerun"):
            p = run_pass(workload, cfg_path, out_dir, jobs, tracer, io_counts, probe)
            p.problems = wl.pass_problems(workload, cfg, out_dir)
            p.manifests_invalid = wl.manifests_invalid(out_dir)
            passes.append(p)
            digests.append(wl.artifact_digests(out_dir))
    finally:
        if tracer is not None:
            tracer.restore()
    cold, rerun = passes
    rerun.problems += wl.rerun_problems(workload, out_dir, digests[0], digests[1])
    for label, p in (("cold", cold), ("rerun", rerun)):
        for stage, message in p.problems:
            sys.stderr.write(f"{workload.name} {label} {stage}: {message}\n")
    result = CycleResult(cold, rerun)
    if tracer is not None:
        result.layers = layer_metrics(tracer.take(), jobs, io_counts, max(cold.manifests_invalid, rerun.manifests_invalid))
    return result


# -- per-layer metrics -----------------------------------------------------------

def layer_metrics(spans, jobs, io_counts, invalid) -> dict:
    """Per-layer metrics of one traced cycle, as {name: (value, unit)}."""
    agg = aggregate(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("ensembles.sample.calls", get("ensembles.sample", "calls"), "count")
    put("ensembles.sample.self_s", get("ensembles.sample", "self_s"), "s")
    put("ensembles.sample.draws", get("ensembles.sample", "draws"), "count")
    for func in ("build", "boundary_residual"):
        put(f"operators.{func}.calls", get(f"operators.{func}", "calls"), "count")
        put(f"operators.{func}.self_s", get(f"operators.{func}", "self_s"), "s")
    for func in ("transfer_product_scaled", "sturm_counts"):
        span = f"_kernels.{func}"
        steps, busy = get(span, "steps"), get(span, "self_s")
        # metric names must start with a letter: "_kernels" is reported as "kernels"
        put(f"kernels.{func}.calls", get(span, "calls"), "count")
        put(f"kernels.{func}.self_s", busy, "s")
        put(f"kernels.{func}.steps", steps, "count")
        put(f"kernels.{func}.steps_per_s", steps / busy if busy > 0 else 0.0, "1/s")
    put("eigensolvers.spectrum.calls", get("eigensolvers.spectrum", "calls"), "count")
    put("eigensolvers.spectrum.busy_s", get("eigensolvers.spectrum", "s"), "s")
    put("eigensolvers.spectrum.eigs", get("eigensolvers.spectrum", "eigs"), "count")
    put("eigensolvers.spectrum.n3_computed", get("eigensolvers.spectrum", "n3_computed"), "count")
    put("eigensolvers.spectrum.failed", get("eigensolvers.spectrum", "failed"), "count")
    put("eigensolvers.rank2_det.calls", get("eigensolvers.rank2_det", "calls"), "count")
    put("eigensolvers.rank2_det.self_s", get("eigensolvers.rank2_det", "self_s"), "s")
    put("spectral.phi_many.calls", get("spectral.phi_many", "calls"), "count")
    put("spectral.phi_many.self_s", get("spectral.phi_many", "self_s"), "s")
    put("spectral.phi_many.cells", get("spectral.phi_many", "cells"), "count")
    put("spectral.stieltjes_many.self_s", get("spectral.stieltjes_many", "self_s"), "s")
    put("spectral.estimate_ids.s", get("spectral.estimate_ids", "s"), "s")
    put("spectral.lyapunov_transfer.s", get("spectral.lyapunov_transfer", "s"), "s")
    for func in ("trace_curve", "limit_measure_integral"):
        put(f"curves.{func}.calls", get(f"curves.{func}", "calls"), "count")
        put(f"curves.{func}.s", get(f"curves.{func}", "s"), "s")
    for check in CHECKS:
        put(f"verify.{check}.s", get(f"verify.{check}", "s"), "s")
    put("verify.checks_failed", sum(get(f"verify.{c}", "checks_failed") for c in CHECKS), "count")
    for stage in STAGES:
        put(f"pipeline.stage.{stage}.s", get(f"pipeline.stage.{stage}", "s"), "s")
        put(f"pipeline.stage.{stage}.self_s", get(f"pipeline.stage.{stage}", "self_s"), "s")
    busy, pool_wall = _pool_busy(spans)
    put("pipeline.spectrum_pool.busy_s", busy, "s")
    put("pipeline.spectrum_pool.efficiency", busy / (jobs * pool_wall) if pool_wall > 0 else 0.0, "ratio")
    put("pipeline.artifacts.written", io_counts["written"], "count")
    put("pipeline.artifacts.reused", io_counts["reused"], "count")
    put("pipeline.bytes_written", io_counts["bytes_written"], "B")
    put("pipeline.distance_to_arcs.s", get("pipeline.distance_to_arcs", "s"), "s")
    put("pipeline.manifests_invalid", invalid, "count")
    put("config.config_hash.calls", get("config.config_hash", "calls"), "count")
    put("config.config_hash.s", get("config.config_hash", "s"), "s")
    return m


def _pool_busy(spans) -> tuple:
    """(busy seconds of spectrum-pool worker spans, wall seconds of the
    spectrum stage spans that ran them).  A worker span is one opened on
    another thread than the stage's, directly under the stage span."""
    busy = 0.0
    stages = {}
    for s in spans:
        parent = s.parent
        if parent is not None and parent.name == "pipeline.stage.spectrum" and s.thread != parent.thread:
            busy += s.duration
            stages[id(parent)] = parent.duration
    return busy, sum(stages.values())


# -- machine speed ----------------------------------------------------------------

class SpeedProbe:
    """Times a fixed computation that uses none of the package: a dense
    LAPACK eigensolve, a Python-level loop and elementwise numpy, the three
    kinds of work the workloads spend their time in.  Calling it returns
    the median of ``REPEATS`` timings, in seconds.

    The shared cores the benchmark runs on change speed by up to 1.5x on
    scales from a second to minutes, for every process on them.  Dividing
    a pass time by the mean of the probes taken between its stages removes
    much of that drift from the measurement, and none of a change in the
    package's own speed."""

    REPEATS = 3

    def __init__(self):
        rng = np.random.default_rng(20001003)
        self._matrix = rng.standard_normal((120, 120))
        self._vector = rng.standard_normal(100_000)

    def _once(self) -> float:
        t0 = time.perf_counter()
        np.linalg.eigvals(self._matrix)
        acc = 0
        for i in range(30_000):
            acc += i * i
        np.cumsum(np.sin(self._vector))
        return time.perf_counter() - t0

    def __call__(self) -> float:
        return float(statistics.median(self._once() for _ in range(self.REPEATS)))


# -- set-up time and environment -------------------------------------------------

SETUP_CODE = (
    "import sys\n"
    "import tricurves.cli\n"
    "from tricurves.config import load_config\n"
    "load_config(sys.argv[1])\n"
)


def setup_seconds(cfg_path: str, env: dict) -> float:
    """Wall time of a fresh interpreter that imports the CLI and loads the
    config: the start-up cost every CLI invocation pays."""
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child in sleeps of up to
    # 50 ms, which would quantize the measurement
    subprocess.run([sys.executable, "-c", SETUP_CODE, cfg_path], env=env, check=True)
    return time.perf_counter() - t0


PASS_CODE = (
    "import sys\n"
    "from tricurves import cli\n"
    "cfg_path, out_dir, jobs = sys.argv[1:4]\n"
    "for stage in sys.argv[4:]:\n"
    "    if cli.main([stage, '--config', cfg_path, '--out', out_dir, '--jobs', jobs]) != 0:\n"
    "        sys.exit(1)\n"
)


def fresh_pass(workload, cfg_path: str, out_dir: str, env: dict) -> tuple:
    """(problems, peak resident MiB) of a fresh interpreter that runs the
    workload's cold pass into a fresh out_dir; problems are (stage,
    message) pairs from a non-zero exit or the workload's oracles.  In a
    child process neither
    the benchmark's own memory nor what earlier passes left in the
    allocator counts, so the peak is the memory one run of the chain
    needs, and it repeats from run to run."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sys.executable, "-c", PASS_CODE, cfg_path, out_dir, str(jobs_for(workload)), *workload.chain]
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(child.pid, 0)
    except BaseException:
        child.kill()
        child.wait()
        raise
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        problems = [(workload.chain[0], f"fresh-process pass exited {child.returncode}")]
    else:
        problems = wl.pass_problems(workload, load_config(cfg_path), out_dir)
    return problems, usage.ru_maxrss / 1024.0


def environment(root: str, jobs: int, blas_threads: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tricurves": tricurves.__version__,
        "have_numba": bool(getattr(_kernels, "HAVE_NUMBA", False)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "jobs": jobs,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }


def median(values) -> float:
    return float(statistics.median(values))
