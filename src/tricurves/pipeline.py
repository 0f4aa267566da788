"""Stage runners behind the CLI: config-driven, cached, reproducible.

Every artifact is diff-able text written through ``artifacts``: its
first line carries the config hash and seed, and a manifest per command
lists the artifacts with measured wall times.  Stages reuse a cached
artifact when its header carries the run's config hash, so pipelines are
restartable at file boundaries.  Per-(n, rep) jobs run in a bounded
thread pool (LAPACK releases the GIL) and results are merged in (n, rep)
order, so the merge is deterministic regardless of scheduling.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
import numpy as np

from . import __version__, artifacts
from .config import ExperimentConfig, RunManifest, config_hash
from .curves import (
    CurveModel,
    coupling_g,
    load_curve_model,
    save_curve_model,
    trace_curve,
)
from .eigensolvers import spectrum
from .ensembles import mean_log_coupling, sample
from .errors import ValidationError
from .operators import build
from .spectral import (
    estimate_ids,
    load_ids,
    lyapunov_thouless,
    lyapunov_transfer,
    save_ids,
)
from .verify import (
    check_exclusion,
    check_transfer_eigenvector_bounds,
    check_mass,
    check_rank2_identity,
    check_thouless_residual,
    check_weak_convergence,
)

__all__ = [
    "stage_sample",
    "stage_spectrum",
    "stage_ids",
    "stage_lyapunov",
    "stage_curve",
    "stage_verify",
    "stage_compare",
]

_FMT = "%.17g"


def _header(cfg: ExperimentConfig, **extra) -> dict:
    return {"config_hash": config_hash(cfg), "seed": cfg.ensemble.seed, **extra}


def _write_manifest(out_dir: str, cfg: ExperimentConfig, listed: dict, walltimes: dict, name: str):
    manifest = RunManifest(config_hash=config_hash(cfg), tool_version=__version__)
    for key, path in listed.items():
        manifest.add(key, path, walltimes.get(key))
    manifest.write(os.path.join(out_dir, f"manifest_{name}.txt"))
    return manifest


def _spectrum_csv_path(n: int, rep: int) -> str:
    return os.path.join("spectra", f"spectrum_n{n}_rep{rep}.csv")


def stage_sample(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> RunManifest:
    """Write the coefficient realizations for every (n, rep)."""
    os.makedirs(os.path.join(out_dir, "samples"), exist_ok=True)
    chash = config_hash(cfg)
    listed, times = {}, {}
    for n in cfg.sizes:
        for rep in range(cfg.reps):
            t0 = time.perf_counter()
            rel = os.path.join("samples", f"coeffs_n{n}_rep{rep}.csv")
            path = os.path.join(out_dir, rel)
            key = f"sample_n{n}_rep{rep}"
            if not artifacts.is_current(path, chash):
                seq = sample(replace(cfg.ensemble, seed=cfg.ensemble.seed + rep), n)
                cols = ("sub", "sup", "diag") if seq.raw else ("xi", "eta", "q")
                arrays = [getattr(seq, c) for c in cols]
                rows = (f"{k}," + ",".join(_FMT % a[k] for a in arrays) + "\n" for k in range(n + 1))
                artifacts.write(path, _header(cfg, n=n, rep=rep), ["k," + ",".join(cols) + "\n", *rows])
            listed[key] = rel
            times[key] = time.perf_counter() - t0
    return _write_manifest(out_dir, cfg, listed, times, "sample")


def _one_spectrum(cfg: ExperimentConfig, n: int, rep: int) -> tuple:
    """(spectrum, measured wall seconds) of one (n, rep) job."""
    t0 = time.perf_counter()
    seq = sample(replace(cfg.ensemble, seed=cfg.ensemble.seed + rep), n)
    res = spectrum(build(seq))
    return res, time.perf_counter() - t0


def stage_spectrum(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> RunManifest:
    """Eigenvalue CSVs per (n, rep) plus a non-real count summary."""
    os.makedirs(os.path.join(out_dir, "spectra"), exist_ok=True)
    chash = config_hash(cfg)
    pairs = [(n, rep) for n in cfg.sizes for rep in range(cfg.reps)]
    listed, times = {}, {}
    todo = [(n, rep) for (n, rep) in pairs
            if not artifacts.is_current(os.path.join(out_dir, _spectrum_csv_path(n, rep)), chash)]
    results = {}
    if todo:
        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            for (n, rep), done in zip(todo, pool.map(lambda p: _one_spectrum(cfg, *p), todo)):
                results[(n, rep)] = done
    summary_rows = []
    for n, rep in pairs:  # ordered merge
        rel = _spectrum_csv_path(n, rep)
        path = os.path.join(out_dir, rel)
        key = f"spectrum_n{n}_rep{rep}"
        if (n, rep) in results:
            res, times[key] = results[(n, rep)]
            rows = (f"{_FMT % z.real},{_FMT % z.imag}\n" for z in res.eigenvalues)
            artifacts.write(path, _header(cfg, n=n, rep=rep, method=res.method,
                                          residual=f"{res.residual:.3e}"), ["re,im\n", *rows])
            nonreal = int(np.sum(np.abs(res.eigenvalues.imag) > cfg.nonreal_tol))
        else:
            data = np.loadtxt(path, delimiter=",", skiprows=2)
            nonreal = int(np.sum(np.abs(data[:, 1]) > cfg.nonreal_tol))
            times[key] = 0.0
        summary_rows.append((n, rep, nonreal, nonreal / n, rel))
        listed[key] = rel
    rel = os.path.join("spectra", "summary.csv")
    artifacts.write(
        os.path.join(out_dir, rel),
        _header(cfg, nonreal_tol=cfg.nonreal_tol),
        ["n,rep,nonreal_count,nonreal_fraction,path\n"]
        + [f"{n},{rep},{cnt},{_FMT % frac},{p}\n" for n, rep, cnt, frac, p in summary_rows],
    )
    listed["summary"] = rel
    _write_plot_template(out_dir)  # template is config-independent, not a manifest artifact
    return _write_manifest(out_dir, cfg, listed, times, "spectrum")


_IDS = os.path.join("ids", "ids_cache.txt")


def stage_ids(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> RunManifest:
    """Estimate (or reuse) the integrated density of states cache."""
    t0 = time.perf_counter()
    _load_or_build_ids(cfg, out_dir)
    return _write_manifest(out_dir, cfg, {"ids": _IDS}, {"ids": time.perf_counter() - t0}, "ids")


def _load_or_build_ids(cfg: ExperimentConfig, out_dir: str):
    os.makedirs(os.path.join(out_dir, "ids"), exist_ok=True)
    path = os.path.join(out_dir, _IDS)
    if artifacts.is_current(path, config_hash(cfg)):
        return load_ids(path)
    ids = estimate_ids(cfg.ensemble, cfg.ids_n, cfg.ids_reps, grid_points=cfg.ids_grid_points)
    save_ids(ids, path, **_header(cfg))
    return ids


def stage_lyapunov(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> RunManifest:
    """Scan of the Lyapunov exponent: transfer and Thouless routes at the
    configured probe points plus a Thouless profile along the real axis."""
    os.makedirs(os.path.join(out_dir, "lyapunov"), exist_ok=True)
    ids = _load_or_build_ids(cfg, out_dir)
    mlc = mean_log_coupling(cfg.ensemble)
    rel = os.path.join("lyapunov", "lyapunov_scan.csv")
    t0 = time.perf_counter()
    rows = ["re,im,gamma_transfer,stderr,gamma_thouless,real_axis_caveat\n"]
    for z in cfg.thouless_points:
        est = lyapunov_transfer(cfg.ensemble, cfg.thouless_n, cfg.thouless_reps, z)
        th = lyapunov_thouless(ids, mlc, complex(z))
        rows.append(
            f"{_FMT % est.z.real},{_FMT % est.z.imag},{_FMT % est.gamma_hat},"
            f"{_FMT % est.stderr},{_FMT % th},{int(est.real_axis_caveat)}\n"
        )
    lo, hi = ids.support
    for x in np.linspace(lo - 0.5, hi + 0.5, 41):
        th = lyapunov_thouless(ids, mlc, complex(x))
        rows.append(f"{_FMT % x},0,nan,nan,{_FMT % th},1\n")
    artifacts.write(os.path.join(out_dir, rel), _header(cfg, n=cfg.thouless_n, reps=cfg.thouless_reps), rows)
    listed = {"lyapunov_scan": rel, "ids": _IDS}
    times = {"lyapunov_scan": time.perf_counter() - t0}
    return _write_manifest(out_dir, cfg, listed, times, "lyapunov")


_MODEL = os.path.join("curve", "curve_model.txt")


def stage_curve(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> RunManifest:
    """Predicted limit object: coupling, curve, real support, density.

    An empty curve (g = 0 or |g| below onset) is a success with no arcs.
    """
    os.makedirs(os.path.join(out_dir, "curve"), exist_ok=True)
    ids = _load_or_build_ids(cfg, out_dir)
    t0 = time.perf_counter()
    g = coupling_g(cfg.ensemble)
    model = trace_curve(
        ids,
        g,
        mean_log_c=mean_log_coupling(cfg.ensemble),
        x_points=cfg.curve_x_points,
        curve_tol=cfg.curve_tol,
    )
    save_curve_model(model, os.path.join(out_dir, _MODEL), **_header(cfg))
    rel_csv = os.path.join("curve", "curve_points.csv")
    rows = ["arc,x,y,rho\n"]
    for i, arc in enumerate(model.arcs):
        rows += [f"{i},{_FMT % x},{_FMT % y},{_FMT % r}\n" for x, y, r in zip(arc.x, arc.y, arc.rho)]
    artifacts.write(
        os.path.join(out_dir, rel_csv),
        _header(cfg, g=_FMT % g, threshold=_FMT % model.threshold, mass=_FMT % model.total_mass()),
        rows,
    )
    listed = {"curve_model": _MODEL, "curve_points": rel_csv, "ids": _IDS}
    times = {"curve_model": time.perf_counter() - t0}
    _write_plot_template(out_dir)
    return _write_manifest(out_dir, cfg, listed, times, "curve")


def load_model(cfg: ExperimentConfig, out_dir: str) -> CurveModel:
    path = os.path.join(out_dir, _MODEL)
    if not artifacts.is_current(path, config_hash(cfg)):
        raise ValidationError(
            f"curve model {path} missing or from a different config; run the curve stage first"
        )
    return load_curve_model(path, _load_or_build_ids(cfg, out_dir))


def stage_verify(cfg: ExperimentConfig, out_dir: str, jobs: int = 1):
    """Full invariant battery; returns (manifest, results, all_passed)."""
    os.makedirs(out_dir, exist_ok=True)
    ids = _load_or_build_ids(cfg, out_dir)
    g = coupling_g(cfg.ensemble)
    model = trace_curve(ids, g, mean_log_c=mean_log_coupling(cfg.ensemble),
                        x_points=cfg.curve_x_points, curve_tol=cfg.curve_tol)
    results = [
        check_rank2_identity(cfg.ensemble),
        check_thouless_residual(
            cfg.ensemble, ids, cfg.thouless_points, cfg.thouless_n, cfg.thouless_reps, cfg.thouless_tol
        ),
        check_transfer_eigenvector_bounds(cfg.ensemble),
    ]
    if model.arcs:
        results.append(check_exclusion(cfg.ensemble, model, cfg.rect_margin, cfg.exclusion_n, cfg.exclusion_reps))
    panel_check, table = check_weak_convergence(cfg.ensemble, model, cfg.panel_sizes, reps=cfg.panel_reps)
    results.append(panel_check)
    results.append(check_mass(model, cfg.mass_tol))
    rel = "verify_report.txt"
    lines = [res.line() + "\n" for res in results]
    lines += [
        "\n# weak-convergence panel (per test function)\n",
        "n," + ",".join(f"f{i}" for i in range(len(table[0][2]))) + "\n",
        "predicted," + ",".join(_FMT % v for v in table[0][3]) + "\n",
    ]
    lines += [f"{n}," + ",".join(_FMT % v for v in empirical) + "\n" for n, err, empirical, _ in table]
    artifacts.write(os.path.join(out_dir, rel), _header(cfg), lines)
    manifest = _write_manifest(out_dir, cfg, {"verify_report": rel}, {}, "verify")
    return manifest, results, all(r.passed for r in results)


# -- compare -------------------------------------------------------------------

def _point_segment_distance(p: np.ndarray, a: complex, b: complex) -> np.ndarray:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return np.abs(p - a)
    t = np.clip(((p - a) * np.conj(ab)).real / denom, 0.0, 1.0)
    return np.abs(p - (a + t * ab))


def distance_to_arcs(points: np.ndarray, model: CurveModel) -> np.ndarray:
    """Distance from each complex point to the traced curve (both sheets)."""
    points = np.asarray(points, complex)
    if not model.arcs:
        return np.full(points.shape, np.inf)
    best = np.full(points.shape, np.inf)
    for arc in model.arcs:
        for sheet in (arc.points(), np.conj(arc.points())):
            for a, b in zip(sheet[:-1], sheet[1:]):
                best = np.minimum(best, _point_segment_distance(points, a, b))
    return best


def stage_compare(cfg: ExperimentConfig, out_dir: str, jobs: int = 1):
    """Empirical spectra against the predicted limit: distances and
    histograms.  Needs the spectrum and curve stages' artifacts."""
    model = load_model(cfg, out_dir)
    chash = config_hash(cfg)
    rows = []
    for n in cfg.sizes:
        for rep in range(cfg.reps):
            path = os.path.join(out_dir, _spectrum_csv_path(n, rep))
            if not artifacts.is_current(path, chash):
                raise ValidationError(
                    f"spectrum artifact {path} missing or from a different config"
                )
            data = np.loadtxt(path, delimiter=",", skiprows=2)
            eigs = data[:, 0] + 1j * data[:, 1]
            nonreal = eigs[np.abs(eigs.imag) > cfg.nonreal_tol]
            if nonreal.size:
                d_curve = distance_to_arcs(nonreal, model)
                haus_curve = float(np.max(d_curve))
                haus_curve_or_axis = float(np.max(np.minimum(d_curve, np.abs(nonreal.imag))))
            else:
                haus_curve = haus_curve_or_axis = 0.0
            real_mass_err = _real_histogram_error(eigs, model, cfg.nonreal_tol)
            arc_hist_err = _arc_histogram_error(nonreal, model, n)
            rows.append((n, rep, nonreal.size / n, haus_curve, haus_curve_or_axis,
                         real_mass_err, arc_hist_err))
    rel = "compare_report.csv"
    artifacts.write(
        os.path.join(out_dir, rel),
        _header(cfg, hausdorff_budget=cfg.hausdorff_budget),
        ["n,rep,nonreal_fraction,hausdorff_to_curve,hausdorff_to_curve_or_axis,"
         "real_hist_max_err,arc_hist_max_err\n"]
        + [f"{row[0]},{row[1]}," + ",".join(_FMT % v for v in row[2:]) + "\n" for row in rows],
    )
    manifest = _write_manifest(out_dir, cfg, {"compare_report": rel}, {}, "compare")
    return manifest, rows


def _real_histogram_error(eigs: np.ndarray, model: CurveModel, tol: float) -> float:
    """Per-interval mass of real eigenvalues against the dN mass on Sigma."""
    real = np.sort(eigs[np.abs(eigs.imag) <= tol].real)
    n = eigs.size
    worst = 0.0
    for lo, hi in model.sigma:
        emp = np.sum((real >= lo) & (real <= hi)) / n
        pred = _sigma_interval_mass(model, lo, hi)
        worst = max(worst, abs(emp - pred))
    return worst


def _sigma_interval_mass(model: CurveModel, lo: float, hi: float) -> float:
    ids = model.ids
    return float(np.interp(hi, ids.grid, ids.values) - np.interp(lo, ids.grid, ids.values))


def _arc_histogram_error(nonreal: np.ndarray, model: CurveModel, n: int, bins_per_arc: int = 12) -> float:
    """Eigenvalues per arc-length bin (folded to the upper sheet, counted
    over both) against twice the density integral of the bin."""
    if not model.arcs or nonreal.size == 0:
        return 0.0
    folded = nonreal.real + 1j * np.abs(nonreal.imag)
    bins = []  # (arc, start_idx, end_idx, predicted_mass)
    centers = []
    for arc in model.arcs:
        pts = arc.points()
        dl = np.abs(np.diff(pts))
        cum = np.concatenate(([0.0], np.cumsum(dl)))
        edges = np.linspace(0.0, cum[-1], bins_per_arc + 1)
        seg_mass = 0.5 * (arc.rho[:-1] + arc.rho[1:]) * dl
        for b in range(bins_per_arc):
            inside = (cum[:-1] >= edges[b]) & (cum[:-1] < edges[b + 1])
            pred = 2.0 * float(np.sum(seg_mass[inside]))
            mid = np.interp(0.5 * (edges[b] + edges[b + 1]), cum, np.arange(cum.size))
            centers.append(pts[int(round(mid))])
            bins.append(pred)
    centers = np.asarray(centers)
    counts = np.zeros(len(bins))
    for z in folded:
        counts[int(np.argmin(np.abs(centers - z)))] += 1.0
    emp = counts / n
    return float(np.max(np.abs(emp - np.asarray(bins))))


_PLOT_TEMPLATE = '''"""Plot helper template (not part of the package).

Reads the CSV artifacts written next to this file.  Adapt freely; any
plotting engine works, matplotlib shown.
"""
import csv
import sys
from pathlib import Path

import matplotlib.pyplot as plt

out = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
fig, ax = plt.subplots()
for path in sorted(out.glob("spectra/spectrum_*.csv")):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
    xs = [float(r[0]) for r in rows]
    ys = [float(r[1]) for r in rows]
    ax.plot(xs, ys, ".", ms=2, alpha=0.6, label=path.stem)
curve = out / "curve" / "curve_points.csv"
if curve.exists():
    with open(curve) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
    xs = [float(r[1]) for r in rows]
    ys = [float(r[2]) for r in rows]
    ax.plot(xs, ys, "k-", lw=1)
    ax.plot(xs, [-y for y in ys], "k-", lw=1)
ax.set_xlabel("Re z")
ax.set_ylabel("Im z")
ax.legend(fontsize=6)
fig.savefig(out / "spectrum_plot.png", dpi=160)
print("wrote", out / "spectrum_plot.png")
'''


def _write_plot_template(out_dir: str) -> None:
    path = os.path.join(out_dir, "plot_template.py")
    if not os.path.exists(path):
        with artifacts.atomic_write(path) as fh:
            fh.write(_PLOT_TEMPLATE)
