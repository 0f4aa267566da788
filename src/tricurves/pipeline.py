"""Stage runners behind the CLI: config-driven, cached, reproducible.

Each stage works through one ``_Run``: artifact paths and headers (see
``artifacts``), the reuse rule, measured times and the stage's manifest.
Products -- samples, spectra, their summary, the density-of-states cache,
the curve model and points, and the spectra the verify checks read -- are
pure functions of the config: one whose header carries the run's config
hash is kept and listed with 0 s, any other is built and listed with its
measured time.  Reports -- the Lyapunov scan and the verify and compare
reports -- cross-check the prediction and are recomputed on every run.
The IDS cache, the curve model and verify's spectra are built only when
not current and always read back from disk, so a cold run and a rerun
use the same values.  Dense solves run in a bounded thread pool
(LAPACK releases the GIL): the spectrum stage's one file per (n, rep)
and verify's one file per (n, realization).  Every stage returns
``(manifest, lines to print, ok)``.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

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
from .ensembles import mean_log_coupling, realization
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
    CheckResult,
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
_IDS = os.path.join("ids", "ids_cache.txt")
_MODEL = os.path.join("curve", "curve_model.txt")
_ARC_BINS = 12  # arc-length bins per arc in the compare stage's histogram
# The weak-convergence panel's realization r is the ensemble's realization
# _PANEL_STRIDE * r (seed + 7919 r), apart from those the other checks use.
_PANEL_STRIDE = 7919


class _Run:
    """One stage's run in ``out_dir``: artifact paths and headers, the
    reuse rule, measured times and the manifest."""

    def __init__(self, cfg: ExperimentConfig, out_dir: str, stage: str):
        self.cfg = cfg
        self.out_dir = out_dir
        self.stage = stage
        self.manifest = RunManifest(config_hash=config_hash(cfg), tool_version=__version__)

    def path(self, rel: str) -> str:
        return os.path.join(self.out_dir, rel)

    def header(self, **extra) -> dict:
        return {"config_hash": self.manifest.config_hash, "seed": self.cfg.ensemble.seed, **extra}

    def is_current(self, rel: str) -> bool:
        return artifacts.is_current(self.path(rel), self.manifest.config_hash)

    @contextlib.contextmanager
    def timed(self, name: str, rel: str):
        """Yields the path to write ``rel`` to; lists it with the block's measured time."""
        os.makedirs(os.path.dirname(self.path(rel)), exist_ok=True)
        t0 = time.perf_counter()
        yield self.path(rel)
        self.manifest.add(name, rel, time.perf_counter() - t0)

    def product(self, name: str, rel: str, write) -> None:
        """The reuse rule: keep ``rel`` when current (listed with 0 s),
        otherwise ``write(path)`` builds it."""
        if self.is_current(rel):
            self.manifest.add(name, rel, 0.0)
            return
        with self.timed(name, rel) as path:
            write(path)

    def done(self, lines=None, ok: bool = True) -> tuple:
        self.manifest.write(self.path(f"manifest_{self.stage}.txt"))
        if lines is None:
            lines = [f"{self.stage}: {len(self.manifest.artifacts)} artifact(s) under {self.out_dir}"]
        return self.manifest, lines, ok


def _pairs(cfg: ExperimentConfig) -> list:
    return [(n, rep) for n in cfg.sizes for rep in range(cfg.reps)]


def _spectrum_csv_path(n: int, rep: int) -> str:
    return os.path.join("spectra", f"spectrum_n{n}_rep{rep}.csv")


def _verify_spectrum_path(n: int, r: int) -> str:
    return os.path.join("verify", f"spectrum_n{n}_r{r}.csv")


def _read_spectrum(path: str) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    return data[:, 0] + 1j * data[:, 1]


def _write_sample(run: _Run, n: int, rep: int, path: str) -> None:
    seq = realization(run.cfg.ensemble, n, rep)
    cols = ("sub", "sup", "diag") if seq.raw else ("xi", "eta", "q")
    arrays = [getattr(seq, c) for c in cols]
    rows = (f"{k}," + ",".join(_FMT % a[k] for a in arrays) + "\n" for k in range(n + 1))
    artifacts.write(path, run.header(n=n, rep=rep), ["k," + ",".join(cols) + "\n", *rows])


def stage_sample(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> tuple:
    """Write the coefficient realizations for every (n, rep)."""
    run = _Run(cfg, out_dir, "sample")
    for n, rep in _pairs(cfg):
        run.product(f"sample_n{n}_rep{rep}", os.path.join("samples", f"coeffs_n{n}_rep{rep}.csv"),
                    partial(_write_sample, run, n, rep))
    return run.done()


def _write_spectrum(run: _Run, n: int, r: int, key: str, path: str, **solve) -> None:
    """Dense spectrum of realization r at size n; the header names r as
    ``key``, and ``solve`` holds ``spectrum``'s options."""
    res = spectrum(build(realization(run.cfg.ensemble, n, r)), **solve)
    rows = (f"{_FMT % z.real},{_FMT % z.imag}\n" for z in res.eigenvalues)
    artifacts.write(path, run.header(n=n, **{key: r}, method=res.method, residual=f"{res.residual:.3e}"),
                    ["re,im\n", *rows])


def _build_pooled(run: _Run, products: list, jobs: int) -> None:
    """Applies the reuse rule to each (name, rel, write) product in a
    bounded thread pool (LAPACK releases the GIL); a current product
    solves nothing."""
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        list(pool.map(lambda product: run.product(*product), products))


def _write_summary(run: _Run, path: str) -> None:
    """Non-real counts per (n, rep), read back from the spectrum artifacts."""
    rows = ["n,rep,nonreal_count,nonreal_fraction,path\n"]
    for n, rep in _pairs(run.cfg):
        rel = _spectrum_csv_path(n, rep)
        nonreal = int(np.sum(np.abs(_read_spectrum(run.path(rel)).imag) > run.cfg.nonreal_tol))
        rows.append(f"{n},{rep},{nonreal},{_FMT % (nonreal / n)},{rel}\n")
    artifacts.write(path, run.header(nonreal_tol=run.cfg.nonreal_tol), rows)


def stage_spectrum(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> tuple:
    """Eigenvalue CSVs per (n, rep) plus a non-real count summary."""
    run = _Run(cfg, out_dir, "spectrum")
    _build_pooled(run, [(f"spectrum_n{n}_rep{rep}", _spectrum_csv_path(n, rep),
                         partial(_write_spectrum, run, n, rep, "rep")) for n, rep in _pairs(cfg)], jobs)
    run.product("summary", os.path.join("spectra", "summary.csv"), partial(_write_summary, run))
    _write_plot_template(out_dir)  # template is config-independent, not a manifest artifact
    return run.done()


def _ids(run: _Run):
    """The density-of-states cache, built only when it is not current;
    always read back from disk."""
    cfg = run.cfg

    def write(path):
        ids = estimate_ids(cfg.ensemble, cfg.ids_n, cfg.ids_reps, grid_points=cfg.ids_grid_points)
        save_ids(ids, path, **run.header())

    run.product("ids", _IDS, write)
    return load_ids(run.path(_IDS))


def _model(run: _Run) -> CurveModel:
    """The curve model and its points CSV, each built only when it is not
    current; the model is always loaded from disk.  The one caller of
    ``trace_curve``."""
    cfg = run.cfg
    ids = _ids(run)

    def write_model(path):
        model = trace_curve(ids, coupling_g(cfg.ensemble), mean_log_c=mean_log_coupling(cfg.ensemble),
                            x_points=cfg.curve_x_points, curve_tol=cfg.curve_tol)
        save_curve_model(model, path, **run.header())

    run.product("curve_model", _MODEL, write_model)
    model = load_curve_model(run.path(_MODEL), ids)

    def write_points(path):
        rows = ["arc,x,y,rho\n"]
        for i, arc in enumerate(model.arcs):
            rows += [f"{i},{_FMT % x},{_FMT % y},{_FMT % r}\n" for x, y, r in zip(arc.x, arc.y, arc.rho)]
        artifacts.write(path, run.header(g=_FMT % model.g, threshold=_FMT % model.threshold,
                                         mass=_FMT % model.total_mass()), rows)

    run.product("curve_points", os.path.join("curve", "curve_points.csv"), write_points)
    return model


def stage_ids(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> tuple:
    """Estimate (or reuse) the integrated density of states cache."""
    run = _Run(cfg, out_dir, "ids")
    _ids(run)
    return run.done()


def stage_lyapunov(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> tuple:
    """Scan of the Lyapunov exponent: transfer and Thouless routes at the
    configured probe points plus a Thouless profile along the real axis."""
    run = _Run(cfg, out_dir, "lyapunov")
    ids = _ids(run)
    mlc = mean_log_coupling(cfg.ensemble)
    with run.timed("lyapunov_scan", os.path.join("lyapunov", "lyapunov_scan.csv")) as path:
        rows = ["re,im,gamma_transfer,stderr,gamma_thouless,real_axis_caveat\n"]
        estimates = lyapunov_transfer(cfg.ensemble, cfg.thouless_n, cfg.thouless_reps, cfg.thouless_points)
        lo, hi = ids.support
        axis = np.linspace(lo - 0.5, hi + 0.5, 41)
        # one Thouless call for the probes and the real-axis profile; each
        # point's value does not depend on the others
        thouless = lyapunov_thouless(ids, mlc, np.concatenate([[est.z for est in estimates], axis]))
        for est, th in zip(estimates, thouless):
            rows.append(
                f"{_FMT % est.z.real},{_FMT % est.z.imag},{_FMT % est.gamma_hat},"
                f"{_FMT % est.stderr},{_FMT % th},{int(est.real_axis_caveat)}\n"
            )
        for x, th in zip(axis, thouless[len(estimates) :]):
            rows.append(f"{_FMT % x},0,nan,nan,{_FMT % th},1\n")
        artifacts.write(path, run.header(n=cfg.thouless_n, reps=cfg.thouless_reps), rows)
    return run.done()


def stage_curve(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> tuple:
    """Predicted limit object: coupling, curve, real support, density.

    An empty curve (g = 0 or |g| below onset) is a success with no arcs.
    """
    run = _Run(cfg, out_dir, "curve")
    _model(run)
    _write_plot_template(out_dir)
    return run.done()


def _verify_spectra(run: _Run, keys: list, jobs: int) -> dict:
    """(n, r) -> eigenvalues of realization r at size n.  Each is a
    product under ``verify/``, solved for eigenvalues only in the pool
    when not current, and always read back from disk."""
    keys = list(dict.fromkeys(keys))  # a key that two checks share is solved once
    _build_pooled(run, [(f"spectrum_n{n}_r{r}", _verify_spectrum_path(n, r),
                         partial(_write_spectrum, run, n, r, "r", want_vectors=False)) for n, r in keys], jobs)
    return {key: _read_spectrum(run.path(_verify_spectrum_path(*key))) for key in keys}


def stage_verify(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> tuple:
    """Full invariant battery against its budgets; ok iff every check passed.

    The exclusion and panel eigenvalues are products (``_verify_spectra``),
    so a rerun with the same config solves nothing; the checks themselves
    and the report are recomputed on every run."""
    run = _Run(cfg, out_dir, "verify")
    model = _model(run)
    exclusion = [(cfg.exclusion_n, r) for r in range(cfg.exclusion_reps)] if model.arcs else []
    panel = [[(n, _PANEL_STRIDE * r) for r in range(cfg.panel_reps)] for n in cfg.panel_sizes]
    eigs = _verify_spectra(run, exclusion + [key for keys in panel for key in keys], jobs)
    with run.timed("verify_report", "verify_report.txt") as path:
        results = [
            check_rank2_identity(cfg.ensemble),
            check_thouless_residual(
                cfg.ensemble, model.ids, cfg.thouless_points, cfg.thouless_n, cfg.thouless_reps, cfg.thouless_tol
            ),
            check_transfer_eigenvector_bounds(cfg.ensemble),
        ]
        if model.arcs:
            results.append(check_exclusion(model, cfg.rect_margin, [eigs[key] for key in exclusion]))
        panel_check, table = check_weak_convergence(model, [[eigs[key] for key in keys] for keys in panel])
        results.append(panel_check)
        results.append(check_mass(model, cfg.mass_tol))
        lines = [res.line() + "\n" for res in results]
        lines += [
            "\n# weak-convergence panel (per test function)\n",
            "n," + ",".join(f"f{i}" for i in range(len(table[0][2]))) + "\n",
            "predicted," + ",".join(_FMT % v for v in table[0][3]) + "\n",
        ]
        lines += [f"{n}," + ",".join(_FMT % v for v in empirical) + "\n" for n, err, empirical, _ in table]
        artifacts.write(path, run.header(), lines)
    return run.done([res.line() for res in results], all(res.passed for res in results))


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


def stage_compare(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> tuple:
    """Empirical spectra against the predicted limit: distances and
    histograms; ok iff every distance to the curve is within the Hausdorff
    budget.  Needs the spectrum stage's artifacts."""
    run = _Run(cfg, out_dir, "compare")
    for n, rep in _pairs(cfg):
        if not run.is_current(_spectrum_csv_path(n, rep)):
            raise ValidationError(f"spectrum artifact {run.path(_spectrum_csv_path(n, rep))} "
                                  "missing or from a different config")
    model = _model(run)
    with run.timed("compare_report", "compare_report.csv") as path:
        rows = []
        for n, rep in _pairs(cfg):
            eigs = _read_spectrum(run.path(_spectrum_csv_path(n, rep)))
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
        artifacts.write(
            path,
            run.header(hausdorff_budget=cfg.hausdorff_budget),
            ["n,rep,nonreal_fraction,hausdorff_to_curve,hausdorff_to_curve_or_axis,"
             "real_hist_max_err,arc_hist_max_err\n"]
            + [f"{row[0]},{row[1]}," + ",".join(_FMT % v for v in row[2:]) + "\n" for row in rows],
        )
    lines = [
        f"n={n} rep={rep}: nonreal {frac:.3f}, dist-to-curve {d_curve:.4g}, "
        f"dist-to-curve-or-axis {d_both:.4g}, real-hist {r_err:.4g}, arc-hist {a_err:.4g}"
        for n, rep, frac, d_curve, d_both, r_err, a_err in rows
    ]
    worst = max((row[3] for row in rows), default=0.0)
    budget = CheckResult("hausdorff-to-curve", worst <= cfg.hausdorff_budget, worst, cfg.hausdorff_budget)
    return run.done(lines + [budget.line()], budget.passed)


def _real_histogram_error(eigs: np.ndarray, model: CurveModel, tol: float) -> float:
    """Per-interval mass of real eigenvalues against the dN mass on Sigma."""
    real = np.sort(eigs[np.abs(eigs.imag) <= tol].real)
    n = eigs.size
    worst = 0.0
    for lo, hi in model.sigma:
        emp = np.sum((real >= lo) & (real <= hi)) / n
        pred = model.interval_mass(lo, hi)
        worst = max(worst, abs(emp - pred))
    return worst


def _arc_histogram_error(nonreal: np.ndarray, model: CurveModel, n: int) -> float:
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
        edges = np.linspace(0.0, cum[-1], _ARC_BINS + 1)
        seg_mass = 0.5 * (arc.rho[:-1] + arc.rho[1:]) * dl
        for b in range(_ARC_BINS):
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
