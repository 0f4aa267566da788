"""The predicted limit of the eigenvalue clouds.

Given the reference density of states and the coupling g (half the mean
super/sub log-asymmetry), the non-real part of the limit spectrum is the
level set gamma(z) = |g| of the Lyapunov exponent, traced here by
safeguarded Newton in the imaginary direction: gamma is strictly
increasing in Im z >= 0 with d gamma / dy = Im m(z), m the Stieltjes
transform of dN, so one potential sweep yields the residual and its
slope.  The real part Sigma is the part of the support of dN where
the log-potential exceeds max(E xi, E eta), and the linear density along
the curve is |Stieltjes transform| / 2 pi.  Arcs are stored as polylines
of the upper half plane; the lower halves are implied by conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensembles import EnsembleSpec, analytic_means
from .errors import NumericalError, ValidationError
from . import artifacts
from .spectral import IdsEstimate, lyapunov_thouless, phi_dy_many, phi_many

__all__ = [
    "Arc",
    "CurveModel",
    "coupling_g",
    "trace_curve",
    "real_support_sigma",
    "limit_measure_integral",
    "gaussian_bump",
    "default_bump_panel",
    "save_curve_model",
    "load_curve_model",
]

_TIE_BAND = 1e-9  # grid values this close to the threshold belong to neither side
_MAX_SWEEPS = 110  # potential sweeps per height solve
_PANEL_BUMPS = 10  # bumps in the weak-convergence panel


@dataclass(frozen=True)
class Arc:
    """Upper-half-plane arc as a polyline (x ascending, y >= 0, y = 0 at
    both ends); rho holds the curve density at each vertex (endpoint
    values are one-sided limits, copied from the nearest interior vertex)."""

    x: np.ndarray
    y: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        for arr in (self.x, self.y, self.rho):
            arr.setflags(write=False)

    @property
    def a(self) -> float:
        return float(self.x[0])

    @property
    def a_prime(self) -> float:
        return float(self.x[-1])

    def points(self) -> np.ndarray:
        return self.x + 1j * self.y

    def mass(self) -> float:
        """Trapezoidal integral of rho over this arc's length (upper half)."""
        dl = np.abs(np.diff(self.points()))
        return float(np.sum(0.5 * (self.rho[:-1] + self.rho[1:]) * dl))


@dataclass(frozen=True)
class CurveModel:
    g: float
    threshold: float  # equipotential level max(E xi, E eta)
    mean_log_c: float
    arcs: tuple
    real_points: tuple
    sigma: tuple  # intervals (lo, hi) of the real component
    ids: IdsEstimate
    curve_tol: float

    def interval_mass(self, lo: float, hi: float) -> float:
        """dN-mass of the real interval [lo, hi]."""
        return _interp_n(self.ids, hi) - _interp_n(self.ids, lo)

    def sigma_mass(self) -> float:
        """dN-mass of the real component."""
        total = 0.0
        for lo, hi in self.sigma:
            total += self.interval_mass(lo, hi)
        return total

    def arcs_mass(self) -> float:
        """Density integral over all arcs, both conjugate halves."""
        return 2.0 * sum(arc.mass() for arc in self.arcs)

    def total_mass(self) -> float:
        return self.sigma_mass() + self.arcs_mass()


def _interp_n(ids: IdsEstimate, x: float) -> float:
    return float(np.interp(x, ids.grid, ids.values))


def coupling_g(spec: EnsembleSpec) -> float:
    """g = (E eta - E xi) / 2, exactly from the distribution parameters."""
    e_xi, e_eta = analytic_means(spec)
    return 0.5 * (e_eta - e_xi)


def _upper_height(mean_log_c: float, abs_g: float) -> float:
    """A height above the curve for every x: a unit real measure has
    potential >= log y at height y, so gamma > |g| once
    y > exp(|g| + E log c)."""
    return 1.5 * math.exp(abs_g + mean_log_c) + 1.0


def trace_curve(
    ids: IdsEstimate,
    g: float,
    mean_log_c: float = 0.0,
    x_points: int = 800,
    curve_tol: float = 1e-6,
) -> CurveModel:
    """Trace the level set gamma = |g| over a grid of x_points abscissae
    that pads the support of dN by 1.5 max(1, e^(|g| + mean_log_c)) on
    each side; group qualifying abscissae into arcs, solve each one's height
    by safeguarded Newton in y (d gamma / dy = Im m) to a residual below
    curve_tol, refine the real endpoints by bisection in x, and attach
    the curve density.  A height solve that stalls raises NumericalError.

    g = 0 returns a model with no arcs.  Isolated real solutions of
    gamma(x) = |g| are reported in real_points and carry no arc.
    """
    abs_g = abs(float(g))
    threshold = mean_log_c + abs_g
    sigma = real_support_sigma(ids, threshold)
    if abs_g == 0.0:
        return CurveModel(
            g=float(g), threshold=threshold, mean_log_c=mean_log_c,
            arcs=(), real_points=(), sigma=sigma, ids=ids, curve_tol=curve_tol,
        )
    pad = max(1.0, math.exp(abs_g + mean_log_c)) * 1.5
    lo, hi = ids.support
    x_grid = np.linspace(lo - pad, hi + pad, x_points)
    gam = lyapunov_thouless(ids, mean_log_c, x_grid)
    qualify = gam <= abs_g
    # never let the scan window clip the curve
    if qualify[0] or qualify[-1]:
        raise ValidationError("x grid too narrow: the level-set region touches its ends")
    arcs = []
    real_points = []
    y_hi = _upper_height(mean_log_c, abs_g)
    idx = np.where(qualify)[0]
    if idx.size:
        splits = np.where(np.diff(idx) > 1)[0]
        groups = np.split(idx, splits + 1)
    else:
        groups = []
    for grp in groups:
        a = _refine_endpoint(ids, mean_log_c, abs_g, x_grid[grp[0] - 1], x_grid[grp[0]])
        a_prime = _refine_endpoint(ids, mean_log_c, abs_g, x_grid[grp[-1] + 1], x_grid[grp[-1]])
        xs_inner = x_grid[grp]
        ys_inner, m_inner = _solve_heights(ids, mean_log_c, abs_g, xs_inner, y_hi, curve_tol)
        keep = ys_inner > 1e-9 * max(1.0, ids.support_radius)
        if not np.any(keep):
            # the level set touches the axis only: an isolated real solution
            real_points.append(0.5 * (a + a_prime))
            continue
        xs = np.concatenate(([a], xs_inner[keep], [a_prime]))
        ys = np.concatenate(([0.0], ys_inner[keep], [0.0]))
        rho_inner = np.abs(m_inner[keep]) / (2.0 * np.pi)
        rho = np.concatenate(([rho_inner[0]], rho_inner, [rho_inner[-1]]))
        arcs.append(Arc(x=xs, y=ys, rho=rho))
    return CurveModel(
        g=float(g), threshold=threshold, mean_log_c=mean_log_c,
        arcs=tuple(arcs), real_points=tuple(real_points), sigma=sigma,
        ids=ids, curve_tol=curve_tol,
    )


def _refine_endpoint(ids, mean_log_c, abs_g, x_out, x_in) -> float:
    """Bisect gamma(x) - |g| between a non-qualifying and a qualifying x."""
    g_out = lyapunov_thouless(ids, mean_log_c, x_out) - abs_g
    g_in = lyapunov_thouless(ids, mean_log_c, x_in) - abs_g
    if g_out <= 0.0:  # grid boundary already inside; nothing to refine
        return float(x_out)
    if g_in > 0.0:
        return float(x_in)
    for _ in range(60):
        mid = 0.5 * (x_out + x_in)
        val = lyapunov_thouless(ids, mean_log_c, mid) - abs_g
        if val > 0.0:
            x_out = mid
        else:
            x_in = mid
        if abs(x_out - x_in) < 1e-13 * max(1.0, abs(x_in)):
            break
    return float(0.5 * (x_out + x_in))


def _solve_heights(ids, mean_log_c, abs_g, xs, y_hi, curve_tol) -> tuple:
    """For each qualifying x, the unique y >= 0 with gamma(x + iy) = |g|,
    by safeguarded Newton in y, returned as (heights, m) with m the
    Stieltjes transform of dN at x + iy.  gamma is strictly increasing in
    y with d gamma / dy = Im m, and one potential sweep gives both.  Each
    sweep shrinks the bracket [0, y_hi] by the sign of the residual and
    takes the Newton step when it lands strictly inside the bracket, the
    midpoint otherwise.  An abscissa leaves the iteration at the first
    height whose residual is below curve_tol; that certified height and
    the m of the same sweep are returned."""
    heights = np.empty_like(xs)
    stieltjes = np.empty(xs.shape, dtype=complex)
    live = np.arange(xs.shape[0])
    lo = np.zeros_like(xs)
    hi = np.full_like(xs, y_hi)
    y = 0.5 * hi
    for sweep in range(1, _MAX_SWEEPS + 1):
        phi, m = phi_dy_many(ids, xs[live] + 1j * y)
        slope = m.imag
        resid = (phi - mean_log_c) - abs_g
        done = np.abs(resid) < curve_tol
        heights[live[done]] = y[done]
        stieltjes[live[done]] = m[done]
        if np.all(done):
            return heights, stieltjes
        if sweep == _MAX_SWEEPS:
            break
        go = ~done
        live, y, lo, hi, resid, slope = live[go], y[go], lo[go], hi[go], resid[go], slope[go]
        above = resid > 0.0
        hi = np.where(above, y, hi)
        lo = np.where(above, lo, y)
        step = y - resid / slope  # slope = Im m > 0 for y > 0
        y = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
    k = int(np.argmax(np.abs(resid)))
    raise NumericalError(
        f"curve height solve stalled: worst residual {abs(resid[k]):.3g} at x = {xs[live[k]]!r} "
        f"(tol {curve_tol:g}) after {sweep} sweeps"
    )


def real_support_sigma(ids: IdsEstimate, threshold: float) -> tuple:
    """Intervals of supp dN where Phi(lambda + i0) strictly exceeds the
    threshold.  Grid points within _TIE_BAND of the threshold are assigned
    to neither side (dropped) to avoid double counting with the contours."""
    dens = ids.cell_density
    mids = 0.5 * (ids.grid[:-1] + ids.grid[1:])
    phi_mid = phi_many(ids, mids.astype(complex))
    qualifies = (dens > 0.0) & (phi_mid > threshold + _TIE_BAND)
    intervals = []
    start = None
    for i, flag in enumerate(qualifies):
        if flag and start is None:
            start = ids.grid[i]
        elif not flag and start is not None:
            intervals.append((float(start), float(ids.grid[i])))
            start = None
    if start is not None:
        intervals.append((float(start), float(ids.grid[-1])))
    return tuple(intervals)


def limit_measure_integral(model: CurveModel, f: Callable[[complex], float]) -> float:
    """integral of f against the predicted limit measure: Stieltjes sums of
    f dN over Sigma plus trapezoidal arc-length quadrature of f rho along
    every arc and its conjugate."""
    ids = model.ids
    total = 0.0
    mids = 0.5 * (ids.grid[:-1] + ids.grid[1:])
    dn = np.diff(ids.values)
    for lo, hi in model.sigma:
        inside = (mids >= lo) & (mids <= hi)
        if np.any(inside):
            fvals = np.array([f(complex(x)) for x in mids[inside]])
            total += float(fvals @ dn[inside])
    for arc in model.arcs:
        pts = arc.points()
        for sheet in (pts, np.conj(pts)):
            fvals = np.array([f(complex(p)) for p in sheet])
            dl = np.abs(np.diff(sheet))
            total += float(np.sum(0.5 * (fvals[:-1] * arc.rho[:-1] + fvals[1:] * arc.rho[1:]) * dl))
    return total


# -- bounded continuous test functions ----------------------------------------

def gaussian_bump(center: complex, width: float) -> Callable[[complex], float]:
    center = complex(center)
    s2 = 2.0 * float(width) ** 2

    def f(z: complex) -> float:
        return math.exp(-abs(complex(z) - center) ** 2 / s2)

    return f


def default_bump_panel(model: CurveModel) -> list:
    """Deterministic panel of Gaussian bumps covering the support box of
    the limit measure: _PANEL_BUMPS - 4 bumps along the real support, 3 at
    curve height, one centered far off the support as a zero-mass control."""
    lo, hi = model.ids.support
    width = (hi - lo) / 8.0
    top = max((float(np.max(arc.y)) for arc in model.arcs), default=width)
    panel = []
    for x in np.linspace(lo, hi, _PANEL_BUMPS - 4):
        panel.append(gaussian_bump(complex(x, 0.0), width))
    for frac in (0.35, 0.7, 1.0):
        panel.append(gaussian_bump(complex(0.5 * (lo + hi), frac * top), width))
    panel.append(gaussian_bump(complex(hi + 6.0 * width, 3.0 * top + 6.0 * width), width))
    return panel


# -- model serialization --------------------------------------------------------

def save_curve_model(model: CurveModel, path, **header) -> None:
    """The model as diff-able text: the artifact header (``header`` first,
    then the model's scalars) and one row per sigma interval, isolated
    real point and arc vertex."""
    rows = [f"sigma {float(lo)!r} {float(hi)!r}\n" for lo, hi in model.sigma]
    rows += [f"realpoint {float(xp)!r}\n" for xp in model.real_points]
    for i, arc in enumerate(model.arcs):
        rows += [f"arc {i} {float(x)!r} {float(y)!r} {float(r)!r}\n" for x, y, r in zip(arc.x, arc.y, arc.rho)]
    artifacts.write(
        path,
        dict(header, g=repr(float(model.g)), threshold=repr(float(model.threshold)),
             mean_log_c=repr(float(model.mean_log_c)), curve_tol=repr(float(model.curve_tol)),
             ids_hash=model.ids.source_hash),
        rows,
    )


def load_curve_model(model_path, ids: IdsEstimate) -> CurveModel:
    header, body = artifacts.read(model_path)
    if "g" not in header:
        raise ValidationError(f"{model_path} is not a curve model file")
    if header["ids_hash"] != ids.source_hash:
        raise ValidationError("curve model and ids estimate come from different ensembles")
    sigma = []
    real_points = []
    arc_rows: dict = {}
    for line in body:
        parts = line.split()
        if parts[0] == "sigma":
            sigma.append((float(parts[1]), float(parts[2])))
        elif parts[0] == "realpoint":
            real_points.append(float(parts[1]))
        elif parts[0] == "arc":
            arc_rows.setdefault(int(parts[1]), []).append(tuple(float(p) for p in parts[2:]))
    arcs = []
    for i in sorted(arc_rows):
        rows = np.asarray(arc_rows[i])
        arcs.append(Arc(x=rows[:, 0].copy(), y=rows[:, 1].copy(), rho=rows[:, 2].copy()))
    return CurveModel(
        g=float(header["g"]),
        threshold=float(header["threshold"]),
        mean_log_c=float(header["mean_log_c"]),
        arcs=tuple(arcs),
        real_points=tuple(real_points),
        sigma=tuple(sigma),
        ids=ids,
        curve_tol=float(header["curve_tol"]),
    )
