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
On disk the model is one table of arc vertices, with everything else in
its header (see ``save_curve_model``); with no arcs it has no rows.
Test functions, such as the Gaussian bumps of the weak-convergence
panel, are array callables: ``limit_measure_integral`` calls one once
per point set.
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


def limit_measure_integral(model: CurveModel, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """integral of f against the predicted limit measure: Stieltjes sums of
    f dN over Sigma plus trapezoidal arc-length quadrature of f rho along
    every arc and its conjugate.  f is an array callable, called once with
    Sigma's cell midpoints and once with each sheet of each arc; its value
    is broadcast to the points' shape, so a constant works too."""

    def values(points):
        return np.broadcast_to(f(points), points.shape)

    ids = model.ids
    mids = 0.5 * (ids.grid[:-1] + ids.grid[1:])
    inside = np.zeros(mids.shape, dtype=bool)
    for lo, hi in model.sigma:
        inside |= (mids >= lo) & (mids <= hi)
    total = float(values(mids[inside].astype(complex)) @ np.diff(ids.values)[inside])
    for arc in model.arcs:
        pts = arc.points()
        for sheet in (pts, np.conj(pts)):
            fvals = values(sheet)
            dl = np.abs(np.diff(sheet))
            total += float(np.sum(0.5 * (fvals[:-1] * arc.rho[:-1] + fvals[1:] * arc.rho[1:]) * dl))
    return total


# -- bounded continuous test functions ----------------------------------------
#
# A test function is an array callable: it maps an array of complex points
# to the array of its values there.

def gaussian_bump(center: complex, width: float) -> Callable[[np.ndarray], np.ndarray]:
    center = complex(center)
    s2 = 2.0 * float(width) ** 2

    def f(z):
        return np.exp(-np.abs(z - center) ** 2 / s2)

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

# the header fields of the model file that the model is rebuilt from
_MODEL_FIELDS = {"g": float, "threshold": float, "mean_log_c": float, "curve_tol": float,
                 "sigma": artifacts.pairs, "real_points": artifacts.floats}


def save_curve_model(model: CurveModel, path, **header) -> None:
    """The model as one table: ``header``, the model's scalars, IDS hash,
    sigma and real points, then one "arc,x,y,rho" row per arc vertex."""
    g, threshold, mass, mean_log_c, curve_tol = artifacts.cells(
        [model.g, model.threshold, model.total_mass(), model.mean_log_c, model.curve_tol])
    header = dict(header, g=g, threshold=threshold, mass=mass, mean_log_c=mean_log_c, curve_tol=curve_tol,
                  ids_hash=model.ids.source_hash, sigma=",".join(artifacts.cells(np.ravel(model.sigma))),
                  real_points=",".join(artifacts.cells(model.real_points)))
    arcs = model.arcs
    artifacts.write_table(path, header, {
        "arc": np.repeat(np.arange(len(arcs)), [arc.x.size for arc in arcs]),
        **{c: np.concatenate([getattr(arc, c) for arc in arcs] or [[]]) for c in ("x", "y", "rho")}})


def load_curve_model(path, ids: IdsEstimate) -> CurveModel:
    """The model ``save_curve_model`` wrote, on the density of states
    ``ids``; the caller checks that the file's ids_hash is ids'."""
    header, table = artifacts.read_table(path, {"arc": int, "x": float, "y": float, "rho": float}, _MODEL_FIELDS)
    ends = np.flatnonzero(np.diff(table["arc"])) + 1  # each arc's rows are consecutive
    arcs = [Arc(*cols) for cols in zip(*(np.split(table[c], ends) for c in ("x", "y", "rho"))) if cols[0].size]
    return CurveModel(arcs=tuple(arcs), ids=ids, **{name: header[name] for name in _MODEL_FIELDS})
