"""Invariant battery: measured values against explicit budgets.

Each check returns a CheckResult; the CLI verify command runs the full
battery and fails (exit 4) when any check misses its budget.  The checks
are deterministic given the ensemble seed.  The exclusion and panel
checks count and integrate eigenvalues that the caller solves (the
verify stage keeps them as products, see ``pipeline``).  The checks run
in array form: the rank-2 check and the eigenvector bounds each make one
transfer-kernel call over all their lanes and evaluate the lanes as
arrays, and the panel's test functions take arrays of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import CurveModel, default_bump_panel, limit_measure_integral
from .eigensolvers import characteristic_residual, empirical_integral, resolvent_corners
from .ensembles import EnsembleSpec, mean_log_coupling, realization
from .errors import ValidationError, VerificationFailure
from .operators import build, closed_product, eigenvector_slopes, transfer_products
from .spectral import IdsEstimate, lyapunov_thouless, lyapunov_transfer

__all__ = [
    "CheckResult",
    "Rectangle",
    "check_rank2_identity",
    "check_thouless_residual",
    "check_transfer_eigenvector_bounds",
    "exclusion_rectangles",
    "check_exclusion",
    "check_weak_convergence",
    "check_mass",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    budget: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{status}  {self.name}: measured {self.measured:.4g} vs budget {self.budget:.4g}{extra}"


# The sizes and budgets of the checks that no config key sets.
_RANK2_REALIZATIONS, _RANK2_N, _RANK2_Z_COUNT, _RANK2_TOL = 20, 30, 10, 1e-6
_BOUNDS_COUNT, _BOUNDS_N, _BOUNDS_SLACK = 100, 60, 1e-9
_RECTANGLE_GRID_POINTS = 13  # per side of the grid that verifies a rectangle's margin


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 8) + stream))


def check_rank2_identity(spec: EnsembleSpec) -> CheckResult:
    """|log|det(J - z)| - log|d| - log|det(H - z)|| over random non-real z;
    the transfer products of all realizations run as one kernel call, and
    each realization's residuals as one array call."""
    rng = _rng(spec.seed, 1)
    bundles, zs = [], []
    for r in range(_RANK2_REALIZATIONS):
        bundle = build(realization(spec, _RANK2_N, r))
        lo, hi = bundle.gershgorin()
        for _ in range(_RANK2_Z_COUNT):
            x = rng.uniform(lo, hi)
            y = rng.uniform(0.2, 2.0) * (1 if rng.uniform() < 0.5 else -1)
            zs.append(complex(x, y))
        bundles.append(bundle)
    states = transfer_products([b for b in bundles for _ in range(_RANK2_Z_COUNT)], zs)
    zs = np.asarray(zs)
    worst = 0.0
    for r, bundle in enumerate(bundles):
        lanes = slice(r * _RANK2_Z_COUNT, (r + 1) * _RANK2_Z_COUNT)
        residuals = characteristic_residual(bundle, resolvent_corners(bundle, zs[lanes], states[lanes]))
        worst = max(worst, float(np.max(residuals)))
    return CheckResult("rank2-determinant-identity", worst < _RANK2_TOL, worst, _RANK2_TOL)


def check_thouless_residual(
    spec: EnsembleSpec,
    ids: IdsEstimate,
    points: Sequence[complex],
    n: int,
    reps: int,
    tol: float,
) -> CheckResult:
    """|transfer estimate - Thouless route| at non-real probe points; the
    Thouless route runs as one array call over all of them."""
    mlc = mean_log_coupling(spec)
    thouless = lyapunov_thouless(ids, mlc, np.asarray(points, dtype=complex))
    worst = 0.0
    details = []
    for z, transfer, route in zip(points, lyapunov_transfer(spec, n, reps, points), thouless):
        gap = abs(transfer.gamma_hat - float(route))
        details.append(f"z={z}: {gap:.4g}")
        worst = max(worst, gap)
    return CheckResult("thouless-residual", worst < tol, worst, tol, "; ".join(details))


def check_transfer_eigenvector_bounds(spec: EnsembleSpec) -> CheckResult:
    """Fixed-point eigenvector bounds for the transfer product and its
    boundary-closed variant, for Im z in [0.1, 2]:

        plain   : Im u <= -Im z / c_n,       |v| <= c_0 / Im z
        boundary: Im u <= -beta Im z / c_n,  |v| <= c_0 / Im z

    measured is the worst violation (negative slack); bounds hold when it
    stays above -slack.
    """
    n = _BOUNDS_N
    rng = _rng(spec.seed, 2)
    bundles, zs = [], []
    for trial in range(_BOUNDS_COUNT):
        bundle = build(realization(spec, n, trial))
        lo, hi = bundle.gershgorin()
        bundles.append(bundle)
        zs.append(complex(rng.uniform(lo, hi), rng.uniform(0.1, 2.0)))
    y = np.imag(zs)
    c0, cn = np.array([(b.c[0], b.c[n]) for b in bundles]).T
    beta = np.array([b.beta for b in bundles])
    states = transfer_products(bundles, zs)
    u, v = eigenvector_slopes(states.matrix)
    ub, vb = eigenvector_slopes(closed_product(bundles, states).matrix)
    worst = min(
        np.min((-y / cn) - u.imag),          # Im u <= -Im z / c_n
        np.min((c0 / y) - np.abs(v)),        # |v| <= c_0 / Im z
        np.min(v.imag),                      # Im v >= 0
        np.min((-beta * y / cn) - ub.imag),
        np.min((c0 / y) - np.abs(vb)),
        np.min(vb.imag),
    )
    return CheckResult("transfer-eigenvector-bounds", worst > -_BOUNDS_SLACK, float(worst), -_BOUNDS_SLACK)


@dataclass(frozen=True)
class Rectangle:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def count_inside(self, eigenvalues: np.ndarray) -> int:
        e = np.asarray(eigenvalues)
        inside = (
            (e.real >= self.x_lo)
            & (e.real <= self.x_hi)
            & (e.imag >= self.y_lo)
            & (e.imag <= self.y_hi)
        )
        return int(np.sum(inside))

    def grid(self) -> np.ndarray:
        xs = np.linspace(self.x_lo, self.x_hi, _RECTANGLE_GRID_POINTS)
        ys = np.linspace(self.y_lo, self.y_hi, _RECTANGLE_GRID_POINTS)
        gx, gy = np.meshgrid(xs, ys)
        return (gx + 1j * gy).ravel()

    def __str__(self):
        return f"[{self.x_lo:.4g}, {self.x_hi:.4g}] x [{self.y_lo:.4g}, {self.y_hi:.4g}]"


def exclusion_rectangles(model: CurveModel, margin: float) -> tuple:
    """(K1, K2): a rectangle in the exterior domain off the real axis and
    one strictly inside the widest contour (straddling the real axis),
    both with the Lyapunov margin verified on an internal grid.

    Rectangles start from the contour peak and shrink geometrically until
    the margin holds; failure to find either raises VerificationFailure.
    """
    if not model.arcs:
        raise VerificationFailure("no contour available to place exclusion rectangles")
    abs_g = abs(model.g)
    arc = max(model.arcs, key=lambda a: a.a_prime - a.a)
    i_peak = int(np.argmax(arc.y))
    x0, y0 = float(arc.x[i_peak]), float(arc.y[i_peak])
    half_w = 0.25 * (arc.a_prime - arc.a)

    def settle(make, predicate):
        scale = 1.0
        for _ in range(24):
            rect = make(scale)
            gam = lyapunov_thouless(model.ids, model.mean_log_c, rect.grid())
            if predicate(gam):
                return rect
            scale *= 0.75
        raise VerificationFailure(f"no rectangle with margin {margin} found")

    k1 = settle(
        lambda s: Rectangle(x0 - half_w * s, x0 + half_w * s, y0 * (1 + 0.4 * s), y0 * (1 + 1.4 * s)),
        lambda gam: np.min(gam) >= abs_g + margin,
    )
    k2 = settle(
        lambda s: Rectangle(x0 - half_w * s, x0 + half_w * s, -0.45 * y0 * s, 0.45 * y0 * s),
        lambda gam: np.max(gam) <= abs_g - margin,
    )
    return k1, k2


def check_exclusion(model: CurveModel, margin: float, spectra: Sequence[np.ndarray]) -> CheckResult:
    """No eigenvalues inside margin-verified rectangles of the exterior
    (off-axis) and interior domains, over the spectra of one size (one
    array per realization)."""
    k1, k2 = exclusion_rectangles(model, margin)
    offenders = sum(k1.count_inside(eigs) + k2.count_inside(eigs) for eigs in spectra)
    return CheckResult(
        "eigenvalue-exclusion",
        offenders == 0,
        float(offenders),
        0.5,
        f"K1={k1}, K2={k2}, n={len(spectra[0])}, reps={len(spectra)}",
    )


def check_weak_convergence(model: CurveModel, panel: Sequence[Sequence[np.ndarray]]) -> tuple:
    """Max panel error |mean_i f(z_i) - predicted integral| per size,
    averaged over the realizations of that size (per-realization panels
    at sizes this large sit at the fluctuation floor; the average tracks
    the systematic finite-size drift).  ``panel`` holds one list of
    eigenvalue arrays per size, and the sizes must be at least two,
    strictly ascending.  Passes when the error decreases monotonically
    along the sizes.  Returns (CheckResult, table), one row per size."""
    sizes = [len(spectra[0]) for spectra in panel]
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError(f"the panel needs at least two ascending sizes, without repeats, got {sizes}")
    bumps = default_bump_panel(model)
    predicted = np.array([limit_measure_integral(model, f) for f in bumps])
    table = []
    errs = []
    for n, spectra in zip(sizes, panel):
        empirical = np.zeros(len(bumps))
        for eigs in spectra:
            empirical += [empirical_integral(eigs, f) for f in bumps]
        empirical /= len(spectra)
        err = float(np.max(np.abs(empirical - predicted)))
        errs.append(err)
        table.append((n, err, empirical, predicted))
    decreasing = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    detail = ", ".join(f"n={n}: {e:.4g}" for n, e, _, _ in table)
    return (
        CheckResult("weak-convergence-panel", decreasing, errs[-1], errs[0], detail),
        table,
    )


def check_mass(model: CurveModel, tol: float) -> CheckResult:
    """Total predicted mass (dN on Sigma plus both arc sheets) within tol of 1."""
    mass = model.total_mass()
    return CheckResult("predicted-total-mass", abs(mass - 1.0) <= tol, mass, tol,
                       f"sigma={model.sigma_mass():.4f}, arcs={model.arcs_mass():.4f}")
