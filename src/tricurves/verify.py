"""Invariant battery: measured values against explicit budgets.

Each check returns a CheckResult; the CLI verify command runs the full
battery and fails (exit 4) when any check misses its budget.  The checks
are deterministic given the ensemble seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curves import CurveModel, default_bump_panel, limit_measure_integral
from .eigensolvers import (
    characteristic_residual,
    spectrum,
)
from .ensembles import EnsembleSpec, mean_log_coupling, realization
from .errors import VerificationFailure
from .operators import boundary_matrix, build, transfer_product, eigenvector_slopes
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


# The weak-convergence panel's realization r is the ensemble's realization
# _PANEL_STRIDE * r (seed + 7919 r), apart from those the other checks use.
_PANEL_STRIDE = 7919


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 8) + stream))


def check_rank2_identity(
    spec: EnsembleSpec,
    realizations: int = 20,
    n: int = 30,
    z_count: int = 10,
    tol: float = 1e-6,
) -> CheckResult:
    """|log|det(J - z)| - log|d| - log|det(H - z)|| over random non-real z."""
    rng = _rng(spec.seed, 1)
    worst = 0.0
    for r in range(realizations):
        bundle = build(realization(spec, n, r))
        lo, hi = bundle.gershgorin()
        for _ in range(z_count):
            x = rng.uniform(lo, hi)
            y = rng.uniform(0.2, 2.0) * (1 if rng.uniform() < 0.5 else -1)
            worst = max(worst, characteristic_residual(bundle, complex(x, y)))
    return CheckResult("rank2-determinant-identity", worst < tol, worst, tol)


def check_thouless_residual(
    spec: EnsembleSpec,
    ids: IdsEstimate,
    points: Sequence[complex],
    n: int,
    reps: int,
    tol: float,
) -> CheckResult:
    """|transfer estimate - Thouless route| at non-real probe points."""
    mlc = mean_log_coupling(spec)
    worst = 0.0
    details = []
    for z in points:
        transfer = lyapunov_transfer(spec, n, reps, z)
        thouless = lyapunov_thouless(ids, mlc, complex(z))
        gap = abs(transfer.gamma_hat - thouless)
        details.append(f"z={z}: {gap:.4g}")
        worst = max(worst, gap)
    return CheckResult("thouless-residual", worst < tol, worst, tol, "; ".join(details))


def check_transfer_eigenvector_bounds(
    spec: EnsembleSpec,
    count: int = 100,
    n: int = 60,
    slack: float = 1e-9,
) -> CheckResult:
    """Fixed-point eigenvector bounds for the transfer product and its
    boundary-closed variant, for Im z in [0.1, 2]:

        plain   : Im u <= -Im z / c_n,       |v| <= c_0 / Im z
        boundary: Im u <= -beta Im z / c_n,  |v| <= c_0 / Im z

    measured is the worst violation (negative slack); bounds hold when it
    stays above -slack.
    """
    rng = _rng(spec.seed, 2)
    worst = math.inf
    for trial in range(count):
        bundle = build(realization(spec, n, trial))
        lo, hi = bundle.gershgorin()
        z = complex(rng.uniform(lo, hi), rng.uniform(0.1, 2.0))
        c0, cn = bundle.c[0], bundle.c[n]
        state = transfer_product(bundle, z)
        u, v = eigenvector_slopes(state.matrix)
        worst = min(worst, (-z.imag / cn) - u.imag)          # Im u <= -Im z / c_n
        worst = min(worst, (c0 / z.imag) - abs(v))           # |v| <= c_0 / Im z
        worst = min(worst, v.imag)                           # Im v >= 0
        bmat, _ = boundary_matrix(bundle, z)
        ub, vb = eigenvector_slopes(bmat)
        worst = min(worst, (-bundle.beta * z.imag / cn) - ub.imag)
        worst = min(worst, (c0 / z.imag) - abs(vb))
        worst = min(worst, vb.imag)
    return CheckResult("transfer-eigenvector-bounds", worst > -slack, worst, -slack)


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

    def grid(self, points: int = 13) -> np.ndarray:
        xs = np.linspace(self.x_lo, self.x_hi, points)
        ys = np.linspace(self.y_lo, self.y_hi, points)
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


def check_exclusion(
    spec: EnsembleSpec,
    model: CurveModel,
    margin: float,
    n: int,
    reps: int,
) -> CheckResult:
    """No eigenvalues inside margin-verified rectangles of the exterior
    (off-axis) and interior domains."""
    k1, k2 = exclusion_rectangles(model, margin)
    offenders = 0
    for r in range(reps):
        result = spectrum(build(realization(spec, n, r)))
        offenders += k1.count_inside(result.eigenvalues)
        offenders += k2.count_inside(result.eigenvalues)
    return CheckResult(
        "eigenvalue-exclusion",
        offenders == 0,
        float(offenders),
        0.5,
        f"K1={k1}, K2={k2}, n={n}, reps={reps}",
    )


def check_weak_convergence(
    spec: EnsembleSpec,
    model: CurveModel,
    sizes: Sequence[int],
    bumps: Optional[list] = None,
    reps: int = 8,
) -> tuple:
    """Max panel error |mean_i f(z_i) - predicted integral| per size,
    averaged over reps realizations (per-realization panels at sizes this
    large sit at the fluctuation floor; the average tracks the systematic
    finite-size drift).  Passes when the error decreases monotonically
    along the size list.  Returns (CheckResult, table), one row per size."""
    if bumps is None:
        bumps = default_bump_panel(model)
    predicted = np.array([limit_measure_integral(model, f) for f in bumps])
    table = []
    errs = []
    for n in sizes:
        empirical = np.zeros(len(bumps))
        for r in range(reps):
            result = spectrum(build(realization(spec, n, _PANEL_STRIDE * r)), want_vectors=False)
            empirical += [result.empirical_integral(f) for f in bumps]
        empirical /= reps
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
