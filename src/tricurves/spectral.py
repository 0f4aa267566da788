"""Limit-theory estimators for the symmetric reference problem.

The integrated density of states N is estimated by averaging Sturm counts
over realizations on a fixed grid and interpreted as piecewise linear
between grid nodes.  With a piecewise-linear N, both the log-potential

    Phi(z) = integral log|z - lambda| dN(lambda)

and the Stieltjes transform integral dN(lambda)/(lambda - z) have exact
per-cell primitives, so no singular quadrature is ever needed -- in
particular Phi(x + i0) on the real axis is computed in closed form per
cell via the primitive t log|t| - t.

The Lyapunov exponent is estimated two ways: directly from renormalized
transfer-matrix products (column-sum norm), and through the Thouless
route gamma(z) = Phi(z) - E log c_0, which is the one used on the real
axis where pathwise transfer estimates are unreliable (transfer estimates
at real z carry a warning flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import artifacts
from ._kernels import transfer_product_scaled
from .ensembles import EnsembleSpec, realization, spec_hash
from .errors import ValidationError
from .operators import build
from .eigensolvers import symmetric_eigencounts

__all__ = [
    "IdsEstimate",
    "LyapunovEstimate",
    "estimate_ids",
    "phi",
    "phi_many",
    "stieltjes",
    "stieltjes_many",
    "lyapunov_transfer",
    "lyapunov_thouless",
    "save_ids",
    "load_ids",
]


@dataclass(frozen=True)
class IdsEstimate:
    """Piecewise-linear estimate of the integrated density of states.

    values[i] = N(grid[i]), nondecreasing with N = 0 at the left end and
    N = 1 at the right end; support is the smallest grid-aligned interval
    outside which N is flat at 0 or 1.
    """

    grid: np.ndarray
    values: np.ndarray
    n_used: int
    realizations_used: int
    support: tuple
    source_hash: str = ""

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise ValidationError("grid and values must be equal-length 1-d arrays (>= 2 points)")
        if not np.all(np.diff(grid) > 0):
            raise ValidationError("grid must be strictly increasing")
        if np.any(np.diff(values) < 0) or abs(values[0]) > 0 or abs(values[-1] - 1.0) > 0:
            raise ValidationError("values must be nondecreasing with endpoints 0 and 1")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        grid.setflags(write=False)
        values.setflags(write=False)

    @property
    def cell_density(self) -> np.ndarray:
        """Constant density of dN on each grid cell."""
        return np.diff(self.values) / np.diff(self.grid)

    @property
    def support_radius(self) -> float:
        lo, hi = self.support
        return max(abs(lo), abs(hi), 0.5 * (hi - lo))


def estimate_ids(
    spec: EnsembleSpec,
    n: int,
    reps: int,
    grid: Optional[np.ndarray] = None,
    grid_points: int = 2048,
    pad: float = 0.05,
) -> IdsEstimate:
    """Average of rescaled eigenvalue counts over realizations 0..reps-1.

    When no grid is given, one of grid_points nodes spanning the joint
    Gershgorin interval padded by 5% is built; an explicit grid must be
    strictly increasing and cover the Gershgorin bounds of every sampled
    realization.
    """
    if n < 100:
        raise ValidationError(f"density-of-states estimation needs n >= 100, got {n}")
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    spec.require_light_tails("estimate_ids")
    bundles = [build(realization(spec, n, r)) for r in range(reps)]
    glo = min(b.gershgorin()[0] for b in bundles)
    ghi = max(b.gershgorin()[1] for b in bundles)
    if grid is None:
        half = 0.5 * (ghi - glo) * pad
        grid = np.linspace(glo - half, ghi + half, grid_points)
    else:
        grid = np.asarray(grid, dtype=float)
        if not np.all(np.diff(grid) > 0):
            raise ValidationError("grid must be strictly increasing")
        if grid[0] > glo or grid[-1] < ghi:
            raise ValidationError(
                f"grid [{grid[0]:.6g}, {grid[-1]:.6g}] does not cover the sampled "
                f"Gershgorin interval [{glo:.6g}, {ghi:.6g}]"
            )
    acc = np.zeros(grid.shape[0], dtype=float)
    for b in bundles:
        acc += symmetric_eigencounts(b, grid)
    values = acc / (reps * n)
    i_lo = int(np.argmax(values > 0.0))
    i_hi = int(values.shape[0] - 1 - np.argmax(values[::-1] < 1.0))
    support = (float(grid[max(i_lo - 1, 0)]), float(grid[min(i_hi + 1, grid.shape[0] - 1)]))
    return IdsEstimate(
        grid=grid,
        values=values,
        n_used=n,
        realizations_used=reps,
        support=support,
        source_hash=spec_hash(spec),
    )


# -- potential and Stieltjes transform ---------------------------------------

def phi_many(ids: IdsEstimate, zs: np.ndarray) -> np.ndarray:
    """Log-potential of dN at each z (any z, including real).

    Per cell [g_i, g_{i+1}] with constant density s_i the contribution is
    s_i * (F(g_{i+1}) - F(g_i)) with the exact primitive
    F(lam) = t log|t| - t for real z (t = lam - x) and
    F(lam) = t log(t^2+y^2)/2 - t + y atan(t/y) for y != 0.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    dens = ids.cell_density
    x = zs.real[:, None]
    y = zs.imag[:, None]
    t0 = ids.grid[None, :-1] - x
    t1 = ids.grid[None, 1:] - x
    out = np.empty(zs.shape[0], dtype=float)
    real_rows = np.abs(zs.imag) == 0.0

    def primitive_real(t):
        r = np.abs(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = t * np.log(r) - t
        return np.where(r == 0.0, 0.0, val)

    def primitive_cplx(t, yy):
        return 0.5 * t * np.log(t * t + yy * yy) - t + yy * np.arctan(t / yy)

    if np.any(real_rows):
        rr = np.where(real_rows)[0]
        seg = primitive_real(t1[rr]) - primitive_real(t0[rr])
        out[rr] = seg @ dens
    if np.any(~real_rows):
        cc = np.where(~real_rows)[0]
        yy = y[cc]
        seg = primitive_cplx(t1[cc], yy) - primitive_cplx(t0[cc], yy)
        out[cc] = seg @ dens
    return out


def phi(ids: IdsEstimate, z: complex) -> float:
    """Log-potential at a single point (see phi_many)."""
    return float(phi_many(ids, [z])[0])


def stieltjes_many(ids: IdsEstimate, zs: np.ndarray) -> np.ndarray:
    """integral dN(lambda) / (lambda - z) for non-real z, exactly per cell:
    each cell contributes s_i * [log(g_{i+1} - z) - log(g_i - z)] and the
    principal branch is safe because Im(lambda - z) has constant sign."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if np.any(zs.imag == 0.0):
        raise ValidationError("the Stieltjes transform needs Im z != 0")
    logs = np.log(ids.grid[None, :] - zs[:, None])
    return np.diff(logs, axis=1) @ ids.cell_density


def stieltjes(ids: IdsEstimate, z: complex) -> complex:
    return complex(stieltjes_many(ids, [z])[0])


# -- Lyapunov exponent --------------------------------------------------------

@dataclass(frozen=True)
class LyapunovEstimate:
    z: complex
    gamma_hat: float
    n_used: int
    stderr: float
    method: str  # "transfer" | "thouless"
    real_axis_caveat: bool = False


def lyapunov_transfer(spec: EnsembleSpec, n: int, reps: int, z: complex) -> LyapunovEstimate:
    """Mean over realizations of (1/n) log ||transfer product|| with the
    column-sum norm, over realizations 0..reps-1.

    At real z the pathwise limit need not match the averaged exponent;
    such estimates carry real_axis_caveat=True and the curve machinery
    never consumes them (it uses the Thouless route on the axis).
    """
    spec.require_light_tails("lyapunov_transfer")
    if n < 2:
        raise ValidationError("n must be >= 2")
    z = complex(z)
    gammas = np.empty(reps)
    for r in range(reps):
        seq = realization(spec, n, r)
        c = np.exp(0.5 * (seq.xi + seq.eta))
        log_scale, m = transfer_product_scaled(c, seq.q, z)
        norm = float(np.max(np.sum(np.abs(m), axis=0)))
        gammas[r] = (log_scale + math.log(norm)) / n
    stderr = float(np.std(gammas, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return LyapunovEstimate(
        z=z,
        gamma_hat=float(np.mean(gammas)),
        n_used=n,
        stderr=stderr,
        method="transfer",
        real_axis_caveat=(z.imag == 0.0),
    )


def lyapunov_thouless(ids: IdsEstimate, mean_log_c: float, z) -> float:
    """Thouless route gamma(z) = Phi(z) - E log c_0; valid on all of the
    complex plane including the real axis.  A float for scalar z, an
    array for an array of points."""
    vals = phi_many(ids, np.atleast_1d(np.asarray(z, dtype=complex))) - mean_log_c
    return float(vals[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else vals


# -- cache file ----------------------------------------------------------------

def save_ids(ids: IdsEstimate, path, **header) -> None:
    """Cache as diff-able text: the artifact header (``header`` first,
    then the estimate's metadata) and "lambda N" rows."""
    lo, hi = ids.support
    artifacts.write(
        path,
        dict(header, n_used=ids.n_used, realizations_used=ids.realizations_used,
             support=f"{float(lo)!r},{float(hi)!r}", source_hash=ids.source_hash),
        (f"{float(lam)!r} {float(val)!r}\n" for lam, val in zip(ids.grid, ids.values)),
    )


def load_ids(path, expect_hash: Optional[str] = None) -> IdsEstimate:
    header, body = artifacts.read(path)
    if "n_used" not in header:
        raise ValidationError(f"{path} is not an ids cache file")
    source = header["source_hash"]
    if expect_hash is not None and source != expect_hash:
        raise ValidationError(
            f"ids cache {path} was built for ensemble {source}, expected {expect_hash}"
        )
    pairs = [line.split() for line in body]
    return IdsEstimate(
        grid=np.array([float(lam) for lam, _ in pairs]),
        values=np.array([float(val) for _, val in pairs]),
        n_used=int(header["n_used"]),
        realizations_used=int(header["realizations_used"]),
        support=tuple(float(v) for v in header["support"].split(",")),
        source_hash=source,
    )
