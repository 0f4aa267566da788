"""Limit-theory estimators for the symmetric reference problem.

The integrated density of states N is estimated by averaging Sturm counts
over realizations on a fixed grid and interpreted as piecewise linear
between grid nodes.  With a piecewise-linear N, both the log-potential

    Phi(z) = integral log|z - lambda| dN(lambda)

and the Stieltjes transform integral dN(lambda)/(lambda - z) have exact
per-cell primitives, so no singular quadrature is ever needed -- in
particular Phi(x + i0) on the real axis is computed in closed form per
cell via the primitive t log|t| - t.

The evaluators take an array of points of any shape and return their
values in that shape (0-d for one point).  They run the points in fixed
blocks of rows, each holding a private budget of grid nodes over the
grid size (32 points at 1024 nodes), in one set of work arrays per
call, so their working set is O(block x grid) however many points a
call passes.  A point's value does not depend on the other points of
its block or call, so neither the blocks nor the shape change a bit of
the result.

The Lyapunov exponent is estimated two ways: directly from renormalized
transfer-matrix products (column-sum norm), and through the Thouless
route gamma(z) = Phi(z) - E log c_0, which is the one used on the real
axis where pathwise transfer estimates are unreliable (transfer estimates
at real z carry a warning flag).
The density-of-states cache is a table of "lambda,N" rows, with the
estimate's metadata in its header (see ``save_ids``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .ensembles import EnsembleSpec, realization, spec_hash
from .errors import ValidationError
from .operators import build, column_sum_norm, transfer_product
from .eigensolvers import symmetric_eigencounts

__all__ = [
    "IdsEstimate",
    "LyapunovEstimate",
    "estimate_ids",
    "phi_many",
    "phi_dy_many",
    "lyapunov_transfer",
    "lyapunov_thouless",
    "save_ids",
    "load_ids",
]


_GRID_PAD = 0.05  # the IDS grid is this much wider than the Gershgorin interval, half on each side


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


def estimate_ids(spec: EnsembleSpec, n: int, reps: int, grid_points: int = 2048) -> IdsEstimate:
    """Average of rescaled eigenvalue counts over realizations 0..reps-1,
    on a grid of grid_points nodes spanning the joint Gershgorin interval
    of the realizations, padded by 5% of its width."""
    if n < 100:
        raise ValidationError(f"density-of-states estimation needs n >= 100, got {n}")
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    spec.require_light_tails("estimate_ids")
    bundles = [build(realization(spec, n, r)) for r in range(reps)]
    bounds = [b.gershgorin() for b in bundles]
    glo = min(lo for lo, _ in bounds)
    ghi = max(hi for _, hi in bounds)
    half = 0.5 * (ghi - glo) * _GRID_PAD
    grid = np.linspace(glo - half, ghi + half, grid_points)
    values = symmetric_eigencounts(bundles, grid).sum(axis=0) / (reps * n)
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

# Rows (points) per block of the potential evaluators: _BLOCK_NODES over
# the grid size, at least one.  A call allocates its (rows x grid) work
# arrays once, at most this many nodes each (32 rows, 256 KiB of float64,
# at 1024 nodes), and every block writes into them with out=: a fresh
# temporary per operation and block cost more than its arithmetic.
_BLOCK_NODES = 1 << 15


def _row_blocks(ids: IdsEstimate, count: int):
    """Slices of consecutive rows, a fixed number per block, over range(count)."""
    step = max(1, _BLOCK_NODES // ids.grid.shape[0])
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def _work_arrays(ids: IdsEstimate, count: int) -> tuple:
    """Four float (rows x grid) work arrays for blocks of up to count
    rows.  A block of r rows uses the first r rows of each, which are
    contiguous, as fresh arrays would be.  Four arrays, not one stack of
    four: each is no larger than the temporaries they replace, since
    freeing a larger block raises glibc's mmap threshold for the rest of
    the process and so changes the cost of every later allocation."""
    nodes = ids.grid.shape[0]
    rows = min(count, max(1, _BLOCK_NODES // nodes))
    return tuple(np.empty((rows, nodes)) for _ in range(4))


def _real_primitive(ids: IdsEstimate, xs: np.ndarray, t, f, zero) -> None:
    """Writes into f: F(lam) = t log|t| - t (0 at t = 0) at every grid
    node for each real x, one row per x, with t = lam - x, also written;
    zero is a boolean work array of their shape."""
    np.subtract(ids.grid, xs[:, None], out=t)
    np.abs(t, out=f)
    np.equal(f, 0.0, out=zero)
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) at grid nodes, masked below
        np.log(f, out=f)
        np.multiply(t, f, out=f)
        np.subtract(f, t, out=f)
    np.copyto(f, 0.0, where=zero)


def _complex_primitive(ids: IdsEstimate, zs: np.ndarray, t, half_log, atan, f) -> None:
    """Writes into half_log, atan and f: log|t - iy|, atan(t/y) and the
    primitive F(lam) = t log(t^2+y^2)/2 - t + y atan(t/y), whose
    y-derivative is atan(t/y), at every grid node for each non-real z,
    one row per z, with t = lam - x; t is left holding y atan(t/y)."""
    y = zs.imag[:, None]
    np.subtract(ids.grid, zs.real[:, None], out=t)
    np.multiply(t, t, out=half_log)
    np.add(half_log, y * y, out=half_log)
    np.log(half_log, out=half_log)
    np.multiply(0.5, half_log, out=half_log)
    np.divide(t, y, out=atan)
    np.arctan(atan, out=atan)
    np.multiply(t, half_log, out=f)
    np.subtract(f, t, out=f)
    np.multiply(y, atan, out=t)
    np.add(f, t, out=f)


def _cell_sums(f: np.ndarray, dens: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """sum_i dens_i (f[:, i+1] - f[:, i]) for each row of node values f,
    with the differences written into cells, a work array of f's shape.

    The differences are taken along the flattened rows, one contiguous
    loop where a 2-D difference runs several times slower; the
    difference across each row end lands in the last column, which the
    sum leaves out.  einsum, not a BLAS product: BLAS splits the sum by
    how many rows share the call, so a row's last bits would depend on
    its batch.  Here each row gets the same result alone or in any
    batch."""
    flat = f.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=cells.reshape(-1)[:-1])
    return np.einsum("ij,j->i", cells[:, :-1], dens)


def phi_many(ids: IdsEstimate, zs: np.ndarray) -> np.ndarray:
    """Log-potential of dN at each z (any z, including real).

    Per cell [g_i, g_{i+1}] with constant density s_i the contribution is
    s_i * (F(g_{i+1}) - F(g_i)) with the exact primitive
    F(lam) = t log|t| - t for real z (t = lam - x) and
    F(lam) = t log(t^2+y^2)/2 - t + y atan(t/y) for y != 0.
    F is evaluated once per grid node and differenced along the grid,
    and each z's value does not depend on the other points of the call.
    The real and the non-real points are evaluated in fixed blocks of
    rows (see _row_blocks) in one set of work arrays, so the working set
    is O(block x grid) for any number of points.  The result has the
    shape of zs.
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    dens = ids.cell_density
    out = np.empty(flat.shape, dtype=float)
    real = np.flatnonzero(flat.imag == 0.0)
    nonreal = np.flatnonzero(flat.imag != 0.0)
    work = _work_arrays(ids, max(real.shape[0], nonreal.shape[0]))
    zero = np.empty(work[0].shape, dtype=bool)
    # t is free once a block's primitive is formed: it takes the cell differences
    for block in _row_blocks(ids, real.shape[0]):
        t, f, _, _ = (a[: block.stop - block.start] for a in work)
        _real_primitive(ids, flat.real[real[block]], t, f, zero[: t.shape[0]])
        out[real[block]] = _cell_sums(f, dens, t)
    for block in _row_blocks(ids, nonreal.shape[0]):
        t, half_log, atan, f = (a[: block.stop - block.start] for a in work)
        _complex_primitive(ids, flat[nonreal[block]], t, half_log, atan, f)
        out[nonreal[block]] = _cell_sums(f, dens, t)
    return out.reshape(zs.shape)


def phi_dy_many(ids: IdsEstimate, zs: np.ndarray) -> tuple:
    """(Phi, m) at each z with Im z > 0, from one evaluation of the
    primitive per grid node, with m = integral dN(lambda) / (lambda - z)
    the Stieltjes transform.  Per cell, log(lambda - z) moves by the
    difference of log|t - iy| in its real part and of atan(t/y) in its
    imaginary part (arg(lambda - z) and atan(t/y) differ by a constant
    for each z), so dPhi/dy = Im m.  The two parts of m are summed as
    separate real sums: a complex sum would reorder the sum of Im m, the
    slope of the curve-height sweeps.  Points are evaluated in fixed
    blocks of rows in one set of work arrays, as in phi_many, so the
    working set is O(block x grid).  Both arrays have the shape of zs."""
    zs = np.asarray(zs, dtype=complex)
    if np.any(zs.imag <= 0.0):
        raise ValidationError("phi_dy_many needs Im z > 0")
    flat = zs.ravel()
    dens = ids.cell_density
    phi = np.empty(flat.shape, dtype=float)
    m = np.empty(flat.shape, dtype=complex)
    work = _work_arrays(ids, flat.shape[0])
    for block in _row_blocks(ids, flat.shape[0]):
        t, half_log, atan, f = (a[: block.stop - block.start] for a in work)
        _complex_primitive(ids, flat[block], t, half_log, atan, f)
        phi[block] = _cell_sums(f, dens, t)
        m[block] = _cell_sums(half_log, dens, t) + 1j * _cell_sums(atan, dens, t)
    return phi.reshape(zs.shape), m.reshape(zs.shape)


# -- Lyapunov exponent --------------------------------------------------------

@dataclass(frozen=True)
class LyapunovEstimate:
    z: complex
    gamma_hat: float
    stderr: float
    real_axis_caveat: bool = False


def lyapunov_transfer(spec: EnsembleSpec, n: int, reps: int, z):
    """Mean over realizations 0..reps-1 of (1/n) log ||transfer product||
    with the column-sum norm.  A scalar z gives one LyapunovEstimate, a
    sequence of points a list with one estimate per point; each
    realization is drawn once for all points.

    At real z the pathwise limit need not match the averaged exponent;
    such estimates carry real_axis_caveat=True and the curve machinery
    never consumes them (it uses the Thouless route on the axis).
    """
    spec.require_light_tails("lyapunov_transfer")
    if n < 2:
        raise ValidationError("n must be >= 2")
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    gammas = np.empty((zs.shape[0], reps))
    for r in range(reps):
        bundle = build(realization(spec, n, r))
        # One kernel call per product: the per-layer step counter of
        # perfbench reads len(c) - 1 per call as the number of steps.
        for i, zi in enumerate(zs):
            state = transfer_product(bundle, zi)
            gammas[i, r] = (state.log_scale + math.log(column_sum_norm(state.matrix))) / n
    estimates = [
        LyapunovEstimate(
            z=complex(zi),
            gamma_hat=float(np.mean(g)),
            stderr=float(np.std(g, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
            real_axis_caveat=(zi.imag == 0.0),
        )
        for zi, g in zip(zs, gammas)
    ]
    return estimates[0] if np.ndim(z) == 0 else estimates


def lyapunov_thouless(ids: IdsEstimate, mean_log_c: float, z) -> np.ndarray:
    """Thouless route gamma(z) = Phi(z) - E log c_0; valid on all of the
    complex plane including the real axis.  An array of z's shape."""
    return phi_many(ids, z) - mean_log_c


# -- cache file ----------------------------------------------------------------

# the header fields of the cache that the estimate is rebuilt from
_IDS_FIELDS = {"n_used": int, "realizations_used": int, "support": artifacts.pair, "source_hash": str}


def save_ids(ids: IdsEstimate, path, **header) -> None:
    """The cache as a table: the artifact header (``header`` first, then
    the estimate's metadata) and one "lambda,N" row per grid node."""
    header = dict(header, n_used=ids.n_used, realizations_used=ids.realizations_used,
                  support=",".join(artifacts.cells(ids.support)), source_hash=ids.source_hash)
    artifacts.write_table(path, header, {"lambda": ids.grid, "N": ids.values})


def load_ids(path) -> IdsEstimate:
    header, table = artifacts.read_table(path, {"lambda": float, "N": float}, _IDS_FIELDS)
    return IdsEstimate(grid=table["lambda"], values=table["N"], **{name: header[name] for name in _IDS_FIELDS})
