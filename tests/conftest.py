import math

import numpy as np
import pytest

from tricurves import DistributionSpec, EnsembleSpec, estimate_ids, resolvent_corners, transfer_product
from tricurves.spectral import phi_dy_many


def fig1a_spec(seed=501):
    """All entries Uni[0,1] (stochastically symmetric; real spectrum)."""
    return EnsembleSpec(
        DistributionSpec("log_uniform", (0, 1)),
        DistributionSpec("log_uniform", (0, 1)),
        DistributionSpec("uniform", (0, 1)),
        seed=seed,
    )


def fig1b_spec(seed=2024):
    """Sub-diagonal and diagonal Uni[0,1], super-diagonal Uni[1/2, 3/2]."""
    return EnsembleSpec(
        DistributionSpec("log_uniform", (0, 1)),
        DistributionSpec("log_uniform", (0.5, 1.5)),
        DistributionSpec("uniform", (0, 1)),
        seed=seed,
    )


def free_spec(seed=11):
    """Constant couplings c = 1, zero diagonal (closed-form reference)."""
    return EnsembleSpec(*[DistributionSpec("constant", (0.0,))] * 3, seed=seed)


# -- oracles ----------------------------------------------------------------------

def dense_reference(bundle):
    """Oracle: the symmetric reference H of a bundle, dense (small n only)."""
    h = np.zeros((bundle.n, bundle.n))
    idx = np.arange(bundle.n)
    h[idx, idx] = bundle.diag
    h[idx[1:], idx[:-1]] = bundle.h_off
    h[idx[:-1], idx[1:]] = bundle.h_off
    return h


def dense_perturbed(bundle):
    """Oracle: H + V, the symmetric reference plus the two corner entries
    a_n = -|a_n| (top right) and b_n = -|b_n| (bottom left), materialized
    from their logarithms (small n only)."""
    hv = dense_reference(bundle)
    hv[0, bundle.n - 1] -= math.exp(bundle.log_abs_a)
    hv[bundle.n - 1, 0] -= math.exp(bundle.log_abs_b)
    return hv


def symmetric_spectrum(bundle):
    """Oracle: the reference spectrum, ascending, from LAPACK through scipy."""
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(bundle.diag, bundle.h_off)


def corners(bundle, z):
    """resolvent_corners at z from the bundle's own transfer product."""
    return resolvent_corners(bundle, z, transfer_product(bundle, z))


def multiset_distance(a, b) -> float:
    """Oracle: max pairwise distance after sorting both sets by (Re, Im)."""
    key = lambda v: np.lexsort((np.imag(v), np.real(v)))
    a = np.asarray(a, complex)
    b = np.asarray(b, complex)
    assert a.shape == b.shape, "multisets must have equal size"
    return float(np.max(np.abs(a[key(a)] - b[key(b)])))


def trace_defect(bundle, eigenvalues) -> float:
    """Oracle: |sum z_i - tr J| / (n max(1, |tr J|)), with tr J = sum q_k."""
    trace = float(np.sum(bundle.diag))
    return abs(complex(np.sum(eigenvalues)) - trace) / (bundle.n * max(1.0, abs(trace)))


def det_defect(bundle, eigenvalues) -> float:
    """Oracle: per-eigenvalue defect of sum log|z_i| against log|det J|
    from a dense LU; -inf/-inf (an exactly singular matrix) is a match."""
    sign, logdet = np.linalg.slogdet(bundle.dense())
    log_abs_det = float(logdet) if sign != 0 else -math.inf
    s = float(np.sum(np.log(np.abs(eigenvalues))))
    if not math.isfinite(s) or not math.isfinite(log_abs_det):
        return 0.0 if s == log_abs_det else math.inf
    return abs(s - log_abs_det) / (bundle.n * max(1.0, abs(log_abs_det)))


def conjugation_defect(eigenvalues) -> float:
    """Oracle: multiset distance between a spectrum and its conjugate."""
    return multiset_distance(eigenvalues, np.conj(eigenvalues))


def distance_to_arcs_loop(points, model) -> np.ndarray:
    """Oracle: distance from each point to the curve, visiting every
    segment of both sheets with the clamped point-segment formula."""
    points = np.asarray(points, complex)
    best = np.full(points.shape, np.inf)
    for arc in model.arcs:
        for sheet in (arc.points(), np.conj(arc.points())):
            for a, b in zip(sheet[:-1], sheet[1:]):
                ab = b - a
                denom = abs(ab) ** 2
                if denom == 0.0:
                    d = np.abs(points - a)
                else:
                    t = np.clip(((points - a) * np.conj(ab)).real / denom, 0.0, 1.0)
                    d = np.abs(points - (a + t * ab))
                best = np.minimum(best, d)
    return best


def arc_bins(model, bins=12):
    """Oracle: for each of ``bins`` equal arc-length bins of every arc, its
    centre vertex and twice the trapezoidal density integral over it."""
    centers, predicted = [], []
    for arc in model.arcs:
        pts = arc.points()
        dl = np.abs(np.diff(pts))
        cum = np.concatenate(([0.0], np.cumsum(dl)))
        edges = np.linspace(0.0, cum[-1], bins + 1)
        seg_mass = 0.5 * (arc.rho[:-1] + arc.rho[1:]) * dl
        for b in range(bins):
            inside = (cum[:-1] >= edges[b]) & (cum[:-1] < edges[b + 1])
            predicted.append(2.0 * float(np.sum(seg_mass[inside])))
            mid = np.interp(0.5 * (edges[b] + edges[b + 1]), cum, np.arange(cum.size))
            centers.append(pts[int(round(mid))])
    return np.asarray(centers), np.asarray(predicted)


def arc_histogram_error_loop(nonreal, model, n) -> float:
    """Oracle: each eigenvalue, folded to the upper sheet, counted one at a
    time in the bin of its nearest centre (the first, on a tie); the
    largest gap between count / n and the predicted bin mass."""
    if not model.arcs or len(nonreal) == 0:
        return 0.0
    centers, predicted = arc_bins(model)
    counts = np.zeros(centers.size)
    for z in np.real(nonreal) + 1j * np.abs(np.imag(nonreal)):
        counts[int(np.argmin(np.abs(centers - z)))] += 1.0
    return float(np.max(np.abs(counts / n - predicted)))


def limit_measure_integral_loop(model, f) -> float:
    """Oracle: the integral of f against the predicted limit measure with
    f called once per point: dN-weighted cell midpoints of each interval
    of Sigma, then the trapezoidal rule along each sheet of each arc."""
    ids = model.ids
    total = 0.0
    mids = 0.5 * (ids.grid[:-1] + ids.grid[1:])
    dn = np.diff(ids.values)
    for lo, hi in model.sigma:
        inside = (mids >= lo) & (mids <= hi)
        if np.any(inside):
            total += float(np.array([f(complex(x)) for x in mids[inside]]) @ dn[inside])
    for arc in model.arcs:
        for sheet in (arc.points(), np.conj(arc.points())):
            fvals = np.array([f(complex(p)) for p in sheet])
            dl = np.abs(np.diff(sheet))
            total += float(np.sum(0.5 * (fvals[:-1] * arc.rho[:-1] + fvals[1:] * arc.rho[1:]) * dl))
    return total


def empirical_integral_loop(eigenvalues, f) -> float:
    """Oracle: the mean of f over the eigenvalues, one call per eigenvalue."""
    return float(np.mean([f(complex(z)) for z in eigenvalues]).real)


def eigenvector_slopes_one(matrix) -> tuple:
    """Oracle: the eigenvector slopes (u, v), Im u <= Im v, of one 2x2
    matrix, in scalar arithmetic."""
    (m00, m01), (m10, m11) = matrix
    tr = m00 + m11
    disc = np.sqrt(complex(tr * tr - 4.0 * (m00 * m11 - m01 * m10)))
    slopes = []
    for mu in ((tr + disc) / 2.0, (tr - disc) / 2.0):
        slopes.append((mu - m11) / m10 if abs(m10) >= 1e-300 else m01 / (mu - m00))
    u, v = slopes
    return (v, u) if u.imag > v.imag else (u, v)


def stieltjes_per_cell(ids, zs):
    """Oracle: the Stieltjes transform at any non-real z, each cell adding
    s_i [log(g_{i+1} - z) - log(g_i - z)] on the principal branch."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    logs = np.log(ids.grid[None, :] - zs[:, None])
    return np.diff(logs, axis=1) @ ids.cell_density


def _complex_primitive_oneshot(ids, zs):
    """(F, log|t - iy|, atan(t/y)) at every grid node for all non-real
    zs at once, one row per point."""
    y = zs.imag[:, None]
    t = ids.grid[None, :] - zs.real[:, None]
    half_log = 0.5 * np.log(t * t + y * y)
    atan = np.arctan(t / y)
    return t * half_log - t + y * atan, half_log, atan


def _cell_sums_oneshot(f, dens):
    return np.einsum("ij,j->i", np.diff(f, axis=1), dens)


def phi_many_oneshot(ids, zs):
    """Oracle: phi_many as one (points x grid) evaluation of all the real
    points and one of all the non-real points."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    dens = ids.cell_density
    out = np.empty(zs.shape[0])
    real_rows = zs.imag == 0.0
    if np.any(real_rows):
        t = ids.grid[None, :] - zs.real[real_rows, None]
        r = np.abs(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(r == 0.0, 0.0, t * np.log(r) - t)
        out[real_rows] = _cell_sums_oneshot(f, dens)
    if not np.all(real_rows):
        out[~real_rows] = _cell_sums_oneshot(_complex_primitive_oneshot(ids, zs[~real_rows])[0], dens)
    return out


def phi_dy_many_oneshot(ids, zs):
    """Oracle: phi_dy_many as one (points x grid) evaluation (Im z > 0)."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    dens = ids.cell_density
    f, half_log, atan = _complex_primitive_oneshot(ids, zs)
    return _cell_sums_oneshot(f, dens), _cell_sums_oneshot(half_log, dens) + 1j * _cell_sums_oneshot(atan, dens)


def stieltjes(ids, z) -> complex:
    """The Stieltjes transform at one z with Im z > 0, from phi_dy_many."""
    return complex(phi_dy_many(ids, [z])[1][0])


def curve_density(ids, z) -> float:
    """The linear density along the curve at z (Im z > 0): |m(z)| / 2 pi."""
    return abs(stieltjes(ids, z)) / (2.0 * math.pi)


@pytest.fixture(scope="session")
def free_ids():
    return estimate_ids(free_spec(), 5000, 4)


@pytest.fixture(scope="session")
def fig1b_ids():
    return estimate_ids(fig1b_spec(), 4000, 4)

