import math
import tracemalloc

import numpy as np
import pytest

from tricurves import DistributionSpec, EnsembleSpec, _lapack, estimate_ids, resolvent_corners
from tricurves.operators import column_sum_norm, transfer_products
from tricurves.spectral import lyapunov_thouless, phi_dy_many, phi_many


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


def fig1b_mirror_spec(seed=2024):
    """Fig. 1b with the xi and eta laws swapped: g < 0, so the weights w_n
    grow exponentially in n where fig-1b's fall."""
    return EnsembleSpec(
        DistributionSpec("log_uniform", (0.5, 1.5)),
        DistributionSpec("log_uniform", (0, 1)),
        DistributionSpec("uniform", (0, 1)),
        seed=seed,
    )


def free_spec(seed=11):
    """Constant couplings c = 1, zero diagonal (closed-form reference)."""
    return EnsembleSpec(*[DistributionSpec("constant", (0.0,))] * 3, seed=seed)


def traced_peak(call):
    """(result, peak): call()'s result and the most bytes tracemalloc saw
    allocated while it ran."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


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


def transfer_product(bundle, z):
    """The transfer product A_n ... A_1 of one bundle at one z: one lane
    of transfer_products."""
    return transfer_products([bundle], [z])[0]


def corners(bundle, z):
    """resolvent_corners at z from the bundle's own transfer product."""
    return resolvent_corners(bundle, z, transfer_product(bundle, z))


def boundary_residual_one(bundle, z) -> float:
    """Oracle: the closure residual at one z in scalar arithmetic.  The
    terms of det(I - w_n T), T = B S_n, are t1 = w_n tr T, read off the
    bundle's own transfer product, and t2 = w_n^2 det T = |a_n| / |b_n|
    in closed form; |1 - t1 + t2| / max(1, |t1|, |t2|) is taken on the
    terms' logarithms, so it is finite for every z."""
    state = transfer_product(bundle, z)
    tr = bundle.beta * state.matrix[0, 0] + state.matrix[1, 1]
    log_t2 = bundle.log_abs_a - bundle.log_abs_b
    if tr == 0:
        top = max(0.0, log_t2)
        return abs(math.exp(-top) + math.exp(log_t2 - top))
    log_t1 = bundle.log_w[bundle.n] + state.log_scale + math.log(abs(tr))
    top = max(0.0, log_t1, log_t2)
    return abs(math.exp(-top) - (tr / abs(tr)) * math.exp(log_t1 - top) + math.exp(log_t2 - top))


def boundary_residual_from_products(bundle, z) -> float:
    """Oracle: the closure residual at one z with both terms read off the
    product.  B S_n is closed from the bundle's own transfer product, and
    the terms w_n tr T and w_n^2 det T of det(I - w_n T) are assembled
    from their logarithms; inf where a term exceeds e^300.  Where T is
    nearly singular its det is rounding, which w_n^2 scales up, so this
    form is a reference only where both terms stay small."""
    state = transfer_product(bundle, z)
    m = state.matrix.copy()
    m[0, :] *= bundle.beta
    norm = column_sum_norm(m)
    m = m / norm
    lw = (state.log_scale + math.log(norm)) + bundle.log_w[bundle.n]  # log(w_n e^scale)
    tr = m[0, 0] + m[1, 1]
    dt = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    def scaled(log_coeff, value):
        # exp(log_coeff) * value assembled in log space; None marks overflow
        if value == 0:
            return 0j
        lm = log_coeff + math.log(abs(value))
        if lm > 300.0:
            return None
        return (value / abs(value)) * math.exp(lm)

    t1 = scaled(lw, tr)
    t2 = scaled(2.0 * lw, dt)
    if t1 is None or t2 is None:
        return math.inf
    return abs(1.0 - t1 + t2) / max(1.0, abs(t1), abs(t2))


def runs_loop(mask) -> list:
    """Oracle: (start, stop) of each run of True in mask, by a walk over
    its entries; the run covers mask[start:stop]."""
    runs, start = [], None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs


def real_support_sigma_loop(ids, threshold) -> tuple:
    """Oracle: the cells of supp dN where Phi(lambda + i0) exceeds the
    threshold by more than the tie band, joined into intervals by a walk
    over the cells."""
    from tricurves.curves import _TIE_BAND

    mids = 0.5 * (ids.grid[:-1] + ids.grid[1:])
    qualifies = (ids.cell_density > 0.0) & (phi_many(ids, mids.astype(complex)) > threshold + _TIE_BAND)
    return tuple((float(ids.grid[i]), float(ids.grid[j])) for i, j in runs_loop(qualifies))


def refine_endpoint_one(ids, mean_log_c, abs_g, x_out, x_in) -> float:
    """Oracle: bisect gamma(x) - |g| between a non-qualifying and a
    qualifying x, one potential call per point."""
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



# -- a dense solve that fails ------------------------------------------------------

class StubLapack:
    """Stands in for LAPACK under every eigenvalue-only dense solve, on one
    of its two routes, and records each call.  "binding": numpy's dgeev,
    called in place, answers the workspace query and then reports info.
    "fallback": the lookup fails, and np.linalg.eigvals raises what numpy
    raises on info > 0."""

    def __init__(self, route, monkeypatch, info=1):
        self.info, self.calls = info, []
        if route == "binding":
            monkeypatch.setattr(_lapack, "_geev", lambda: self._geev)
        else:
            monkeypatch.setattr(_lapack, "_geev", lambda: None)
            monkeypatch.setattr(np.linalg, "eigvals", self._eigvals)

    def _geev(self, jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork, info):
        self.calls.append(lwork[0])
        if lwork[0] == -1:
            work[0] = 3.0 * n[0]
        else:
            info[0] = self.info

    def _eigvals(self, a):
        self.calls.append(a.shape)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.fixture(params=["binding", "fallback"])
def unconverged_lapack(request, monkeypatch):
    """Every eigenvalue-only dense solve reports a QR iteration that did
    not converge, once through each route."""
    return StubLapack(request.param, monkeypatch)
