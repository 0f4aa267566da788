import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from tricurves import (
    DistributionSpec,
    EnsembleSpec,
    ValidationError,
    estimate_ids,
    lyapunov_thouless,
    lyapunov_transfer,
    mean_log_coupling,
)
from tricurves import _kernels, build, rank2_det, resolvent_corners, spectral
from tricurves._kernels import sturm_counts
from tricurves.eigensolvers import characteristic_residual
from tricurves.ensembles import realization
from tricurves.operators import TransferState, boundary_residual, column_sum_norm, transfer_products
from tricurves.spectral import load_ids, phi_dy_many, phi_many, save_ids

from conftest import (
    fig1b_spec,
    free_spec,
    phi_dy_many_oneshot,
    phi_many_oneshot,
    stieltjes,
    stieltjes_per_cell,
    symmetric_spectrum,
    traced_peak,
    transfer_product,
)


def phi(ids, z) -> float:
    """The log-potential at one point, from phi_many."""
    return float(phi_many(ids, [z])[0])

ARCSINE_GAMMA_3 = math.log((3.0 + math.sqrt(5.0)) / 2.0)  # 0.9624236501...


# -- ids -------------------------------------------------------------------------

def test_free_ids_arcsine_law(free_ids):
    lam = free_ids.grid[(free_ids.grid > -2.0) & (free_ids.grid < 2.0)]
    exact = 1.0 - np.arccos(lam / 2.0) / np.pi
    est = np.interp(lam, free_ids.grid, free_ids.values)
    assert np.max(np.abs(est - exact)) < 0.01


def test_free_ids_half_at_zero(free_ids):
    n_at_zero = float(np.interp(0.0, free_ids.grid, free_ids.values))
    assert abs(n_at_zero - 0.5) < 2.0 / free_ids.n_used


def test_ids_invariants(fig1b_ids):
    assert fig1b_ids.values[0] == 0.0
    assert fig1b_ids.values[-1] == 1.0
    assert np.all(np.diff(fig1b_ids.values) >= 0.0)
    lo, hi = fig1b_ids.support
    assert lo < hi


def test_ids_rejects_small_n_and_bad_grid():
    with pytest.raises(ValidationError):
        estimate_ids(free_spec(), 50, 1)
    with pytest.raises(ValidationError, match="reps must be >= 1"):
        estimate_ids(free_spec(), 200, 0)
    # the grid spans the Gershgorin interval [-2, 2], padded by 5% of its width
    ids = estimate_ids(free_spec(), 200, 1, grid_points=64)
    assert ids.grid.shape == (64,)
    assert (ids.grid[0], ids.grid[-1]) == (-2.1, 2.1)
    assert np.all(np.diff(ids.grid) > 0)


def test_ids_rejects_heavy_tailed_couplings():
    bad = EnsembleSpec(
        DistributionSpec("cauchy", (0, 1)),
        DistributionSpec("constant", (0.0,)),
        DistributionSpec("uniform", (0, 1)),
        seed=1,
    )
    with pytest.raises(ValidationError, match="heavy tailed"):
        estimate_ids(bad, 200, 1)


def test_predicted_side_rejects_raw_specs():
    # the IDS and the transfer scan read xi and eta without a bundle, so
    # the spec's own check is what turns a raw-entry ensemble away
    raw = EnsembleSpec(
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (0, 1)),
        seed=4,
        raw=True,
    )
    with pytest.raises(ValidationError, match="log-coordinate"):
        estimate_ids(raw, 200, 1)
    with pytest.raises(ValidationError, match="log-coordinate"):
        lyapunov_transfer(raw, 200, 1, 1.0 + 1.0j)


def test_ids_cauchy_diagonal_allowed():
    spec = EnsembleSpec(
        DistributionSpec("constant", (0.0,)),
        DistributionSpec("constant", (0.0,)),
        DistributionSpec("cauchy", (0.0, 0.2)),
        seed=5,
    )
    ids = estimate_ids(spec, 300, 1)
    assert ids.values[-1] == 1.0


def bundle_stacking_ids(spec, n, reps, grid_points):
    """Oracle: (grid, values) of the IDS from one bundle per realization,
    their Gershgorin intervals, and one Sturm count over their stacked
    diagonals and reference off-diagonals."""
    bundles = [build(realization(spec, n, r)) for r in range(reps)]
    bounds = [b.gershgorin() for b in bundles]
    glo, ghi = min(lo for lo, _ in bounds), max(hi for _, hi in bounds)
    half = 0.5 * (ghi - glo) * 0.05
    grid = np.linspace(glo - half, ghi + half, grid_points)
    counts = sturm_counts(
        np.stack([b.diag for b in bundles], axis=1),
        np.stack([b.h_off for b in bundles], axis=1),
        np.tile(grid, reps),
    )
    return grid, counts.reshape(reps, grid_points).sum(axis=0) / (reps * n)


@pytest.mark.parametrize("n, reps, grid_points, blocked", [(4000, 4, 1024, True), (1500, 3, 512, False)])
def test_streamed_ids_equals_bundle_stacking(monkeypatch, n, reps, grid_points, blocked):
    # the default IDS shape runs the Sturm count in blocks; n < 2048 runs
    # it in one sequential pass
    calls = []
    blocked_counts = _kernels._blocked_counts

    def spy(*args):
        calls.append(args[-1])
        return blocked_counts(*args)

    monkeypatch.setattr(_kernels, "_blocked_counts", spy)
    ids = estimate_ids(fig1b_spec(seed=83), n, reps, grid_points=grid_points)
    assert bool(calls) == blocked
    grid, values = bundle_stacking_ids(fig1b_spec(seed=83), n, reps, grid_points)
    assert np.array_equal(ids.grid, grid)
    assert np.array_equal(ids.values, values)


def test_ids_holds_two_columns_per_realization():
    # n = 2e4, 8 realizations: the (n, 8) diagonal and off-diagonal stacks
    # and the kernel's squared off-diagonal are 1.2 MiB each; one bundle
    # per realization alone held about 12 MiB (21.7 MiB peak in all)
    _, peak = traced_peak(lambda: estimate_ids(fig1b_spec(seed=89), 20_000, 8))
    assert peak < 8 * 2**20


def test_ids_cache_round_trip(tmp_path, fig1b_ids):
    path = tmp_path / "ids.csv"
    save_ids(fig1b_ids, path)
    again = load_ids(path)
    assert np.allclose(again.grid, fig1b_ids.grid)
    assert np.allclose(again.values, fig1b_ids.values)
    assert again.support == pytest.approx(fig1b_ids.support)
    assert again.source_hash == fig1b_ids.source_hash


# -- log-potential ------------------------------------------------------------------

def test_phi_free_closed_form(free_ids):
    assert phi(free_ids, 3.0) == pytest.approx(ARCSINE_GAMMA_3, abs=5e-3)


def test_phi_far_field_unit_mass(free_ids):
    z = 1e4 * free_ids.support_radius
    assert abs(phi(free_ids, z) - math.log(abs(z))) < 1e-3
    z = complex(0.0, 10.0 * free_ids.support_radius)
    assert abs(phi(free_ids, z) - math.log(abs(z))) < 5e-3  # far-field, no error raised


def test_phi_conjugation(free_ids):
    z = 0.7 + 1.3j
    assert phi(free_ids, z) == phi(free_ids, np.conj(z))


def test_phi_quadrature_against_adaptive(fig1b_ids):
    # independent oracle: adaptive quadrature of log|z - x| against the
    # piecewise-linear density
    ids = fig1b_ids
    dens = ids.cell_density
    for z in (0.5 + 0.8j, -1.2 + 0.3j, 2.0):
        def integrand(x):
            i = np.clip(np.searchsorted(ids.grid, x) - 1, 0, dens.size - 1)
            return dens[i] * math.log(abs(complex(z) - x))

        ref = 0.0
        for i in np.nonzero(dens)[0]:
            val, _ = scipy.integrate.quad(
                integrand, ids.grid[i], ids.grid[i + 1], limit=200, points=None
            )
            ref += val
        assert phi(ids, z) == pytest.approx(ref, abs=1e-7)


def test_phi_real_axis_inside_support(free_ids):
    # the singular-splitting path: closed-form primitive, finite everywhere
    vals = phi_many(free_ids, np.linspace(-1.9, 1.9, 11).astype(complex))
    assert np.all(np.isfinite(vals))
    # free case: gamma = phi >= 0 with equality on the spectrum
    assert np.max(np.abs(vals)) < 0.02


def _phi_per_cell(ids, zs):
    """Oracle: the log-potential with the primitive evaluated at both ends
    of every cell, F(g_{i+1}) - F(g_i), instead of once per grid node."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    dens = ids.cell_density
    t0 = ids.grid[None, :-1] - zs.real[:, None]
    t1 = ids.grid[None, 1:] - zs.real[:, None]
    y = zs.imag[:, None]
    out = np.empty(zs.shape[0])

    def primitive_real(t):
        r = np.abs(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = t * np.log(r) - t
        return np.where(r == 0.0, 0.0, val)

    def primitive_cplx(t, yy):
        return 0.5 * t * np.log(t * t + yy * yy) - t + yy * np.arctan(t / yy)

    rr = np.where(zs.imag == 0.0)[0]
    cc = np.where(zs.imag != 0.0)[0]
    out[rr] = np.einsum("ij,j->i", primitive_real(t1[rr]) - primitive_real(t0[rr]), dens)
    out[cc] = np.einsum("ij,j->i", primitive_cplx(t1[cc], y[cc]) - primitive_cplx(t0[cc], y[cc]), dens)
    return out


def test_phi_node_once_matches_per_cell_oracle(fig1b_ids):
    # real points include grid nodes (t = 0 exactly) and points off the
    # support; non-real points lie on both sides of the axis
    rng = np.random.Generator(np.random.Philox(key=61))
    zs = np.concatenate([
        rng.uniform(-3.0, 4.0, 120).astype(complex),
        fig1b_ids.grid[::37].astype(complex),
        rng.uniform(-3.0, 4.0, 160) + 1j * rng.uniform(-2.0, 2.0, 160),
    ])
    assert np.array_equal(phi_many(fig1b_ids, zs), _phi_per_cell(fig1b_ids, zs))
    for z in zs[::50]:
        assert phi(fig1b_ids, z) == _phi_per_cell(fig1b_ids, [z])[0]


def test_phi_dy_is_im_stieltjes_and_the_y_derivative(fig1b_ids):
    rng = np.random.Generator(np.random.Philox(key=62))
    zs = rng.uniform(-3.0, 4.0, 60) + 1j * rng.uniform(0.05, 2.5, 60)
    value, m = phi_dy_many(fig1b_ids, zs)
    dy = m.imag
    assert np.array_equal(value, phi_many(fig1b_ids, zs))
    assert np.max(np.abs(dy - stieltjes_per_cell(fig1b_ids, zs).imag)) < 1e-12
    h = 1e-5
    central = (phi_many(fig1b_ids, zs + 1j * h) - phi_many(fig1b_ids, zs - 1j * h)) / (2.0 * h)
    assert np.max(np.abs(dy - central)) < 1e-7


# -- stieltjes transform ---------------------------------------------------------------

def test_stieltjes_free_closed_form(free_ids):
    # integral of dN/(lambda - i) for the arcsine law is i / sqrt(5)
    m = stieltjes(free_ids, 1j)
    assert m == pytest.approx(1j / math.sqrt(5.0), abs=5e-3)


def test_stieltjes_far_field(free_ids):
    z = complex(1e4 * free_ids.support_radius, 1.0)
    assert abs(stieltjes(free_ids, z) + 1.0 / z) < 1e-3 * abs(1.0 / z)


def test_stieltjes_conjugation_and_herglotz(fig1b_ids):
    # Herglotz: Im m > 0 in the upper half plane; the lower half plane,
    # which the package never evaluates, is the conjugate (per-cell oracle)
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(25):
        z = complex(rng.uniform(-3, 4), rng.uniform(0.05, 3.0))
        m = stieltjes(fig1b_ids, z)
        assert m.imag > 0.0
        below = stieltjes_per_cell(fig1b_ids, [np.conj(z)])[0]
        assert abs(below - np.conj(m)) < 1e-14 * abs(m)


def test_stieltjes_matches_the_complex_log_per_cell(fig1b_ids):
    # oracle: each cell adds s_i * [log(g_{i+1} - z) - log(g_i - z)], principal branch
    rng = np.random.Generator(np.random.Philox(key=64))
    zs = rng.uniform(-3.0, 4.0, 80) + 1j * rng.uniform(0.01, 2.5, 80)
    m = phi_dy_many(fig1b_ids, zs)[1]
    oracle = stieltjes_per_cell(fig1b_ids, zs)
    assert np.max(np.abs(m - oracle) / np.abs(oracle)) < 1e-14


def test_cell_sums_do_not_depend_on_the_batch(fig1b_ids):
    # a point's values are bit-equal alone, in a slice and in the full batch
    rng = np.random.Generator(np.random.Philox(key=65))
    upper = rng.uniform(-3.0, 4.0, 300) + 1j * rng.uniform(0.01, 2.5, 300)
    points = np.concatenate([upper, np.conj(upper[:50]), rng.uniform(-3.0, 4.0, 50).astype(complex)])
    batches = {
        "phi_many": (lambda zs: phi_many(fig1b_ids, zs), points),
        "phi_dy_many": (lambda zs: np.stack(phi_dy_many(fig1b_ids, zs)), upper),
    }
    for name, (evaluate, zs) in batches.items():
        full = evaluate(zs)
        for i in (0, 1, 151, zs.shape[0] - 1):
            lo = max(i - 3, 0)
            assert np.array_equal(evaluate(zs[i : i + 1])[..., 0], full[..., i]), (name, i)
            assert np.array_equal(evaluate(zs[lo : i + 5])[..., i - lo], full[..., i]), (name, i)


@pytest.fixture(scope="module", params=[1024, 4096], ids=lambda nodes: f"grid{nodes}")
def blocked_ids(request):
    return estimate_ids(fig1b_spec(), 2000, 1, grid_points=request.param)


def test_blocked_evaluators_equal_the_one_shot_oracles(blocked_ids):
    # around and across the block boundaries, whose row count differs
    # between the grids: real rows, non-real rows and the two mixed
    rows = spectral._BLOCK_NODES // blocked_ids.grid.shape[0]
    assert rows >= 2
    rng = np.random.Generator(np.random.Philox(key=66))
    for count in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
        real = rng.uniform(-3.0, 4.0, count).astype(complex)
        real[::4] = blocked_ids.grid[rng.integers(0, blocked_ids.grid.shape[0], real[::4].shape[0])]
        upper = rng.uniform(-3.0, 4.0, count) + 1j * rng.uniform(0.01, 2.5, count)
        both = np.where(rng.uniform(size=count) < 0.5, upper, np.conj(upper))
        mixed = np.where(np.arange(count) % 3 == 0, real, both)
        for zs in (real, both, mixed):
            assert np.array_equal(phi_many(blocked_ids, zs), phi_many_oneshot(blocked_ids, zs)), count
        for got, want in zip(phi_dy_many(blocked_ids, upper), phi_dy_many_oneshot(blocked_ids, upper)):
            assert np.array_equal(got, want), count


def test_reused_work_arrays_leak_no_rows(blocked_ids):
    # one call's blocks share its work arrays: the real rows fill a full
    # block and a partial one, with grid nodes among them, and then the
    # non-real rows a shorter partial block; phi_dy_many runs a call with
    # a partial last block and then a shorter one.  Each equals the
    # one-shot oracle, and no block warns.
    rows = spectral._BLOCK_NODES // blocked_ids.grid.shape[0]
    rng = np.random.Generator(np.random.Philox(key=68))
    real = rng.uniform(-3.0, 4.0, rows + rows // 2).astype(complex)
    real[::3] = blocked_ids.grid[rng.integers(0, blocked_ids.grid.shape[0], real[::3].shape[0])]
    upper = rng.uniform(-3.0, 4.0, 3 * rows + 5) + 1j * rng.uniform(0.01, 2.5, 3 * rows + 5)
    mixed = np.concatenate([real, upper[: rows // 2], np.conj(upper[-1:])])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(phi_many(blocked_ids, mixed), phi_many_oneshot(blocked_ids, mixed))
        for zs in (upper, upper[: rows + 1]):
            for got, want in zip(phi_dy_many(blocked_ids, zs), phi_dy_many_oneshot(blocked_ids, zs)):
                assert np.array_equal(got, want), zs.shape


def test_evaluators_of_no_points_return_empty_arrays(fig1b_ids):
    assert phi_many(fig1b_ids, []).shape == (0,)
    phi, m = phi_dy_many(fig1b_ids, np.empty(0, dtype=complex))
    assert phi.shape == m.shape == (0,) and m.dtype == complex


def test_phi_dy_working_set_is_one_block(fig1b_ids):
    # 4096 points on 2048 nodes: one-shot, each (points x grid) float64
    # temporary alone is 64 MiB
    rng = np.random.Generator(np.random.Philox(key=67))
    zs = rng.uniform(-3.0, 4.0, 4096) + 1j * rng.uniform(0.01, 2.5, 4096)
    _, peak = traced_peak(lambda: phi_dy_many(fig1b_ids, zs))
    assert peak < 4 * 2**20


def test_stieltjes_rejects_real_z(fig1b_ids):
    with pytest.raises(ValidationError, match="Im z > 0"):
        phi_dy_many(fig1b_ids, [0.5 + 0.5j, 1.0])


def test_stieltjes_quadrature_against_adaptive():
    # coarse ids so the cell-by-cell adaptive oracle is cheap
    ids = estimate_ids(fig1b_spec(), 400, 2, grid_points=128)
    dens = ids.cell_density
    z = 0.4 + 0.9j
    ref = 0.0 + 0.0j
    for i in np.nonzero(dens)[0]:
        re, _ = scipy.integrate.quad(lambda x: (dens[i] / (x - z)).real, ids.grid[i], ids.grid[i + 1])
        im, _ = scipy.integrate.quad(lambda x: (dens[i] / (x - z)).imag, ids.grid[i], ids.grid[i + 1])
        ref += complex(re, im)
    assert stieltjes(ids, z) == pytest.approx(ref, abs=1e-9)


# -- Lyapunov exponent ---------------------------------------------------------------

def test_transfer_free_closed_form():
    est = lyapunov_transfer(free_spec(), 100_000, 2, 3.0)
    assert est.gamma_hat == pytest.approx(ARCSINE_GAMMA_3, abs=5e-3)
    assert est.real_axis_caveat  # real z carries the warning flag
    est2 = lyapunov_transfer(free_spec(), 10_000, 2, 1.0 + 1.0j)
    assert not est2.real_axis_caveat


def test_transfer_det_lower_bound():
    # ||S||^2 >= |det S| forces gamma_n >= (1/2n) log(c_0/c_n)
    spec = fig1b_spec(seed=61)
    from tricurves.ensembles import sample as _sample

    n = 5000
    est = lyapunov_transfer(spec, n, 1, 0.3 + 0.2j)
    seq = _sample(spec, n)
    c = np.exp(0.5 * (seq.xi + seq.eta))
    bound = 0.5 * math.log(c[0] / c[n]) / n
    assert est.gamma_hat >= bound - 1e-12


def test_transfer_conjugate_points_agree():
    z = 1.2 + 0.8j
    a = lyapunov_transfer(fig1b_spec(seed=71), 20_000, 3, z)
    b = lyapunov_transfer(fig1b_spec(seed=71), 20_000, 3, np.conj(z))
    assert a.gamma_hat == b.gamma_hat


def test_transfer_sequence_equals_pointwise_calls():
    spec = fig1b_spec(seed=73)
    zs = [1.2 + 0.8j, -0.5 - 0.3j, 2.0 + 0.0j, 1.2 - 0.8j]
    batch = lyapunov_transfer(spec, 3000, 3, zs)
    assert batch == [lyapunov_transfer(spec, 3000, 3, z) for z in zs]
    assert lyapunov_transfer(spec, 3000, 1, np.array(zs[:1])) == [lyapunov_transfer(spec, 3000, 1, zs[0])]


@pytest.mark.parametrize("zs", [[1.2 + 0.8j, -0.5 - 0.3j], [0.4 + 0.0j, 2.0 + 0.0j]])
def test_transfer_scan_equals_bundle_route(zs):
    # the scan hands each realization's c and q to the kernel; the means
    # and errors equal those of one bundle's transfer_product per
    # (z, realization), bit for bit, at complex and at real z
    spec, n, reps = fig1b_spec(seed=97), 3000, 3
    bundles = [build(realization(spec, n, r)) for r in range(reps)]
    for z, est in zip(zs, lyapunov_transfer(spec, n, reps, zs)):
        states = [transfer_product(b, z) for b in bundles]
        g = np.array([(s.log_scale + math.log(column_sum_norm(s.matrix))) / n for s in states])
        assert est.gamma_hat == float(np.mean(g))
        assert est.stderr == float(np.std(g, ddof=1) / math.sqrt(reps))


def test_transfer_rejects_zero_reps():
    with pytest.raises(ValidationError, match="reps must be >= 1"):
        lyapunov_transfer(fig1b_spec(), 100, 0, 1.0 + 1.0j)


def test_thouless_formula_free(free_ids):
    # transfer and Thouless routes agree in the deterministic free case
    mlc = mean_log_coupling(free_spec())
    assert mlc == 0.0
    for z in (3.0, 1.0 + 1.0j, -2.5 + 0.5j):
        th = lyapunov_thouless(free_ids, mlc, z)
        tr = lyapunov_transfer(free_spec(), 50_000, 1, z)
        assert abs(th - tr.gamma_hat) < 0.01


def test_thouless_formula_random(fig1b_ids):
    spec = fig1b_spec()
    mlc = mean_log_coupling(spec)
    for z in (1.0 + 1.0j, -0.5 + 0.75j):
        th = lyapunov_thouless(fig1b_ids, mlc, z)
        tr = lyapunov_transfer(spec, 100_000, 4, z)
        assert abs(th - tr.gamma_hat) < 0.02


def test_thouless_residual_check_equals_per_point_calls(fig1b_ids):
    # one array call of the Thouless route over the probes (upper, lower
    # half-plane and a real point) gives the per-point values bit for bit
    from tricurves.verify import check_thouless_residual

    spec = fig1b_spec()
    mlc = mean_log_coupling(spec)
    points = [1 + 1j, 2 - 0.5j, 0.4 + 0j, -0.5 + 0.75j]
    res = check_thouless_residual(spec, fig1b_ids, points, 2000, 2, 0.05)
    gaps = [
        abs(transfer.gamma_hat - lyapunov_thouless(fig1b_ids, mlc, complex(z)))
        for z, transfer in zip(points, lyapunov_transfer(spec, 2000, 2, points))
    ]
    assert res.measured == max(gaps)
    assert res.detail == "; ".join(f"z={z}: {gap:.4g}" for z, gap in zip(points, gaps))
    assert np.array_equal(
        lyapunov_thouless(fig1b_ids, mlc, np.array(points)),
        [lyapunov_thouless(fig1b_ids, mlc, complex(z)) for z in points],
    )


def test_gamma_nonnegative_everywhere(fig1b_ids):
    # Phi(z) >= E log c_0 up to quadrature error
    spec = fig1b_spec()
    mlc = mean_log_coupling(spec)
    zs = np.concatenate(
        [
            np.linspace(-3, 4, 40).astype(complex),
            np.linspace(-3, 4, 40) + 0.5j,
        ]
    )
    gams = phi_many(fig1b_ids, zs) - mlc
    assert np.min(gams) > -5e-3


def test_gamma_increasing_in_imaginary_part(fig1b_ids):
    spec = fig1b_spec()
    mlc = mean_log_coupling(spec)
    for x in (-1.0, 0.3, 1.8):
        ys = np.linspace(0.0, 3.0, 25)
        gams = phi_many(fig1b_ids, x + 1j * ys) - mlc
        assert np.all(np.diff(gams) > 0.0)


def test_subharmonic_envelope_and_uniform_convergence(fig1b_ids):
    # off the real axis gamma_n -> gamma uniformly; the one-sided envelope
    # max(gamma_n - gamma) stays below budget at large n, and the two-sided
    # gap shrinks along n = 1e3, 1e4, 1e5
    spec = fig1b_spec(seed=88)
    mlc = mean_log_coupling(spec)
    zs = np.array([complex(x, y) for x in (-0.5, 0.6, 1.7) for y in (0.4, 1.1)])
    gbar = phi_many(fig1b_ids, zs) - mlc
    gaps = []
    for n in (1_000, 10_000, 100_000):
        gn = np.array([lyapunov_transfer(spec, n, 2, z).gamma_hat for z in zs])
        gaps.append(float(np.max(np.abs(gn - gbar))))
        if n == 100_000:
            assert float(np.max(gn - gbar)) <= 0.05
    assert gaps[2] < gaps[0]


def test_potential_convergence_from_spectrum(fig1b_ids):
    # (1/n) sum log|lambda_i - z| from the symmetric spectrum approaches Phi
    from tricurves import build, sample

    spec = fig1b_spec(seed=92)
    evs = symmetric_spectrum(build(sample(spec, 4000)))
    for z in (0.5 + 0.5j, -1.0 + 0.2j, 2.2 + 1.0j):
        p_n = float(np.mean(np.log(np.abs(evs - z))))
        assert abs(p_n - phi(fig1b_ids, z)) < 0.02


# -- shape contract of the array functions -----------------------------------------

def _corners(bundle, z):
    """resolvent_corners at the points z, their transfer products stacked
    in the shape of z."""
    lanes = transfer_products([bundle] * np.size(z), np.ravel(z))
    shape = np.shape(z)
    return resolvent_corners(bundle, z, TransferState(lanes.matrix.reshape(shape + (2, 2)),
                                                      lanes.log_scale.reshape(shape)))


# name -> the arrays the function returns at points z, given an IDS and a bundle
_ARRAY_FUNCTIONS = {
    "phi_many": lambda ids, b, z: (phi_many(ids, z),),
    "phi_dy_many": lambda ids, b, z: phi_dy_many(ids, z),
    "lyapunov_thouless": lambda ids, b, z: (lyapunov_thouless(ids, 0.25, z),),
    "boundary_residual": lambda ids, b, z: (boundary_residual(b, z),),
    "resolvent_corners": lambda ids, b, z: dataclasses.astuple(_corners(b, z)),
    "rank2_det": lambda ids, b, z: (rank2_det(b, _corners(b, z)),),
    "characteristic_residual": lambda ids, b, z: (characteristic_residual(b, _corners(b, z)),),
}


_SHAPES = {"scalar": (), "1d": (6,), "2d": (2, 3)}


@pytest.mark.parametrize(
    "name, points_shape",
    [(name, shape) for name in ("phi_many", "phi_dy_many", "lyapunov_thouless") for shape in _SHAPES]
    + [(name, shape) for name in ("boundary_residual", "resolvent_corners", "rank2_det", "characteristic_residual")
       for shape in ("scalar", "1d")],
)
def test_array_functions_return_the_shape_of_their_points(name, points_shape, fig1b_ids):
    # one point gives a 0-d value and an array of points an array of their
    # shape, each value bit-equal to the call on the flattened points
    shape = _SHAPES[points_shape]
    size = int(np.prod(shape))
    rng = np.random.Generator(np.random.Philox(key=41))
    flat = rng.uniform(-1.0, 3.0, size) + 1j * rng.uniform(0.2, 2.0, size)
    if name == "phi_many":
        flat[::2] = flat[::2].real  # real points take the real primitive
    points = complex(flat[0]) if shape == () else flat.reshape(shape)
    bundle = build(realization(fig1b_spec(), 30, 0))
    values = _ARRAY_FUNCTIONS[name](fig1b_ids, bundle, points)
    flat_values = _ARRAY_FUNCTIONS[name](fig1b_ids, bundle, flat)
    assert len(values) == len(flat_values)
    for value, flat_value in zip(values, flat_values):
        assert np.shape(value) == shape
        assert np.array_equal(np.ravel(value), flat_value)
