
import cmath
import math

import numpy as np
import pytest

from tricurves import (
    DistributionSpec,
    EnsembleSpec,
    SingularResolventError,
    ValidationError,
    build,
    rank2_det,
    resolvent_corners,
    sample,
    spectrum,
)
from tricurves import _kernels
from tricurves._kernels import sturm_counts
from tricurves.eigensolvers import characteristic_residual
from tricurves.ensembles import realization

from conftest import (
    conjugation_defect,
    corners,
    dense_perturbed,
    dense_reference,
    det_defect,
    eigenvector_slopes_one,
    fig1a_spec,
    fig1b_mirror_spec,
    fig1b_spec,
    free_spec,
    multiset_distance,
    symmetric_spectrum,
    trace_defect,
    transfer_product,
)


def log_det_reference(bundle, z) -> complex:
    """det(H - z) as a complex logarithm, read off the resolvent corners."""
    return corners(bundle, z).log_det


def eigencounts(bundles, lams) -> np.ndarray:
    """Reference eigenvalue counts in (-inf, lam) for each lam, one row per
    bundle, from one sturm_counts call over all (bundle, lam) lanes, as
    estimate_ids counts them; the bundles share n."""
    lams = np.asarray(lams, dtype=float)
    counts = sturm_counts(
        np.stack([b.diag for b in bundles], axis=1),
        np.stack([b.h_off for b in bundles], axis=1),
        np.tile(lams, len(bundles)),
    )
    return counts.reshape(len(bundles), lams.shape[0])


def eigencount(bundle, lam) -> int:
    """Reference eigenvalues in (-inf, lam)."""
    return int(eigencounts([bundle], [lam])[0, 0])


def _poly_mul(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_add(a, b):
    if a is None:
        return list(b)
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    off = len(a) - len(b)
    for j, bj in enumerate(b):
        out[off + j] += bj
    return out


def cofactor_charpoly(mat: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients (descending powers) of
    det(z I - M) by recursive cofactor expansion along rows, skipping
    zero entries and memoizing shared minors (exact oracle for small n)."""
    n = mat.shape[0]
    memo = {}

    def expand(cols):
        if not cols:
            return [1.0]
        if cols in memo:
            return memo[cols]
        i = n - len(cols)  # expand along the first remaining row
        total = None
        for pos, j in enumerate(cols):
            if i == j:
                entry = [1.0, -mat[i, j]]  # z - M_ii
            elif mat[i, j] != 0.0:
                entry = [-mat[i, j]]
            else:
                continue
            term = _poly_mul(entry, expand(cols[:pos] + cols[pos + 1 :]))
            if pos % 2:
                term = [-c for c in term]
            total = _poly_add(total, term)
        total = total or [0.0]
        memo[cols] = total
        return total

    poly = expand(tuple(range(n)))
    coeffs = np.zeros(n + 1)
    coeffs[n + 1 - len(poly) :] = poly
    return coeffs


# -- symmetric counting and spectra ------------------------------------------------

def test_free_jacobi_three_sites():
    b = build(sample(free_spec(), 3))
    exact = [-math.sqrt(2), 0.0, math.sqrt(2)]
    assert np.allclose(np.linalg.eigvalsh(dense_reference(b)), exact, atol=1e-12)
    lams = [-1.5, -1.4, -0.1, 0.1, 1.4, 1.5]
    assert list(eigencounts([b], lams)[0]) == [0, 1, 1, 2, 2, 3]


def test_counts_at_gershgorin_bounds():
    b = build(sample(fig1b_spec(seed=5), 40))
    lo, hi = b.gershgorin()
    assert eigencount(b, lo - 1e-9) == 0
    assert eigencount(b, hi + 1e-9) == 40


def test_counts_monotone_in_lambda():
    b = build(sample(fig1b_spec(seed=6), 60))
    lams = np.linspace(*b.gershgorin(), 300)
    counts = eigencounts([b], lams)[0]
    assert np.all(np.diff(counts) >= 0)


def test_bipartite_half_count_even_n():
    # zero diagonal: spectrum symmetric under sign flip, so exactly n/2 below 0
    rng = np.random.Generator(np.random.Philox(key=8))
    for n in (4, 6, 8, 10):
        off = -np.exp(rng.uniform(-1, 1, n - 1))
        assert sturm_counts(np.zeros(n), off, np.array([0.0]))[0] == n // 2
        dense_evs = np.linalg.eigvalsh(np.diag(off, -1) + np.diag(off, 1))
        assert np.sum(dense_evs < 0) == n // 2


def test_batched_counts_equal_per_bundle_counts():
    # couplings from 1 to about e^349 give each realization its own pivot
    # floor (tiny * max c_k^2, up to about 2e-5); the free chain (odd n)
    # has an eigenvalue at 0, which a floor shared across realizations
    # would count below lam = -1e-9
    n = 301
    huge = EnsembleSpec(
        DistributionSpec("uniform", (340.0, 350.0)),
        DistributionSpec("uniform", (340.0, 350.0)),
        DistributionSpec("uniform", (-1, 1)),
        seed=4,
    )
    bundles = [build(sample(spec, n)) for spec in (free_spec(), fig1b_spec(seed=3), huge, fig1b_spec(seed=9))]
    lams = np.concatenate([np.linspace(-3.0, 3.0, 257), [-1e-5, -1e-7, -1e-9, 0.0, 1e-9, -1e150, 1e150]])
    batched = eigencounts(bundles, lams)
    assert batched.shape == (len(bundles), lams.shape[0])
    for b, row in zip(bundles, batched):
        assert np.array_equal(row, sturm_counts(b.diag, b.h_off, lams))


def stepwise_counts(diag, off, lams):
    """Oracle: the k-sequential Sturm loop, one step k over all lanes per
    vector operation, with the kernel's lane layout and pivot floors."""
    diag = np.asarray(diag, dtype=np.float64)
    off2 = np.square(np.asarray(off, dtype=np.float64))
    lams = np.asarray(lams, dtype=np.float64)
    n = diag.shape[0]
    diag = diag.reshape(n, -1, 1)
    off2 = off2.reshape(max(n - 1, 0), diag.shape[1], 1)
    lams = lams.reshape(diag.shape[1], -1)
    pivmin = np.finfo(np.float64).tiny * np.max(off2, axis=0, initial=1.0)
    d = diag[0] - lams
    np.copyto(d, -pivmin, where=np.abs(d) < pivmin)
    count = (d < 0.0).astype(np.int64)
    for k in range(1, n):
        d = (diag[k] - lams) - off2[k - 1] / d
        np.copyto(d, -pivmin, where=np.abs(d) < pivmin)
        count += d < 0.0
    return count.reshape(-1)


@pytest.fixture
def sturm_steps(monkeypatch):
    """(blocks, lanes, steps, C-contiguous pivots) of every stretch the
    Sturm kernel advances."""
    calls = []
    advance = _kernels._advance

    def counted(diag, off2, lams, pivmin, d, count, start, stop):
        calls.append((d.shape[0], d[0].size, stop - start, d.flags.c_contiguous))
        return advance(diag, off2, lams, pivmin, d, count, start, stop)

    monkeypatch.setattr(_kernels, "_advance", counted)
    return calls


def _padded_gershgorin_grid(bundle, points):
    lo, hi = bundle.gershgorin()
    half = 0.025 * (hi - lo)
    return np.linspace(lo - half, hi + half, points)


def test_blocked_counts_match_stepwise_oracle(sturm_steps):
    # the IDS shape of the limit workload: the enclosure decides the shifts
    # outside the spectrum, every block coalesces, so the kernel advances
    # far fewer than n sequential steps, and the fix-up drops the lanes
    # whose blocks have all coalesced, keeping its lanes C-contiguous
    n = 40000
    b = build(sample(fig1b_spec(seed=2024), n))
    lams = _padded_gershgorin_grid(b, 1024)
    counts = eigencounts([b], lams)[0]
    nblocks = max(blocks for blocks, _, _, _ in sturm_steps)
    assert nblocks > 1
    assert sum(steps for _, _, steps, _ in sturm_steps) <= n // 4
    (advanced,) = {lanes for blocks, lanes, _, _ in sturm_steps if blocks == nblocks}  # pass 1
    assert advanced < 0.8 * lams.shape[0]
    fixup = [lanes for blocks, lanes, _, _ in sturm_steps if blocks == nblocks - 1]
    assert len(fixup) > 1 and fixup[0] == advanced and max(fixup[1:]) < advanced
    assert all(contiguous for _, _, _, contiguous in sturm_steps)
    assert np.array_equal(counts, stepwise_counts(b.diag, b.h_off, lams))


def test_default_ids_shape_runs_in_blocks(sturm_steps):
    # the default IDS: n = 4000, four fig-1b realizations, 1024 shifts on
    # their joint Gershgorin interval padded by 5% of its width
    n = 4000
    bundles = [build(realization(fig1b_spec(seed=5521), n, r)) for r in range(4)]
    bounds = np.array([b.gershgorin() for b in bundles])
    lo, hi = bounds[:, 0].min(), bounds[:, 1].max()
    half = 0.025 * (hi - lo)
    lams = np.linspace(lo - half, hi + half, 1024)
    counts = eigencounts(bundles, lams)
    assert max(blocks for blocks, _, _, _ in sturm_steps) > 1
    oracle = stepwise_counts(
        np.stack([b.diag for b in bundles], axis=1), np.stack([b.h_off for b in bundles], axis=1),
        np.tile(lams, 4),
    )
    assert np.array_equal(counts.reshape(-1), oracle)


def test_blocked_counts_fall_back_where_blocks_never_coalesce(sturm_steps):
    # inside the band [-2, 2] of the free chain the pivot maps rotate and
    # never contract; odd n puts an exact eigenvalue at lam = 0
    n = 40001
    diag, off = np.zeros(n), -np.ones(n - 1)
    lams = np.concatenate([np.linspace(-2.5, 2.5, 1021), [0.0, -1e-9, 1e-9]])
    counts = sturm_counts(diag, off, lams)
    assert any(blocks == 1 and steps == n for blocks, _, steps, _ in sturm_steps)  # the lanes that failed
    assert np.array_equal(counts, stepwise_counts(diag, off, lams))
    assert list(counts[1021:]) == [n // 2 + 1, n // 2, n // 2 + 1]  # ties count below


def test_blocked_counts_keep_each_pivot_floor(sturm_steps):
    # couplings near e^349 give each realization its own pivot floor, up to
    # about 2e-5; n % blocks != 0 gives block 0 extra steps.  Near lam = 0
    # the blocks never coalesce (the couplings dwarf every shift in
    # [-3, 3]); at lam = +-1e150 they coalesce
    n = 8195
    huge = EnsembleSpec(
        DistributionSpec("uniform", (340.0, 350.0)),
        DistributionSpec("uniform", (340.0, 350.0)),
        DistributionSpec("uniform", (-1, 1)),
        seed=4,
    )
    bundles = [build(realization(huge, n, r)) for r in range(2)]
    lams = np.concatenate([np.linspace(-3.0, 3.0, 505), [-1e-5, -1e-7, -1e-9, 0.0, 1e-9, -1e150, 1e150]])
    counts = eigencounts(bundles, lams)
    assert max(blocks for blocks, _, _, _ in sturm_steps) > 1
    oracle = stepwise_counts(
        np.stack([b.diag for b in bundles], axis=1), np.stack([b.h_off for b in bundles], axis=1),
        np.tile(lams, 2),
    )
    assert np.array_equal(counts.reshape(-1), oracle)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counts_of_tiny_matrices_match_stepwise_oracle(n):
    rng = np.random.Generator(np.random.Philox(key=70 + n))
    diag, off = rng.uniform(-1, 1, n), -np.exp(rng.uniform(-1, 1, n - 1))
    lams = np.concatenate([np.linspace(-4.0, 4.0, 41), diag, [-1e150, 1e150]])
    assert np.array_equal(sturm_counts(diag, off, lams), stepwise_counts(diag, off, lams))


def sturm_enclosure(diag, off):
    """The kernel's enclosure (lo, hi) of each matrix column, one entry
    per column, with the kernel's pivot floors."""
    diag = np.asarray(diag, dtype=np.float64)
    n = diag.shape[0]
    diag = diag.reshape(n, -1)
    off = np.asarray(off, dtype=np.float64).reshape(n - 1, diag.shape[1])
    pivmin = np.finfo(np.float64).tiny * np.max(np.square(off), axis=0, initial=1.0)
    lo, hi = _kernels._enclosure(diag, off, pivmin[:, None])
    return lo[:, 0], hi[:, 0]


def enclosure_specs():
    """fig-1b, binary diagonal disorder, Cauchy diagonal, the free chain."""
    fig1b = fig1b_spec(seed=41)
    return {
        "fig1b": fig1b,
        "two_point": EnsembleSpec(
            DistributionSpec("constant", (0.0,)),
            DistributionSpec("constant", (0.0,)),
            DistributionSpec("two_point", (0.0, 1.5, 0.5)),
            seed=42,
        ),
        "cauchy": EnsembleSpec(fig1b.xi, fig1b.eta, DistributionSpec("cauchy", (0.0, 1.0)), seed=43),
        "free": free_spec(),
    }


@pytest.mark.parametrize("name", ["fig1b", "two_point", "cauchy", "free"])
@pytest.mark.parametrize("n", [7, 400])
def test_enclosure_contains_the_dense_spectrum(name, n):
    bundles = [build(realization(enclosure_specs()[name], n, r)) for r in range(2)]
    lo, hi = sturm_enclosure(np.stack([b.diag for b in bundles], 1), np.stack([b.h_off for b in bundles], 1))
    for b, low, high in zip(bundles, lo, hi):
        evs = np.linalg.eigvalsh(dense_reference(b))
        assert np.isfinite([low, high]).all()
        assert low < evs[0] and evs[-1] < high


@pytest.mark.parametrize("name", ["fig1b", "two_point", "cauchy", "free"])
def test_counts_at_the_enclosure_match_stepwise_oracle(name):
    # each realization gets its own shifts: within 1e-6 of its lo and hi,
    # one ulp either side of them, its extreme eigenvalues and +-1e150
    n = 301
    bundles = [build(realization(enclosure_specs()[name], n, r)) for r in range(2)]
    diag, off = np.stack([b.diag for b in bundles], 1), np.stack([b.h_off for b in bundles], 1)
    lo, hi = sturm_enclosure(diag, off)
    near = np.linspace(-1e-6, 1e-6, 9)
    lams = []
    for b, low, high in zip(bundles, lo, hi):
        evs = np.linalg.eigvalsh(dense_reference(b))
        edges = [np.nextafter(x, s) for x in (low, high) for s in (-np.inf, np.inf)]
        lams.append(np.concatenate([low + near, high + near, edges, evs[[0, -1]], [-1e150, 1e150]]))
    lams = np.concatenate(lams)
    counts = sturm_counts(diag, off, lams)
    assert np.array_equal(counts, stepwise_counts(diag, off, lams))
    assert (counts == 0).any() and (counts == n).any()


def degenerate_chains():
    """(diag, off) of matrices at the edge of the enclosure's rule."""
    rng = np.random.Generator(np.random.Philox(key=77))
    chains = {n: (rng.uniform(-1, 1, n), -np.exp(rng.uniform(-1, 1, n - 1))) for n in (1, 2, 3)}
    chains["zero off"] = (rng.uniform(-1, 1, 50), np.zeros(49))
    chains["zero"] = (np.zeros(50), np.zeros(49))
    chains["1 to e^349"] = (rng.uniform(-1, 1, 301), -np.exp(rng.uniform(0.0, 349.0, 300)))
    chains["subnormal w"] = (np.zeros(10), -np.concatenate([np.ones(8), [1e39]]))  # min w near 2e-309
    return chains


@pytest.mark.parametrize("name", [1, 2, 3, "zero off", "zero", "1 to e^349", "subnormal w"])
def test_degenerate_chains_decide_no_count_wrongly(name):
    # one chain, then again beside a random chain of its size in one call
    diag, off = degenerate_chains()[name]
    (lo,), (hi,) = sturm_enclosure(diag, off)
    if name in ("zero", "1 to e^349", "subnormal w"):
        # a zero margin, and neighbour weights that underflow: nothing decided
        assert (lo, hi) == (-np.inf, np.inf)
    tiny = np.finfo(np.float64).tiny
    edges = [x + s for x in (lo, hi) if np.isfinite(x) for s in (-1e-6, 0.0, 1e-6)]
    lams = np.concatenate([np.linspace(-4.0, 4.0, 41), diag, edges, [-tiny, -5e-324, 0.0, 5e-324, -1e150, 1e150]])
    assert np.array_equal(sturm_counts(diag, off, lams), stepwise_counts(diag, off, lams))
    n = diag.shape[0]
    rng = np.random.Generator(np.random.Philox(key=78))
    pair_diag = np.stack([diag, rng.uniform(-1, 1, n)], 1)
    pair_off = np.stack([off, -np.exp(rng.uniform(-1, 1, n - 1))], 1)
    pair_lams = np.tile(lams, 2)
    assert np.array_equal(sturm_counts(pair_diag, pair_off, pair_lams), stepwise_counts(pair_diag, pair_off, pair_lams))


def test_free_spectrum_closed_form():
    # counts at the midpoints between the closed-form eigenvalues
    # -2 cos(k pi / (n + 1)) of the free chain step by one
    n = 200
    b = build(sample(free_spec(), n))
    k = np.arange(1, n + 1)
    exact = np.sort(-2.0 * np.cos(k * np.pi / (n + 1)))
    mids = np.concatenate([[exact[0] - 0.1], 0.5 * (exact[:-1] + exact[1:]), [exact[-1] + 0.1]])
    assert np.array_equal(eigencounts([b], mids)[0], np.arange(n + 1))


def test_single_site_spectrum():
    # ties count below
    counts = sturm_counts(np.array([3.25]), np.zeros(0), np.array([3.25 - 1e-12, 3.25, 3.25 + 1e-12]))
    assert list(counts) == [0, 1, 1]


def test_bisection_matches_dense_qr():
    b = build(sample(fig1b_spec(seed=12), 40))
    dense = np.sort(np.linalg.eigvalsh(dense_reference(b)))
    lams = np.concatenate([dense - 1e-9, dense + 1e-9])
    expect = np.concatenate([np.arange(40), np.arange(1, 41)])
    assert np.array_equal(eigencounts([b], lams)[0], expect)


def test_spectrum_consistent_with_counts():
    b = build(sample(fig1b_spec(seed=13), 30))
    evs = symmetric_spectrum(b)
    assert np.all(np.diff(evs) >= 0)
    for lam in np.linspace(evs[0] - 0.5, evs[-1] + 0.5, 17):
        assert eigencount(b, lam) == int(np.sum(evs < lam))


# -- dense spectrum ------------------------------------------------------------------

def test_circulant_multiset():
    res = spectrum(build(sample(free_spec(), 4)))
    assert multiset_distance(res.eigenvalues, np.array([-2.0, 0.0, 0.0, 2.0])) < 1e-10


def test_fig1a_realness():
    res = spectrum(build(sample(fig1a_spec(seed=501), 201)))
    assert np.mean(np.abs(res.eigenvalues.imag) > 1e-6) <= 0.01


def test_small_matrices_match_charpoly_roots():
    rng = np.random.Generator(np.random.Philox(key=44))
    for trial in range(10):
        n = int(rng.integers(2, 9))
        seed = int(rng.integers(0, 2**31))
        spec = fig1b_spec(seed=seed) if trial % 2 == 0 else EnsembleSpec(
            DistributionSpec("uniform", (-0.5, 0.5)),
            DistributionSpec("uniform", (-0.5, 0.5)),
            DistributionSpec("uniform", (0, 1)),
            seed=seed,
            raw=True,
        )
        bundle = build(sample(spec, n))
        res = spectrum(bundle)
        coeffs = cofactor_charpoly(bundle.dense())
        roots = np.roots(coeffs)
        assert multiset_distance(res.eigenvalues, roots) < 1e-6


def test_spectrum_invariants_random():
    b = build(sample(fig1b_spec(seed=303), 64))
    res = spectrum(b)
    assert trace_defect(b, res.eigenvalues) < 1e-8
    assert det_defect(b, res.eigenvalues) < 1e-6
    assert conjugation_defect(res.eigenvalues) < 1e-8
    assert res.residual < 1e-8
    assert res.method == "dense-qr+probe"


def test_similarity_preserves_spectrum():
    # spectra of the original matrix and of reference-plus-corners agree;
    # the corner entries scale like exp(|g| n), so sizes are chosen to keep
    # the transformed matrix within double range of the 1e-8 tolerance
    mild = EnsembleSpec(
        DistributionSpec("uniform", (-0.1, 0.1)),
        DistributionSpec("uniform", (-0.1, 0.1)),
        DistributionSpec("uniform", (0.0, 0.5)),
        seed=3,
    )
    cases = [(mild, 60), (fig1b_spec(seed=4), 24), (fig1b_spec(seed=5), 24)]
    for spec, n in cases:
        b = build(sample(spec, n))
        direct = spectrum(b).eigenvalues
        transformed = np.linalg.eigvals(dense_perturbed(b))
        assert multiset_distance(direct, transformed) < 1e-8


def test_transfer_eigenvector_bounds_quick(monkeypatch):
    from tricurves import operators
    from tricurves.verify import check_transfer_eigenvector_bounds

    lanes = []
    kernel = operators.transfer_product_scaled

    def counting_kernel(c, q, z):
        lanes.append(np.size(z))
        return kernel(c, q, z)

    monkeypatch.setattr(operators, "transfer_product_scaled", counting_kernel)
    res = check_transfer_eigenvector_bounds(fig1b_spec())
    assert res.passed
    assert lanes == [100]  # one product per trial, all in one kernel call


def test_transfer_eigenvector_bounds_match_a_loop_over_trials():
    from tricurves import verify
    from tricurves.operators import closed_product, transfer_products

    spec = fig1b_spec(seed=61)
    res = verify.check_transfer_eigenvector_bounds(spec)
    # oracle: the same draws, one product, closure and slope pair per trial
    rng = verify._rng(spec.seed, 2)
    n = verify._BOUNDS_N
    worst = math.inf
    for trial in range(verify._BOUNDS_COUNT):
        b = build(realization(spec, n, trial))
        lo, hi = b.gershgorin()
        z = complex(rng.uniform(lo, hi), rng.uniform(0.1, 2.0))
        state = transfer_product(b, z)
        u, v = eigenvector_slopes_one(state.matrix)
        ub, vb = eigenvector_slopes_one(closed_product([b], transfer_products([b], [z])).matrix[0])
        c0, cn = b.c[0], b.c[n]
        worst = min(worst, -z.imag / cn - u.imag, c0 / z.imag - abs(v), v.imag,
                    -b.beta * z.imag / cn - ub.imag, c0 / z.imag - abs(vb), vb.imag)
    assert abs(res.measured - worst) <= 1e-15
    assert res.passed


def test_rank2_residuals_of_lanes_match_one_z_at_a_time():
    from tricurves.operators import transfer_products

    b = build(sample(fig1b_spec(seed=35), 30))
    zs = np.array([0.4 + 0.3j, 1.2 - 0.8j, -0.5 + 1.7j, 2.2 + 0.25j])
    lanes = resolvent_corners(b, zs, transfer_products([b] * zs.size, zs))
    residuals = characteristic_residual(b, lanes)
    assert residuals.shape == zs.shape
    log_d = rank2_det(b, lanes)
    for i, z in enumerate(zs):
        one = corners(b, z)
        for field in ("g11", "gnn", "log_g1n", "log_det"):
            assert getattr(lanes, field)[i] == pytest.approx(getattr(one, field), rel=1e-14)
        assert log_d[i] == pytest.approx(rank2_det(b, one), rel=1e-14)
        assert abs(residuals[i] - characteristic_residual(b, one)) < 1e-12
    # vanishing corners in every lane: log(1 + 0) and no warning
    from dataclasses import replace

    b0 = replace(b, log_abs_a=-math.inf, log_abs_b=-math.inf)
    lanes0 = resolvent_corners(b0, zs, transfer_products([b0] * zs.size, zs))
    assert np.all(np.abs(np.exp(rank2_det(b0, lanes0)) - 1.0) < 1e-15)


def test_spectrum_computes_no_determinant(monkeypatch):
    # the spectrum stage reads only eigenvalues, method and residual
    def refuse(*args, **kwargs):
        raise AssertionError("spectrum() must not factor the matrix for a determinant")

    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    for n in (64, 801):
        res = spectrum(build(sample(fig1b_spec(seed=303), n)))
        assert res.method == "dense-qr+probe" and res.eigenvalues.shape == (n,)


@pytest.mark.parametrize("n", [64, 300, 801])
def test_spectrum_is_lexsorted_eigvals_bit_for_bit(n):
    # one solve path at every n
    b = build(realization(fig1b_spec(), n, 0))
    ref = np.linalg.eigvals(b.dense())
    ref = ref[np.lexsort((ref.imag, ref.real))]
    got = spectrum(b).eigenvalues
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_raw_spectrum_reports_no_residual():
    spec = EnsembleSpec(
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (0, 1)),
        seed=31,
        raw=True,
    )
    res = spectrum(build(sample(spec, 120)))
    assert res.method == "dense-qr" and math.isnan(res.residual)


@pytest.mark.parametrize("n", [60, 801])
def test_probed_spectrum_makes_one_kernel_call(n, monkeypatch):
    # the three closure probes run as the lanes of one transfer product call
    from tricurves import operators

    lanes = []
    kernel = operators.transfer_product_scaled

    def counting_kernel(c, q, z):
        lanes.append(np.size(z))
        return kernel(c, q, z)

    monkeypatch.setattr(operators, "transfer_product_scaled", counting_kernel)
    res = spectrum(build(sample(fig1b_spec(seed=303), n)))
    assert res.method == "dense-qr+probe"
    assert lanes == [3]


def test_spectrum_probe_residual_large_n():
    for spec in (fig1b_spec, fig1b_mirror_spec):  # g > 0 and g < 0
        res = spectrum(build(sample(spec(seed=303), 900)))
        assert res.method == "dense-qr+probe"
        assert res.residual < 1e-6


@pytest.mark.parametrize("n", [300, 801])
def test_probe_residual_is_finite_where_g_is_zero(n):
    # g = 0: the probes are real and far from a root, where the trace term
    # w_n tr T dwarfs the others, so the residual reads about 1
    res = spectrum(build(realization(fig1a_spec(seed=2024), n, 0)))
    assert res.method == "dense-qr+probe"
    assert math.isfinite(res.residual)


# -- resolvent corners ------------------------------------------------------------------

def test_resolvent_single_site():
    # corner formula on the smallest bundle the builder accepts: n = 2
    spec = EnsembleSpec(*(DistributionSpec("constant", (v,)) for v in (0.0, 0.0, 1.5)), seed=0)
    b = build(sample(spec, 2))
    z = 0.3 + 0.4j
    rc = corners(b, z)
    g = np.linalg.inv(dense_reference(b).astype(complex) - z * np.eye(2))
    assert rc.g11 == pytest.approx(g[0, 0], rel=1e-12)
    assert rc.gnn == pytest.approx(g[1, 1], rel=1e-12)
    assert cmath.exp(rc.log_g1n) == pytest.approx(g[0, 1], rel=1e-12)


def test_resolvent_against_dense_inverse():
    b = build(sample(fig1b_spec(seed=17), 20))
    rng = np.random.Generator(np.random.Philox(key=18))
    for _ in range(5):
        z = complex(rng.uniform(-2, 3), rng.uniform(0.1, 2.0) * (1 if rng.uniform() < 0.5 else -1))
        rc = corners(b, z)
        g = np.linalg.inv(dense_reference(b).astype(complex) - z * np.eye(20))
        assert abs(rc.g11 - g[0, 0]) / abs(g[0, 0]) < 1e-9
        assert abs(rc.gnn - g[19, 19]) / abs(g[19, 19]) < 1e-9
        assert abs(cmath.exp(rc.log_g1n) - g[0, 19]) / abs(g[0, 19]) < 1e-9


def test_herglotz_property():
    rng = np.random.Generator(np.random.Philox(key=19))
    for trial in range(100):
        b = build(sample(fig1b_spec(seed=trial), 25))
        z = complex(rng.uniform(-2, 3), rng.uniform(0.05, 2.5))
        rc = corners(b, z)
        assert rc.g11.imag > 0
        assert rc.gnn.imag > 0
        rc_low = corners(b, np.conj(z))
        assert rc_low.g11.imag < 0


def test_corner_product_identity():
    # G_1n * det(H - z) = prod of couplings, exactly by construction; check
    # in log modulus against independently accumulated values
    b = build(sample(fig1b_spec(seed=23), 50))
    z = 0.4 + 0.9j
    rc = corners(b, z)
    lhs = rc.log_g1n.real + rc.log_det.real
    rhs = float(np.sum(np.log(np.abs(b.h_off))))
    assert abs(lhs - rhs) < 1e-8


def test_singular_resolvent_raises():
    spec = free_spec(seed=0)
    b = build(sample(spec, 5))
    evs = symmetric_spectrum(b)
    assert min(abs(evs)) < 1e-12  # 0 is an eigenvalue for odd free chains
    with pytest.raises(SingularResolventError):
        corners(b, 0.0)  # determinant vanishes exactly


# -- rank-2 determinant ------------------------------------------------------------------

def test_rank2_trivial_when_corners_vanish():
    # hypothetical zero perturbation: force log|a|, log|b| to -inf via raw arrays
    from dataclasses import replace

    b = build(sample(fig1b_spec(seed=29), 12))
    b0 = replace(b, log_abs_a=-math.inf, log_abs_b=-math.inf)
    d = rank2_det(b0, corners(b0, 0.5 + 0.5j))
    assert cmath.exp(d) == pytest.approx(1.0)


def test_rank2_identity_random(monkeypatch):
    from tricurves import eigensolvers, operators

    calls = {"transfer_product_scaled": 0, "rank2_det": 0}

    def counted(module, name):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(operators, "transfer_product_scaled")
    counted(eigensolvers, "rank2_det")
    b = build(sample(fig1b_spec(seed=31), 30))
    rng = np.random.Generator(np.random.Philox(key=32))
    for _ in range(10):
        z = complex(rng.uniform(-2, 3), rng.uniform(0.2, 2.0) * (1 if rng.uniform() < 0.5 else -1))
        assert characteristic_residual(b, corners(b, z)) < 1e-6
    # one product per z, the caller's: the residual computes none itself
    assert calls == {"transfer_product_scaled": 10, "rank2_det": 10}


def test_rank2_check_makes_one_kernel_call_per_realization(monkeypatch):
    from tricurves import operators, verify
    from tricurves.ensembles import realization

    spec = fig1b_spec(seed=33)
    lanes = []
    kernel = operators.transfer_product_scaled

    def counting_kernel(c, q, z):
        lanes.append(np.size(z))
        return kernel(c, q, z)

    monkeypatch.setattr(operators, "transfer_product_scaled", counting_kernel)
    res = verify.check_rank2_identity(spec)
    assert lanes == [200]  # one call: 10 z for each of 20 realizations
    # oracle: the same z draws, one unbatched product per z
    rng = verify._rng(spec.seed, 1)
    worst = 0.0
    for r in range(verify._RANK2_REALIZATIONS):
        b = build(realization(spec, verify._RANK2_N, r))
        lo, hi = b.gershgorin()
        for _ in range(verify._RANK2_Z_COUNT):
            x = rng.uniform(lo, hi)
            y = rng.uniform(0.2, 2.0) * (1 if rng.uniform() < 0.5 else -1)
            worst = max(worst, characteristic_residual(b, corners(b, complex(x, y))))
    assert abs(res.measured - worst) < 1e-12
    assert res.passed


def test_rank2_cross_term_decays():
    # |a b G_1n G_n1| falls exponentially in n off the real axis:
    # log of the cross term decreases along n = 100..800
    z = 0.8 + 0.7j
    logs = []
    for n in (100, 200, 400, 800):
        b = build(sample(fig1b_spec(seed=40), n))
        rc = corners(b, z)
        logs.append(b.log_abs_a + b.log_abs_b + 2.0 * rc.log_g1n.real)
    assert all(l2 < l1 for l1, l2 in zip(logs, logs[1:]))
    slope = np.polyfit([100, 200, 400, 800], logs, 1)[0]
    assert slope < 0


def sector_distance_to_one(alpha: float) -> float:
    """Distance from 1 to the half-plane sector {alpha <= arg z <= alpha+pi},
    0 <= alpha <= pi: equal to sin(alpha).

    Used to lower-bound the fourth rank-2 term |1 - a b G11 Gnn|: the
    product a b is positive and each corner diagonal entry maps a half
    plane into itself, so the term's argument is confined to such a sector
    with alpha = arg G11 and the bound gives sin(alpha) = |Im G11|/|G11|.
    """
    if not 0.0 <= alpha <= math.pi:
        raise ValidationError(f"sector angle must be in [0, pi], got {alpha}")
    return math.sin(alpha)


def test_sector_distance_bound():
    rng = np.random.Generator(np.random.Philox(key=51))
    for _ in range(200):
        alpha = rng.uniform(0.0, np.pi)
        r = rng.uniform(0.0, 5.0)
        theta = rng.uniform(alpha, alpha + np.pi)
        z = r * np.exp(1j * theta)
        assert abs(1.0 - z) >= sector_distance_to_one(alpha) - 1e-12
    with pytest.raises(Exception):
        sector_distance_to_one(4.0)


def test_fourth_term_sector_lower_bound():
    # |1 - a b G11 Gnn| >= sin(arg G11): a b > 0 and both corner entries
    # keep their half plane, confining the product's argument to a sector
    rng = np.random.Generator(np.random.Philox(key=52))
    for trial in range(40):
        b = build(sample(fig1b_spec(seed=trial), 40))
        z = complex(rng.uniform(-2, 3), rng.uniform(0.1, 1.5))
        rc = corners(b, z)
        ab = math.exp(b.log_abs_a + b.log_abs_b)  # (-a)(-b) > 0
        fourth = 1.0 - ab * rc.g11 * rc.gnn
        alpha = math.atan2(abs(rc.g11.imag), rc.g11.real)
        assert abs(fourth) >= sector_distance_to_one(alpha) - 1e-12


def test_log_det_reference_matches_dense():
    b = build(sample(fig1b_spec(seed=41), 35))
    z = -0.3 + 1.2j
    mine = log_det_reference(b, z)
    sign, logdet = np.linalg.slogdet(dense_reference(b).astype(complex) - z * np.eye(35))
    assert mine.real == pytest.approx(float(logdet), rel=1e-10)


def test_overflow_range_matches_dense():
    # n = 1500 at z = 5 + 5i: log|det(H - z)| is about 2861, far beyond the
    # double range, so only the complex logarithms carry the values
    n = 1500
    b = build(sample(fig1b_spec(seed=43), n))
    z = 5.0 + 5.0j
    h = dense_reference(b).astype(complex) - z * np.eye(n)
    sign, logdet = np.linalg.slogdet(h)
    assert logdet > 2800
    mine = log_det_reference(b, z)
    assert mine.real == pytest.approx(float(logdet), rel=1e-10)
    rc = corners(b, z)
    unit = np.eye(n)
    g11 = np.linalg.solve(h, unit[:, 0])[0]
    gnn = np.linalg.solve(h, unit[:, -1])[-1]
    assert abs(rc.g11 - g11) / abs(g11) < 1e-9
    assert abs(rc.gnn - gnn) / abs(gnn) < 1e-9
    assert abs(rc.log_g1n.real + rc.log_det.real - float(np.sum(np.log(b.c[1:n])))) < 1e-8
