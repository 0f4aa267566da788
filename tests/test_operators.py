import math
import tracemalloc

import numpy as np
import pytest

from tricurves import DistributionSpec, EnsembleSpec, ValidationError, build, sample, spectrum
from tricurves.operators import (
    TransferState,
    boundary_residual,
    closed_product,
    column_sum_norm,
    eigenvector_slopes,
    transfer_product,
    transfer_products,
)
from tricurves import _kernels
from tricurves._kernels import transfer_product_scaled
from tricurves.ensembles import realization

from conftest import (
    boundary_residual_from_products,
    boundary_residual_one,
    dense_perturbed,
    eigenvector_slopes_one,
    fig1b_mirror_spec,
    fig1b_spec,
    free_spec,
)


def one_step_matrix(bundle, k, z):
    """A_k = (1/c_k) [[q_k - z, -c_{k-1}], [c_k, 0]], 1 <= k <= n (test oracle)."""
    bundle._need_log_coords("transfer matrices")
    if not 1 <= k <= bundle.n:
        raise ValidationError(f"transfer step k must be in 1..n, got {k}")
    ck = bundle.c[k]
    q = bundle.seq.q
    return np.array(
        [[(q[k] - z) / ck, -bundle.c[k - 1] / ck], [1.0, 0.0]], dtype=np.complex128
    )


def identity_state():
    """The empty transfer product (test oracle)."""
    return TransferState(np.eye(2, dtype=np.complex128), 0.0)


def transfer_step(state, k, z, bundle):
    """One renormalized step A_k S of the transfer product (test oracle)."""
    m = one_step_matrix(bundle, k, z) @ state.matrix
    norm = column_sum_norm(m)
    return TransferState(m / norm, state.log_scale + math.log(norm))


def longdouble_product(bundle, z, upto=None):
    """Extended-precision naive transfer product (test oracle)."""
    n = bundle.n if upto is None else upto
    q = bundle.seq.q.astype(np.longdouble)
    c = bundle.c.astype(np.longdouble)
    m = np.eye(2, dtype=np.clongdouble)
    for k in range(1, n + 1):
        a = np.array(
            [[(q[k] - np.clongdouble(z)) / c[k], -c[k - 1] / c[k]], [1.0, 0.0]],
            dtype=np.clongdouble,
        )
        m = a @ m
    return m


# -- build ----------------------------------------------------------------------

def test_circulant_constant_bundle():
    b = build(sample(free_spec(), 4))
    j = b.dense()
    expect = np.array(
        [
            [0, -1, 0, -1],
            [-1, 0, -1, 0],
            [0, -1, 0, -1],
            [-1, 0, -1, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(j, expect)
    assert np.allclose(b.c, 1.0)
    assert np.all(b.log_w == 0.0)  # w_k = 1
    assert b.log_abs_a == 0.0 and b.log_abs_b == 0.0  # a_n = b_n = -1
    assert b.beta == 1.0


def test_weights_closed_form_constant_drift():
    # xi = 0, eta = 2*g0: w_k = e^{-g0 k}, log|a_n| per the corner formula
    g0 = 0.35
    spec = EnsembleSpec(*(DistributionSpec("constant", (v,)) for v in (0.0, 2 * g0, 0.0)), seed=0)
    n = 40
    b = build(sample(spec, n))
    ks = np.arange(n + 2)
    assert np.allclose(b.log_w, -g0 * ks)
    xi, eta = b.seq.xi, b.seq.eta
    expect_log_a = 0.5 * np.sum(xi[:n] - eta[:n]) + 0.5 * (xi[0] + eta[0])
    assert b.log_abs_a == pytest.approx(expect_log_a, rel=1e-12)
    # finite-n drift identity: (1/n) log(1/w_n) = (1/2) mean(eta - xi) over 0..n-1
    assert -b.log_w[n] / n == pytest.approx(0.5 * np.mean(eta[:n] - xi[:n]), rel=1e-12)


def test_similarity_identity_elementwise():
    b = build(sample(fig1b_spec(seed=50), 50))
    w = np.diag(np.exp(b.log_w[1:51]))
    lhs = np.linalg.inv(w) @ b.dense() @ w
    rhs = dense_perturbed(b)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_build_rejects_too_short():
    with pytest.raises(ValidationError):
        build(sample(free_spec(), 1))


def test_weight_overflow_reports_log():
    spec = EnsembleSpec(*(DistributionSpec("constant", (v,)) for v in (0.0, 4.0, 0.0)), seed=0)  # w_k = e^{-2k}
    b = build(sample(spec, 400))
    # the weights and corners leave the double range; their logs are exact
    assert b.log_w[-1] == pytest.approx(-802.0)
    assert b.log_abs_a == pytest.approx(2.0 - 800.0)
    assert b.log_abs_b == pytest.approx(2.0 - 2.0 + 802.0)
    # far off the axis w_n T is astronomically far from the identity: the
    # closure residual's trace term dominates, and the residual reads 1
    assert boundary_residual(b, 1e3j) == pytest.approx(1.0)


def test_raw_bundle_rejects_symmetrization():
    spec = EnsembleSpec(
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (0, 1)),
        seed=4,
        raw=True,
    )
    b = build(sample(spec, 20))
    assert b.raw
    assert b.dense().shape == (20, 20)
    with pytest.raises(ValidationError):
        _ = b.h_off
    with pytest.raises(ValidationError):
        transfer_product(b, 1j)


# -- transfer matrices ------------------------------------------------------------

def test_rotation_period_four():
    # c = 1, q = 0, z = 0: A = [[0,-1],[1,0]], so S_4 = I with zero log-scale
    b = build(sample(free_spec(), 4))
    state = identity_state()
    for k in range(1, 5):
        state = transfer_step(state, k, 0.0, b)
    assert np.allclose(state.matrix * math.exp(state.log_scale), np.eye(2), atol=1e-15)
    assert state.log_scale == pytest.approx(0.0, abs=1e-15)
    fast = transfer_product(b, 0.0)
    assert np.allclose(fast.matrix * math.exp(fast.log_scale), np.eye(2), atol=1e-15)


def test_transfer_state_norm_invariant():
    b = build(sample(fig1b_spec(seed=3), 30))
    state = identity_state()
    for k in range(1, 31):
        state = transfer_step(state, k, 0.7 + 0.3j, b)
        assert 0.5 <= column_sum_norm(state.matrix) <= 2.0


def test_kernel_equals_stepwise_product():
    b = build(sample(fig1b_spec(seed=9), 64))
    z = -0.4 + 0.8j
    state = identity_state()
    for k in range(1, 65):
        state = transfer_step(state, k, z, b)
    fast = transfer_product(b, z)
    assert fast.log_scale == pytest.approx(state.log_scale, rel=1e-13)
    assert np.allclose(fast.matrix, state.matrix, atol=1e-13)


def stepwise_product(bundle, z):
    state = identity_state()
    for k in range(1, bundle.n + 1):
        state = transfer_step(state, k, z, bundle)
    return state


@pytest.mark.parametrize("n", [2, 3, 16, 17, 48, 64, 81, 1000, 4099])
def test_kernel_lanes_equal_stepwise_product(n):
    # one call whose lanes mix ensembles, realizations and z (both half
    # planes and the real axis); n covers perfect squares, a short last
    # block, products shorter than one block, and block counts that are
    # odd and not powers of two (7, 9 and 257 blocks at n = 48, 81, 4099)
    specs = (fig1b_spec(seed=n), fig1b_spec(seed=n + 1), free_spec(), fig1b_spec(seed=n + 2))
    bundles = [build(sample(spec, n)) for spec in specs]
    zs = [-0.4 + 0.8j, 1.3 - 0.2j, 2.5 + 0.0j, 0.5 - 1.5j]
    for b, z, fast in zip(bundles, zs, transfer_products(bundles, zs)):
        slow = stepwise_product(b, z)
        assert abs(fast.log_scale - slow.log_scale) <= 1e-13 * max(1.0, abs(slow.log_scale))
        assert np.max(np.abs(fast.matrix - slow.matrix)) <= 1e-13  # unit column-sum norm


def test_kernel_long_lane_equals_stepwise_product():
    # one lane of 1250 blocks: eleven levels of the pairwise fold
    b = build(sample(fig1b_spec(seed=20), 20_000))
    z = 0.3 + 0.6j
    fast, slow = transfer_product(b, z), stepwise_product(b, z)
    assert abs(fast.log_scale - slow.log_scale) <= 1e-13 * max(1.0, abs(slow.log_scale))
    assert np.max(np.abs(fast.matrix - slow.matrix)) <= 1e-13


def test_kernel_lane_ignores_other_lanes():
    z = 0.7 + 0.9j
    # n = 50 runs in one pass; n = 5000 is past the 16-step block cap, and
    # with 60 lanes its 313 blocks are folded in several passes where one
    # lane folds them in one
    for n in (5000, 50):
        mine = build(sample(fig1b_spec(seed=5), n))
        alone = transfer_product_scaled(mine.c, mine.seq.q, z)
        assert alone[0].shape == (1,) and alone[1].shape == (1, 2, 2)  # one lane
        others = [build(sample(fig1b_spec(seed=s), n)) for s in range(5)]
        for company, their_zs in (
            (others[:1], [1j]),
            (others[:1], [-3.0 + 1e8j]),
            (others, [0.1, 2j, -1 - 1j, 5.0 + 0.1j, 1e-9j]),
            (others[2:4], [z, np.conj(z)]),
            (others * 12, list(np.linspace(-2.0, 2.0, 60) + 0.5j)),
        ):
            for at in (0, len(company)):
                bundles = company[:at] + [mine] + company[at:]
                zs = their_zs[:at] + [z] + their_zs[at:]
                state = transfer_products(bundles, zs)[at]
                assert state.log_scale == alone[0][0]
                assert np.array_equal(state.matrix, alone[1][0])
    # n = 50 again, with more lanes than one pass holds: the lanes run in
    # two chunks, and the first and the last lane sit in different chunks
    lanes = _kernels._TRANSFER_WIDTH + 3
    pick = np.arange(lanes) % len(others)
    c = np.stack([b.c for b in others], axis=1)[:, pick]
    q = np.stack([b.seq.q for b in others], axis=1)[:, pick]
    zs = np.linspace(-2.0, 2.0, lanes) + 0.5j
    for at in (0, lanes - 1):
        c[:, at], q[:, at], zs[at] = mine.c, mine.seq.q, z
    log_scales, mats = transfer_product_scaled(c, q, zs)
    for at in (0, lanes - 1):
        assert log_scales[at] == alone[0][0]
        assert np.array_equal(mats[at], alone[1][0])


def test_lanes_of_one_bundle_share_its_columns():
    # 1000 lanes of one bundle equal the call with a stacked copy of its
    # columns per lane, bit for bit, without holding that copy
    b = build(realization(fig1b_spec(), 2000, 0))
    rng = np.random.Generator(np.random.Philox(key=9))
    zs = rng.uniform(-1.0, 3.0, 1000) + 1j * rng.uniform(-1.0, 1.0, 1000)
    stacked = transfer_product_scaled(np.stack([b.c] * zs.size, axis=1), np.stack([b.seq.q] * zs.size, axis=1), zs)
    tracemalloc.start()
    try:
        shared = transfer_products([b] * zs.size, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(shared.log_scale, stacked[0])
    assert np.array_equal(shared.matrix, stacked[1])
    assert peak < 12 * 2**20  # a stacked copy of c and q alone is 30.5 MiB


def test_kernel_passes_stay_within_width(monkeypatch):
    # no pass advances more (lane, block) products than _TRANSFER_WIDTH,
    # for one long lane, many short lanes and lanes in two chunks
    passes = []
    advance = _kernels._block_products

    def recorded(coeffs, size, first, stop):
        log_scale, top, bottom = advance(coeffs, size, first, stop)
        passes.append(log_scale.size)
        return log_scale, top, bottom

    monkeypatch.setattr(_kernels, "_block_products", recorded)
    width = _kernels._TRANSFER_WIDTH
    for lanes, n in ((1, 16 * width + 5), (100, 5000), (width + 3, 40)):
        passes.clear()
        c = np.ones((n + 1, lanes))
        transfer_product_scaled(c, np.zeros(n + 1), np.full(lanes, 0.5j))
        assert max(passes) <= width
        assert sum(passes) == lanes * -(-n // min(16, math.isqrt(n - 1) + 1))


def test_renormalized_equals_naive_product():
    b = build(sample(fig1b_spec(seed=4), 20))
    z = 0.9 - 0.6j
    naive = np.eye(2, dtype=complex)
    for k in range(1, 21):
        naive = one_step_matrix(b, k, z) @ naive
    fast = transfer_product(b, z)
    rebuilt = fast.matrix * math.exp(fast.log_scale)
    assert np.max(np.abs(rebuilt - naive)) / np.max(np.abs(naive)) < 1e-10


def test_det_identity_high_precision():
    # det S_n = c_0 / c_n independent of z, checked at 1e-12 relative in log
    # via the extended-precision product.  The determinant of a 2x2 product
    # loses ~2 gamma n digits to cancellation, so the check uses a low-drift
    # ensemble and z near the spectrum where the growth rate is small.
    spec = EnsembleSpec(
        DistributionSpec("uniform", (-0.1, 0.1)),
        DistributionSpec("uniform", (-0.1, 0.1)),
        DistributionSpec("uniform", (0.0, 0.5)),
        seed=7,
    )
    b = build(sample(spec, 30))
    expected = math.log(b.c[0] / b.c[30])
    rng = np.random.Generator(np.random.Philox(key=5))
    for _ in range(5):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.05, 0.05))
        m = longdouble_product(b, z)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(float(np.log(abs(det))) - expected) < 1e-12 * max(1.0, abs(expected))
        # the double-precision kernel agrees within its cancellation budget
        fast = transfer_product(b, z)
        det_fast = np.linalg.det(fast.matrix)
        log_det_fast = math.log(abs(det_fast)) + 2 * fast.log_scale
        assert abs(log_det_fast - expected) < 1e-6


def test_boundary_matrix_symmetric_case_is_plain_product():
    # xi = eta pointwise makes beta = 1, so B S = S
    spec = EnsembleSpec(*(DistributionSpec("constant", (v,)) for v in (0.3, 0.3, 0.25)), seed=0)
    b = build(sample(spec, 12))
    assert b.beta == pytest.approx(1.0)
    z = 0.2 + 0.4j
    s = transfer_products([b], [z])
    closed = closed_product([b], s)
    assert np.allclose(closed.matrix, s.matrix)
    assert closed.log_scale == pytest.approx(s.log_scale)


def test_boundary_equals_folded_last_factor():
    # B S_n = A~_n A_{n-1} ... A_1 with the closure folded into the last step
    b = build(sample(fig1b_spec(seed=13), 24))
    z = 0.5 + 0.7j
    state = identity_state()
    for k in range(1, 24):
        state = transfer_step(state, k, z, b)
    n = b.n
    c, q = b.c, b.seq.q
    a_tilde = np.array(
        [
            [(q[n] - z) * b.beta / c[n], -c[n - 1] * b.beta / c[n]],
            [1.0, 0.0],
        ],
        dtype=complex,
    )
    folded = a_tilde @ (state.matrix * math.exp(state.log_scale))
    closed = closed_product([b], transfer_products([b], [z]))[0]
    rebuilt = closed.matrix * math.exp(closed.log_scale)
    assert np.max(np.abs(folded - rebuilt)) / np.max(np.abs(folded)) < 1e-12


def test_boundary_eigencondition_at_spectrum():
    from tricurves import spectrum

    b = build(sample(fig1b_spec(seed=21), 12))
    res = spectrum(b)
    worst = max(boundary_residual(b, complex(z)) for z in res.eigenvalues)
    assert worst < 1e-8


def test_boundary_eigencondition_circulant_exact():
    b = build(sample(free_spec(), 4))
    assert boundary_residual(b, 2.0) < 1e-12
    assert boundary_residual(b, 1.7) > 1e-2


def _overflowing_bundle():
    """w_k = e^{-2k}: at n = 400 the closure terms pass e^300 far off the axis."""
    spec = EnsembleSpec(*(DistributionSpec("constant", (v,)) for v in (0.0, 4.0, 0.0)), seed=0)
    return build(sample(spec, 400))


def _nonreal_eigenvalues(n, r, spec=None):
    bundle = build(realization(spec or fig1b_spec(), n, r))
    ev = spectrum(bundle).eigenvalues
    return bundle, ev[ev.imag != 0.0]


@pytest.mark.parametrize(
    "case", ["fig1b-16", "fig1b-300", "fig1b-801", "mirror-300", "mirror-801", "circulant", "overflow"]
)
def test_lane_residual_matches_the_scalar_oracle(case):
    # all z in one kernel call against one scalar evaluation per z: both
    # form the same products, and only numpy's vector exp and log round
    # apart from libm's, which moves the normalized residual by a few eps;
    # an oracle inf or 0 is kept exactly
    if case.startswith(("fig1b", "mirror")):
        name, n = case.split("-")
        spec = fig1b_spec() if name == "fig1b" else fig1b_mirror_spec()
        pairs = [_nonreal_eigenvalues(int(n), r, spec) for r in (0, 1)]
    elif case == "circulant":
        pairs = [(build(sample(free_spec(), 4)), np.array([2.0, 1.7, 0.0, 2j]))]
    else:
        pairs = [(_overflowing_bundle(), np.array([1e3j, 0.5j, 2.0]))]
    exact_seen = 0
    for bundle, zs in pairs:
        lanes = boundary_residual(bundle, zs)
        oracle = np.array([boundary_residual_one(bundle, z) for z in zs])
        exact = np.isinf(oracle) | (oracle == 0.0)
        assert np.array_equal(lanes[exact], oracle[exact])
        assert np.all(np.abs(lanes[~exact] - oracle[~exact]) <= 4 * np.finfo(float).eps)
        exact_seen += int(np.sum(exact))
    assert exact_seen == {"circulant": 1}.get(case, 0)


@pytest.mark.parametrize("n", [16, 300, 801])
def test_closed_form_residual_agrees_with_the_product_route(n):
    # where both terms stay small, det(B S_n) read off the product is
    # rounding-level close to its closed form, so the two residuals agree
    for r in (0, 1):
        bundle, zs = _nonreal_eigenvalues(n, r)
        route = np.array([boundary_residual_from_products(bundle, z) for z in zs])
        assert zs.size and np.all(np.abs(boundary_residual(bundle, zs) - route) <= 1e-13)


def test_eigenvector_slopes_match_numpy():
    m = np.array([[1.2 + 0.3j, -0.7j], [2.0, 0.1 - 1.1j]])
    u, v = eigenvector_slopes(m)
    vals, vecs = np.linalg.eig(m)
    slopes = sorted((vecs[0, i] / vecs[1, i] for i in range(2)), key=lambda s: s.imag)
    assert u == pytest.approx(slopes[0], rel=1e-12)
    assert v == pytest.approx(slopes[1], rel=1e-12)



def test_eigenvector_slopes_of_a_stack_match_one_matrix_at_a_time():
    bundles = [build(sample(fig1b_spec(seed=s), 40)) for s in range(6)]
    zs = [0.3 + 0.5j, 1.1 + 0.2j, -0.4 + 1.5j, 2.0 + 0.1j, 0.9 + 1.9j, 0.5 + 0.7j]
    stack = transfer_products(bundles, zs).matrix
    u, v = eigenvector_slopes(stack)
    assert u.shape == v.shape == (6,)
    for lane, m in enumerate(stack):
        u1, v1 = eigenvector_slopes_one(m)
        assert u[lane] == pytest.approx(u1, rel=1e-15, abs=0) and v[lane] == pytest.approx(v1, rel=1e-15, abs=0)
        assert eigenvector_slopes(m) == (u[lane], v[lane])


def test_eigenvector_slopes_with_m10_zero_take_the_other_branch():
    # the eigenvector of m11 has slope m01 / (m11 - m00); that of m00 is
    # (1, 0)^T, slope infinite.  No lane warns: the suite turns
    # RuntimeWarnings into errors, and np.where evaluates both branches.
    triangular = np.array([[1.0 + 0.5j, 0.25 - 1j], [0.0, 0.5 - 0.5j]])
    generic = np.array([[1.0 + 0.5j, 0.25 - 1j], [0.3j, 0.5 - 0.5j]])
    u, v = eigenvector_slopes(np.stack([generic, triangular]))
    finite = [s for s in (u[1], v[1]) if np.isfinite(s)]
    assert finite == [triangular[0, 1] / (triangular[1, 1] - triangular[0, 0])]
    assert (u[0], v[0]) == eigenvector_slopes(generic)


def test_closed_product_of_a_stack_matches_one_lane_at_a_time():
    bundles = [build(sample(fig1b_spec(seed=s), 30)) for s in range(4)]
    zs = [0.3 + 0.5j, 1.1 - 0.2j, -0.4 + 1.5j, 2.0 + 0.1j]
    states = transfer_products(bundles, zs)
    closed = closed_product(bundles, states)
    assert closed.matrix.shape == (4, 2, 2) and closed.log_scale.shape == (4,)
    for lane, bundle in enumerate(bundles):
        one = closed_product([bundle], states[lane : lane + 1])
        assert np.array_equal(closed.matrix[lane], one.matrix[0])
        assert closed.log_scale[lane] == pytest.approx(one.log_scale[0], rel=1e-15)
