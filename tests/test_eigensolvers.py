
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
    symmetric_eigencount,
    symmetric_spectrum,
)
from tricurves.eigensolvers import (
    characteristic_residual,
    log_det_reference,
    multiset_distance,
    tridiagonal_counts,
    tridiagonal_spectrum,
)

from conftest import fig1a_spec, fig1b_spec, free_spec, generic_spec


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
    diag = np.zeros(3)
    off = -np.ones(2)
    evs = tridiagonal_spectrum(diag, off)
    assert np.allclose(np.sort(evs), [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)
    assert tridiagonal_counts(diag, off, [0.1])[0] == 2


def test_counts_at_gershgorin_bounds():
    b = build(sample(generic_spec(seed=5), 40))
    lo, hi = b.gershgorin()
    assert symmetric_eigencount(b, lo - 1e-9) == 0
    assert symmetric_eigencount(b, hi + 1e-9) == 40


def test_counts_monotone_in_lambda():
    b = build(sample(generic_spec(seed=6), 60))
    lams = np.linspace(*b.gershgorin(), 300)
    counts = tridiagonal_counts(b.h_diag, b.h_off, lams)
    assert np.all(np.diff(counts) >= 0)


def test_bipartite_half_count_even_n():
    # zero diagonal: spectrum symmetric under sign flip, so exactly n/2 below 0
    rng = np.random.Generator(np.random.Philox(key=8))
    for n in (4, 6, 8, 10):
        off = -np.exp(rng.uniform(-1, 1, n - 1))
        assert tridiagonal_counts(np.zeros(n), off, [0.0])[0] == n // 2
        dense_evs = np.linalg.eigvalsh(np.diag(off, -1) + np.diag(off, 1))
        assert np.sum(dense_evs < 0) == n // 2


def test_free_spectrum_closed_form():
    n = 200
    evs = tridiagonal_spectrum(np.zeros(n), -np.ones(n - 1))
    k = np.arange(1, n + 1)
    exact = np.sort(-2.0 * np.cos(k * np.pi / (n + 1)))
    assert np.max(np.abs(evs - exact)) < 1e-11


def test_single_site_spectrum():
    assert tridiagonal_spectrum(np.array([3.25]), np.zeros(0)) == pytest.approx([3.25])


def test_bisection_matches_dense_qr():
    b = build(sample(generic_spec(seed=12), 40))
    mine = symmetric_spectrum(b)
    dense = np.linalg.eigvalsh(b.dense_reference())
    assert np.max(np.abs(mine - np.sort(dense))) < 1e-9


def test_spectrum_consistent_with_counts():
    b = build(sample(generic_spec(seed=13), 30))
    evs = symmetric_spectrum(b)
    assert np.all(np.diff(evs) >= 0)
    for lam in np.linspace(evs[0] - 0.5, evs[-1] + 0.5, 17):
        assert symmetric_eigencount(b, lam) == int(np.sum(evs < lam))


# -- dense spectrum ------------------------------------------------------------------

def test_circulant_multiset():
    res = spectrum(build(sample(free_spec(), 4)))
    assert multiset_distance(res.eigenvalues, np.array([-2.0, 0.0, 0.0, 2.0])) < 1e-10


def test_fig1a_realness():
    res = spectrum(build(sample(fig1a_spec(seed=501), 201)))
    assert res.nonreal_fraction(1e-6) <= 0.01


def test_small_matrices_match_charpoly_roots():
    rng = np.random.Generator(np.random.Philox(key=44))
    for trial in range(10):
        n = int(rng.integers(2, 9))
        seed = int(rng.integers(0, 2**31))
        spec = generic_spec(seed=seed) if trial % 2 == 0 else EnsembleSpec.raw_entries(
            DistributionSpec.uniform(-0.5, 0.5),
            DistributionSpec.uniform(-0.5, 0.5),
            DistributionSpec.uniform(0, 1),
            seed=seed,
        )
        bundle = build(sample(spec, n))
        res = spectrum(bundle)
        coeffs = cofactor_charpoly(bundle.dense())
        roots = np.roots(coeffs)
        assert multiset_distance(res.eigenvalues, roots) < 1e-6


def test_spectrum_invariants_random():
    res = spectrum(build(sample(fig1b_spec(seed=303), 64)))
    assert res.trace_defect() < 1e-8
    assert res.det_defect() < 1e-6
    assert res.conjugation_defect() < 1e-8
    assert res.residual < 1e-8
    assert res.method == "dense-qr"


def test_similarity_preserves_spectrum():
    # spectra of the original matrix and of reference-plus-corners agree;
    # the corner entries scale like exp(|g| n), so sizes are chosen to keep
    # the transformed matrix within double range of the 1e-8 tolerance
    mild = EnsembleSpec(
        DistributionSpec.uniform(-0.1, 0.1),
        DistributionSpec.uniform(-0.1, 0.1),
        DistributionSpec.uniform(0.0, 0.5),
        seed=3,
    )
    cases = [(mild, 60), (fig1b_spec(seed=4), 24), (fig1b_spec(seed=5), 24)]
    for spec, n in cases:
        b = build(sample(spec, n))
        direct = spectrum(b).eigenvalues
        transformed = np.linalg.eigvals(b.dense_perturbed())
        assert multiset_distance(direct, transformed) < 1e-8


def test_transfer_eigenvector_bounds_quick():
    from tricurves.verify import check_transfer_eigenvector_bounds

    res = check_transfer_eigenvector_bounds(fig1b_spec(), count=15, n=40)
    assert res.passed


def test_spectrum_probe_residual_large_n():
    res = spectrum(build(sample(fig1b_spec(seed=303), 900)))
    assert res.method == "dense-qr+probe"
    assert res.residual < 1e-6


# -- resolvent corners ------------------------------------------------------------------

def test_resolvent_single_site():
    evs = tridiagonal_spectrum(np.array([1.5]), np.zeros(0))
    assert evs[0] == 1.5
    # corner formula on the smallest bundle the builder accepts: n = 2
    spec = EnsembleSpec.constants(0.0, 0.0, 1.5, seed=0)
    b = build(sample(spec, 2))
    z = 0.3 + 0.4j
    rc = resolvent_corners(b, z)
    g = np.linalg.inv(b.dense_reference().astype(complex) - z * np.eye(2))
    assert rc.g11 == pytest.approx(g[0, 0], rel=1e-12)
    assert rc.gnn == pytest.approx(g[1, 1], rel=1e-12)
    assert rc.g1n == pytest.approx(g[0, 1], rel=1e-12)


def test_resolvent_against_dense_inverse():
    b = build(sample(generic_spec(seed=17), 20))
    rng = np.random.Generator(np.random.Philox(key=18))
    for _ in range(5):
        z = complex(rng.uniform(-2, 3), rng.uniform(0.1, 2.0) * (1 if rng.uniform() < 0.5 else -1))
        rc = resolvent_corners(b, z)
        g = np.linalg.inv(b.dense_reference().astype(complex) - z * np.eye(20))
        assert abs(rc.g11 - g[0, 0]) / abs(g[0, 0]) < 1e-9
        assert abs(rc.gnn - g[19, 19]) / abs(g[19, 19]) < 1e-9
        assert abs(rc.g1n - g[0, 19]) / abs(g[0, 19]) < 1e-9


def test_herglotz_property():
    rng = np.random.Generator(np.random.Philox(key=19))
    for trial in range(100):
        b = build(sample(generic_spec(seed=trial), 25))
        z = complex(rng.uniform(-2, 3), rng.uniform(0.05, 2.5))
        rc = resolvent_corners(b, z)
        assert rc.g11.imag > 0
        assert rc.gnn.imag > 0
        rc_low = resolvent_corners(b, np.conj(z))
        assert rc_low.g11.imag < 0


def test_corner_product_identity():
    # G_1n * det(H - z) = prod of couplings, exactly by construction; check
    # in log modulus against independently accumulated values
    b = build(sample(generic_spec(seed=23), 50))
    z = 0.4 + 0.9j
    rc = resolvent_corners(b, z)
    lhs = rc.log_g1n.real + rc.log_det.real
    rhs = float(np.sum(np.log(np.abs(b.h_off))))
    assert abs(lhs - rhs) < 1e-8


def test_singular_resolvent_raises():
    spec = EnsembleSpec.constants(0.0, 0.0, 0.0, seed=0)
    b = build(sample(spec, 5))
    evs = symmetric_spectrum(b)
    assert min(abs(evs)) < 1e-12  # 0 is an eigenvalue for odd free chains
    with pytest.raises(SingularResolventError):
        resolvent_corners(b, 0.0)  # determinant vanishes exactly


# -- rank-2 determinant ------------------------------------------------------------------

def test_rank2_trivial_when_corners_vanish():
    # hypothetical zero perturbation: force log|a|, log|b| to -inf via raw arrays
    from dataclasses import replace

    b = build(sample(generic_spec(seed=29), 12))
    b0 = replace(b, log_abs_a=-math.inf, log_abs_b=-math.inf)
    d = rank2_det(b0, 0.5 + 0.5j)
    assert cmath.exp(d) == pytest.approx(1.0)


def test_rank2_identity_random():
    b = build(sample(fig1b_spec(seed=31), 30))
    rng = np.random.Generator(np.random.Philox(key=32))
    for _ in range(10):
        z = complex(rng.uniform(-2, 3), rng.uniform(0.2, 2.0) * (1 if rng.uniform() < 0.5 else -1))
        assert characteristic_residual(b, z) < 1e-6


def test_rank2_cross_term_decays():
    # |a b G_1n G_n1| falls exponentially in n off the real axis:
    # log of the cross term decreases along n = 100..800
    z = 0.8 + 0.7j
    logs = []
    for n in (100, 200, 400, 800):
        b = build(sample(fig1b_spec(seed=40), n))
        rc = resolvent_corners(b, z)
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
        rc = resolvent_corners(b, z)
        ab = math.exp(b.log_abs_a + b.log_abs_b)  # (-a)(-b) > 0
        fourth = 1.0 - ab * rc.g11 * rc.gnn
        alpha = math.atan2(abs(rc.g11.imag), rc.g11.real)
        assert abs(fourth) >= sector_distance_to_one(alpha) - 1e-12


def test_log_det_reference_matches_dense():
    b = build(sample(generic_spec(seed=41), 35))
    z = -0.3 + 1.2j
    mine = log_det_reference(b, z)
    sign, logdet = np.linalg.slogdet(b.dense_reference().astype(complex) - z * np.eye(35))
    assert mine.real == pytest.approx(float(logdet), rel=1e-10)


def test_overflow_range_matches_dense():
    # n = 1500 at z = 5 + 5i: log|det(H - z)| is about 2861, far beyond the
    # double range, so only the complex logarithms carry the values
    n = 1500
    b = build(sample(generic_spec(seed=43), n))
    z = 5.0 + 5.0j
    h = b.dense_reference().astype(complex) - z * np.eye(n)
    sign, logdet = np.linalg.slogdet(h)
    assert logdet > 2800
    mine = log_det_reference(b, z)
    assert mine.real == pytest.approx(float(logdet), rel=1e-10)
    rc = resolvent_corners(b, z)
    unit = np.eye(n)
    g11 = np.linalg.solve(h, unit[:, 0])[0]
    gnn = np.linalg.solve(h, unit[:, -1])[-1]
    assert abs(rc.g11 - g11) / abs(g11) < 1e-9
    assert abs(rc.gnn - gnn) / abs(gnn) < 1e-9
    assert abs(rc.log_g1n.real + rc.log_det.real - float(np.sum(np.log(b.c[1:n])))) < 1e-8
