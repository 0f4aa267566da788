import math

import numpy as np
import pytest

from tricurves import (
    DistributionSpec,
    EnsembleSpec,
    IdsEstimate,
    ValidationError,
    build,
    coupling_g,
    estimate_ids,
    limit_measure_integral,
    mean_log_coupling,
    real_support_sigma,
    sample,
    spectrum,
    trace_curve,
)
from tricurves import curves, spectral
from tricurves.curves import (
    default_bump_panel,
    gaussian_bump,
    load_curve_model,
    save_curve_model,
)
from tricurves.ensembles import analytic_means
from tricurves.errors import NumericalError
from tricurves.spectral import lyapunov_thouless, phi_dy_many, phi_many

from conftest import (
    curve_density,
    empirical_integral_loop,
    fig1b_spec,
    limit_measure_integral_loop,
    real_support_sigma_loop,
    refine_endpoint_one,
    runs_loop,
    stieltjes,
    stieltjes_per_cell,
)


def equipotential_threshold(spec: EnsembleSpec) -> float:
    """Oracle: max(E xi, E eta) -- the potential level of the curve, equal
    to E log c_0 + |g|."""
    e_xi, e_eta = analytic_means(spec)
    return max(e_xi, e_eta)


def poly_cutoff(px: int, py: int, radius: float):
    """(Re z)^px (Im z)^py times a Gaussian cutoff of the given radius."""
    r2 = 2.0 * float(radius) ** 2

    def f(z: complex) -> float:
        z = complex(z)
        return (z.real ** px) * (z.imag ** py) * math.exp(-abs(z) ** 2 / r2)

    return f


def bisection_heights(ids, mean_log_c, abs_g, xs, y_hi):
    """Oracle: the level-set heights by bisection in y down to float
    resolution of the bracket."""
    lo = np.zeros_like(xs)
    hi = np.full_like(xs, y_hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = lyapunov_thouless(ids, mean_log_c, xs + 1j * mid) > abs_g
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def drifted_free_spec(g0: float, seed=0) -> EnsembleSpec:
    """xi = -g0, eta = +g0: couplings stay at c = 1, zero diagonal."""
    return EnsembleSpec(*(DistributionSpec("constant", (v,)) for v in (-g0, g0, 0.0)), seed=seed)


def two_point_spec(t: float, seed=5) -> EnsembleSpec:
    """Binary diagonal disorder with tunable drift t; c = 1 for every t,
    so a single reference measure serves all drift values."""
    return EnsembleSpec(
        DistributionSpec("constant", (-t,)),
        DistributionSpec("constant", (t,)),
        DistributionSpec("two_point", (0.0, 1.5, 0.5)),
        seed=seed,
    )


def split_band_spec(t: float, seed=5) -> EnsembleSpec:
    """Binary diagonal disorder with values 0 and 3, c = 1 and drift t:
    the reference spectrum splits into two bands, and the curve has four
    arcs at t = 0.5."""
    return EnsembleSpec(
        DistributionSpec("constant", (-t,)),
        DistributionSpec("constant", (t,)),
        DistributionSpec("two_point", (0.0, 3.0, 0.5)),
        seed=seed,
    )


@pytest.fixture(scope="module")
def binary_ids():
    return estimate_ids(two_point_spec(0.0), 4000, 4)


# -- coupling ---------------------------------------------------------------------

def test_coupling_g_trivial_cases():
    assert coupling_g(EnsembleSpec(*(DistributionSpec("constant", (v,)) for v in (0.7, 0.7, 0.0)), seed=1)) == 0.0
    assert coupling_g(EnsembleSpec(*(DistributionSpec("constant", (v,)) for v in (0.0, 1.0, 0.0)), seed=1)) == 0.5


def test_coupling_g_fig1b_value():
    # (1/2)(E log Uni[1/2,3/2] - E log Uni[0,1]); the integrals give
    # (3/2 log(3/2) - 1/2 log(1/2) - 1 + 1) / 2 = 0.4773856...
    g = coupling_g(fig1b_spec())
    exact = 0.5 * (1.5 * math.log(1.5) - 0.5 * math.log(0.5) - 1.0 + 1.0)
    assert g == pytest.approx(exact, rel=1e-12)
    assert g == pytest.approx(0.4773856262, abs=1e-9)
    # Monte Carlo oracle
    seq = sample(fig1b_spec(seed=4242), 200_000)
    mc = 0.5 * float(np.mean(seq.eta[:-1]) - np.mean(seq.xi[:-1]))
    assert g == pytest.approx(mc, abs=5e-3)


def test_coupling_rejects_heavy_and_raw():
    heavy = EnsembleSpec(
        DistributionSpec("cauchy", (0, 1)),
        DistributionSpec("constant", (0,)),
        DistributionSpec("constant", (0,)),
        seed=1,
    )
    with pytest.raises(ValidationError):
        coupling_g(heavy)
    raw = EnsembleSpec(
        DistributionSpec("uniform", (-1, 1)),
        DistributionSpec("uniform", (-1, 1)),
        DistributionSpec("uniform", (0, 1)),
        seed=1,
        raw=True,
    )
    with pytest.raises(ValidationError):
        coupling_g(raw)


def test_threshold_is_max_mean():
    spec = fig1b_spec()
    assert equipotential_threshold(spec) == pytest.approx(
        mean_log_coupling(spec) + abs(coupling_g(spec))
    )


# -- tracing ---------------------------------------------------------------------

def test_zero_coupling_gives_empty_curve(free_ids):
    model = trace_curve(free_ids, 0.0, mean_log_c=0.0)
    assert model.arcs == ()
    assert model.real_points == ()


def test_traced_points_satisfy_level_equation(fig1b_ids):
    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    assert len(model.arcs) >= 1
    for arc in model.arcs:
        interior = slice(1, -1)
        zs = arc.x[interior] + 1j * arc.y[interior]
        gam = lyapunov_thouless(model.ids, model.mean_log_c, zs)
        assert np.max(np.abs(gam - abs(model.g))) < 1e-6
        # arcs are graphs over x, meet the axis at both ends
        assert np.all(np.diff(arc.x) > 0)
        assert arc.y[0] == 0.0 and arc.y[-1] == 0.0
        assert np.all(arc.y >= 0.0)


def test_curve_is_joukowski_ellipse_for_drifted_free_case():
    # constant couplings: the level set of the free growth rate is the
    # ellipse with semi-axes 2 cosh(g), 2 sinh(g) (foci at +-2)
    g0 = 0.5
    spec = drifted_free_spec(g0)
    ids = estimate_ids(spec, 5000, 2)
    model = trace_curve(ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    assert len(model.arcs) == 1
    arc = model.arcs[0]
    a_axis = 2.0 * math.cosh(g0)
    b_axis = 2.0 * math.sinh(g0)
    assert arc.a == pytest.approx(-a_axis, abs=2e-2)
    assert arc.a_prime == pytest.approx(a_axis, abs=2e-2)
    inside = arc.y > 0.05
    defect = (arc.x[inside] / a_axis) ** 2 + (arc.y[inside] / b_axis) ** 2
    assert np.max(np.abs(defect - 1.0)) < 2e-2


def test_endpoint_density_finite_limit_drifted_free_case():
    # smooth reference density: rho has a finite one-sided endpoint limit,
    # here |m(a)| / 2 pi with m the arcsine transform evaluated just off a
    g0 = 0.5
    spec = drifted_free_spec(g0)
    ids = estimate_ids(spec, 5000, 2)
    model = trace_curve(ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    arc = model.arcs[0]
    a = arc.a_prime  # right endpoint, 2 cosh(g0)
    exact = 1.0 / (2.0 * math.pi * math.sqrt(a * a - 4.0))
    tail = arc.rho[-6:-1]
    assert np.all(np.isfinite(tail))
    assert tail[-1] == pytest.approx(exact, rel=0.1)
    assert np.max(tail) / np.min(tail) < 1.3  # no blow-up approaching the end


def _assert_heights_match_bisection(ids, spec):
    g = coupling_g(spec)
    mlc = mean_log_coupling(spec)
    model = trace_curve(ids, g, mean_log_c=mlc)
    assert model.arcs
    y_hi = curves._upper_height(mlc, abs(g))
    for arc in model.arcs:
        xs, ys = arc.x[1:-1], arc.y[1:-1]
        exact = bisection_heights(ids, mlc, abs(g), xs, y_hi)
        slope = phi_dy_many(ids, xs + 1j * exact)[1].imag
        assert np.all(np.abs(ys - exact) <= model.curve_tol / slope)


def test_newton_heights_match_bisection_oracle_fig1b(fig1b_ids):
    _assert_heights_match_bisection(fig1b_ids, fig1b_spec())


def test_newton_heights_match_bisection_oracle_drifted_free():
    spec = drifted_free_spec(0.5)
    _assert_heights_match_bisection(estimate_ids(spec, 5000, 2), spec)


def test_arc_density_is_the_curve_density_at_each_vertex(fig1b_ids):
    # rho comes from the last height sweep, not from a second pass
    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    assert model.arcs
    for arc in model.arcs:
        inner = arc.points()[1:-1]
        expected = np.array([curve_density(fig1b_ids, z) for z in inner])
        assert np.max(np.abs(arc.rho[1:-1] - expected) / expected) < 1e-14
        assert arc.rho[0] == arc.rho[1] and arc.rho[-1] == arc.rho[-2]


def test_height_solve_sweep_floor(fig1b_ids, monkeypatch):
    # each height solve is a few potential sweeps (bisection took 26-31)
    sweeps = []
    potential = curves.phi_dy_many
    solve = curves._solve_heights

    def counted_potential(*args):
        sweeps[-1] += 1
        return potential(*args)

    def counted_solve(*args):
        sweeps.append(0)
        return solve(*args)

    monkeypatch.setattr(curves, "phi_dy_many", counted_potential)
    monkeypatch.setattr(curves, "_solve_heights", counted_solve)
    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec), x_points=800)
    assert model.arcs and sweeps
    assert max(sweeps) <= 15


def _curve_case(case, fig1b_ids) -> tuple:
    """(ids, g, mean log coupling) of a named curve test case."""
    if case == "fig1b":
        spec, ids = fig1b_spec(), fig1b_ids
    elif case == "drifted-free":
        spec = drifted_free_spec(0.5)
        ids = estimate_ids(spec, 5000, 2)
    else:
        spec = split_band_spec(0.5)
        ids = estimate_ids(spec, 4000, 2)
    return ids, coupling_g(spec), mean_log_coupling(spec)


def arc_ends_one_at_a_time(model, x_points=800) -> list:
    """Oracle: each arc's two ends, refined one at a time from the brackets
    of trace_curve's x-scan."""
    ids, abs_g, mlc = model.ids, abs(model.g), model.mean_log_c
    pad = max(1.0, math.exp(abs_g + mlc)) * 1.5
    lo, hi = ids.support
    xs = np.linspace(lo - pad, hi + pad, x_points)
    idx = np.flatnonzero(lyapunov_thouless(ids, mlc, xs) <= abs_g)
    groups = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    return [(refine_endpoint_one(ids, mlc, abs_g, xs[grp[0] - 1], xs[grp[0]]),
             refine_endpoint_one(ids, mlc, abs_g, xs[grp[-1] + 1], xs[grp[-1]])) for grp in groups]


@pytest.mark.parametrize("case", ["fig1b", "drifted-free", "two-point"])
def test_arc_ends_match_one_at_a_time_bisection(case, fig1b_ids):
    # all arc ends bisected together land on the bits of one-at-a-time bisection
    ids, g, mlc = _curve_case(case, fig1b_ids)
    model = trace_curve(ids, g, mean_log_c=mlc)
    assert model.real_points == ()
    ends = [(arc.a, arc.a_prime) for arc in model.arcs]
    assert len(ends) == (4 if case == "two-point" else 1)
    assert ends == arc_ends_one_at_a_time(model)


@pytest.mark.parametrize("case", ["fig1b", "two-point"])
def test_trace_curve_potential_call_floor(case, fig1b_ids, monkeypatch):
    # one potential call for Sigma, one for the x-scan, and one per
    # bisection step of all arc ends together, whatever the arc count
    ids, g, mlc = _curve_case(case, fig1b_ids)
    calls = []
    potential = spectral.phi_many

    def counted(*args):
        calls.append(1)
        return potential(*args)

    monkeypatch.setattr(spectral, "phi_many", counted)
    monkeypatch.setattr(curves, "phi_many", counted)
    model = trace_curve(ids, g, mean_log_c=mlc)
    assert len(model.arcs) == (4 if case == "two-point" else 1)
    assert len(calls) <= 62


def test_height_stall_is_a_numerical_error(fig1b_ids):
    # residuals cannot fall below the rounding of Phi (about 1e-16)
    spec = fig1b_spec()
    with pytest.raises(NumericalError, match=r"worst residual .* at x = .* \(tol 1e-18\) after 110 sweeps"):
        trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec), x_points=200,
                    curve_tol=1e-18)


# -- real support -----------------------------------------------------------------

def test_sigma_full_support_when_symmetric(binary_ids):
    # g = 0 with nondegenerate diagonal: the whole reference support is real
    model = trace_curve(binary_ids, 0.0, mean_log_c=0.0)
    assert model.sigma_mass() > 0.99
    # every sigma point exceeds the threshold by construction
    for lo, hi in model.sigma:
        mid = 0.5 * (lo + hi)
        assert lyapunov_thouless(model.ids, model.mean_log_c, mid) > 0.0


def test_sigma_empty_beyond_max_gamma(binary_ids):
    xs = np.linspace(binary_ids.support[0], binary_ids.support[1], 1200)
    gam = phi_many(binary_ids, xs.astype(complex))  # mean log c = 0
    g_hi = float(np.max(gam)) + 0.3
    sigma = real_support_sigma(binary_ids, g_hi)
    assert sigma == ()
    model = trace_curve(binary_ids, g_hi, mean_log_c=0.0)
    assert model.sigma == ()
    assert len(model.arcs) == 1  # one contour around the whole support


def test_runs_match_a_walk_over_the_mask():
    rng = np.random.default_rng(5)
    masks = [[], [False] * 4, [True] * 4, [True, False, True], [False, True, True], [True, True, False]]
    masks += [rng.random(50) < p for p in (0.2, 0.5, 0.8)]
    for mask in masks:
        start, stop = curves._runs(np.array(mask, dtype=bool))
        assert list(zip(start.tolist(), stop.tolist())) == runs_loop(mask)


def test_sigma_equals_the_cell_walk(fig1b_ids, binary_ids):
    nodes = np.linspace(0.0, 1.0, 65)
    uniform = IdsEstimate(grid=nodes, values=nodes, n_used=0, realizations_used=0, support=(0.0, 1.0))
    for ids in (fig1b_ids, binary_ids, uniform):
        phi = phi_many(ids, (0.5 * (ids.grid[:-1] + ids.grid[1:])).astype(complex))
        for threshold in (-math.inf, *np.quantile(phi, [0.1, 0.4, 0.7, 0.95]), math.inf):  # all cells .. none
            assert real_support_sigma(ids, threshold) == real_support_sigma_loop(ids, threshold)
    # the uniform law's Phi peaks at both ends of [0, 1]: one run starts at
    # the first cell, and one runs to the last
    sigma = real_support_sigma(uniform, -1.3)
    assert len(sigma) == 2 and sigma[0][0] == 0.0 and sigma[-1][1] == 1.0
    assert real_support_sigma(uniform, -math.inf) == ((0.0, 1.0),)


def test_phase_transition_onset_ordering(binary_ids):
    # gamma is strictly positive on the axis for binary diagonal disorder;
    # the curve is empty below min gamma and populated above it
    lo, hi = binary_ids.support
    xs = np.linspace(lo - 0.5, hi + 0.5, 1600)
    gam = np.real(phi_many(binary_ids, xs.astype(complex)))
    g_min = float(np.min(gam))
    assert g_min > 0.01
    below = trace_curve(binary_ids, 0.5 * g_min, mean_log_c=0.0)
    assert below.arcs == ()
    assert below.sigma_mass() > 0.99
    g_mid = g_min + 0.25 * (float(np.max(gam)) - g_min)
    mid = trace_curve(binary_ids, g_mid, mean_log_c=0.0)
    assert len(mid.arcs) >= 1
    assert mid.sigma  # real component coexists
    g_hi = float(np.max(gam)) + 0.3
    high = trace_curve(binary_ids, g_hi, mean_log_c=0.0)
    assert len(high.arcs) == 1 and high.sigma == ()


def test_sigma_disjoint_from_contour_interiors(fig1b_ids):
    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    for arc in model.arcs:
        for lo, hi in model.sigma:
            assert hi <= arc.a + 1e-9 or lo >= arc.a_prime - 1e-9


# -- density and integrals -----------------------------------------------------------

def test_density_far_field(fig1b_ids):
    z = complex(0.3, 50.0 * fig1b_ids.support_radius)
    assert curve_density(fig1b_ids, z) == pytest.approx(1.0 / (2.0 * math.pi * abs(z)), rel=1e-3)


def test_density_conjugation_symmetric(fig1b_ids):
    # the lower sheet, implied by conjugation, carries the same density
    z = 0.7 + 0.6j
    assert abs(stieltjes(fig1b_ids, z)) == pytest.approx(abs(stieltjes_per_cell(fig1b_ids, [np.conj(z)])[0]))


def test_density_rejects_lower_half(fig1b_ids):
    with pytest.raises(ValidationError, match="Im z > 0"):
        phi_dy_many(fig1b_ids, [0.5 - 0.5j])


def test_total_mass_near_one(fig1b_ids):
    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    assert limit_measure_integral(model, lambda z: 1.0) == pytest.approx(1.0, abs=0.02)
    assert model.total_mass() == pytest.approx(1.0, abs=0.02)


def test_odd_function_integrates_to_zero(fig1b_ids):
    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    val = limit_measure_integral(model, np.imag)
    assert abs(val) < 1e-10


def test_separated_bump_has_no_mass(fig1b_ids):
    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    top = max(float(np.max(arc.y)) for arc in model.arcs)
    f = gaussian_bump(complex(0.0, top + 5.0), 0.4)
    assert limit_measure_integral(model, f) < 0.01


def test_bump_panel_and_poly_cutoff(fig1b_ids):
    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    panel = default_bump_panel(model)
    assert len(panel) == 10
    for f in panel:
        assert 0.0 <= limit_measure_integral(model, f) <= 1.0
    p = poly_cutoff(2, 0, 3.0)
    assert p(2.0) == pytest.approx(4.0 * math.exp(-4.0 / 18.0))


def test_array_integrals_match_per_point_loops(fig1b_ids):
    from tricurves.eigensolvers import empirical_integral

    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    eigs = spectrum(build(sample(spec, 120))).eigenvalues
    for f in default_bump_panel(model) + [np.imag, np.real, lambda z: 1.0]:
        for array, loop in ((limit_measure_integral(model, f), limit_measure_integral_loop(model, f)),
                            (empirical_integral(eigs, f), empirical_integral_loop(eigs, f))):
            assert abs(array - loop) <= 1e-14 * abs(loop)


def test_a_test_function_is_called_once_per_point_set(fig1b_ids):
    from tricurves.eigensolvers import empirical_integral

    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    assert model.arcs and model.sigma
    bump = gaussian_bump(0.5 + 0.5j, 0.4)
    calls = []

    def counted(z):
        calls.append(np.shape(z))
        return bump(z)

    limit_measure_integral(model, counted)
    # Sigma's midpoints, then the upper and the lower sheet of each arc
    assert len(calls) == 1 + 2 * len(model.arcs)
    assert calls[1:] == [arc.x.shape for arc in model.arcs for _ in range(2)]
    calls.clear()
    assert empirical_integral(np.array([0.5 + 0.5j, 1.0 - 0.25j]), counted) > 0.0
    assert calls == [(2,)]


def test_weak_convergence_needs_two_ascending_sizes(fig1b_ids):
    from tricurves.verify import check_weak_convergence

    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    # one size has nothing to compare with; a repeated size cannot fall
    for sizes in ([200], [200, 200]):
        with pytest.raises(ValidationError, match="ascending"):
            check_weak_convergence(model, [[np.zeros(n, complex)] for n in sizes])


# -- serialization ---------------------------------------------------------------

def test_model_round_trip(tmp_path, fig1b_ids):
    spec = fig1b_spec()
    model = trace_curve(fig1b_ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec))
    path = tmp_path / "curve_points.csv"
    save_curve_model(model, path)
    again = load_curve_model(path, fig1b_ids)
    assert again.g == model.g
    assert again.threshold == model.threshold
    assert again.sigma == model.sigma
    assert len(again.arcs) == len(model.arcs)
    for a, b in zip(again.arcs, model.arcs):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.rho, b.rho)
    assert again.total_mass() == pytest.approx(model.total_mass(), rel=1e-12)
