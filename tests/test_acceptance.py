"""Acceptance battery: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines;
every criterion also enforces its wall-time budget.  The whole battery is
seeded and deterministic on a given machine.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from tricurves import (
    DistributionSpec,
    EnsembleSpec,
    build,
    coupling_g,
    estimate_ids,
    lyapunov_thouless,
    lyapunov_transfer,
    mean_log_coupling,
    sample,
    spectrum,
    trace_curve,
)
from tricurves.curves import gaussian_bump, limit_measure_integral
from tricurves.eigensolvers import empirical_integral
from tricurves.ensembles import realization
from tricurves.pipeline import distance_to_arcs
from tricurves.spectral import phi_dy_many, phi_many
from tricurves.verify import (
    check_exclusion,
    check_transfer_eigenvector_bounds,
    check_rank2_identity,
    check_thouless_residual,
)

from conftest import fig1a_spec, fig1b_spec, free_spec, multiset_distance
from test_eigensolvers import cofactor_charpoly


class criterion:
    """Times a criterion, prints its PASS/FAIL line, enforces the budget."""

    def __init__(self, index: int, name: str, budget_s: float):
        self.index = index
        self.name = name
        self.budget = budget_s
        self.notes = []

    def note(self, text: str):
        self.notes.append(text)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        detail = "; ".join(self.notes)
        print(
            f"ACCEPTANCE {self.index:02d} {self.name}: {status} "
            f"({detail}{'; ' if detail else ''}{elapsed:.1f}s < {self.budget:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.index} budget exceeded: {elapsed:.1f}s"
        return False


@pytest.fixture(scope="module")
def fig1b_ids_hq():
    return estimate_ids(fig1b_spec(), 20_000, 8)


@pytest.fixture(scope="module")
def fig1b_model(fig1b_ids_hq):
    spec = fig1b_spec()
    return trace_curve(fig1b_ids_hq, coupling_g(spec), mean_log_c=mean_log_coupling(spec))


def test_criterion_01_rank2_identity():
    with criterion(1, "rank2-determinant-identity", 10.0) as c:
        res = check_rank2_identity(fig1b_spec())
        c.note(f"worst={res.measured:.2e} < 1e-6")
        assert res.budget == 1e-6
        assert res.passed


def test_criterion_02_eigensolver_oracle():
    with criterion(2, "charpoly-root-oracle", 5.0) as c:
        rng = np.random.Generator(np.random.Philox(key=202))
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(2, 9))
            seed = int(rng.integers(0, 2**31))
            if trial % 3 == 0:  # mixed-sign raw mode every third draw
                spec = EnsembleSpec(
                    DistributionSpec("uniform", (-0.5, 0.5)),
                    DistributionSpec("uniform", (-0.5, 0.5)),
                    DistributionSpec("uniform", (0, 1)),
                    seed=seed,
                    raw=True,
                )
            else:
                spec = fig1b_spec(seed=seed)
            bundle = build(sample(spec, n))
            res = spectrum(bundle)
            roots = np.roots(cofactor_charpoly(bundle.dense()))
            worst = max(worst, multiset_distance(res.eigenvalues, roots))
        c.note(f"worst multiset distance={worst:.2e} < 1e-6 over 50 draws")
        assert worst < 1e-6


def test_criterion_03_circulant_exactness():
    with criterion(3, "circulant-exactness", 5.0) as c:
        from tricurves.operators import boundary_residual

        worst_qr = 0.0
        worst_bc = 0.0
        for xi, eta, q in ((0.0, 0.0, 0.0), (-0.4, 0.3, 0.7), (0.2, 0.2, -1.1)):
            for n in (4, 8, 64):
                spec = EnsembleSpec(*(DistributionSpec("constant", (v,)) for v in (xi, eta, q)), seed=1)
                bundle = build(sample(spec, n))
                omega = np.exp(2j * np.pi * np.arange(n) / n)
                exact = q - math.exp(eta) * omega - math.exp(xi) / omega
                # The asymmetric circulant at n = 64 has eigencondition
                # numbers ~ exp(|eta - xi| n), beyond double-precision QR;
                # there the formula eigenvalues are certified through the
                # log-scaled periodic closure condition instead.
                if abs(eta - xi) * n < 6.0:
                    res = spectrum(build(sample(spec, n)))
                    worst_qr = max(worst_qr, multiset_distance(res.eigenvalues, exact))
                else:
                    worst_bc = max(
                        worst_bc, max(boundary_residual(bundle, complex(z)) for z in exact)
                    )
        c.note(
            f"dense-qr worst={worst_qr:.2e} < 1e-9; "
            f"closure-condition worst={worst_bc:.2e} < 1e-9 (ill-conditioned cases)"
        )
        assert worst_qr < 1e-9
        assert worst_bc < 1e-9


def test_criterion_04_thouless_formula(fig1b_ids_hq):
    with criterion(4, "thouless-formula", 120.0) as c:
        points = (1 + 1j, -0.5 + 0.75j, 2 - 0.5j, 0.25 + 1.5j, -1 - 1j, 3 + 2j)
        free_ids_hq = estimate_ids(free_spec(), 20_000, 2)
        worst = 0.0
        for spec, ids in ((free_spec(), free_ids_hq), (fig1b_spec(), fig1b_ids_hq)):
            res = check_thouless_residual(spec, ids, points, 100_000, 8, 0.02)
            worst = max(worst, res.measured)
            assert res.passed
        c.note(f"worst |transfer - thouless|={worst:.4f} < 0.02 at 6 z, both ensembles")


def test_criterion_05_free_case_closed_forms():
    with criterion(5, "free-case-closed-forms", 60.0) as c:
        ids = estimate_ids(free_spec(), 5000, 4)
        lam = ids.grid[(ids.grid > -2.0) & (ids.grid < 2.0)]
        sup_err = float(
            np.max(np.abs(np.interp(lam, ids.grid, ids.values) - (1.0 - np.arccos(lam / 2.0) / np.pi)))
        )
        assert sup_err < 0.01
        gamma3 = lyapunov_transfer(free_spec(), 100_000, 2, 3.0).gamma_hat
        exact3 = math.log((3.0 + math.sqrt(5.0)) / 2.0)  # 0.9624236501...
        assert gamma3 == pytest.approx(exact3, abs=5e-3)
        assert lyapunov_thouless(ids, 0.0, 3.0) == pytest.approx(exact3, abs=5e-3)
        # Stieltjes transform of the arcsine reference measure at z = i:
        # integral dN/(lambda - i) = i/sqrt(5) = 0.4472136 i (independent
        # oracle: the closed form -1/sqrt(z^2-4) on the Herglotz branch,
        # cross-checked by adaptive quadrature in the unit tests)
        m = complex(phi_dy_many(ids, [1j])[1][0])
        assert m == pytest.approx(1j / math.sqrt(5.0), abs=5e-3)
        c.note(
            f"N sup-err={sup_err:.4f} < 0.01; gamma(3)={gamma3:.6f} (exact {exact3:.6f} +-5e-3); "
            f"m(i)={m.imag:.6f}i (exact {1/math.sqrt(5):.6f}i +-5e-3)"
        )


def test_criterion_06_figure_reproduction(fig1b_model):
    with criterion(6, "figure-1-reproduction", 300.0) as c:
        res_a = spectrum(build(sample(fig1a_spec(), 201)))
        real_frac = 1.0 - float(np.mean(np.abs(res_a.eigenvalues.imag) > 1e-6))
        assert real_frac >= 0.99
        dists = {}
        for n in (201, 1001):
            res_b = spectrum(build(sample(fig1b_spec(), n)))
            nonreal = res_b.eigenvalues[np.abs(res_b.eigenvalues.imag) > 1e-6]
            if n == 201:
                assert nonreal.size / n > 0.10
                frac201 = nonreal.size / n
            dists[n] = float(np.max(distance_to_arcs(nonreal, fig1b_model)))
        assert dists[201] < 0.15
        assert dists[1001] < dists[201]
        c.note(
            f"(a) real fraction={real_frac:.4f} >= 0.99; (b) nonreal={frac201:.2f} > 0.10, "
            f"hausdorff {dists[201]:.3f} -> {dists[1001]:.3f} (< 0.15, decreasing)"
        )


def test_criterion_07_exclusion_rectangles(fig1b_model):
    with criterion(7, "eigenvalue-exclusion", 600.0) as c:
        spectra = [spectrum(build(realization(fig1b_spec(), 2001, r))).eigenvalues for r in range(5)]
        res = check_exclusion(fig1b_model, margin=0.1, spectra=spectra)
        c.note(f"offenders={int(res.measured)} in {res.detail}")
        assert res.passed


def test_criterion_08_weak_convergence():
    with criterion(8, "weak-convergence-panel", 900.0) as c:
        # wide log-asymmetry ensemble: the real/complex mass split near the
        # arc ends relaxes slowly, so the finite-size signal dominates the
        # averaging noise at these sizes
        spec = EnsembleSpec(
            DistributionSpec("gaussian", (0.0, 1.0)),
            DistributionSpec("gaussian", (0.8, 1.0)),
            DistributionSpec("uniform", (0.0, 1.0)),
            seed=2024,
        )
        ids = estimate_ids(spec, 100_000, 16, grid_points=4096)
        model = trace_curve(
            ids, coupling_g(spec), mean_log_c=mean_log_coupling(spec), x_points=1200
        )
        mass = model.total_mass()
        assert mass == pytest.approx(1.0, abs=0.02)
        arc = max(model.arcs, key=lambda a: a.a_prime - a.a)
        peak = complex(arc.x[int(np.argmax(arc.y))], float(np.max(arc.y)))
        mid = 0.5 * (arc.a + arc.a_prime)
        w = 0.5
        centers = [
            complex(arc.a, 0), complex(arc.a_prime, 0),
            complex(arc.a - 0.8, 0), complex(arc.a_prime + 0.8, 0),
            peak,
            complex(arc.a - 2.0, 0), complex(arc.a_prime + 2.0, 0),
            complex(mid, 0.4 * peak.imag),
            complex(mid, 0.8 * peak.imag),
            complex(mid, peak.imag + 6.0),
        ]
        bumps = [gaussian_bump(z, w) for z in centers]
        predicted = np.array([limit_measure_integral(model, f) for f in bumps])
        errs = []
        for n, reps in ((500, 48), (1000, 96), (2000, 96)):
            emp = np.zeros(len(bumps))
            for r in range(reps):
                res = spectrum(build(sample(replace(spec, seed=spec.seed + 7919 * r), n)))
                emp += [empirical_integral(res.eigenvalues, f) for f in bumps]
            emp /= reps
            errs.append(float(np.max(np.abs(emp - predicted))))
        c.note(
            "panel max err " + " -> ".join(f"{e:.5f}" for e in errs)
            + f" (monotone); mass={mass:.4f} (1 +- 0.02)"
        )
        assert errs[0] > errs[1] > errs[2]


def test_criterion_09_fixed_point_bounds():
    with criterion(9, "transfer-eigenvector-bounds", 30.0) as c:
        res = check_transfer_eigenvector_bounds(fig1b_spec())
        c.note(f"worst slack={res.measured:.2e} >= -1e-9 over 100 (realization, z)")
        assert res.budget == -1e-9
        assert res.passed


def test_criterion_10_phase_transition():
    with criterion(10, "phase-transition", 600.0) as c:
        # binary diagonal disorder; xi = -t, eta = t keeps the reference
        # problem fixed while |g| = t sweeps through the critical couplings
        def binary(t):
            return EnsembleSpec(
                DistributionSpec("constant", (-t,)),
                DistributionSpec("constant", (t,)),
                DistributionSpec("two_point", (0.0, 1.5, 0.5)),
                seed=5,
            )

        ids = estimate_ids(binary(0.0), 4000, 4)
        lo, hi = ids.support
        xs = np.linspace(lo - 0.5, hi + 0.5, 1600)
        gam = np.real(phi_many(ids, xs.astype(complex)))  # E log c = 0
        g_min, g_max = float(np.min(gam)), float(np.max(gam))
        assert g_min > 0.01  # nondegenerate diagonal keeps gamma positive
        zero = trace_curve(ids, 0.0, mean_log_c=0.0)
        assert zero.arcs == ()
        below = trace_curve(ids, 0.5 * g_min, mean_log_c=0.0)
        assert below.arcs == ()
        g_mid = g_min + 0.25 * (g_max - g_min)
        mid = trace_curve(ids, g_mid, mean_log_c=0.0)
        assert len(mid.arcs) >= 1
        high = trace_curve(ids, g_max + 0.3, mean_log_c=0.0)
        assert high.sigma == () and len(high.arcs) == 1
        assert 0.0 < 0.5 * g_min < g_mid < g_max + 0.3  # onset ordering
        c.note(
            f"min gamma={g_min:.3f} > 0; empty at |g| in (0, {0.5*g_min:.3f}); "
            f"arcs at {g_mid:.3f}; sigma empty at {g_max + 0.3:.3f}"
        )
