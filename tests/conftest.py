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


def stieltjes_per_cell(ids, zs):
    """Oracle: the Stieltjes transform at any non-real z, each cell adding
    s_i [log(g_{i+1} - z) - log(g_i - z)] on the principal branch."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    logs = np.log(ids.grid[None, :] - zs[:, None])
    return np.diff(logs, axis=1) @ ids.cell_density


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

