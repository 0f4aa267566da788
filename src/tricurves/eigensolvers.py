"""Eigenvalue engines.

Symmetric tridiagonal counting is hand-rolled (safeguarded Sturm
sequences, vectorized over (realization x shift) lanes) because it is the
backbone of the density-of-states estimator.  The dense nonsymmetric
spectrum delegates to LAPACK's balancing + Hessenberg + implicitly
shifted QR through numpy; non-convergence is surfaced, never swallowed.
Resolvent corners, det(H - z) and the rank-2 corner-perturbation
determinant are read off one renormalized transfer product, which the
caller supplies, with the values that leave the double range held as
complex logarithms.  Each takes one z (and gives Python scalars) or an
array of z with the stack of their transfer products (and gives arrays,
one value per lane).  Test functions are array callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._kernels import sturm_counts
from .errors import EigenSolveError, SingularResolventError, ValidationError
from .operators import OperatorBundle, TransferState, boundary_residual

__all__ = [
    "SpectrumResult",
    "ResolventCorners",
    "symmetric_eigencounts",
    "spectrum",
    "empirical_integral",
    "resolvent_corners",
    "rank2_det",
]

# Vectors (hence direct residuals) are computed below this size; above it
# the residual falls back to the periodic boundary-condition probe.
_VECTOR_LIMIT = 800


# -- symmetric tridiagonal --------------------------------------------------

def symmetric_eigencounts(bundles: Sequence[OperatorBundle], lams: np.ndarray) -> np.ndarray:
    """Reference eigenvalue counts in (-inf, lam) for each lam, one row per
    bundle, from one Sturm pass over all (bundle, lam) lanes; the bundles
    must share n."""
    sizes = sorted({b.n for b in bundles})
    if len(sizes) != 1:
        raise ValidationError(f"bundles must share one n, got n in {sizes}")
    lams = np.asarray(lams, dtype=float)
    counts = sturm_counts(
        np.stack([b.diag for b in bundles], axis=1),
        np.stack([b.h_off for b in bundles], axis=1),
        np.tile(lams, len(bundles)),
    )
    return counts.reshape(len(bundles), lams.shape[0])


# -- dense nonsymmetric spectrum ---------------------------------------------

@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of one realization, sorted by (Re, Im).

    residual is the max relative defect max_i ||(J - z_i I) v_i|| / ||v_i||
    when eigenvectors were computed (n <= 800), otherwise the worst periodic
    boundary-condition probe residual over three sampled eigenvalues
    (method tag then carries the "+probe" suffix; raw bundles above the
    vector limit report nan).
    """

    eigenvalues: np.ndarray
    n: int
    method: str
    residual: float

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)


def empirical_integral(eigenvalues: np.ndarray, f) -> float:
    """Mean of f over the eigenvalues: the integral of f against the
    empirical measure that puts mass 1/n on each eigenvalue.  f is an
    array callable, called once with all the eigenvalues."""
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    return float(np.mean(np.broadcast_to(f(eigenvalues), eigenvalues.shape)).real)


def spectrum(bundle: OperatorBundle, want_vectors: Optional[bool] = None) -> SpectrumResult:
    """All n eigenvalues of the dense matrix (raw bundles allowed)."""
    j = bundle.dense()
    n = bundle.n
    if want_vectors is None:
        want_vectors = n <= _VECTOR_LIMIT
    seed = bundle.seq.spec.seed
    try:
        if want_vectors:
            ev, vec = np.linalg.eig(j)
        else:
            ev = np.linalg.eigvals(j)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(
            f"QR iteration failed to converge for n={n}: {exc}", seed=seed, n=n, detail=str(exc)
        ) from exc
    order = np.lexsort((ev.imag, ev.real))
    ev = ev[order]
    method = "dense-qr"
    if want_vectors:
        vec = vec[:, order]
        res = j.astype(complex) @ vec - vec * ev[np.newaxis, :]
        residual = float(np.max(np.linalg.norm(res, axis=0) / np.linalg.norm(vec, axis=0)))
    elif not bundle.raw:
        # Probe the periodic closure condition at the most delocalized
        # eigenvalues (largest |Im|): localized real eigenvalues carry
        # condition numbers ~ exp(n (gamma - g)) and their probe residual
        # would measure ill-conditioning, not solver quality.
        probes = ev[np.argsort(np.abs(ev.imag))[-3:]]
        residual = max(boundary_residual(bundle, complex(z)) for z in probes)
        method += "+probe"
    else:
        residual = float("nan")
    return SpectrumResult(eigenvalues=ev, n=n, method=method, residual=residual)


# -- resolvent corners and rank-2 determinant ---------------------------------
#
# With (s, M) the renormalized transfer product, S_n(z) = e^s M, the
# leading minors D_k of (H - z) satisfy psi_{k+1} = D_k / (c_1 ... c_k) for
# the solution started at (psi_1, psi_0) = (1, 0), and the trailing minors
# enter the solution started at (0, 1).  Hence
#
#     det(H - z) = e^s M00 c_1 ... c_n,    G_11 = -M01 / (c_0 M00),
#     G_nn = M10 / (c_n M00),              G_1n = G_n1 = e^-s / (c_n M00).
#
# det(H - z), G_1n and the rank-2 determinant scale like exp(+-n gamma) and
# are held as complex logarithms (real part = log modulus); G_11 and G_nn
# stay plain complex, since |G_jj| <= 1 / |Im z|.

@dataclass(frozen=True)
class ResolventCorners:
    """Corner entries of (H - z)^-1 and det(H - z), read off one transfer
    product.  log_g1n (G_1n = G_n1, the reference is symmetric) and
    log_det are complex logarithms.  For an array of z (one lane each)
    every field but n is an array of that shape."""

    z: complex
    n: int
    g11: complex
    gnn: complex
    log_g1n: complex
    log_det: complex


def _scalar_or_lanes(value):
    """A 0-d result as a Python complex, an array of lanes as it is."""
    return complex(value) if np.ndim(value) == 0 else value


def resolvent_corners(bundle: OperatorBundle, z, state: TransferState) -> ResolventCorners:
    """Corner resolvent entries of the symmetric reference and det(H - z),
    from state = transfer_product(bundle, z) (say, one lane of
    transfer_products), or, for an array of z, from the stack of their
    lanes (say, a slice of transfer_products).

    Requires z off the reference spectrum (use Im z != 0, or a real z in a
    spectral gap); a vanishing determinant raises SingularResolventError.
    """
    z = np.asarray(z, dtype=complex)
    m = state.matrix
    m00, m01, m10 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0]
    singular = m00 == 0
    if np.any(singular):
        raise SingularResolventError(
            f"z={complex(z[singular].flat[0])} is (numerically) an eigenvalue of the reference matrix")
    c = bundle.c
    log_m00 = np.log(m00)
    return ResolventCorners(
        z=_scalar_or_lanes(z),
        n=bundle.n,
        g11=_scalar_or_lanes(-m01 / (c[0] * m00)),
        gnn=_scalar_or_lanes(m10 / (c[-1] * m00)),
        log_g1n=_scalar_or_lanes(-state.log_scale - math.log(c[-1]) - log_m00),
        log_det=_scalar_or_lanes(state.log_scale + log_m00 + float(np.sum(np.log(c[1:])))),
    )


def _log_add(x, y):
    """log(e^x + e^y) for complex logarithms, per lane: the larger modulus
    is factored out first, so no exponential leaves the double range."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    swap = y.real > x.real
    x, y = np.where(swap, y, x), np.where(swap, x, y)
    # -inf - -inf and log(0) are masked below
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = 1.0 + np.exp(y - x)
        out = x + np.log(rest)
    out = np.where(rest == 0, complex(-math.inf, 0.0), out)
    return np.where(x.real == -math.inf, x, out)


def rank2_det(bundle: OperatorBundle, corners: ResolventCorners):
    """Determinant ratio det(J - z) / det(H - z) of the rank-2 corner
    perturbation at z = corners.z, (1 + a G_n1)(1 + b G_1n) - a b G_11 G_nn,
    as a complex logarithm, one per lane of the corners.

    a G_1n and b G_1n are formed from their logarithms, sums of moderate
    terms even when a_n alone would overflow; a_n, b_n < 0 and a b > 0.
    """
    log_d = sum(_log_add(0j, complex(log_abs, math.pi) + corners.log_g1n)  # log(1 + a G_1n) + log(1 + b G_1n)
                for log_abs in (bundle.log_abs_a, bundle.log_abs_b))
    with np.errstate(divide="ignore"):  # a zero cross term adds log(1 + 0)
        log_cross = np.log(-(corners.g11 * corners.gnn))
    return _scalar_or_lanes(_log_add(log_d, bundle.log_abs_a + bundle.log_abs_b + log_cross))


def characteristic_residual(bundle: OperatorBundle, corners: ResolventCorners):
    """|det(J - z)| ratio defect against the rank-2 factorization at
    z = corners.z, in log modulus: |log|det(J-z)| - log|d| - log|det(H-z)||;
    one transfer product serves both factors.  For an array of z, one
    dense matrix serves every J - z, and the log-determinants are taken
    over their stack."""
    z = np.asarray(corners.z)
    shifted = np.broadcast_to(bundle.dense(), z.shape + (bundle.n, bundle.n)).astype(complex)
    diag = np.arange(bundle.n)
    shifted[..., diag, diag] -= z[..., None]
    sign, logdet = np.linalg.slogdet(shifted)
    lhs = np.where(sign != 0, logdet, -math.inf)
    rhs = np.real(rank2_det(bundle, corners)) + np.real(corners.log_det)
    residual = np.abs(lhs - rhs)
    return float(residual) if residual.ndim == 0 else residual
