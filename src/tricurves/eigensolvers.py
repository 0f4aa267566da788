"""Eigenvalue engines.

Symmetric tridiagonal counting is hand-rolled (safeguarded Sturm
sequences, vectorized over (realization x shift) lanes) because it is the
backbone of the density-of-states estimator.  The dense nonsymmetric
spectrum delegates to LAPACK's balancing + Hessenberg + implicitly
shifted QR, for eigenvalues only: every solve hands its freshly built
matrix to the dgeev that numpy itself links, in place (``_lapack``), so
it holds one n x n matrix where np.linalg.eigvals would hold two; where
numpy links no LAPACK whose ABI the binding knows, np.linalg.eigvals
solves a copy, with the same bits.  A NaN or inf on the band and a QR
iteration that does not converge are surfaced, never swallowed.
Resolvent corners, det(H - z) and the rank-2 corner-perturbation
determinant are read off one renormalized transfer product per z,
which the caller supplies, with the values that leave the double range
held as complex logarithms.  Each takes one z with its product or an
array of z with the stack of their products, and gives one value per z,
in the shape of z.  The closure probe of a spectrum evaluates all
its probes in one kernel call.  Test functions are array callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _lapack
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

    residual is the worst periodic boundary-condition probe residual over
    the three eigenvalues of largest |Im| (method "dense-qr+probe"): finite,
    at most 3, for either sign of g.  Raw bundles have no closure condition
    and report nan (method "dense-qr").  The eigenvalues are
    np.linalg.eigvals's bit for bit, whether the in-place binding or its
    fallback solved them.
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


def spectrum(bundle: OperatorBundle) -> SpectrumResult:
    """All n eigenvalues of the dense matrix (raw bundles allowed).

    A NaN or inf on the band raises EigenSolveError before LAPACK runs,
    as does a QR iteration that does not converge.  The freshly built
    matrix is solved in place (``_lapack.eigvals``), so a solve holds one
    n x n matrix."""
    n = bundle.n
    seed = bundle.seq.spec.seed
    band = (bundle.diag, bundle.sub, bundle.sup, (bundle.corner_top, bundle.corner_bottom))
    if not all(np.isfinite(part).all() for part in band):
        raise EigenSolveError(f"NaN or inf on the band for n={n}, seed={seed}", seed=seed, n=n,
                              detail="Array must not contain infs or NaNs")
    try:
        ev = _lapack.eigvals(bundle.dense())  # overwrites the matrix
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(
            f"QR iteration failed to converge for n={n}, seed={seed}: {exc}", seed=seed, n=n, detail=str(exc)
        ) from exc
    ev = ev[np.lexsort((ev.imag, ev.real))]
    if bundle.raw:
        return SpectrumResult(eigenvalues=ev, n=n, method="dense-qr", residual=float("nan"))
    # Probe the periodic closure condition at the most delocalized
    # eigenvalues (largest |Im|): localized real eigenvalues carry
    # condition numbers ~ exp(n (gamma - g)) and their probe residual
    # would measure ill-conditioning, not solver quality.
    probes = ev[np.argsort(np.abs(ev.imag))[-3:]]
    return SpectrumResult(eigenvalues=ev, n=n, method="dense-qr+probe",
                          residual=float(np.max(boundary_residual(bundle, probes))))


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
    log_det are complex logarithms.  Every field has the shape of z, one
    value per lane."""

    z: np.ndarray
    g11: np.ndarray
    gnn: np.ndarray
    log_g1n: np.ndarray
    log_det: np.ndarray


def resolvent_corners(bundle: OperatorBundle, z, state: TransferState) -> ResolventCorners:
    """Corner resolvent entries of the symmetric reference and det(H - z),
    from state = transfer_product(bundle, z), or, for an array of z, from
    the stack of their lanes (say, a slice of transfer_products).

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
        z=z,
        g11=-m01 / (c[0] * m00),
        gnn=m10 / (c[-1] * m00),
        log_g1n=-state.log_scale - math.log(c[-1]) - log_m00,
        log_det=state.log_scale + log_m00 + float(np.sum(np.log(c[1:]))),
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
    return _log_add(log_d, bundle.log_abs_a + bundle.log_abs_b + log_cross)


def characteristic_residual(bundle: OperatorBundle, corners: ResolventCorners):
    """|det(J - z)| ratio defect against the rank-2 factorization at
    z = corners.z, in log modulus: |log|det(J-z)| - log|d| - log|det(H-z)||;
    one transfer product serves both factors.  For an array of z, one
    dense matrix serves every J - z, and the log-determinants are taken
    over their stack."""
    z = corners.z
    shifted = np.broadcast_to(bundle.dense(), z.shape + (bundle.n, bundle.n)).astype(complex)
    diag = np.arange(bundle.n)
    shifted[..., diag, diag] -= z[..., None]
    sign, logdet = np.linalg.slogdet(shifted)
    lhs = np.where(sign != 0, logdet, -math.inf)
    rhs = np.real(rank2_det(bundle, corners)) + np.real(corners.log_det)
    return np.abs(lhs - rhs)
