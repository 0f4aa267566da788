"""Eigenvalue engines.

Symmetric tridiagonal counting is hand-rolled (safeguarded Sturm
sequences, vectorized over (realization x shift) lanes) because it is the
backbone of the density-of-states estimator; full symmetric spectra come
from LAPACK through scipy.  The dense nonsymmetric spectrum delegates to LAPACK's
balancing + Hessenberg + implicitly shifted QR through numpy;
non-convergence is surfaced, never swallowed.  Resolvent corners,
det(H - z) and the rank-2 corner-perturbation determinant are read off
one renormalized transfer product, with the values that leave the double
range held as complex logarithms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._kernels import sturm_counts
from .errors import EigenSolveError, SingularResolventError, ValidationError
from .operators import OperatorBundle, TransferState, boundary_residual, transfer_product

__all__ = [
    "SpectrumResult",
    "ResolventCorners",
    "symmetric_eigencount",
    "symmetric_eigencounts",
    "symmetric_spectrum",
    "tridiagonal_counts",
    "tridiagonal_spectrum",
    "spectrum",
    "resolvent_corners",
    "rank2_det",
]

# Vectors (hence direct residuals) are computed below this size; above it
# the residual falls back to the periodic boundary-condition probe.
_VECTOR_LIMIT = 800


# -- symmetric tridiagonal --------------------------------------------------

def tridiagonal_counts(diag: np.ndarray, off: np.ndarray, lams) -> np.ndarray:
    """Eigenvalues below each lam for the symmetric tridiagonal (diag, off)."""
    diag = np.asarray(diag, dtype=float)
    if diag.shape[0] == 0:
        raise ValidationError("empty matrix")
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    return sturm_counts(diag, np.asarray(off, float), lams)


def symmetric_eigencount(bundle: OperatorBundle, lam: float) -> int:
    """Exact count of reference eigenvalues in (-inf, lam)."""
    return int(tridiagonal_counts(bundle.h_diag, bundle.h_off, [lam])[0])


def symmetric_eigencounts(bundles: Sequence[OperatorBundle], lams: np.ndarray) -> np.ndarray:
    """Reference eigenvalue counts below each lam, one row per bundle, from
    one Sturm pass over all (bundle, lam) lanes; the bundles must share n.
    Each row equals symmetric_eigencount of its bundle at every lam."""
    sizes = sorted({b.n for b in bundles})
    if len(sizes) != 1:
        raise ValidationError(f"bundles must share one n, got n in {sizes}")
    lams = np.asarray(lams, dtype=float)
    counts = sturm_counts(
        np.stack([b.h_diag for b in bundles], axis=1),
        np.stack([b.h_off for b in bundles], axis=1),
        np.tile(lams, len(bundles)),
    )
    return counts.reshape(len(bundles), lams.shape[0])


def tridiagonal_spectrum(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, sorted ascending
    (LAPACK through scipy)."""
    # imported here: scipy.linalg would add to the start-up of every CLI call
    from scipy.linalg import eigvalsh_tridiagonal

    diag = np.asarray(diag, dtype=float)
    if diag.shape[0] == 0:
        raise ValidationError("empty matrix")
    return eigvalsh_tridiagonal(diag, np.asarray(off, dtype=float))


def symmetric_spectrum(bundle: OperatorBundle) -> np.ndarray:
    return tridiagonal_spectrum(bundle.h_diag, bundle.h_off)


# -- dense nonsymmetric spectrum ---------------------------------------------

@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of one realization, sorted by (Re, Im).

    residual is the max relative defect max_i ||(J - z_i I) v_i|| / ||v_i||
    when eigenvectors were computed (n <= 800), otherwise the worst periodic
    boundary-condition probe residual over three sampled eigenvalues
    (method tag then carries the "+probe" suffix; raw bundles above the
    vector limit report nan).  trace and log_abs_det record the invariant
    targets sum q_k and log|det J|.
    """

    eigenvalues: np.ndarray
    n: int
    method: str
    residual: float
    trace: float
    log_abs_det: float

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)

    def nonreal_fraction(self, tol: float = 1e-6) -> float:
        return float(np.mean(np.abs(self.eigenvalues.imag) > tol))

    def empirical_integral(self, f) -> float:
        """Mean of f over the eigenvalues: the integral of f against the
        empirical measure that puts mass 1/n on each eigenvalue."""
        return float(np.mean([f(complex(z)) for z in self.eigenvalues]).real)

    def trace_defect(self) -> float:
        """|sum z_i - trace| / (n * max(1, |trace|)); invariant <= 1e-8."""
        s = complex(np.sum(self.eigenvalues))
        return abs(s - self.trace) / (self.n * max(1.0, abs(self.trace)))

    def det_defect(self) -> float:
        """Per-eigenvalue defect of sum log|z_i| against log|det J|;
        -inf/-inf (an exactly singular matrix) counts as a match."""
        logs = np.log(np.abs(self.eigenvalues))
        s = float(np.sum(logs))
        if not math.isfinite(s) or not math.isfinite(self.log_abs_det):
            return 0.0 if s == self.log_abs_det else float("inf")
        return abs(s - self.log_abs_det) / (self.n * max(1.0, abs(self.log_abs_det)))

    def conjugation_defect(self) -> float:
        """Multiset distance between the spectrum and its conjugate."""
        return multiset_distance(self.eigenvalues, np.conj(self.eigenvalues))


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max pairwise distance after sorting both sets by (Re, Im)."""
    key = lambda v: np.lexsort((np.imag(v), np.real(v)))
    a = np.asarray(a, complex)
    b = np.asarray(b, complex)
    if a.shape != b.shape:
        raise ValidationError("multisets must have equal size")
    return float(np.max(np.abs(a[key(a)] - b[key(b)])))


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
    return SpectrumResult(
        eigenvalues=ev,
        n=n,
        method=method,
        residual=residual,
        trace=float(np.sum(bundle.diag)),
        log_abs_det=log_abs_det_dense(j),
    )


def log_abs_det_dense(m: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(m)
    if sign == 0:
        return float("-inf")
    return float(logdet)


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
    product.  log_g1n and log_det are complex logarithms; g1n materializes
    G_1n (= G_n1, the reference is symmetric) and may under- or overflow
    for large n."""

    z: complex
    n: int
    g11: complex
    gnn: complex
    log_g1n: complex
    log_det: complex

    @property
    def g1n(self) -> complex:
        return cmath.exp(self.log_g1n)


def resolvent_corners(
    bundle: OperatorBundle, z: complex, state: Optional[TransferState] = None
) -> ResolventCorners:
    """Corner resolvent entries of the symmetric reference and det(H - z),
    from one transfer product.  state is transfer_product(bundle, z) when
    the caller already holds it (say, one lane of transfer_products);
    otherwise it is computed here.

    Requires z off the reference spectrum (use Im z != 0, or a real z in a
    spectral gap); a vanishing determinant raises SingularResolventError.
    """
    z = complex(z)
    if state is None:
        state = transfer_product(bundle, z)
    (m00, m01), (m10, _) = state.matrix
    if m00 == 0:
        raise SingularResolventError(f"z={z} is (numerically) an eigenvalue of the reference matrix")
    c = bundle.c
    log_m00 = cmath.log(m00)
    return ResolventCorners(
        z=z,
        n=bundle.n,
        g11=complex(-m01 / (c[0] * m00)),
        gnn=complex(m10 / (c[-1] * m00)),
        log_g1n=-state.log_scale - math.log(c[-1]) - log_m00,
        log_det=state.log_scale + log_m00 + float(np.sum(np.log(c[1:]))),
    )


def _log_add(x: complex, y: complex) -> complex:
    """log(e^x + e^y) for complex logarithms: the larger modulus is
    factored out first, so no exponential leaves the double range."""
    if y.real > x.real:
        x, y = y, x
    if x.real == -math.inf:
        return x
    rest = 1.0 + cmath.exp(y - x)
    return x + cmath.log(rest) if rest != 0 else complex(-math.inf, 0.0)


def rank2_det(
    bundle: OperatorBundle, z: complex, corners: Optional[ResolventCorners] = None
) -> complex:
    """Determinant ratio det(J - z) / det(H - z) of the rank-2 corner
    perturbation, (1 + a G_n1)(1 + b G_1n) - a b G_11 G_nn, as a complex
    logarithm.  corners are resolvent_corners(bundle, z) when the caller
    already holds them; otherwise they are computed here.

    a G_1n and b G_1n are formed from their logarithms, sums of moderate
    terms even when a_n alone would overflow; a_n, b_n < 0 and a b > 0.
    """
    rc = resolvent_corners(bundle, z) if corners is None else corners
    log_d = sum(_log_add(0j, complex(log_abs, math.pi) + rc.log_g1n)  # log(1 + a G_1n) + log(1 + b G_1n)
                for log_abs in (bundle.log_abs_a, bundle.log_abs_b))
    cross = rc.g11 * rc.gnn
    if cross == 0:
        return log_d
    return _log_add(log_d, bundle.log_abs_a + bundle.log_abs_b + cmath.log(-cross))


def characteristic_residual(
    bundle: OperatorBundle, z: complex, corners: Optional[ResolventCorners] = None
) -> float:
    """|det(J - z)| ratio defect against the rank-2 factorization, in log
    modulus: |log|det(J-z)| - log|d| - log|det(H-z)||.  corners are
    resolvent_corners(bundle, z) when the caller already holds them."""
    lhs = log_abs_det_dense(bundle.dense() - complex(z) * np.eye(bundle.n))
    # one transfer product serves both factors
    rc = resolvent_corners(bundle, z) if corners is None else corners
    rhs = rank2_det(bundle, z, rc).real + rc.log_det.real
    return abs(lhs - rhs)
