"""Eigenvalue engines.

Symmetric tridiagonal counting is hand-rolled (safeguarded Sturm
sequences, vectorized over the shifts) because it is the backbone of the
density-of-states estimator; full symmetric spectra come from LAPACK
through scipy.  The dense nonsymmetric spectrum delegates to LAPACK's
balancing + Hessenberg + implicitly shifted QR through numpy;
non-convergence is surfaced, never swallowed.  Resolvent
corners and the rank-2 corner-perturbation determinant are computed from
three-term minor recurrences entirely in log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import sturm_counts
from .ensembles import spec_hash
from .errors import EigenSolveError, SingularResolventError, ValidationError
from .logscale import LogComplex
from .operators import OperatorBundle, boundary_residual

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
    "log_det_reference",
]

# Vectors (hence direct residuals) are computed below this size; above it
# the residual falls back to the periodic boundary-condition probe.
_VECTOR_LIMIT = 800


# -- symmetric tridiagonal --------------------------------------------------

def tridiagonal_counts(diag: np.ndarray, off: np.ndarray, lams) -> np.ndarray:
    """Eigenvalues below each lam for the symmetric tridiagonal (diag, off)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    return sturm_counts(np.asarray(diag, float), np.asarray(off, float), lams)


def symmetric_eigencount(bundle: OperatorBundle, lam: float) -> int:
    """Exact count of reference eigenvalues in (-inf, lam)."""
    return int(tridiagonal_counts(bundle.h_diag, bundle.h_off, [lam])[0])


def symmetric_eigencounts(bundle: OperatorBundle, lams: np.ndarray) -> np.ndarray:
    return tridiagonal_counts(bundle.h_diag, bundle.h_off, lams)


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
    realization: str
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

    def count_in(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> int:
        e = self.eigenvalues
        return int(np.sum((e.real >= x_lo) & (e.real <= x_hi) & (e.imag >= y_lo) & (e.imag <= y_hi)))

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
        realization=f"{spec_hash(bundle.seq.spec)}:n{n}:s{seed}",
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

@dataclass(frozen=True)
class ResolventCorners:
    """Corner entries of (H - z)^-1 in log-scaled form.

    g11/g1n/gn1/gnn materialize to plain complex (may over/underflow for
    large n; the log forms are exact).  log_det is log-scaled det(H - z).
    """

    z: complex
    n: int
    g11_log: LogComplex
    g1n_log: LogComplex
    gnn_log: LogComplex
    log_det: LogComplex
    log_prod_c: float

    @property
    def g11(self) -> complex:
        return self.g11_log.to_complex()

    @property
    def g1n(self) -> complex:
        return self.g1n_log.to_complex()

    gn1_log = property(lambda self: self.g1n_log)  # symmetric reference

    @property
    def gn1(self) -> complex:
        return self.g1n

    @property
    def gnn(self) -> complex:
        return self.gnn_log.to_complex()


def _minor_sequence(diag: np.ndarray, off: np.ndarray, z: complex, reverse: bool) -> list:
    """Log-scaled leading (or trailing) principal minors of (H - z).

    Returns [M_0, M_1, ..., M_n] with M_0 = 1; M_k is the determinant of
    the first (last, when reverse) k rows and columns.
    """
    n = diag.shape[0]
    d = diag[::-1] if reverse else diag
    o = off[::-1] if reverse else off
    minors = [LogComplex.from_complex(1.0), LogComplex.from_complex(d[0] - z)]
    prev2 = minors[0]
    prev1 = minors[1]
    for k in range(1, n):
        cur = LogComplex.from_complex(d[k] - z) * prev1 - LogComplex.from_complex(o[k - 1] ** 2) * prev2
        minors.append(cur)
        prev2, prev1 = prev1, cur
    return minors


def resolvent_corners(bundle: OperatorBundle, z: complex) -> ResolventCorners:
    """Corner resolvent entries of the symmetric reference from forward and
    backward minor recurrences, all in log scale.

    Requires z off the reference spectrum (use Im z != 0, or a real z in a
    spectral gap); a vanishing determinant raises SingularResolventError.
    """
    z = complex(z)
    diag = np.asarray(bundle.h_diag, float)
    off = np.asarray(bundle.h_off, float)
    n = diag.shape[0]
    fwd = _minor_sequence(diag, off, z, reverse=False)
    bwd = _minor_sequence(diag, off, z, reverse=True)
    det = fwd[n]
    if det.is_zero or not math.isfinite(det.log_mod):
        raise SingularResolventError(f"z={z} is (numerically) an eigenvalue of the reference matrix")
    log_prod_c = float(np.sum(np.log(np.abs(off)))) if n > 1 else 0.0
    # off entries are -c_k < 0; the corner formula uses the product of c_k.
    g1n = LogComplex.from_log(log_prod_c) / det
    g11 = bwd[n - 1] / det
    gnn = fwd[n - 1] / det
    return ResolventCorners(
        z=z, n=n, g11_log=g11, g1n_log=g1n, gnn_log=gnn, log_det=det, log_prod_c=log_prod_c
    )


def log_det_reference(bundle: OperatorBundle, z: complex) -> LogComplex:
    """Log-scaled det(H - z) by the forward minor recurrence."""
    diag = np.asarray(bundle.h_diag, float)
    off = np.asarray(bundle.h_off, float)
    return _minor_sequence(diag, off, complex(z), reverse=False)[-1]


def rank2_det(bundle: OperatorBundle, z: complex) -> LogComplex:
    """Determinant ratio det(J - z) / det(H - z) of the rank-2 corner
    perturbation: (1 + a G_n1)(1 + b G_1n) - a b G_11 G_nn.

    The products a*G and b*G are formed directly in log space: their logs
    are sums of moderate terms even when a_n alone would overflow.
    """
    corners = resolvent_corners(bundle, z)
    log_a = LogComplex.from_log(bundle.log_abs_a, -1.0)
    log_b = LogComplex.from_log(bundle.log_abs_b, -1.0)
    a_gn1 = log_a * corners.g1n_log
    b_g1n = log_b * corners.g1n_log
    cross = log_a * log_b * corners.g11_log * corners.gnn_log
    one = LogComplex.from_complex(1.0)
    return (one + a_gn1) * (one + b_g1n) - cross


def characteristic_residual(bundle: OperatorBundle, z: complex) -> float:
    """|det(J - z)| ratio defect against the rank-2 factorization, in log
    modulus: |log|det(J-z)| - log|d| - log|det(H-z)||."""
    lhs = log_abs_det_dense(bundle.dense() - complex(z) * np.eye(bundle.n))
    d = rank2_det(bundle, z)
    rhs = d.log_mod + log_det_reference(bundle, z).log_mod
    return abs(lhs - rhs)
