"""Matrix objects built from one coefficient realization.

Index conventions (the one canonical table; matrix entries are 1-based
(j, k) with j, k = 1..n, coefficient arrays are 0-based of length n+1):

    matrix entry          value            coefficient index used
    -------------------   --------------   ----------------------
    diagonal (k, k)       q_k              q[1..n]
    sub-diagonal (k+1,k)  -exp(xi_k)       xi[1..n-1]
    super-diag. (k,k+1)   -exp(eta_k)      eta[1..n-1]
    corner (1, n)         -exp(xi_0)       xi[0]
    corner (n, 1)         -exp(eta_n)      eta[n]

Similarity weights: w_0 = 1, log w_k = (1/2) sum_{j<k} (xi_j - eta_j);
conjugating by diag(w_1..w_n) turns the matrix into H + V where H is the
symmetric reference (diagonal q_k, off-diagonal -c_k with
c_k = exp((xi_k + eta_k)/2)) and V has the two corner entries
a_n = -c_0 w_n (top right) and b_n = -c_n w_1 / w_{n+1} (bottom left).
The periodic closure enters one-step form through B = diag(beta, 1) with
beta = w_{n+1} / (w_1 w_n).

Everything with exponential scale (weights, corner entries, transfer
products) is stored in log form; raw exponentials are materialized only on
demand and refuse to do so beyond |log| = 300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._kernels import transfer_product_scaled
from .ensembles import CoefficientSequence
from .errors import ScaleOverflowError, ValidationError

__all__ = [
    "OperatorBundle",
    "TransferState",
    "build",
    "transfer_product",
    "boundary_matrix",
    "boundary_residual",
    "eigenvector_slopes",
    "export_bundle",
]

_MAX_LOG = 300.0


def _materialize(log_value: float, what: str, sign: float = 1.0) -> float:
    if abs(log_value) > _MAX_LOG:
        raise ScaleOverflowError(f"{what} exceeds floating range", log_value)
    return sign * math.exp(log_value)


@dataclass(frozen=True)
class OperatorBundle:
    """All matrix data for one realization.

    diag is q[1..n] (length n); sub/sup are the strictly off-diagonal
    entries (length n-1); corner_top is entry (1, n), corner_bottom is
    entry (n, 1).  Canonical (log-coordinate) bundles also carry the
    couplings c[0..n], log-weights log w[0..n+1], log|a_n|, log|b_n|,
    beta and the realization drift g_hat = (1/2) mean(eta - xi) over
    indices 0..n-1.  Raw bundles support only the dense spectrum.
    """

    n: int
    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray
    corner_top: float
    corner_bottom: float
    seq: CoefficientSequence = field(repr=False)
    raw: bool = False
    c: Optional[np.ndarray] = None
    log_w: Optional[np.ndarray] = None
    log_abs_a: Optional[float] = None
    log_abs_b: Optional[float] = None
    beta: Optional[float] = None
    g_hat: Optional[float] = None

    def __post_init__(self):
        for arr in (self.diag, self.sub, self.sup):
            arr.setflags(write=False)
        if self.c is not None:
            self.c.setflags(write=False)
        if self.log_w is not None:
            self.log_w.setflags(write=False)

    def _need_log_coords(self, what: str):
        if self.raw:
            raise ValidationError(f"{what} is undefined for raw-entry bundles")

    # -- materialized views ----------------------------------------------
    @property
    def w(self) -> np.ndarray:
        """Weights w_0..w_{n+1}; raises ScaleOverflowError when any
        |log w_k| > 300 (the log array is always available as log_w)."""
        self._need_log_coords("weights")
        k = int(np.argmax(np.abs(self.log_w)))
        if abs(self.log_w[k]) > _MAX_LOG:
            raise ScaleOverflowError(f"weight w_{k} exceeds floating range", float(self.log_w[k]))
        return np.exp(self.log_w)

    @property
    def a_n(self) -> float:
        self._need_log_coords("corner a_n")
        return _materialize(self.log_abs_a, "corner a_n", -1.0)

    @property
    def b_n(self) -> float:
        self._need_log_coords("corner b_n")
        return _materialize(self.log_abs_b, "corner b_n", -1.0)

    @property
    def h_diag(self) -> np.ndarray:
        self._need_log_coords("symmetric reference")
        return self.diag

    @property
    def h_off(self) -> np.ndarray:
        """Off-diagonal of the symmetric reference: -c_1..-c_{n-1}."""
        self._need_log_coords("symmetric reference")
        return -self.c[1 : self.n]

    def gershgorin(self) -> tuple:
        """Enclosing interval for the symmetric reference spectrum."""
        self._need_log_coords("Gershgorin bounds")
        r = np.zeros(self.n)
        off = self.c[1 : self.n]
        r[:-1] += off
        r[1:] += off
        return float(np.min(self.diag - r)), float(np.max(self.diag + r))

    # -- dense forms -------------------------------------------------------
    def dense(self) -> np.ndarray:
        """The full matrix, column-major for the eigensolver."""
        j = np.zeros((self.n, self.n), order="F")
        idx = np.arange(self.n)
        j[idx, idx] = self.diag
        j[idx[1:], idx[:-1]] = self.sub
        j[idx[:-1], idx[1:]] = self.sup
        j[0, self.n - 1] += self.corner_top
        j[self.n - 1, 0] += self.corner_bottom
        return j

    def dense_reference(self) -> np.ndarray:
        h = np.zeros((self.n, self.n))
        idx = np.arange(self.n)
        h[idx, idx] = self.h_diag
        h[idx[1:], idx[:-1]] = self.h_off
        h[idx[:-1], idx[1:]] = self.h_off
        return h

    def dense_perturbed(self) -> np.ndarray:
        """H + V with the corner entries materialized (small n only)."""
        hv = self.dense_reference()
        hv[0, self.n - 1] += self.a_n
        hv[self.n - 1, 0] += self.b_n
        return hv


def build(seq: CoefficientSequence) -> OperatorBundle:
    """Assemble the bundle for one realization (needs n >= 2)."""
    n = seq.n
    if n < 2:
        raise ValidationError(f"bundle needs sequence length >= 3 (n >= 2), got n={n}")
    sub_all = seq.sub_entries()
    sup_all = seq.sup_entries()
    diag_all = seq.diag_entries()
    common = dict(
        n=n,
        diag=diag_all[1:].copy(),
        sub=sub_all[1:n].copy(),
        sup=sup_all[1:n].copy(),
        corner_top=float(sub_all[0]),
        corner_bottom=float(sup_all[n]),
        seq=seq,
    )
    if seq.raw:
        return OperatorBundle(raw=True, **common)
    xi, eta = seq.xi, seq.eta
    c = np.exp(0.5 * (xi + eta))
    log_w = np.zeros(n + 2)
    log_w[1:] = 0.5 * np.cumsum(xi - eta)
    log_abs_a = 0.5 * (xi[0] + eta[0]) + log_w[n]
    log_abs_b = 0.5 * (xi[n] + eta[n]) + log_w[1] - log_w[n + 1]
    beta = math.exp(0.5 * (eta[0] - xi[0] + xi[n] - eta[n]))
    g_hat = 0.5 * float(np.mean(eta[:n] - xi[:n]))
    return OperatorBundle(
        c=c,
        log_w=log_w,
        log_abs_a=float(log_abs_a),
        log_abs_b=float(log_abs_b),
        beta=beta,
        g_hat=g_hat,
        **common,
    )


# -- transfer matrices ------------------------------------------------------

def column_sum_norm(m: np.ndarray) -> float:
    """max_k sum_j |M_jk| -- the norm used for all transfer products."""
    return float(np.max(np.sum(np.abs(m), axis=0)))


@dataclass(frozen=True)
class TransferState:
    """Renormalized partial product of one-step transfer matrices.

    The true product is exp(log_scale) * matrix; after every step the
    stored matrix is rescaled to unit column-sum norm.
    """

    matrix: np.ndarray
    log_scale: float
    steps: int

    @staticmethod
    def identity(dtype=np.complex128) -> "TransferState":
        return TransferState(np.eye(2, dtype=dtype), 0.0, 0)


def transfer_product(bundle: OperatorBundle, z: complex) -> TransferState:
    """Full product A_n ... A_1 (renormalized), by the kernel's scalar loop
    over k (``_kernels.transfer_product_scaled``)."""
    bundle._need_log_coords("transfer matrices")
    log_scale, m = transfer_product_scaled(bundle.c, bundle.seq.q, complex(z))
    return TransferState(m, log_scale, bundle.n)


def boundary_matrix(bundle: OperatorBundle, z: complex) -> tuple:
    """(matrix, log_scale) with exp(log_scale) * matrix = B S_n(z), where
    B = diag(beta, 1) encodes the periodic closure."""
    state = transfer_product(bundle, z)
    m = np.array([[bundle.beta, 0.0], [0.0, 1.0]]) @ state.matrix
    norm = column_sum_norm(m)
    return m / norm, state.log_scale + math.log(norm)


def boundary_residual(bundle: OperatorBundle, z: complex) -> float:
    """Normalized defect of the periodic eigenvalue condition
    det(I/w_n - B S_n(z)) = 0.

    Uses det(I - w_n T) = 1 - w_n tr T + w_n^2 det T for the 2x2 product
    T = B S_n(z), assembled from log-scaled pieces (the determinant route
    stays exact on defective T where an eigenvalue route loses half the
    digits).  The value is |det| / max(1, |w_n tr T|, |w_n^2 det T|).
    """
    m, log_scale = boundary_matrix(bundle, z)
    lw = log_scale + bundle.log_w[bundle.n]  # log(w_n e^scale)
    tr = m[0, 0] + m[1, 1]
    dt = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    def scaled(log_coeff: float, value: complex):
        # exp(log_coeff) * value assembled in log space; None marks overflow
        if value == 0:
            return 0j
        lm = log_coeff + math.log(abs(value))
        if lm > _MAX_LOG:
            return None
        return (value / abs(value)) * math.exp(lm)

    t1 = scaled(lw, tr)
    t2 = scaled(2.0 * lw, dt)
    if t1 is None or t2 is None:
        return math.inf  # w_n T is astronomically far from the identity
    det = 1.0 - t1 + t2
    return abs(det) / max(1.0, abs(t1), abs(t2))


def eigenvector_slopes(matrix: np.ndarray) -> tuple:
    """Slopes (u, v) of the eigenvectors (u, 1)^T, (v, 1)^T of a 2x2
    matrix, ordered so that Im u <= Im v.  Scale-invariant, so it can be
    fed the renormalized matrix of a TransferState directly."""
    (m00, m01), (m10, m11) = matrix
    tr = m00 + m11
    disc = np.sqrt(complex(tr * tr - 4.0 * (m00 * m11 - m01 * m10)))
    slopes = []
    for mu in ((tr + disc) / 2.0, (tr - disc) / 2.0):
        # (mu - m22)/m21 is exact when m21 != 0; fall back to m12/(mu - m11).
        if abs(m10) >= 1e-300:
            slopes.append((mu - m11) / m10)
        else:
            slopes.append(m01 / (mu - m00))
    u, v = slopes
    if u.imag > v.imag:
        u, v = v, u
    return u, v


def export_bundle(bundle: OperatorBundle, path_dense: str, path_reference: str) -> None:
    """Write the dense matrix in matrix-market coordinate format and the
    symmetric reference as (diag, offdiag) columns, for external checks."""
    j = bundle.dense()
    rows, cols = np.nonzero(j)
    with open(path_dense, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{bundle.n} {bundle.n} {len(rows)}\n")
        for r, ccol in zip(rows, cols):
            fh.write(f"{r + 1} {ccol + 1} {float(j[r, ccol])!r}\n")
    with open(path_reference, "w") as fh:
        fh.write("# symmetric reference: k, diagonal q_k, off-diagonal -c_k (last off empty)\n")
        off = bundle.h_off
        for k in range(bundle.n):
            tail = f" {float(off[k])!r}" if k < bundle.n - 1 else ""
            fh.write(f"{k + 1} {float(bundle.h_diag[k])!r}{tail}\n")
