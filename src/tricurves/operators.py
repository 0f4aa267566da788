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
products) is stored in log form.  The closure residual assembles its
terms from logarithms and reports inf where one would exceed e^300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._kernels import transfer_product_scaled
from .ensembles import CoefficientSequence
from .errors import ValidationError

__all__ = [
    "OperatorBundle",
    "TransferState",
    "build",
    "transfer_product",
    "transfer_products",
    "closed_product",
    "boundary_residual",
    "eigenvector_slopes",
]

_MAX_LOG = 300.0


@dataclass(frozen=True)
class OperatorBundle:
    """All matrix data for one realization.

    diag is q[1..n] (length n), also the diagonal of the symmetric
    reference; sub/sup are the strictly off-diagonal entries (length
    n-1); corner_top is entry (1, n), corner_bottom is entry (n, 1).
    Canonical (log-coordinate) bundles also carry the couplings c[0..n],
    log-weights log w[0..n+1], log|a_n|, log|b_n| and beta.  Raw bundles
    support only the dense spectrum.
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
    return OperatorBundle(
        c=c,
        log_w=log_w,
        log_abs_a=float(log_abs_a),
        log_abs_b=float(log_abs_b),
        beta=beta,
        **common,
    )


# -- transfer matrices ------------------------------------------------------

def column_sum_norm(m: np.ndarray):
    """max_k sum_j |M_jk| -- the norm used for all transfer products; one
    per lane of a stack (L, 2, 2)."""
    return np.max(np.sum(np.abs(m), axis=-2), axis=-1)


@dataclass(frozen=True)
class TransferState:
    """Renormalized partial product of one-step transfer matrices.

    The true product is exp(log_scale) * matrix, and the stored matrix has
    unit column-sum norm.  The kernel renormalizes after every step within
    a block and after every product of the pairwise fold of the blocks.

    A stack of L lanes holds matrix (L, 2, 2) and log_scale (L,): then
    state[i] is lane i and state[a:b] the stack of lanes a..b-1.
    """

    matrix: np.ndarray
    log_scale: float

    def __getitem__(self, lanes) -> "TransferState":
        log_scale = self.log_scale[lanes]
        return TransferState(self.matrix[lanes], log_scale if np.ndim(log_scale) else float(log_scale))


def transfer_product(bundle: OperatorBundle, z: complex) -> TransferState:
    """Full product A_n ... A_1, renormalized per step within each block of
    at most 16 steps and per product of the pairwise fold of the blocks:
    one lane of ``_kernels.transfer_product_scaled``."""
    return transfer_products([bundle], [z])[0]


def transfer_products(bundles, zs) -> TransferState:
    """The stack of transfer_product(bundle, z) over the pairs of bundles
    and zs, in one kernel call with one lane per pair; the bundles must
    share n.  A lane's result does not depend on the other lanes, so each
    lane equals the one-pair call bit for bit."""
    for bundle in bundles:
        bundle._need_log_coords("transfer matrices")
    log_scales, mats = transfer_product_scaled(
        np.stack([b.c for b in bundles], axis=1),
        np.stack([b.seq.q for b in bundles], axis=1),
        np.asarray(zs, dtype=np.complex128),
    )
    return TransferState(mats, log_scales)


def closed_product(bundle, state: TransferState) -> tuple:
    """(matrix, log_scale) with exp(log_scale) * matrix = B S_n, for the
    transfer product S_n held in state; B = diag(beta, 1) encodes the
    periodic closure.  For a stack of lanes, ``bundle`` is a sequence of
    bundles, one per lane, and the result is stacked too."""
    stacked = np.ndim(state.log_scale) > 0
    beta = np.array([b.beta for b in bundle]) if stacked else bundle.beta
    m = state.matrix.copy()
    m[..., 0, :] *= np.asarray(beta)[..., None]
    norm = column_sum_norm(m)
    log_norm = np.log(norm) if stacked else math.log(norm)
    return m / norm[..., None, None], state.log_scale + log_norm


def boundary_residual(bundle: OperatorBundle, z: complex) -> float:
    """Normalized defect of the periodic eigenvalue condition
    det(I/w_n - B S_n(z)) = 0.

    Uses det(I - w_n T) = 1 - w_n tr T + w_n^2 det T for the 2x2 product
    T = B S_n(z), assembled from log-scaled pieces (the determinant route
    stays exact on defective T where an eigenvalue route loses half the
    digits).  The value is |det| / max(1, |w_n tr T|, |w_n^2 det T|).
    """
    m, log_scale = closed_product(bundle, transfer_product(bundle, z))
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
    fed the renormalized matrix of a TransferState directly.  A stack
    (L, 2, 2) gives u and v of shape (L,)."""
    m = np.asarray(matrix)
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    tr = m00 + m11
    disc = np.sqrt(np.asarray(tr * tr - 4.0 * (m00 * m11 - m01 * m10), dtype=complex))
    mu = np.stack([(tr + disc) / 2.0, (tr - disc) / 2.0])
    # (mu - m22)/m21 is exact when m21 != 0; fall back to m12/(mu - m11);
    # np.where evaluates both, so the branch not taken may divide by zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u, v = np.where(np.abs(m10) >= 1e-300, (mu - m11) / m10, m01 / (mu - m00))
    swap = u.imag > v.imag
    return np.where(swap, v, u)[()], np.where(swap, u, v)[()]
