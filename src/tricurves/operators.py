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
products) is stored in log form.  A log-scaled product is a
TransferState (a unit-norm matrix and its log-scale), one lane or a
stack of lanes.  The closure residual takes an array of z and returns
one value per z, from one kernel call with one lane each; it reads only
the trace of each product, takes the determinant term in closed form,
and normalizes the terms by their logarithms, so it is finite for every z.
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
    "couplings",
    "reference_off",
    "gershgorin",
    "transfer_products",
    "closed_product",
    "boundary_residual",
    "eigenvector_slopes",
]

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
        return reference_off(self.c)

    def gershgorin(self) -> tuple:
        """Enclosing interval for the symmetric reference spectrum."""
        self._need_log_coords("Gershgorin bounds")
        return gershgorin(self.diag, self.h_off)

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


def couplings(seq: CoefficientSequence) -> np.ndarray:
    """The couplings c_0..c_n of a log-coordinate sequence,
    c_k = exp((xi_k + eta_k) / 2)."""
    return np.exp(0.5 * (seq.xi + seq.eta))


def reference_off(c: np.ndarray) -> np.ndarray:
    """Off-diagonal of the symmetric reference, -c_1..-c_{n-1}, from the
    couplings c_0..c_n."""
    return -c[1:-1]


def gershgorin(diag: np.ndarray, off: np.ndarray) -> tuple:
    """Enclosing interval (lo, hi) for the spectrum of the symmetric
    tridiagonal matrix with diagonal diag and off-diagonal off."""
    r = np.zeros(diag.shape[0])
    radius = np.abs(off)
    r[:-1] += radius
    r[1:] += radius
    return float(np.min(diag - r)), float(np.max(diag + r))


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
    c = couplings(seq)
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
    log_scale: np.ndarray

    def __getitem__(self, lanes) -> "TransferState":
        return TransferState(self.matrix[lanes], self.log_scale[lanes])


def transfer_products(bundles, zs) -> TransferState:
    """The full products A_n ... A_1 of the pairs of bundles and zs,
    renormalized per step within each block of at most 16 steps and per
    product of the pairwise fold of the blocks, in one kernel call with
    one lane per pair (``_kernels.transfer_product_scaled``); the bundles
    must share n.  A lane's result does not depend on the other lanes, so
    each lane equals the one-pair call bit for bit.  When every lane has the
    same bundle, the kernel shares its coefficient columns across the
    lanes rather than a stacked copy per lane."""
    for bundle in bundles:
        bundle._need_log_coords("transfer matrices")
    if len({id(b) for b in bundles}) == 1:
        c, q = bundles[0].c, bundles[0].seq.q
    else:
        c = np.stack([b.c for b in bundles], axis=1)
        q = np.stack([b.seq.q for b in bundles], axis=1)
    log_scales, mats = transfer_product_scaled(c, q, np.asarray(zs, dtype=np.complex128))
    return TransferState(mats, log_scales)


def closed_product(bundles, state: TransferState) -> TransferState:
    """B S_n for each lane of the stack of transfer products S_n in state,
    bundles[i] being lane i's bundle; B = diag(beta, 1) encodes the
    periodic closure."""
    m = state.matrix.copy()
    m[:, 0, :] *= np.array([b.beta for b in bundles])[:, None]
    norm = column_sum_norm(m)
    return TransferState(m / norm[:, None, None], state.log_scale + np.log(norm))


def boundary_residual(bundle: OperatorBundle, zs) -> np.ndarray:
    """Normalized defect of the periodic eigenvalue condition
    det(I/w_n - B S_n(z)) = 0 at each z, an array of zs' shape, from one
    kernel call with one lane per z.

    Uses det(I - w_n T) = 1 - t1 + t2 for the 2x2 product T = B S_n(z),
    with t1 = w_n tr T and t2 = w_n^2 det T.  Only the trace is read off
    the product: every step has det A_k = c_{k-1} / c_k, so t2 =
    w_n^2 beta c_0 / c_n = |a_n| / |b_n| exactly, the same for every z.
    The value is |1 - t1 + t2| / max(1, |t1|, |t2|), with the
    normalization done on the terms' logarithms, so it is finite for
    every z and either sign of g.
    """
    zs = np.asarray(zs, dtype=complex)
    state = transfer_products([bundle] * zs.size, zs.ravel())
    tr = bundle.beta * state.matrix[:, 0, 0] + state.matrix[:, 1, 1]
    log_t2 = bundle.log_abs_a - bundle.log_abs_b
    modulus = np.abs(tr)
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) and 0/0 of a zero trace, masked below
        log_t1 = bundle.log_w[bundle.n] + state.log_scale + np.log(modulus)
        phase = tr / modulus
    top = np.maximum(np.maximum(0.0, log_t1), log_t2)
    t1 = np.where(tr == 0, 0j, phase * np.exp(log_t1 - top))
    residual = np.abs(np.exp(-top) - t1 + np.exp(log_t2 - top))
    return residual.reshape(zs.shape)


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
