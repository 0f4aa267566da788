"""The two hot loops: Sturm counts and the renormalized transfer product.

Both are sequential in the matrix index k and run as numpy vector
operations over independent "lanes".  The Sturm recurrence is vectorized
over (realization x shift) lanes.  The transfer product is vectorized over
lanes (one product each) and, within every lane, over about sqrt(n) blocks
of the k-range: all (lane, block) products advance together, one k-step per
vector operation, and each lane then folds its block products in order.
"""

from __future__ import annotations

import math

import numpy as np


def sturm_counts(diag: np.ndarray, off: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each lam, via the safeguarded LDL^T
    sign-change sequence.  Ties (lam exactly an eigenvalue) count below.

    diag (n,) and off (n-1,) describe one matrix; diag (n, R) and
    off (n-1, R) describe R matrices, one per column.  lams holds one
    shift per lane, realization-major: with R matrices, lane i counts the
    eigenvalues of matrix i // (len(lams) // R) below lams[i].  Each matrix
    keeps its own pivot floor, so a lane's count does not depend on the
    other matrices.
    """
    diag = np.asarray(diag, dtype=np.float64)
    off2 = np.square(np.asarray(off, dtype=np.float64))
    lams = np.asarray(lams, dtype=np.float64)
    n = diag.shape[0]
    diag = diag.reshape(n, -1, 1)
    off2 = off2.reshape(max(n - 1, 0), diag.shape[1], 1)
    lams = lams.reshape(diag.shape[1], -1)
    pivmin = np.finfo(np.float64).tiny * np.max(off2, axis=0, initial=1.0)
    d = diag[0] - lams
    np.copyto(d, -pivmin, where=np.abs(d) < pivmin)
    count = (d < 0.0).astype(np.int64)
    for k in range(1, n):
        d = (diag[k] - lams) - off2[k - 1] / d
        np.copyto(d, -pivmin, where=np.abs(d) < pivmin)
        count += d < 0.0
    return count.reshape(-1)


def transfer_product_scaled(c: np.ndarray, q: np.ndarray, z):
    """(log_scale, M) with M the renormalized transfer product of n steps;
    the true product is exp(log_scale) * M and ||M|| = 1 (column-sum norm).

    c has length n+1 (couplings c_0..c_n), q has length n+1 with q[1..n]
    the diagonal values (q[0] unused).  A_k has rows
    [(q_k - z)/c_k, -c_{k-1}/c_k] and [1, 0].

    Lanes: c and q of shape (n+1, L) and z of shape (L,) give L independent
    products, returned as log_scale (L,) and M (L, 2, 2); a (n+1,) or
    scalar argument is shared by all lanes.  With c, q of shape (n+1,) and
    a scalar z the result is (float, (2, 2) array).

    Blocks: the k-range 1..n is cut into blocks of ceil(sqrt(n)) steps.
    Every (lane, block) product A_k ... A_first advances one step per
    vector operation and is renormalized to unit column-sum norm after
    every step; each lane then multiplies its block products in k order,
    renormalizing after every fold.  The working set is O(L sqrt(n)), and
    a lane's result does not depend on what the other lanes hold.
    """
    c = np.asarray(c, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    z = np.asarray(z, dtype=np.complex128)
    one_lane = c.ndim == q.ndim == 1 and z.ndim == 0
    # a single product runs as one lane, through the same code path
    c = c.reshape(c.shape[0], -1)
    q = q.reshape(q.shape[0], -1)
    z = z.reshape(-1)
    lanes = np.broadcast_shapes(c.shape[1:], q.shape[1:], z.shape)
    n = c.shape[0] - 1
    size = math.isqrt(max(n, 1) - 1) + 1  # steps per block, ceil(sqrt(n))
    nblocks = max(1, -(-n // size))
    # Block products by rows: top = (m00, m01), bottom = (m10, m11).
    top = np.zeros((2, nblocks) + lanes, dtype=np.complex128)
    bottom = np.zeros_like(top)
    top[0] = 1.0
    bottom[1] = 1.0
    log_scale = np.zeros((nblocks,) + lanes)
    for j in range(size):
        # step j of every block: k = 1 + j + size * block; a short last
        # block drops out of the slices once it is complete
        ck = c[j + 1 :: size]
        live = ck.shape[0]
        a = (q[j + 1 :: size] - z) / ck
        b = -c[j:n:size] / ck
        t = top[:, :live]
        u = bottom[:, :live]
        new = a * t + b * u
        colsum = np.abs(new)
        colsum += np.abs(t)
        norm = np.maximum(colsum[0], colsum[1])
        np.divide(t, norm, out=u)
        np.divide(new, norm, out=t)
        log_scale[:live] += np.log(norm)
    # fold: M <- P_blk M with the rows of M as (m00, m01) and (m10, m11)
    m_top, m_bottom = top[:, 0], bottom[:, 0]
    total = log_scale[0]
    for blk in range(1, nblocks):
        (p00, p01), (p10, p11) = top[:, blk], bottom[:, blk]
        new_top = p00 * m_top + p01 * m_bottom
        new_bottom = p10 * m_top + p11 * m_bottom
        colsum = np.abs(new_top)
        colsum += np.abs(new_bottom)
        norm = np.maximum(colsum[0], colsum[1])
        m_top, m_bottom = new_top / norm, new_bottom / norm
        total = total + (log_scale[blk] + np.log(norm))
    m = np.stack([m_top.T, m_bottom.T], axis=1)
    if one_lane:
        return float(total[0]), m[0]
    return total, m
