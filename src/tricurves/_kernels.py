"""The two hot loops: Sturm counts and the renormalized transfer product.

Both are sequential in the matrix index k.  The Sturm recurrence is
vectorized over the lambda axis; the transfer product is a scalar loop.
"""

from __future__ import annotations

import numpy as np


def sturm_counts(diag: np.ndarray, off: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each lam, via the safeguarded LDL^T
    sign-change sequence.  Ties (lam exactly an eigenvalue) count below."""
    diag = np.ascontiguousarray(diag, dtype=np.float64)
    off2 = np.ascontiguousarray(np.square(off), dtype=np.float64)
    lams = np.ascontiguousarray(lams, dtype=np.float64)
    scale = max(1.0, float(off2.max()) if off2.size else 1.0)
    pivmin = np.finfo(np.float64).tiny * scale
    d = diag[0] - lams
    np.copyto(d, -pivmin, where=np.abs(d) < pivmin)
    count = (d < 0.0).astype(np.int64)
    for k in range(1, diag.shape[0]):
        d = (diag[k] - lams) - off2[k - 1] / d
        np.copyto(d, -pivmin, where=np.abs(d) < pivmin)
        count += d < 0.0
    return count


def transfer_product_scaled(c: np.ndarray, q: np.ndarray, z: complex):
    """(log_scale, M) with M the renormalized transfer product of n steps;
    the true product is exp(log_scale) * M and ||M|| = 1 (column-sum norm).

    c has length n+1 (couplings c_0..c_n), q has length n+1 with q[1..n]
    the diagonal values (q[0] unused).  A_k has rows
    [(q_k - z)/c_k, -c_{k-1}/c_k] and [1, 0]; the product A_n ... A_1 is
    renormalized to unit column-sum norm after every step.
    """
    c = np.ascontiguousarray(c, dtype=np.float64)
    q = np.ascontiguousarray(q, dtype=np.float64)
    n = c.shape[0] - 1
    z = complex(z)
    m00 = 1.0 + 0.0j
    m01 = 0.0 + 0.0j
    m10 = 0.0 + 0.0j
    m11 = 1.0 + 0.0j
    logscale = 0.0
    for k in range(1, n + 1):
        ck = c[k]
        a = (q[k] - z) / ck
        b = -c[k - 1] / ck
        t00 = a * m00 + b * m10
        t01 = a * m01 + b * m11
        m10 = m00
        m11 = m01
        m00 = t00
        m01 = t01
        norm = max(abs(m00) + abs(m10), abs(m01) + abs(m11))
        m00 /= norm
        m01 /= norm
        m10 /= norm
        m11 /= norm
        logscale += np.log(norm)
    return float(logscale), np.array([[m00, m01], [m10, m11]], dtype=np.complex128)
