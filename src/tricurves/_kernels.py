"""The two hot loops: Sturm counts and the renormalized transfer product.

Both are sequential in the matrix index k and run as numpy vector
operations over independent "lanes".  The Sturm recurrence is vectorized
over (realization x shift) lanes; when the lanes are few and n is long it
is also vectorized over blocks of the k-range, which start from a guessed
pivot and are made exact where their pivots coalesce with the true ones,
bit for bit.  The transfer product is vectorized over lanes (one product
each) and, within every lane, over about sqrt(n) blocks of the k-range:
all (lane, block) products advance together, one k-step per vector
operation, and each lane then folds its block products in order.
"""

from __future__ import annotations

import math

import numpy as np


# Lanes the pivot recurrence advances together at about its lowest cost
# per lane-step; a call with fewer lanes is widened by cutting the k-range
# into blocks that run side by side.
_STURM_WIDTH = 1 << 14
# Shortest block worth a cut: long against the few hundred steps a block
# needs to coalesce with its true trajectory on a random chain.
_STURM_MIN_BLOCK = 2048
# First step at which the fix-up pass compares its pivots with pass 1's;
# later checkpoints double it.
_STURM_FIRST_CHECKPOINT = 32


def sturm_counts(diag: np.ndarray, off: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each lam, via the safeguarded LDL^T
    sign-change sequence.  Ties (lam exactly an eigenvalue) count below.

    diag (n,) and off (n-1,) describe one matrix; diag (n, R) and
    off (n-1, R) describe R matrices, one per column.  lams holds one
    shift per lane, realization-major: with R matrices, lane i counts the
    eigenvalues of matrix i // (len(lams) // R) below lams[i].  Each matrix
    keeps its own pivot floor, so a lane's count does not depend on the
    other matrices.

    Every lane's count is that of the k-sequential recurrence, bit for
    bit.  The path depends only on n and the number of lanes: the k-range
    is cut into min(_STURM_WIDTH // lanes, n // _STURM_MIN_BLOCK) blocks
    that run side by side (see _blocked_counts) when that is at least 2,
    and otherwise one pass runs k = 0..n-1.
    """
    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    lams = np.asarray(lams, dtype=np.float64)
    n = diag.shape[0]
    diag = diag.reshape(n, -1, 1)
    rows = diag.shape[1]
    # off2[k] = off[k-1]^2 is divided by the incoming pivot of step k; the
    # zero in row 0 meets the incoming pivot +inf of a chain's first step
    off2 = np.zeros((n, rows, 1))
    np.square(off.reshape(n - 1, rows, 1), out=off2[1:])
    lams = lams.reshape(rows, -1)
    pivmin = np.finfo(np.float64).tiny * np.max(off2, axis=0, initial=1.0)
    nblocks = min(_STURM_WIDTH // max(lams.size, 1), n // _STURM_MIN_BLOCK)
    if nblocks < 2:
        counts = _sequential_counts(diag, off2, lams, pivmin)
    else:
        counts = _blocked_counts(diag, off2, lams, pivmin, nblocks)
    return counts.reshape(-1)


def _advance(diag, off2, lams, pivmin, d, count, start, stop):
    """Run steps start..stop-1 of every block, in place.

    The blocks are d.shape[0] equal runs of rows of diag and off2, side by
    side; d (blocks, R, L) holds each block's incoming pivots and count
    its running negative-pivot counts.  Step k is
    d <- (diag[k] - lam) - off2[k] / d, with a pivot below the floor pivmin
    in magnitude replaced by -pivmin, and count adds d < 0.
    """
    size = diag.shape[0] // d.shape[0]
    buf = np.empty_like(d)
    neg = np.empty(d.shape, dtype=bool)
    # negatives accumulate in bytes, flushed before they can wrap
    pending = np.zeros(d.shape, dtype=np.uint8)
    floor = float(np.max(pivmin))
    for j in range(start, stop):
        np.subtract(diag[j::size], lams, out=buf)
        np.divide(off2[j::size], d, out=d)
        np.subtract(buf, d, out=d)
        if np.abs(d, out=buf).min(initial=np.inf) < floor:
            np.copyto(d, -pivmin, where=buf < pivmin)
        np.less(d, 0.0, out=neg)
        pending += neg.view(np.uint8)
        if (j - start) % 255 == 254:
            count += pending
            pending.fill(0)
    count += pending


def _sequential_counts(diag, off2, lams, pivmin) -> np.ndarray:
    """Counts from one k-sequential pass over all lanes."""
    d = np.full((1,) + lams.shape, np.inf)
    count = np.zeros(d.shape, dtype=np.int64)
    _advance(diag, off2, lams, pivmin, d, count, 0, diag.shape[0])
    return count[0]


def _blocked_counts(diag, off2, lams, pivmin, nblocks) -> np.ndarray:
    """Counts from nblocks blocks of the k-range run side by side, exact
    by coalescence.

    Block 0 takes the n % nblocks extra steps, which run first.  Pass 1
    then starts every block b >= 1 from a cut (incoming pivot +inf; block
    0 continues from the true start), runs all blocks to their ends, and
    keeps each block's pivots and running counts at the checkpoint steps
    32, 64, 128, ... up to half a block.  The fix-up pass reruns every
    block b >= 1 from the pass-1 end pivot of block b-1, up to the last
    checkpoint at most.  Each step is a fixed function of its incoming
    pivot, so once a fix-up pivot equals pass 1's at a checkpoint, bit for
    bit, the rest of the block is pass 1's, and the block's count is pass
    1's with the prefix up to that checkpoint taken from the fix-up.  If
    every block of a lane coalesces, by induction each fix-up started from
    the true pivot and the lane's count is exact.  Lanes with a block that
    has not coalesced by half a block (in the band of a chain whose
    transfer maps do not contract, such as the free chain, they never do)
    run the sequential pass instead.
    """
    n = diag.shape[0]
    size, head = divmod(n, nblocks)
    marks = []  # checkpoint steps: 32, 64, ... up to half a block
    mark = _STURM_FIRST_CHECKPOINT
    while mark <= size // 2:
        marks.append(mark)
        mark *= 2
    body_diag, body_off2 = diag[head:], off2[head:]
    d = np.full((nblocks,) + lams.shape, np.inf)
    count = np.zeros(d.shape, dtype=np.int64)
    _advance(diag[:head], off2[:head], lams, pivmin, d[:1], count[:1], 0, head)
    saved_d = np.empty((len(marks), nblocks - 1) + lams.shape)
    saved_count = np.empty(saved_d.shape, dtype=np.int64)
    start = 0
    for i, mark in enumerate(marks):
        _advance(body_diag, body_off2, lams, pivmin, d, count, start, mark + 1)
        saved_d[i] = d[1:]
        saved_count[i] = count[1:]
        start = mark + 1
    _advance(body_diag, body_off2, lams, pivmin, d, count, start, size)
    # fix-up: block b >= 1 (row b - 1) restarts from block b-1's end pivot
    fix_d = d[:-1].copy()
    fix_count = np.zeros(fix_d.shape, dtype=np.int64)
    settled = np.zeros(fix_d.shape, dtype=bool)
    start = 0
    for i, mark in enumerate(marks):
        _advance(body_diag[size:], body_off2[size:], lams, pivmin, fix_d, fix_count, start, mark + 1)
        start = mark + 1
        new = fix_d == saved_d[i]
        new &= ~settled
        count[1:][new] += (fix_count - saved_count[i])[new]
        settled |= new
        if settled.all():
            break
    counts = count.sum(axis=0)
    exact = settled.all(axis=0)
    if not exact.all():
        rows = np.flatnonzero(~exact.all(axis=1))
        cols = np.flatnonzero(~exact[rows].all(axis=0))
        counts[np.ix_(rows, cols)] = _sequential_counts(
            diag[:, rows], off2[:, rows], lams[np.ix_(rows, cols)], pivmin[rows]
        )
    return counts


def transfer_product_scaled(c: np.ndarray, q: np.ndarray, z):
    """(log_scale, M) with M the renormalized transfer product of n steps;
    the true product is exp(log_scale) * M and ||M|| = 1 (column-sum norm).

    c has length n+1 (couplings c_0..c_n), q has length n+1 with q[1..n]
    the diagonal values (q[0] unused).  A_k has rows
    [(q_k - z)/c_k, -c_{k-1}/c_k] and [1, 0].

    Lanes: c and q of shape (n+1, L) and z of shape (L,) give L independent
    products, returned as log_scale (L,) and M (L, 2, 2); a (n+1,) or
    scalar argument is shared by all lanes.

    Blocks: the k-range 1..n is cut into blocks of ceil(sqrt(n)) steps.
    Every (lane, block) product A_k ... A_first advances one step per
    vector operation and is renormalized to unit column-sum norm after
    every step; each lane then multiplies its block products in k order,
    renormalizing after every fold.  The working set is O(L sqrt(n)), and
    a lane's result does not depend on what the other lanes hold.
    """
    c = np.asarray(c, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    c = c.reshape(c.shape[0], -1)
    q = q.reshape(q.shape[0], -1)
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
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
    return total, np.stack([m_top.T, m_bottom.T], axis=1)
