"""The two hot loops: Sturm counts and the renormalized transfer product.

Both are sequential in the matrix index k and run as numpy vector
operations over independent "lanes".  The Sturm recurrence is vectorized
over (realization x shift) lanes, and runs only the lanes whose count is
open: a Collatz-Wielandt enclosure of each matrix's spectrum, widened by
a margin far above the backward error of the recurrence, decides the
shifts outside it (count 0 or n, which the recurrence returns there, bit
for bit).  When the open lanes are few and n is long the recurrence is
also vectorized over blocks of the k-range, which start from a guessed
pivot and are made exact where their pivots coalesce with the true ones,
bit for bit; the fix-up pass drops the lanes whose blocks have all
coalesced at each of its checkpoints, and keeps the rest C-contiguous
(a strided lane axis costs up to twice as much per step).  A block is
at least _STURM_MIN_BLOCK steps long.  Every operation of a Sturm step
writes into a full-width (block x realization x shift) work array:
numpy's broadcasting loops cost several times a same-shape loop at these
widths, so the step copies each block's diagonal out to full width and
subtracts shifts tiled once per call of its loop.  The transfer product
is vectorized over lanes (one product each) and, within every lane, over
blocks of at most 16 steps of the k-range: all (lane, block) products
advance together, one k-step per vector step, and then fold pairwise,
one tree level per vector step, so a product of n steps costs about
16 + log2(n / 16) vector steps.  Long products and many lanes run in
passes of a bounded number of (lane, block) products.
"""

from __future__ import annotations

import math

import numpy as np


# Lanes the pivot recurrence advances together at about its lowest cost
# per lane-step; a call with fewer lanes is widened by cutting the k-range
# into blocks that run side by side.
_STURM_WIDTH = 1 << 14
# Shortest block worth a cut: long against the few hundred steps a block
# needs to coalesce with its true trajectory on a random chain.  At 1024
# the default IDS (n = 4000) runs in blocks, not in one sequential pass.
_STURM_MIN_BLOCK = 1024
# First step at which the fix-up pass compares its pivots with pass 1's;
# later checkpoints double it.
_STURM_FIRST_CHECKPOINT = 32
# Power sweeps behind the Collatz-Wielandt enclosure of the spectrum: on a
# random chain a few bring it within a few percent of the spectrum's
# width, at O(n) each.
_STURM_ENCLOSURE_SWEEPS = 8
# A shift clears the enclosure by this much of max|diag| + 2 max|off|:
# some 10^6 times the backward error of the pivot recurrence.
_STURM_MARGIN = 1e-9
# Longest transfer block: a call costs one vector step per step of a
# block plus one per level of the pairwise fold, about log2(n / 16).
_TRANSFER_BLOCK = 16
# Most (lane, block) products the transfer kernel holds at once: more
# lanes run in chunks, and more blocks in passes over aligned runs.
_TRANSFER_WIDTH = 1 << 14


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
    bit.  A shift below or above the enclosure (lo, hi) of its matrix
    (see _enclosure) is outside the spectrum by more than the backward
    error of the recurrence, so its count is 0 or n without a pass.  The
    lane columns open in some row run the recurrence: the k-range is cut
    into min(_STURM_WIDTH // open lanes, n // _STURM_MIN_BLOCK) blocks
    that run side by side (see _blocked_counts) when that is at least 2,
    and otherwise one pass runs k = 0..n-1.
    """
    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    lams = np.asarray(lams, dtype=np.float64)
    n = diag.shape[0]
    diag = diag.reshape(n, -1)
    rows = diag.shape[1]
    off = off.reshape(n - 1, rows)
    # off2[k] = off[k-1]^2 is divided by the incoming pivot of step k; the
    # zero in row 0 meets the incoming pivot +inf of a chain's first step
    off2 = np.zeros((n, rows, 1))
    np.square(off[:, :, None], out=off2[1:])
    lams = lams.reshape(rows, -1)
    pivmin = np.finfo(np.float64).tiny * np.max(off2, axis=0, initial=1.0)
    lo, hi = _enclosure(diag, off, pivmin)
    counts = np.where(lams > hi, n, 0).astype(np.int64)
    cols = np.flatnonzero(~((lams < lo) | (lams > hi)).all(axis=0))
    if cols.size:
        diag = diag[:, :, None]
        open_lams = lams[:, cols]
        nblocks = min(_STURM_WIDTH // open_lams.size, n // _STURM_MIN_BLOCK)
        if nblocks < 2:
            counts[:, cols] = _sequential_counts(diag, off2, open_lams, pivmin)
        else:
            counts[:, cols] = _blocked_counts(diag, off2, open_lams, pivmin, nblocks)
    return counts.reshape(-1)


def _enclosure(diag, off, pivmin) -> tuple:
    """(lo, hi), each (R, 1): every eigenvalue of matrix column r lies
    in [lo[r] + margin, hi[r] - margin], margin = _STURM_MARGIN *
    (max|diag| + 2 max|off|) of that column.

    The spectrum of T is that of D + |E| (a diagonal sign flip), and
    that of -T is that of -D + |E|.  For M = +-D + |E| and any w > 0, the
    Collatz-Wielandt bound max_k (M w)_k / w_k is at least the largest
    eigenvalue; w is M + sI applied _STURM_ENCLOSURE_SWEEPS times to
    ones, with s lifting the diagonal to at least 1 and each sweep
    normalized by its maximum.  The margin is far above both the rounding
    of the bound and the backward error of the pivot recurrence (a few
    ulps of max|diag - lam| + 2 max|off|; Demmel, Dhillon & Ren 1995), so
    every pivot of a shift below lo is positive and every pivot of a
    shift above hi negative: their counts are 0 and n.  A column decides
    nothing, (-inf, inf), when some w is below the smallest normal number
    (the ratio would lose its precision), the bound is not finite, or the
    pivot floor pivmin is not below half the margin.
    """
    n, rows = diag.shape
    e = np.abs(off.T)
    # four (R, n) work arrays that both signs reuse, not one block: a
    # larger block, once freed, would raise glibc's mmap threshold for the
    # rest of the process and so change the cost of every later allocation
    w, out, lifted, tmp = (np.empty((rows, n)) for _ in range(4))
    bound = np.empty((2, rows))
    normal = np.ones(rows, dtype=bool)
    with np.errstate(all="ignore"):  # overflow and underflow decide nothing, below
        margin = _STURM_MARGIN * (np.max(np.abs(diag), axis=0) + 2.0 * np.max(e, axis=-1, initial=0.0))
        for side, signed in enumerate((-diag.T, diag.T)):  # -T, then T
            np.add(signed, 1.0 - signed.min(axis=-1, keepdims=True), out=lifted)
            w.fill(1.0)
            for _ in range(_STURM_ENCLOSURE_SWEEPS):
                _neighbor_sum(e, w, out, tmp)
                np.multiply(lifted, w, out=tmp)
                out += tmp
                out *= 1.0 / out.max(axis=-1, keepdims=True)
                w, out = out, w
            ratio = _neighbor_sum(e, w, out, tmp)
            ratio /= w
            ratio += signed
            bound[side] = ratio.max(axis=-1)
            normal &= (w >= np.finfo(np.float64).tiny).all(axis=-1)
    decides = normal & np.isfinite(bound).all(axis=0) & (2.0 * pivmin[:, 0] < margin)
    lo = np.where(decides, -bound[0] - margin, -np.inf)
    hi = np.where(decides, bound[1] + margin, np.inf)
    return lo[:, None], hi[:, None]


def _neighbor_sum(e, w, out, tmp) -> np.ndarray:
    """out = |E| w along the last axis, e[k-1] w[k-1] + e[k] w[k+1] with
    zeros beyond the ends; tmp is a work array of w's shape."""
    out[:, 0] = 0.0
    np.multiply(e, w[:, :-1], out=out[:, 1:])
    np.multiply(e, w[:, 1:], out=tmp[:, :-1])
    out[:, :-1] += tmp[:, :-1]
    return out


def _advance(diag, off2, lams, pivmin, d, count, start, stop):
    """Run steps start..stop-1 of every block, in place.

    The blocks are d.shape[0] equal runs of rows of diag and off2, side by
    side; d (blocks, R, L) holds each block's incoming pivots and count
    its running negative-pivot counts.  Step k is
    d <- (diag[k] - lam) - off2[k] / d, with a pivot below the floor pivmin
    in magnitude replaced by -pivmin, and count adds d < 0.
    """
    size = diag.shape[0] // d.shape[0]
    # full-width work arrays: a same-shape subtract after a broadcasting
    # copy beats the broadcast (blocks, R, 1) - (R, L) several times over
    shifts = np.broadcast_to(lams, d.shape).copy()
    buf = np.empty_like(d)
    neg = np.empty(d.shape, dtype=bool)
    # negatives accumulate in bytes, flushed before they can wrap
    pending = np.zeros(d.shape, dtype=np.uint8)
    floor = float(np.max(pivmin))
    for j in range(start, stop):
        np.copyto(buf, diag[j::size])
        np.subtract(buf, shifts, out=buf)
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
    the true pivot and the lane's count is exact.  After each checkpoint
    the fix-up keeps only the lane columns with a block still to settle,
    compressed into C-contiguous arrays.
    Lanes with a block that has not coalesced by half a block (in the band
    of a chain whose transfer maps do not contract, such as the free chain,
    they never do) run the sequential pass instead.
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
    # fix-up: block b >= 1 (row b - 1) restarts from block b-1's end pivot,
    # over the lane columns cols that still have a block to settle
    cols = np.arange(lams.shape[1])
    fix_d = d[:-1].copy()
    fix_count = np.zeros(fix_d.shape, dtype=np.int64)
    settled = np.zeros(fix_d.shape, dtype=bool)
    start = 0
    for i, mark in enumerate(marks):
        _advance(body_diag[size:], body_off2[size:], lams[:, cols], pivmin, fix_d, fix_count, start, mark + 1)
        start = mark + 1
        # take and compress keep the lanes C-contiguous: a[..., keep]
        # returns a strided lane axis, which the next stretch runs up to
        # twice as slowly
        new = fix_d == np.take(saved_d[i], cols, axis=-1)
        new &= ~settled
        count[1:, :, cols] += np.where(new, fix_count - np.take(saved_count[i], cols, axis=-1), 0)
        settled |= new
        keep = ~settled.all(axis=(0, 1))
        if not keep.all():
            cols, fix_d, fix_count, settled = (np.compress(keep, a, axis=-1) for a in (cols, fix_d, fix_count, settled))
        if not cols.size:
            break
    counts = count.sum(axis=0)
    exact = settled.all(axis=0)
    if not exact.all():
        rows = np.flatnonzero(~exact.all(axis=1))
        cols = cols[~exact[rows].all(axis=0)]
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

    Blocks: the k-range 1..n is cut into blocks of min(16, ceil(sqrt(n)))
    steps.  Every (lane, block) product A_k ... A_first advances one step
    per vector step and is renormalized to unit column-sum norm after
    every step.  The block products are then folded pairwise, one tree
    level per vector step: at each level every later block is
    multiplied into the earlier one and the product renormalized, and an
    odd last block moves up unchanged.

    Passes: at most _TRANSFER_WIDTH (lane, block) products are held at
    once.  Lanes run in chunks, and the blocks of a chunk in aligned runs
    of a power of two blocks, each run one subtree of the fold.  The
    blocking and the fold depend on n only, so a lane's result does not
    depend on the other lanes of the call.
    """
    c = np.asarray(c, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    c = c.reshape(c.shape[0], -1)
    q = q.reshape(q.shape[0], -1)
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    (lanes,) = np.broadcast_shapes(c.shape[1:], q.shape[1:], z.shape)
    n = c.shape[0] - 1
    size = min(_TRANSFER_BLOCK, math.isqrt(max(n, 1) - 1) + 1)  # ceil(sqrt(n)) for short products
    nblocks = max(1, -(-n // size))
    chunk = min(lanes, _TRANSFER_WIDTH)
    run = 1 << ((_TRANSFER_WIDTH // chunk).bit_length() - 1)  # blocks per pass
    log_scale = np.empty(lanes)
    mats = np.empty((lanes, 2, 2), dtype=np.complex128)
    for lo in range(0, lanes, chunk):
        part = slice(lo, lo + chunk)
        coeffs = tuple(a[..., part] if a.shape[-1] > 1 else a for a in (c, q, z))
        log_scale[part], top, bottom = _subtree(coeffs, size, 0, nblocks, run)
        mats[part] = np.stack([top.T, bottom.T], axis=1)
    return log_scale, mats


def _subtree(coeffs, size, first, stop, run) -> tuple:
    """(log_scale, top, bottom) of the blocks first..stop-1, one subtree
    of the pairwise fold of all blocks: the largest power of two below
    their count folded, the rest folded, and the two multiplied.  Runs of
    at most `run` blocks are advanced and folded in one pass."""
    if stop - first <= run:
        return _fold(*_block_products(coeffs, size, first, stop))
    half = 1 << ((stop - first - 1).bit_length() - 1)
    early = _subtree(coeffs, size, first, first + half, run)
    return _times(_subtree(coeffs, size, first + half, stop, run), early)


def _block_products(coeffs, size, first, stop) -> tuple:
    """(log_scale, top, bottom) of blocks first..stop-1, one product per
    (block, lane), with the block axis before the lane axis."""
    c, q, z = coeffs
    n = c.shape[0] - 1
    lanes = np.broadcast_shapes(c.shape[1:], q.shape[1:], z.shape)
    lo, hi = size * first, min(size * stop, n)  # the steps lo+1..hi
    # Block products by rows: top = (m00, m01), bottom = (m10, m11).
    top = np.zeros((2, stop - first) + lanes, dtype=np.complex128)
    bottom = np.zeros_like(top)
    top[0] = 1.0
    bottom[1] = 1.0
    log_scale = np.zeros((stop - first,) + lanes)
    for j in range(size):
        # step j of every block: k = lo + 1 + j + size * block; a short
        # last block drops out of the slices once it is complete
        inv = 1.0 / c[lo + j + 1 : hi + 1 : size]
        live = inv.shape[0]
        a = (q[lo + j + 1 : hi + 1 : size] - z) * inv
        b = -c[lo + j : hi : size] * inv
        t = top[:, :live]
        u = bottom[:, :live]
        new = a * t + b * u
        colsum = np.abs(new)
        colsum += np.abs(t)
        norm = np.maximum(colsum[0], colsum[1])
        scale = 1.0 / norm
        np.multiply(t, scale, out=u)
        np.multiply(new, scale, out=t)
        log_scale[:live] += np.log(norm)
    return log_scale, top, bottom


def _fold(log_scale, top, bottom) -> tuple:
    """Pairwise fold of the block products, in place: at each level
    P_i <- P_{2i+1} P_{2i}, and an odd last product moves up unchanged."""
    count = log_scale.shape[0]
    while count > 1:
        half, odd = divmod(count, 2)
        early, late = slice(0, 2 * half, 2), slice(1, 2 * half, 2)
        log_scale[:half], top[:, :half], bottom[:, :half] = _times(
            (log_scale[late], top[:, late], bottom[:, late]),
            (log_scale[early], top[:, early], bottom[:, early]),
        )
        if odd:
            last = count - 1
            log_scale[half], top[:, half], bottom[:, half] = log_scale[last], top[:, last], bottom[:, last]
        count = half + odd
    return log_scale[0], top[:, 0], bottom[:, 0]


def _times(later, earlier) -> tuple:
    """The product later @ earlier of two (log_scale, top, bottom)
    products, renormalized to unit column-sum norm."""
    log_later, (p00, p01), (p10, p11) = later
    log_earlier, m_top, m_bottom = earlier
    new_top = p00 * m_top + p01 * m_bottom
    new_bottom = p10 * m_top + p11 * m_bottom
    colsum = np.abs(new_top)
    colsum += np.abs(new_bottom)
    norm = np.maximum(colsum[0], colsum[1])
    return log_earlier + (log_later + np.log(norm)), new_top / norm, new_bottom / norm
