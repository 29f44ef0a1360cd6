"""Batched int64 numpy kernels: finite-Weyl reduction, alcove reduction, S-sums.

Callers guard magnitudes via :func:`fits_int64` and fall back to exact Python
arithmetic for oversized inputs, so the kernels never silently lose precision.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceError

# inputs beyond this magnitude go to the exact Python paths instead
INT64_SAFE_LIMIT = 1 << 40


def fits_int64(*arrays) -> bool:
    """True when every entry is small enough for the int64 kernel paths."""
    # compare the extremes, not np.abs: abs of int64's minimum overflows
    return all(
        a.size == 0
        or (-INT64_SAFE_LIMIT < int(a.min()) and int(a.max()) < INT64_SAFE_LIMIT)
        for a in arrays
    )


def dominant_reduce_batch(simple: np.ndarray, xs: np.ndarray):
    """Reduce each row of xs into the dominant chamber by simple reflections.

    Returns (reduced, signs, steps); a reduced row with a zero coordinate sits
    on a chamber wall, in which case its sign carries no meaning.
    """
    ys = np.array(xs, dtype=np.int64)
    simple = np.ascontiguousarray(simple, dtype=np.int64)
    n = ys.shape[0]
    signs = np.ones(n, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)
    if ys.size == 0:
        return ys, signs, steps
    r = ys.shape[1]
    sweeps = 0
    while True:
        neg = ys < 0
        active = neg.any(axis=1)
        if not active.any():
            return ys, signs, steps
        first = np.argmax(neg, axis=1)
        for i in range(r):
            rows = active & (first == i)
            if rows.any():
                ys[rows] -= np.outer(ys[rows, i], simple[i])
                signs[rows] = -signs[rows]
                steps[rows] += 1
        sweeps += 1
        if sweeps > 1_000_000:
            raise AssertionError("dominant reduction failed to terminate")


def alcove_reduce_batch(simple, theta, comarks, kappa: int, xs, max_steps: int):
    """Greedy affine reduction of each row into the closed level-kappa alcove.

    Per row, the lowest-index violated generator fires, the affine wall being
    index 0.  Returns (reduced, steps, status) with status 0 for interior
    points and 1 for points landing on the closed-alcove boundary (wall
    points); more than max_steps sweeps raise ResourceError.
    """
    ys = np.array(xs, dtype=np.int64)
    n = ys.shape[0]
    steps = np.zeros(n, dtype=np.int64)
    if ys.size == 0:
        return ys, steps, np.zeros(n, dtype=np.int64)
    simple = np.ascontiguousarray(simple, dtype=np.int64)
    theta = np.ascontiguousarray(theta, dtype=np.int64)
    comarks = np.ascontiguousarray(comarks, dtype=np.int64)
    r = ys.shape[1]
    sweeps = 0
    while True:
        level = ys @ comarks
        over = level > kappa
        neg = ys < 0
        negany = neg.any(axis=1)
        if not (over | negany).any():
            break
        if over.any():
            ys[over] -= np.outer(level[over] - kappa, theta)
            steps[over] += 1
        rest = negany & ~over
        if rest.any():
            first = np.argmax(neg, axis=1)
            for i in range(r):
                rows = rest & (first == i)
                if rows.any():
                    ys[rows] -= np.outer(ys[rows, i], simple[i])
                    steps[rows] += 1
        sweeps += 1
        if sweeps > max_steps:
            raise ResourceError("alcove reduction exceeded its step bound")
    status = ((ys == 0).any(axis=1) | (level == kappa)).astype(np.int64)
    return ys, steps, status


def signed_weyl_sum(mats, signs, form_int, rows, cols, denom: int):
    """U[a,b] = sum over Weyl elements w of sign(w)*exp(-2*pi*i*phase/denom)
    with phase = (w . rows[a])^T form_int cols[b], reduced mod denom exactly.
    """
    mats = np.asarray(mats, dtype=np.int64)
    form_int = np.asarray(form_int, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    images = np.einsum("wij,aj->wai", mats, rows)
    half = np.einsum("wai,ij->waj", images, form_int)
    phase = np.einsum("waj,bj->wab", half, cols) % denom
    terms = np.exp((-2j * np.pi / denom) * phase)
    return np.einsum("w,wab->ab", np.asarray(signs, dtype=np.complex128), terms)
