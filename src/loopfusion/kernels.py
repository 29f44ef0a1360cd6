"""Batched numpy kernels: finite-Weyl reduction, extended Dynkin labels,
alcove lengths and reduction, S-sums.

Both reductions run in cyclic sweeps, branch-free over all rows, each
reflection acting by how far a row violates it, which is zero where it does
not.  The dominant kernel applies s_1..s_r in turn and counts the
reflections.  The alcove kernel works on the rows of
:func:`extended_batch`, the batch twin of ``rootdata.extended``, where the
closed alcove is the orthant y >= 0 and its walls the rows with a zero
label.  It applies the affine generators s_0..s_r one colour class of
pairwise orthogonal nodes at a time, one matrix step per class, and counts
nothing: :func:`alcove_length_batch` gives each row's length, and its
translate's, in closed form from one product over the positive roots.  A
violated reflection crosses exactly one wall separating the row from its
chamber or alcove, so each row takes the same number of reflections as in
any other order, and a sweep may apply several of them.

The reductions take integer rows of either dtype and keep it: int64, or an
object array of Python ints, which have no magnitude limit.  Callers get
their rows from :func:`int_rows`, which picks int64 only for entries inside
``INT64_SAFE_LIMIT``, so the kernels never silently lose precision.
"""

from __future__ import annotations

import numpy as np

# inputs beyond this magnitude run on Python-int object rows instead of int64
INT64_SAFE_LIMIT = 1 << 40


def fits_int64(*arrays) -> bool:
    """True when every entry is small enough for the int64 kernel paths."""
    # compare the extremes, not np.abs: abs of int64's minimum overflows
    return all(
        a.size == 0
        or (-INT64_SAFE_LIMIT < int(a.min()) and int(a.max()) < INT64_SAFE_LIMIT)
        for a in arrays
    )


def int_rows(rows: np.ndarray, *scalars) -> np.ndarray:
    """A fresh copy of the integer array ``rows`` (int, uint, or object
    holding Python ints) for the kernels: int64 when every entry and every
    one of ``scalars`` lies inside ``INT64_SAFE_LIMIT``, otherwise an object
    array of Python ints."""
    if fits_int64(rows) and all(abs(s) < INT64_SAFE_LIMIT for s in scalars):
        return np.array(rows, dtype=np.int64)
    return rows.astype(object)


def dominant_reduce_batch(simple: np.ndarray, xs: np.ndarray, max_sweeps: int):
    """Reduce each row of xs into the dominant chamber by simple reflections.

    Returns (reduced, signs, steps), steps counting the reflections each row
    applies and signs being (-1)^steps; a reduced row with a zero coordinate
    sits on a chamber wall, in which case its sign carries no meaning.  Each
    reflection lowers #{a > 0 : (x, a^vee) < 0} by exactly one, so a row
    takes at most |positive roots| of them; a row that would pass
    ``max_sweeps`` reflections raises.  The rows keep the dtype of xs.
    """
    ys = np.array(xs)
    simple = np.ascontiguousarray(simple, dtype=np.int64)
    steps = np.zeros(ys.shape[0], dtype=np.int64)
    cs = np.empty((len(simple), ys.shape[0]), dtype=ys.dtype)
    while ys.size and ys.min() < 0:
        _finite_sweep(simple, ys, cs)
        steps += (cs != 0).sum(axis=0)
        if steps.max() > max_sweeps:
            raise AssertionError("dominant reduction failed to terminate")
    return ys, 1 - 2 * (steps & 1), steps


def _finite_sweep(simple, ys, cs) -> None:
    """s_1..s_r in turn on every row, in place, s_i by c = min(y_i, 0); row
    i - 1 of cs receives that c, so its nonzero entries mark the reflections."""
    for i, alpha in enumerate(simple):
        c = np.minimum(ys[:, i], 0, out=cs[i])
        ys -= np.multiply.outer(c, alpha)


def extended_batch(comarks, kappa: int, xs):
    """The batch twin of :func:`rootdata.extended`: one row (kappa - level(x),
    *x) of extended Dynkin labels per row x of xs, in the dtype of xs, the
    level pairing x with ``comarks`` (``RootSystem.comarks``).  The closed
    alcove is the orthant of these rows, its walls their zeros."""
    return np.column_stack((kappa - xs @ comarks, xs))


def alcove_length_batch(pairs, roots, den: int, xs, shifts):
    """Closed-form alcove lengths of each row x of xs and of its translate
    x - kappa * (shifts . simple coroots), in one pass over the positive roots.

    ``pairs`` holds form_den * alpha under the form and ``roots`` the Dynkin
    labels <alpha, alpha_i^vee>, one row per positive root; ``den`` is
    form_den * kappa.  With x . pair = q*den + r, a root counts |q| walls
    strictly between x and the alcove, or q - 1 (q > 0) and -q (q <= 0) when
    x lies on one of its walls (r = 0).  The translate has the quotients
    q - shifts . roots and the same remainders.  Object rows give object
    lengths; np.divmod has no object loop, hence q*den == x . pair as the
    zero-remainder test.
    """
    p = xs @ pairs.T
    q = p // den
    on = p == q * den
    return tuple((np.abs(t) - (on & (t > 0))).sum(axis=1) for t in (q, q - shifts @ roots.T))


def alcove_reduce_batch(classes, comarks, kappa: int, lengths, xs):
    """Reduce each row of xs into the closed level-kappa alcove by cyclic sweeps.

    The sweeps run on the :func:`extended_batch` rows y = (kappa - level, x),
    where the closed alcove is the orthant y >= 0 and s_i acts as y -=
    min(y_i, 0) * a_i, a_i being row i of ``RootSystem.affine_roots``.
    ``classes`` holds (nodes, rows of a) per colour class: the reflections of
    one class commute and leave each other's coordinates alone, so a sweep is
    one matrix step per class.  ``lengths`` are the rows' closed-form
    lengths, which the kernel returns as its reflection counts; a sweep
    reflects every row not yet reduced at least once, so the longest length
    bounds the sweeps.  Returns (reduced, lengths, status), status being 1
    for reduced points with a zero label, on the closed-alcove boundary, and
    0 otherwise.  The affine Weyl group maps walls to walls, so a row is on a
    wall exactly when its reduced point is.  The rows keep the dtype of xs.
    """
    if len(xs) == 0:
        return np.array(xs), lengths, np.zeros(0, dtype=np.int64)
    ys = extended_batch(comarks, kappa, xs)
    for _ in range(int(lengths.max())):
        if ys.min() >= 0:
            break
        for nodes, roots in classes:
            ys -= np.minimum(ys[:, nodes], 0) @ roots
    if ys.min() < 0:
        raise AssertionError("alcove reduction failed to terminate")
    return ys[:, 1:], lengths, (ys == 0).any(axis=1).astype(np.int64)


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
