"""Batched numpy kernels: orthant sweeps, extended Dynkin labels, alcove
lengths and reduction, S-sums.

Both reductions sweep extended Dynkin labels (kappa - level(x), *x), the
rows of :func:`extended_batch`, the batch twin of ``rootdata.extended``,
into the orthant y >= 0, the closed alcove, whose walls are the rows with a
zero label, branch-free over all rows.  A sweep applies the generators one
colour class of pairwise orthogonal nodes at a time, one matrix step per
class, each reflection acting by how far a row violates it, which is zero
where it does not.
:func:`dominant_reduce_batch` counts each row's reflections, which is all
the Klimyk rows need besides the reduced point: at kappa = k + c they are
the Kac-Walton fusion rows, and at a level no row reaches, where s_0 never
fires, the tensor-product rows.  :func:`alcove_reduce_batch` counts
nothing: :func:`alcove_length_batch` gives each row's length, its
translate's and its wall flag in closed form from one product over the
positive roots, and the caller passes the lengths in.  It builds its
labels with :func:`extended_batch`, as the Klimyk rows get theirs, and
steps on whole rows with full-width class matrices.  A violated reflection
crosses exactly one wall separating the row from the alcove, so each row
takes the same number of reflections as in any other order, and a sweep
may apply several of them.

The reductions take integer rows of either dtype and keep it: int64, or an
object array of Python ints, which have no magnitude limit.  Callers get
their rows from :func:`int_rows`, which picks int64 only for entries inside
``INT64_SAFE_LIMIT``, or their labels from :func:`extended_rows`, which
does so for the labels themselves, so the kernels never silently lose
precision.
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


def dominant_reduce_batch(classes, xs: np.ndarray, max_steps: int):
    """Reflect each row of xs into the orthant y >= 0 by cyclic sweeps and
    count its reflections: the batch twin of ``rootdata.sweep_reduce``.

    ``classes`` holds (nodes, rows of a) per colour class of pairwise
    orthogonal nodes, s_i acting as y -= min(y_i, 0) * a_i.  The reflections
    of one class commute and leave each other's coordinates alone, so a
    sweep is one matrix step per class.  With ``RootSystem.np_colour_classes``
    on :func:`extended_batch` rows the orthant is the closed alcove.
    Returns (reduced, signs, steps), steps counting the reflections each
    row applies and signs being (-1)^steps; a reduced row with a zero label
    sits on a wall, in which case its sign carries no meaning.  A violated
    reflection crosses exactly one wall separating the row from the orthant,
    so a row takes one reflection per such wall, in any order; a row that
    would pass ``max_steps`` of them raises.  The rows keep the dtype of xs.
    """
    ys = np.array(xs)
    steps = np.zeros(len(ys), dtype=np.int64)
    while ys.size and ys.min() < 0:
        for nodes, roots in classes:
            c = np.minimum(ys[:, nodes], 0)
            ys -= c @ roots
            steps += np.count_nonzero(c, axis=1)
        if steps.max() > max_steps:
            raise AssertionError("reduction failed to terminate")
    return ys, 1 - 2 * (steps & 1), steps


def extended_batch(comarks, kappa: int, xs):
    """The batch twin of :func:`rootdata.extended`: one row (kappa - level(x),
    *x) of extended Dynkin labels per row x of xs, in the dtype of xs, the
    level pairing x with ``comarks`` (``RootSystem.comarks``).  The closed
    alcove is the orthant of these rows, its walls their zeros."""
    return np.column_stack((kappa - xs @ comarks, xs))


def extended_rows(comarks, kappa: int, rows: np.ndarray) -> np.ndarray:
    """:func:`extended_batch` of int64 or object ``rows`` at level kappa:
    int64 when every label lies inside ``INT64_SAFE_LIMIT``, otherwise Python
    ints.  The range test is on the labels the sweeps receive, not on kappa,
    so a level past the limit stays on int64 while the node-0 labels
    kappa - level(x) stay inside it.  int64 rows must have levels far inside
    int64, as :func:`int_rows` rows plus weights of a representation do."""
    if rows.dtype != object and kappa < 1 << 62:  # kappa - level(x) is then exact in int64
        labels = extended_batch(comarks, kappa, rows)
        if fits_int64(labels):
            return labels
    return extended_batch(comarks, kappa, rows.astype(object))


def alcove_length_batch(pairs, roots, den: int, xs, shifts):
    """Closed-form alcove lengths of each row x of xs and of its translate
    x - kappa * (shifts . simple coroots), and whether x lies on a wall, all
    from one product over the positive roots.

    ``pairs`` holds form_den * alpha under the form and ``roots`` the Dynkin
    labels <alpha, alpha_i^vee>, one row per positive root; ``den`` is
    form_den * kappa.  The walls of a root strictly between x and the
    alcove are the multiples of den in [den, p) when its pairing
    p = x . pair is positive, (p - 1) // den of them, and those in (p, 0]
    otherwise, -(p // den) of them: the count is the larger of the two
    quotients, the other never being positive.  x lies on a wall of the root
    when p // den and (p - 1) // den differ, den dividing p, and off the
    closed alcove exactly when its length is positive.  The translate has
    both quotients less shifts . roots.  Returns (lengths, translate
    lengths, wall flags); object rows give object lengths.
    """
    p = xs @ pairs.T
    below, above = p // den, (p - 1) // den
    moves = shifts @ roots.T
    length = np.maximum(above, -below).sum(axis=1)
    moved = np.maximum(above - moves, moves - below).sum(axis=1)
    return length, moved, (below != above).any(axis=1)


def alcove_reduce_batch(classes, comarks, kappa: int, lengths, xs):
    """Reduce each row of xs into the closed level-kappa alcove by cyclic sweeps.

    The sweeps run on the :func:`extended_batch` rows y = (kappa - level, x)
    of ``comarks``.  The closed alcove is the orthant y >= 0 and s_i acts as
    y -= min(y_i, 0) * a_i, a_i being row i of ``RootSystem.affine_roots``.
    ``classes`` holds one full-width matrix per colour class, its rows a_i at
    the class's nodes and zero rows elsewhere (``RootSystem.np_alcove_classes``),
    so that a step is a minimum, a product and a subtraction on whole rows.
    The reflections of one class commute and leave each other's coordinates
    alone, so a sweep is one matrix step per class.  ``lengths`` are the
    rows' closed-form lengths, which the kernel returns as its reflection
    counts; a sweep reflects every row not yet reduced at least once, so the
    longest length bounds the sweeps, and at most once per node, so no row
    is reduced before sweeps * (rank + 1) reach its length and the alcove
    test waits until then.  Returns (reduced, lengths); the rows keep the
    dtype of xs.
    """
    if len(xs) == 0:
        return np.array(xs), lengths
    ys = extended_batch(comarks, kappa, xs)
    longest, width = int(lengths.max()), ys.shape[1]
    for sweep in range(1, longest + 1):
        for rows in classes:
            ys -= np.minimum(ys, 0) @ rows
        if sweep * width >= longest and ys.min() >= 0:
            break
    else:
        if ys.min() < 0:
            raise AssertionError("alcove reduction failed to terminate")
    return ys[:, 1:], lengths


def signed_weyl_sum(mats, signs, form_int, rows, cols, denom: int):
    """U[a,b] = sum over Weyl elements w of sign(w)*exp(-2*pi*i*phase/denom)
    with phase = (w . rows[a])^T form_int cols[b], reduced mod denom exactly.

    The phase is bilinear in the integer rows and cols, so both are reduced
    mod denom first, which is exact however large they are.  The products
    then run in int64 when their largest intermediate, at most
    r^3 max|mats| max|form_int| (denom - 1)^2, provably fits, and on
    Python-int object arrays otherwise.  The phases are reduced in place and
    turned into one float64 angle array, which the cosine sum and then, in
    place, the sine sum read: at its peak the sum holds 16 bytes per
    (w, a, b) term.
    """
    mats = np.asarray(mats, dtype=np.int64)
    form_int = np.asarray(form_int, dtype=np.int64)
    r = len(form_int)
    largest = r**3 * int(np.abs(mats).max()) * int(np.abs(form_int).max()) * (denom - 1) ** 2
    dtype = np.int64 if largest < 1 << 63 else object
    rows, cols = (np.array(np.array(x, dtype=object) % denom, dtype=dtype) for x in (rows, cols))
    images = np.einsum("wij,aj->wai", mats.astype(dtype), rows)
    half = np.einsum("wai,ij->waj", images, form_int.astype(dtype))
    del images
    phase = np.einsum("waj,bj->wab", half, cols)
    del half
    np.remainder(phase, denom, out=phase)
    angle = phase.astype(np.float64)
    del phase
    angle *= 2 * np.pi / denom
    signs = np.asarray(signs, dtype=np.float64)
    re = np.einsum("w,wab->ab", signs, np.cos(angle))
    return re - 1j * np.einsum("w,wab->ab", signs, np.sin(angle, out=angle))
