"""The numpy kernels against the exact scalar paths.

The kernels run on int64 rows or on object rows of Python ints, whichever
:func:`kernels.int_rows` picks by magnitude; both dtypes must give the same
answers as the scalar reductions, which serve as the reference here.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopfusion import kernels
from loopfusion.affine_weyl import (
    WALL,
    AffineContext,
    alcove_reduce,
    alcove_reduce_batch,
)
from loopfusion.rootdata import build_root_system, dominant_reduce, extended, sweep_reduce

import oracles


def test_fits_int64_boundary():
    small = np.array([1, -5], dtype=np.int64)
    assert kernels.fits_int64(small)
    big = np.array([kernels.INT64_SAFE_LIMIT], dtype=np.int64)
    assert not kernels.fits_int64(big)
    assert not kernels.fits_int64(-big)
    assert kernels.fits_int64(np.empty((0, 2), dtype=np.int64))
    assert kernels.fits_int64(small, np.array([kernels.INT64_SAFE_LIMIT - 1]))
    assert kernels.fits_int64(np.array([1 - kernels.INT64_SAFE_LIMIT]))
    # np.abs of int64's minimum wraps to a negative number
    assert not kernels.fits_int64(np.array([[-(2**63)]], dtype=np.int64))


ALL_TYPES = ["A1", "A2", "A3", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]


def random_rows(rng, rank, n, lo=-40, hi=40):
    return np.array(
        [[rng.randint(lo, hi) for _ in range(rank)] for _ in range(n)], dtype=np.int64
    )


def finite_classes(rs):
    """The affine colour classes without node 0, on Dynkin labels: per class
    its simple-root indexes and their ``simple_roots`` rows, under which the
    dominant kernel sweeps into the dominant chamber."""
    return tuple((n[n > 0] - 1, a[n > 0, 1:]) for n, a in rs.np_colour_classes if n.any())


def closed_form_lengths(rs, kappa, xs):
    """The closed-form lengths of the rows of xs and of their kappa*Q^vee translates."""
    den = rs.form_den * kappa
    shifts = (xs @ rs.np_form_int) // den
    lengths, moved, _ = kernels.alcove_length_batch(rs.np_root_pairs, rs.np_positive_roots, den, xs, shifts)
    return lengths, moved


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "C3"])
def test_dominant_reduce_backends_agree(label):
    rs = build_root_system(label)
    rng = random.Random(4)
    xs = random_rows(rng, rs.rank, 200)
    via_int64 = kernels.dominant_reduce_batch(
        finite_classes(rs), xs.copy(), len(rs.positive_roots)
    )
    via_object = kernels.dominant_reduce_batch(
        finite_classes(rs), xs.astype(object), len(rs.positive_roots)
    )
    assert via_object[0].dtype == object
    assert all(type(v) is int for v in via_object[0].ravel())
    for a in range(3):
        assert via_int64[a].tolist() == via_object[a].tolist()
    reduced, signs, steps = via_int64
    assert (reduced >= 0).all()
    assert set(np.unique(signs)) <= {-1, 1}
    for x, red, sign in zip(xs, reduced, signs):
        point, exact_sign = dominant_reduce(rs, tuple(int(v) for v in x))
        assert tuple(int(v) for v in red) == point
        if all(point):  # off the walls, where the sign means something
            assert int(sign) == exact_sign


@pytest.mark.parametrize("label,h", [("A1", 2), ("A2", 1), ("B2", 2), ("G2", 0)])
def test_alcove_reduce_backends_agree(label, h):
    rs = build_root_system(label)
    ctx = AffineContext(rs, h)
    kappa = ctx.kappa
    rng = random.Random(9)
    xs = random_rows(rng, rs.rank, 300, lo=-3 * kappa, hi=3 * kappa)
    lengths, moved = closed_form_lengths(rs, kappa, xs)
    lengths_obj, moved_obj = closed_form_lengths(rs, kappa, xs.astype(object))
    assert lengths.tolist() == lengths_obj.tolist()
    assert moved.tolist() == moved_obj.tolist()
    args = (rs.np_alcove_classes, rs.comarks, kappa)
    via_int64 = kernels.alcove_reduce_batch(*args, lengths, xs.copy())
    via_object = kernels.alcove_reduce_batch(*args, lengths_obj, xs.astype(object))
    assert via_object[0].dtype == object
    for a in range(2):
        assert via_int64[a].tolist() == via_object[a].tolist()
    reduced, steps = via_int64
    assert steps.tolist() == lengths.tolist()
    # the wall verdicts are the layer's closed-form flags
    walls = alcove_reduce_batch(ctx, xs.copy())[2]
    assert 0 < walls.sum() < len(xs)  # both verdicts occur
    for x, red, ell, ell_moved, wall in zip(xs, reduced, lengths, moved, walls):
        x = tuple(int(v) for v in x)
        exact = alcove_reduce(ctx, x)
        assert tuple(int(v) for v in red) == exact.reduced
        assert int(ell) == exact.length
        assert int(ell_moved) == oracles.two_pass_lengths(ctx, x)[2]
        assert int(wall) == (exact.status == WALL)


def test_signed_sum_backends_agree():
    rs = build_root_system("B2")
    mats, signs = rs.weyl_matrices()
    rng = random.Random(2)
    rows = random_rows(rng, 2, 6, lo=1, hi=9)
    cols = random_rows(rng, 2, 6, lo=1, hi=9)
    denom = rs.form_den * 7
    a = kernels.signed_weyl_sum(mats, signs, rs.np_form_int, rows, cols, denom)
    # a pure-python exact reference on a few entries
    import cmath

    for i in (0, 3):
        for j in (1, 4):
            total = 0j
            for mat, sgn in zip(mats, signs):
                y = mat @ rows[i]
                phase = int(y @ rs.np_form_int @ cols[j]) % denom
                total += int(sgn) * cmath.exp(-2j * cmath.pi * phase / denom)
            assert abs(a[i, j] - total) < 1e-10


def test_object_dtype_batch_takes_the_exact_path_and_agrees():
    from loopfusion.affine_weyl import AffineContext, alcove_reduce_batch

    rs = build_root_system("B2")
    ctx = AffineContext(rs, 2)
    rng = random.Random(11)
    xs = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(40)]
    via_kernel = alcove_reduce_batch(ctx, np.array(xs, dtype=np.int64))
    via_exact = alcove_reduce_batch(ctx, np.array(xs, dtype=object))
    for a, b in zip(via_kernel, via_exact):
        assert np.array_equal(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))


def test_huge_affine_coordinates_reduce_exactly():
    import time

    from loopfusion.affine_weyl import AffineContext, alcove_reduce, alcove_reduce_batch

    ctx = AffineContext(build_root_system("A1"), 2)
    big = 1 << 45
    # 2^45 = 2^43 * kappa: on a wall, with 2^43 - 1 walls strictly in between
    r = alcove_reduce(ctx, (big,))
    assert (r.status, r.reduced, r.length) == (WALL, (0,), (1 << 43) - 1)
    reduced, lengths, status = alcove_reduce_batch(ctx, np.array([(big,), (3,)], dtype=object))
    assert [tuple(p) for p in reduced] == [(0,), (3,)]
    assert list(lengths) == [(1 << 43) - 1, 0]
    assert list(status) == [1, 0]
    # the int64 path agrees with the exact one
    r = alcove_reduce(ctx, (1 << 30,))
    reduced, lengths, status = alcove_reduce_batch(ctx, np.array([(1 << 30,)], dtype=np.int64))
    assert (tuple(int(v) for v in reduced[0]), int(lengths[0])) == (r.reduced, r.length)
    assert bool(status[0]) == (r.status == WALL)
    # E8 far from its alcove answers without walking there
    ctx = AffineContext(build_root_system("E8"), 1)
    x = (10**7, -(10**7) + 3, 9_999_991, 17, -(10**7), 10**7 + 1, -5, 9_876_543)
    start = time.perf_counter()
    r = alcove_reduce(ctx, x)
    assert time.perf_counter() - start < 0.5
    assert r.length > 10**7
    assert all(v >= 0 for v in r.reduced)
    assert sum(c * v for c, v in zip(ctx.rs.comarks, r.reduced)) <= ctx.kappa


def test_exact_batch_path_returns_lengths_past_int64():
    from loopfusion.affine_weyl import AffineContext, alcove_reduce, alcove_reduce_batch

    ctx = AffineContext(build_root_system("A2"), 1)
    row = (1 << 70, 1)
    reduced, lengths, status = alcove_reduce_batch(ctx, np.array([row], dtype=object))
    r = alcove_reduce(ctx, row)
    assert lengths.dtype == object and lengths[0] == r.length > 2**63
    assert tuple(reduced[0]) == r.reduced
    assert bool(status[0]) == (r.status == WALL)
    # a plain list past 2^63 beside a negative entry, which numpy alone would
    # turn into floats
    row = (1 << 63, -1)
    reduced, lengths, status = alcove_reduce_batch(ctx, [list(row), [3, 4]])
    r = alcove_reduce(ctx, row)
    assert (tuple(reduced[0]), lengths[0], bool(status[0])) == (r.reduced, r.length, r.status == WALL)


def test_batch_refuses_non_integer_or_misshapen_input():
    from fractions import Fraction

    from loopfusion.affine_weyl import AffineContext, alcove_reduce_batch
    from loopfusion.errors import ValidationError

    ctx = AffineContext(build_root_system("A2"), 1)
    for bad in (
        np.array([[2.5, 1.0]]),
        np.array([[2.0, 1.0]]),
        np.array([[Fraction(5, 2), 1]], dtype=object),
        np.array([[1, 2, 3]]),
    ):
        with pytest.raises(ValidationError):
            alcove_reduce_batch(ctx, bad)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_dominant_batch_needs_exactly_the_positive_root_count_of_sweeps(label):
    # -rho goes to rho through w0, one reflection per positive root
    rs = build_root_system(label)
    bound = len(rs.positive_roots)
    xs = np.array([[-1] * rs.rank, [2] * rs.rank], dtype=np.int64)
    reduced, signs, steps = kernels.dominant_reduce_batch(finite_classes(rs), xs, bound)
    assert reduced.tolist() == [[1] * rs.rank, [2] * rs.rank]
    assert steps.tolist() == [bound, 0]
    assert signs.tolist() == [(-1) ** bound, 1]
    with pytest.raises(AssertionError, match="terminate"):
        kernels.dominant_reduce_batch(finite_classes(rs), xs, bound - 1)


def test_empty_batches():
    rs = build_root_system("A2")
    xs = np.empty((0, 2), dtype=np.int64)
    reduced, signs, steps = kernels.dominant_reduce_batch(
        finite_classes(rs), xs, len(rs.positive_roots)
    )
    assert reduced.shape == (0, 2)
    reduced, steps = kernels.alcove_reduce_batch(
        rs.np_alcove_classes, rs.comarks, 3, np.empty(0, dtype=np.int64), xs
    )
    assert reduced.shape == (0, 2)


@settings(max_examples=80, deadline=None)
@given(
    label=st.sampled_from(["A1", "A2", "B2"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_dominant_reduce_is_orbit_preserving(label, seed):
    from loopfusion.rootdata import weyl_orbit

    rs = build_root_system(label)
    rng = random.Random(seed)
    xs = random_rows(rng, rs.rank, 4, lo=-8, hi=8)
    reduced, signs, steps = kernels.dominant_reduce_batch(
        finite_classes(rs), xs, len(rs.positive_roots)
    )
    for x, y in zip(xs, reduced):
        assert tuple(int(v) for v in y) in weyl_orbit(rs, tuple(int(v) for v in x))


@settings(max_examples=40, deadline=None)
@given(
    label=st.sampled_from(["F4", "E6", "E7", "E8"]),
    h=st.integers(min_value=0, max_value=3),
    scale=st.sampled_from([1, 10, 50]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_batch_paths_scalar_path_and_kernel_agree_far_from_the_alcove(label, h, scale, seed):
    ctx = AffineContext(build_root_system(label), h)
    rs, kappa = ctx.rs, ctx.kappa
    xs = random_rows(random.Random(seed), rs.rank, 4, lo=-scale * kappa, hi=scale * kappa)
    via_int64 = alcove_reduce_batch(ctx, xs.copy())
    via_object = alcove_reduce_batch(ctx, xs.astype(object))
    # the kernel on the raw rows, no translation first, within their closed-form lengths
    lengths, _ = closed_form_lengths(rs, kappa, xs)
    kernel = kernels.alcove_reduce_batch(rs.np_alcove_classes, rs.comarks, kappa, lengths, xs.copy())
    for a, x in enumerate(xs.tolist()):
        r = alcove_reduce(ctx, tuple(x))
        want = (list(r.reduced), r.length, r.status == WALL)
        assert (via_int64[0][a].tolist(), int(via_int64[1][a]), bool(via_int64[2][a])) == want
        assert ([int(v) for v in via_object[0][a]], via_object[1][a], bool(via_object[2][a])) == want
        assert (kernel[0][a].tolist(), int(kernel[1][a])) == want[:2]
        # one wall per reflection: the scalar sweeps count exactly the length
        y = list(extended(rs, kappa, x))
        assert sweep_reduce(rs.affine_supports, y, r.length) == r.length
        assert y == list(extended(rs, kappa, r.reduced))


@settings(max_examples=30, deadline=None)
@given(
    label=st.sampled_from(["F4", "E6"]),
    h=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_kernels_on_rows_straddling_the_int64_limit(label, h, seed):
    # every batch mixes coordinates just inside and just outside +-2^40, so the
    # rows run as Python ints, and must answer as the scalar reductions do
    ctx = AffineContext(build_root_system(label), h)
    rs = ctx.rs
    rng = random.Random(seed)
    limit = kernels.INT64_SAFE_LIMIT
    rows = [
        [rng.choice((-1, 1)) * (limit + rng.randint(-3, 2)) if rng.random() < 0.5
         else rng.randint(-9, 9) for _ in range(rs.rank)]
        for _ in range(4)
    ]
    rows[0][0] = limit  # at least one entry past the limit
    xs = kernels.int_rows(np.array(rows, dtype=object))
    assert xs.dtype == object
    reduced, signs, _ = kernels.dominant_reduce_batch(
        finite_classes(rs), xs, len(rs.positive_roots)
    )
    batch = alcove_reduce_batch(ctx, xs)
    for a, x in enumerate(rows):
        point, sign = dominant_reduce(rs, tuple(x))
        assert reduced[a].tolist() == list(point)
        if all(point):
            assert signs[a] == sign
        r = alcove_reduce(ctx, tuple(x))
        assert (batch[0][a].tolist(), batch[1][a], bool(batch[2][a])) == (
            list(r.reduced), r.length, r.status == WALL
        )


def test_alcove_reductions_raise_one_reflection_short_of_the_length():
    ctx = AffineContext(build_root_system("E8"), 1)
    rs, kappa = ctx.rs, ctx.kappa
    xs = random_rows(random.Random(8), rs.rank, 2, lo=-10 * kappa, hi=10 * kappa)
    xs[1] = 1  # rho, already in the alcove, beside the far row
    lengths, _ = closed_form_lengths(rs, kappa, xs)
    length = int(lengths[0])
    assert length > 100
    args = (rs.np_alcove_classes, rs.comarks, kappa, lengths)
    reduced, steps = kernels.alcove_reduce_batch(*args, xs.copy())
    assert steps.tolist() == [length, 0]
    # a sweep reflects a row at most rank + 1 times, so a count of 1 cannot reach the alcove
    with pytest.raises(AssertionError, match="terminate"):
        kernels.alcove_reduce_batch(*args[:3], np.array([1, 0]), xs.copy())
    # the scalar loop counts the same reflections under the same bound
    y = list(extended(rs, kappa, xs[0].tolist()))
    assert sweep_reduce(rs.affine_supports, y, length) == length
    assert y == list(extended(rs, kappa, reduced[0].tolist()))
    with pytest.raises(AssertionError, match="terminate"):
        sweep_reduce(rs.affine_supports, list(extended(rs, kappa, xs[0].tolist())), length - 1)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"])
def test_the_kernel_sweeps_only_rows_off_the_alcove_from_their_shorter_start(label, monkeypatch):
    # the rows and reflection counts each kernel call receives: exactly the
    # rows with a negative extended label, each from x or its translate,
    # whichever has the shorter closed-form length, counting that length
    calls = []
    kernel = kernels.alcove_reduce_batch

    def spy(*args):
        calls.append((args[3], args[4]))
        return kernel(*args)

    monkeypatch.setattr(kernels, "alcove_reduce_batch", spy)
    rs = build_root_system(label)
    rng = random.Random(f"{label} rows")
    for h in (0, 2):
        ctx = AffineContext(rs, h)
        kappa = ctx.kappa

        def far(scale):
            while min(extended(rs, kappa, x := [rng.randint(-scale, scale) for _ in range(rs.rank)])) >= 0:
                pass
            return x

        near = [list(alcove_reduce(ctx, far(3 * kappa)).reduced) for _ in range(5)]
        out_small = [far(rng.choice((1, 10, 50)) * kappa) for _ in range(6)]
        out_huge = [far(rng.randint(2, 8) * kernels.INT64_SAFE_LIMIT) for _ in range(4)]
        mixed = near[:3] + out_small[:3] + out_huge[:2]
        rng.shuffle(mixed)
        batches = [near, out_small, out_huge, near[:2] + out_small, mixed]
        for rows in batches:
            calls.clear()
            big = any(abs(v) >= kernels.INT64_SAFE_LIMIT for row in rows for v in row)
            batch = alcove_reduce_batch(ctx, np.array(rows, dtype=object if big else np.int64))
            assert (batch[0].dtype == object) == big
            off = [tuple(x) for x in rows if min(extended(rs, kappa, x)) < 0]
            if not off:
                assert calls == []
                continue
            [(counts, starts)] = calls
            assert len(starts) == len(off)
            for x, count, start in zip(off, counts, starts):
                length, _, moved_length = oracles.two_pass_lengths(ctx, x)
                moved = oracles.translate(ctx, x)
                assert count == min(length, moved_length)
                assert tuple(start) == (moved if moved_length < length else x)
                assert (min(extended(rs, kappa, tuple(start))) < 0) == (count > 0)
            for a, x in enumerate(rows):
                r = alcove_reduce(ctx, tuple(x))
                assert (list(batch[0][a]), batch[1][a], bool(batch[2][a])) == (
                    list(r.reduced), r.length, r.status == WALL
                )


@pytest.mark.parametrize("label", ALL_TYPES)
def test_dominant_kernel_counts_the_length_in_both_chambers(label):
    # off the walls each row takes exactly its length in reflections: the
    # closed-form alcove length on extended labels under the affine colour
    # classes, the scalar sweep count on Dynkin labels under the finite ones
    rs = build_root_system(label)
    rng = random.Random(f"{label} lengths")
    for h in (0, 2):
        ctx = AffineContext(rs, h)
        kappa = ctx.kappa
        # rho moved by random words of generators is off every wall
        words = [[rng.randint(0, rs.rank) for _ in range(rng.randint(0, 60))] for _ in range(15)]
        xs = np.concatenate((
            [oracles.apply_word(rs, kappa, word, rs.rho) for word in words],
            random_rows(rng, rs.rank, 15, lo=-3 * kappa, hi=3 * kappa),
        ))
        walls = [oracles.length_and_wall(ctx, tuple(x)) for x in xs.tolist()]
        bound = max(length for length, _ in walls)
        reduced, signs, steps = kernels.dominant_reduce_batch(
            rs.np_colour_classes, kernels.extended_batch(rs.comarks, kappa, xs), bound
        )
        assert any(wall for _, wall in walls) and not all(wall for _, wall in walls)
        for x, y, sign, count, (length, wall) in zip(xs.tolist(), reduced, signs, steps, walls):
            r = alcove_reduce(ctx, tuple(x))
            assert y.tolist() == list(extended(rs, kappa, r.reduced))
            assert (0 in y.tolist()) == wall
            if not wall:
                assert (int(count), int(sign)) == (length, r.sign)
    xs = random_rows(rng, rs.rank, 60, lo=-12, hi=12)
    bound = len(rs.positive_roots)
    reduced, signs, steps = kernels.dominant_reduce_batch(finite_classes(rs), xs, bound)
    off = 0
    for x, y, sign, count in zip(xs.tolist(), reduced.tolist(), signs, steps):
        z = list(x)
        length = sweep_reduce(rs.simple_supports, z, bound)
        assert y == z
        if all(y):
            off += 1
            assert (int(count), int(sign)) == (length, (-1) ** length)
    assert off > 0


@pytest.mark.parametrize("label", ALL_TYPES)
def test_extended_labels_at_a_level_no_row_reaches_sweep_as_dynkin_labels(label):
    # above the level of every row's dominant point s_0 never fires: the
    # affine sweep of the extended labels is the finite sweep of the Dynkin
    # labels, with the same reflection counts, and node 0 keeps kappa - level
    rs = build_root_system(label)
    xs = random_rows(random.Random(f"{label} finite"), rs.rank, 60, lo=-12, hi=12)
    bound = len(rs.positive_roots)
    finite = kernels.dominant_reduce_batch(finite_classes(rs), xs, bound)
    kappa = int((finite[0] @ np.array(rs.comarks)).max()) + 1
    reduced, signs, steps = kernels.dominant_reduce_batch(
        rs.np_colour_classes, kernels.extended_batch(rs.comarks, kappa, xs), bound
    )
    assert reduced[:, 1:].tolist() == finite[0].tolist()
    assert (reduced[:, 0] == kappa - finite[0] @ np.array(rs.comarks)).all()
    assert reduced[:, 0].min() == 1
    assert steps.tolist() == finite[2].tolist() and signs.tolist() == finite[1].tolist()


@pytest.mark.parametrize("label", ALL_TYPES)
def test_dominant_kernel_rows_past_two_to_the_forty_agree_with_int64(label):
    # the same rows in both dtypes: Dynkin labels past 2^40, and extended
    # labels at a level past 2^40, as Kac-Walton rows at a huge level have
    rs = build_root_system(label)
    rng = random.Random(f"{label} dtypes")
    big = 2 * kernels.INT64_SAFE_LIMIT
    kappa = big + 7
    xs = random_rows(rng, rs.rank, 12, lo=-3 * kappa, hi=3 * kappa)
    finite = random_rows(rng, rs.rank, 12, lo=-big, hi=big)
    cases = [
        (rs.np_colour_classes, kernels.extended_batch(rs.comarks, kappa, xs), 10**4),
        (finite_classes(rs), finite, len(rs.positive_roots)),
    ]
    for classes, rows, bound in cases:
        assert not kernels.fits_int64(rows)
        via_int64 = kernels.dominant_reduce_batch(classes, rows.copy(), bound)
        via_object = kernels.dominant_reduce_batch(classes, rows.astype(object), bound)
        assert via_object[0].dtype == object
        for a in range(3):
            assert via_int64[a].tolist() == via_object[a].tolist()
        supports = rs.affine_supports if classes is rs.np_colour_classes else rs.simple_supports
        for row, y, count in zip(rows.tolist(), via_object[0].tolist(), via_object[2]):
            assert sweep_reduce(supports, row, bound) == count and row == y


@pytest.mark.parametrize("label", ALL_TYPES)
def test_dominant_kernel_on_extended_labels_raises_one_reflection_short_of_the_length(label):
    # the alcove chamber's twin of the -rho test above: a row off the walls
    # takes exactly its closed-form length in reflections
    rs = build_root_system(label)
    ctx = AffineContext(rs, 1)
    kappa = ctx.kappa
    rng = random.Random(f"{label} short")
    while True:
        x = [rng.randint(-10 * kappa, 10 * kappa) for _ in range(rs.rank)]
        length, wall = oracles.length_and_wall(ctx, tuple(x))
        if not wall and length > 1:
            break
    rows = kernels.extended_batch(rs.comarks, kappa, np.array([x, [1] * rs.rank]))
    reduced, signs, steps = kernels.dominant_reduce_batch(rs.np_colour_classes, rows, length)
    assert steps.tolist() == [length, 0]
    assert reduced[0].tolist() == list(extended(rs, kappa, alcove_reduce(ctx, tuple(x)).reduced))
    with pytest.raises(AssertionError, match="terminate"):
        kernels.dominant_reduce_batch(rs.np_colour_classes, rows, length - 1)
