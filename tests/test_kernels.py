"""The int64 numpy kernels against the exact per-point paths.

Callers pick between two backends by magnitude (:func:`kernels.fits_int64`):
the vectorized kernels and the exact Python walks, which serve as the
reference here.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopfusion import kernels
from loopfusion.affine_weyl import WALL, AffineContext, alcove_reduce
from loopfusion.rootdata import build_root_system, dominant_reduce


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


def random_rows(rng, rank, n, lo=-40, hi=40):
    return np.array(
        [[rng.randint(lo, hi) for _ in range(rank)] for _ in range(n)], dtype=np.int64
    )


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "C3"])
def test_dominant_reduce_backends_agree(label):
    rs = build_root_system(label)
    rng = random.Random(4)
    xs = random_rows(rng, rs.rank, 200)
    reduced, signs, steps = kernels.dominant_reduce_batch(rs.np_simple, xs.copy())
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
    reduced, steps, status = kernels.alcove_reduce_batch(
        rs.np_simple, rs.np_theta, rs.np_comarks, kappa, xs.copy(), ctx.step_budget
    )
    assert 0 < status.sum() < len(xs)  # both verdicts occur
    for x, red, ell, wall in zip(xs, reduced, steps, status):
        exact = alcove_reduce(ctx, tuple(int(v) for v in x))
        assert tuple(int(v) for v in red) == exact.reduced
        assert int(ell) == exact.length
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


def test_huge_affine_coordinates_hit_the_resource_guard():
    from loopfusion.affine_weyl import AffineContext, alcove_reduce, alcove_reduce_batch
    from loopfusion.errors import ResourceError

    rs = build_root_system("A1")
    ctx = AffineContext(rs, 2)
    big = 1 << 45
    with pytest.raises(ResourceError):
        alcove_reduce(ctx, (big,))
    with pytest.raises(ResourceError):
        alcove_reduce_batch(ctx, np.array([(big,), (3,)], dtype=object))
    # within int64 but far past the step budget: the kernel path reports the
    # same failure instead of looping
    with pytest.raises(ResourceError):
        alcove_reduce_batch(ctx, np.array([(1 << 30,)], dtype=np.int64))


def test_empty_batches():
    rs = build_root_system("A2")
    xs = np.empty((0, 2), dtype=np.int64)
    reduced, signs, steps = kernels.dominant_reduce_batch(rs.np_simple, xs)
    assert reduced.shape == (0, 2)
    reduced, steps, status = kernels.alcove_reduce_batch(
        rs.np_simple, rs.np_theta, rs.np_comarks, 3, xs, 100
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
    reduced, signs, steps = kernels.dominant_reduce_batch(rs.np_simple, xs)
    for x, y in zip(xs, reduced):
        assert tuple(int(v) for v in y) in weyl_orbit(rs, tuple(int(v) for v in x))
