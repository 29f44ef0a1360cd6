"""Shifted affine alcove reduction: examples, oracles, and path laws."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopfusion.affine_weyl import (
    INTERIOR,
    WALL,
    AffineContext,
    alcove_reduce,
    alcove_reduce_batch,
    check_alcove,
    on_wall,
    total_degree,
)
from loopfusion.errors import ValidationError
from loopfusion.rootdata import (
    build_root_system,
    dominant_reduce,
    extended,
    sweep_reduce,
    theta_pairing,
)


def interior(ctx, x):
    return all(v >= 1 for v in x) and theta_pairing(ctx.rs, x) < ctx.kappa

import oracles


def ctx_of(label, h):
    return AffineContext(build_root_system(label), h)


def test_a1_worked_examples():
    ctx = ctx_of("A1", 1)
    assert ctx.kappa == 3
    r = alcove_reduce(ctx, (1,))
    assert (r.status, r.reduced, r.length, r.sign) == (INTERIOR, (1,), 0, 1)
    r = alcove_reduce(ctx, (4,))
    assert (r.status, r.reduced, r.length, r.sign) == (INTERIOR, (2,), 1, -1)
    r = alcove_reduce(ctx, (3,))
    assert r.status == WALL


def test_a1_total_degree_examples():
    ctx = ctx_of("A1", 1)
    assert total_degree(ctx, [(0,)]) == 0
    assert total_degree(ctx, [(3,), (3,)]) == 2
    assert total_degree(ctx, [(2,)]) is None
    assert total_degree(ctx, []) == 0
    with pytest.raises(ValidationError):
        total_degree(ctx, [(-1,)])


def test_a2_wall_examples():
    ctx = ctx_of("A2", 0)
    assert ctx.kappa == 3
    # pairings of (1,2) against the positive coroots hit 3
    assert on_wall(ctx, (1, 2))
    # pairings of (2,2) are {2, 2, 4}; none divisible by 3
    assert not on_wall(ctx, (2, 2))
    assert on_wall(ctx, (1, 1)) is False
    assert on_wall(ctx, (0, 1))
    assert on_wall(ctx, (3, 3))


def walk(ctx, x, affine_first=True):
    """The test oracle's greedy walk of x at the level of ctx: (word, end)."""
    return oracles.greedy_walk(ctx.rs, ctx.kappa, x, affine_first)


def unwalk(ctx, word, x):
    """The test oracle's word applied to x at the level of ctx."""
    return oracles.apply_word(ctx.rs, ctx.kappa, word, x)


def test_reflect_generator_matches_definitions():
    ctx = ctx_of("A1", 1)
    # affine generator: x -> x - ((x, theta~) - kappa) theta
    assert unwalk(ctx, (0,), (4,)) == (2,)
    assert unwalk(ctx, (1,), (1,)) == (-1,)
    ctx2 = ctx_of("A2", 0)
    assert unwalk(ctx2, (0,), (2, 2)) == (1, 1)
    assert unwalk(ctx2, (1,), (2, 2)) == (-2, 4)


@pytest.mark.parametrize("label,h", [("A1", 2), ("A2", 1), ("B2", 1), ("G2", 0)])
def test_wall_matches_enumeration_oracle(label, h):
    ctx = ctx_of(label, h)
    cartan = oracles.CARTAN[label]
    rng = random.Random(20240 + h)
    for _ in range(200):
        x = tuple(rng.randint(-3 * ctx.kappa, 3 * ctx.kappa) for _ in range(ctx.rs.rank))
        assert on_wall(ctx, x) == oracles.wall_by_enumeration(cartan, ctx.kappa, x)


def test_a1_brute_force_reduction_oracle():
    for h in (1, 2, 3, 4):
        ctx = ctx_of("A1", h)
        for x in range(-3 * ctx.kappa, 3 * ctx.kappa + 1):
            status, reduced, dist = oracles.a1_brute_reduce(ctx.kappa, x)
            r = alcove_reduce(ctx, (x,))
            assert r.status == status
            if status == INTERIOR:
                assert r.reduced == (reduced,)
                assert r.length == dist
                assert r.sign == (-1) ** dist


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_orbit_correctness_via_word_reconstruction(label):
    rng = random.Random(1234)
    for h in (0, 1, 3):
        ctx = ctx_of(label, h)
        for _ in range(120):
            x = tuple(rng.randint(-2 * ctx.kappa, 2 * ctx.kappa) for _ in range(ctx.rs.rank))
            r = alcove_reduce(ctx, x)
            if r.status == WALL:
                assert on_wall(ctx, x)
                continue
            assert not on_wall(ctx, x)
            assert interior(ctx, r.reduced)
            # the greedy walk ends at the reduced point, and its word maps
            # that point back to the input
            word, end = walk(ctx, x)
            assert end == r.reduced and unwalk(ctx, word, r.reduced) == x
            assert len(word) == r.length
            assert r.sign == (-1) ** r.length


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_path_independence_of_sign_and_length(label):
    # both greedy walks, affine generator first or last, take exactly the
    # closed-form length in letters and end at the reduced point
    rng = random.Random(99)
    for h in (0, 2):
        ctx = ctx_of(label, h)
        for _ in range(120):
            x = tuple(rng.randint(-2 * ctx.kappa, 2 * ctx.kappa) for _ in range(ctx.rs.rank))
            r = alcove_reduce(ctx, x)
            for affine_first in (True, False):
                word, end = walk(ctx, x, affine_first)
                assert (len(word), end) == (r.length, r.reduced)
            assert r.sign == (-1) ** r.length


def test_alcove_points_are_fixed_with_zero_length():
    ctx = ctx_of("A2", 2)
    # interior points of the shifted alcove: strictly positive, level below kappa
    for x0 in range(1, ctx.kappa):
        for x1 in range(1, ctx.kappa):
            if x0 + x1 < ctx.kappa:
                r = alcove_reduce(ctx, (x0, x1))
                assert (r.status, r.reduced, r.length) == (INTERIOR, (x0, x1), 0)


def test_reduction_is_idempotent():
    ctx = ctx_of("B2", 2)
    rng = random.Random(7)
    for _ in range(100):
        x = tuple(rng.randint(-12, 12) for _ in range(2))
        r = alcove_reduce(ctx, x)
        if r.status == INTERIOR:
            again = alcove_reduce(ctx, r.reduced)
            assert (again.reduced, again.length) == (r.reduced, 0)


def test_wall_dichotomy_is_exhaustive():
    ctx = ctx_of("A2", 1)
    for x0 in range(-8, 9):
        for x1 in range(-8, 9):
            r = alcove_reduce(ctx, (x0, x1))
            assert (r.status == WALL) == on_wall(ctx, (x0, x1))
            if r.status == INTERIOR:
                assert interior(ctx, r.reduced)


def test_batch_reduction_matches_single():
    for label, h in [("A1", 2), ("A2", 1), ("G2", 1)]:
        ctx = ctx_of(label, h)
        rng = random.Random(55)
        xs = [tuple(rng.randint(-15, 15) for _ in range(ctx.rs.rank)) for _ in range(300)]
        reduced, lengths, wall_flags = alcove_reduce_batch(ctx, xs)
        for x, red, ln, flag in zip(xs, reduced, lengths, wall_flags):
            r = alcove_reduce(ctx, x)
            assert bool(flag) == (r.status == WALL)
            if not flag:
                assert tuple(int(v) for v in red) == r.reduced
                assert int(ln) == r.length
        assert isinstance(reduced, np.ndarray)


def test_check_alcove_and_validation():
    rs = build_root_system("A1")
    assert check_alcove(rs, 2, (0,)) == (0,)
    assert check_alcove(rs, 2, (2,)) == (2,)
    # off the alcove, of the wrong length, or not integers
    for label, k, weight in [
        ("A1", 2, (3,)),
        ("A1", 2, (-1,)),
        ("A1", 2, (1, 5)),
        ("A2", 1, (0.5, 0.5)),
        ("A1", 2, (1.5,)),
    ]:
        with pytest.raises(ValidationError):
            check_alcove(build_root_system(label), k, weight)
    ctx = ctx_of("A1", 2)
    with pytest.raises(ValidationError):
        AffineContext(build_root_system("A1"), -1)
    with pytest.raises(ValidationError):
        alcove_reduce(ctx, (1, 2))


@pytest.mark.parametrize("h", [2, np.int64(2), np.uint8(2), True, -1, np.int64(-1), 2.0, "2"])
def test_levels_take_integers_of_any_kind(h):
    rs = build_root_system("A2")
    if isinstance(h, (float, str)) or h < 0:
        with pytest.raises(ValidationError, match="level"):
            AffineContext(rs, h)
        return
    ctx = AffineContext(rs, h)
    assert type(ctx.h) is int and ctx == AffineContext(rs, int(h))
    assert alcove_reduce(ctx, (9, -2)) == alcove_reduce(AffineContext(rs, int(h)), (9, -2))


@settings(max_examples=200, deadline=None)
@given(
    label=st.sampled_from(["A1", "A2", "B2"]),
    h=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
def test_reduction_properties(label, h, data):
    ctx = ctx_of(label, h)
    rank = ctx.rs.rank
    x = tuple(
        data.draw(st.integers(min_value=-3 * ctx.kappa, max_value=3 * ctx.kappa))
        for _ in range(rank)
    )
    r = alcove_reduce(ctx, x)
    if r.status == WALL:
        assert on_wall(ctx, x)
    else:
        assert interior(ctx, r.reduced)
        word, end = walk(ctx, x)
        assert end == r.reduced and unwalk(ctx, word, r.reduced) == x


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "E6"])
def test_closed_form_length_is_the_walk_length_on_and_off_walls(label):
    rng = random.Random(31)
    verdicts = set()
    for h in (0, 1, 3):
        ctx = ctx_of(label, h)
        for _ in range(60):
            x = tuple(rng.randint(-3 * ctx.kappa, 3 * ctx.kappa) for _ in range(ctx.rs.rank))
            r = alcove_reduce(ctx, x)
            verdicts.add(r.status)
            for affine_first in (True, False):
                word, end = walk(ctx, x, affine_first)
                assert (len(word), end) == (r.length, r.reduced)
                assert unwalk(ctx, word, r.reduced) == x
    assert verdicts == {WALL, INTERIOR}


@pytest.mark.parametrize("label", ["F4", "E6"])
def test_batch_matches_single_far_from_the_alcove(label):
    rng = random.Random(50)
    for h in (0, 2):
        ctx = ctx_of(label, h)
        bound = 50 * ctx.kappa
        xs = [tuple(rng.randint(-bound, bound) for _ in range(ctx.rs.rank)) for _ in range(40)]
        reduced, lengths, wall_flags = alcove_reduce_batch(ctx, np.array(xs, dtype=np.int64))
        for x, red, ln, flag in zip(xs, reduced, lengths, wall_flags):
            r = alcove_reduce(ctx, x)
            assert (tuple(int(v) for v in red), int(ln), bool(flag)) == (
                r.reduced,
                r.length,
                r.status == WALL,
            )


@pytest.mark.parametrize(
    "label", ["A1", "A4", "B3", "C4", "D5", "E6", "E7", "E8", "F4", "G2"]
)
def test_one_pass_lengths_match_the_two_pass_oracle(label):
    # the root-by-root pairings against full dot products on every root, for
    # x and for its kappa*Q^vee translate, whose shift comes back too
    from fractions import Fraction

    from loopfusion.affine_weyl import _lengths, _translate

    rs = build_root_system(label)
    rng = random.Random(f"{label} one pass")
    walls = set()
    for h in (0, 1, 3, 7):
        ctx = AffineContext(rs, h)
        kappa = ctx.kappa
        points = [tuple(rng.randint(-60 * kappa, 60 * kappa) for _ in range(rs.rank)) for _ in range(12)]
        points += [
            tuple(Fraction(rng.randint(-20 * kappa, 20 * kappa), rng.randint(1, 6)) for _ in range(rs.rank))
            for _ in range(6)
        ]
        points += [tuple(rng.randint(-(2**70), 2**70) for _ in range(rs.rank)) for _ in range(4)]
        # a zero coordinate is a wall, and the affine Weyl group maps walls to walls
        for scale in (3 * kappa, 2**66):
            for _ in range(4):
                x = [rng.randint(-scale, scale) for _ in range(rs.rank)]
                x[rng.randrange(rs.rank)] = 0
                word = [rng.randint(0, rs.rank) for _ in range(rng.randint(0, 20))]
                points.append(unwalk(ctx, word, tuple(x)))
        for x in points:
            got = _lengths(ctx, x)
            assert got[:3] == oracles.two_pass_lengths(ctx, x), (h, x)
            # the returned kappa*Q^vee shift moves x to the oracle's translate
            assert _translate(ctx, x, got[3]) == oracles.translate(ctx, x), (h, x)
            walls.add(got[1])
    assert walls == {True, False}


@pytest.mark.parametrize("label,h", [("A2", 1), ("G2", 0), ("B3", 2)])
def test_rational_points_sweep_to_the_greedy_walk_endpoint(label, h):
    from fractions import Fraction

    ctx = ctx_of(label, h)
    rng = random.Random(17)
    for _ in range(30):
        x = tuple(
            Fraction(rng.randint(-12 * ctx.kappa, 12 * ctx.kappa), rng.choice((1, 2, 3, 6)))
            for _ in range(ctx.rs.rank)
        )
        r = alcove_reduce(ctx, x)
        word, end = walk(ctx, x)  # the greedy walk, in Fractions
        assert end == r.reduced
        assert len(word) == r.length
        assert (r.status == WALL) == on_wall(ctx, x)
        assert all(isinstance(v, int) for v in r.reduced if v.denominator == 1)


@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "A4", "B3", "C3", "D4", "G2", "F4", "E6", "E7"]
)
def test_the_closed_alcove_is_the_orthant_of_the_extended_labels(label):
    from fractions import Fraction

    rs = build_root_system(label)
    rng = random.Random(15)
    seen = set()
    for h in (0, 2):
        ctx = AffineContext(rs, h)
        kappa = ctx.kappa
        top = max(2, 2 * kappa // sum(rs.comarks))  # about half the points are labels
        for n in range(40):
            d = rng.choice((1, 1, 2, 3))
            span = (-d, d * top) if rng.random() < 0.8 else (-3 * kappa, 3 * kappa)
            x = tuple(Fraction(rng.randint(*span), d) for _ in range(rs.rank))
            x = tuple(int(v) if v.denominator == 1 else v for v in x)
            x = x if n else rs.rho  # interior at every level, and rare among E7's draws
            ext = extended(rs, kappa, x)
            r = alcove_reduce(ctx, x)
            inside = min(ext) >= 0
            seen.add((inside, inside and 0 in ext))
            assert inside == (r.length == 0)
            if inside:
                assert r.reduced == x
                assert (0 in ext) == (r.status == WALL) == on_wall(ctx, x)
            for i, a in enumerate(rs.affine_roots):
                z = unwalk(ctx, (i,), x)
                assert extended(rs, kappa, z) == tuple(e - ext[i] * c for e, c in zip(ext, a))
                assert extended(rs, kappa, z)[i] == -ext[i]
                assert unwalk(ctx, (i,), z) == x
            if all(isinstance(v, int) for v in x):
                label_test = min(x) >= 0 and theta_pairing(rs, x) <= h
                assert label_test == (min(extended(rs, h, x)) >= 0)
                if label_test:
                    assert check_alcove(rs, h, x) == x
                else:
                    with pytest.raises(ValidationError):
                        check_alcove(rs, h, x)
                y = list(x)
                steps = sweep_reduce(rs.simple_supports, y, len(rs.positive_roots))
                assert (tuple(y), -1 if steps % 2 else 1) == dominant_reduce(rs, x)
            else:  # a rational point is no label, whatever its extended labels
                with pytest.raises(ValidationError):
                    check_alcove(rs, h, x)
    assert seen == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize(
    "call",
    [
        lambda ctx: alcove_reduce(ctx, (0.5, 1.0)),
        lambda ctx: alcove_reduce(ctx, (1, 2, 3)),
        lambda ctx: on_wall(ctx, (1,)),
        lambda ctx: alcove_reduce(ctx, (2.5, -1.0)),
        lambda ctx: on_wall(ctx, (1, 2, 3)),
    ],
    ids=["float", "too-long", "too-short-affine", "word-float", "empty-word-too-long"],
)
def test_generators_refuse_floats_and_points_of_the_wrong_length(call):
    # the affine generators act only inside alcove_reduce's sweeps and
    # on_wall's closed form, whose one entry refuses the point before any
    # generator fires: (0.5, 1.0) lies in the alcove, (2.5, -1.0) needs a
    # word, and on_wall reflects nothing
    with pytest.raises(ValidationError):
        call(ctx_of("A2", 1))


def test_generators_return_python_ints_for_numpy_ints_and_integral_fractions():
    from fractions import Fraction

    ctx = ctx_of("A2", 1)
    r = alcove_reduce(ctx, (np.int64(2), Fraction(6, 2)))
    assert r.length > 0 and r == alcove_reduce(ctx, (2, 3))
    assert all(type(v) is int for v in r.reduced)
    # a rational point comes back with its integral coordinates as ints
    r = alcove_reduce(ctx, (np.int64(7), Fraction(1, 2)))
    assert r.length > 0 and r.reduced == oracles.greedy_walk(ctx.rs, ctx.kappa, (7, Fraction(1, 2)))[1]
    assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in r.reduced)


@pytest.mark.parametrize("rows", [[], ()], ids=["list", "tuple"])
def test_an_empty_batch_reduces_to_three_empty_arrays(rows):
    reduced, lengths, walls = alcove_reduce_batch(ctx_of("A2", 1), rows)
    assert reduced.shape == (0, 2) and lengths.shape == walls.shape == (0,)


BATCH_TYPES = ["A1", "A2", "A3", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"]


def _batch_rows(ctx, rng):
    """(rows, kinds, huge) for one context: wall points inside the closed
    alcove, wall points outside it, open-alcove points and points outside it
    off every wall, and each row moved past 2^64 by kappa*Q^vee."""
    rs, kappa = ctx.rs, ctx.kappa

    def moved(x, scale):
        # an affine word, then a kappa*Q^vee translation
        y = unwalk(ctx, [rng.randint(0, rs.rank) for _ in range(rng.randint(1, 12))], x)
        for coroot in rs.simple_coroot_weights:
            n = rng.choice((-1, 1)) * rng.randint(scale // 2, scale) * kappa
            y = tuple(v + n * c for v, c in zip(y, coroot))
        return y

    # a point with a zero Dynkin label is on the wall (x, alpha_i) = 0, and
    # its reduced point is a wall point of the closed alcove
    walls_in = []
    while len(walls_in) < 4:
        x = [rng.randint(-3 * kappa, 3 * kappa) for _ in range(rs.rank)]
        x[rng.randrange(rs.rank)] = 0
        walls_in.append(alcove_reduce(ctx, tuple(x)).reduced)
    walls_in.append((0,) * rs.rank)
    inside = [rs.rho] + [
        x for x in (tuple(rng.randint(1, kappa) for _ in range(rs.rank)) for _ in range(20))
        if interior(ctx, x)
    ][:3]
    walls_out = [moved(x, 3) for x in walls_in]
    off_walls = [moved(x, 3) for x in inside]
    rows = walls_in + walls_out + inside + off_walls
    kinds = ["wall in"] * len(walls_in) + ["wall out"] * len(walls_out) + ["in"] * len(inside)
    kinds += ["out"] * len(off_walls)
    return rows, kinds, [moved(x, 1 << 64) for x in rows]


@pytest.mark.parametrize("label", BATCH_TYPES)
def test_batch_wall_verdicts_and_lengths_equal_the_scalar_reduction(label):
    # the wall flags come from the closed form, not from the kernel's zero
    # labels: every kind of row, alone or mixed, int64 or past 2^64, must
    # reduce as alcove_reduce reduces it
    rs = build_root_system(label)
    rng = random.Random(f"{label} batch walls")
    for h in (0, 1, 3):
        ctx = AffineContext(rs, h)
        rows, kinds, huge = _batch_rows(ctx, rng)
        batches = [np.array(rows, dtype=np.int64), np.array(rows + huge, dtype=object), np.array(huge, dtype=object)]
        batches += [np.array([x for x, k in zip(rows, kinds) if k == kind], dtype=np.int64)
                    for kind in ("wall in", "wall out", "in", "out")]
        for batch in batches:
            reduced, lengths, status = alcove_reduce_batch(ctx, batch)
            assert reduced.dtype == lengths.dtype == batch.dtype
            for x, red, ln, flag in zip(batch.tolist(), reduced.tolist(), lengths.tolist(), status.tolist()):
                r = alcove_reduce(ctx, tuple(x))
                assert (tuple(red), ln, flag) == (r.reduced, r.length, int(r.status == WALL))
        for x, far, kind in zip(rows, huge, kinds):
            r, r_far = alcove_reduce(ctx, x), alcove_reduce(ctx, far)
            assert (r.status == WALL) == (r_far.status == WALL) == kind.startswith("wall")
            assert max(map(abs, far)) > 1 << 64
            if kind in ("wall in", "in"):
                assert r.length == 0


def test_a_batch_takes_one_closed_form_product_and_one_kernel_call(monkeypatch):
    # lengths, wall flags and starts come from one alcove_length_batch call;
    # no extended labels are built before the one kernel call, which builds
    # them, and a batch inside the closed alcove makes no kernel call at all
    from loopfusion import affine_weyl, kernels

    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    spy(kernels, "alcove_length_batch")
    spy(kernels, "alcove_reduce_batch")
    spy(kernels, "extended_batch")
    spy(affine_weyl, "extended")
    for label in BATCH_TYPES:
        ctx = ctx_of(label, 1)
        rows, kinds, huge = _batch_rows(ctx, random.Random(f"{label} batch calls"))
        for batch, kernel in ((np.array(rows + huge, dtype=object), True), (np.array(rows, dtype=np.int64), True),
                              (np.array([x for x, k in zip(rows, kinds) if k == "in"], dtype=np.int64), False)):
            calls.clear()
            alcove_reduce_batch(ctx, batch)
            assert calls == ["alcove_length_batch"] + ["alcove_reduce_batch", "extended_batch"] * kernel


@settings(max_examples=150, deadline=None)
@given(
    label=st.sampled_from(["A2", "B3", "G2", "F4", "E6"]),
    h=st.integers(min_value=0, max_value=3),
    d=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
def test_a_rational_point_reduces_as_d_times_itself_at_level_d_kappa(label, h, d, data):
    # x/d at level kappa is x at level d*kappa (twisting level d*kappa - c)
    # with every extended label divided by d: the same status, length and
    # sign, and 1/d times the reduced point
    from fractions import Fraction

    rs = build_root_system(label)
    ctx = AffineContext(rs, h)
    big = AffineContext(rs, d * ctx.kappa - rs.dual_coxeter)
    x = tuple(data.draw(st.integers(-50 * ctx.kappa, 50 * ctx.kappa)) for _ in range(rs.rank))
    point = tuple(Fraction(v, d) for v in x)
    r, scaled = alcove_reduce(ctx, point), alcove_reduce(big, x)
    assert (r.status, r.length, r.sign) == (scaled.status, scaled.length, scaled.sign)
    assert r.reduced == tuple(Fraction(v, d) for v in scaled.reduced)
    # integral coordinates come back as ints
    assert all(type(v) is int for v in r.reduced if v.denominator == 1)
    assert on_wall(ctx, point) == on_wall(big, x) == (r.status == WALL)
    # the greedy walk of x at level d*kappa, in integers, takes the length in
    # letters, and its word maps the reduced point back to x/d
    word, end = walk(big, x)
    assert (len(word), end) == (r.length, scaled.reduced)
    assert unwalk(ctx, word, r.reduced) == point


def test_integer_points_build_no_fraction(monkeypatch):
    # with fractions.Fraction, which the library imports only where it makes
    # or tests one, refusing to be called, a fresh root system is built and
    # integer points are reduced and tested
    import fractions

    from loopfusion import rootdata

    def refuse(*args):
        raise AssertionError(f"Fraction{args} built on integer input")

    monkeypatch.setattr(fractions, "Fraction", refuse)
    rng = random.Random(31)
    for label in ("A2", "B3", "G2", "F4", "E6"):
        rs = rootdata.RootSystem(rootdata.AlgebraSpec.parse(label))
        assert not {"symmetrizer", "form", "simple_coroots"} & set(vars(rs))
        ctx = AffineContext(rs, 2)
        points = [rs.rho, (0,) * rs.rank]
        points += [tuple(rng.randint(-5 * ctx.kappa, 5 * ctx.kappa) for _ in range(rs.rank)) for _ in range(20)]
        for x in points:
            r = alcove_reduce(ctx, x)
            assert (r.status == WALL) == on_wall(ctx, x)
            assert r.reduced == walk(ctx, x)[1]
            assert all(type(v) is int for v in r.reduced)


GALOIS_CASES = [("A1", 3), ("A2", 3), ("B3", 2), ("C3", 2), ("D4", 2), ("G2", 3), ("F4", 2), ("E6", 2)]


def test_reduced_points_keep_every_character_value_mod_p():
    # Characters are invariant under W x kappa*Q^vee, so the character of
    # lam at exp(2 pi i x / kappa) is the same at x and at its reduced point.
    # With M = form_den * kappa, a prime p = 1 (mod M) and omega of order M in
    # F_p, the character's exact image in F_p checks the reduced point of
    # x = l * (mu + rho) exactly at any magnitude of l, scalar and batch.
    from math import gcd

    from loopfusion.finite_reps import weight_multiplicities
    from loopfusion.fusion import alcove_weights
    from loopfusion.rootdata import pairing_int

    cases = 0
    for label, k in GALOIS_CASES:
        rs = build_root_system(label)
        ctx = AffineContext(rs, k)
        modulus = rs.form_den * ctx.kappa
        p, omega = oracles.root_of_unity_mod_prime(modulus)
        labels = [lw.weight for lw in alcove_weights(rs, k)]
        tables = [
            oracles.weight_table(weight_multiplicities(rs, lam).by_weight, lambda nu, x: pairing_int(rs, nu, x), rs.rank)
            for lam in labels
        ]
        scales = [ell for ell in (3, 5, 7, 11, 13, 2**64 + 1, 2**67 + 3 * modulus + 1) if gcd(ell, 2 * modulus) == 1]
        for ell in scales:
            points = [tuple(ell * (v + 1) for v in mu) for mu in labels]
            batch, _, _ = alcove_reduce_batch(ctx, np.array(points, dtype=object))
            for x, row in zip(points, batch.tolist()):
                y = alcove_reduce(ctx, x).reduced
                assert tuple(row) == y
                for table in tables:
                    want = oracles.character_mod_p(table, x, modulus, omega, p)
                    assert oracles.character_mod_p(table, y, modulus, omega, p) == want, (label, ell, x)
                    cases += 1
    assert cases == 2855
