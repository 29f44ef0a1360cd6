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
    apply_affine_word,
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


def test_reflect_generator_matches_definitions():
    ctx = ctx_of("A1", 1)
    # affine generator: x -> x - ((x, theta~) - kappa) theta
    assert apply_affine_word(ctx, (0,), (4,)) == (2,)
    assert apply_affine_word(ctx, (1,), (1,)) == (-1,)
    ctx2 = ctx_of("A2", 0)
    assert apply_affine_word(ctx2, (0,), (2, 2)) == (1, 1)
    assert apply_affine_word(ctx2, (1,), (2, 2)) == (-2, 4)
    with pytest.raises(ValidationError):
        apply_affine_word(ctx2, (3,), (2, 2))


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
            # the recorded word maps the reduced point back to the input
            assert apply_affine_word(ctx, r.word, r.reduced) == x
            assert len(r.word) == r.length
            assert r.sign == (-1) ** r.length


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_path_independence_of_sign_and_length(label):
    rng = random.Random(99)
    for h in (0, 2):
        ctx = ctx_of(label, h)
        for _ in range(120):
            x = tuple(rng.randint(-2 * ctx.kappa, 2 * ctx.kappa) for _ in range(ctx.rs.rank))
            ra = alcove_reduce(ctx, x, order="affine_first")
            rb = alcove_reduce(ctx, x, order="finite_first")
            assert ra.status == rb.status
            if ra.status == INTERIOR:
                assert ra.reduced == rb.reduced
                assert ra.length == rb.length
                assert ra.sign == rb.sign


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
    with pytest.raises(ValidationError):
        alcove_reduce(ctx, (1,), order="sideways")


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
        assert apply_affine_word(ctx, r.word, r.reduced) == x


def greedy_walk_steps(ctx, x, affine_first):
    """Steps of the plain greedy walk into the closed alcove, counted one by one."""
    steps = 0
    while True:
        finite = next((i + 1 for i, v in enumerate(x) if v < 0), None)
        affine = 0 if theta_pairing(ctx.rs, x) > ctx.kappa else None
        first, second = (affine, finite) if affine_first else (finite, affine)
        idx = first if first is not None else second
        if idx is None:
            return steps
        x = apply_affine_word(ctx, (idx,), x)
        steps += 1


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
            assert len(r.word) == r.length == greedy_walk_steps(ctx, x, True)
            rf = alcove_reduce(ctx, x, order="finite_first")
            assert len(rf.word) == rf.length == greedy_walk_steps(ctx, x, False)
            assert apply_affine_word(ctx, r.word, r.reduced) == x
            assert apply_affine_word(ctx, rf.word, rf.reduced) == x
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
                points.append(apply_affine_word(ctx, word, tuple(x)))
        for x in points:
            got = _lengths(ctx, x)
            assert got[:3] == oracles.two_pass_lengths(ctx, x), (h, x)
            # the returned kappa*Q^vee shift moves x to the oracle's translate
            assert _translate(ctx, x, got[3]) == oracles.translate(ctx, x), (h, x)
            walls.add(got[1])
    assert walls == {True, False}


def test_words_past_the_step_budget_are_refused_without_walking():
    from loopfusion.errors import ResourceError

    ctx = ctx_of("A1", 2)
    r = alcove_reduce(ctx, (1 << 45,))
    assert r.length > ctx.step_budget
    with pytest.raises(ResourceError):
        r.word


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
        y = x
        for idx in r.word:  # the greedy walk, in Fractions, letter by letter
            y = apply_affine_word(ctx, (idx,), y)
        assert y == r.reduced
        assert len(r.word) == r.length
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
                z = apply_affine_word(ctx, (i,), x)
                assert extended(rs, kappa, z) == tuple(e - ext[i] * c for e, c in zip(ext, a))
                assert extended(rs, kappa, z)[i] == -ext[i]
                assert apply_affine_word(ctx, (i,), z) == x
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
        lambda ctx: apply_affine_word(ctx, (1,), (0.5, 1.0)),
        lambda ctx: apply_affine_word(ctx, (1,), (1, 2, 3)),
        lambda ctx: apply_affine_word(ctx, (0,), (1,)),
        lambda ctx: apply_affine_word(ctx, (0, 1), (2.5, -1.0)),
        lambda ctx: apply_affine_word(ctx, (), (1, 2, 3)),
    ],
    ids=["float", "too-long", "too-short-affine", "word-float", "empty-word-too-long"],
)
def test_generators_refuse_floats_and_points_of_the_wrong_length(call):
    with pytest.raises(ValidationError):
        call(ctx_of("A2", 1))


def test_generators_return_python_ints_for_numpy_ints_and_integral_fractions():
    from fractions import Fraction

    ctx = ctx_of("A2", 1)
    z = apply_affine_word(ctx, (1,), (np.int64(2), Fraction(6, 2)))
    assert z == (-2, 5) and all(type(v) is int for v in z)


@pytest.mark.parametrize("rows", [[], ()], ids=["list", "tuple"])
def test_an_empty_batch_reduces_to_three_empty_arrays(rows):
    reduced, lengths, walls = alcove_reduce_batch(ctx_of("A2", 1), rows)
    assert reduced.shape == (0, 2) and lengths.shape == walls.shape == (0,)
