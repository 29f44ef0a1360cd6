"""Shifted affine Weyl action at level kappa: walls, alcove reduction, degree.

All points handled here are rho-shifted: the fundamental alcove is the set
with (x, alpha_i^vee) >= 0 for simple coroots and (x, theta^vee) <= kappa,
its interior the strict version, and the walls the affine hyperplanes
(x, alpha) in kappa*Z over positive roots.  Every alcove test, wall verdict
and generator, scalar or batch, reads the extended Dynkin labels of
:func:`rootdata.extended` (:func:`kernels.extended_batch` for a batch), where
the closed alcove is the orthant y >= 0, its walls the points with a zero
label, and s_0 is one generator among the rest.

Reduction needs no walk from x.  Its length is the number of walls strictly
separating x from the alcove (Humphreys, *Reflection Groups and Coxeter
Groups*, 4.5), counted root by root in closed form, and x is on a wall iff
some (x, alpha) lies in kappa*Z.  The reduced point is the unique point of
the affine orbit in the closed alcove (Walton, "Fusion rules in WZW models",
1990): a translation by kappa*Q^vee moves x next to the alcove, and cyclic
sweeps finish in integers, each reflection where violated: s_0..s_rank in
turn for one point, one colour class of the affine diagram at a time for a
batch.  The sweeps start from x or from its translate, whichever has
the shorter closed-form length.  Both lengths take one pass over the
positive roots, the translate having x's quotients less n*C, with n the
kappa*Q^vee shift and C the Cartan integers <alpha, alpha_i^vee>: a batch
gets them from one product, a single point grows its pairings root by root,
each root being an earlier one plus a simple root.
Every violated reflection crosses exactly one separating wall, so any order
reaches the same point in exactly that many reflections, and an affine Weyl
element maps walls to walls, so x is on one exactly when its reduced point
is.
Only ``AlcoveReduction.word`` walks from x itself, greedily, because its
letters are output: the first violated generator in the order 0..rank
("affine_first") or 1..rank, 0 ("finite_first") fires.

Induction of a dominant weight lambda (:func:`_induced`, behind
``induction.induce``, ``induction.induce_virtual`` and
``verlinde.cohomology_report``) and
:func:`total_degree` need only the wall verdict on lambda + rho before
anything else: a wall point induces nothing, so it is never translated or
swept.  The translate of a point that is swept reuses the shift n that its
closed-form lengths computed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import kernels
from .errors import ResourceError, ValidationError
from .rootdata import (
    RootSystem,
    as_int,
    as_nonnegative,
    check_dominant,
    check_rank,
    check_weight,
    extended,
    sweep_reduce,
)

INTERIOR = "interior"
WALL = "wall"


@dataclass(frozen=True)
class AffineContext:
    """Root system plus a nonnegative twisting level h; kappa = h + c."""

    rs: RootSystem
    h: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", as_nonnegative(self.h, "level"))

    @property
    def kappa(self) -> int:
        return self.h + self.rs.dual_coxeter

    @property
    def step_budget(self) -> int:
        """Longest walk :attr:`AlcoveReduction.word` takes; longer ones are refused.

        A word has one letter per wall crossed, so this caps the words on
        offer at coordinates a comfortable multiple of kappa.
        """
        return 10 * self.kappa * len(self.rs.positive_roots) + 10


@dataclass(frozen=True)
class AlcoveReduction:
    """Outcome of reducing one point into the closed fundamental alcove.

    ``length`` counts the walls strictly separating the input from the
    alcove and ``sign`` is (-1)^length; for wall points neither carries
    meaning (the point sits on the closed-alcove boundary).
    """

    status: str
    reduced: tuple
    length: int
    sign: int
    ctx: AffineContext = field(repr=False, compare=False)
    source: tuple = field(repr=False, compare=False)
    order: str = field(default="affine_first", repr=False, compare=False)

    @cached_property
    def word(self) -> tuple[int, ...]:
        """The generators the greedy walk from ``source`` applies, in order.

        Feeding it to :func:`apply_affine_word` maps ``reduced`` back to the
        input.  Computed on first read, one step per letter; a word longer
        than ``ctx.step_budget`` raises ResourceError without walking.
        """
        budget = self.ctx.step_budget
        if self.length > budget:
            raise ResourceError(
                f"reduction word of length {self.length} exceeds the walk budget {budget}"
            )
        return _walk(self.ctx, self.source, self.order == "affine_first")


def _normalize(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _check_point(rs: RootSystem, x: tuple) -> tuple:
    """x as a rational point: integer coordinates as Python ints, Fractions
    kept unless integral; anything else, a float included, is refused."""
    check_rank(rs, x)
    return tuple(_normalize(v) if isinstance(v, Fraction) else as_int(v) for v in x)


def _reflect(supports: tuple, y: list, idx: int) -> None:
    """Generator idx on the extended labels y, in place: y -= y_idx * a_idx."""
    c = y[idx]
    for j, a in supports[idx]:
        y[j] -= c * a


def apply_affine_word(ctx: AffineContext, word: tuple[int, ...], x: tuple) -> tuple:
    """Apply a generator word to x, the last entry acting first.

    Generator 0 is the affine wall reflection and i >= 1 is s_i; generator
    idx turns extended label idx into its negative.  x is checked as
    :func:`alcove_reduce` checks it, and the word acts on its extended
    labels."""
    rs = ctx.rs
    y = list(extended(rs, ctx.kappa, _check_point(rs, x)))
    for idx in reversed(word):
        if not 0 <= idx <= rs.rank:
            raise ValidationError(f"generator index {idx} outside 0..{rs.rank}")
        _reflect(rs.affine_supports, y, idx)
    return tuple(_normalize(v) for v in y[1:])


def _lengths(ctx: AffineContext, x: tuple) -> tuple[int, bool, int, list]:
    """Closed-form reduction length of x, whether x is on a wall, the length
    of its kappa*Q^vee translate and the shift n that :func:`_translate` moves
    it by, exact for any scalars, in one pass over the positive roots.

    With form_den*(x, alpha) = q*den + r and den = form_den*kappa, a root
    counts |q| walls strictly between x and the alcove, one fewer when q > 0
    and r = 0 puts x on one of its walls.  The translate by n has the
    quotients q - n.alpha and the same remainders.  Each root is
    beta + alpha_i for an earlier root or zero beta (``RootSystem.root_steps``),
    so both x.pair and n.alpha grow by one term a root: the scalar twin of
    :func:`kernels.alcove_length_batch`.
    """
    rs = ctx.rs
    den = rs.form_den * ctx.kappa
    n = [sum(map(operator.mul, row, x)) // den for row in rs.form_int]
    dx = list(map(operator.mul, x, rs.scaled_d))  # x.pair of alpha_i
    dn = [sum(map(operator.mul, n, alpha)) for alpha in rs.simple_roots]  # n.alpha_i
    pairs, moves = [0], [0]
    length = moved = 0
    wall = False
    for b, i in rs.root_steps:
        p = pairs[b] + dx[i]
        m = moves[b] + dn[i]
        pairs.append(p)
        moves.append(m)
        q, r = divmod(p, den)
        if r:
            length += abs(q)
            moved += abs(q - m)
        else:
            wall = True
            length += abs(q) - (q > 0)
            moved += abs(q - m) - (q > m)
    return length, wall, moved, n


def _translate(ctx: AffineContext, x: tuple, shift: list) -> tuple:
    """x less kappa*n_i times the i-th simple coroot, for the shift n of
    :func:`_lengths`, which puts the coordinates (x, omega_i) of x on the
    simple coroots in [0, kappa)."""
    y = list(x)
    for n, coroot in zip(shift, ctx.rs.simple_coroot_weights):
        if n:
            step = n * ctx.kappa
            for j, c in enumerate(coroot):
                y[j] -= step * c
    return tuple(y)


def on_wall(ctx: AffineContext, x: tuple) -> bool:
    """Exact test: does some positive root alpha have (x, alpha) in kappa*Z?

    The reflection hyperplanes of the shifted action at scale kappa are
    (x, alpha) = n*kappa over roots alpha, with the form normalized so long
    roots have (alpha, alpha) = 2.
    """
    return _lengths(ctx, _check_point(ctx.rs, x))[1]


def _walk(ctx: AffineContext, x: tuple, affine_first: bool) -> tuple[int, ...]:
    """The letters of the greedy walk from x into the closed alcove, in order.

    The walk runs on the extended labels y of x and fires the first negative
    y_i in the order 0..rank, or 1..rank, 0 when not ``affine_first``.  It
    takes exactly as many steps as x has closed-form length.
    """
    y = list(extended(ctx.rs, ctx.kappa, x))
    order = range(len(y)) if affine_first else (*range(1, len(y)), 0)
    word = []
    while (idx := next((i for i in order if y[i] < 0), None)) is not None:
        _reflect(ctx.rs.affine_supports, y, idx)
        word.append(idx)
    return tuple(word)


def _sweep_to_alcove(ctx: AffineContext, x: tuple, labels: tuple, closed: tuple) -> tuple:
    """The closed-alcove point of the orbit of x, whose extended labels are
    ``labels`` and whose :func:`_lengths` are ``closed``.  Cyclic sweeps
    reach it from x or from its translate, whichever has the shorter length,
    in exactly that many reflections.  Rational labels are scaled by their
    common denominator d first, which scales the alcove to level d*kappa, so
    the sweeps run in integers."""
    length, _, moved, shift = closed
    if moved < length:
        labels, length = extended(ctx.rs, ctx.kappa, _translate(ctx, x, shift)), moved
    d = math.lcm(*(v.denominator for v in labels))
    y = [int(v * d) for v in labels] if d > 1 else list(labels)
    sweep_reduce(ctx.rs.affine_supports, y, length)
    return tuple(_normalize(Fraction(v, d)) for v in y[1:]) if d > 1 else tuple(y[1:])


def alcove_reduce(ctx: AffineContext, x: tuple, order: str = "affine_first") -> AlcoveReduction:
    """Reduce a rational point into the closed fundamental alcove, exactly.

    Coordinates are ints, np.integers or Fractions; anything else raises
    ValidationError.  Points already in the closed alcove cost one violation
    test.  Others get their length and wall status in closed form; the
    reduced point is swept to from x or from its kappa*Q^vee translate,
    whichever is shorter.  ``order`` picks which violated generator the
    greedy walk behind ``word`` fires first ("affine_first" is the default
    convention, "finite_first" the alternate); nothing else depends on it.
    """
    y = _check_point(ctx.rs, x)
    if order not in ("affine_first", "finite_first"):
        raise ValidationError(f"unknown reduction order {order!r}")
    labels = extended(ctx.rs, ctx.kappa, y)
    if min(labels) >= 0:
        return AlcoveReduction(WALL if 0 in labels else INTERIOR, y, 0, 1, ctx, y, order)
    closed = length, wall, _, _ = _lengths(ctx, y)
    return AlcoveReduction(
        status=WALL if wall else INTERIOR,
        reduced=_sweep_to_alcove(ctx, y, labels, closed),
        length=length,
        sign=-1 if length % 2 else 1,
        ctx=ctx,
        source=y,
        order=order,
    )


def alcove_reduce_batch(ctx: AffineContext, xs: np.ndarray):
    """Vectorized reduction of integer points; (reduced, lengths, wall flags).

    Each row is :func:`alcove_reduce` read off its extended Dynkin labels
    (:func:`kernels.extended_batch`): a row with no negative label is in the
    closed alcove and stays, with a wall flag where some label is zero.  The
    others get, in one product over the positive roots, their closed-form
    length and that of their kappa*Q^vee translate, and one kernel call
    sweeps each from x or the translate, whichever is shorter, taking that
    length as its reflection count.  Their wall flags are the kernel's zero
    labels of the reduced points, a point being on a wall exactly when its
    reduced point is.  The rows run as int64 when they and the alcove's scale
    fit the kernels' range, otherwise as Python ints, in which case reduced
    points and lengths come back as object arrays.  Non-integer entries
    raise ValidationError.
    """
    # a list goes in as Python ints: numpy would make floats of entries past
    # 2^63 that sit beside negative ones
    arr = xs if isinstance(xs, np.ndarray) else np.array(xs, dtype=object)
    rs = ctx.rs
    if arr.shape == (0,):  # an empty list has no rows to give the rank by
        arr = arr.reshape(0, rs.rank)
    if arr.ndim != 2 or arr.shape[1] != rs.rank:
        raise ValidationError(f"batch of shape {arr.shape} is not a list of rank-{rs.rank} points")
    if arr.dtype.kind not in "iuO":
        raise ValidationError("batch entries must be integers")
    if arr.dtype == object:
        arr = np.array([check_weight(rs, row) for row in arr], dtype=object).reshape(arr.shape)
    kappa = ctx.kappa
    den = rs.form_den * kappa
    ys = kernels.int_rows(arr, den)
    labels = kernels.extended_batch(rs.comarks, kappa, ys)
    status = (labels == 0).any(axis=1).astype(np.int64)
    lengths = np.zeros(len(ys), dtype=ys.dtype)
    out = np.flatnonzero((labels < 0).any(axis=1))
    if out.size == 0:
        return ys, lengths, status
    xs = ys[out]
    shifts = (xs @ rs.np_form_int) // den
    length, moved_length = kernels.alcove_length_batch(
        rs.np_root_pairs, rs.np_positive_roots, den, xs, shifts
    )
    moved = xs - kappa * shifts @ rs.np_simple_coroots
    start = np.where((moved_length < length)[:, None], moved, xs)
    ys[out], _, status[out] = kernels.alcove_reduce_batch(
        rs.np_colour_classes, rs.comarks, kappa, np.minimum(moved_length, length), start
    )
    lengths[out] = length
    return ys, lengths, status


def total_degree(ctx: AffineContext, lambdas: list) -> "int | None":
    """Sum of reduction lengths of the rho-shifted weights; None if any wall.

    The None return is the vanishing verdict: some lambda + rho sits on an
    affine wall, so the whole product contributes nothing.  Lengths and
    walls come in closed form; no reduced point is computed.
    """
    total = 0
    for lam in lambdas:
        lam = check_dominant(ctx.rs, lam)
        length, wall, _, _ = _lengths(ctx, tuple(v + 1 for v in lam))
        if wall:
            return None
        total += length
    return total


def _induced(ctx: AffineContext, lam: tuple) -> "tuple[tuple, int] | None":
    """The alcove label and reduction length that the dominant weight lam
    induces at level ctx.h, or None when lam + rho is on an affine wall.

    The wall verdict comes first, in closed form, so a wall point is neither
    translated nor swept; the label of any other is its reduced point less
    rho, the point reduced as :func:`alcove_reduce` reduces it.
    """
    y = tuple(v + 1 for v in check_dominant(ctx.rs, lam))
    labels = extended(ctx.rs, ctx.kappa, y)
    if min(labels) >= 0:
        return None if 0 in labels else (tuple(v - 1 for v in y), 0)
    closed = length, wall, _, _ = _lengths(ctx, y)
    if wall:
        return None
    return tuple(v - 1 for v in _sweep_to_alcove(ctx, y, labels, closed)), length


def check_alcove(rs: RootSystem, k: int, weight: tuple) -> tuple:
    """weight as a level-k label (a tuple of ints), or ValidationError: a
    dominant weight of level at most k, every extended label at level k
    nonnegative."""
    weight = check_weight(rs, weight)
    if min(extended(rs, k, weight)) < 0:
        raise ValidationError(f"weight {weight} is outside the level-{k} alcove of {rs.spec}")
    return weight
