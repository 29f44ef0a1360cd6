"""Shifted affine Weyl action at level kappa: walls, alcove reduction, degree.

All points handled here are rho-shifted: the fundamental alcove is the set
with (x, alpha_i^vee) >= 0 for simple coroots and (x, theta^vee) <= kappa,
its interior the strict version, and the walls the affine hyperplanes
(x, alpha) in kappa*Z over positive roots.  Every sweep, and a single
point's alcove test, reads the extended Dynkin labels of
:func:`rootdata.extended`, where the closed alcove is the orthant y >= 0,
its walls the points with a zero label, and s_0 is one generator among the
rest.  A batch reads its verdicts off the closed form instead: a point is
off the closed alcove exactly when its closed-form length is positive, and
on a wall when some (x, alpha) lies in kappa*Z, so one product of the rows
with the positive roots decides both before any labels are built.

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
gets them and its wall flags from one product
(:func:`kernels.alcove_length_batch`), a single point grows its pairings
root by root, each root being an earlier one plus a simple root.
Every violated reflection crosses exactly one separating wall, so any order
reaches the same point in exactly that many reflections, and an affine Weyl
element maps walls to walls, so x is on one exactly when its reduced point
is.  Nothing here walks from x letter by letter: the status, the length (the
cohomological degree) and the reduced point are the whole answer, and none
of them depends on a path.

Everything past the entry runs in integers.  A rational point x is scaled
once, where it enters (:func:`_scaled`): with d its common denominator, d*x
at level d*kappa - c has d times the extended labels of x, so the same
walls, lengths, translate and sweeps, and the reduced point is divided by d
once on the way out.  Lengths, translates and sweeps never see a
``Fraction``, and an integer point builds none and never loads ``fractions``.

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
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ValidationError
from .rootdata import (
    CheckedRecord,
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


class _AffineContextFields(NamedTuple):
    rs: RootSystem
    h: int


class AffineContext(CheckedRecord, _AffineContextFields):
    """Root system plus a nonnegative twisting level h; kappa = h + c."""

    __slots__ = ()

    def __new__(cls, rs: RootSystem, h: int) -> "AffineContext":
        return tuple.__new__(cls, (rs, as_nonnegative(h, "level")))

    @property
    def kappa(self) -> int:
        return self.h + self.rs.dual_coxeter


class AlcoveReduction(NamedTuple):
    """Outcome of reducing one point into the closed fundamental alcove.

    ``length`` counts the walls strictly separating the input from the
    alcove and ``sign`` is (-1)^length; for wall points neither carries
    meaning (the point sits on the closed-alcove boundary).
    """

    status: str
    reduced: tuple
    length: int
    sign: int


def _scaled(ctx: AffineContext, x: tuple) -> tuple[AffineContext, tuple, int]:
    """(context, point, d): the one entry of a point into the integer core.

    Integer coordinates (ints, np.integers) pass as Python ints with d = 1.
    A rational point x becomes d*x, with d its common denominator, in the
    context of level d*kappa - c: its extended labels are d times those of
    x, so its walls, lengths, translate and sweeps are those of x.  Anything
    else, a float included, raises ValidationError.
    """
    check_rank(ctx.rs, x)
    try:
        return ctx, tuple(map(operator.index, x)), 1
    except TypeError:
        from fractions import Fraction

        x = [v if isinstance(v, Fraction) else as_int(v) for v in x]
    d = math.lcm(*(v.denominator for v in x))
    return AffineContext(ctx.rs, d * ctx.kappa - ctx.rs.dual_coxeter), tuple(int(v * d) for v in x), d


def _unscaled(y: tuple, d: int) -> tuple:
    """The point y/d that :func:`_scaled` scaled by d, integral coordinates as ints."""
    if d == 1:
        return y
    from fractions import Fraction

    return tuple(v // d if v % d == 0 else Fraction(v, d) for v in y)


def _lengths(ctx: AffineContext, x: tuple) -> tuple[int, bool, int, list]:
    """Closed-form reduction length of x, whether x is on a wall, the length
    of its kappa*Q^vee translate and the shift n that :func:`_translate` moves
    it by, exactly, in one pass over the positive roots.

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
    y = x
    for n, coroot in zip(shift, ctx.rs.simple_coroot_weights):
        if n:
            step = n * ctx.kappa
            y = [v - step * c for v, c in zip(y, coroot)]
    return tuple(y)


def on_wall(ctx: AffineContext, x: tuple) -> bool:
    """Exact test: does some positive root alpha have (x, alpha) in kappa*Z?

    The reflection hyperplanes of the shifted action at scale kappa are
    (x, alpha) = n*kappa over roots alpha, with the form normalized so long
    roots have (alpha, alpha) = 2.  x is checked and scaled as
    :func:`alcove_reduce` does it.
    """
    return _lengths(*_scaled(ctx, x)[:2])[1]


def _sweep_to_alcove(ctx: AffineContext, x: tuple, labels: tuple, closed: tuple) -> tuple:
    """The closed-alcove point of the orbit of x, whose extended labels are
    ``labels`` and whose :func:`_lengths` are ``closed``.  Cyclic sweeps
    reach it from x or from its translate, whichever has the shorter length,
    in exactly that many reflections, all in integers."""
    length, _, moved, shift = closed
    if moved < length:
        labels, length = extended(ctx.rs, ctx.kappa, _translate(ctx, x, shift)), moved
    y = list(labels)
    sweep_reduce(ctx.rs.affine_supports, y, length)
    return tuple(y[1:])


def alcove_reduce(ctx: AffineContext, x: tuple) -> AlcoveReduction:
    """Reduce a rational point into the closed fundamental alcove, exactly.

    Coordinates are ints, np.integers or Fractions; anything else raises
    ValidationError.  A rational point is reduced as d times itself at level
    d*kappa - c (:func:`_scaled`) and divided by d once on the way out, so
    the reduction runs in integers.  Points already in the closed alcove
    cost one violation test.  Others get their length and wall status in
    closed form; the reduced point is swept to from x or from its
    kappa*Q^vee translate, whichever is shorter.
    """
    sctx, y, d = _scaled(ctx, x)
    labels = extended(ctx.rs, sctx.kappa, y)
    if min(labels) >= 0:
        return AlcoveReduction(WALL if 0 in labels else INTERIOR, _unscaled(y, d), 0, 1)
    closed = length, wall, _, _ = _lengths(sctx, y)
    reduced = _unscaled(_sweep_to_alcove(sctx, y, labels, closed), d)
    return AlcoveReduction(WALL if wall else INTERIOR, reduced, length, -1 if length % 2 else 1)


def alcove_reduce_batch(ctx: AffineContext, xs: np.ndarray):
    """Vectorized reduction of integer points; (reduced, lengths, wall flags).

    Each row is :func:`alcove_reduce` in closed form first: one
    :func:`kernels.alcove_length_batch` product over the positive roots gives
    every row's length, that of its kappa*Q^vee translate, and its wall flag,
    true when some (x, alpha) lies in kappa*Z, as :func:`_lengths` gives
    them for one point.  A row of length 0 is in the closed alcove and
    stays.  One kernel call sweeps the others, each from x or the translate,
    whichever is shorter, taking that length as its reflection count.  The
    rows run as int64 when they and the alcove's scale fit the kernels'
    range, otherwise as Python ints, in which case reduced points and
    lengths come back as object arrays.  Non-integer entries raise
    ValidationError.
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
    shifts = (ys @ rs.np_form_int) // den
    lengths, moved_lengths, walls = kernels.alcove_length_batch(
        rs.np_root_pairs, rs.np_positive_roots, den, ys, shifts
    )
    [out] = lengths.nonzero()
    if out.size:
        moved = ys - kappa * shifts @ rs.np_simple_coroots
        start = np.where((moved_lengths < lengths)[:, None], moved, ys)
        ys[out], _ = kernels.alcove_reduce_batch(
            rs.np_alcove_classes, rs.comarks, kappa,
            np.minimum(moved_lengths, lengths).take(out), start.take(out, axis=0),
        )
    return ys, lengths, walls.astype(np.int64)


def total_degree(ctx: AffineContext, lambdas: list) -> "int | None":
    """Sum of reduction lengths of the rho-shifted weights; None if any wall.

    The None return is the vanishing verdict: some lambda + rho sits on an
    affine wall, so the whole product contributes nothing.  Lengths and
    walls come in closed form; no reduced point is computed.
    """
    total = 0
    for lam in lambdas:
        length, wall, _, _ = _lengths(ctx, tuple(v + 1 for v in check_dominant(ctx.rs, lam)))
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
    return None if wall else (tuple(v - 1 for v in _sweep_to_alcove(ctx, y, labels, closed)), length)


def check_alcove(rs: RootSystem, k: int, weight: tuple) -> tuple:
    """weight as a level-k label (a tuple of ints), or ValidationError: a
    dominant weight of level at most k, every extended label at level k
    nonnegative."""
    weight = check_weight(rs, weight)
    if min(extended(rs, k, weight)) < 0:
        raise ValidationError(f"weight {weight} is outside the level-{k} alcove of {rs.spec}")
    return weight
