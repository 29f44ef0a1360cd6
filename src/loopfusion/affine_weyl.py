"""Shifted affine Weyl action at level kappa: walls, alcove reduction, degree.

All points handled here are rho-shifted: the fundamental alcove is the set
with (x, alpha_i^vee) >= 0 for simple coroots and (x, theta^vee) <= kappa,
its interior the strict version, and the walls the affine hyperplanes
(x, alpha^vee) in kappa*Z over positive roots.  Reduction is greedy: apply
the lowest-index violated generator, the affine reflection counting as
index 0, then the simple reflections as 1..rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import ResourceError, ValidationError
from .rootdata import RootSystem, check_rank, theta_pairing

INTERIOR = "interior"
WALL = "wall"


@dataclass(frozen=True)
class AffineContext:
    """Root system plus a nonnegative twisting level h; kappa = h + c."""

    rs: RootSystem
    h: int

    def __post_init__(self) -> None:
        if not isinstance(self.h, int) or self.h < 0:
            raise ValidationError(f"level must be a nonnegative integer, got {self.h!r}")

    @property
    def kappa(self) -> int:
        return self.h + self.rs.dual_coxeter

    @property
    def step_budget(self) -> int:
        """Cap on alcove-walk steps (sweeps in the batch kernel).

        The walk needs about one step per wall crossed, so the budget caps
        the supported coordinate magnitude at a comfortable multiple of kappa.
        """
        return 10 * self.kappa * len(self.rs.positive_roots) + 10


@dataclass(frozen=True)
class AlcoveReduction:
    """Outcome of reducing one point into the closed fundamental alcove.

    ``word`` lists the generators applied, in application order; feeding it
    to :func:`apply_affine_word` reversed-composition style maps ``reduced``
    back to the input.  For wall points ``length`` and ``sign`` carry no
    meaning (the point sits on the closed-alcove boundary).
    """

    status: str
    reduced: tuple
    length: int
    sign: int
    word: tuple[int, ...]


def _normalize(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def reflect_generator(ctx: AffineContext, x: tuple, idx: int) -> tuple:
    """Apply generator idx: 0 is the affine wall reflection, i>=1 is s_i."""
    rs = ctx.rs
    if not 0 <= idx <= rs.rank:
        raise ValidationError(f"generator index {idx} outside 0..{rs.rank}")
    if idx == 0:
        excess = theta_pairing(rs, x) - ctx.kappa
        return tuple(_normalize(v - excess * t) for v, t in zip(x, rs.highest_root))
    alpha = rs.simple_roots[idx - 1]
    c = x[idx - 1]
    return tuple(_normalize(v - c * a) for v, a in zip(x, alpha))


def apply_affine_word(ctx: AffineContext, word: tuple[int, ...], x: tuple) -> tuple:
    """Apply a generator word to x, the last entry acting first."""
    for idx in reversed(word):
        x = reflect_generator(ctx, x, idx)
    return tuple(x)


def on_wall(ctx: AffineContext, x: tuple) -> bool:
    """Exact test: does some positive root alpha have (x, alpha) in kappa*Z?

    The reflection hyperplanes of the shifted action at scale kappa are
    (x, alpha) = n*kappa over roots alpha, with the form normalized so long
    roots have (alpha, alpha) = 2.  In coroot terms the condition reads
    (x, alpha^vee) in (kappa / d_alpha)*Z with d_alpha = (alpha, alpha)/2,
    so short roots of the B, C, F and G series need the wider spacing.
    """
    check_rank(ctx.rs, x)
    kappa = ctx.kappa
    for coroot, d in zip(ctx.rs.positive_coroots, ctx.rs.positive_halfnorms):
        value = sum(c * v for c, v in zip(coroot, x))
        if (Fraction(value) * d / kappa).denominator == 1:
            return True
    return False


def _violated_index(ctx: AffineContext, x: tuple, affine_first: bool):
    finite = next((i + 1 for i, v in enumerate(x) if v < 0), None)
    affine = 0 if theta_pairing(ctx.rs, x) > ctx.kappa else None
    if affine_first:
        return affine if affine is not None else finite
    return finite if finite is not None else affine


def alcove_reduce(ctx: AffineContext, x: tuple, order: str = "affine_first") -> AlcoveReduction:
    """Greedy reduction of a rational point into the closed fundamental alcove.

    ``order`` picks which violated generator fires first ("affine_first" is
    the default convention, "finite_first" the alternate); the resulting
    length is the same either way, which the test suite exercises.
    """
    check_rank(ctx.rs, x)
    if order not in ("affine_first", "finite_first"):
        raise ValidationError(f"unknown reduction order {order!r}")
    y = tuple(_normalize(v) for v in x)
    word: list[int] = []
    bound = ctx.step_budget
    for _ in range(bound):
        idx = _violated_index(ctx, y, order == "affine_first")
        if idx is None:
            break
        y = reflect_generator(ctx, y, idx)
        word.append(idx)
    else:
        raise ResourceError(
            f"alcove reduction exceeded {bound} steps; "
            "coordinate magnitudes far beyond the level are not supported"
        )
    wall = any(v == 0 for v in y) or theta_pairing(ctx.rs, y) == ctx.kappa
    length = len(word)
    return AlcoveReduction(
        status=WALL if wall else INTERIOR,
        reduced=y,
        length=length,
        sign=-1 if length % 2 else 1,
        word=tuple(word),
    )


def alcove_reduce_batch(ctx: AffineContext, xs: np.ndarray):
    """Vectorized reduction of integer points; (reduced, lengths, wall flags).

    Uses the int64 kernels when magnitudes permit, otherwise the exact
    per-point path; results agree exactly.
    """
    arr = np.asarray(xs)
    rs = ctx.rs
    if arr.dtype.kind in "iu" and kernels.fits_int64(arr):
        arr64 = np.ascontiguousarray(arr, dtype=np.int64)
        return kernels.alcove_reduce_batch(
            rs.np_simple, rs.np_theta, rs.np_comarks, ctx.kappa, arr64, ctx.step_budget
        )
    reduced = np.empty(arr.shape, dtype=np.int64)
    lengths = np.zeros(len(arr), dtype=np.int64)
    status = np.zeros(len(arr), dtype=np.int64)
    for a, row in enumerate(arr):
        red = alcove_reduce(ctx, tuple(int(v) for v in row))
        reduced[a] = red.reduced
        lengths[a] = red.length
        status[a] = 1 if red.status == WALL else 0
    return reduced, lengths, status


def total_degree(ctx: AffineContext, lambdas: list) -> "int | None":
    """Sum of reduction lengths of the rho-shifted weights; None if any wall.

    The None return is the vanishing verdict: some lambda + rho sits on an
    affine wall, so the whole product contributes nothing.
    """
    total = 0
    for lam in lambdas:
        check_rank(ctx.rs, lam)
        if any(v < 0 for v in lam):
            raise ValidationError(f"weight {lam} is not dominant")
        shifted = tuple(v + 1 for v in lam)
        red = alcove_reduce(ctx, shifted)
        if red.status == WALL:
            return None
        total += red.length
    return total


def in_alcove(rs: RootSystem, k: int, weight: tuple) -> bool:
    """Dominant and (weight, theta^vee) <= k: the level-k label condition."""
    return all(v >= 0 for v in weight) and theta_pairing(rs, weight) <= k


def check_alcove(rs: RootSystem, k: int, weight: tuple) -> None:
    check_rank(rs, weight)
    if not in_alcove(rs, k, weight):
        raise ValidationError(
            f"weight {tuple(weight)} is outside the level-{k} alcove of {rs.spec}"
        )
