"""Finite-dimensional representation combinatorics.

Dimensions by the Weyl product, weight multiplicities by the Freudenthal
recursion in exact scaled-integer arithmetic over the dominant weights only
(Moody-Patera), each expanded to its Weyl orbit as soon as its multiplicity
is known.  The recursion reads each root string once: it keeps, for this
recursion only, the tail sums of m(w) (w, alpha) up each alpha-string,
filled from the top, so its cost grows with the number of weights, not
with their size.  Then the Klimyk reflection rule, and Weyl-character
evaluation at the torus points whose ratios reproduce S-matrix columns.

The Klimyk rule has one home, :func:`klimyk_reduce`: the rows offset + nu
over the weights nu of V_lam, for many offsets at once, swept as extended
Dynkin labels at a level kappa into the alcove in one kernel call, which
the rows that start on a wall skip.  At kappa = k + c these are the
Kac-Walton fusion rows; at a level no row reaches, the alcove is the
dominant chamber near every row, and
:func:`tensor_decompose` reads the tensor product off them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import pi, prod
from operator import add, mul, sub
from typing import NamedTuple

import numpy as np

from . import kernels
from .affine_weyl import check_alcove
from .errors import NumericalError, ResourceError
from .rootdata import (
    CheckedRecord,
    RootSystem,
    Weight,
    as_nonnegative,
    canonical_key,
    check_dominant,
    check_orbit_size,
    pairing_int,
    theta_pairing,
    weyl_cap,
    weyl_orbit,
)

WEIGHT_CAP_DEFAULT = 10**6
CHARACTER_TOLERANCE = 1e-9


class WeightCombination(CheckedRecord):
    """Bookkeeping of a finitely supported integer combination of weights.

    A slot-free mixin for NamedTuple records with a ``terms`` field: each
    subclass builds its terms through :meth:`_normal` (weights as tuples,
    coefficients as ints, zeros dropped, a fresh dict when none is given),
    ``_replace`` included, and compares field by field as a tuple.
    """

    __slots__ = ()
    terms: dict[Weight, int]

    @staticmethod
    def _normal(terms) -> dict[Weight, int]:
        return {tuple(w): int(c) for w, c in (terms or {}).items() if c != 0}

    def add(self, weight: Weight, coeff: int) -> None:
        new = self.terms.get(weight, 0) + coeff
        if new:
            self.terms[weight] = new
        else:
            self.terms.pop(weight, None)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self, rs: RootSystem) -> list[tuple[Weight, int]]:
        """The (weight, coefficient) pairs in ``canonical_key`` order."""
        return sorted(self.terms.items(), key=lambda kv: canonical_key(rs, kv[0]))


class _VirtualCharacterFields(NamedTuple):
    terms: dict[Weight, int]


class VirtualCharacter(WeightCombination, _VirtualCharacterFields):
    """Finitely supported integer combination of dominant weights."""

    __slots__ = ()

    def __new__(cls, terms=None) -> "VirtualCharacter":
        return tuple.__new__(cls, (cls._normal(terms),))


class WeightMultiplicities(NamedTuple):
    """Every weight of one irrep with its multiplicity (Weyl-symmetric)."""

    highest: Weight
    by_weight: dict[Weight, int]
    dominant: dict[Weight, int]

    def total(self) -> int:
        return sum(self.by_weight.values())


def weyl_dimension(rs: RootSystem, lam: tuple) -> int:
    """dim V_lambda = prod over positive roots of (lam+rho, a^vee)/(rho, a^vee)."""
    lam = check_dominant(rs, lam)
    shifted = [v + 1 for v in lam]
    num = prod(sum(map(mul, coroot, shifted)) for coroot in rs.positive_coroots)
    out, rem = divmod(num, _rho_coroot_product(rs))
    assert rem == 0 and out > 0
    return out


@lru_cache(maxsize=None)
def _rho_coroot_product(rs: RootSystem) -> int:
    """prod over positive roots of (rho, a^vee), the Weyl dimension denominator."""
    return prod(sum(coroot) for coroot in rs.positive_coroots)


@lru_cache(maxsize=256)
def _weight_system(rs: RootSystem, lam: Weight, cap: int, orbit_cap: int) -> WeightMultiplicities:
    # The dominant weights of V_lam are the dominant nu <= lam, and each one
    # is reached from lam through dominant weights by subtracting positive
    # roots (Moody-Patera), so the closure below finds all of them without
    # touching the rest of the root-lattice cone.  The cap counts every
    # weight of each orbit found, in closed form, so it refuses before any
    # recursion runs; the alpha_i-string through lam alone refuses lam_i >=
    # cap at once.  The same count holds each orbit to the Weyl cap that its
    # expansion below will meet in weyl_orbit.  That cap is orbit_cap; both
    # caps are arguments so that they are part of the cache key: lowering
    # either refuses a cached system too.
    too_many = ResourceError(f"weight system of {lam} exceeds the cap {cap}")
    if max(lam) >= cap:
        raise too_many
    depth_of: dict[Weight, int] = {lam: 0}
    count = 0
    frontier = [lam]
    while frontier:
        nxt = []
        for x in frontier:
            count += check_orbit_size(rs, x, "Weyl orbit of {} in {}", x, rs.spec, cap=orbit_cap)
            if count > cap:
                raise too_many
            depth = depth_of[x]
            for alpha, a_ht in zip(rs.positive_roots, rs.root_heights):
                y = tuple(map(sub, x, alpha))
                if y not in depth_of and min(y) >= 0:
                    depth_of[y] = depth + a_ht
                    nxt.append(y)
        frontier = nxt

    # Freudenthal recursion, exact: the scaled form makes every term integral.
    # Each orbit is expanded as soon as its multiplicity is known (Klimyk
    # needs every weight anyway), so the higher weights nu + j*alpha that the
    # recursion reads are plain lookups.  The numerator for nu is
    # sum_alpha T_alpha(nu + alpha), with the tail sums
    # T_alpha(w) = sum_{j>=0} m(w + j*alpha) * form_den * (w + j*alpha, alpha)
    # kept for this recursion only: a string is walked up only to its first
    # known tail, or its top, and filled on the way down, so each (weight,
    # root) tail is summed once.  form_den * (w + j*alpha, alpha) is
    # w.pair + j * alpha.pair with pair the root's row of rs.root_pairs.
    lam_rho = tuple(v + 1 for v in lam)
    lam_rho_sq = pairing_int(rs, lam_rho, lam_rho)
    strings = [
        (alpha, pair, sum(map(mul, alpha, pair)), {})
        for alpha, pair in zip(rs.positive_roots, rs.root_pairs)
    ]
    mults: dict[Weight, int] = {}
    full: dict[Weight, int] = {}
    for nu in sorted(depth_of, key=lambda w: (depth_of[w], w)):
        if nu == lam:
            q = 1
        else:
            numer = 0
            for alpha, pair, step, tails in strings:
                mu = tuple(map(add, nu, alpha))
                string = []
                while mu not in tails and (m := full.get(mu, 0)):  # strings are unbroken
                    string.append((mu, m))
                    mu = tuple(map(add, mu, alpha))
                tail = tails.get(mu, 0)
                if string:
                    base = sum(map(mul, string[0][0], pair))
                    for j in range(len(string) - 1, -1, -1):
                        w, m = string[j]
                        tail += m * (base + j * step)
                        tails[w] = tail
                numer += tail
            nu_rho = tuple(v + 1 for v in nu)
            denom = lam_rho_sq - pairing_int(rs, nu_rho, nu_rho)
            assert denom > 0
            q, rem = divmod(2 * numer, denom)
            assert rem == 0 and q > 0
        mults[nu] = q
        full.update(dict.fromkeys(weyl_orbit(rs, nu), q))
    out = WeightMultiplicities(highest=lam, by_weight=full, dominant=mults)
    assert out.total() == weyl_dimension(rs, lam)
    return out


def weight_multiplicities(rs: RootSystem, lam: tuple) -> WeightMultiplicities:
    """All weights of the irrep with highest weight lam, with multiplicities.

    Raises ResourceError when the irrep has more than ``WEIGHT_CAP_DEFAULT``
    distinct weights.  The cap is that module constant, not an argument; it
    is read at each call and, like the Weyl cap, is part of the cache key.
    """
    lam = check_dominant(rs, lam)
    return _weight_system(rs, lam, WEIGHT_CAP_DEFAULT, weyl_cap())


def tensor_decompose(rs: RootSystem, lam: tuple, mu: tuple) -> VirtualCharacter:
    """Klimyk rule: reflect lam + rho + (each weight of mu) back to dominance.

    This is :func:`klimyk_product` at kappa = level(lam) + level(mu) + c,
    a level no row reaches: the dominant point of a row has level at most
    level(lam + rho) + level(mu) = kappa - 1, and (w y, theta) <= (y, theta)
    for dominant y, so s_0 never fires and no row meets an affine wall.
    Rows landing on a chamber wall cancel.  The result is the honest
    decomposition of the tensor product, so every coefficient is
    nonnegative and the dimension identity holds.
    """
    lam = check_dominant(rs, lam)
    mu = check_dominant(rs, mu)
    kappa = theta_pairing(rs, lam) + theta_pairing(rs, mu) + rs.dual_coxeter
    return VirtualCharacter(klimyk_product(rs, kappa, mu, lam))


def klimyk_product(rs: RootSystem, kappa: int, lam: Weight, mu: Weight) -> dict[Weight, int]:
    """V_lam (x) V_mu reduced at level kappa, as {weight: coefficient} in
    sorted order: one offset of :func:`klimyk_reduce`, over the weights of
    whichever factor has the smaller dimension (lam on a tie)."""
    if weyl_dimension(rs, mu) < weyl_dimension(rs, lam):
        lam, mu = mu, lam  # iterate over the smaller weight system
    [terms] = klimyk_reduce(rs, kappa, lam, [tuple(v + 1 for v in mu)])
    return dict(sorted(terms.items()))


def klimyk_reduce(rs: RootSystem, kappa: int, lam: Weight, offsets: list) -> list[dict[Weight, int]]:
    """The Klimyk rows offset + nu over the weights nu of V_lam, for many
    offsets at once, reduced at level kappa in one kernel call.

    The rows' extended labels at level kappa come from
    :func:`kernels.extended_rows`, int64 when every label fits the int64
    kernel range, otherwise Python ints.  A row with a zero label lies on a
    wall of the alcove; the affine Weyl group maps walls to walls, so its
    reduction stays on one and it cancels without reaching the kernel.  The
    rows with no zero label are swept into the orthant, the closed alcove,
    counting each row's reflections.  A swept row that lands on a wall
    cancels too; the others count with their multiplicity times
    (-1)^reflections.  The callers pick kappa so that a
    row crosses at most one wall per positive root, which bounds its
    reflections: with the offset mu + rho of an alcove label mu and lam
    one too, at kappa = k + c, the rows carry the level-k fusion product
    V_lam (x) V_mu (Walton 1990; Kac, *Infinite Dimensional Lie Algebras*,
    Exercise 13.35); at a level no row reaches, the tensor product.
    Returns one {weight: coefficient} per offset.
    """
    system = weight_multiplicities(rs, lam)
    offsets = kernels.int_rows(np.array(offsets, dtype=object).reshape(-1, rs.rank))
    weights = np.fromiter(chain.from_iterable(system.by_weight), np.int64).reshape(-1, rs.rank)
    labels = kernels.extended_rows(rs.comarks, kappa, (offsets[:, None, :] + weights).reshape(-1, rs.rank))
    live = np.flatnonzero(labels.all(axis=1))  # a row on a wall stays on one
    reduced, signs, _ = kernels.dominant_reduce_batch(
        rs.np_colour_classes, labels[live], len(rs.positive_roots)
    )
    kept = reduced.all(axis=1)  # rows reflected onto a wall cancel too
    mults = list(system.by_weight.values())
    which, at = np.divmod(live[kept], len(mults))
    out = [VirtualCharacter() for _ in offsets]
    for a, i, sign, point in zip(
        which.tolist(), at.tolist(), signs[kept].tolist(), (reduced[kept, 1:] - 1).tolist()
    ):
        out[a].add(tuple(point), sign * mults[i])
    assert all(m > 0 for row in out for m in row.terms.values()), "negative Klimyk coefficient"
    return [row.terms for row in out]


def character_ratio(rs: RootSystem, k: int, lam: tuple, mu: tuple) -> complex:
    """Weyl character of lam evaluated at exp(-2 pi i (mu+rho)/kappa), kappa=k+c.

    Equals the S-matrix ratio S_{lam,mu}/S_{0,mu} when lam is an alcove
    weight; defined for every dominant lam.  The two Weyl sums A_{lam+rho}(mu)
    and A_rho(mu) are one :func:`kernels.signed_weyl_sum` call, whose phases
    are exact mod form_den * kappa for weights and levels of any size.
    Each of the |W| terms of either sum carries a float error of at most
    about (2 pi + 1) eps, so the ratio chi is off by at most about
    |W| (2 pi + 1) eps (1 + |chi|) / |A_rho(mu)| to first order; raises
    NumericalError when that reaches CHARACTER_TOLERANCE, as it does near a
    wall of the level-k alcove at a large level, where both sums are small.
    """
    k = as_nonnegative(k, "level")
    lam = check_dominant(rs, lam)
    mu = check_alcove(rs, k, mu)
    mats, signs = rs.weyl_matrices()
    rows = np.array([[v + 1 for v in lam], rs.rho], dtype=object)
    col = np.array([[v + 1 for v in mu]], dtype=object)
    denom = rs.form_den * (k + rs.dual_coxeter)
    num, den = kernels.signed_weyl_sum(mats, signs, rs.np_form_int, rows, col, denom)[:, 0]
    # the error estimate times |A_rho(mu)|^2, so that a vanishing sum is refused too
    error = len(signs) * (2 * pi + 1) * np.finfo(float).eps * (abs(den) + abs(num))
    if not error < CHARACTER_TOLERANCE * abs(den) ** 2:
        raise NumericalError(
            f"character ratio of {lam} at {mu} has a float error estimate past "
            f"{CHARACTER_TOLERANCE}: |A_rho(mu)| = {abs(den):.3e}"
        )
    return complex(num / den)
