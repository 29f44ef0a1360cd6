"""Finite-dimensional representation combinatorics.

Dimensions by the Weyl product, weight multiplicities by the Freudenthal
recursion in exact scaled-integer arithmetic, tensor decomposition by the
Klimyk reflection rule, and Weyl-character evaluation at the torus points
whose ratios reproduce S-matrix columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import ResourceError, ValidationError
from .rootdata import (
    RootSystem,
    Weight,
    check_rank,
    dominant_reduce,
    is_dominant,
    pairing_int,
    weyl_orbit,
)

WEIGHT_CAP_DEFAULT = 10**6


class WeightCombination:
    """Bookkeeping of a finitely supported integer combination of weights.

    Subclasses are dataclasses declaring ``terms``; their generated equality
    compares fields only between instances of the same class.
    """

    terms: dict[Weight, int]

    def __post_init__(self) -> None:
        self.terms = {tuple(w): int(c) for w, c in self.terms.items() if c != 0}

    def add(self, weight: Weight, coeff: int) -> None:
        new = self.terms.get(weight, 0) + coeff
        if new:
            self.terms[weight] = new
        else:
            self.terms.pop(weight, None)

    def __bool__(self) -> bool:
        return bool(self.terms)


@dataclass
class VirtualCharacter(WeightCombination):
    """Finitely supported integer combination of dominant weights."""

    terms: dict[Weight, int] = field(default_factory=dict)


@dataclass
class WeightMultiplicities:
    """Every weight of one irrep with its multiplicity (Weyl-symmetric)."""

    highest: Weight
    by_weight: dict[Weight, int]
    dominant: dict[Weight, int]

    def total(self) -> int:
        return sum(self.by_weight.values())


def _check_dominant(rs: RootSystem, lam: tuple) -> Weight:
    check_rank(rs, lam)
    lam = tuple(int(v) for v in lam)
    if not is_dominant(lam):
        raise ValidationError(f"weight {lam} is not dominant")
    return lam


def weyl_dimension(rs: RootSystem, lam: tuple) -> int:
    """dim V_lambda = prod over positive roots of (lam+rho, a^vee)/(rho, a^vee)."""
    lam = _check_dominant(rs, lam)
    shifted = [v + 1 for v in lam]
    out = Fraction(1)
    for coroot in rs.positive_coroots:
        num = sum(c * v for c, v in zip(coroot, shifted))
        den = sum(coroot)
        out *= Fraction(num, den)
    assert out.denominator == 1 and out > 0
    return int(out)


def _height_vector(rs: RootSystem, x: tuple) -> list[Fraction]:
    return [
        sum(rs._cartan_inv[j][k] * x[k] for k in range(rs.rank))
        for j in range(rs.rank)
    ]


@lru_cache(maxsize=256)
def _weight_system(rs: RootSystem, lam: Weight, cap: int) -> WeightMultiplicities:
    r = rs.rank
    lam_star, _ = dominant_reduce(rs, tuple(-v for v in lam))
    depth_vec = _height_vector(rs, tuple(a + b for a, b in zip(lam, lam_star)))
    assert all(v.denominator == 1 for v in depth_vec)
    max_depth = sum(int(v) for v in depth_vec)

    # dominant candidates lam - sum c_j alpha_j grouped by depth sum(c)
    by_depth: list[list[Weight]] = [[] for _ in range(max_depth + 1)]
    by_depth[0].append(lam)
    seen = {lam}
    frontier = [lam]
    count = 1
    for depth in range(1, max_depth + 1):
        nxt = []
        for x in frontier:
            for alpha in rs.simple_roots:
                y = tuple(v - a for v, a in zip(x, alpha))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    count += 1
                    if count > cap:
                        raise ResourceError(
                            f"weight system of {lam} exceeds the cap {cap}"
                        )
        for y in nxt:
            if is_dominant(y):
                by_depth[depth].append(y)
        frontier = nxt

    # Freudenthal recursion, exact: the scaled form makes every term integral
    rho = rs.rho
    lam_rho = tuple(v + 1 for v in lam)
    lam_rho_sq = pairing_int(rs, lam_rho, lam_rho)
    mults: dict[Weight, int] = {lam: 1}
    pos = rs.positive_roots
    pos_heights = rs.root_heights
    for depth in range(1, max_depth + 1):
        for nu in sorted(by_depth[depth]):
            numer = 0
            for alpha, a_ht in zip(pos, pos_heights):
                j = 1
                while j * a_ht <= depth:
                    mu = tuple(v + j * a for v, a in zip(nu, alpha))
                    m = mults.get(dominant_reduce(rs, mu)[0], 0)
                    if m == 0:
                        break
                    numer += m * pairing_int(rs, mu, alpha)
                    j += 1
            nu_rho = tuple(v + 1 for v in nu)
            denom = lam_rho_sq - pairing_int(rs, nu_rho, nu_rho)
            assert denom > 0
            q, rem = divmod(2 * numer, denom)
            assert rem == 0 and q >= 0
            if q:
                mults[nu] = q

    full: dict[Weight, int] = {}
    for nu, m in mults.items():
        for w in weyl_orbit(rs, nu):
            full[w] = m
    out = WeightMultiplicities(highest=lam, by_weight=full, dominant=dict(mults))
    assert out.total() == weyl_dimension(rs, lam)
    return out


def weight_multiplicities(
    rs: RootSystem, lam: tuple, cap: int = WEIGHT_CAP_DEFAULT
) -> WeightMultiplicities:
    """All weights of the irrep with highest weight lam, with multiplicities."""
    lam = _check_dominant(rs, lam)
    return _weight_system(rs, lam, cap)


def tensor_decompose(rs: RootSystem, lam: tuple, mu: tuple) -> VirtualCharacter:
    """Klimyk rule: reflect lam + rho + (each weight of mu) back to dominance.

    The result is the honest decomposition of the tensor product, so every
    coefficient is nonnegative and the dimension identity holds.
    """
    lam = _check_dominant(rs, lam)
    mu = _check_dominant(rs, mu)
    return VirtualCharacter(dict(_tensor_cached(rs, lam, mu)))


@lru_cache(maxsize=8192)
def _tensor_cached(rs: RootSystem, lam: Weight, mu: Weight) -> tuple:
    if weyl_dimension(rs, mu) > weyl_dimension(rs, lam):
        lam, mu = mu, lam  # iterate over the smaller weight system
    system = weight_multiplicities(rs, mu)
    weights = list(system.by_weight.items())
    shifted = [tuple(l + 1 + w for l, w in zip(lam, wt)) for wt, _ in weights]
    out = VirtualCharacter()
    if max((abs(v) for row in shifted for v in row), default=0) < kernels.INT64_SAFE_LIMIT:
        rows = np.array(shifted, dtype=np.int64).reshape(len(shifted), rs.rank)
        reduced, signs, _ = kernels.dominant_reduce_batch(rs.np_simple, rows)
        for (_, mult), red, sign in zip(weights, reduced, signs):
            if (red == 0).any():
                continue
            target = tuple(int(v) - 1 for v in red)
            out.add(target, int(sign) * mult)
    else:
        for (_, mult), row in zip(weights, shifted):
            red, sign = dominant_reduce(rs, row)
            if any(v == 0 for v in red):
                continue
            out.add(tuple(v - 1 for v in red), sign * mult)
    assert all(v > 0 for v in out.terms.values())
    return tuple(sorted(out.terms.items()))


def tensor_dimension_identity(rs: RootSystem, lam: tuple, mu: tuple) -> bool:
    """Check sum of c^nu * dim(nu) = dim(lam) * dim(mu) exactly."""
    decomp = tensor_decompose(rs, lam, mu)
    lhs = sum(c * weyl_dimension(rs, nu) for nu, c in decomp.terms.items())
    return lhs == weyl_dimension(rs, lam) * weyl_dimension(rs, mu)


def character_numerator(rs: RootSystem, kappa: int, lam: tuple, mu: tuple) -> complex:
    """Signed Weyl sum sum_w eps(w) exp(-2 pi i (w(lam+rho), mu+rho)/kappa)."""
    mats, signs = rs.weyl_matrices()
    row = np.array([[v + 1 for v in lam]], dtype=np.int64)
    col = np.array([[v + 1 for v in mu]], dtype=np.int64)
    denom = rs.form_den * kappa
    return complex(
        kernels.signed_weyl_sum(mats, signs, rs.np_form_int, row, col, denom)[0, 0]
    )


def character_ratio(rs: RootSystem, k: int, lam: tuple, mu: tuple) -> complex:
    """Weyl character of lam evaluated at exp(-2 pi i (mu+rho)/kappa), kappa=k+c.

    Equals the S-matrix ratio S_{lam,mu}/S_{0,mu} when lam is an alcove
    weight; defined for every dominant lam.
    """
    from .affine_weyl import check_alcove  # local import to avoid a cycle

    lam = _check_dominant(rs, lam)
    check_rank(rs, mu)
    check_alcove(rs, k, mu)
    kappa = k + rs.dual_coxeter
    num = character_numerator(rs, kappa, lam, mu)
    den = character_numerator(rs, kappa, (0,) * rs.rank, mu)
    return num / den
