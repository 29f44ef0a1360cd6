"""Genus-g dimension formulas, cohomology reports, and node factorization.

The Verlinde sum runs over the level-k alcove labels mu with weight
(S_{0mu})^(2-2g-m) times the product of S-matrix entries of the m inserted
labels (marked points and boundary labels alike).  Reports additionally
reduce arbitrary dominant insertions into the alcove first, recording the
vanishing verdict and the single cohomological degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine_weyl import WALL, AffineContext, alcove_reduce, check_alcove
from .errors import NumericalError, ValidationError
from .fusion import ROUND_TOLERANCE, conjugate_weight, s_matrix
from .rootdata import RootSystem, Weight, check_rank, is_dominant


@dataclass(frozen=True)
class Surface:
    """Genus plus labeled points: interior insertions and boundary labels."""

    genus: int
    insertions: tuple[Weight, ...] = ()
    boundary: tuple[Weight, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.genus, int) or self.genus < 0:
            raise ValidationError(f"genus must be a nonnegative integer, got {self.genus!r}")
        object.__setattr__(
            self, "insertions", tuple(tuple(w) for w in self.insertions)
        )
        # boundary entries may arrive as LevelWeight records or raw tuples
        object.__setattr__(
            self,
            "boundary",
            tuple(tuple(getattr(w, "weight", w)) for w in self.boundary),
        )


@dataclass(frozen=True)
class CohomologyReport:
    """Vanishing verdict, degree and dimension for one twisted product."""

    vanishes: bool
    degree: "int | None"
    dimension: int
    h: int
    surface: Surface

    @property
    def euler_characteristic(self) -> int:
        if self.vanishes:
            return 0
        sign = -1 if self.degree % 2 else 1
        return sign * self.dimension


def verlinde_dimension(rs: RootSystem, k: int, surface: Surface) -> int:
    """The S-matrix sum for a genus-g surface with labeled points; exact int."""
    labels = list(surface.insertions) + list(surface.boundary)
    for w in labels:
        check_alcove(rs, k, w)
    sm = s_matrix(rs, k)
    s = sm.entries
    s0 = np.real(s[0])
    exponent = 2 - 2 * surface.genus - len(labels)
    total = s0.astype(np.complex128) ** exponent
    for w in labels:
        total = total * s[sm.index(w)]
    value = total.sum()
    rounded = int(np.rint(np.real(value)))
    if abs(value - rounded) >= ROUND_TOLERANCE:
        raise NumericalError(
            f"Verlinde sum residual {abs(value - rounded):.3e} >= {ROUND_TOLERANCE}"
        )
    if rounded < 0:
        raise NumericalError("negative Verlinde dimension after rounding")
    return rounded


def cohomology_report(rs: RootSystem, h: int, surface: Surface) -> CohomologyReport:
    """Reduce arbitrary dominant insertions, then evaluate at level h.

    Vanishes when any rho-shifted insertion meets an affine wall; otherwise
    the degree is the summed reduction length and the dimension is the
    Verlinde number of the reduced surface.  The signed Euler characteristic
    is exposed as a property of the returned report.
    """
    ctx = AffineContext(rs, h)
    for w in surface.boundary:
        check_alcove(rs, h, w)
    reduced_insertions = []
    degree = 0
    for lam in surface.insertions:
        check_rank(rs, lam)
        if not is_dominant(lam):
            raise ValidationError(f"insertion {tuple(lam)} is not dominant")
        red = alcove_reduce(ctx, tuple(v + 1 for v in lam))
        if red.status == WALL:
            return CohomologyReport(
                vanishes=True, degree=None, dimension=0, h=h, surface=surface
            )
        reduced_insertions.append(tuple(v - 1 for v in red.reduced))
        degree += red.length
    dim = verlinde_dimension(
        rs,
        h,
        Surface(
            genus=surface.genus,
            insertions=tuple(reduced_insertions),
            boundary=surface.boundary,
        ),
    )
    return CohomologyReport(
        vanishes=False, degree=degree, dimension=dim, h=h, surface=surface
    )


def factorization_check(rs: RootSystem, k: int, surface: Surface) -> dict:
    """Node degeneration: genus g equals genus g-1 summed over dual pairs."""
    if surface.genus < 1:
        raise ValidationError("factorization needs genus >= 1")
    lhs = verlinde_dimension(rs, k, surface)
    rhs = 0
    for lw in s_matrix(rs, k).labels:
        mu = lw.weight
        degenerate = Surface(
            genus=surface.genus - 1,
            insertions=surface.insertions + (mu, conjugate_weight(rs, mu)),
            boundary=surface.boundary,
        )
        rhs += verlinde_dimension(rs, k, degenerate)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
