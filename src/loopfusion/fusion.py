"""Level-k fusion rings by two independent routes.

The numeric route diagonalizes fusion through the Kac-Peterson S-matrix:
the signed Weyl sum times its closed-form constant
i^|Delta+| / sqrt(kappa^r |P/Q^vee|), with the charge conjugation C read
exactly off the weights.  Nothing is fitted to the sum, so the build gates
symmetry, unitarity, a real positive first column and S^2 = C.
:func:`fuse_s` is the genus-0 case of the one Verlinde S-sum, which
:func:`verlinde.verlinde_dimension_s` shares: one rounding gate counts the
residual to the nearest integer plus a first-order error estimate from the
S-matrix's measured residual and float64 rounding.  The exact route is the
Kac-Walton algorithm, one signed affine-Weyl reduction of mu + rho + nu
over the weights nu of V_lam at kappa = k + c (Walton 1990; Kac, *Infinite
Dimensional Lie Algebras*, Exercise 13.35).  That is the Klimyk rule of
:func:`finite_reps.klimyk_reduce` at level kappa, which drops the rows
that start on a wall, sweeps the other rows' extended Dynkin labels into
the alcove in one kernel call, counting reflections for the sign, and
drops the rows that land on a wall; the tensor product
is the same rule at a level no row reaches.  :func:`kac_walton_rows` takes
a whole block of products V_lam (x) V_mu in one such call, and
:func:`fuse_kw` one product.  The exact route is authoritative; the test
suite holds the two equal on every desk-scale instance.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from . import kernels
from .affine_weyl import check_alcove
from .errors import NumericalError, ResourceError, ValidationError
from .finite_reps import WeightCombination, klimyk_product, klimyk_reduce
from .rootdata import (
    RootSystem,
    Weight,
    as_nonnegative,
    canonical_key,
    dominant_reduce,
    weyl_group_size,
)

S_TOLERANCE = 1e-9
ROUND_TOLERANCE = 1e-6
# bytes the Weyl sum behind s_matrix may take, about 24 * |W| * n^2 for n labels
S_BYTE_CAP = 1 << 32


class LevelWeight(NamedTuple):
    """An alcove label: dominant weight with (weight, theta^vee) <= k."""

    weight: Weight
    k: int


class _FusionElementFields(NamedTuple):
    k: int
    terms: dict[Weight, int]


class FusionElement(WeightCombination, _FusionElementFields):
    """Integer combination of level-k alcove labels; equality is level-aware."""

    __slots__ = ()

    def __new__(cls, k: int, terms=None) -> "FusionElement":
        return tuple.__new__(cls, (k, cls._normal(terms)))


def iter_alcove_labels(rs: RootSystem, k: int) -> Iterator[Weight]:
    """Every level-k alcove label, unordered and lazily.

    Each coordinate runs only as far as the level the earlier ones leave, so
    every prefix visited extends to a label: a label taken costs at most rank
    steps, and a caller counting them can stop early.
    """
    k = as_nonnegative(k, "level")
    comarks = rs.comarks
    point = [0] * len(comarks)

    def fill(i: int, left: int) -> Iterator[Weight]:
        if i == len(comarks):
            yield tuple(point)
            return
        for v in range(left // comarks[i] + 1):
            point[i] = v
            yield from fill(i + 1, left - v * comarks[i])

    return fill(0, k)


def more_labels_than(rs: RootSystem, k: int, most: int) -> bool:
    """Whether level k has more than ``most`` alcove labels.  Past the bound
    prod(k // c + 1) on their number the labels are counted lazily, at most
    most + 1 of them, so that a huge level is refused without listing them."""
    return math.prod(k // c + 1 for c in rs.comarks) > most and sum(
        1 for _ in itertools.islice(iter_alcove_labels(rs, k), most + 1)
    ) > most


def alcove_weights(rs: RootSystem, k: int) -> list[LevelWeight]:
    """Every level-k alcove label, canonically ordered, vacuum first."""
    k = as_nonnegative(k, "level")
    found = sorted(iter_alcove_labels(rs, k), key=lambda w: canonical_key(rs, w))
    return [LevelWeight(weight=w, k=k) for w in found]


class SMatrix(NamedTuple):
    """Kac-Peterson modular S-matrix on the level-k alcove labels."""

    labels: tuple[Weight, ...]
    entries: np.ndarray
    conjugation: np.ndarray  # label indexes of the conjugate labels: S @ S = C
    residual: float  # largest structural residual measured when built
    index: dict[Weight, int]  # label -> its row


_smatrix_cache: dict[tuple, SMatrix] = {}
_smatrix_lock = threading.Lock()


def _build_s_matrix(rs: RootSystem, k: int) -> SMatrix:
    # counted at 24 bytes per (w, a, b) term; the signed Weyl sum peaks near 16
    if more_labels_than(rs, k, math.isqrt(S_BYTE_CAP // (24 * weyl_group_size(rs)))):
        raise ResourceError(
            f"level-{k} S-matrix of {rs.spec} exceeds the cap of {S_BYTE_CAP} bytes "
            "for its Weyl sum"
        )
    labels = tuple(lw.weight for lw in alcove_weights(rs, k))
    index = {w: i for i, w in enumerate(labels)}
    n = len(labels)
    kappa = k + rs.dual_coxeter
    mats, signs = rs.weyl_matrices()
    shifted = np.array(labels, dtype=np.int64) + 1
    raw = kernels.signed_weyl_sum(mats, signs, rs.np_form_int, shifted, shifted, rs.form_den * kappa)
    # the Kac-Peterson constant in closed form: S = i^|Delta+| |P/kappa Q^vee|^(-1/2)
    # times the Weyl sum, |P/kappa Q^vee| = kappa^r |P/Q^vee| (Kac, section 13.8);
    # S^2 = C sends each label to its conjugate
    s = raw * (1j ** (len(rs.positive_roots) % 4) / math.sqrt(kappa**rs.rank * rs.coroot_index))
    perm = np.array([index[conjugate_weight(rs, w)] for w in labels])
    if np.real(s[:, 0]).min() <= 0:
        raise NumericalError("S-matrix first column is not strictly positive")
    checks = {
        "symmetry": np.abs(s - s.T).max(),
        "unitarity": np.abs(s @ s.conj().T - np.eye(n)).max(),
        "first column imaginary part": np.abs(np.imag(s[:, 0])).max(),
        "conjugation permutation": np.abs(s @ s - np.eye(n)[perm]).max(),
    }
    for name, resid in checks.items():
        if resid > S_TOLERANCE:
            raise NumericalError(f"S-matrix {name} residual {resid:.3e} > {S_TOLERANCE}")
    return SMatrix(labels, s, perm, float(max(checks.values())), index)


def s_matrix(rs: RootSystem, k: int) -> SMatrix:
    """The S-matrix at level k, cached; all structural gates enforced.

    A cache hit takes no lock: an entry is only ever published whole, by
    ``setdefault`` under ``_smatrix_lock``, so racing builds keep the first.
    """
    k = as_nonnegative(k, "level")
    weyl_group_size(rs)  # the Weyl cap may have been lowered since a cached build
    key = (rs.spec.series, rs.spec.rank, k)
    got = _smatrix_cache.get(key)
    if got is None:
        built = _build_s_matrix(rs, k)
        with _smatrix_lock:
            got = _smatrix_cache.setdefault(key, built)
    return got


def conjugate_weight(rs: RootSystem, weight: tuple) -> Weight:
    """Charge conjugation: the dominant representative of -weight (= -w0 w)."""
    return dominant_reduce(rs, tuple(-v for v in weight))[0]


def _verlinde_sum_s(sm: SMatrix, genus: int, labels, lasts=None) -> list[int]:
    """The genus-g S-matrix sum with label rows ``labels``, rounded, once for
    each row l of ``lasts``: sum_sigma S_0sigma^(2-2g-m) prod_i S_{i sigma}
    S_{l sigma}, m counting l; with ``lasts`` None, the one sum with no last
    factor.

    Raises NumericalError unless each value's distance to the nearest
    integer plus a first-order error estimate stays below ROUND_TOLERANCE,
    or when a value rounds negative.  The estimate takes each S entry as off
    by the largest residual measured when the S-matrix was built, plus
    float64 rounding in every factor and the sum.  The build fits no
    constant, so a Weyl sum off by a scale or a phase is refused there; an
    entry error that keeps S unitary, symmetric and S^2 = C still escapes
    those residuals, so this is an estimate, not a proof.
    """
    s = sm.entries
    s0 = np.real(s[0])
    m = len(labels) + (lasts is not None)
    exponent = 2 - 2 * genus - m
    factors = [np.abs(s[i]) for i in labels]
    base = s0.astype(np.complex128) ** exponent
    for i in labels:
        base = base * s[i]
    # d(s0^e) = e s0^(e-1) ds0, and a label factor's error multiplies the others
    others = np.zeros_like(s0)
    for j in range(len(factors)):
        others += np.prod(factors[:j] + factors[j + 1:], axis=0)
    eps = np.finfo(float).eps
    relative = abs(exponent) * sm.residual / s0 + (abs(exponent) + m + 1) * eps
    per_sigma = np.abs(base) * relative + sm.residual * s0**exponent * others
    if lasts is None:
        rows, spread = np.ones((1, len(s0))), 0.0
    else:
        # the last factor's own error multiplies every fixed factor
        rows = s[lasts]
        spread = sm.residual * float((s0**exponent * np.prod(factors, axis=0)).sum())
    values = rows @ base
    bound = np.abs(rows) @ per_sigma + spread
    rounded = np.rint(np.real(values))
    worst = int(np.argmax(np.abs(values - rounded) + bound))
    residual = abs(values[worst] - rounded[worst])
    if residual + bound[worst] >= ROUND_TOLERANCE:
        raise NumericalError(
            f"Verlinde sum residual {residual:.3e} plus error estimate {bound[worst]:.3e} "
            f">= {ROUND_TOLERANCE}"
        )
    if (rounded < 0).any():
        raise NumericalError("negative Verlinde sum after rounding")
    return [int(v) for v in rounded]


def fuse_s(rs: RootSystem, k: int, lam: tuple, mu: tuple) -> FusionElement:
    """Fusion coefficients through the genus-0 Verlinde sum over S-matrix
    columns, N_lam,mu^nu = sum_sigma S_lam,sigma S_mu,sigma S_nu*,sigma / S_0,sigma
    (S_nu*,sigma is the conjugate of S_nu,sigma), gated as every S-matrix sum."""
    k = as_nonnegative(k, "level")
    lam = check_alcove(rs, k, lam)
    mu = check_alcove(rs, k, mu)
    sm = s_matrix(rs, k)
    counts = _verlinde_sum_s(sm, 0, (sm.index[lam], sm.index[mu]), sm.conjugation)
    return FusionElement(k=k, terms=dict(zip(sm.labels, counts)))


def fuse_kw(rs: RootSystem, k: int, lam: tuple, mu: tuple) -> FusionElement:
    """Kac-Walton fusion, exact: :func:`finite_reps.klimyk_product` at
    kappa = k + c, the one-offset case of :func:`kac_walton_rows`."""
    k = as_nonnegative(k, "level")
    lam = check_alcove(rs, k, lam)
    mu = check_alcove(rs, k, mu)
    return FusionElement(k=k, terms=klimyk_product(rs, k + rs.dual_coxeter, lam, mu))


def kac_walton_rows(rs: RootSystem, k: int, lam: Weight, mus: list) -> list[dict[Weight, int]]:
    """The level-k products V_lam (x) V_mu for every alcove label mu in ``mus``, in one pass.

    The rows mu + rho + nu over the weights nu of V_lam go into the
    level-kappa alcove in one :func:`finite_reps.klimyk_reduce` call on
    their extended Dynkin labels, kappa = k + c.  lam and every mu are
    alcove labels, so |(nu, alpha)| <= level(lam) < kappa and
    0 < (mu + rho, alpha) < kappa for every positive root alpha: a row
    crosses at most one wall per positive root, which bounds its
    reflections.  Returns one {label: coefficient} per mu; raises
    ValidationError unless lam and every mu are level-k alcove labels.
    """
    k = as_nonnegative(k, "level")
    lam = check_alcove(rs, k, lam)
    shifted = [tuple(v + 1 for v in check_alcove(rs, k, mu)) for mu in mus]
    return klimyk_reduce(rs, k + rs.dual_coxeter, lam, shifted)


def fuse_elements(
    rs: RootSystem, k: int, left: FusionElement, right: FusionElement
) -> FusionElement:
    """Bilinear extension of fuse_kw to integer combinations of labels."""
    if left.k != k or right.k != k:
        raise ValidationError("fusion elements must share the ambient level")
    out = FusionElement(k=k)
    for wl, cl in left.terms.items():
        for wr, cr in right.terms.items():
            prod = fuse_kw(rs, k, wl, wr)
            for w, c in prod.terms.items():
                out.add(w, cl * cr * c)
    return out
