"""Level-k fusion rings by two independent routes.

The numeric route diagonalizes fusion through the Kac-Peterson S-matrix and
rounds with a hard residual gate; the exact route is the Kac-Walton
algorithm, a Klimyk tensor decomposition corrected by affine alcove
reflections at kappa = k + c.  The exact route is authoritative; the test
suite holds the two equal on every desk-scale instance.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels
from .affine_weyl import AffineContext, alcove_reduce_batch, check_alcove
from .errors import NumericalError, ValidationError
from .finite_reps import WeightCombination, tensor_decompose
from .rootdata import (
    RootSystem,
    Weight,
    canonical_key,
    dominant_representative,
    theta_pairing,
)

S_TOLERANCE = 1e-9
ROUND_TOLERANCE = 1e-6


@dataclass(frozen=True)
class LevelWeight:
    """An alcove label: dominant weight with (weight, theta^vee) <= k."""

    weight: Weight
    k: int


@dataclass
class FusionElement(WeightCombination):
    """Integer combination of level-k alcove labels; equality is level-aware."""

    k: int
    terms: dict[Weight, int] = field(default_factory=dict)

    def sorted_terms(self, rs: RootSystem) -> list[tuple[Weight, int]]:
        return sorted(self.terms.items(), key=lambda kv: canonical_key(rs, kv[0]))


def alcove_weights(rs: RootSystem, k: int) -> list[LevelWeight]:
    """Every level-k alcove label, canonically ordered, vacuum first."""
    if not isinstance(k, int) or k < 0:
        raise ValidationError(f"level must be a nonnegative integer, got {k!r}")
    ranges = [range(k // c + 1) for c in rs.comarks]
    found = [
        w for w in itertools.product(*ranges) if theta_pairing(rs, w) <= k
    ]
    found.sort(key=lambda w: canonical_key(rs, w))
    return [LevelWeight(weight=w, k=k) for w in found]


@dataclass
class SMatrix:
    """Kac-Peterson modular S-matrix on the level-k alcove labels."""

    labels: tuple[LevelWeight, ...]
    entries: np.ndarray
    tolerance: float
    conjugation: np.ndarray  # permutation: S @ S applied to label indexes

    def index(self, weight: Weight) -> int:
        if not hasattr(self, "_index"):
            self._index = {lw.weight: i for i, lw in enumerate(self.labels)}
        return self._index[tuple(weight)]


_smatrix_cache: dict[tuple, SMatrix] = {}
_smatrix_lock = threading.Lock()


def _build_s_matrix(rs: RootSystem, k: int, tolerance: float) -> SMatrix:
    labels = alcove_weights(rs, k)
    kappa = k + rs.dual_coxeter
    mats, signs = rs.weyl_matrices()
    shifted = np.array([[v + 1 for v in lw.weight] for lw in labels], dtype=np.int64)
    denom = rs.form_den * kappa
    raw = kernels.signed_weyl_sum(mats, signs, rs.np_form_int, shifted, shifted, denom)

    # raw is a scalar multiple of the unitary S; fix modulus then global phase
    gram = raw @ raw.conj().T
    scale_sq = float(np.mean(np.real(np.diag(gram))))
    if scale_sq <= 0:
        raise NumericalError("degenerate S-matrix normalization")
    off = gram - scale_sq * np.eye(len(labels))
    if np.abs(off).max() > tolerance * scale_sq * max(1.0, len(labels)):
        raise NumericalError(
            f"S-matrix candidate is not proportional to a unitary matrix "
            f"(residual {np.abs(off).max() / scale_sq:.3e})"
        )
    s = raw / np.sqrt(scale_sq)
    phase = s[0, 0] / abs(s[0, 0])
    s = s / phase

    checks = {
        "symmetry": np.abs(s - s.T).max(),
        "unitarity": np.abs(s @ s.conj().T - np.eye(len(labels))).max(),
        "first column imaginary part": np.abs(np.imag(s[:, 0])).max(),
    }
    if np.real(s[:, 0]).min() <= 0:
        raise NumericalError("S-matrix first column is not strictly positive")
    square = s @ s
    perm = np.argmax(np.abs(square), axis=1)
    p_mat = np.zeros_like(np.real(square))
    p_mat[np.arange(len(labels)), perm] = 1.0
    checks["conjugation permutation"] = np.abs(square - p_mat).max()
    if sorted(perm.tolist()) != list(range(len(labels))):
        raise NumericalError("S^2 did not round to a permutation")
    for name, resid in checks.items():
        if resid > tolerance:
            raise NumericalError(f"S-matrix {name} residual {resid:.3e} > {tolerance}")
    return SMatrix(
        labels=tuple(labels), entries=s, tolerance=tolerance, conjugation=perm
    )


def s_matrix(rs: RootSystem, k: int, tolerance: float = S_TOLERANCE) -> SMatrix:
    """The S-matrix at level k, cached; all structural gates enforced."""
    key = (rs.spec.series, rs.spec.rank, k, tolerance)
    with _smatrix_lock:
        got = _smatrix_cache.get(key)
    if got is not None:
        return got
    built = _build_s_matrix(rs, k, tolerance)
    with _smatrix_lock:
        return _smatrix_cache.setdefault(key, built)


def conjugate_weight(rs: RootSystem, weight: tuple) -> Weight:
    """Charge conjugation: the dominant representative of -weight (= -w0 w)."""
    return tuple(int(v) for v in dominant_representative(rs, tuple(-v for v in weight)))


def fuse_s(rs: RootSystem, k: int, lam: tuple, mu: tuple) -> FusionElement:
    """Fusion coefficients through the Verlinde sum over S-matrix columns."""
    check_alcove(rs, k, lam)
    check_alcove(rs, k, mu)
    sm = s_matrix(rs, k)
    s = sm.entries
    a = sm.index(lam)
    b = sm.index(mu)
    vec = s[a] * s[b] / s[0]
    values = s.conj() @ vec
    rounded = np.rint(np.real(values)).astype(np.int64)
    residual = np.abs(values - rounded).max()
    if residual >= ROUND_TOLERANCE:
        raise NumericalError(
            f"fusion rounding residual {residual:.3e} >= {ROUND_TOLERANCE}"
        )
    if (rounded < 0).any():
        raise NumericalError("negative fusion coefficient after rounding")
    out = FusionElement(k=k)
    for lw, coeff in zip(sm.labels, rounded):
        if coeff:
            out.add(lw.weight, int(coeff))
    return out


def fuse_kw(rs: RootSystem, k: int, lam: tuple, mu: tuple) -> FusionElement:
    """Kac-Walton fusion: exact tensor decomposition, alcove-corrected."""
    lam = tuple(int(v) for v in lam)
    mu = tuple(int(v) for v in mu)
    check_alcove(rs, k, lam)
    check_alcove(rs, k, mu)
    return FusionElement(k=k, terms=dict(_fuse_kw_cached(rs, k, lam, mu)))


@lru_cache(maxsize=32768)
def _fuse_kw_cached(rs: RootSystem, k: int, lam: Weight, mu: Weight) -> tuple:
    tensor = tensor_decompose(rs, lam, mu)
    ctx = AffineContext(rs, k)
    items = list(tensor.terms.items())
    rows = np.array([[v + 1 for v in nu] for nu, _ in items], dtype=np.int64)
    rows = rows.reshape(len(items), rs.rank)
    reduced, lengths, status = alcove_reduce_batch(ctx, rows)
    out = FusionElement(k=k)
    for (nu, mult), red, ell, st in zip(items, reduced, lengths, status):
        if st:
            continue
        sign = -1 if int(ell) % 2 else 1
        out.add(tuple(int(v) - 1 for v in red), sign * mult)
    assert all(c > 0 for c in out.terms.values()), "Kac-Walton output must be nonnegative"
    return tuple(sorted(out.terms.items()))


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
