"""Exact root-system data for the simple Lie algebras.

Conventions used throughout the package:

* Weights are integer tuples in the fundamental-weight basis, so the i-th
  coordinate of x is the pairing (x, alpha_i^vee) with the i-th simple coroot.
* ``cartan[i][j]`` is the pairing of the j-th simple root with the i-th
  simple coroot; the fundamental-weight coordinates of alpha_j are therefore
  column j of the Cartan matrix.
* The invariant form is normalized so long roots have squared length 2,
  i.e. (theta, theta) = 2 for the highest root theta.  Under this
  normalization a coroot, viewed as a weight-space vector, is
  alpha^vee = 2*alpha/(alpha, alpha), and the form matrix on fundamental
  weights is D @ inverse(cartan) with D the symmetrizer diagonal.

Everything here is exact: integers and `fractions.Fraction`, no floats.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ResourceError, ValidationError

Weight = tuple[int, ...]
RationalVector = tuple[Fraction, ...]

WEYL_CAP_DEFAULT = 51840
WEYL_CAP_ENV = "LOOPFUSION_WEYL_CAP"

_VALID_RANKS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 3,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}

_SPEC_RE = re.compile(r"^\s*([A-Ga-g])\s*(\d+)\s*$")


def weyl_cap() -> int:
    """Current Weyl-order cap; raised via the LOOPFUSION_WEYL_CAP variable."""
    raw = os.environ.get(WEYL_CAP_ENV, "")
    if not raw:
        return WEYL_CAP_DEFAULT
    try:
        cap = int(raw)
        if cap >= 1:
            return cap
    except ValueError:
        pass
    raise ValidationError(f"{WEYL_CAP_ENV} must be a positive integer, got {raw!r}")


def check_weyl_cap(rs: "RootSystem") -> None:
    """Raise ResourceError when enumerating the Weyl group of rs exceeds the cap."""
    cap = weyl_cap()
    if rs.weyl_order > cap:
        raise ResourceError(
            f"Weyl order {rs.weyl_order} of {rs.spec} exceeds the cap {cap} "
            f"(raise {WEYL_CAP_ENV} to override)"
        )


@dataclass(frozen=True)
class AlgebraSpec:
    """A simple Lie algebra label: series A-G plus rank."""

    series: str
    rank: int

    def __post_init__(self) -> None:
        ok = _VALID_RANKS.get(self.series)
        if ok is None or not ok(self.rank):
            raise ValidationError(
                f"invalid algebra {self.series}{self.rank}: valid labels are "
                "A(r>=1) B(r>=2) C(r>=2) D(r>=3) E6 E7 E8 F4 G2"
            )

    @classmethod
    def parse(cls, text: "str | AlgebraSpec") -> "AlgebraSpec":
        if isinstance(text, AlgebraSpec):
            return text
        m = _SPEC_RE.match(text)
        if not m:
            raise ValidationError(f"cannot parse algebra label {text!r}")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def _cartan_matrix(series: str, rank: int) -> list[list[int]]:
    """Cartan matrix with cartan[i][j] = <alpha_j, alpha_i^vee>."""
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def link(i: int, j: int) -> None:
        a[i][j] = -1
        a[j][i] = -1

    if series in "ABC":
        for i in range(rank - 1):
            link(i, i + 1)
        if series == "B":
            # last root short: <alpha_{r-1}, alpha_r^vee> = -2
            a[rank - 1][rank - 2] = -2
        elif series == "C":
            # last root long
            a[rank - 2][rank - 1] = -2
    elif series == "D":
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
    elif series == "E":
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 4, rank - 1)
    elif series == "F":
        link(0, 1)
        link(1, 2)
        link(2, 3)
        a[2][1] = -2  # alpha_2 long, alpha_3 short
    elif series == "G":
        a[0][1] = -1
        a[1][0] = -3  # alpha_1 long, alpha_2 short
    return a


def _invert_rational(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan inverse of a small nonsingular rational matrix."""
    n = len(mat)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv = Fraction(1) / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]


def _lcm(values: Iterator[int]) -> int:
    out = 1
    for v in values:
        out = out * v // np.gcd(out, v)
    return int(out)


class RootSystem:
    """Immutable root/coroot/Weyl data of one simple Lie algebra.

    Construct via :func:`build_root_system`; instances are cached per
    (series, rank) and safe to share between threads.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.rank = spec.rank
        r = spec.rank
        cartan = _cartan_matrix(spec.series, r)
        self.cartan: tuple[tuple[int, ...], ...] = tuple(map(tuple, cartan))

        # fundamental-weight coordinates of alpha_i = column i of cartan
        self.simple_roots: tuple[Weight, ...] = tuple(
            tuple(cartan[k][i] for k in range(r)) for i in range(r)
        )
        self.fundamental_weights: tuple[Weight, ...] = tuple(
            tuple(int(i == j) for j in range(r)) for i in range(r)
        )
        self.rho: Weight = (1,) * r

        self._cartan_inv = _invert_rational([[Fraction(v) for v in row] for row in cartan])
        self._symmetrizer = self._solve_symmetrizer(cartan)
        self.positive_roots, self.root_coeffs = self._generate_positive_roots()
        self.root_heights: tuple[int, ...] = tuple(sum(k) for k in self.root_coeffs)

        # normalize the symmetrizer so (theta, theta) = 2
        theta_idx = max(range(len(self.positive_roots)), key=lambda i: self.root_heights[i])
        theta_coeffs = self.root_coeffs[theta_idx]
        theta_sq = self._root_norm_sq(theta_coeffs)
        scale = Fraction(2) / theta_sq
        self.symmetrizer: tuple[Fraction, ...] = tuple(d * scale for d in self._symmetrizer)

        self.highest_root: Weight = self.positive_roots[theta_idx]
        self.marks: tuple[int, ...] = theta_coeffs
        comarks = [m * d for m, d in zip(self.marks, self.symmetrizer)]
        if any(x.denominator != 1 for x in comarks):
            raise AssertionError("comarks must be integers")
        self.comarks: tuple[int, ...] = tuple(int(x) for x in comarks)
        self.dual_coxeter: int = 1 + sum(self.comarks)

        # invariant form on fundamental weights: F = D @ cartan^{-1}
        self.form: tuple[RationalVector, ...] = tuple(
            tuple(self.symmetrizer[i] * self._cartan_inv[i][j] for j in range(r))
            for i in range(r)
        )
        den = _lcm(iter(v.denominator for row in self.form for v in row))
        self.form_den: int = den
        self.form_int: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(v * den) for v in row) for row in self.form
        )

        self.simple_coroots: tuple[RationalVector, ...] = tuple(
            coroot_of(self, alpha) for alpha in self.simple_roots
        )
        self.positive_coroots: tuple[tuple[int, ...], ...] = self._positive_coroot_coords()
        # half square norms d_alpha = (alpha, alpha)/2; 1 on long roots
        self.positive_halfnorms: tuple[Fraction, ...] = tuple(
            pairing(self, alpha, alpha) / 2 for alpha in self.positive_roots
        )
        self.weyl_order: int = self._weyl_order_from_heights()

        # integer views used by the numeric kernels
        self.np_simple = np.array(self.simple_roots, dtype=np.int64)
        self.np_theta = np.array(self.highest_root, dtype=np.int64)
        self.np_comarks = np.array(self.comarks, dtype=np.int64)
        self.np_form_int = np.array(self.form_int, dtype=np.int64)
        self.np_pos_coroots = np.array(self.positive_coroots, dtype=np.int64)

        self._weyl_lock = threading.Lock()
        self._weyl_cache: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction helpers -------------------------------------------------

    def _solve_symmetrizer(self, cartan: list[list[int]]) -> list[Fraction]:
        """d_i with d_i*cartan[i][j] = d_j*cartan[j][i]; BFS over the diagram."""
        r = self.rank
        d: list[Fraction | None] = [None] * r
        d[0] = Fraction(1)
        queue = [0]
        while queue:
            i = queue.pop()
            for j in range(r):
                if i != j and cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                    queue.append(j)
        if any(v is None for v in d):
            raise AssertionError("Dynkin diagram must be connected")
        return [v for v in d if v is not None]

    def _root_norm_sq(self, coeffs: tuple[int, ...]) -> Fraction:
        # (alpha, alpha) = k^T (D*cartan) k with the unnormalized symmetrizer
        total = Fraction(0)
        for i, ki in enumerate(coeffs):
            if ki:
                for j, kj in enumerate(coeffs):
                    if kj:
                        total += ki * kj * self._symmetrizer[i] * self.cartan[i][j]
        return total

    def _generate_positive_roots(self):
        """Weyl-orbit saturation of the simple roots, positives filtered."""
        seen: set[Weight] = set(self.simple_roots) | {tuple(-c for c in a) for a in self.simple_roots}
        frontier = list(seen)
        while frontier:
            nxt = []
            for x in frontier:
                for i in range(self.rank):
                    y = _reflect_simple(x, i, self.simple_roots)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        positives = []
        for x in seen:
            coeffs = self._expand_in_simple_roots(x)
            if all(c >= 0 for c in coeffs):
                positives.append((sum(coeffs), x, coeffs))
        positives.sort(key=lambda t: (t[0], t[1]))
        roots = tuple(x for _, x, _ in positives)
        coeffs = tuple(c for _, _, c in positives)
        return roots, coeffs

    def _expand_in_simple_roots(self, x: Weight) -> tuple[int, ...]:
        out = []
        for j in range(self.rank):
            v = sum(self._cartan_inv[j][k] * x[k] for k in range(self.rank))
            if v.denominator != 1:
                raise AssertionError("root expansion must be integral")
            out.append(int(v))
        return tuple(out)

    def _positive_coroot_coords(self) -> tuple[tuple[int, ...], ...]:
        """Simple-coroot coordinates c with (x, alpha^vee) = sum c_j x_j."""
        out = []
        for coeffs in self.root_coeffs:
            # c_j = k_j * d_j / d_alpha is independent of the form scaling
            d_alpha = self._root_norm_sq(coeffs) / 2
            cs = []
            for j, k in enumerate(coeffs):
                v = k * self._symmetrizer[j] / d_alpha
                if v.denominator != 1:
                    raise AssertionError("coroot coordinates must be integers")
                cs.append(int(v))
            out.append(tuple(cs))
        return tuple(out)

    def _weyl_order_from_heights(self) -> int:
        """|W| as the product of degrees, from the height distribution."""
        heights = self.root_heights
        max_h = max(heights)
        counts = [0] * (max_h + 1)
        for h in heights:
            counts[h] += 1
        order = 1
        for j in range(1, self.rank + 1):
            exponent = sum(1 for h in range(1, max_h + 1) if counts[h] >= j)
            order *= exponent + 1
        return order

    # -- Weyl-group material --------------------------------------------------

    def weyl_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """All Weyl elements as int64 matrices plus their signs.

        Cached after the first call; guarded by the Weyl-order cap.
        """
        check_weyl_cap(self)
        with self._weyl_lock:
            if self._weyl_cache is None:
                mats = []
                signs = []
                for _, mat, sign in _weyl_bfs(self):
                    mats.append(mat)
                    signs.append(sign)
                self._weyl_cache = (np.array(mats, dtype=np.int64),
                                    np.array(signs, dtype=np.int64))
            return self._weyl_cache

    def _simple_matrix(self, i: int) -> np.ndarray:
        m = np.eye(self.rank, dtype=np.int64)
        alpha = self.np_simple[i]
        m[:, i] -= alpha
        return m

    def describe(self) -> dict:
        """JSON-ready summary of every construction field."""
        frac = lambda v: str(v) if isinstance(v, Fraction) else v
        return {
            "series": self.spec.series,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "simple_roots": [list(a) for a in self.simple_roots],
            "positive_roots": [list(a) for a in self.positive_roots],
            "simple_coroots": [[frac(v) for v in a] for a in self.simple_coroots],
            "fundamental_weights": [list(a) for a in self.fundamental_weights],
            "rho": list(self.rho),
            "highest_root": list(self.highest_root),
            "dual_coxeter": self.dual_coxeter,
            "form_matrix": [[frac(v) for v in row] for row in self.form],
            "weyl_order": self.weyl_order,
        }

    def __repr__(self) -> str:
        return f"RootSystem({self.spec})"


def _reflect_simple(x: tuple, i: int, simple_roots: tuple[Weight, ...]) -> tuple:
    alpha = simple_roots[i]
    xi = x[i]
    return tuple(v - xi * a for v, a in zip(x, alpha))


@lru_cache(maxsize=None)
def _build_cached(series: str, rank: int) -> RootSystem:
    return RootSystem(AlgebraSpec(series, rank))


def build_root_system(spec: "str | AlgebraSpec") -> RootSystem:
    """Construct (or fetch from cache) the root system for an algebra label."""
    spec = AlgebraSpec.parse(spec)
    return _build_cached(spec.series, spec.rank)


# -- elementary weight operations ---------------------------------------------


def check_rank(rs: RootSystem, x: tuple) -> None:
    if len(x) != rs.rank:
        raise ValidationError(f"vector {x} has length {len(x)}, expected rank {rs.rank}")


def is_dominant(x: tuple) -> bool:
    return all(v >= 0 for v in x)


def pairing_int(rs: RootSystem, x: tuple, y: tuple):
    """form_den * (x, y) through the integer form; an exact int on integer
    vectors.  No rank check: this is the inner-loop form of :func:`pairing`.
    """
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = rs.form_int[i]
            total += xi * sum(yj * row[j] for j, yj in enumerate(y) if yj)
    return total


def pairing(rs: RootSystem, x: tuple, y: tuple) -> Fraction:
    """Invariant form (x, y) on weight-space vectors, exact.

    Feeding a coroot vector (see :func:`coroot_of`) as ``y`` yields the
    Cartan pairing; simple coroots give plain coordinates.
    """
    check_rank(rs, x)
    check_rank(rs, y)
    return pairing_int(rs, x, y) * Fraction(1, rs.form_den)


def coroot_of(rs: RootSystem, alpha: tuple) -> RationalVector:
    """The coroot 2*alpha/(alpha, alpha) as a weight-space vector."""
    check_rank(rs, alpha)
    norm = pairing(rs, alpha, alpha)
    if norm == 0:
        raise ValidationError("coroot of the zero vector is undefined")
    return tuple(Fraction(2 * a) / norm for a in alpha)


def theta_pairing(rs: RootSystem, x: tuple) -> int:
    """(x, theta^vee) via comark coordinates; the level functional."""
    return sum(c * v for c, v in zip(rs.comarks, x))


def canonical_key(rs: RootSystem, weight: tuple):
    """Deterministic weight ordering key: level pairing, coordinate sum, then
    first-coordinate-heavy tie break; puts the vacuum first among alcove sets."""
    return (theta_pairing(rs, weight), sum(weight), tuple(-v for v in weight))


def weyl_orbit(rs: RootSystem, x: tuple) -> frozenset:
    """Full orbit of x under the finite Weyl group."""
    check_rank(rs, x)
    check_weyl_cap(rs)
    x = tuple(x)
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for i in range(rs.rank):
                z = _reflect_simple(y, i, rs.simple_roots)
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)


def _weyl_bfs(rs: RootSystem) -> Iterator[tuple[tuple[int, ...], np.ndarray, int]]:
    """BFS over the Cayley graph: (reduced word, matrix, sign) per element.

    Elements are identified by their action on rho, which is regular, so
    each one appears exactly once.
    """
    simple_mats = [rs._simple_matrix(i) for i in range(rs.rank)]
    rho_vec = np.array(rs.rho, dtype=np.int64)
    seen = {rs.rho}
    level: list[tuple[tuple[int, ...], np.ndarray]] = [((), np.eye(rs.rank, dtype=np.int64))]
    while level:
        for word, mat in level:
            yield word, mat, 1 if len(word) % 2 == 0 else -1
        nxt: list[tuple[tuple[int, ...], np.ndarray]] = []
        for word, mat in level:
            for i in range(rs.rank):
                child_mat = mat @ simple_mats[i]
                image = tuple(int(v) for v in child_mat @ rho_vec)
                if image not in seen:
                    seen.add(image)
                    nxt.append((word + (i,), child_mat))
        level = nxt


def enumerate_weyl(rs: RootSystem) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield each Weyl element once as (reduced word, sign).

    Words are tuples of simple-reflection indexes, composed left to right as
    maps (the last index acts first); BFS order, identity first.
    """
    check_weyl_cap(rs)
    for word, _, sign in _weyl_bfs(rs):
        yield word, sign


def apply_word(rs: RootSystem, word: tuple[int, ...], x: tuple) -> tuple:
    """Apply a word of simple reflections to x (last index acts first)."""
    for i in reversed(word):
        x = _reflect_simple(x, i, rs.simple_roots)
    return tuple(x)


def dominant_reduce(rs: RootSystem, x: tuple) -> tuple[tuple, int]:
    """(dominant point in the finite Weyl orbit of x, (-1)^steps), exact for
    any scalars.  Reflects in the lowest-index negative coordinate each step,
    as :func:`kernels.dominant_reduce_batch` does; on a wall the sign carries
    no meaning.
    """
    check_rank(rs, x)
    y = list(x)
    sign = 1
    for _ in range(10 * rs.weyl_order + 10):
        i = next((j for j, v in enumerate(y) if v < 0), None)
        if i is None:
            return tuple(y), sign
        c = y[i]
        alpha = rs.simple_roots[i]
        for j in range(rs.rank):
            y[j] -= c * alpha[j]
        sign = -sign
    raise AssertionError("dominant reduction failed to terminate")


def dominant_representative(rs: RootSystem, x: tuple) -> tuple:
    """The dominant point in the finite Weyl orbit of x (exact, any scalars)."""
    return dominant_reduce(rs, x)[0]
