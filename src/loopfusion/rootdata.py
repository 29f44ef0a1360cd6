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

The construction is integer-only and builds no ``Fraction``: positive roots
grow along alpha_i-strings in simple-root coordinates, lengths come from an
integer symmetrizer, and the form from a fraction-free adjugate of the
Cartan matrix.  `fractions` is imported only where a ``Fraction`` is made:
the public rational views ``symmetrizer``, ``form`` and ``simple_coroots``,
each built on first read, and :func:`pairing`, so an integer-only process
never loads it; nothing here uses floats.
"""

from __future__ import annotations

import math
import operator
import os
import re
import threading
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ResourceError, ValidationError

Weight = tuple[int, ...]
RationalVector = "tuple[Fraction, ...]"

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


@lru_cache(maxsize=None)
def _orbit_size(rs: "RootSystem", support: Weight) -> int:
    """|W| / |W_J| for a dominant weight whose labels vanish on J.

    The stabilizer is the parabolic subgroup W_J, whose roots are the
    positive roots supported on J; no orbit is enumerated.
    """
    heights = (h for k, h in zip(rs.root_coeffs, rs.root_heights)
               if not any(c for c, s in zip(k, support) if s))
    return rs.weyl_order // weyl_order_from_heights(heights)


def check_orbit_size(rs: "RootSystem", top: Weight, what: str, *args, cap: "int | None" = None) -> int:
    """The size of the Weyl orbit of the dominant weight top, in closed form;
    raises the Weyl-cap ResourceError for ``what.format(*args)`` when it
    passes ``cap`` (default :func:`weyl_cap`), so an orbit is refused before
    any point of it is walked.  The message is built only when it raises."""
    if cap is None:
        cap = weyl_cap()
    size = _orbit_size(rs, tuple(int(v != 0) for v in top))
    if size > cap:
        raise ResourceError(
            f"{what.format(*args)} exceeds the cap {cap} (raise {WEYL_CAP_ENV} to override)")
    return size


class CheckedRecord:
    """Mixin for a NamedTuple subclass whose ``__new__`` checks, normalises
    or defaults its fields (NamedTuple forbids a ``__new__`` in the fields
    class itself): ``_make``, and so ``_replace``, goes through ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _AlgebraSpecFields(NamedTuple):
    series: str
    rank: int


class AlgebraSpec(CheckedRecord, _AlgebraSpecFields):
    """A simple Lie algebra label: series A-G plus rank."""

    __slots__ = ()

    def __new__(cls, series: str, rank: int) -> "AlgebraSpec":
        ok = _VALID_RANKS.get(series)
        if ok is None or not ok(rank):
            raise ValidationError(
                f"invalid algebra {series}{rank}: valid labels are "
                "A(r>=1) B(r>=2) C(r>=2) D(r>=3) E6 E7 E8 F4 G2"
            )
        return tuple.__new__(cls, (series, rank))

    @classmethod
    def parse(cls, text: "str | AlgebraSpec") -> "AlgebraSpec":
        if isinstance(text, AlgebraSpec):
            return text
        if not isinstance(text, str):
            raise ValidationError(f"algebra label {text!r} is neither text nor an AlgebraSpec")
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


def _adjugate(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj(mat), det(mat)) by fraction-free (Bareiss) Gauss-Jordan elimination.

    Every division is exact.  No pivoting: the leading principal minors of a
    Cartan matrix are positive.
    """
    n = len(mat)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        piv = work[k][k]
        if piv == 0:
            raise AssertionError("leading minors of a Cartan matrix must be nonzero")
        for i in range(n):
            if i != k:
                f = work[i][k]
                work[i] = [(piv * a - f * b) // prev for a, b in zip(work[i], work[k])]
        prev = piv
    return [row[n:] for row in work], prev


def _exact_quotients(values: Iterable[int], divisor: int, what: str) -> tuple[int, ...]:
    out = []
    for v in values:
        q, rem = divmod(v, divisor)
        if rem:
            raise AssertionError(what)
        out.append(q)
    return tuple(out)


def _colour_classes(cartan) -> tuple[tuple[int, ...], ...]:
    """The nodes of a connected Dynkin diagram in classes of pairwise
    orthogonal nodes (cartan[i][j] = 0), by greedy colouring in breadth-first
    order from node 0: two classes on a tree or an even cycle, three on an
    odd cycle."""
    n = len(cartan)
    order = [0]
    for i in order:
        order += [j for j in range(n) if cartan[i][j] and j not in order]
    colour: dict[int, int] = {}
    for i in order:
        taken = {c for j, c in colour.items() if cartan[i][j]}
        colour[i] = min(c for c in range(n) if c not in taken)
    return tuple(
        tuple(i for i in range(n) if colour[i] == c) for c in range(max(colour.values()) + 1)
    )


def _symmetrizer(cartan: list[list[int]]) -> list[int]:
    """Smallest positive integers e with e_i*cartan[i][j] = e_j*cartan[j][i].

    Grown node by node from e_0 = 1 in integers: reaching j from i, every
    entry found so far is multiplied by |cartan[j][i]| and e_j set to
    e_i*|cartan[i][j]|, which keeps the ratio e_j/e_i = cartan[i][j]/cartan[j][i].
    """
    r = len(cartan)
    e = [1] + [0] * (r - 1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(r):
            if i != j and cartan[i][j] != 0 and not e[j]:
                e, e[j] = [-cartan[j][i] * v for v in e], -cartan[i][j] * e[i]
                queue.append(j)
    if not all(e):
        raise AssertionError("Dynkin diagram must be connected")
    g = math.gcd(*e)
    return [v // g for v in e]


def _positive_roots(cartan: list[list[int]]) -> list[tuple[Weight, tuple[int, ...], tuple]]:
    """(weight coordinates, simple-root coefficients, (coefficients of beta,
    i)) of every positive root beta + alpha_i, beta being the zero vector for
    a simple root.

    Grown height by height along alpha_i-strings: with p the number of roots
    beta - alpha_i, beta - 2 alpha_i, ... (all of lower height, so already
    found), beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0.  The
    weight coordinates of beta are <beta, alpha_i^vee> = (cartan k)_i.
    Sorted by height, then weight coordinates.
    """
    r = len(cartan)
    columns = [tuple(cartan[i][j] for i in range(r)) for j in range(r)]
    layer = [(columns[i], tuple(int(i == j) for j in range(r)), ((0,) * r, i)) for i in range(r)]
    found = {k for _, k, _ in layer}
    out = list(layer)
    while layer:
        nxt = []
        for weight, k, _ in layer:
            for i in range(r):
                down = list(k)
                p = 0
                while True:
                    down[i] -= 1
                    if tuple(down) not in found:
                        break
                    p += 1
                if p > weight[i]:
                    up = k[:i] + (k[i] + 1,) + k[i + 1:]
                    if up not in found:
                        found.add(up)
                        nxt.append((tuple(w + c for w, c in zip(weight, columns[i])), up, (k, i)))
        out += nxt
        layer = nxt
    out.sort(key=lambda t: (sum(t[1]), t[0]))
    return out


def weyl_order_from_heights(heights: Iterable[int]) -> int:
    """|W| of a root system, possibly reducible, from the heights of its
    positive roots: the counts per height form the partition dual to the
    exponents (Kostant), and |W| is the product of the degrees."""
    counts: list[int] = []
    for h in heights:
        counts.extend([0] * (h + 1 - len(counts)))
        counts[h] += 1
    order, j = 1, 1
    while exponent := sum(1 for c in counts if c >= j):
        order *= exponent + 1
        j += 1
    return order


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

        e = _symmetrizer(cartan)
        roots = _positive_roots(cartan)
        self.positive_roots: tuple[Weight, ...] = tuple(w for w, _, _ in roots)
        self.root_coeffs: tuple[tuple[int, ...], ...] = tuple(k for _, k, _ in roots)
        # root a is beta + alpha_i with beta the root in slot b (root b - 1, or
        # zero when b = 0): root_steps[a] = (b, i), so one pass over the roots
        # grows any linear function of them by one term a root
        slot = {k: a + 1 for a, k in enumerate(self.root_coeffs)}
        self.root_steps: tuple[tuple[int, int], ...] = tuple(
            (slot.get(beta, 0), i) for _, _, (beta, i) in roots)
        self.root_heights: tuple[int, ...] = tuple(sum(k) for k in self.root_coeffs)
        # e-scaled squared lengths k^T diag(e) cartan k = sum_i k_i e_i <beta, alpha_i^vee>
        norms = [sum(ki * ei * wi for ki, ei, wi in zip(k, e, w)) for w, k, _ in roots]

        # normalize so (theta, theta) = 2: d_i = e_i / long, long = (theta, theta)_e / 2
        theta_idx = max(range(len(roots)), key=lambda i: self.root_heights[i])
        long = norms[theta_idx] // 2

        self.highest_root: Weight = self.positive_roots[theta_idx]
        self.marks: tuple[int, ...] = self.root_coeffs[theta_idx]
        self.comarks: tuple[int, ...] = _exact_quotients(
            [m * ei for m, ei in zip(self.marks, e)], long, "comarks must be integers")
        self.dual_coxeter: int = 1 + sum(self.comarks)

        # invariant form on fundamental weights: F = D @ cartan^{-1} = e_i adj_ij / (long det)
        adj, det = _adjugate(cartan)
        num = [[ei * v for v in row] for ei, row in zip(e, adj)]
        g = math.gcd(long * det, *(v for row in num for v in row))
        self.form_den: int = long * det // g
        self.form_int: tuple[tuple[int, ...], ...] = tuple(
            tuple(v // g for v in row) for row in num
        )
        # |P/Q^vee|, the index of the coroot lattice in the weight lattice:
        # det of the coroots alpha_i / d_i in fundamental-weight coordinates,
        # det(cartan) / prod(d_i) with d_i = e_i / long
        self.coroot_index: int = _exact_quotients(
            [det * long**r], math.prod(e), "|P/Q^vee| must be an integer")[0]

        # simple coroots alpha_i / d_i as integer weight vectors: a basis of Q^vee
        self.simple_coroot_weights: tuple[Weight, ...] = tuple(
            _exact_quotients([a * long for a in alpha], ei, "simple coroots must be integer weights")
            for alpha, ei in zip(self.simple_roots, e)
        )
        # simple-coroot coordinates of alpha^vee = 2 alpha/(alpha, alpha): 2 k_j e_j / norm,
        # so (x, alpha^vee) = sum_j c_j x_j
        self.positive_coroots: tuple[tuple[int, ...], ...] = tuple(
            _exact_quotients([2 * kj * ej for kj, ej in zip(k, e)], norm,
                             "coroot coordinates must be integers")
            for k, norm in zip(self.root_coeffs, norms)
        )
        # form_den * (x, alpha) = x . root_pairs[a] for the a-th positive root;
        # form_den * (omega_i, alpha) = k_i * form_den * d_i
        self.scaled_d: tuple[int, ...] = _exact_quotients(
            [self.form_den * ei for ei in e], long, "form_den * d_i must be integers")
        self.root_pairs: tuple[tuple[int, ...], ...] = tuple(
            tuple(ki * s for ki, s in zip(k, self.scaled_d)) for k in self.root_coeffs
        )
        self.weyl_order: int = weyl_order_from_heights(self.root_heights)

        # the affine simple roots alpha_0 = delta - theta and alpha_1..alpha_r as
        # level-0 extended labels of their finite parts -theta, alpha_1..alpha_r:
        # row i is column i of the affine Cartan matrix (Kac 6.1)
        self.affine_roots: tuple[tuple[int, ...], ...] = tuple(
            extended(self, 0, a)
            for a in (tuple(-t for t in self.highest_root), *self.simple_roots)
        )
        # node 0's class last: batches of translated points at 1-50 kappa then
        # need fewer sweeps of the alcove kernel (up to a fifth on G2 and B3)
        self.colour_classes: tuple[tuple[int, ...], ...] = tuple(
            sorted(_colour_classes(self.affine_roots), key=lambda nodes: 0 in nodes)
        )

        # integer views used by the numeric kernels
        self.np_form_int = np.array(self.form_int, dtype=np.int64)
        self.np_root_pairs = np.array(self.root_pairs, dtype=np.int64)
        self.np_positive_roots = np.array(self.positive_roots, dtype=np.int64)
        self.np_simple_coroots = np.array(self.simple_coroot_weights, dtype=np.int64)
        # per colour class: its nodes and their affine_roots rows
        self.np_colour_classes = tuple(
            (np.array(nodes), np.array([self.affine_roots[i] for i in nodes], dtype=np.int64))
            for nodes in self.colour_classes
        )
        # nonzero (index, coordinate) pairs of each simple root and of each
        # affine simple root: the tables :func:`sweep_reduce` reflects by in the
        # dominant chamber and in the alcove
        self.simple_supports, self.affine_supports = (
            tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in rows)
            for rows in (self.simple_roots, self.affine_roots)
        )

        self._weyl_lock = threading.Lock()
        self._weyl_cache: tuple[np.ndarray, np.ndarray] | None = None

    # rational views built on first read; the construction and the integer
    # core never read them

    @cached_property
    def symmetrizer(self) -> RationalVector:
        """The symmetrizer d_i = (alpha_i, alpha_i) / 2, as Fractions read
        off the integers ``scaled_d`` = form_den * d_i."""
        from fractions import Fraction

        return tuple(Fraction(s, self.form_den) for s in self.scaled_d)

    @cached_property
    def form(self) -> tuple[RationalVector, ...]:
        """The invariant form on fundamental weights, as Fractions."""
        from fractions import Fraction

        return tuple(tuple(Fraction(v, self.form_den) for v in row) for row in self.form_int)

    @cached_property
    def simple_coroots(self) -> tuple[RationalVector, ...]:
        """The simple coroots as weight vectors of Fractions."""
        from fractions import Fraction

        return tuple(tuple(Fraction(v) for v in c) for c in self.simple_coroot_weights)

    # the batch alcove kernel's view, built on first read

    @cached_property
    def np_alcove_classes(self) -> tuple[np.ndarray, ...]:
        """Per colour class, the full-width matrix holding its
        ``affine_roots`` rows at its nodes and zero rows elsewhere: the
        classes on which :func:`kernels.alcove_reduce_batch` takes each step
        on whole rows, where ``np_colour_classes`` serves the Klimyk kernel,
        which reads only a class's columns.  Built on first read; root
        systems that never reduce a batch in the alcove never build it."""
        out = []
        for nodes in self.colour_classes:
            rows = np.zeros((self.rank + 1, self.rank + 1), dtype=np.int64)
            rows[list(nodes)] = [self.affine_roots[i] for i in nodes]
            out.append(rows)
        return tuple(out)

    # -- Weyl-group material --------------------------------------------------

    def weyl_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """All Weyl elements as int64 matrices plus their signs, in the order
        of their images of rho in ``_orbit_walk(rs, rs.rho)``: identity
        first, then by length.

        Cached after the first call; guarded by the Weyl-order cap.  Each
        element is s_i times its parent, whose matrix it copies with only the
        rows in the support of alpha_i changed, and whose sign it flips.
        """
        size = weyl_group_size(self)
        with self._weyl_lock:
            if self._weyl_cache is None:
                mats = np.empty((size, self.rank, self.rank), dtype=np.int64)
                mats[0] = np.eye(self.rank, dtype=np.int64)
                signs = np.ones(size, dtype=np.int64)
                _, parents, letters = _orbit_walk(self, self.rho)
                for n in range(1, size):
                    # s_i w = w - alpha_i (row i of w)
                    parent, i = parents[n], letters[n]
                    mats[n] = mats[parent]
                    for j, a in self.simple_supports[i]:
                        mats[n, j] -= a * mats[parent, i]
                    signs[n] = -signs[parent]
                self._weyl_cache = (mats, signs)
            return self._weyl_cache

    def describe(self) -> dict:
        """JSON-ready summary of every construction field."""
        return {
            "series": self.spec.series,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "simple_roots": [list(a) for a in self.simple_roots],
            "positive_roots": [list(a) for a in self.positive_roots],
            "simple_coroots": [[str(v) for v in a] for a in self.simple_coroots],
            "fundamental_weights": [list(a) for a in self.fundamental_weights],
            "rho": list(self.rho),
            "highest_root": list(self.highest_root),
            "dual_coxeter": self.dual_coxeter,
            "form_matrix": [[str(v) for v in row] for row in self.form],
            "weyl_order": self.weyl_order,
        }

    def __repr__(self) -> str:
        return f"RootSystem({self.spec})"


@lru_cache(maxsize=None)
def _build_cached(series: str, rank: int) -> RootSystem:
    return RootSystem(AlgebraSpec(series, rank))


@lru_cache(maxsize=64)
def _build_from_text(text: str) -> RootSystem:
    spec = AlgebraSpec.parse(text)
    return _build_cached(spec.series, spec.rank)


def build_root_system(spec: "str | AlgebraSpec") -> RootSystem:
    """Construct (or fetch from cache) the root system for an algebra label.

    A text label is parsed once: a small cache keyed on the text keeps its
    root system.  Errors are not cached, so an invalid label raises
    ValidationError on every call.
    """
    if isinstance(spec, str):
        return _build_from_text(spec)
    spec = AlgebraSpec.parse(spec)
    return _build_cached(spec.series, spec.rank)


# -- elementary weight operations ---------------------------------------------


def check_rank(rs: RootSystem, x: tuple) -> None:
    if len(x) != rs.rank:
        raise ValidationError(f"vector {x} has length {len(x)}, expected rank {rs.rank}")


def as_int(v, what: str = "coordinate") -> int:
    """v as a Python int.  Integers (int, np.integer: whatever has
    ``__index__``) pass; anything else, a float included, raises
    ValidationError instead of being truncated."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValidationError(f"{what} {v!r} is not an integer") from None


def as_nonnegative(v, what: str) -> int:
    """:func:`as_int` for a level or a genus, which must not be negative."""
    n = as_int(v, what)
    if n < 0:
        raise ValidationError(f"{what} must be a nonnegative integer, got {v!r}")
    return n


def check_weight(rs: RootSystem, x: tuple) -> Weight:
    """x as a rank-length tuple of Python ints, or ValidationError; the
    tuple form of :func:`as_int`."""
    check_rank(rs, x)
    try:
        return tuple(map(operator.index, x))
    except TypeError:
        raise ValidationError(f"weight {tuple(x)} has a non-integer coordinate") from None


def check_dominant(rs: RootSystem, x: tuple) -> Weight:
    """x as a dominant integer weight, or ValidationError."""
    x = check_weight(rs, x)
    if min(x, default=0) < 0:
        raise ValidationError(f"weight {x} is not dominant")
    return x


def pairing_int(rs: RootSystem, x: tuple, y: tuple):
    """form_den * (x, y) through the integer form; an exact int on integer
    vectors.  No rank check: this is the inner-loop form of :func:`pairing`.
    """
    total = 0
    for xi, row in zip(x, rs.form_int):
        if xi:
            total += xi * sum(map(operator.mul, row, y))
    return total


def pairing(rs: RootSystem, x: tuple, y: tuple) -> Fraction:
    """Invariant form (x, y) on weight-space vectors, exact.

    Simple coroots as ``y`` give plain coordinates.
    """
    check_rank(rs, x)
    check_rank(rs, y)
    from fractions import Fraction

    return pairing_int(rs, x, y) * Fraction(1, rs.form_den)


def theta_pairing(rs: RootSystem, x: tuple) -> int:
    """(x, theta^vee) via comark coordinates; the level functional."""
    return sum(map(operator.mul, rs.comarks, x))


def extended(rs: RootSystem, kappa: int, x: tuple) -> tuple:
    """The extended Dynkin labels (kappa - level(x), *x) of x at level kappa:
    the closed alcove is the orthant y >= 0, its walls the points with a zero
    label, and generator s_i acts as y -= y_i * a_i with a_i row i of
    ``rs.affine_roots`` (Kac, *Infinite Dimensional Lie Algebras*, 6.1)."""
    return (kappa - theta_pairing(rs, x), *x)


def canonical_key(rs: RootSystem, weight: tuple):
    """Deterministic weight ordering key: level pairing, coordinate sum, then
    first-coordinate-heavy tie break; puts the vacuum first among alcove sets."""
    return (theta_pairing(rs, weight), sum(weight), tuple(-v for v in weight))


def _orbit_walk(rs: RootSystem, top: Weight) -> tuple[list[Weight], list[int], list[int]]:
    """Each point of the Weyl orbit of the dominant weight top once, nearest
    top first, as three lists built in one loop: the points z, the index of
    each one's parent and the letter i with z = s_i(parent).  top comes
    first, with parent and letter -1.

    From y the walk keeps z = s_i y (y_i > 0) only when no coordinate of z
    before i is negative.  A point z below top has one parent, s_j z for the
    least j with z_j < 0, which lies one reflection nearer top, so the walk
    needs no seen set (Snow, "Weyl group orbits", ACM TOMS 1990).
    """
    points, parents, letters = [top], [-1], [-1]
    add_point, add_parent, add_letter = points.append, parents.append, letters.append
    roots, supports = rs.simple_roots, rs.simple_supports
    for parent, y in enumerate(points):  # points grows as the walk goes
        first = -1  # index of y's first negative coordinate, once passed
        for i, c in enumerate(y):
            if c > 0:
                # s_i raises the coordinates alpha_i touches besides the i-th
                # and leaves the rest, so z is refused before it is built
                # when y's first negative coordinate stays negative in it
                if first >= 0 and y[first] < c * roots[i][first]:
                    continue
                z = list(y)
                for j, a in supports[i]:
                    z[j] -= c * a
                if first < 0 or min(z[:i]) >= 0:
                    add_point(tuple(z))
                    add_parent(parent)
                    add_letter(i)
            elif c and first < 0:
                first = i
    return points, parents, letters


def weyl_orbit(rs: RootSystem, x: tuple) -> frozenset:
    """Full orbit of x under the finite Weyl group, walked down from its
    dominant point.

    Raises ResourceError when the orbit's closed-form size passes the Weyl
    cap, before any point is walked, so small orbits of large groups (E7,
    E8) stay open.
    """
    x = check_weight(rs, x)
    top = dominant_reduce(rs, x)[0]
    check_orbit_size(rs, top, "Weyl orbit of {} in {}", x, rs.spec)
    return frozenset(_orbit_walk(rs, top)[0])


def weyl_group_size(rs: RootSystem) -> int:
    """|W|, the size of the orbit of rho, which is regular: its points are
    the Weyl elements w, as w(rho).  Refused past the Weyl cap."""
    return check_orbit_size(rs, rs.rho, "Weyl order {} of {}", rs.weyl_order, rs.spec)


def sweep_reduce(supports: tuple, y: list, max_steps: int) -> int:
    """Reflect y in place into the orthant y >= 0; returns the number of
    reflections.  ``supports`` is ``RootSystem.simple_supports`` for a weight
    y and the dominant chamber, ``RootSystem.affine_supports`` for the
    :func:`extended` labels y and the closed alcove.

    Each sweep applies s_i, as y -= y_i * a_i, for i in table order where
    violated (y_i < 0).  A violated reflection crosses exactly one wall
    separating y from the chamber, so every order takes the same number of
    reflections and lands on the same point, while one sweep may cross
    several walls.  Passing ``max_steps`` reflections raises AssertionError.
    """
    steps = 0
    while min(y) < 0:
        for i, support in enumerate(supports):
            c = y[i]
            if c < 0:
                for j, a in support:
                    y[j] -= c * a
                steps += 1
        if steps > max_steps:
            raise AssertionError("reduction failed to terminate")
    return steps


def dominant_reduce(rs: RootSystem, x: tuple) -> tuple[tuple, int]:
    """(dominant point in the finite Weyl orbit of the integer weight x,
    (-1)^steps), exact.

    Cyclic sweeps of s_1..s_r (:func:`sweep_reduce` over ``simple_supports``);
    on a wall the sign carries no meaning.  Each reflection lowers
    #{a > 0 : (y, a^vee) < 0} by exactly one, so at most |positive roots| of
    them happen, in any order, which :func:`kernels.dominant_reduce_batch`
    counts on extended labels at a level no row reaches.
    """
    y = list(check_weight(rs, x))
    steps = sweep_reduce(rs.simple_supports, y, len(rs.positive_roots))
    return tuple(y), -1 if steps % 2 else 1
