"""Genus-g dimension formulas, cohomology reports, and node factorization.

Verlinde numbers are exact: with the Kac-Walton fusion matrices
(N_a)_{bc} = N_{ab}^c and the handle operator H = sum_mu N_mu N_{mu*}, the
genus-g surface with labels lambda_1..lambda_m has dimension
(e_0 H^g N_{lambda_1} ... N_{lambda_m})_0 (Beauville 1996, section 5), all in
Python integers.  They are built once per algebra and level and cached: a
cache hit, like a read of an already kept row e_0 H^g, takes no lock, and
only a build or a new row does.  The matrices are kept sparse, and the
build uses the fusion ring's symmetries: a simple current J gives
N_{J lam, mu}^{J nu} = N_{lam mu}^nu (Schellekens and Yankielowicz 1990)
and charge conjugation gives N_{lam* mu*}^{nu*} = N_{lam mu}^nu, so a
label whose orbit already holds a matrix gets a relabelled copy.  Both
permute the affine Dynkin nodes at every level, so they are read once per
algebra, as node permutations.
Every other label is peeled off a product of built matrices, by
N_f N_b = sum_c N_{fb}^c N_c with f fundamental, once every other label of
that row is built.  Only a fundamental that no such product reaches takes
Kac-Walton rows, one batched reduction with one row per current orbit of
labels (:func:`fusion.kac_walton_rows`: one sweep of extended Dynkin labels
into the alcove, counting reflections).  A product forms only the rows of
labels not yet built: by commutativity, N_{td} = N_{dt}, every other row
of N_t is a row of a built matrix.
Reports first reduce arbitrary dominant insertions into the alcove,
recording the vanishing verdict and the single cohomological degree.  The
floating-point S-matrix sum survives only as the cross-check
:func:`verlinde_dimension_s`, the same sum and gate as
:func:`fusion.fuse_s`: it raises instead of rounding once its estimated
float error could reach the integer.
"""

from __future__ import annotations

import math
import operator
import threading
from functools import lru_cache
from typing import NamedTuple

from .affine_weyl import AffineContext, _induced, alcove_reduce, check_alcove
from .errors import ResourceError, ValidationError
from .finite_reps import weyl_dimension
from .fusion import (
    LevelWeight,
    _verlinde_sum_s,
    alcove_weights,
    conjugate_weight,
    kac_walton_rows,
    more_labels_than,
    s_matrix,
)
from .rootdata import CheckedRecord, RootSystem, Weight, as_nonnegative, pairing_int
from .rootdata import extended, theta_pairing


def _surface_label(w) -> Weight:
    """A Surface entry, a LevelWeight or a sequence of integers, as a tuple
    of Python ints, or ValidationError."""
    if isinstance(w, LevelWeight):
        w = w.weight
    try:
        return tuple(map(operator.index, w))
    except TypeError:
        raise ValidationError(f"surface label {w!r} is not a sequence of integers") from None


class _SurfaceFields(NamedTuple):
    genus: int
    insertions: tuple[Weight, ...] = ()
    boundary: tuple[Weight, ...] = ()


class Surface(CheckedRecord, _SurfaceFields):
    """Genus plus labeled points: interior insertions and boundary labels.

    An immutable tuple-backed record.  The genus is a nonnegative integer;
    both label fields take LevelWeight records or sequences of integers and
    hold each label as a tuple of Python ints, so a label is hashable and
    exact.  Every field is coerced once, on construction (``_replace``
    included).
    """

    __slots__ = ()

    def __new__(cls, genus: int, insertions=(), boundary=()) -> "Surface":
        return tuple.__new__(cls, (
            as_nonnegative(genus, "genus"),
            tuple(map(_surface_label, insertions)),
            tuple(map(_surface_label, boundary)),
        ))


class CohomologyReport(NamedTuple):
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


# Refusal budgets per (algebra, level): stored nonzero fusion coefficients
# (a few dozen bytes each), and bytes of the kept rows e_0 H^g, whose integers
# grow linearly in g, so that all rows up to g cost memory quadratic in g.
FUSION_ENTRY_CAP = 2 * 10**6
ROW_BYTE_CAP = 2**26

# A sparse square matrix: row b maps column c to a nonzero entry.
Sparse = list[dict[int, int]]


def _times(v: list[int], m: Sparse) -> list[int]:
    """Row vector v times the sparse square matrix m, exactly."""
    out = [0] * len(v)
    for vb, row in zip(v, m):
        if vb:
            for c, x in row.items():
                out[c] += vb * x
    return out


class FusionMatrices:
    """Exact level-k fusion data on the alcove labels, vacuum at index 0.

    ``fusion[a][b]`` maps c to N_ab^c (nonzero entries only), ``dual[a]`` is
    the index of the conjugate label, ``handle`` the handle operator H in the
    same sparse form; :meth:`row` gives e_0 H^g.  The one record whose state
    grows after construction (the kept rows and their byte count), so a plain
    class.
    """

    def __init__(self, labels: tuple[Weight, ...], index: dict[Weight, int],
                 fusion: list[Sparse], dual: list[int], handle: Sparse) -> None:
        self.labels, self.index, self.fusion, self.dual, self.handle = labels, index, fusion, dual, handle
        self._rows = [[int(i == 0) for i in range(len(labels))]]
        self._row_bytes = 0
        self._lock = threading.Lock()

    def row(self, genus: int) -> list[int]:
        """e_0 H^genus, grown on demand and kept.

        A kept row is read without the lock, since rows are only appended;
        growing them takes it.  Raises ResourceError once the kept rows
        would pass ROW_BYTE_CAP.
        """
        if genus < len(self._rows):
            return self._rows[genus]
        with self._lock:
            while len(self._rows) <= genus:
                nxt = _times(self._rows[-1], self.handle)
                size = sum((x.bit_length() + 7) // 8 for x in nxt)
                if self._row_bytes + size > ROW_BYTE_CAP:
                    raise ResourceError(
                        f"genus {genus} needs more than {ROW_BYTE_CAP} bytes of kept rows"
                    )
                self._row_bytes += size
                self._rows.append(nxt)
            return self._rows[genus]


_fusion_cache: dict[tuple, FusionMatrices] = {}
_fusion_lock = threading.Lock()


@lru_cache(maxsize=None)
def _node_symmetries(rs: RootSystem) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The simple currents, as the group they generate, identity first, and
    charge conjugation, each as a permutation p of the affine nodes 0..rank.

    At every level the image of lam carries at node m the extended Dynkin
    label of (k - level, lam) at node p[m] (Di Francesco, Mathieu and
    Senechal, section 14.2).  Both are read off a rho-shifted point x with
    extended labels (1, ..., rank + 1): node j of mark 1 gives J_j x, the
    alcove reduction of x + kappa omega_j, and conjugation fixes node 0.
    """
    x = tuple(range(2, rs.rank + 2))
    kappa = 1 + theta_pairing(rs, x)
    ctx = AffineContext(rs, kappa - rs.dual_coxeter)

    def nodes(y: tuple) -> tuple[int, ...]:
        p = tuple(v - 1 for v in extended(rs, kappa, y))
        assert sorted(p) == list(range(rs.rank + 1)), "a symmetry must permute the affine nodes"
        return p

    generators = [
        nodes(alcove_reduce(ctx, tuple(v + kappa * (i == j) for i, v in enumerate(x))).reduced)
        for j, mark in enumerate(rs.marks)
        if mark == 1
    ]
    group = [tuple(range(rs.rank + 1))]
    for g in group:  # grows while it is read: the closure under the generators
        for h in generators:
            p = tuple(g[m] for m in h)
            if p not in group:
                group.append(p)
    return tuple(group), nodes(conjugate_weight(rs, x))


def _label_symmetries(rs: RootSystem, k: int, labels: tuple, index: dict):
    """The current group and conjugation of :func:`_node_symmetries` as maps
    of the level-k label indexes, identity first: (currents, dual)."""
    ext = [extended(rs, k, w) for w in labels]

    def relabel(p: tuple[int, ...]) -> list[int]:
        return [index[tuple(e[i] for i in p[1:])] for e in ext]

    group, conjugation = _node_symmetries(rs)
    return [relabel(p) for p in group], relabel(conjugation)


def _build_fusion_matrices(rs: RootSystem, k: int) -> FusionMatrices:
    """The level-k fusion matrices, conjugation and handle, exactly.

    Each stored N_a is copied, relabelled, to every label of a's orbit under
    the simple currents and conjugation, which then costs no arithmetic; both
    act on the labels as the affine-node permutations of
    :func:`_node_symmetries`, read once per algebra, so no label is reduced
    to find them.  The vacuum comes first (its orbit holds the k omega_j).
    Every other label t is peeled off a product by the ring identity
    N_f N_b = sum_c N_fb^c N_c, once f is a built fundamental, b a built
    label whose row of N_f holds t, and every other label of that row is
    built: N_t = (N_f N_b - sum_{c != t} N_fb^c N_c) / N_fb^t, an exact
    division, formed only in the rows of unbuilt labels; row d of N_t is
    row t of N_d for every built d.  Sweeps over the unbuilt labels in
    (lam, rho) order try b = lam - omega_i first; only a fundamental label
    searches the rows of the built N_f.  When a sweep builds nothing, the
    unbuilt fundamental of least dimension takes a Kac-Walton batch, and the
    sweeps go on.  So only the fundamentals that no product reaches are
    batched (E6 k=2: omega_1 alone; E8 k=4: neither omega_3 nor omega_6,
    whose orbits pass the default Weyl cap).  An algebra without currents or conjugation (E8, F4,
    G2) runs the same steps with nothing to copy.  Raises ResourceError as
    soon as the stored coefficients, copies included, pass FUSION_ENTRY_CAP.
    """
    too_many = ResourceError(
        f"level-{k} fusion matrices of {rs.spec} exceed the cap of "
        f"{FUSION_ENTRY_CAP} stored coefficients"
    )
    # every row of every N_a is nonzero, so n labels store n*n coefficients at least
    if more_labels_than(rs, k, math.isqrt(FUSION_ENTRY_CAP)):
        raise too_many
    labels = tuple(lw.weight for lw in alcove_weights(rs, k))
    index = {w: i for i, w in enumerate(labels)}
    n = len(labels)
    currents, dual = _label_symmetries(rs, k, labels, index)
    # every non-identity symmetry as (label map, whether it conjugates):
    # N_{J lam} is N_lam with columns relabelled by J, and row b of N_{lam*}
    # is row b* of N_lam with columns relabelled by conjugation
    symmetries = [(g, False) for g in currents[1:]]
    if dual != currents[0]:
        symmetries += [([g[c] for c in dual], True) for g in currents]
    fusion: list = [None] * n
    entries = 0

    def keep(a: int, matrix: Sparse) -> None:
        nonlocal entries
        fusion[a] = matrix
        entries += sum(map(len, matrix))
        if entries > FUSION_ENTRY_CAP:
            raise too_many

    def store(a: int, matrix: Sparse) -> None:
        """Keep N_a, and its relabelled copy on every label of a's orbit."""
        keep(a, matrix)
        for perm, conj in symmetries:
            if fusion[perm[a]] is None:
                rows = [matrix[c] for c in dual] if conj else matrix
                keep(perm[a], [{perm[c]: x for c, x in row.items()} for row in rows])

    def peel(t: int, f: int, b: int) -> bool:
        """Store N_t = (N_f N_b - sum_{c != t} N_fb^c N_c) / N_fb^t when N_b
        is built, row b of N_f holds t and every other label of it is built.
        Row d of N_t is row t of N_d wherever N_d is built (N_td = N_dt), so
        the product and its corrections are formed only for unbuilt d."""
        if fusion[b] is None:
            return False
        terms = fusion[f][b]
        if t not in terms or any(fusion[c] is None for c in terms if c != t):
            return False
        coeff = terms[t]
        matrix: Sparse = []
        for d, built in enumerate(fusion):
            if built is not None:
                matrix.append(built[t])  # stored rows are never changed, so they are shared
                continue
            acc: dict[int, int] = {}
            for e, x in fusion[f][d].items():
                for c, y in fusion[b][e].items():
                    acc[c] = acc.get(c, 0) + x * y
            for c, m in terms.items():
                if c != t:
                    for e, x in fusion[c][d].items():
                        acc[e] -= m * x
            assert coeff == 1 or all(x % coeff == 0 for x in acc.values()), "inexact peel"
            matrix.append({e: x // coeff for e, x in acc.items() if x})
        store(t, matrix)
        return True

    store(0, [{b: 1} for b in range(n)])  # the vacuum, and the currents k omega_j
    fundamental = {}  # label index of omega_i -> i
    for i in range(rs.rank):
        omega = tuple(int(j == i) for j in range(rs.rank))
        if omega in index:
            fundamental[index[omega]] = i
    # one Kac-Walton row per current orbit of labels: row J mu of N_omega is
    # row mu with columns relabelled by J, since N_{omega, J mu}^{J nu} = N_{omega mu}^nu
    reps = sorted({min(g[b] for g in currents) for b in range(n)})
    rho = (1,) * rs.rank
    pending = sorted(range(n), key=lambda a: pairing_int(rs, labels[a], rho))
    while pending := [a for a in pending if fusion[a] is None]:
        # multiply by the sparsest built fundamental matrix that fits
        order = sorted(
            (f for f in fundamental if fusion[f] is not None),
            key=lambda f: sum(map(len, fusion[f])),
        )
        progress = False
        for a in pending:
            if fusion[a] is not None:  # a copy of a label built in this sweep
                continue
            lam = labels[a]
            if a in fundamental:
                # a fundamental comes off any built product N_f N_b that holds it
                pairs = ((f, b) for f in order for b in range(n))
            else:
                # lam = mu + omega_i: N_{omega_i mu}^lam = 1, and every other
                # label of that row lies strictly below lam in the dominance order
                pairs = (
                    (f, index[tuple(v - (j == fundamental[f]) for j, v in enumerate(lam))])
                    for f in order
                    if lam[fundamental[f]]
                )
            progress |= any(peel(a, f, b) for f, b in pairs)
        if not progress:
            # stuck: the unbuilt fundamental of least dimension takes its Kac-Walton batch
            f = min(
                (f for f in fundamental if fusion[f] is None),
                key=lambda f: weyl_dimension(rs, labels[f]),
            )
            matrix: Sparse = [{} for _ in range(n)]
            for b, row in zip(reps, kac_walton_rows(rs, k, labels[f], [labels[b] for b in reps])):
                row = {index[c]: m for c, m in row.items()}
                matrix[b] = row
                for g in currents[1:]:
                    matrix[g[b]] = {g[c]: m for c, m in row.items()}
            store(f, matrix)
    # e_0 H = sum_mu e_mu N_{mu*}; H commutes with every N_b, so e_b H = (e_0 H) N_b
    h0 = [0] * n
    for mu in range(n):
        for c, x in fusion[dual[mu]][mu].items():
            h0[c] += x
    handle = [{c: x for c, x in enumerate(_times(h0, fusion[b])) if x} for b in range(n)]
    return FusionMatrices(labels=labels, index=index, fusion=fusion, dual=dual, handle=handle)


def fusion_matrices(rs: RootSystem, k: int) -> FusionMatrices:
    """The exact level-k fusion matrices and handle operator, cached.

    A cache hit takes no lock: an entry is only ever published whole, by
    ``setdefault`` under ``_fusion_lock``, so racing builds keep the first.
    """
    k = as_nonnegative(k, "level")
    key = (rs.spec.series, rs.spec.rank, k)
    got = _fusion_cache.get(key)
    if got is None:
        built = _build_fusion_matrices(rs, k)
        with _fusion_lock:
            got = _fusion_cache.setdefault(key, built)
    return got


def _check_labels(rs: RootSystem, k: int, labels: tuple) -> "FusionMatrices | None":
    """Raise ValidationError unless every label, a tuple of Python ints as a
    Surface holds, is a level-k alcove label; return the cached level-k
    matrices, or None before their build.

    Once the matrices are cached, a key of their index is a label by
    construction, so only a miss goes through check_alcove, which raises;
    before the build every label does, so a bad label costs no build.  The
    cache is read as :func:`fusion_matrices` reads it, without the lock, so
    k must be a validated int: a float level hashes like its int.
    """
    fm = _fusion_cache.get((rs.spec.series, rs.spec.rank, k))
    index = {} if fm is None else fm.index
    for w in labels:
        if w not in index:
            check_alcove(rs, k, w)
    return fm


def _checked_matrices(rs: RootSystem, k: int, labels: tuple) -> FusionMatrices:
    """The level-k fusion matrices, built only once every label is checked."""
    k = as_nonnegative(k, "level")
    fm = _check_labels(rs, k, labels)
    return fm if fm is not None else fusion_matrices(rs, k)


def _insert(fm: FusionMatrices, v: list[int], labels: tuple) -> list[int]:
    for w in labels:
        v = _times(v, fm.fusion[fm.index[w]])
    return v


def _dimension(fm: FusionMatrices, genus: int, labels: tuple) -> int:
    """(e_0 H^g N_1 ... N_m)_0 for checked labels; the last label costs a
    lookup, since (v N_lambda)_0 = v_{lambda*}."""
    if not labels:
        return fm.row(genus)[0]
    v = _insert(fm, fm.row(genus), labels[:-1])
    return v[fm.dual[fm.index[labels[-1]]]]


def verlinde_dimension(rs: RootSystem, k: int, surface: Surface) -> int:
    """Dimension of the genus-g space with labeled points, exactly:
    (e_0 H^g N_1 ... N_m)_0."""
    labels = surface.insertions + surface.boundary
    return _dimension(_checked_matrices(rs, k, labels), surface.genus, labels)


def verlinde_dimension_s(rs: RootSystem, k: int, surface: Surface) -> int:
    """The S-matrix sum for the same number; a floating-point cross-check.

    The sum and its one rounding gate are :func:`fusion._verlinde_sum_s`,
    which :func:`fusion.fuse_s` shares: it raises NumericalError unless the
    distance to the nearest integer plus a first-order error estimate stays
    below ROUND_TOLERANCE.  The estimate is not a proof.
    """
    labels = [check_alcove(rs, k, w) for w in surface.insertions + surface.boundary]
    sm = s_matrix(rs, k)
    rows = [sm.index[w] for w in labels]
    # the last label, if any, is the sum's last factor
    return _verlinde_sum_s(sm, surface.genus, rows[:-1], rows[-1:] or None)[0]


def cohomology_report(rs: RootSystem, h: int, surface: Surface) -> CohomologyReport:
    """Reduce arbitrary dominant insertions, then evaluate at level h.

    Vanishes when any rho-shifted insertion meets an affine wall; otherwise
    the degree is the summed reduction length and the dimension is the
    Verlinde number of the reduced surface.  Each insertion's wall verdict
    comes in closed form before it is reduced, so a wall insertion is never
    swept.  The report holds the validated level as a Python int.  The
    signed Euler characteristic is exposed as a property of the returned
    report.
    """
    ctx = AffineContext(rs, h)
    _check_labels(rs, ctx.h, surface.boundary)
    reduced_insertions = []
    degree = 0
    for lam in surface.insertions:
        induced = _induced(ctx, lam)
        if induced is None:
            return CohomologyReport(
                vanishes=True, degree=None, dimension=0, h=ctx.h, surface=surface
            )
        reduced_insertions.append(induced[0])
        degree += induced[1]
    # the reduced insertions are alcove labels by construction
    labels = tuple(reduced_insertions) + surface.boundary
    dim = _dimension(fusion_matrices(rs, ctx.h), surface.genus, labels)
    return CohomologyReport(
        vanishes=False, degree=degree, dimension=dim, h=ctx.h, surface=surface
    )


def factorization_check(rs: RootSystem, k: int, surface: Surface) -> dict:
    """Node degeneration: genus g equals genus g-1 summed over dual pairs.

    With u = e_0 H^(g-1) N_labels, the right side sum_mu (u N_mu N_{mu*})_0
    is sum_mu (u N_mu)_mu, computed in O(A^2) for A alcove labels.
    """
    if surface.genus < 1:
        raise ValidationError("factorization needs genus >= 1")
    labels = surface.insertions + surface.boundary
    fm = _checked_matrices(rs, k, labels)
    lhs = _dimension(fm, surface.genus, labels)
    u = _insert(fm, fm.row(surface.genus - 1), labels)
    rhs = sum(
        ub * row.get(mu, 0)
        for mu, n_mu in enumerate(fm.fusion)
        for ub, row in zip(u, n_mu)
        if ub
    )
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
