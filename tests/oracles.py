"""Independent oracles for the test suite.

Everything here is computed from first principles with no imports from the
package under test: closed-form su(2) and su(3) fusion rules, frozen
Lie-theory tables, a brute-force affine orbit search, and a standalone
coroot generator working straight from frozen Cartan matrices.  The index
formula takes its S-matrix and characters as arguments, so that it sums
them with no alcove reduction, and the two-pass closed-form alcove lengths
take the root data they read as an argument, pairing x with every positive
root by a full dot product.  So do the greedy affine walk and its inverse,
which read only the level, the comarks and the affine Cartan rows, the
weight table of the Galois check, which reads the form through the pairing
it is given, and the symplectic level-rank label map and the forward
differences of a sequence, which read nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction

# frozen Cartan matrices, convention cartan[i][j] = <alpha_j, alpha_i^vee>
CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "G2": [[2, -1], [-3, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
}

# dim(adjoint), dual Coxeter number, |W| for the algebras the suite touches
LIE_TABLES = {
    "A1": (3, 2, 2),
    "A2": (8, 3, 6),
    "A3": (15, 4, 24),
    "B2": (10, 3, 8),
    "B3": (21, 5, 48),
    "C3": (21, 4, 48),
    "D3": (15, 4, 24),
    "D4": (28, 6, 192),
    "E6": (78, 12, 51840),
    "E7": (133, 18, 2903040),
    "E8": (248, 30, 696729600),
    "F4": (52, 9, 1152),
    "G2": (14, 4, 12),
}


def adjoint_dim(series: str, rank: int) -> int:
    if series == "A":
        return rank * (rank + 2)
    if series in ("B", "C"):
        return 2 * rank * rank + rank
    if series == "D":
        return 2 * rank * rank - rank
    return LIE_TABLES[f"{series}{rank}"][0]


# closed-form Weyl dimension polynomials, per algebra label
def dim_a1(a: int) -> int:
    return a + 1


def dim_a2(a: int, b: int) -> int:
    return (a + 1) * (b + 1) * (a + b + 2) // 2


def dim_b2(a: int, b: int) -> int:
    # a on the vector node (long root), b on the spinor node
    return (a + 1) * (b + 1) * (a + b + 2) * (2 * a + b + 3) // 6


def dim_g2(a: int, b: int) -> int:
    # a on the long (adjoint) node, b on the short (7-dim) node
    return (
        (a + 1) * (b + 1) * (a + b + 2) * (2 * a + b + 3)
        * (3 * a + b + 4) * (3 * a + 2 * b + 5) // 120
    )


DIM_FORMULAS = {
    "A1": lambda w: dim_a1(*w),
    "A2": lambda w: dim_a2(*w),
    "B2": lambda w: dim_b2(*w),
    "G2": lambda w: dim_g2(*w),
}


def su2_weight_ladder(n: int) -> dict:
    """Weights of the (n+1)-dimensional su(2) irrep: n, n-2, ..., -n."""
    return {(m,): 1 for m in range(-n, n + 1, 2)}


def clebsch_gordan(a: int, b: int) -> dict:
    """su(2) tensor rule: |a-b| .. a+b in steps of 2, multiplicity one."""
    return {(c,): 1 for c in range(abs(a - b), a + b + 1, 2)}


def a1_fusion_coefficient(k: int, a: int, b: int, c: int) -> int:
    """Level-k su(2) fusion coefficient N_ab^c: truncated Clebsch-Gordan,
    1 iff |a-b| <= c <= min(a+b, 2k-a-b) and a+b+c is even, else 0."""
    return int(abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0)


def su2_fusion(k: int, a: int, b: int) -> dict:
    """Level-k su(2) fusion of a and b: the c of the Clebsch-Gordan range
    |a-b|..a+b that :func:`a1_fusion_coefficient` keeps."""
    return {(c,): 1 for c in range(abs(a - b), a + b + 1, 2) if a1_fusion_coefficient(k, a, b, c)}


def a2_fusion_coefficient(k, lam: tuple, mu: tuple, nu: tuple) -> int:
    """Level-k su(3) fusion coefficient N_{lam mu}^nu by the threshold levels
    of Begin, Mathieu and Walton ("su(3)_k fusion coefficients", Mod. Phys.
    Lett. A 1992); k = None gives the tensor-product multiplicity.

    Over the invariant triple (lam, mu, nu*), nu* = (nu_2, nu_1), with s_j
    the sum of the j-th coordinates, a = (2 s_1 + s_2)/3 and
    b = (s_1 + 2 s_2)/3 are integers (triality) or the coefficient is 0.
    The couplings live at the levels k_min..k_max, with k_max = min(a, b)
    and k_min the largest of each label's level and of a and b less the
    least first and second coordinate; N = max(0, min(k, k_max) - k_min + 1).
    """
    triple = (lam, mu, (nu[1], nu[0]))
    s1, s2 = (sum(t[j] for t in triple) for j in (0, 1))
    if (2 * s1 + s2) % 3:
        return 0
    a, b = (2 * s1 + s2) // 3, (s1 + 2 * s2) // 3
    k_min = max(*(t[0] + t[1] for t in triple), a - min(t[0] for t in triple), b - min(t[1] for t in triple))
    k_max = min(a, b) if k is None else min(a, b, k)
    return max(0, k_max - k_min + 1)


def a1_s_entry(k: int, a: int, b: int) -> float:
    kappa = k + 2
    return math.sqrt(2.0 / kappa) * math.sin(math.pi * (a + 1) * (b + 1) / kappa)


def a1_brute_reduce(kappa: int, x: int):
    """Breadth-first search over the affine orbit of x on the line.

    Generators: s1: x -> -x and s0: x -> 2*kappa - x.  Returns
    (status, reduced, length) with length the graph distance to the interior
    point, or ('wall', x mod kappa pinned to a wall, None).
    """
    assert kappa >= 1
    if x % kappa == 0:
        return ("wall", None, None)
    seen = {x: 0}
    frontier = [x]
    depth = 0
    while frontier:
        for y in frontier:
            if 0 < y < kappa:
                return ("interior", y, seen[y])
        depth += 1
        nxt = []
        for y in frontier:
            for z in (-y, 2 * kappa - y):
                if z not in seen:
                    seen[z] = depth
                    nxt.append(z)
        frontier = nxt
    raise AssertionError("orbit search must find an interior point")


def positive_coroots_from_cartan(cartan) -> list[tuple[int, ...]]:
    """All positive coroots in simple-coroot coordinates, by dual closure.

    Works in the dual root system: reflections act on a coordinate vector c
    by c -> c - (sum_j cartan[j][i] * c_j) e_i.
    """
    rank = len(cartan)
    start = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen = set(start) | {tuple(-v for v in c) for c in start}
    frontier = list(seen)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rank):
                pair = sum(cartan[j][i] * c[j] for j in range(rank))
                image = tuple(
                    v - pair * (1 if j == i else 0) for j, v in enumerate(c)
                )
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(c for c in seen if all(v >= 0 for v in c) and any(c))


def symmetrizer_from_cartan(cartan) -> list[Fraction]:
    """Half square norms d_i of the simple roots, long roots pinned to 1.

    Solves d_i * a_ij = d_j * a_ji along the diagram, then rescales by the
    maximum so the long roots (the length class of the highest root) carry
    d = 1, matching the (theta, theta) = 2 normalization.
    """
    rank = len(cartan)
    d = [None] * rank
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                queue.append(j)
    assert all(v is not None for v in d), "Cartan matrix must be connected"
    top = max(d)
    return [v / top for v in d]


def wall_by_enumeration(cartan, kappa: int, x) -> bool:
    """Exhaustive wall test: some root alpha has (x, alpha) in kappa*Z.

    Works per positive coroot c (coordinates of alpha^vee): the form pairing
    is (x, alpha) = d_alpha * sum_j c_j x_j with d_alpha = 2/(alpha^vee,
    alpha^vee) computed from the coroot Gram matrix a_ij / d_j.
    """
    d = symmetrizer_from_cartan(cartan)
    rank = len(cartan)
    for coroot in positive_coroots_from_cartan(cartan):
        covee_sq = sum(
            Fraction(coroot[i]) * coroot[j] * cartan[i][j] / d[j]
            for i in range(rank)
            for j in range(rank)
        )
        d_alpha = 2 / covee_sq
        value = d_alpha * sum(Fraction(c) * v for c, v in zip(coroot, x))
        if (value / kappa).denominator == 1:
            return True
    return False


def index_euler_characteristic(sm, character, genus: int, insertions) -> complex:
    """The index formula sum_mu S_{0mu}^(2-2g) prod_i chi_{lambda_i}(mu).

    It is the signed Euler characteristic of the genus-g cohomology with
    dominant insertions lambda_i, read off the unreduced weights: the Weyl
    character changes sign under the shifted affine Weyl group and vanishes
    on its walls (Teleman and Woodward, "The index formula for the moduli of
    G-bundles on a curve", 2009).  ``sm`` has the level's ``labels`` and
    S-matrix ``entries``, and ``character(lam, mu)`` is the Weyl character of
    lam at exp(-2 pi i (mu+rho)/kappa), for any dominant lam.
    """
    vacuum = sm.index[(0,) * len(sm.labels[0])]
    total = 0j
    for m, mu in enumerate(sm.labels):
        term = complex(sm.entries[vacuum, m]) ** (2 - 2 * genus)
        for lam in insertions:
            term *= character(lam, mu)
        total += term
    return total


def klimyk_sum(reduce, weights: dict, lam: tuple) -> dict:
    """V_lam (x) V_mu by the finite Klimyk sum, one scalar reduction per row.

    ``weights`` maps each weight nu of V_mu to its multiplicity, and
    ``reduce(x)`` returns the dominant point of the finite Weyl orbit of x
    with (-1)^reflections, as ``rootdata.dominant_reduce`` does.  The row
    lam + rho + nu counts at its dominant point less rho, with that sign
    times its multiplicity; a row whose dominant point has a zero Dynkin
    label lies on a wall and drops (Klimyk 1968).
    """
    out: dict = {}
    for nu, mult in weights.items():
        point, sign = reduce(tuple(a + 1 + b for a, b in zip(lam, nu)))
        if all(point):
            key = tuple(v - 1 for v in point)
            out[key] = out.get(key, 0) + sign * mult
    return {w: c for w, c in sorted(out.items()) if c}


def length_and_wall(ctx, x) -> tuple[int, bool]:
    """Closed-form alcove reduction length of x and whether x is on a wall,
    with every pairing a full dot product over the positive roots.

    ``ctx`` has the level ``kappa`` and the root data ``rs``, whose
    ``root_pairs`` row of alpha is form_den * alpha under the form.  With
    x . pair = q*den + r and den = form_den*kappa, a root counts |q| walls
    strictly between x and the alcove, or q - 1 (q > 0) and -q (q <= 0) when
    r = 0 puts x on one of its walls (Humphreys, *Reflection Groups and
    Coxeter Groups*, 4.5).
    """
    den = ctx.rs.form_den * ctx.kappa
    length = 0
    wall = False
    for pair in ctx.rs.root_pairs:
        q, r = divmod(sum(a * b for a, b in zip(x, pair)), den)
        if r:
            length += abs(q)
        else:
            wall = True
            length += q - 1 if q > 0 else -q
    return length, wall


def translate(ctx, x) -> tuple:
    """x moved by kappa*Q^vee so that its coordinates (x, omega_i) on the
    simple coroots lie in [0, kappa), from the integer form ``form_int``
    and the simple coroots as integer weights ``simple_coroot_weights``."""
    rs = ctx.rs
    den = rs.form_den * ctx.kappa
    y = list(x)
    for row, coroot in zip(rs.form_int, rs.simple_coroot_weights):
        n = sum(a * b for a, b in zip(row, x)) // den
        for j, c in enumerate(coroot):
            y[j] -= n * ctx.kappa * c
    return tuple(y)


def two_pass_lengths(ctx, x) -> tuple[int, bool, int]:
    """(length, wall, translate's length): :func:`length_and_wall` run on x
    and again on its :func:`translate`."""
    length, wall = length_and_wall(ctx, x)
    return length, wall, length_and_wall(ctx, translate(ctx, x))[0]


def _extended_labels(rs, kappa, x) -> list:
    """(kappa - (x, theta^vee), *x) from ``rs.comarks``: the closed alcove at
    level kappa is the orthant of these labels (Kac, *Infinite Dimensional
    Lie Algebras*, 6.1)."""
    return [kappa - sum(c * v for c, v in zip(rs.comarks, x)), *x]


def _generator(rs, y: list, idx: int) -> list:
    """Affine generator idx on extended labels: y - y_idx * a_idx, with a_idx
    row idx of ``rs.affine_roots`` (0 the affine wall, i >= 1 s_i)."""
    c = y[idx]
    return [v - c * a for v, a in zip(y, rs.affine_roots[idx])]


def greedy_walk(rs, kappa, x, affine_first: bool = True) -> tuple[tuple[int, ...], tuple]:
    """(word, end): the greedy walk of x into the closed alcove at level kappa.

    Each step fires the first negative extended label in the order 0..rank
    (``affine_first``) or 1..rank, 0, and the letters come out in the order
    they fire; ``end`` is the closed-alcove point reached.  Every step
    crosses one wall separating x from the alcove, so the word is as long as
    the reduction, and :func:`apply_word` of it maps ``end`` back to x.
    Exact on ints and Fractions.
    """
    y = _extended_labels(rs, kappa, x)
    order = range(len(y)) if affine_first else (*range(1, len(y)), 0)
    word = []
    while (idx := next((i for i in order if y[i] < 0), None)) is not None:
        y = _generator(rs, y, idx)
        word.append(idx)
    return tuple(word), tuple(y[1:])


def apply_word(rs, kappa, word, x) -> tuple:
    """The generator word applied to x at level kappa, the last letter acting
    first, on extended labels as :func:`greedy_walk` fires them."""
    y = _extended_labels(rs, kappa, x)
    for idx in reversed(word):
        y = _generator(rs, y, idx)
    return tuple(y[1:])


def root_of_unity_mod_prime(m: int) -> tuple[int, int]:
    """(p, omega): the least prime p = 1 (mod m) and an omega of order
    exactly m in the multiplicative group of F_p."""
    p = m + 1
    while p < 3 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += m
    factors = {q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, math.isqrt(q) + 1))}
    for g in range(2, p):
        omega = pow(g, (p - 1) // m, p)
        if all(pow(omega, m // q, p) != 1 for q in factors):
            return p, omega
    raise AssertionError("F_p has an element of every order dividing p - 1")


def weight_table(weights: dict, pair, rank: int) -> list[tuple[tuple, int]]:
    """The weights nu of one irrep as (row, multiplicity) pairs, with row the
    linear form x -> pair(nu, x) on the rank coordinates of x, read off the
    unit vectors once per weight: pair(nu, x) = row . x."""
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    return [(tuple(pair(nu, e) for e in units), mult) for nu, mult in weights.items()]


def character_mod_p(table, x, modulus: int, omega: int, p: int) -> int:
    """sum_nu m(nu) * omega^(row(nu) . x mod modulus) mod p over a
    :func:`weight_table`: the character at exp(2 pi i x / kappa) with the
    modulus-th root of unity replaced by omega in F_p.  It is invariant under
    the affine Weyl group W x kappa Q^vee when the modulus is form_den * kappa
    and the rows come from form_den times the form."""
    return sum(m * pow(omega, sum(a * b for a, b in zip(row, x)) % modulus, p) for row, m in table) % p


def symplectic_transpose(labels: tuple, k: int) -> tuple:
    """The level-rank map from C_n at level k to C_k at level n (Mlawer,
    Naculich, Riggs and Schnitzer, Nucl. Phys. B 1991): the Dynkin labels
    a_1..a_n, a_n on the long root, give the partition lam_i = a_i + ... + a_n
    in an n x k box, and its transpose, in a k x n box, is read back as the
    k labels b_j = lam^T_j - lam^T_(j+1)."""
    lam = [sum(labels[i:]) for i in range(len(labels))]
    dual = [sum(part > j for part in lam) for j in range(k)]
    return tuple(a - b for a, b in zip(dual, [*dual[1:], 0]))


def forward_difference(values: list, order: int) -> list:
    """The order-th forward differences of a sequence: v[i+1] - v[i] taken
    ``order`` times, so len(values) - order entries remain."""
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values
