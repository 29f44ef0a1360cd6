"""Fusion rings: S-matrix route against the exact combinatorial route."""

import functools
import itertools
import math
import random

import numpy as np
import pytest

from loopfusion.errors import NumericalError, ResourceError, ValidationError
from loopfusion.finite_reps import weight_multiplicities
from loopfusion.fusion import (
    FusionElement,
    LevelWeight,
    alcove_weights,
    conjugate_weight,
    fuse_elements,
    fuse_kw,
    fuse_s,
    kac_walton_rows,
    s_matrix,
)
from loopfusion.rootdata import build_root_system, dominant_reduce, extended, pairing, theta_pairing

import oracles


def weights_of(rs, k):
    return [lw.weight for lw in alcove_weights(rs, k)]


def klimyk_sum(rs, lam, mu):
    """V_lam (x) V_mu by the scalar finite Klimyk sum over the weights of V_mu."""
    weights = weight_multiplicities(rs, mu).by_weight
    return oracles.klimyk_sum(functools.partial(dominant_reduce, rs), weights, lam)


def test_alcove_weights_worked_examples():
    a2 = build_root_system("A2")
    assert weights_of(a2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert len(weights_of(a2, 2)) == 6
    a1 = build_root_system("A1")
    assert weights_of(a1, 4) == [(0,), (1,), (2,), (3,), (4,)]
    g2 = build_root_system("G2")
    # comarks (2, 1): level-1 alcove holds the vacuum and the 7-dim label
    assert weights_of(g2, 1) == [(0, 0), (0, 1)]
    b2 = build_root_system("B2")
    assert set(weights_of(b2, 1)) == {(0, 0), (1, 0), (0, 1)}


@pytest.mark.parametrize("k", [1, np.int64(1), np.int32(1), -1, np.int64(-1), 1.0])
def test_alcove_weights_take_integer_levels_of_any_kind(k):
    rs = build_root_system("A2")
    if isinstance(k, float) or k < 0:
        with pytest.raises(ValidationError, match="level"):
            alcove_weights(rs, k)
        return
    got = alcove_weights(rs, k)
    assert got == alcove_weights(rs, 1)
    assert all(type(lw.k) is int for lw in got)


def test_alcove_weights_validation_and_degenerate_level():
    rs = build_root_system("A2")
    assert weights_of(rs, 0) == [(0, 0)]
    with pytest.raises(ValidationError):
        alcove_weights(rs, -1)
    with pytest.raises(ValidationError):
        alcove_weights(rs, 2.5)


def test_a1_s_matrix_closed_form():
    a1 = build_root_system("A1")
    for k in range(1, 7):
        s = s_matrix(a1, k)
        for i in range(k + 1):
            for j in range(k + 1):
                assert abs(s.entries[i, j] - oracles.a1_s_entry(k, i, j)) < 1e-12


def test_a1_k1_and_k2_explicit_matrices():
    a1 = build_root_system("A1")
    s = s_matrix(a1, 1)
    r = 1 / math.sqrt(2)
    assert abs(s.entries[0, 0] - r) < 1e-12
    assert abs(s.entries[0, 1] - r) < 1e-12
    assert abs(s.entries[1, 1] + r) < 1e-12
    s2 = s_matrix(a1, 2)
    assert abs(s2.entries[0, 0] - 0.5) < 1e-12
    assert abs(s2.entries[1, 1]) < 1e-12


@pytest.mark.parametrize("label,k", [("A2", 1), ("A2", 3), ("B2", 2), ("G2", 2), ("C3", 1)])
def test_s_matrix_structure(label, k):
    rs = build_root_system(label)
    s = s_matrix(rs, k)
    m = s.entries
    n = len(s.labels)
    assert m.shape == (n, n)
    assert np.abs(m - m.T).max() < 1e-9
    assert np.abs(m @ m.conj().T - np.eye(n)).max() < 1e-9
    # first column: real, positive (quantum dimensions over the total one)
    col = m[:, 0]
    assert np.abs(col.imag).max() < 1e-9
    assert col.real.min() > 0
    # S^2 is the conjugation permutation
    sq = m @ m
    perm = s.conjugation
    assert sorted(perm) == list(range(n))
    want = np.zeros((n, n))
    for i, j in enumerate(perm):
        want[i, j] = 1
    assert np.abs(sq - want).max() < 1e-9


@pytest.mark.parametrize(
    "label,kmax",
    [("A1", 3), ("A2", 3), ("A3", 3), ("B2", 3), ("B3", 3), ("C2", 3), ("C3", 3), ("D4", 3),
     ("G2", 3), ("F4", 2), ("E6", 2)],
)
def test_s_matrix_first_row_is_the_weyl_denominator_product(label, kmax):
    # S_{0 mu} = |P/kappa Q^vee|^(-1/2) prod_{alpha > 0} 2 sin(pi (mu + rho, alpha) / kappa)
    # by the Weyl denominator identity, which shares no code with the Weyl sum;
    # |P/kappa Q^vee| = kappa^r det(simple coroots in fundamental weights)
    rs = build_root_system(label)
    index = round(np.linalg.det(np.array(rs.simple_coroot_weights, dtype=float)))
    for k in range(1, kmax + 1):
        kappa = k + rs.dual_coxeter
        sm = s_matrix(rs, k)
        for j, mu in enumerate(sm.labels):
            shifted = tuple(v + 1 for v in mu)
            want = math.prod(
                2 * math.sin(math.pi * float(pairing(rs, shifted, alpha)) / kappa)
                for alpha in rs.positive_roots
            ) / math.sqrt(kappa**rs.rank * index)
            assert abs(sm.entries[0, j] - want) < 1e-12, (k, mu)


@pytest.mark.parametrize("factor", [2, 1j, -1])
def test_a_corrupted_weyl_sum_is_refused(monkeypatch, factor):
    # the normalization is closed-form and the conjugation exact, so a Weyl
    # sum off by a scale or a phase meets the gates instead of being fitted
    from loopfusion import fusion, kernels

    weyl_sum = kernels.signed_weyl_sum
    monkeypatch.setattr(kernels, "signed_weyl_sum", lambda *args: factor * weyl_sum(*args))
    monkeypatch.setattr(fusion, "_smatrix_cache", {})
    with pytest.raises(NumericalError):
        s_matrix(build_root_system("B3"), 2)


def test_warm_s_matrix_calls_take_no_lock(monkeypatch):
    # a hit reads the published entry lock-free; only a build takes the lock,
    # once, to publish its matrix
    import threading

    from loopfusion import fusion

    class CountingLock:
        def __init__(self):
            self.lock, self.acquires = threading.Lock(), 0

        def __enter__(self):
            self.acquires += 1
            return self.lock.__enter__()

        def __exit__(self, *exc):
            return self.lock.__exit__(*exc)

    lock = CountingLock()
    monkeypatch.setattr(fusion, "_smatrix_lock", lock)
    monkeypatch.setattr(fusion, "_smatrix_cache", {})
    rs = build_root_system("A2")
    cold = s_matrix(rs, 2)
    assert lock.acquires == 1
    assert s_matrix(rs, 2) is cold
    assert lock.acquires == 1


def test_racing_s_matrix_calls_all_get_the_published_matrix(monkeypatch):
    import sys
    import threading

    from loopfusion import fusion

    rs = build_root_system("B2")
    got, errors = [], []

    def work(start):
        try:
            start.wait(timeout=30)
            got.append(s_matrix(rs, 2))
        except Exception as exc:  # reported below: a thread's failure must fail the test
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(fusion, "_smatrix_cache", {})
            got.clear()
            start = threading.Barrier(8)
            threads = [threading.Thread(target=work, args=(start,)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            published = s_matrix(rs, 2)
            assert len(got) == 8 and all(sm is published for sm in got)
    finally:
        sys.setswitchinterval(old)


def test_conjugation_matches_weight_involution():
    for label, k in [("A2", 3), ("B2", 2), ("G2", 2)]:
        rs = build_root_system(label)
        s = s_matrix(rs, k)
        ws = weights_of(rs, k)
        for i, w in enumerate(ws):
            star = conjugate_weight(rs, w)
            assert star == ws[s.conjugation[i]]
            assert conjugate_weight(rs, star) == w


def test_self_conjugate_algebras_have_identity_conjugation():
    # B2 and G2 have -1 in the Weyl group, so every label is self-dual
    for label in ("A1", "B2", "G2"):
        rs = build_root_system(label)
        s = s_matrix(rs, 2)
        assert list(s.conjugation) == list(range(len(s.labels)))


def test_su2_fusion_oracle_exhaustive():
    a1 = build_root_system("A1")
    for k in range(7):
        for a in range(k + 1):
            for b in range(k + 1):
                want = oracles.su2_fusion(k, a, b)
                assert fuse_kw(a1, k, (a,), (b,)).terms == want
                assert fuse_s(a1, k, (a,), (b,)).terms == want


def test_fusion_worked_examples():
    a1 = build_root_system("A1")
    # k=1: (1).(1): tensor (0)+(2); (2)+rho = 3 lies on the kappa=3 wall
    assert fuse_kw(a1, 1, (1,), (1,)).terms == {(0,): 1}
    # k=2: (2).(2): (4)+rho = 5 reflects to 3 with sign -1, cancelling (2)
    assert fuse_kw(a1, 2, (2,), (2,)).terms == {(0,): 1}
    a2 = build_root_system("A2")
    assert fuse_kw(a2, 1, (1, 0), (1, 0)).terms == {(0, 1): 1}
    # k=2 adjoint square: wall drops kill (3,0), (0,3); a reflection of
    # (2,2) cancels one of the two tensor copies of (1,1)
    assert fuse_kw(a2, 2, (1, 1), (1, 1)).terms == {(1, 1): 1, (0, 0): 1}
    assert fuse_kw(a2, 3, (1, 1), (1, 1)).terms == {
        (1, 1): 2, (0, 0): 1, (3, 0): 1, (0, 3): 1,
    }


def test_fusion_truncation_versus_tensor():
    from loopfusion.finite_reps import tensor_decompose

    a2 = build_root_system("A2")
    tensor = tensor_decompose(a2, (1, 1), (1, 1)).terms
    assert tensor == klimyk_sum(a2, (1, 1), (1, 1))
    assert tensor[(1, 1)] == 2
    big_k = 8
    assert fuse_kw(a2, big_k, (1, 1), (1, 1)).terms == tensor


@pytest.mark.parametrize(
    "label,kmax",
    [("A1", 4), ("A2", 3), ("B2", 2), ("G2", 2)],
)
def test_two_routes_agree(label, kmax):
    rs = build_root_system(label)
    for k in range(kmax + 1):
        ws = weights_of(rs, k)
        for lam, mu in itertools.product(ws, ws):
            assert fuse_kw(rs, k, lam, mu).terms == fuse_s(rs, k, lam, mu).terms


def test_vacuum_is_the_unit():
    for label, k in [("A2", 2), ("B2", 2), ("G2", 1)]:
        rs = build_root_system(label)
        vac = (0,) * rs.rank
        for lam in weights_of(rs, k):
            assert fuse_kw(rs, k, vac, lam).terms == {lam: 1}


def test_fusion_coefficients_fully_symmetric():
    # N_{lam mu nu} = <fuse(lam, mu), nu*> is invariant under permutations
    for label, k in [("A2", 2), ("B2", 2)]:
        rs = build_root_system(label)
        ws = weights_of(rs, k)

        def n3(a, b, c):
            return fuse_kw(rs, k, a, b).terms.get(conjugate_weight(rs, c), 0)

        for a, b, c in itertools.product(ws, repeat=3):
            base = n3(a, b, c)
            assert base == n3(b, a, c) == n3(a, c, b) == n3(c, b, a)


def test_fusion_associativity():
    for label, k in [("A2", 2), ("G2", 2)]:
        rs = build_root_system(label)
        ws = weights_of(rs, k)
        for a, b, c in itertools.islice(itertools.product(ws, repeat=3), 80):
            left = fuse_elements(rs, k, fuse_kw(rs, k, a, b), FusionElement(k, {c: 1}))
            right = fuse_elements(rs, k, FusionElement(k, {a: 1}), fuse_kw(rs, k, b, c))
            assert left.terms == right.terms


def test_level_zero_ring_is_trivial():
    for label in ("A2", "B2", "G2", "C3"):
        rs = build_root_system(label)
        vac = (0,) * rs.rank
        assert fuse_kw(rs, 0, vac, vac).terms == {vac: 1}
        assert fuse_s(rs, 0, vac, vac).terms == {vac: 1}


def test_fuse_validates_labels():
    rs = build_root_system("A2")
    with pytest.raises(ValidationError):
        fuse_kw(rs, 1, (2, 0), (0, 0))
    with pytest.raises(ValidationError):
        fuse_s(rs, 1, (0, 0), (-1, 0))


def test_kac_walton_rows_refuse_labels_outside_the_alcove():
    # the reflection bound of the batch holds for alcove labels only, and a
    # label outside the alcove has no product to give
    rs = build_root_system("A2")
    for lam, mus in [((1, 0), [(4, 0)]), ((4, 0), [(0, 0)]), ((1, 0), [(0, 0), (0, -1)])]:
        with pytest.raises(ValidationError):
            kac_walton_rows(rs, 3, lam, mus)
    with pytest.raises(ValidationError):
        kac_walton_rows(rs, 3.0, (1, 0), [(0, 0)])
    assert kac_walton_rows(rs, 3, (1, 0), [(3, 0), (0, 0)]) == [{(2, 1): 1}, {(1, 0): 1}]


def test_a_kac_walton_batch_is_one_sweep_of_extended_labels(monkeypatch):
    from loopfusion import affine_weyl, finite_reps, kernels

    calls = []
    sweep = kernels.dominant_reduce_batch

    def spy(classes, xs, max_steps):
        calls.append((classes, xs.tolist(), max_steps))
        return sweep(classes, xs, max_steps)

    def live_rows(rs, kappa, offsets, lam):
        """The extended labels of the rows offset + nu with no zero label:
        a row with one starts on a wall and never reaches the kernel."""
        rows = (
            extended(rs, kappa, tuple(a + v for a, v in zip(offset, nu)))
            for offset in offsets
            for nu in finite_reps.weight_multiplicities(rs, lam).by_weight
        )
        return [list(row) for row in rows if all(row)]

    def refuse(*args):
        raise AssertionError("a Kac-Walton batch must not reach the alcove kernel")

    monkeypatch.setattr(kernels, "dominant_reduce_batch", spy)
    monkeypatch.setattr(kernels, "alcove_reduce_batch", refuse)
    monkeypatch.setattr(affine_weyl, "alcove_reduce_batch", refuse)
    for label, k, lam in [("B3", 2, (1, 0, 0)), ("G2", 3, (0, 1)), ("A3", 2, (1, 0, 1))]:
        rs = build_root_system(label)
        mus = weights_of(rs, k)
        calls.clear()
        rows = kac_walton_rows(rs, k, lam, mus)
        shifted = [tuple(v + 1 for v in mu) for mu in mus]
        live = live_rows(rs, k + rs.dual_coxeter, shifted, lam)
        assert 0 < len(live) < len(mus) * len(finite_reps.weight_multiplicities(rs, lam).by_weight)
        assert calls == [(rs.np_colour_classes, live, len(rs.positive_roots))]
        assert rows == [fuse_s(rs, k, lam, mu).terms for mu in mus]
    # a tensor product is the same one sweep, at a level no row reaches
    for label, lam, mu in [("B3", (0, 1, 1), (1, 0, 0)), ("G2", (4, 1), (3, 2)), ("A3", (2, 1, 0), (1, 0, 1))]:
        rs = build_root_system(label)
        calls.clear()
        got = finite_reps.tensor_decompose(rs, lam, mu)
        kappa = theta_pairing(rs, lam) + theta_pairing(rs, mu) + rs.dual_coxeter
        live = live_rows(rs, kappa, [tuple(v + 1 for v in lam)], mu)
        assert calls == [(rs.np_colour_classes, live, len(rs.positive_roots))]
        assert got.terms == klimyk_sum(rs, lam, mu)


def test_fuse_elements_bilinear_and_validates():
    rs = build_root_system("A1")
    x = FusionElement(2, {(0,): 1, (2,): 3})
    y = FusionElement(2, {(1,): 2})
    out = fuse_elements(rs, 2, x, y)
    # (0) . (1) = (1); (2) . (1) = (1); coefficients 1*2 + 3*2
    assert out.terms == {(1,): 8}
    with pytest.raises(ValidationError):
        fuse_elements(rs, 2, x, FusionElement(3, {(1,): 1}))


def test_fusion_element_behavior():
    el = FusionElement(2, {(1,): 1, (0,): 0})
    assert el.terms == {(1,): 1}
    assert el == FusionElement(2, {(1,): 1})
    assert el != FusionElement(3, {(1,): 1})
    el.add((1,), -1)
    assert not el
    rs = build_root_system("A2")
    e = FusionElement(1, {(0, 1): 2, (0, 0): 1, (1, 0): 5})
    assert [w for w, _ in e.sorted_terms(rs)] == [(0, 0), (1, 0), (0, 1)]


def test_kac_walton_is_exact_past_int64():
    from loopfusion.finite_reps import tensor_decompose

    k, big = 2**64, 2**63
    a1 = build_root_system("A1")
    assert fuse_kw(a1, k, (1,), (big,)).terms == oracles.su2_fusion(k, 1, big)
    assert fuse_kw(a1, k, (big,), (1,)).terms == oracles.su2_fusion(k, big, 1)
    # far from the affine wall, fusion is the plain tensor product
    a2 = build_root_system("A2")
    want = tensor_decompose(a2, (1, 1), (big, 0)).terms
    assert want == klimyk_sum(a2, (big, 0), (1, 1))
    assert len(want) == 4
    assert fuse_kw(a2, k, (1, 1), (big, 0)).terms == want


def test_cached_results_are_isolated_from_mutation():
    rs = build_root_system("A2")
    first = fuse_kw(rs, 1, (1, 0), (0, 1))
    first.add((1, 0), 99)
    again = fuse_kw(rs, 1, (1, 0), (0, 1))
    assert (1, 0) not in again.terms or again.terms[(1, 0)] != 100


def test_s_matrix_cache_returns_same_object():
    rs = build_root_system("B2")
    assert s_matrix(rs, 2) is s_matrix(rs, 2)


def test_level_weight_is_hashable_record():
    lw = LevelWeight(weight=(1, 0), k=3)
    assert lw.weight == (1, 0) and lw.k == 3
    assert len({lw, LevelWeight(weight=(1, 0), k=3)}) == 1


def test_s_matrix_refuses_past_its_byte_cap_before_any_walk_or_label_list(monkeypatch):
    from loopfusion import fusion, kernels
    from loopfusion.rootdata import RootSystem

    def refuse(*args, **kwargs):
        raise AssertionError("the byte cap must refuse first")

    def listed(*args, **kwargs):
        raise LookupError("labels listed")

    monkeypatch.setattr(kernels, "signed_weyl_sum", refuse)
    monkeypatch.setattr(RootSystem, "weyl_matrices", refuse)
    monkeypatch.setattr(fusion, "alcove_weights", listed)
    # about 24 |W| n^2 bytes: A2 k=200 (n = 20301) 59 GB, E6 k=5 (n = 78) 7.6 GB
    for label, k in [("A2", 200), ("E6", 5), ("A2", 10**9)]:
        with pytest.raises(ResourceError, match=f"level-{k} S-matrix of {label} exceeds the cap "
                           f"of {2**32} bytes for its Weyl sum"):
            s_matrix(build_root_system(label), k)
    # E6 k=4 (2.2 GB) and A2 k=103 (n = 5460, 4.29 GB) pass on to list their labels
    for label, k in [("E6", 4), ("A2", 103)]:
        with pytest.raises(LookupError):
            s_matrix(build_root_system(label), k)
    # E7 k=3 is past both caps; the Weyl cap, checked first, keeps its message
    with pytest.raises(ResourceError, match="Weyl order 2903040 of E7 exceeds the cap 51840"):
        s_matrix(build_root_system("E7"), 3)


@pytest.mark.parametrize("label,k", [("F4", 4), ("A2", 30), ("E6", 2)])
def test_s_matrix_build_peaks_under_its_byte_cap_count(label, k):
    # the cap admits a level while 24 |W| n^2 bytes fit under it, so the
    # build, Weyl sum included, must peak under that count
    import tracemalloc

    from loopfusion.fusion import _build_s_matrix
    from loopfusion.rootdata import weyl_group_size

    rs = build_root_system(label)
    rs.weyl_matrices()  # built once per algebra and cached, not per level
    tracemalloc.start()
    try:
        sm = _build_s_matrix(rs, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * weyl_group_size(rs) * len(sm.labels) ** 2


def test_fuse_s_gates_its_rounding_with_the_error_estimate(monkeypatch):
    # an S-matrix whose recorded residual is 1e-4 still rounds every A2 k=3
    # coefficient within 1e-6 of an integer, but the first-order error
    # estimate of the sum reaches the tolerance, so fuse_s refuses
    from loopfusion import fusion

    a2 = build_root_system("A2")
    sm = s_matrix(a2, 3)
    lam = mu = (1, 1)
    assert fuse_s(a2, 3, lam, mu) == fuse_kw(a2, 3, lam, mu)
    monkeypatch.setattr(fusion, "s_matrix", lambda rs, k: sm._replace(residual=1e-12))
    assert fuse_s(a2, 3, lam, mu) == fuse_kw(a2, 3, lam, mu)
    monkeypatch.setattr(fusion, "s_matrix", lambda rs, k: sm._replace(residual=1e-4))
    with pytest.raises(NumericalError, match="error estimate"):
        fuse_s(a2, 3, lam, mu)


def test_routes_agree_on_every_e6_level_2_pair():
    # includes the self-products of 27, 27bar, 78, 650 and the 351s, whose
    # weight systems once hit the candidate cap
    e6 = build_root_system("E6")
    ws = weights_of(e6, 2)
    for lam, mu in itertools.combinations_with_replacement(ws, 2):
        assert fuse_kw(e6, 2, lam, mu) == fuse_s(e6, 2, lam, mu), (lam, mu)


@pytest.mark.parametrize(
    "label,levels,rule",
    [("A1", range(61), oracles.a1_fusion_coefficient), ("A2", range(13), oracles.a2_fusion_coefficient)],
    ids=["A1", "A2"],
)
def test_fusion_matrices_equal_the_closed_form_rule_on_every_label_triple(label, levels, rule):
    # the A1 rule, and the Begin-Mathieu-Walton threshold levels for A2,
    # against every coefficient of the stored matrices, zeros included
    from loopfusion.verlinde import fusion_matrices

    rs = build_root_system(label)
    unpack = (lambda w: w[0]) if label == "A1" else (lambda w: w)
    for k in levels:
        fm = fusion_matrices(rs, k)
        labels = [unpack(w) for w in fm.labels]
        for a, lam in enumerate(labels):
            for b, mu in enumerate(labels):
                row = fm.fusion[a][b]
                assert [row.get(c, 0) for c in range(len(labels))] == [rule(k, lam, mu, nu) for nu in labels], (
                    k, lam, mu)


def test_fuse_kw_equals_the_a2_threshold_rule_on_large_labels():
    # about 20 seeded pairs of A2 labels with entries up to 100 at k = 300:
    # every term of fuse_kw is the rule's coefficient, and every label the
    # rule couples (one of the right triality, within the tensor product's
    # level) is a term
    rs = build_root_system("A2")
    k = 300
    rng = random.Random("A2 k=300 threshold levels")
    for _ in range(20):
        lam, mu = (tuple(rng.randint(0, 100) for _ in range(2)) for _ in range(2))
        terms = fuse_kw(rs, k, lam, mu).terms
        top = min(k, sum(lam) + sum(mu))
        want = {}
        for n1 in range(top + 1):
            for n2 in range(top + 1 - n1):
                if (n1 + 2 * n2 - lam[0] - 2 * lam[1] - mu[0] - 2 * mu[1]) % 3 == 0:
                    if c := oracles.a2_fusion_coefficient(k, lam, mu, (n1, n2)):
                        want[(n1, n2)] = c
        assert terms == want, (lam, mu)


def test_tensor_products_equal_the_a2_rule_at_infinite_level():
    # tensor_decompose, and the Kac-Walton rows at k = level(lam) + level(mu),
    # where no row meets an affine wall, both give the rule's terms
    from loopfusion import fusion
    from loopfusion.finite_reps import tensor_decompose

    rs = build_root_system("A2")
    rng = random.Random("A2 tensor threshold levels")
    for _ in range(20):
        lam, mu = (tuple(rng.randint(0, 12) for _ in range(2)) for _ in range(2))
        top = sum(lam) + sum(mu)
        want = {}
        for nu in itertools.product(range(top + 1), repeat=2):
            if c := oracles.a2_fusion_coefficient(None, lam, mu, nu):
                want[nu] = c
        assert tensor_decompose(rs, lam, mu).terms == want, (lam, mu)
        assert fusion.kac_walton_rows(rs, top, lam, [mu]) == [want], (lam, mu)
