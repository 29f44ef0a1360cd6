"""Fusion rings: S-matrix route against the exact combinatorial route."""

import itertools
import math

import pytest

from loopfusion.errors import NumericalError, ValidationError
from loopfusion.fusion import (
    FusionElement,
    LevelWeight,
    alcove_weights,
    conjugate_weight,
    fuse_elements,
    fuse_kw,
    fuse_s,
    s_matrix,
)
from loopfusion.rootdata import build_root_system

import oracles


def weights_of(rs, k):
    return [lw.weight for lw in alcove_weights(rs, k)]


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
    import numpy as np

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
