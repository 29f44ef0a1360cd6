"""Dimensions, weight multiplicities, tensor products, character values."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopfusion.errors import ResourceError, ValidationError
from loopfusion.finite_reps import (
    VirtualCharacter,
    character_numerator,
    character_ratio,
    tensor_decompose,
    tensor_dimension_identity,
    weight_multiplicities,
    weyl_dimension,
)
from loopfusion.fusion import FusionElement
from loopfusion.rootdata import build_root_system, weyl_orbit

import oracles


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_dimensions_match_closed_forms(label):
    rs = build_root_system(label)
    formula = oracles.DIM_FORMULAS[label]
    top = 9 if label == "A1" else 5
    for a in range(top):
        for b in range(top):
            lam = (a,) if label == "A1" else (a, b)
            assert weyl_dimension(rs, lam) == formula(lam)


def test_dimension_basics_and_adjoints():
    for label, (dim, _, _) in oracles.LIE_TABLES.items():
        rs = build_root_system(label)
        assert weyl_dimension(rs, (0,) * rs.rank) == 1
    # adjoint representation: highest weight = highest root
    for label in ("A1", "A2", "B2", "G2", "F4", "E8"):
        rs = build_root_system(label)
        assert weyl_dimension(rs, rs.highest_root) == oracles.LIE_TABLES[label][0]


def test_dimension_validation():
    rs = build_root_system("A2")
    with pytest.raises(ValidationError):
        weyl_dimension(rs, (-1, 0))
    with pytest.raises(ValidationError):
        weyl_dimension(rs, (1,))


def test_weight_multiplicities_worked_examples():
    a2 = build_root_system("A2")
    m = weight_multiplicities(a2, (1, 1))
    assert m.by_weight[(1, 1)] == 1
    assert m.by_weight[(0, 0)] == 2
    assert m.by_weight[(2, -1)] == 1
    assert m.by_weight[(-1, 2)] == 1
    assert m.by_weight[(-1, -1)] == 1
    assert m.total() == 8
    assert set(m.dominant) == {(1, 1), (0, 0)}

    g2 = build_root_system("G2")
    adj = weight_multiplicities(g2, (1, 0))
    assert adj.by_weight[(0, 0)] == 2
    assert adj.total() == 14

    b2 = build_root_system("B2")
    spinor = weight_multiplicities(b2, (0, 1))
    assert spinor.total() == 4
    assert all(v == 1 for v in spinor.by_weight.values())


@pytest.mark.parametrize(
    "label,lam",
    [("A1", (7,)), ("A2", (2, 3)), ("B2", (2, 2)), ("G2", (1, 1)), ("C3", (1, 1, 0))],
)
def test_weight_multiplicity_invariants(label, lam):
    rs = build_root_system(label)
    m = weight_multiplicities(rs, lam)
    assert m.total() == weyl_dimension(rs, lam)
    assert m.by_weight[lam] == 1
    # multiplicity is a Weyl-orbit invariant
    for w, mult in m.dominant.items():
        for y in weyl_orbit(rs, w):
            assert m.by_weight[y] == mult


def test_weight_multiplicity_cap():
    rs = build_root_system("B2")
    with pytest.raises(ResourceError):
        weight_multiplicities(rs, (3, 3), cap=10)


def test_su2_clebsch_gordan_exhaustive():
    rs = build_root_system("A1")
    for a in range(9):
        for b in range(9):
            got = tensor_decompose(rs, (a,), (b,))
            assert got.terms == oracles.clebsch_gordan(a, b)


def test_tensor_worked_examples():
    a2 = build_root_system("A2")
    got = tensor_decompose(a2, (1, 0), (0, 1))
    assert got.terms == {(1, 1): 1, (0, 0): 1}
    got = tensor_decompose(a2, (1, 1), (1, 1))
    assert got.terms == {
        (2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1,
    }
    b2 = build_root_system("B2")
    got = tensor_decompose(b2, (0, 1), (0, 1))
    assert got.terms == {(0, 2): 1, (1, 0): 1, (0, 0): 1}
    g2 = build_root_system("G2")
    got = tensor_decompose(g2, (0, 1), (0, 1))
    assert got.terms == {(0, 2): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_tensor_commutes_and_respects_dimension(label):
    rs = build_root_system(label)
    rng = random.Random(17)
    for _ in range(25):
        lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
        mu = tuple(rng.randint(0, 3) for _ in range(rs.rank))
        ab = tensor_decompose(rs, lam, mu)
        ba = tensor_decompose(rs, mu, lam)
        assert ab.terms == ba.terms
        assert tensor_dimension_identity(rs, lam, mu)
        total = sum(m * weyl_dimension(rs, nu) for nu, m in ab.terms.items())
        assert total == weyl_dimension(rs, lam) * weyl_dimension(rs, mu)
        assert all(m > 0 for m in ab.terms.values())


def test_tensor_with_trivial_factor():
    rs = build_root_system("B2")
    for lam in [(0, 0), (2, 1), (0, 3)]:
        assert tensor_decompose(rs, lam, (0, 0)).terms == {lam: 1}


def test_tensor_associativity_spot_checks():
    rs = build_root_system("A2")
    triples = [((1, 0), (0, 1), (1, 1)), ((1, 1), (1, 0), (2, 0)), ((0, 2), (1, 0), (0, 1))]
    for a, b, c in triples:
        left = VirtualCharacter({})
        for nu, m in tensor_decompose(rs, a, b).terms.items():
            for tau, n in tensor_decompose(rs, nu, c).terms.items():
                left.add(tau, m * n)
        right = VirtualCharacter({})
        for nu, m in tensor_decompose(rs, b, c).terms.items():
            for tau, n in tensor_decompose(rs, a, nu).terms.items():
                right.add(tau, m * n)
        assert left.terms == right.terms


def test_virtual_character_algebra():
    a = VirtualCharacter({(1, 0): 2, (0, 0): 1, (3, 3): 0})
    assert a.terms == {(1, 0): 2, (0, 0): 1}
    a.add((1, 0), -2)
    assert a.terms == {(0, 0): 1}
    a.add((2, 2), 3)
    assert a == VirtualCharacter({(0, 0): 1, (2, 2): 3})
    assert a != FusionElement(4, {(0, 0): 1, (2, 2): 3})
    assert not VirtualCharacter({})
    assert bool(a)


def test_character_ratio_worked_examples():
    a1 = build_root_system("A1")
    # k=1: both alcove labels give ratio 1 at mu=0
    assert abs(character_ratio(a1, 1, (0,), (0,)) - 1.0) < 1e-12
    assert abs(character_ratio(a1, 1, (1,), (0,)) - 1.0) < 1e-12
    # k=2: the middle label evaluates to sqrt(2) at the vacuum point
    assert abs(character_ratio(a1, 2, (1,), (0,)) - 2 ** 0.5) < 1e-12


def test_character_ratio_matches_s_matrix_columns():
    from loopfusion.fusion import alcove_weights, s_matrix

    for label, k in [("A1", 3), ("A2", 2), ("B2", 2), ("G2", 1)]:
        rs = build_root_system(label)
        s = s_matrix(rs, k)
        weights = [lw.weight for lw in alcove_weights(rs, k)]
        zero = weights.index((0,) * rs.rank)
        for i, lam in enumerate(weights):
            for j, mu in enumerate(weights):
                want = s.entries[i, j] / s.entries[zero, j]
                got = character_ratio(rs, k, lam, mu)
                assert abs(got - want) < 1e-9


def test_character_numerator_antisymmetry():
    rs = build_root_system("A2")
    kappa = 3 + 2
    # swapping the two arguments of the bilinear phase conjugates the sum
    val = character_numerator(rs, kappa, (2, 1), (1, 1))
    swapped = character_numerator(rs, kappa, (1, 1), (2, 1))
    assert abs(val - swapped.conjugate()) < 1e-9 * (1 + abs(val))


def test_character_ratio_validation():
    rs = build_root_system("A1")
    with pytest.raises(ValidationError):
        character_ratio(rs, 2, (-1,), (0,))
    with pytest.raises(ValidationError):
        character_ratio(rs, 2, (1,), (3,))


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(["A1", "A2", "B2"]),
    data=st.data(),
)
def test_freudenthal_total_is_weyl_dimension(label, data):
    rs = build_root_system(label)
    cap = {"A1": 12, "A2": 5, "B2": 4}[label]
    lam = tuple(data.draw(st.integers(min_value=0, max_value=cap)) for _ in range(rs.rank))
    m = weight_multiplicities(rs, lam)
    assert m.total() == weyl_dimension(rs, lam)


def test_tensor_with_huge_highest_weight_uses_exact_reduction():
    rs = build_root_system("A1")
    big = 1 << 45
    decomp = tensor_decompose(rs, (big,), (2,))
    assert decomp.terms == {(big + 2,): 1, (big,): 1, (big - 2,): 1}
    from loopfusion.rootdata import dominant_reduce

    red, sign = dominant_reduce(rs, (-big,))
    assert red == (big,) and sign == -1
