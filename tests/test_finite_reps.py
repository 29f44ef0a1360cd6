"""Dimensions, weight multiplicities, tensor products, character values."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopfusion.errors import NumericalError, ResourceError, ValidationError
from loopfusion.finite_reps import (
    VirtualCharacter,
    character_ratio,
    tensor_decompose,
    weight_multiplicities,
    weyl_dimension,
)
from loopfusion.fusion import FusionElement, s_matrix
from loopfusion.rootdata import _orbit_size, build_root_system, dominant_reduce, weyl_cap, weyl_orbit

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


def test_weight_multiplicity_cap(monkeypatch):
    from loopfusion import finite_reps

    monkeypatch.setattr(finite_reps, "WEIGHT_CAP_DEFAULT", 10)
    rs = build_root_system("B2")
    with pytest.raises(ResourceError):
        weight_multiplicities(rs, (3, 3))


def test_huge_weights_are_refused_before_any_recursion(monkeypatch):
    from loopfusion import finite_reps

    def refuse(*args, **kwargs):
        raise AssertionError("the cap must refuse before the Freudenthal recursion")

    monkeypatch.setattr(finite_reps, "pairing_int", refuse)
    a1 = build_root_system("A1")
    with pytest.raises(ResourceError):
        tensor_decompose(a1, (2**45,), (2**45,))
    # A2 (40, 40) has 3*41*41 - 3*41 + 1 = 4921 weights, each label below the cap
    monkeypatch.setattr(finite_reps, "WEIGHT_CAP_DEFAULT", 4920)
    with pytest.raises(ResourceError):
        weight_multiplicities(build_root_system("A2"), (40, 40))
    # the orbit of (3, 0) fits under the Weyl cap, that of its weight (1, 1) does not
    monkeypatch.setattr(finite_reps, "WEIGHT_CAP_DEFAULT", 999)
    monkeypatch.setenv("LOOPFUSION_WEYL_CAP", "5")
    with pytest.raises(ResourceError, match=r"orbit of \(1, 1\)"):
        weight_multiplicities(build_root_system("A2"), (3, 0))


def test_a_lowered_weyl_cap_refuses_cached_answers_too(monkeypatch):
    a2 = build_root_system("A2")
    assert weight_multiplicities(a2, (1, 1)).total() == 8
    assert len(s_matrix(a2, 1).labels) == 3
    monkeypatch.setenv("LOOPFUSION_WEYL_CAP", "2")
    with pytest.raises(ResourceError, match=r"orbit of \(1, 1\)"):
        weight_multiplicities(a2, (1, 1))
    with pytest.raises(ResourceError, match="Weyl order 6 of A2"):
        s_matrix(a2, 1)


def test_a1_weight_system_of_20000_is_one_string_of_multiplicity_one():
    m = weight_multiplicities(build_root_system("A1"), (20000,))
    assert len(m.by_weight) == 20001
    assert set(m.by_weight) == {(v,) for v in range(-20000, 20001, 2)}
    assert set(m.by_weight.values()) == {1}
    assert m.dominant == {(v,): 1 for v in range(0, 20001, 2)}


def test_a3_weight_system_of_8_8_8_sums_to_its_dimension():
    a3 = build_root_system("A3")
    m = weight_multiplicities(a3, (8, 8, 8))
    assert m.total() == weyl_dimension(a3, (8, 8, 8)) == 9**6
    for w, mult in m.dominant.items():
        assert all(m.by_weight[y] == mult for y in weyl_orbit(a3, w))


ORBIT_LABELS = ["A1", "A2", "A3", "A4", "B3", "C3", "D4", "D5", "G2", "F4", "E6", "E7", "E8"]


@pytest.mark.parametrize("label", ORBIT_LABELS)
def test_orbit_size_is_the_length_of_the_orbit(label):
    rs = build_root_system(label)
    for support in itertools.product((0, 1), repeat=rs.rank):
        size = _orbit_size(rs, support)
        assert rs.weyl_order % size == 0
        if size > weyl_cap():
            assert label in ("E7", "E8")
        else:
            assert size == len(weyl_orbit(rs, support))


def test_orbit_size_enumerates_nothing(monkeypatch):
    from loopfusion import finite_reps, rootdata

    def refuse(*args, **kwargs):
        raise AssertionError("orbit sizes must not enumerate an orbit")

    monkeypatch.setattr(finite_reps, "weyl_orbit", refuse)
    monkeypatch.setattr(rootdata, "weyl_orbit", refuse)
    e8 = build_root_system("E8")
    assert _orbit_size.__wrapped__(e8, (1,) * 8) == 696729600
    assert _orbit_size.__wrapped__(e8, (0,) * 8) == 1


def test_large_weight_systems_count_only_real_weights(monkeypatch):
    from loopfusion import finite_reps

    # E6 650 = 270 weights of multiplicity 1, 72 of multiplicity 5, zero with 20
    e6 = build_root_system("E6")
    with monkeypatch.context() as patch:
        patch.setattr(finite_reps, "WEIGHT_CAP_DEFAULT", 343)
        m = weight_multiplicities(e6, (1, 0, 0, 0, 1, 0))
        assert m.dominant == {(1, 0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 0, 1): 5, (0,) * 6: 20}
        assert len(m.by_weight) == 343
        patch.setattr(finite_reps, "WEIGHT_CAP_DEFAULT", 342)
        with pytest.raises(ResourceError):
            weight_multiplicities(e6, (1, 0, 0, 0, 1, 0))
    # B4 (1,1,1,1): dominant multiplicities of the 2^16-dimensional irrep
    b4 = build_root_system("B4")
    m = weight_multiplicities(b4, (1, 1, 1, 1))
    assert m.dominant == {
        (1, 1, 1, 1): 1, (0, 0, 2, 1): 2, (1, 2, 0, 1): 2, (2, 0, 0, 3): 2,
        (0, 1, 0, 3): 4, (2, 0, 1, 1): 4, (0, 1, 1, 1): 8, (2, 1, 0, 1): 8,
        (0, 2, 0, 1): 16, (1, 0, 0, 3): 14, (1, 0, 1, 1): 28, (3, 0, 0, 1): 14,
        (1, 1, 0, 1): 48, (0, 0, 0, 3): 48, (0, 0, 1, 1): 80, (2, 0, 0, 1): 80,
        (0, 1, 0, 1): 132, (1, 0, 0, 1): 210, (0, 0, 0, 1): 328,
    }
    assert m.total() == 2**16


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


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"])
def test_tensor_matches_the_scalar_finite_klimyk_sum(label):
    # every row lam + rho + nu reduced on its own by rootdata.dominant_reduce,
    # in Dynkin labels, with no kernel and no extended labels
    rs = build_root_system(label)
    rng = random.Random(f"{label} klimyk")

    def small(most):
        while weyl_dimension(rs, w := tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(rs.rank))) > most:
            pass
        return w

    pairs = [(small(10**5), small(4000)) for _ in range(4)]
    if label in ("A2", "G2"):
        # past 2^40 the rows and kappa run as Python ints
        pairs.append(((2**41 + 3, 5), (1, 1)))
    for lam, mu in pairs:
        want = oracles.klimyk_sum(
            functools.partial(dominant_reduce, rs), weight_multiplicities(rs, mu).by_weight, lam
        )
        assert want and tensor_decompose(rs, lam, mu).terms == want


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


@pytest.mark.parametrize("label,k", [("A1", 1), ("G2", 2), ("B3", 1), ("F4", 1), ("E6", 1)])
def test_character_ratio_is_periodic_past_int64(label, k):
    # the phase is linear in lam + rho and read mod form_den * kappa, so
    # adding form_den * kappa * m to every coordinate keeps the value exactly,
    # however far past int64 the weight lies
    from loopfusion.fusion import alcove_weights

    rs = build_root_system(label)
    period = rs.form_den * (k + rs.dual_coxeter)
    rng = random.Random(f"{label} period")
    labels = [lw.weight for lw in alcove_weights(rs, k)]
    for e in (0, 40, 50, 54, 58, 60, 62, 63, 64, 70):
        lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
        mu = rng.choice(labels)
        far = tuple(v + period * 2**e for v in lam)
        assert character_ratio(rs, k, far, mu) == character_ratio(rs, k, lam, mu)
    if label == "A1":
        # sin(2 pi (2^62 + 1) / 3) / sin(2 pi / 3), with 2^62 + 1 = 2 mod 3
        assert abs(character_ratio(rs, 1, (2**62,), (1,)) + 1) < 1e-12


def _sin_pi(t, n):
    """sin(pi t / n) for integers t and n > 0, from an angle reduced into [0, pi/2]."""
    t %= 2 * n
    sign = 1
    if t >= n:
        t, sign = t - n, -1
    return sign * math.sin(math.pi * (min(t, n - t) / n))


def test_character_ratio_is_the_a1_closed_form_or_refuses():
    # chi_lam(mu) = sin(pi t / kappa) / sin(pi (mu + 1) / kappa) with
    # t = (lam + 1)(mu + 1) mod 2 kappa.  Phases past int64 must stay exact,
    # and next to a wall, where both Weyl sums are O(1 / kappa) and cancel,
    # the call must answer to 1e-9 or raise
    rs = build_root_system("A1")
    rng = random.Random("A1 closed form")
    for e in (16, 20, 25, 30, 31, 32, 34, 40, 50, 62, 63, 64, 70):
        k = 2**e
        kappa = k + 2
        mids = [(rng.randint(k // 4, 3 * k // 4), rng.randint(k // 4, 3 * k // 4)) for _ in range(5)]
        anywhere = [(rng.randint(0, 2**80), rng.randint(0, k)) for _ in range(5)]
        for lam, mu in mids + anywhere + [(1, k - 5), (2**70 + 3, 4)]:
            want = _sin_pi((lam + 1) * (mu + 1), kappa) / _sin_pi(mu + 1, kappa)
            try:
                got = character_ratio(rs, k, (lam,), (mu,))
            except NumericalError:
                assert (lam, mu) not in mids, (k, lam, mu)
                continue
            assert abs(got - want) < 1e-9, (k, lam, mu, got, want)


def test_character_ratio_validation():
    rs = build_root_system("A1")
    with pytest.raises(ValidationError):
        character_ratio(rs, 2, (-1,), (0,))
    with pytest.raises(ValidationError):
        character_ratio(rs, 2, (1,), (3,))


def test_character_ratio_validates_its_level():
    # a numpy level is an int like any other, not an int64 product that wraps
    rs = build_root_system("A1")
    mu = (2**62 // 3,)
    assert character_ratio(rs, np.int64(2**62), (1,), mu) == character_ratio(rs, 2**62, (1,), mu)
    with pytest.raises(ValidationError, match="level 2.0 is not an integer"):
        character_ratio(rs, 2.0, (1,), (0,))


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


@pytest.mark.parametrize("top,exact", [((1 << 40) - 1, True), ((1 << 40) - 2, False)])
def test_tensor_int64_guard_boundary(monkeypatch, top, exact):
    # (top - 2) x (1) reduces at kappa = level(top - 2) + level(1) + 2 = top + 1,
    # node 0's label and the largest entry the kernel receives, and from
    # kappa = 2^40 on the kernel receives Python-int rows instead of int64 ones
    from loopfusion import kernels

    dtypes = []
    real = kernels.dominant_reduce_batch
    monkeypatch.setattr(
        kernels, "dominant_reduce_batch", lambda *a: dtypes.append(a[1].dtype) or real(*a)
    )
    rs = build_root_system("A1")
    decomp = tensor_decompose(rs, (top - 2,), (1,))
    assert decomp.terms == {(top - 1,): 1, (top - 3,): 1}
    assert dtypes == [np.dtype(object if exact else np.int64)]


def test_tensor_with_huge_highest_weight_uses_exact_reduction():
    rs = build_root_system("A1")
    big = 1 << 45
    decomp = tensor_decompose(rs, (big,), (2,))
    assert decomp.terms == {(big + 2,): 1, (big,): 1, (big - 2,): 1}
    from loopfusion.rootdata import dominant_reduce

    red, sign = dominant_reduce(rs, (-big,))
    assert red == (big,) and sign == -1
