"""Root-system construction against frozen tables and structural laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopfusion.errors import ResourceError, ValidationError
from loopfusion.rootdata import (
    AlgebraSpec,
    apply_word,
    build_root_system,
    canonical_key,
    coroot_of,
    dominant_representative,
    enumerate_weyl,
    pairing,
    theta_pairing,
    weyl_orbit,
)

import oracles

ALL_LABELS = ["A1", "A2", "A3", "B2", "B3", "C3", "D3", "D4", "E6", "E7", "E8", "F4", "G2"]
SMALL = ["A1", "A2", "B2", "G2"]


def test_spec_parsing_accepts_valid_labels():
    for text, series, rank in [("A1", "A", 1), ("a2", "A", 2), ("d4", "D", 4),
                               ("E8", "E", 8), (" G2 ", "G", 2), ("C12", "C", 12)]:
        spec = AlgebraSpec.parse(text)
        assert (spec.series, spec.rank) == (series, rank)
    assert str(AlgebraSpec.parse("b3")) == "B3"


@pytest.mark.parametrize("bad", ["B1", "C1", "D2", "E5", "E9", "F3", "F5", "G3", "G1", "H4", "A0", "", "A", "2A"])
def test_spec_parsing_rejects_invalid_labels(bad):
    with pytest.raises(ValidationError):
        AlgebraSpec.parse(bad)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_frozen_tables(label):
    rs = build_root_system(label)
    dim, c, worder = oracles.LIE_TABLES[label]
    assert len(rs.positive_roots) == (dim - rs.rank) // 2
    assert rs.dual_coxeter == c
    assert rs.weyl_order == worder
    assert oracles.adjoint_dim(rs.spec.series, rs.rank) == dim


@pytest.mark.parametrize("label", ["A2", "B2", "C3", "G2", "F4"])
def test_cartan_matrices_match_frozen(label):
    rs = build_root_system(label)
    assert [list(row) for row in rs.cartan] == oracles.CARTAN[label]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_structural_invariants(label):
    rs = build_root_system(label)
    assert rs.rho == (1,) * rs.rank
    theta = rs.highest_root
    assert pairing(rs, theta, theta) == 2
    assert pairing(rs, rs.rho, coroot_of(rs, theta)) == rs.dual_coxeter - 1
    assert theta_pairing(rs, rs.rho) == rs.dual_coxeter - 1
    # comarks are marks rescaled by the symmetrizer, and stay integral
    assert all(isinstance(v, int) for v in rs.comarks)
    for m, d, cm in zip(rs.marks, rs.symmetrizer, rs.comarks):
        assert m * d == cm
    # every positive root is a nonnegative integer combination of simple roots
    for root, coeffs in zip(rs.positive_roots, rs.root_coeffs):
        assert all(c >= 0 for c in coeffs)
        rebuilt = [0] * rs.rank
        for c, alpha in zip(coeffs, rs.simple_roots):
            for j in range(rs.rank):
                rebuilt[j] += c * alpha[j]
        assert tuple(rebuilt) == root


@pytest.mark.parametrize("label", ALL_LABELS)
def test_form_matrix_symmetric_positive_definite(label):
    rs = build_root_system(label)
    f = rs.form
    r = rs.rank
    for i in range(r):
        for j in range(r):
            assert f[i][j] == f[j][i]
    # leading principal minors, exact rational elimination
    minor = [[Fraction(f[i][j]) for j in range(r)] for i in range(r)]
    det = Fraction(1)
    work = [row[:] for row in minor]
    for col in range(r):
        # positive pivots certify positive leading minors
        piv = work[col][col]
        assert piv > 0
        det *= piv
        for row in range(col + 1, r):
            factor = work[row][col] / piv
            work[row] = [a - factor * b for a, b in zip(work[row], work[col])]
    assert det > 0


@pytest.mark.parametrize("label", ["A2", "B2", "C3", "G2", "D4"])
def test_reflections_act_on_the_root_set(label):
    rs = build_root_system(label)
    positives = set(rs.positive_roots)
    full = positives | {tuple(-v for v in r) for r in positives}

    def reflect(root, coroot, x):
        pair = sum(c * v for c, v in zip(coroot, x))
        return tuple(v - pair * a for v, a in zip(x, root))

    # a simple reflection permutes the positive roots other than its own
    for i, alpha in enumerate(rs.simple_roots):
        cr = tuple(1 if j == i else 0 for j in range(rs.rank))
        images = {reflect(alpha, cr, other) for other in positives if other != alpha}
        assert images == positives - {alpha}
    # any root reflection permutes the full root set and negates its root
    for root, coroot in zip(rs.positive_roots, rs.positive_coroots):
        assert reflect(root, coroot, root) == tuple(-v for v in root)
        assert {reflect(root, coroot, x) for x in full} == full


def test_pairing_values_and_errors():
    rs = build_root_system("A2")
    assert pairing(rs, (1, 0), (1, 0)) == Fraction(2, 3)
    assert pairing(rs, (1, 0), (0, 1)) == Fraction(1, 3)
    alpha = rs.simple_roots[0]
    assert pairing(rs, rs.rho, coroot_of(rs, alpha)) == 1
    with pytest.raises(ValidationError):
        pairing(rs, (1, 0, 0), (1, 0))
    with pytest.raises(ValidationError):
        coroot_of(rs, (0, 0))


@pytest.mark.parametrize("label", ALL_LABELS)
def test_simple_coroot_pairings_are_coordinates(label):
    rs = build_root_system(label)
    for i, cr in enumerate(rs.simple_coroots):
        for j, fw in enumerate(rs.fundamental_weights):
            assert pairing(rs, fw, cr) == (1 if i == j else 0)


def test_rho_coroot_pairing_detects_simple_roots():
    rs = build_root_system("B2")
    for root in rs.positive_roots:
        value = pairing(rs, rs.rho, coroot_of(rs, root))
        assert value >= 1
        assert (value == 1) == (root in rs.simple_roots)


def test_weyl_orbit_small_cases():
    a1 = build_root_system("A1")
    assert weyl_orbit(a1, (1,)) == {(1,), (-1,)}
    assert weyl_orbit(a1, (0,)) == {(0,)}
    a2 = build_root_system("A2")
    assert len(weyl_orbit(a2, a2.rho)) == 6
    assert len(weyl_orbit(a2, (1, 0))) == 3


@pytest.mark.parametrize("label", SMALL)
def test_weyl_orbit_stability_and_divisibility(label):
    rs = build_root_system(label)
    for x in [(1,) * rs.rank, (2,) + (0,) * (rs.rank - 1), (1, 3)[: rs.rank]]:
        orbit = weyl_orbit(rs, x)
        assert rs.weyl_order % len(orbit) == 0
        for y in orbit:
            for i in range(rs.rank):
                image = tuple(v - y[i] * a for v, a in zip(y, rs.simple_roots[i]))
                assert image in orbit


def test_enumerate_weyl_counts_and_signs():
    a1 = build_root_system("A1")
    assert list(enumerate_weyl(a1)) == [((), 1), ((0,), -1)]
    a2 = build_root_system("A2")
    elems = list(enumerate_weyl(a2))
    assert len(elems) == 6
    assert elems[0] == ((), 1)
    assert sum(sign for _, sign in elems) == 0
    assert all(sign == (1 if len(w) % 2 == 0 else -1) for w, sign in elems)
    # distinct elements: words act differently on rho
    images = {apply_word(a2, w, a2.rho) for w, _ in elems}
    assert len(images) == 6
    b2 = build_root_system("B2")
    assert len(list(enumerate_weyl(b2))) == 8


def test_weyl_cap_and_env_override(monkeypatch):
    e7 = build_root_system("E7")
    with pytest.raises(ResourceError):
        list(enumerate_weyl(e7))
    with pytest.raises(ResourceError):
        weyl_orbit(e7, (1,) * 7)
    a2 = build_root_system("A2")
    monkeypatch.setenv("LOOPFUSION_WEYL_CAP", "1")
    with pytest.raises(ResourceError):
        list(enumerate_weyl(a2))
    monkeypatch.setenv("LOOPFUSION_WEYL_CAP", "10")
    assert len(list(enumerate_weyl(a2))) == 6


@pytest.mark.parametrize("raw", ["abc", "1e6", "0", "-3"])
def test_malformed_weyl_cap_is_rejected(monkeypatch, raw):
    a2 = build_root_system("A2")
    monkeypatch.setenv("LOOPFUSION_WEYL_CAP", raw)
    calls = (lambda: list(enumerate_weyl(a2)), lambda: weyl_orbit(a2, (1, 0)), a2.weyl_matrices)
    for call in calls:
        with pytest.raises(ValidationError, match=f"LOOPFUSION_WEYL_CAP.*{raw!r}"):
            call()


def test_weyl_matrices_agree_with_words():
    import numpy as np

    rs = build_root_system("B2")
    mats, signs = rs.weyl_matrices()
    assert mats.shape == (8, 2, 2)
    assert set(signs.tolist()) == {1, -1}
    for (word, sign), mat, msign in zip(enumerate_weyl(rs), mats, signs):
        assert sign == msign
        assert apply_word(rs, word, rs.rho) == tuple(int(v) for v in mat @ np.array(rs.rho))


def test_describe_serializes_to_json():
    import json

    for label in ("A1", "G2", "E8"):
        rs = build_root_system(label)
        blob = json.dumps(rs.describe())
        back = json.loads(blob)
        assert back["rank"] == rs.rank
        assert back["dual_coxeter"] == rs.dual_coxeter


def test_canonical_key_orders_alcove_like_sets():
    rs = build_root_system("A2")
    weights = [(0, 1), (0, 0), (1, 0)]
    weights.sort(key=lambda w: canonical_key(rs, w))
    assert weights == [(0, 0), (1, 0), (0, 1)]


@settings(max_examples=150, deadline=None)
@given(
    label=st.sampled_from(SMALL),
    coords=st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=2),
)
def test_dominant_representative_properties(label, coords):
    rs = build_root_system(label)
    x = tuple(coords[: rs.rank]) if rs.rank <= 2 else tuple(coords + [0])
    x = x + (0,) * (rs.rank - len(x))
    rep = dominant_representative(rs, x)
    assert all(v >= 0 for v in rep)
    assert rep in weyl_orbit(rs, x)
    assert dominant_representative(rs, rep) == rep
