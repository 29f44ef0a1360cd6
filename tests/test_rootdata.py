"""Root-system construction against frozen tables and structural laws."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopfusion.errors import ResourceError, ValidationError
from loopfusion.rootdata import (
    AlgebraSpec,
    _adjugate,
    _orbit_walk,
    build_root_system,
    canonical_key,
    dominant_reduce,
    pairing,
    sweep_reduce,
    theta_pairing,
    weyl_orbit,
)

import oracles

ALL_LABELS = ["A1", "A2", "A3", "B2", "B3", "C3", "D3", "D4", "E6", "E7", "E8", "F4", "G2"]
SMALL = ["A1", "A2", "B2", "G2"]
# construction fields of every label above plus A8, B6, C6, D7, frozen from
# the Fraction-based construction that the integer one replaced
GOLDEN = json.loads((Path(__file__).parent / "golden" / "rootdata_tables.json").read_text())
GOLDEN_FIELDS = ["root_coeffs", "positive_coroots", "root_pairs", "form_int", "form_den",
                 "simple_coroot_weights", "marks", "comarks"]


def test_spec_parsing_accepts_valid_labels():
    for text, series, rank in [("A1", "A", 1), ("a2", "A", 2), ("d4", "D", 4),
                               ("E8", "E", 8), (" G2 ", "G", 2), ("C12", "C", 12)]:
        spec = AlgebraSpec.parse(text)
        assert (spec.series, spec.rank) == (series, rank)
    assert str(AlgebraSpec.parse("b3")) == "B3"


@pytest.mark.parametrize(
    "bad",
    ["B1", "C1", "D2", "E5", "E9", "F3", "F5", "G3", "G1", "H4", "A0", "", "A", "2A", None, 5, b"A2"],
)
def test_spec_parsing_rejects_invalid_labels(bad):
    with pytest.raises(ValidationError):
        AlgebraSpec.parse(bad)


def test_a_text_label_resolves_to_the_one_cached_root_system():
    rs = build_root_system("A2")
    assert build_root_system(" a2 ") is rs
    assert build_root_system(AlgebraSpec("A", 2)) is rs
    assert build_root_system("A2") is rs


# a label that is not text (None, 5, b"A2") is a ValidationError too
@pytest.mark.parametrize("bad", ["A0", "E9", "", None, 5, b"A2"])
def test_an_invalid_text_label_raises_on_every_call(bad):
    for _ in range(3):
        with pytest.raises(ValidationError):
            build_root_system(bad)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_frozen_tables(label):
    rs = build_root_system(label)
    dim, c, worder = oracles.LIE_TABLES[label]
    assert len(rs.positive_roots) == (dim - rs.rank) // 2
    assert rs.dual_coxeter == c
    assert rs.weyl_order == worder
    assert oracles.adjoint_dim(rs.spec.series, rs.rank) == dim


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_construction_matches_frozen_golden(label):
    rs = build_root_system(label)
    frozen = GOLDEN[label]
    # a JSON round trip turns tuples into lists and keeps every order
    assert json.loads(json.dumps(rs.describe())) == frozen["describe"]
    for name in GOLDEN_FIELDS:
        assert json.loads(json.dumps(getattr(rs, name))) == frozen[name], name


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
    assert 2 * pairing(rs, rs.rho, theta) / pairing(rs, theta, theta) == rs.dual_coxeter - 1
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
    assert 2 * pairing(rs, rs.rho, alpha) / pairing(rs, alpha, alpha) == 1
    with pytest.raises(ValidationError):
        pairing(rs, (1, 0, 0), (1, 0))


@pytest.mark.parametrize("label", ALL_LABELS)
def test_simple_coroot_pairings_are_coordinates(label):
    rs = build_root_system(label)
    for i, cr in enumerate(rs.simple_coroots):
        for j, fw in enumerate(rs.fundamental_weights):
            assert pairing(rs, fw, cr) == (1 if i == j else 0)


@pytest.mark.parametrize(
    "label",
    [f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)] + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"],
)
def test_coroot_index_is_the_determinant_of_the_simple_coroots(label):
    # |P/Q^vee| is read off det(cartan) when built; here it is the determinant
    # of the coroot basis in fundamental-weight coordinates, and its table value
    rs = build_root_system(label)
    r = rs.rank
    want = {"A": r + 1, "B": 4, "C": 2**r, "D": 4, "E": 9 - r, "F": 4, "G": 3}[label[0]]
    assert _adjugate([list(c) for c in rs.simple_coroot_weights])[1] == want
    assert rs.coroot_index == want


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "A6"] + ALL_LABELS[3:])
def test_colour_classes_of_the_affine_diagram(label):
    rs = build_root_system(label)
    nodes = range(rs.rank + 1)
    a = rs.affine_roots  # a[j][i] is the affine Cartan entry A_ij
    # Kac 6.1: twos on the diagonal, the marks (1, marks) and comarks (1, comarks)
    # as right and left null vectors
    assert all(a[i][i] == 2 for i in nodes)
    marks, comarks = (1, *rs.marks), (1, *rs.comarks)
    assert all(sum(m * a[j][i] for j, m in zip(nodes, marks)) == 0 for i in nodes)
    assert all(sum(c * a[j][i] for i, c in zip(nodes, comarks)) == 0 for j in nodes)
    classes = rs.colour_classes
    assert sorted(i for c in classes for i in c) == list(nodes)
    for c in classes:
        assert all(a[i][j] == a[j][i] == 0 for i in c for j in c if i != j)
    # the affine diagram of A_r is an (r + 1)-cycle, odd for even r; every other one is bipartite
    odd_cycle = rs.spec.series == "A" and rs.rank % 2 == 0
    assert len(classes) == (3 if odd_cycle else 2)
    for (idx, roots), c in zip(rs.np_colour_classes, classes):
        assert idx.tolist() == list(c)
        assert roots.tolist() == [list(a[i]) for i in c]


def test_rho_coroot_pairing_detects_simple_roots():
    rs = build_root_system("B2")
    for root in rs.positive_roots:
        value = 2 * pairing(rs, rs.rho, root) / pairing(rs, root, root)
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
    mats, signs = a1.weyl_matrices()
    assert mats.tolist() == [[[1]], [[-1]]] and signs.tolist() == [1, -1]
    a2 = build_root_system("A2")
    mats, signs = a2.weyl_matrices()
    assert len(mats) == 6
    assert (mats[0] == np.eye(2)).all() and signs[0] == 1
    assert sum(signs.tolist()) == 0
    # distinct elements: they act differently on rho
    assert len({tuple(m @ np.array(a2.rho)) for m in mats}) == 6
    b2 = build_root_system("B2")
    assert len(b2.weyl_matrices()[0]) == 8


def test_weyl_cap_and_env_override(monkeypatch):
    e7 = build_root_system("E7")
    with pytest.raises(ResourceError):
        e7.weyl_matrices()
    with pytest.raises(ResourceError):
        weyl_orbit(e7, (1,) * 7)
    a2 = build_root_system("A2")
    monkeypatch.setenv("LOOPFUSION_WEYL_CAP", "1")
    with pytest.raises(ResourceError):
        a2.weyl_matrices()
    monkeypatch.setenv("LOOPFUSION_WEYL_CAP", "10")
    assert len(a2.weyl_matrices()[0]) == 6


def test_weyl_orbit_caps_the_orbit_not_the_group(monkeypatch):
    # |W(E8)| is far above the cap, but the orbit of the highest root is the 240 roots
    e8 = build_root_system("E8")
    assert len(weyl_orbit(e8, e8.highest_root)) == 240
    a2 = build_root_system("A2")
    monkeypatch.setenv("LOOPFUSION_WEYL_CAP", "3")
    assert len(weyl_orbit(a2, (1, 0))) == 3
    monkeypatch.setenv("LOOPFUSION_WEYL_CAP", "2")
    with pytest.raises(ResourceError, match="orbit.*raise LOOPFUSION_WEYL_CAP to override"):
        weyl_orbit(a2, (1, 0))
    assert weyl_orbit(a2, (0, 0)) == {(0, 0)}


@pytest.mark.parametrize("raw", ["abc", "1e6", "0", "-3"])
def test_malformed_weyl_cap_is_rejected(monkeypatch, raw):
    a2 = build_root_system("A2")
    monkeypatch.setenv("LOOPFUSION_WEYL_CAP", raw)
    calls = (lambda: weyl_orbit(a2, (1, 0)), a2.weyl_matrices)
    for call in calls:
        with pytest.raises(ValidationError, match=f"LOOPFUSION_WEYL_CAP.*{raw!r}"):
            call()


def test_the_cap_refuses_before_any_point_is_walked(monkeypatch):
    from loopfusion import rootdata

    def refuse(*args, **kwargs):
        raise AssertionError("the Weyl cap must refuse before the orbit walk")

    monkeypatch.setattr(rootdata, "_orbit_walk", refuse)
    e7 = build_root_system("E7")
    orbit = r"Weyl orbit of \(1, 1, 1, 1, 1, 1, 1\) in E7 exceeds the cap 51840 "
    order = r"Weyl order 2903040 of E7 exceeds the cap 51840 "
    hint = r"\(raise LOOPFUSION_WEYL_CAP to override\)$"
    with pytest.raises(ResourceError, match=orbit + hint):
        weyl_orbit(e7, (1,) * 7)
    with pytest.raises(ResourceError, match=order + hint):
        e7.weyl_matrices()
    monkeypatch.setenv("LOOPFUSION_WEYL_CAP", "2")
    with pytest.raises(ResourceError, match=r"Weyl orbit of \(1, 0\) in A2 exceeds the cap 2 " + hint):
        weyl_orbit(build_root_system("A2"), (1, 0))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_weyl_matrices_agree_with_words(label):
    rs = build_root_system(label)
    mats, signs = rs.weyl_matrices()
    assert mats.shape == (rs.weyl_order, rs.rank, rs.rank)
    assert set(signs.tolist()) == {1, -1}
    assert len({m.tobytes() for m in mats}) == rs.weyl_order
    orbit = _orbit_walk(rs, rs.rho)[0]
    assert len(orbit) == rs.weyl_order
    rho = np.array(rs.rho)
    lengths = []
    for point, mat, sign in zip(orbit, mats, signs):
        image = [int(v) for v in mat @ rho]
        assert tuple(image) == point
        assert sign == round(np.linalg.det(mat))
        # the length of w is the number of reflections taking w(rho) back to rho
        lengths.append(sweep_reduce(rs.simple_supports, image, len(rs.positive_roots)))
        assert sign == (-1 if lengths[-1] % 2 else 1)
    assert lengths == sorted(lengths)


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
    rep = dominant_reduce(rs, x)[0]
    assert all(v >= 0 for v in rep)
    assert rep in weyl_orbit(rs, x)
    assert dominant_reduce(rs, rep)[0] == rep


@settings(max_examples=200, deadline=None)
@given(
    label=st.sampled_from(["A3", "B3", "G2", "F4", "E8"]),
    coords=st.lists(st.integers(min_value=-2**60, max_value=2**60), min_size=8, max_size=8),
)
@example(label="E8", coords=[-1] * 8)  # -rho: the longest element, one step per positive root
@example(label="G2", coords=[-1] * 8)
def test_dominant_reduce_sign_counts_the_negative_roots(label, coords):
    rs = build_root_system(label)
    x = tuple(coords[: rs.rank])
    pairs = [sum(c * v for c, v in zip(coroot, x)) for coroot in rs.positive_coroots]
    assume(all(pairs))  # regular x
    point, sign = dominant_reduce(rs, x)
    assert all(v > 0 for v in point)
    assert sign == (-1) ** sum(p < 0 for p in pairs)


def _float_cases():
    from loopfusion.affine_weyl import AffineContext, alcove_reduce, on_wall, total_degree
    from loopfusion.finite_reps import tensor_decompose, weyl_dimension
    from loopfusion.fusion import conjugate_weight, fuse_kw, fuse_s
    from loopfusion.induction import induce
    from loopfusion.verlinde import Surface, cohomology_report

    a2 = build_root_system("A2")
    ctx = AffineContext(a2, 1)
    # each call answered for a truncated or float weight before integers were enforced
    return {
        "weyl_dimension": lambda w: weyl_dimension(a2, w),
        "tensor_decompose": lambda w: tensor_decompose(a2, w, (0, 1)),
        "conjugate_weight": lambda w: conjugate_weight(a2, w),
        "weyl_orbit": lambda w: weyl_orbit(a2, w),
        "dominant_reduce": lambda w: dominant_reduce(a2, w),
        "fuse_kw": lambda w: fuse_kw(a2, 2, w, (0, 1)),
        "fuse_s": lambda w: fuse_s(a2, 2, w, (0, 1)),
        "induce": lambda w: induce(a2, 1, w),
        "alcove_reduce": lambda w: alcove_reduce(ctx, w),
        "on_wall": lambda w: on_wall(ctx, w),
        "total_degree": lambda w: total_degree(ctx, [w]),
        "cohomology_report": lambda w: cohomology_report(a2, 1, Surface(0, insertions=(w,))),
    }


@pytest.mark.parametrize("entry", sorted(_float_cases()))
@pytest.mark.parametrize("weight", [(1.5, 0), (1.0, 0), (2.7, 0), (1e17 + 1, 3)])
def test_float_weights_are_refused_not_truncated(entry, weight):
    call = _float_cases()[entry]
    with pytest.raises(ValidationError):
        call(weight)
    # numpy integers are integers
    call((np.int64(1), np.int64(0)))


def test_every_exported_name_resolves():
    import loopfusion

    for name in loopfusion.__all__:
        assert getattr(loopfusion, name) is not None, name
    assert "enumerate_weyl" not in loopfusion.__all__
    assert not hasattr(loopfusion, "enumerate_weyl")
