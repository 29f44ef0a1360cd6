"""Verlinde sums, cohomology verdicts, and node factorization."""

import functools
import itertools
import random

import numpy as np
import pytest

from loopfusion.affine_weyl import INTERIOR, AffineContext, alcove_reduce
from loopfusion.errors import NumericalError, ResourceError, ValidationError
from loopfusion.finite_reps import character_ratio
from loopfusion import verlinde
from loopfusion.fusion import alcove_weights, conjugate_weight, fuse_kw, fuse_s, s_matrix
from loopfusion.rootdata import RootSystem, build_root_system
from loopfusion.verlinde import (
    CohomologyReport,
    Surface,
    cohomology_report,
    factorization_check,
    verlinde_dimension,
    verlinde_dimension_s,
)

import oracles


def weights_of(rs, k):
    return [lw.weight for lw in alcove_weights(rs, k)]


def test_a1_k1_closed_dimensions():
    a1 = build_root_system("A1")
    assert verlinde_dimension(a1, 1, Surface(genus=1)) == 2
    assert verlinde_dimension(a1, 1, Surface(genus=2)) == 4
    assert verlinde_dimension(a1, 1, Surface(genus=0, insertions=[(1,), (1,)])) == 1
    assert verlinde_dimension(a1, 2, Surface(genus=1)) == 3


@pytest.mark.parametrize("genus", [2, np.int64(2), np.int16(2), -1, np.int64(-1), 2.0])
def test_genus_takes_integers_of_any_kind(genus):
    if isinstance(genus, float) or genus < 0:
        with pytest.raises(ValidationError, match="genus"):
            Surface(genus=genus)
        return
    surface = Surface(genus=genus)
    assert type(surface.genus) is int and surface == Surface(genus=2)
    assert verlinde_dimension(build_root_system("A1"), 1, surface) == 4


def test_genus_zero_vacuum_block():
    # e_0 H^0 read at the vacuum, no special casing
    for label in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(label)
        for k in (0, 1, 2):
            assert verlinde_dimension(rs, k, Surface(genus=0)) == 1


def test_dual_pair_at_genus_zero_gives_one():
    for label, k in [("A1", 3), ("A2", 2), ("B2", 2), ("G2", 1)]:
        rs = build_root_system(label)
        for lam in weights_of(rs, k):
            star = conjugate_weight(rs, lam)
            surface = Surface(genus=0, insertions=[lam, star])
            assert verlinde_dimension(rs, k, surface) == 1


def test_genus_zero_three_point_matches_fusion():
    for label, k in [("A2", 2), ("B2", 2)]:
        rs = build_root_system(label)
        ws = weights_of(rs, k)
        for lam, mu in itertools.product(ws, ws):
            fused = fuse_s(rs, k, lam, mu)
            for nu in ws:
                surface = Surface(genus=0, insertions=[lam, mu, conjugate_weight(rs, nu)])
                assert verlinde_dimension(rs, k, surface) == fused.terms.get(nu, 0)


def test_vacuum_insertion_is_invisible():
    rng = random.Random(3)
    for label, k in [("A1", 3), ("A2", 2), ("G2", 2)]:
        rs = build_root_system(label)
        ws = weights_of(rs, k)
        for g in (0, 1, 2):
            ins = [ws[rng.randrange(len(ws))] for _ in range(2)]
            base = verlinde_dimension(rs, k, Surface(genus=g, insertions=ins))
            padded = verlinde_dimension(
                rs, k, Surface(genus=g, insertions=ins + [(0,) * rs.rank])
            )
            assert base == padded


def test_torus_with_no_insertions_counts_labels():
    for label, k in [("A1", 4), ("A2", 3), ("B2", 2), ("G2", 2), ("C3", 1)]:
        rs = build_root_system(label)
        assert verlinde_dimension(rs, k, Surface(genus=1)) == len(weights_of(rs, k))


def test_boundary_labels_enter_like_insertions():
    from loopfusion.fusion import LevelWeight

    rs = build_root_system("A1")
    k = 2
    by_insertion = verlinde_dimension(rs, k, Surface(genus=1, insertions=[(2,)]))
    by_boundary = verlinde_dimension(
        rs, k, Surface(genus=1, boundary=[LevelWeight(weight=(2,), k=k)])
    )
    assert by_insertion == by_boundary
    mixed = verlinde_dimension(
        rs,
        k,
        Surface(genus=0, insertions=[(1,)], boundary=[LevelWeight(weight=(1,), k=k)]),
    )
    assert mixed == verlinde_dimension(rs, k, Surface(genus=0, insertions=[(1,), (1,)]))


def test_surface_validation():
    rs = build_root_system("A1")
    with pytest.raises(ValidationError):
        Surface(genus=-1)
    with pytest.raises(ValidationError):
        verlinde_dimension(rs, 1, Surface(genus=0, insertions=[(2,)]))
    from loopfusion.fusion import LevelWeight

    with pytest.raises(ValidationError):
        verlinde_dimension(
            rs, 1, Surface(genus=0, boundary=[LevelWeight(weight=(2,), k=1)])
        )


def test_surface_takes_level_weights_and_sequences_in_both_fields():
    from loopfusion.fusion import LevelWeight

    rs = build_root_system("A2")
    lw = LevelWeight(weight=(1, 0), k=1)
    for field in ("insertions", "boundary"):
        for entry in (lw, (1, 0), [np.int64(1), np.int64(0)], (True, False), np.array([1, 0])):
            surface = Surface(genus=1, **{field: (entry,)})
            [label] = getattr(surface, field)
            assert label == (1, 0) and all(type(v) is int for v in label)
            assert verlinde_dimension(rs, 1, surface) == 0
        # an entry that is not a sequence of integers is a validation error, not a TypeError
        for entry in (5, None, "10", (1.0, 0), (1.5, 0), ("1", 0), LevelWeight(weight=(0.5, 0), k=1)):
            with pytest.raises(ValidationError):
                Surface(genus=1, **{field: (entry,)})


def test_surface_is_an_immutable_value_record():
    a1 = build_root_system("A1")
    by_position = Surface(1, ((1,),), ((1,),))
    by_keyword = Surface(genus=1, boundary=[np.array([1])], insertions=[[np.int64(1)]])
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert (by_position.genus, by_position.insertions, by_position.boundary) == (1, ((1,),), ((1,),))
    assert Surface(2) == Surface(genus=2, insertions=(), boundary=())
    assert repr(Surface(1, insertions=((1,),))) == "Surface(genus=1, insertions=((1,),), boundary=())"
    for name in ("genus", "insertions", "boundary"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, getattr(by_position, name))
    report = cohomology_report(a1, 1, by_position)
    assert report.surface == by_position and report.surface.insertions == ((1,),)


def test_a_replaced_surface_field_is_coerced_too():
    surface = Surface(genus=1, insertions=((1,),))
    with pytest.raises(ValidationError, match="genus"):
        surface._replace(genus=-1)
    assert surface._replace(insertions=[(np.int64(3),)]) == Surface(1, ((3,),))


def test_a_warm_verlinde_call_makes_few_python_calls():
    # a deterministic count of the Python frames one warm query enters,
    # building its Surface included; it times nothing
    import sys

    a3 = build_root_system("A3")
    lam = (1, 0, 1)
    want = verlinde_dimension(a3, 2, Surface(genus=3, insertions=(lam,)))
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        got = verlinde_dimension(a3, 2, Surface(genus=3, insertions=(lam,)))
    finally:
        sys.setprofile(None)
    assert got == want > 0
    assert len(calls) <= 12, calls


@pytest.mark.parametrize(
    "call",
    [
        lambda rs, k, w: verlinde_dimension(rs, k, Surface(genus=1, insertions=(w,))),
        lambda rs, k, w: verlinde_dimension(rs, k, Surface(genus=1, boundary=(w,))),
        lambda rs, k, w: factorization_check(rs, k, Surface(genus=1, insertions=(w,))),
        lambda rs, k, w: cohomology_report(rs, k, Surface(genus=1, boundary=(w,))),
    ],
    ids=["verlinde_insertion", "verlinde_boundary", "factorization_check", "report_boundary"],
)
def test_labels_are_checked_against_the_built_index(call):
    a2 = build_root_system("A2")
    verlinde.fusion_matrices(a2, 2)  # warm: the index answers for good labels
    want = call(a2, 2, (1, 0))
    assert call(a2, 2, (np.int64(1), np.int64(0))) == want
    assert call(a2, 2, (True, False)) == want
    # (1.0, 0) hashes equal to the key (1, 0) but is not an integer label
    for bad in [(1.0, 0), (1.5, 0), (3, 0), (-1, 1), (1,), (1, 0, 0)]:
        with pytest.raises(ValidationError):
            call(a2, 2, bad)


def test_a_bad_label_is_refused_before_any_build(monkeypatch):
    def refuse(*args):
        raise AssertionError("a bad label must not start a build")

    monkeypatch.setattr(verlinde, "_fusion_cache", {})
    monkeypatch.setattr(verlinde, "_build_fusion_matrices", refuse)
    a2 = build_root_system("A2")
    for surface in [Surface(genus=2, insertions=[(31, 0)]), Surface(genus=2, boundary=[(0, 31)])]:
        with pytest.raises(ValidationError, match="alcove"):
            verlinde_dimension(a2, 30, surface)
        with pytest.raises(ValidationError, match="alcove"):
            factorization_check(a2, 30, surface)
    with pytest.raises(ValidationError, match="alcove"):
        cohomology_report(a2, 30, Surface(genus=2, insertions=[(1, 0)], boundary=[(31, 0)]))


def test_cohomology_report_worked_examples():
    a1 = build_root_system("A1")
    r = cohomology_report(a1, 1, Surface(genus=0, insertions=[(0,), (0,)]))
    assert (r.vanishes, r.degree, r.dimension) == (False, 0, 1)
    assert r.euler_characteristic == 1

    r = cohomology_report(a1, 1, Surface(genus=0, insertions=[(2,)]))
    assert r.vanishes
    assert r.dimension == 0
    assert r.euler_characteristic == 0

    r = cohomology_report(a1, 1, Surface(genus=0, insertions=[(3,), (1,)]))
    assert (r.vanishes, r.degree, r.dimension) == (False, 1, 1)
    assert r.euler_characteristic == -1


def test_report_on_alcove_insertions_is_degree_zero():
    for label, h in [("A1", 3), ("A2", 2), ("B2", 1)]:
        rs = build_root_system(label)
        ws = weights_of(rs, h)
        for lam, mu in itertools.islice(itertools.product(ws, ws), 30):
            surface = Surface(genus=0, insertions=[lam, mu])
            r = cohomology_report(rs, h, surface)
            assert not r.vanishes and r.degree == 0
            assert r.dimension == verlinde_dimension(rs, h, surface)


def test_report_degree_matches_total_reduction_length():
    from loopfusion.affine_weyl import AffineContext, total_degree

    rng = random.Random(8)
    for label, h in [("A1", 2), ("A2", 1), ("G2", 1)]:
        rs = build_root_system(label)
        ctx = AffineContext(rs, h)
        for _ in range(40):
            ins = [
                tuple(rng.randint(0, 2 * ctx.kappa) for _ in range(rs.rank))
                for _ in range(rng.randint(1, 3))
            ]
            r = cohomology_report(rs, h, Surface(genus=rng.randint(0, 2), insertions=ins))
            want = total_degree(ctx, ins)
            if want is None:
                assert r.vanishes
            else:
                assert r.degree == want


def test_report_vanishing_iff_induced_product_dies():
    from loopfusion.finite_reps import tensor_decompose
    from loopfusion.induction import induce, induce_virtual

    rng = random.Random(21)
    for label, h in [("A1", 2), ("A2", 1), ("B2", 1)]:
        rs = build_root_system(label)
        for _ in range(60):
            lam = tuple(rng.randint(0, 5) for _ in range(rs.rank))
            mu = tuple(rng.randint(0, 5) for _ in range(rs.rank))
            report = cohomology_report(rs, h, Surface(genus=0, insertions=[lam, mu]))
            separately = (
                bool(induce(rs, h, lam).value) and bool(induce(rs, h, mu).value)
            )
            virt = induce_virtual(rs, h, tensor_decompose(rs, lam, mu))
            if report.vanishes:
                # some factor is annihilated, so the induced product dies too
                assert not separately
                assert not virt
            else:
                assert separately
                assert bool(virt)


def test_factorization_worked_examples():
    a1 = build_root_system("A1")
    out = factorization_check(a1, 1, Surface(genus=1))
    assert out == {"lhs": 2, "rhs": 2, "equal": True}
    out = factorization_check(a1, 2, Surface(genus=1))
    assert out == {"lhs": 3, "rhs": 3, "equal": True}
    for label in ("A2", "B2", "G2"):
        rs = build_root_system(label)
        out = factorization_check(rs, 0, Surface(genus=3))
        assert out == {"lhs": 1, "rhs": 1, "equal": True}


def test_factorization_with_insertions_matrix():
    rng = random.Random(77)
    cases = [("A1", 4), ("A2", 2), ("B2", 2)]
    for label, kmax in cases:
        rs = build_root_system(label)
        for k in range(kmax + 1):
            ws = weights_of(rs, k)
            for g in (1, 2):
                for m in (0, 1, 2):
                    ins = [ws[rng.randrange(len(ws))] for _ in range(m)]
                    out = factorization_check(rs, k, Surface(genus=g, insertions=ins))
                    assert out["equal"], (label, k, g, ins, out)


def test_factorization_requires_positive_genus():
    rs = build_root_system("A1")
    with pytest.raises(ValidationError):
        factorization_check(rs, 1, Surface(genus=0))


def test_report_record_shape():
    a1 = build_root_system("A1")
    surface = Surface(genus=0, insertions=[(1,), (1,)])
    r = cohomology_report(a1, 1, surface)
    assert isinstance(r, CohomologyReport)
    assert r.h == 1
    assert r.surface.insertions == ((1,), (1,))
    assert r.surface.genus == 0


def test_exact_closed_forms_at_every_genus():
    # 2^g and 2^(g-1)(2^g+1): far beyond 2^53, where a float sum cannot tell integers apart
    a1 = build_root_system("A1")
    for g in range(201):
        assert verlinde_dimension(a1, 1, Surface(genus=g)) == 2**g
    for g in range(1, 201):
        assert verlinde_dimension(a1, 2, Surface(genus=g)) == 2 ** (g - 1) * (2**g + 1)
    e6 = build_root_system("E6")
    for g in range(41):
        assert verlinde_dimension(e6, 1, Surface(genus=g)) == 3**g


def test_huge_genus_is_refused_within_the_row_budget():
    from loopfusion.verlinde import ROW_BYTE_CAP, fusion_matrices

    a1 = build_root_system("A1")
    with pytest.raises(ResourceError):
        verlinde_dimension(a1, 1, Surface(genus=10**6))
    fm = fusion_matrices(a1, 1)
    assert fm._row_bytes <= ROW_BYTE_CAP
    # the refusal keeps what was grown; smaller genera still answer exactly
    assert verlinde_dimension(a1, 1, Surface(genus=5000)) == 2**5000


def test_high_level_is_refused_before_memory_runs_out():
    # A1 at level 500 holds about 2e7 nonzero fusion coefficients
    with pytest.raises(ResourceError):
        verlinde_dimension(build_root_system("A1"), 500, Surface(genus=2))


@pytest.mark.parametrize("label,k", [("A1", 2), ("A2", 4), ("C3", 2), ("D5", 2), ("E6", 2)])
def test_entry_cap_counts_every_stored_coefficient(monkeypatch, label, k):
    # copies made through the fusion-ring symmetries count like computed entries
    from loopfusion import verlinde

    rs = build_root_system(label)
    fm = verlinde._build_fusion_matrices(rs, k)
    stored = sum(len(row) for matrix in fm.fusion for row in matrix)
    monkeypatch.setattr(verlinde, "FUSION_ENTRY_CAP", stored)
    assert verlinde._build_fusion_matrices(rs, k).fusion == fm.fusion
    monkeypatch.setattr(verlinde, "FUSION_ENTRY_CAP", stored - 1)
    with pytest.raises(ResourceError, match="stored coefficients"):
        verlinde._build_fusion_matrices(rs, k)


def test_sparse_fusion_matrices_match_kac_walton():
    from loopfusion.verlinde import fusion_matrices

    for label, k in (
        ("A2", 4), ("B3", 3), ("C3", 2), ("C3", 3), ("G2", 4), ("D4", 2), ("D5", 3),
        ("E6", 2), ("E7", 2), ("F4", 2),
    ):
        rs = build_root_system(label)
        fm = fusion_matrices(rs, k)
        for a, lam in enumerate(fm.labels):
            for b, mu in enumerate(fm.labels):
                want = {fm.index[c]: m for c, m in fuse_kw(rs, k, lam, mu).terms.items()}
                assert fm.fusion[a][b] == want, (label, k, lam, mu)


@pytest.mark.parametrize(
    "label,k", [("A2", 4), ("G2", 3), ("B3", 2), ("F4", 2), ("F4", 3), ("D5", 2)]
)
def test_fusion_matrices_match_the_s_matrix_route(label, k):
    # fuse_s shares no code with the Kac-Walton rows the matrices come from
    from loopfusion.verlinde import fusion_matrices

    rs = build_root_system(label)
    fm = fusion_matrices(rs, k)
    for a, lam in enumerate(fm.labels):
        for b, mu in enumerate(fm.labels):
            want = {fm.index[c]: m for c, m in fuse_s(rs, k, lam, mu).terms.items()}
            assert fm.fusion[a][b] == want, (label, k, lam, mu)


def simple_currents(rs, k):
    """Each node j of mark 1 gives a map J_j of the labels, from scalar alcove
    reductions: J_j(lam) + rho reduces lam + rho + kappa omega_j."""
    ctx = AffineContext(rs, k)
    currents = []
    for j, mark in enumerate(rs.marks):
        if mark != 1:
            continue
        current = {}
        for lam in weights_of(rs, k):
            red = alcove_reduce(ctx, tuple(v + 1 + ctx.kappa * (i == j) for i, v in enumerate(lam)))
            assert red.status == INTERIOR
            current[lam] = tuple(v - 1 for v in red.reduced)
        currents.append(current)
    return currents


def current_orbits(rs, k):
    currents = simple_currents(rs, k)
    orbits = []
    for lam in weights_of(rs, k):
        if any(lam in orbit for orbit in orbits):
            continue
        orbit = {lam}
        while (grown := orbit | {j[mu] for mu in orbit for j in currents}) != orbit:
            orbit = grown
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize(
    "label,k",
    [("A1", 3), ("A3", 2), ("B3", 2), ("C3", 2), ("D4", 2), ("D5", 2), ("E6", 2), ("E7", 2), ("F4", 2)],
)
def test_the_build_uses_the_whole_current_group(label, k):
    # the centre of the simply connected group has one element per node of mark 1
    # and the identity; the currents act on the labels as that group
    from loopfusion.verlinde import _label_symmetries

    rs = build_root_system(label)
    labels = tuple(weights_of(rs, k))
    index = {w: i for i, w in enumerate(labels)}
    group, dual = _label_symmetries(rs, k, labels, index)
    assert len(group) == 1 + sum(m == 1 for m in rs.marks)
    assert group[0] == list(range(len(labels)))
    currents = simple_currents(rs, k)
    want = {labels}  # each group element as the tuple of images of the labels
    while (grown := want | {tuple(j[w] for w in g) for g in want for j in currents}) != want:
        want = grown
    assert {tuple(labels[i] for i in g) for g in group} == want
    assert dual == [index[conjugate_weight(rs, w)] for w in labels]


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C2", "C3", "C4",
     "D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2"],
)
def test_symmetries_are_automorphisms_of_the_affine_diagram(label):
    # p sends a label to the one carrying at node m the extended label lam has at node p[m]
    from loopfusion.verlinde import _node_symmetries

    rs = build_root_system(label)
    group, conjugation = _node_symmetries(rs)
    a = rs.affine_roots
    comarks = (1, *rs.comarks)
    nodes = range(rs.rank + 1)
    for p in (*group, conjugation):
        assert sorted(p) == list(nodes)
        assert all(a[p[i]][p[j]] == a[i][j] for i in nodes for j in nodes)
        assert tuple(comarks[i] for i in p) == comarks
    # the current of finite node j moves node 0 to node j + 1, and the group
    # acts simply transitively on node 0 and the finite nodes of mark 1
    ones = [j + 1 for j, m in enumerate(rs.marks) if m == 1]
    assert len(group) == 1 + len(ones)
    assert [p.index(0) for p in group[: 1 + len(ones)]] == [0, *ones]
    assert group[0] == tuple(nodes)
    assert conjugation[0] == 0
    assert tuple(conjugation[i] for i in conjugation) == tuple(nodes)
    self_conjugate = {"A1", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D6", "E7", "E8", "F4", "G2"}
    assert (conjugation == tuple(nodes)) == (label in self_conjugate)
    if rs.spec.series == "A":
        assert set(group) == {tuple((m - s) % (rs.rank + 1) for m in nodes) for s in nodes}
    if rs.spec.series == "C":
        assert group == (tuple(nodes), tuple(reversed(nodes)))


@pytest.mark.parametrize(
    "call",
    [
        lambda rs, k: verlinde_dimension(rs, k, Surface(genus=1)),
        lambda rs, k: factorization_check(rs, k, Surface(genus=1)),
        lambda rs, k: verlinde_dimension_s(rs, k, Surface(genus=1)),
        lambda rs, k: fuse_kw(rs, k, (1,), (1,)),
        lambda rs, k: fuse_s(rs, k, (1,), (1,)),
        lambda rs, k: cohomology_report(rs, k, Surface(genus=1)),
    ],
    ids=[
        "verlinde_dimension", "factorization_check", "verlinde_dimension_s", "fuse_kw", "fuse_s",
        "cohomology_report",
    ],
)
def test_a_float_level_is_refused_after_the_integer_level_is_cached(call):
    # the fusion-matrix cache is read without a lock, and 2.0 hashes like 2
    a1 = build_root_system("A1")
    want = call(a1, 2)
    with pytest.raises(ValidationError, match="level"):
        call(a1, 2.0)
    got = call(a1, np.int64(2))
    assert got == want
    assert type(getattr(got, "k", 2)) is int


@pytest.mark.parametrize(
    "label,k",
    [("A2", 6), ("A3", 4), ("B3", 3), ("C3", 3), ("D4", 2), ("D5", 2), ("E6", 2), ("E7", 2)],
)
def test_kac_walton_fusion_has_the_current_and_conjugation_symmetries(label, k):
    # N_{J lam, mu}^{J nu} = N_{lam mu}^nu and N_{lam* mu*}^{nu*} = N_{lam mu}^nu,
    # on fuse_kw entries, which use neither symmetry
    rs = build_root_system(label)
    labels = weights_of(rs, k)
    currents = simple_currents(rs, k)
    assert currents
    star = {lam: conjugate_weight(rs, lam) for lam in labels}
    for lam in labels:
        for mu in labels:
            terms = fuse_kw(rs, k, lam, mu).terms
            for j in currents:
                assert fuse_kw(rs, k, j[lam], mu).terms == {j[nu]: m for nu, m in terms.items()}
            assert fuse_kw(rs, k, star[lam], star[mu]).terms == {
                star[nu]: m for nu, m in terms.items()
            }


def test_fusion_matrices_batch_only_the_fundamentals_no_product_reaches(monkeypatch):
    import sys

    from loopfusion import verlinde
    from loopfusion.rootdata import WEYL_CAP_ENV

    def refuse(*args, **kwargs):
        raise AssertionError("the build must not go through per-pair products")

    for name, module in list(sys.modules.items()):
        if name.startswith("loopfusion"):
            for attr in ("tensor_decompose", "fuse_kw"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    calls = []
    real = verlinde.kac_walton_rows
    monkeypatch.setattr(
        verlinde, "kac_walton_rows", lambda *a: calls.append((a[2], list(a[3]))) or real(*a)
    )
    monkeypatch.setattr(verlinde, "_fusion_cache", {})
    monkeypatch.delenv(WEYL_CAP_ENV, raising=False)
    e6 = build_root_system("E6")
    fm = verlinde.fusion_matrices(e6, 2)
    fundamentals = [w for w in fm.labels if sorted(w) == [0] * 5 + [1]]
    assert len(fundamentals) == 5  # comarks (1, 2, 3, 2, 1, 2): omega_3 is past level 2
    # omega_1 (dimension 27) takes the one batch, and conjugation copies it to
    # omega_5; omega_2, omega_4 and omega_6 are peeled off products
    assert [lam for lam, _ in calls] == [(1, 0, 0, 0, 0, 0)]
    orbits = current_orbits(e6, 2)
    assert len(fm.labels) == 9 and sorted(map(len, orbits)) == [3, 3, 3]
    mus = calls[0][1]
    assert len(mus) == 3 and all(sum(mu in orbit for mu in mus) == 1 for orbit in orbits)

    # F4 omega_2 (dimension 1274) comes off N_omega_1 N_omega_1 at level 3
    calls.clear()
    verlinde.fusion_matrices(build_root_system("F4"), 3)
    assert [lam for lam, _ in calls] == [(0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0)]

    # the orbits of E8 omega_3 and omega_6 (60480 and 69120 points) pass the
    # default Weyl cap; both come off products, so level 4 answers
    calls.clear()
    e8 = build_root_system("E8")
    assert verlinde_dimension(e8, 4, Surface(genus=2)) == 646
    assert [lam.index(1) for lam, _ in calls] == [0, 6, 1, 7]


def test_e7_e8_open_at_low_level():
    e7 = build_root_system("E7")
    e8 = build_root_system("E8")
    for g in range(9):
        assert verlinde_dimension(e7, 1, Surface(genus=g)) == 2**g
        assert verlinde_dimension(e8, 1, Surface(genus=g)) == 1
    for g in range(1, 9):
        assert verlinde_dimension(e8, 2, Surface(genus=g)) == 2 ** (g - 1) * (2**g + 1)


def test_factorization_is_exact_at_high_genus():
    f4 = build_root_system("F4")
    # the float S-matrix sum lands 2e-3 from this value and cannot be rounded safely
    out = factorization_check(f4, 2, Surface(genus=8))
    assert out == {"lhs": 59931908630, "rhs": 59931908630, "equal": True}


def test_exact_route_needs_no_weyl_group(monkeypatch):
    from loopfusion import verlinde

    def refuse(*args, **kwargs):
        raise AssertionError("the exact route must not enumerate the Weyl group")

    monkeypatch.setattr(verlinde, "_fusion_cache", {})
    monkeypatch.setattr(verlinde, "s_matrix", refuse)
    monkeypatch.setattr(RootSystem, "weyl_matrices", refuse)
    e6 = build_root_system("E6")
    ws = weights_of(e6, 2)
    assert verlinde_dimension(e6, 2, Surface(genus=1)) == len(ws)
    assert verlinde_dimension(e6, 2, Surface(genus=0, insertions=[ws[1], conjugate_weight(e6, ws[1])])) == 1
    assert factorization_check(e6, 2, Surface(genus=2, insertions=[ws[-1]]))["equal"]
    report = cohomology_report(e6, 2, Surface(genus=1, insertions=[(0, 0, 0, 0, 0, 3)]))
    assert not report.vanishes


def test_float_cross_check_refuses_what_float64_cannot_resolve():
    a1 = build_root_system("A1")
    with pytest.raises(NumericalError):
        verlinde_dimension_s(a1, 1, Surface(genus=60))
    a2 = build_root_system("A2")
    surface = Surface(genus=11, insertions=[(1, 3)])
    assert verlinde_dimension(a2, 4, surface) == 0  # triality
    try:
        assert verlinde_dimension_s(a2, 4, surface) == 0
    except NumericalError:
        pass


def test_float_cross_check_agrees_wherever_it_answers():
    answered = refused = 0
    for label in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"):
        rs = build_root_system(label)
        for k in range(4):
            ws = weights_of(rs, k)
            surfaces = [[]] + [[w] for w in ws] + [list(p) for p in itertools.combinations(ws, 2)]
            for g in range(4):
                for ins in surfaces:
                    surface = Surface(genus=g, insertions=ins)
                    try:
                        want = verlinde_dimension_s(rs, k, surface)
                    except NumericalError:
                        refused += 1
                        continue
                    answered += 1
                    assert verlinde_dimension(rs, k, surface) == want, (label, k, g, ins)
    assert answered > 20 * refused


def test_concurrent_first_calls_share_one_consistent_cache(monkeypatch):
    import sys
    import threading

    from loopfusion import verlinde

    a2 = build_root_system("A2")
    genera = range(0, 160, 3)
    want = {g: verlinde_dimension(a2, 4, Surface(genus=g)) for g in genera}
    errors = []

    def work(start, seed):
        try:
            start.wait(timeout=30)
            for g in sorted(genera, reverse=seed % 2 == 0):
                assert verlinde_dimension(a2, 4, Surface(genus=g)) == want[g]
        except Exception as exc:  # reported below: a thread's failure must fail the test
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(verlinde, "_fusion_cache", {})
            start = threading.Barrier(8)
            threads = [threading.Thread(target=work, args=(start, i)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert len(verlinde.fusion_matrices(a2, 4)._rows) == max(genera) + 1
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize(
    "label,k",
    [("A1", 2), ("A2", 2), ("G2", 1), ("B3", 1), ("C2", 2), ("A3", 1), ("B2", 1)],
)
def test_report_euler_characteristic_equals_the_index_formula(label, k):
    # the Bott degree and the wall verdict against a sum that reduces nothing
    rs = build_root_system(label)
    kappa = k + rs.dual_coxeter
    sm = s_matrix(rs, k)
    character = functools.partial(character_ratio, rs, k)
    rng = random.Random(f"{label} {k} index")
    verdicts = set()
    for genus in range(4):
        for n in (1, 2):
            for _ in range(3):
                lams = tuple(
                    tuple(rng.randint(0, rng.choice((1, 3, 50)) * kappa) for _ in range(rs.rank))
                    for _ in range(n)
                )
                report = cohomology_report(rs, k, Surface(genus=genus, insertions=lams))
                index = oracles.index_euler_characteristic(sm, character, genus, lams)
                assert abs(index.imag) < 1e-6
                assert abs(index.real - report.euler_characteristic) < 1e-6
                verdicts.add(report.vanishes)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "label,k",
    [("A1", 7), ("A2", 4), ("B3", 2), ("G2", 3), ("D4", 2), ("E6", 2), ("F4", 3)],
)
def test_every_built_fusion_ring_commutes(label, k):
    # the build reads row d of a new N_t off row t of a built N_d, and forms
    # only the other rows from products; A1, A2, B3, D4 and E6 have simple
    # currents, A2 and E6 a charge conjugation, G2 and F4 neither
    from loopfusion.verlinde import _build_fusion_matrices

    fm = _build_fusion_matrices(build_root_system(label), k)
    n = len(fm.labels)
    assert all(fm.fusion[a][b] == fm.fusion[b][a] for a in range(n) for b in range(a))


def test_su_level_rank_duality_without_insertions():
    # k^g V_g(A_{N-1}, k) = N^g V_g(A_{k-1}, N) (Mlawer, Naculich, Riggs and
    # Schnitzer, Nucl. Phys. B 1991) for every N, k >= 2 with N k <= 12
    pairs = [(n, k) for n in range(2, 7) for k in range(2, 7) if n * k <= 12]
    assert len(pairs) == 12
    for n, k in pairs:
        su_n, su_k = build_root_system(f"A{n - 1}"), build_root_system(f"A{k - 1}")
        for g in range(1, 5):
            lhs = k**g * verlinde_dimension(su_n, k, Surface(genus=g))
            rhs = n**g * verlinde_dimension(su_k, n, Surface(genus=g))
            assert lhs == rhs, (n, k, g)


def test_symplectic_level_rank_duality():
    # C_n at level k and C_k at level n have isomorphic fusion rings, the
    # labels matched by transposing the partition lam_i = a_i + ... + a_n
    # (Mlawer, Naculich, Riggs and Schnitzer, Nucl. Phys. B 1991), so their
    # Verlinde numbers agree at every genus, and with each single insertion
    pairs = [(n, k) for n in range(2, 11) for k in range(n, 11) if n * k <= 20]
    assert len(pairs) == 15
    for n, k in pairs:
        sp_n, sp_k = build_root_system(f"C{n}"), build_root_system(f"C{k}")
        for g in range(4):
            assert verlinde_dimension(sp_n, k, Surface(genus=g)) == verlinde_dimension(sp_k, n, Surface(genus=g)), (n, k, g)
        labels = weights_of(sp_n, k)
        dual = [oracles.symplectic_transpose(lam, k) for lam in labels]
        assert sorted(dual) == sorted(weights_of(sp_k, n))
        for lam, mu in zip(labels, dual):
            lhs = verlinde_dimension(sp_n, k, Surface(genus=1, insertions=[lam]))
            assert lhs == verlinde_dimension(sp_k, n, Surface(genus=1, insertions=[mu])), (n, k, lam)


@pytest.mark.parametrize(
    "label,genus,constant",
    [("A1", 2, 1), ("A1", 3, 4), ("A1", 4, 96), ("A2", 2, 2), ("B2", 2, 6)],
    ids=["A1-g2", "A1-g3", "A1-g4", "A2-g2", "B2-g2"],
)
def test_verlinde_numbers_are_polynomial_in_the_level(label, genus, constant):
    # for g >= 2, V_g(k) is a quasi-polynomial in k of degree D = (g - 1) dim G
    # (Beauville, "Conformal blocks, fusion rules and the Verlinde formula",
    # 1996), of period 1 on these algebras: over k = 0..D+3 its D-th forward
    # difference is a nonzero constant and its (D+1)-th vanishes.  Genus 1
    # counts labels, a polynomial of degree rank, and stays out.
    rs = build_root_system(label)
    degree = (genus - 1) * oracles.adjoint_dim(rs.spec.series, rs.rank)
    values = [verlinde_dimension(rs, k, Surface(genus=genus)) for k in range(degree + 4)]
    assert oracles.forward_difference(values, degree) == [constant] * 4
    assert oracles.forward_difference(values, degree + 1) == [0] * 3


def test_records_are_tuples_that_keep_fields_defaults_and_checks():
    from loopfusion import (
        AffineContext,
        AlgebraSpec,
        FusionElement,
        InductionResult,
        LevelWeight,
        VirtualCharacter,
    )

    # mutable defaults are fresh per record
    a, b = VirtualCharacter(), VirtualCharacter()
    a.add((1,), 2)
    assert b.terms == {} and a.terms == {(1,): 2}
    assert FusionElement(k=1).terms is not FusionElement(k=1).terms
    assert InductionResult(value=FusionElement(1)).source_degrees is not InductionResult(FusionElement(1)).source_degrees
    # normalisation and validation hold under construction and _replace
    e = FusionElement(2, {(1, 0): 0, (0, 1): np.int64(3)})
    assert e == FusionElement(k=2, terms={(0, 1): 3}) and type(e.terms[(0, 1)]) is int
    assert e._replace(terms={(1, 1): 0}) == FusionElement(2) and not FusionElement(2)
    assert type(e._replace(k=3)) is FusionElement
    assert AffineContext(build_root_system("A1"), np.int64(2)).h == 2
    for bad in (lambda: AffineContext(build_root_system("A1"), -1),
                lambda: AffineContext(build_root_system("A1"), 1)._replace(h=-1),
                lambda: AlgebraSpec("A", 0),
                lambda: AlgebraSpec("E", 6)._replace(rank=5)):
        with pytest.raises(ValidationError):
            bad()
    # repr, field order, field-by-field equality, frozen and hashable records
    assert repr(FusionElement(1, {(1,): 1})) == "FusionElement(k=1, terms={(1,): 1})"
    assert repr(AlgebraSpec("B", 3)) == "AlgebraSpec(series='B', rank=3)" and str(AlgebraSpec("B", 3)) == "B3"
    assert AlgebraSpec("B", 3) == ("B", 3) and LevelWeight((1,), 2) == LevelWeight(weight=(1,), k=2)
    for record, name in ((AlgebraSpec("B", 3), "rank"), (LevelWeight((1,), 2), "k"),
                         (AffineContext(build_root_system("A1"), 1), "h")):
        hash(record)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
