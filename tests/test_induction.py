"""Holomorphic induction onto alcove labels and the ring homomorphism."""

import itertools
import random

import numpy as np
import pytest

from loopfusion.errors import ValidationError
from loopfusion.finite_reps import VirtualCharacter, tensor_decompose
from loopfusion.fusion import conjugate_weight, fuse_kw
from loopfusion.induction import (
    InductionResult,
    homomorphism_check,
    induce,
    induce_virtual,
)
from loopfusion.rootdata import build_root_system
from loopfusion.verlinde import Surface, cohomology_report

import oracles


def test_induce_worked_examples():
    a1 = build_root_system("A1")
    # alcove labels are fixed points
    for lam in [(0,), (1,)]:
        out = induce(a1, 1, lam)
        assert out.value.terms == {lam: 1}
        assert out.source_degrees == {lam: 0}
    # wall annihilation
    out = induce(a1, 1, (2,))
    assert out.value.terms == {}
    # one reflection, sign flip
    out = induce(a1, 1, (3,))
    assert out.value.terms == {(1,): -1}
    assert out.source_degrees == {(3,): 1}


def test_induce_validates_input():
    a1 = build_root_system("A1")
    with pytest.raises(ValidationError):
        induce(a1, 1, (-1,))
    with pytest.raises(ValidationError):
        induce(a1, -1, (0,))


def test_induce_virtual_examples_and_cancellation():
    a1 = build_root_system("A1")
    out = induce_virtual(a1, 1, VirtualCharacter({(0,): 1}))
    assert out.terms == {(0,): 1}
    out = induce_virtual(a1, 1, VirtualCharacter({(0,): 1, (2,): 1}))
    assert out.terms == {(0,): 1}
    # (4)+rho = 5 reflects to 3, i.e. the label (2), with sign -1
    out = induce_virtual(a1, 2, VirtualCharacter({(0,): 1, (2,): 1, (4,): 1}))
    assert out.terms == {(0,): 1}


def test_induce_virtual_is_linear():
    rs = build_root_system("A2")
    h = 1
    rng = random.Random(5)
    for _ in range(25):
        terms_a = {
            tuple(rng.randint(0, 4) for _ in range(2)): rng.randint(-3, 3)
            for _ in range(3)
        }
        terms_b = {
            tuple(rng.randint(0, 4) for _ in range(2)): rng.randint(-3, 3)
            for _ in range(3)
        }
        va, vb = VirtualCharacter(dict(terms_a)), VirtualCharacter(dict(terms_b))
        combined = VirtualCharacter(dict(terms_a))
        for w, c in terms_b.items():
            combined.add(w, c)
        lhs = induce_virtual(rs, h, combined)
        rhs = induce_virtual(rs, h, va)
        for w, c in induce_virtual(rs, h, vb).terms.items():
            rhs.add(w, c)
        assert lhs.terms == rhs.terms


def test_induce_commutes_with_conjugation():
    for label, h in [("A2", 1), ("A2", 2)]:
        rs = build_root_system(label)
        for lam in itertools.product(range(6), repeat=rs.rank):
            star = conjugate_weight(rs, lam)
            left = induce(rs, h, star).value.terms
            right = {
                conjugate_weight(rs, w): c
                for w, c in induce(rs, h, lam).value.terms.items()
            }
            assert left == right


def test_homomorphism_worked_examples():
    a1 = build_root_system("A1")
    out = homomorphism_check(a1, 1, (1,), (1,))
    assert out["equal"]
    assert out["lhs"].terms == {(0,): 1}
    assert out["rhs"].terms == {(0,): 1}
    out = homomorphism_check(a1, 2, (2,), (2,))
    assert out["equal"]
    assert out["lhs"].terms == {(0,): 1}


def test_homomorphism_with_unit_factor():
    for label, h in [("A2", 1), ("B2", 1)]:
        rs = build_root_system(label)
        zero = (0,) * rs.rank
        for mu in itertools.product(range(4), repeat=rs.rank):
            out = homomorphism_check(rs, h, zero, mu)
            assert out["equal"]
            assert out["lhs"].terms == induce(rs, h, mu).value.terms


def test_homomorphism_exhaustive_small_grid():
    a1 = build_root_system("A1")
    for h in (0, 1, 2):
        kappa = h + 2
        for a in range(2 * kappa + 1):
            for b in range(2 * kappa + 1):
                assert homomorphism_check(a1, h, (a,), (b,))["equal"]
    a2 = build_root_system("A2")
    for lam in itertools.product(range(4), repeat=2):
        for mu in itertools.product(range(4), repeat=2):
            assert homomorphism_check(a2, 1, lam, mu)["equal"]


def test_homomorphism_random_b2_g2():
    rng = random.Random(13)
    for label in ("B2", "G2"):
        rs = build_root_system(label)
        for _ in range(60):
            h = rng.randint(0, 2)
            kappa = h + rs.dual_coxeter
            lam = tuple(rng.randint(0, kappa) for _ in range(2))
            mu = tuple(rng.randint(0, kappa) for _ in range(2))
            assert homomorphism_check(rs, h, lam, mu)["equal"], (label, h, lam, mu)


def test_triple_product_rigidity():
    rs = build_root_system("A1")
    h = 2
    triples = [((2,), (3,), (1,)), ((4,), (2,), (2,)), ((1,), (5,), (3,))]
    for a, b, c in triples:
        left_tensor = VirtualCharacter({})
        for nu, m in tensor_decompose(rs, a, b).terms.items():
            for tau, n in tensor_decompose(rs, nu, c).terms.items():
                left_tensor.add(tau, m * n)
        right_tensor = VirtualCharacter({})
        for nu, m in tensor_decompose(rs, b, c).terms.items():
            for tau, n in tensor_decompose(rs, a, nu).terms.items():
                right_tensor.add(tau, m * n)
        lhs = induce_virtual(rs, h, left_tensor)
        rhs = induce_virtual(rs, h, right_tensor)
        assert lhs.terms == rhs.terms


def test_signed_euler_equals_vacuum_coefficient_of_induced_product():
    rng = random.Random(31)
    for label, h in [("A1", 2), ("A2", 1)]:
        rs = build_root_system(label)
        for _ in range(40):
            lam = tuple(rng.randint(0, 6) for _ in range(rs.rank))
            mu = tuple(rng.randint(0, 6) for _ in range(rs.rank))
            # pair against the conjugate so the vacuum coefficient appears
            report = cohomology_report(
                rs, h, Surface(genus=0, insertions=[lam, mu])
            )
            il = induce(rs, h, lam).value
            im = induce(rs, h, mu).value
            from loopfusion.fusion import fuse_elements

            prod = fuse_elements(rs, h, il, im)
            vac_of = 0
            for w, c in prod.terms.items():
                if w == conjugate_weight(rs, (0,) * rs.rank):
                    vac_of = c
            euler = report.euler_characteristic
            # chi = sum over labels nu of sign * N with the vacuum extracted
            # via a third dual insertion; here m=2 so the chi IS the fused
            # vacuum coefficient
            assert euler == vac_of, (label, h, lam, mu, euler, prod.terms)


def test_induction_result_record():
    rs = build_root_system("A1")
    out = induce(rs, 1, (3,))
    assert isinstance(out, InductionResult)
    assert out.value.k == 1


@pytest.mark.parametrize(
    "label", ["A1", "A4", "B3", "C4", "D5", "E6", "E7", "E8", "F4", "G2"]
)
def test_induction_equals_the_alcove_reduce_route(label):
    # the closed-form wall verdict first, then the sweep: the same label
    # (reduced point less rho), length and sign as alcove_reduce, and None
    # exactly on its walls
    from loopfusion.affine_weyl import INTERIOR, WALL, AffineContext, _induced, alcove_reduce
    from loopfusion.rootdata import dominant_reduce

    rs = build_root_system(label)
    rng = random.Random(f"{label} induced")
    verdicts, vanishing = set(), set()
    for h in (0, 1, 3):
        ctx = AffineContext(rs, h)
        kappa = ctx.kappa
        weights = [tuple(rng.randint(0, 60 * kappa) for _ in range(rs.rank)) for _ in range(10)]
        weights += [tuple(rng.randint(0, kappa) for _ in range(rs.rank)) for _ in range(4)]
        weights += [tuple(rng.randint(0, 2**70) for _ in range(rs.rank)) for _ in range(3)]
        # off every wall: rho moved by an affine word and a kappa*Q^vee
        # translation, then made dominant (walls map to walls)
        for scale in (60, 2**66):
            for _ in range(4):
                word = [rng.randint(0, rs.rank) for _ in range(rng.randint(0, 12))]
                x = list(oracles.apply_word(rs, kappa, word, (1,) * rs.rank))
                for coroot in rs.simple_coroot_weights:
                    m = kappa * rng.randint(-scale, scale)
                    x = [v + m * c for v, c in zip(x, coroot)]
                weights.append(tuple(v - 1 for v in dominant_reduce(rs, x)[0]))
        for lam in weights:
            red = alcove_reduce(ctx, tuple(v + 1 for v in lam))
            got = _induced(ctx, lam)
            one = induce(rs, h, lam)
            verdicts.add(red.status)
            if red.status == WALL:
                assert got is None and one.value.terms == {} and one.source_degrees == {}, (h, lam)
                continue
            target = tuple(v - 1 for v in red.reduced)
            assert got == (target, red.length), (h, lam)
            assert one.value.terms == {target: red.sign} and one.source_degrees == {lam: red.length}
        # reports at the cheap levels: their degree sums the same lengths
        if h <= 1:
            for lam, mu in zip(weights[::2], weights[1::2]):
                report = cohomology_report(rs, h, Surface(genus=0, insertions=[lam, mu]))
                vanishing.add(report.vanishes)
                reds = [alcove_reduce(ctx, tuple(v + 1 for v in w)) for w in (lam, mu)]
                if any(r.status == WALL for r in reds):
                    assert report.vanishes and report.degree is None and report.dimension == 0
                else:
                    assert not report.vanishes and report.degree == sum(r.length for r in reds)
    assert verdicts == {WALL, INTERIOR} and vanishing == {True, False}


def test_a_wall_insertion_is_never_swept(monkeypatch):
    # lam + rho = (6,) lies on the A1 wall 3Z at h = 1 but outside the
    # closed alcove: its verdict needs no reduced point
    from loopfusion import affine_weyl

    swept = []
    original = affine_weyl._sweep_to_alcove

    def spy(*args):
        swept.append(args)
        return original(*args)

    monkeypatch.setattr(affine_weyl, "_sweep_to_alcove", spy)
    a1, a2 = build_root_system("A1"), build_root_system("A2")
    assert induce(a1, 1, (5,)).value.terms == {}
    assert cohomology_report(a1, 1, Surface(genus=1, insertions=[(5,)])).vanishes
    # A2 at h = 1 (kappa 4): (x, alpha_1 + alpha_2) = 8 for lam + rho = (4, 4)
    assert induce(a2, 1, (3, 3)).value.terms == {}
    assert cohomology_report(a2, 1, Surface(genus=0, insertions=[(0, 0), (3, 3)])).vanishes
    assert swept == []
    # the spy sees the sweep of a point that does induce a label
    assert induce(a1, 1, (3,)).value.terms == {(1,): -1} and len(swept) == 1


@pytest.mark.parametrize("h", [np.int64(1), True])
def test_induced_levels_are_python_ints(h):
    # the validated level is kept, not the argument it came from
    rs = build_root_system("A2")
    for lam in [(1, 0), (4, 0), (2, 0)]:
        k = induce(rs, h, lam).value.k
        assert type(k) is int and k == 1
    virt = induce_virtual(rs, h, VirtualCharacter({(1, 0): 1, (4, 0): 2}))
    assert type(virt.k) is int and virt.k == 1
    assert type(induce_virtual(rs, h, VirtualCharacter({})).k) is int
    for insertions in ([], [(1, 0)], [(2, 0)]):
        report = cohomology_report(rs, h, Surface(1, insertions))
        assert type(report.h) is int and "h=1," in repr(report)


@pytest.mark.parametrize(
    "label", ["A1", "A4", "B3", "C4", "D5", "E6", "E7", "E8", "F4", "G2"]
)
def test_induce_virtual_is_the_sum_of_single_inductions(label):
    from loopfusion.fusion import FusionElement

    rs = build_root_system(label)
    rng = random.Random(f"{label} virtual")
    for h in (0, 1, 3):
        kappa = h + rs.dual_coxeter
        for _ in range(4):
            terms = {}
            for _ in range(rng.randint(1, 8)):
                lam = tuple(rng.randint(0, 3 * kappa) for _ in range(rs.rank))
                terms[lam] = terms.get(lam, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
            # a term whose label carries the opposite coefficient cancels it
            lam = tuple(rng.randint(0, 3 * kappa) for _ in range(rs.rank))
            single = induce(rs, h, lam).value.terms
            for target, sign in single.items():
                terms[lam] = terms.get(lam, 0) + 2
                terms[target] = terms.get(target, 0) - 2 * sign
            vc = VirtualCharacter(terms)
            want = FusionElement(k=h)
            for w, mult in vc.terms.items():
                for target, c in induce(rs, h, w).value.terms.items():
                    want.add(target, mult * c)
            assert induce_virtual(rs, h, vc) == want, (h, vc)


def test_induce_virtual_does_not_go_through_induce(monkeypatch):
    from loopfusion import induction

    calls = []
    original = induction.induce

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(induction, "induce", spy)
    rs = build_root_system("A2")
    vc = tensor_decompose(rs, (1, 0), (1, 1))
    assert induce_virtual(rs, 2, vc)
    assert calls == []
