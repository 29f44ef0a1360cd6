"""Acceptance gate: ten go/no-go criteria over the whole library.

Each test prints one "ACCEPTANCE n (<name>): PASS/FAIL" verdict (also echoed
into the terminal summary) and fails loudly with the first few offending
cases.  Tolerances are pinned here: 1e-6 for fusion rounding residuals,
1e-9 for S-matrix structure; everything else is exact integer equality.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import time

import numpy as np

import conftest
from oracles import greedy_walk, su2_fusion

from loopfusion.affine_weyl import AffineContext, alcove_reduce, on_wall, total_degree
from loopfusion.errors import NumericalError
from loopfusion.finite_reps import tensor_decompose, weight_multiplicities, weyl_dimension
from loopfusion.fusion import (
    alcove_weights,
    conjugate_weight,
    fuse_kw,
    fuse_s,
    s_matrix,
)
from loopfusion.induction import homomorphism_check, induce
from loopfusion.rootdata import build_root_system, pairing
from loopfusion.verlinde import Surface, factorization_check, verlinde_dimension

# (algebra, highest level) pairs making up the shared test matrix
MATRIX = (("A1", 6), ("A2", 4), ("B2", 3), ("G2", 3))

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _verdict(num: int, name: str, failures: list) -> None:
    ok = not failures
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"{line}; first failures: {failures[:5]}"


def test_criterion_01_fusion_route_equivalence():
    # the S-matrix route rounds with an internal 1e-6 residual gate, so a
    # clean run certifies the tolerance as well as the equality
    start = time.monotonic()
    failures = []
    for label, kmax in MATRIX:
        rs = build_root_system(label)
        for k in range(kmax + 1):
            labels = [lw.weight for lw in alcove_weights(rs, k)]
            for i, lam in enumerate(labels):
                for mu in labels[i:]:
                    exact = fuse_kw(rs, k, lam, mu).terms
                    rounded = fuse_s(rs, k, lam, mu).terms
                    if exact != rounded:
                        failures.append((label, k, lam, mu))
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _verdict(1, "fusion route equivalence", failures)


def test_criterion_02_su2_closed_form():
    failures = []
    rs = build_root_system("A1")
    for k in range(7):
        for a in range(k + 1):
            for b in range(k + 1):
                got = {w[0]: c for w, c in fuse_kw(rs, k, (a,), (b,)).terms.items()}
                want = {w[0]: c for w, c in su2_fusion(k, a, b).items()}
                if got != want:
                    failures.append((k, a, b, got, want))
    _verdict(2, "su2 closed form", failures)


def test_criterion_03_induction_homomorphism():
    start = time.monotonic()
    failures = []

    def check(rs, h, lam, mu):
        if not homomorphism_check(rs, h, lam, mu)["equal"]:
            failures.append((rs.spec.label, h, lam, mu))

    rs = build_root_system("A1")
    for h in range(4):
        kappa = h + rs.dual_coxeter
        for a in range(2 * kappa + 1):
            for b in range(a, 2 * kappa + 1):
                check(rs, h, (a,), (b,))
    rs = build_root_system("A2")
    for h in range(3):
        kappa = h + rs.dual_coxeter
        weights = [(a, b) for a in range(kappa + 1) for b in range(kappa + 1)]
        for i, lam in enumerate(weights):
            for mu in weights[i:]:
                check(rs, h, lam, mu)
    rng = random.Random(303)
    for label in ("B2", "G2"):
        rs = build_root_system(label)
        for _ in range(500):
            h = rng.randint(0, 2)
            kappa = h + rs.dual_coxeter
            lam = (rng.randint(0, kappa), rng.randint(0, kappa))
            mu = (rng.randint(0, kappa), rng.randint(0, kappa))
            check(rs, h, lam, mu)
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        failures.append(("runtime", elapsed))
    _verdict(3, "induction homomorphism", failures)


def test_criterion_04_wall_criterion_agreement():
    # on_wall, the reduction's status and induce's vanishing read one wall
    # flag between them; the definition, some positive root alpha with
    # (x, alpha) in kappa*Z, is checked here root by root in Fractions
    rng = random.Random(404)
    failures = []
    for label in ("A1", "A2", "B2"):
        rs = build_root_system(label)
        for _ in range(1000):
            h = rng.randint(0, 4)
            ctx = AffineContext(rs, h)
            lam = tuple(rng.randint(0, 12) for _ in range(rs.rank))
            shifted = tuple(v + 1 for v in lam)
            defined = any((pairing(rs, shifted, alpha) / ctx.kappa).denominator == 1 for alpha in rs.positive_roots)
            wall = on_wall(ctx, shifted)
            red = alcove_reduce(ctx, shifted)
            dies = not induce(rs, h, lam).value
            if not defined == wall == (red.status == "wall") == dies:
                failures.append((label, h, lam, defined, wall, red.status, dies))
    _verdict(4, "wall criterion agreement", failures)


def test_criterion_05_degree_path_independence():
    rng = random.Random(505)
    failures = []
    for _ in range(1000):
        label, _ = MATRIX[rng.randrange(len(MATRIX))]
        rs = build_root_system(label)
        ctx = AffineContext(rs, rng.randint(0, 3))
        x = tuple(rng.randint(-12, 12) for _ in range(rs.rank))
        # both greedy walks, affine generator first or last, take exactly
        # the reduction's length in letters and end at its reduced point
        red = alcove_reduce(ctx, x)
        for affine_first in (True, False):
            word, end = greedy_walk(rs, ctx.kappa, x, affine_first)
            if (len(word), end) != (red.length, red.reduced):
                failures.append((label, ctx.h, x, affine_first))
    for label, kmax in MATRIX:
        rs = build_root_system(label)
        for k in range(kmax + 1):
            ctx = AffineContext(rs, k)
            for lw in alcove_weights(rs, k):
                if total_degree(ctx, [lw.weight]) != 0:
                    failures.append((label, k, lw.weight, "degree"))
    _verdict(5, "degree path independence", failures)


def test_criterion_06_handle_factorization():
    rng = random.Random(606)
    failures = []
    for label, kmax in (("A1", 4), ("A2", 3), ("B2", 2)):
        rs = build_root_system(label)
        for k in range(kmax + 1):
            labels = [lw.weight for lw in alcove_weights(rs, k)]
            for genus in (1, 2, 3):
                for m in (0, 1, 2):
                    ins = tuple(labels[rng.randrange(len(labels))] for _ in range(m))
                    fc = factorization_check(rs, k, Surface(genus=genus, insertions=ins))
                    if not fc["equal"] or fc["lhs"] != fc["rhs"]:
                        failures.append((label, k, genus, ins, fc))
    _verdict(6, "handle factorization", failures)


def test_criterion_07_s_matrix_structure():
    failures = []
    for label, kmax in MATRIX:
        rs = build_root_system(label)
        for k in range(kmax + 1):
            sm = s_matrix(rs, k)
            S = sm.entries
            n = len(sm.labels)
            perm = np.zeros((n, n))
            for i, j in enumerate(sm.conjugation):
                perm[i, j] = 1.0
            checks = {
                "symmetry": np.abs(S - S.T).max(),
                "unitarity": np.abs(S @ S.conj().T - np.eye(n)).max(),
                "conjugation": np.abs(S @ S - perm).max(),
            }
            for name, resid in checks.items():
                if resid >= 1e-9:
                    failures.append((label, k, name, float(resid)))
    _verdict(7, "s-matrix structure", failures)


def test_criterion_08_known_small_values():
    failures = []
    rs = build_root_system("A1")
    for genus, want in ((1, 2), (2, 4)):
        got = verlinde_dimension(rs, 1, Surface(genus=genus))
        if got != want:
            failures.append(("A1", 1, genus, got, want))
    for label, kmax in MATRIX:
        rs = build_root_system(label)
        for k in range(kmax + 1):
            for lw in alcove_weights(rs, k):
                pair = Surface(genus=0, insertions=(lw.weight, conjugate_weight(rs, lw.weight)))
                got = verlinde_dimension(rs, k, pair)
                if got != 1:
                    failures.append((label, k, lw.weight, got))
    _verdict(8, "known small values", failures)


def test_criterion_09_representation_base_layer():
    rng = random.Random(909)
    caps = {"A1": 10, "A2": 4, "B2": 3, "G2": 2}
    failures = []
    for label, cap in caps.items():
        rs = build_root_system(label)
        seen = set()
        for _ in range(200):
            lam = tuple(rng.randint(0, cap) for _ in range(rs.rank))
            mu = tuple(rng.randint(0, cap) for _ in range(rs.rank))
            decomp = tensor_decompose(rs, lam, mu)
            total = sum(c * weyl_dimension(rs, nu) for nu, c in decomp.terms.items())
            if total != weyl_dimension(rs, lam) * weyl_dimension(rs, mu):
                failures.append((label, lam, mu, "klimyk"))
            seen.update((lam, mu))
        for lam in sorted(seen):
            if weight_multiplicities(rs, lam).total() != weyl_dimension(rs, lam):
                failures.append((label, lam, "freudenthal"))
    _verdict(9, "representation base layer", failures)


def test_criterion_10_cli_contract(monkeypatch, capsys):
    failures = []

    def run_cli(args, env=None):
        return subprocess.run(
            [sys.executable, "-m", "loopfusion", *args], capture_output=True, env=env
        )

    golden_cases = (
        ("fusion_a1_k2.json", ["fusion", "--algebra", "A1", "--level", "2", "--weights", "1;1"]),
        ("report_a1_h1_wall.json", ["report", "--algebra", "A1", "--level", "1", "--weights", "2"]),
        ("induce_a1_h1.json", ["induce", "--algebra", "A1", "--level", "1", "--weights", "3"]),
    )
    for fname, args in golden_cases:
        proc = run_cli(args)
        want = (GOLDEN / fname).read_bytes()
        if proc.returncode != 0 or proc.stdout != want:
            failures.append((fname, proc.returncode))
        elif json.loads(proc.stdout)["meta"].get("kappa") is None:
            failures.append((fname, "schema"))

    taxonomy = (
        (2, [], None),
        (2, ["fusion", "--algebra", "A1", "--bogus"], None),
        (3, ["fusion", "--algebra", "Z9", "--level", "1", "--weights", "0;0"], None),
        (3, ["fusion", "--algebra", "A1", "--level", "1", "--weights", "2;0"], None),
        (5, ["verlinde", "--algebra", "A2", "--level", "2", "--genus", "1"],
         dict(os.environ, LOOPFUSION_WEYL_CAP="1")),
    )
    for want_code, args, env in taxonomy:
        got = run_cli(args, env=env).returncode
        if got != want_code:
            failures.append((args, got, want_code))

    import loopfusion.cli as cli

    def explode(*args, **kwargs):
        raise NumericalError("forced")

    monkeypatch.setattr(cli, "verlinde_dimension", explode)
    code = cli.main(["verlinde", "--algebra", "A1", "--level", "1", "--genus", "1"])
    if code != 4 or capsys.readouterr().out != "":
        failures.append(("numerical gate", code, 4))
    _verdict(10, "cli contract", failures)
