"""Regenerate refs.json, the frozen fusion references the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Every level-k table is computed twice, by Kac-Walton (``fuse_kw``) and by the
S-matrix sum (``fuse_s``), and the two must agree on every pair either can
answer; where ``fuse_kw`` hits its candidate cap (E6 k=2) the S-matrix value
stands alone.  Each product must also satisfy the quantum-dimension identity
sum_nu N^nu q(nu) = q(a) q(b), with q from the Weyl denominator product.
A1 tables must match the truncated Clebsch-Gordan oracle of tests/oracles.py.
Takes a few minutes on a 2-core machine; run it only when the table set changes.
"""

from __future__ import annotations

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from loopfusion.errors import LoopFusionError  # noqa: E402
from loopfusion.fusion import alcove_weights, fuse_kw, fuse_s  # noqa: E402
from loopfusion.rootdata import build_root_system, pairing  # noqa: E402

import refcheck  # noqa: E402
from plans import LARGE_PRODUCTS, REF_TABLES  # noqa: E402


def qdim(rs, k, lam) -> float:
    kappa = k + rs.dual_coxeter
    out = 1.0
    for alpha in rs.positive_roots:
        top = float(pairing(rs, tuple(v + 1 for v in lam), alpha))
        bottom = float(pairing(rs, rs.rho, alpha))
        out *= math.sin(math.pi * top / kappa) / math.sin(math.pi * bottom / kappa)
    return out


def check_qdim(rs, k, a, b, terms) -> None:
    lhs = sum(c * qdim(rs, k, w) for w, c in terms.items())
    rhs = qdim(rs, k, a) * qdim(rs, k, b)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs)), (rs.spec, k, a, b, lhs, rhs)


def build_table(alg: str, k: int) -> dict:
    rs = build_root_system(alg)
    labels = [lw.weight for lw in alcove_weights(rs, k)]
    use_kw = (alg, k) != ("E6", 2)
    products = []
    for i, a in enumerate(labels):
        for j in range(i, len(labels)):
            b = labels[j]
            via_s = fuse_s(rs, k, a, b).terms
            if use_kw:
                via_kw = fuse_kw(rs, k, a, b).terms
                assert via_kw == via_s, (alg, k, a, b)
            else:
                try:
                    assert fuse_kw(rs, k, a, b).terms == via_s, (alg, k, a, b)
                except LoopFusionError:
                    pass
            if alg == "A1":
                assert via_s == refcheck.oracles().su2_fusion(k, a[0], b[0])
            check_qdim(rs, k, a, b, via_s)
            products.append([i, j, sorted([labels.index(w), c] for w, c in via_s.items())])
        print(f"{alg} k={k}: row {i + 1}/{len(labels)}", file=sys.stderr, flush=True)
    return {"labels": [list(w) for w in labels], "products": products}


def build_product(alg: str, k: int, a, b) -> list:
    rs = build_root_system(alg)
    try:
        terms = fuse_kw(rs, k, a, b).terms
    except LoopFusionError:
        terms = fuse_s(rs, k, a, b).terms
    check_qdim(rs, k, a, b, terms)
    return sorted([list(w), c] for w, c in terms.items())


def main() -> None:
    out = {
        "derivation": __doc__.strip().splitlines()[0],
        "tables": {f"{alg}|{k}": build_table(alg, k) for alg, k in REF_TABLES},
        "products": {},
    }
    for alg, k, a, b in LARGE_PRODUCTS:
        name = f"{alg}|{k}|{refcheck.key(a)}|{refcheck.key(b)}"
        if (alg, k) in REF_TABLES:
            continue  # answered by the table
        out["products"][name] = build_product(alg, k, a, b)
    with open(os.path.join(refcheck.HERE, "refs.json"), "w") as fh:
        json.dump(out, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
