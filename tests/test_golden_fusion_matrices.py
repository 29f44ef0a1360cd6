"""Exact fusion matrices against SHA-256 digests frozen from the build before
it used fusion-ring symmetries.  The last three pairs (E7 k=4, E8 k=3, E8
k=4) were frozen later, from the build that still ran one Kac-Walton batch
per fundamental orbit, before fundamentals were peeled off products; its
E8 k=4 needed LOOPFUSION_WEYL_CAP=10000000.

For each (algebra, level) the golden holds one digest each of the canonical
labels, the sparse matrices N_a, the conjugation ``dual`` and the handle
operator.  Running this file as a script rewrites the golden from the current
code.
"""

import hashlib
import json
from pathlib import Path

import pytest

from loopfusion.rootdata import build_root_system
from loopfusion.verlinde import _build_fusion_matrices

GOLDEN_PATH = Path(__file__).parent / "golden" / "fusion_matrix_hashes.json"
PAIRS = [
    ("A1", 1), ("A1", 2), ("A1", 40), ("A2", 4), ("A2", 10), ("A3", 8), ("A5", 3),
    ("B3", 2), ("B3", 6), ("B4", 3), ("C3", 5), ("C4", 3),
    ("D4", 4), ("D5", 2), ("D5", 3), ("D6", 2),
    ("E6", 1), ("E6", 2), ("E6", 4), ("E7", 3),
    ("F4", 2), ("F4", 3), ("G2", 3),
    ("E7", 4), ("E8", 3), ("E8", 4),
]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def sparse(matrix) -> list:
    return [sorted(row.items()) for row in matrix]


def record(label: str, k: int) -> dict:
    fm = _build_fusion_matrices(build_root_system(label), k)
    return {
        "labels": digest([list(w) for w in fm.labels]),
        "fusion": digest([sparse(m) for m in fm.fusion]),
        "dual": digest(fm.dual),
        "handle": digest(sparse(fm.handle)),
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("label,k", PAIRS)
def test_fusion_matrices_match_the_frozen_golden(label, k):
    assert record(label, k) == GOLDEN[f"{label} k={k}"]


if __name__ == "__main__":
    cases = {f"{label} k={k}": record(label, k) for label, k in PAIRS}
    lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in cases.items())
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
