"""Exact weight systems against SHA-256 digests frozen from the build whose
Freudenthal step reread whole root strings.

For each highest weight the golden holds one digest of the sorted
``by_weight`` items and one of the sorted ``dominant`` items.  The weights
are every dominant weight with coordinate sum at most 2 on A1-A4, B2, B3,
C3, D4, D5 and G2, B4 (1,1,1,1), the E6 irreps 27, 78 and 650, every
fundamental weight of the algebras the Verlinde sweep builds, and the large
A2 (60,60) and A1 (2000,).  Running this file as a script rewrites the
golden from the current code.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from loopfusion.finite_reps import weight_multiplicities
from loopfusion.rootdata import build_root_system

GOLDEN_PATH = Path(__file__).parent / "golden" / "weight_systems.json"
SMALL_ALGEBRAS = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "D5", "G2")
SWEEP_ALGEBRAS = ("A1", "A2", "G2", "B3", "F4", "D5", "E6")


def unit(rank: int, i: int) -> tuple:
    return tuple(int(i == j) for j in range(rank))


def _cases() -> list:
    out = []
    for label in SMALL_ALGEBRAS:
        rank = build_root_system(label).rank
        out += [(label, lam) for lam in itertools.product(range(3), repeat=rank) if sum(lam) <= 2]
    out += [("B4", (1, 1, 1, 1))]
    out += [("E6", (1, 0, 0, 0, 0, 0)), ("E6", (0, 0, 0, 0, 0, 1)), ("E6", (1, 0, 0, 0, 1, 0))]
    for label in SWEEP_ALGEBRAS:
        rank = build_root_system(label).rank
        out += [(label, unit(rank, i)) for i in range(rank)]
    out += [("A2", (60, 60)), ("A1", (2000,))]
    return list(dict.fromkeys(out))


CASES = _cases()


def digest(items) -> str:
    value = [[list(w), m] for w, m in sorted(items)]
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def key(label: str, lam: tuple) -> str:
    return f"{label} {lam}"


def record(label: str, lam: tuple) -> dict:
    m = weight_multiplicities(build_root_system(label), lam)
    return {"by_weight": digest(m.by_weight.items()), "dominant": digest(m.dominant.items())}


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("label,lam", CASES, ids=[key(*case) for case in CASES])
def test_weight_system_matches_the_frozen_golden(label, lam):
    assert record(label, lam) == GOLDEN[key(label, lam)]


if __name__ == "__main__":
    cases = {key(label, lam): record(label, lam) for label, lam in CASES}
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in cases.items())
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
