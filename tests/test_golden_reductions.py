"""Alcove and dominant reductions against a golden frozen from the greedy walk.

The golden holds seeded points on A1-A3, B3, C3, G2, F4, E6 and E8 at twisting
levels h = 0, 1, 3 and coordinates up to 1, 10 and 50 kappa.  Each point
records, for both orders of the greedy walk (affine generator first or
last), the reduced point, length, status and sign, the same in both, and the
SHA-256 of the walk's word, from the test oracle, or None past the golden's
budget of 10 * kappa * |positive roots| + 10 letters, plus its dominant
reduction.  Running this file as a script rewrites the golden from the
current code.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

import oracles

from loopfusion.affine_weyl import WALL, AffineContext, alcove_reduce, alcove_reduce_batch
from loopfusion.rootdata import build_root_system, dominant_reduce

GOLDEN_PATH = Path(__file__).parent / "golden" / "alcove_reductions.json"
LABELS = ["A1", "A2", "A3", "B3", "C3", "G2", "F4", "E6", "E8"]
LEVELS = (0, 1, 3)
SCALES = (1, 10, 50)
POINTS_PER_CELL = 2


def cell_points(ctx, scale):
    rng = random.Random(f"{ctx.rs.spec}-{ctx.h}-{scale}")
    bound = scale * ctx.kappa
    return [
        tuple(rng.randint(-bound, bound) for _ in range(ctx.rs.rank))
        for _ in range(POINTS_PER_CELL)
    ]


def word_digest(ctx, x, length, affine_first):
    if length > 10 * ctx.kappa * len(ctx.rs.positive_roots) + 10:
        return None
    return hashlib.sha256(bytes(oracles.greedy_walk(ctx.rs, ctx.kappa, x, affine_first)[0])).hexdigest()


def record(ctx, x):
    out = {"x": list(x)}
    red = alcove_reduce(ctx, x)
    for order in ("affine_first", "finite_first"):
        out[order] = {
            "reduced": list(red.reduced),
            "length": red.length,
            "status": red.status,
            "sign": red.sign,
            "word": word_digest(ctx, x, red.length, order == "affine_first"),
        }
    point, sign = dominant_reduce(ctx.rs, x)
    out["dominant"] = [list(point), sign]
    return out


def cells():
    for label in LABELS:
        for h in LEVELS:
            for scale in SCALES:
                yield label, h, scale


def build_golden():
    golden = {}
    for label, h, scale in cells():
        ctx = AffineContext(build_root_system(label), h)
        golden[f"{label} h={h} {scale}k"] = [record(ctx, x) for x in cell_points(ctx, scale)]
    return golden


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("label,h,scale", list(cells()))
def test_reductions_match_the_frozen_golden(label, h, scale):
    ctx = AffineContext(build_root_system(label), h)
    frozen = GOLDEN[f"{label} h={h} {scale}k"]
    points = cell_points(ctx, scale)
    assert [tuple(case["x"]) for case in frozen] == points
    assert [record(ctx, x) for x in points] == frozen
    # the int64 batch kernel lands on the same points, lengths and verdicts
    reduced, lengths, walls = alcove_reduce_batch(ctx, np.array(points, dtype=np.int64))
    for case, red, length, wall in zip(frozen, reduced, lengths, walls):
        want = case["affine_first"]
        assert [int(v) for v in red] == want["reduced"]
        assert int(length) == want["length"]
        assert bool(wall) == (want["status"] == WALL)


if __name__ == "__main__":
    cases = build_golden()
    lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in cases.items())
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
