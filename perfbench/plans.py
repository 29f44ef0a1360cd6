"""Seeded operation lists for the four workloads.

An operation is a JSON-ready list ``[kind, algebra, level, *args]``; the
library worker executes it through one public-API call, the command-line
workload turns it into one ``python -m loopfusion`` process.  A plan function
takes (seed, unit, units) and returns the operations of one unit: a library
pass or a command-line round.  Every unit of a run repeats the same
operations (``fusion_tables`` deals its few slow products out over the
passes; ``cli_oneshot`` cycles through CLI_DISTINCT_ROUNDS rounds), so each
operation is timed several times in one run and the run reports per
operation the median of those times.  The expensive operations and the
inputs that fail at the seed are fixed; the seed draws the light inputs and
the order, so that runs with different seeds cost about the same.
"""

from __future__ import annotations

import random

import refcheck

CLI_ALGEBRAS = ("A1", "A2", "B2", "C3", "G2", "F4")
CLI_MAX_LEVEL = {"C3": 1, "F4": 1}
FUSION_TABLES = (
    ("A2", 6), ("G2", 4), ("B3", 3), ("C3", 3), ("A4", 2), ("D4", 2), ("F4", 2), ("B4", 2),
)
VERLINDE_PAIRS = (
    ("A1", 1), ("A1", 2), ("A2", 4), ("G2", 3), ("B3", 2),
    ("F4", 2), ("F4", 3), ("D5", 2), ("E6", 1), ("E6", 2),
)
ALCOVE_ALGEBRAS = ("A2", "B3", "G2", "F4", "E6")
ALCOVE_LEVELS = (0, 1, 3)
ALCOVE_BANDS = (1, 10, 50)
# cohomology_report needs the S-matrix; keep the Weyl BFS small (|W| <= 1152)
REPORT_ALGEBRAS = ("A2", "B3", "G2", "F4")
# level-k tables the references cover (make_refs.py writes them)
REF_TABLES = tuple(
    sorted(
        set(FUSION_TABLES)
        | set(VERLINDE_PAIRS)
        | {(alg, h) for alg in REPORT_ALGEBRAS for h in ALCOVE_LEVELS}
        | {(alg, k) for alg in CLI_ALGEBRAS for k in range(4)}
        | {("E6", 2)}
    )
)

E6_27 = (1, 0, 0, 0, 0, 0)
E6_27BAR = (0, 0, 0, 0, 1, 0)
E6_78 = (0, 0, 0, 0, 0, 1)
E6_650 = (1, 0, 0, 0, 1, 0)  # its self-product hits the 10^6 candidate cap at seed
LARGE_PRODUCTS = (
    ("B4", 6, (1, 1, 1, 1), (1, 1, 1, 1)),
    ("A5", 6, (2, 1, 0, 1, 2), (2, 1, 0, 1, 2)),
    ("E6", 2, E6_27, E6_27),
    ("E6", 2, E6_27BAR, E6_27BAR),
    ("E6", 2, E6_78, E6_78),
    ("E6", 2, E6_650, E6_650),
)
# genera where the float Verlinde sum raises or returns a wrong integer at seed
DEFECT_GENERA = {("A1", 1): (30, 50, 60), ("A1", 2): (20,), ("F4", 2): (8,)}
# below this genus verlinde_dimension is exact for every label of every pair
SEEDED_GENERA = 4

# rank and dual Coxeter number, so plans need no library import
RANK = {"A1": 1, "A2": 2, "B2": 2, "B3": 3, "C3": 3, "G2": 2, "F4": 4, "D5": 5, "E6": 6}
DUAL_COXETER = {"A1": 2, "A2": 3, "B2": 3, "B3": 5, "C3": 4, "G2": 4, "F4": 9, "D5": 8, "E6": 12}

# op_tail_s percentile over the distinct operations of a run, fixed per
# workload, with at least ten operations beyond it
TAIL_PERCENTILE = {"fusion_tables": 95.0, "verlinde_sweep": 90.0, "alcove_deep": 95.0, "cli_oneshot": 75.0}

CLI_DISTINCT_ROUNDS = 5
# a run does units (library passes or command-line rounds) until --seconds
# have passed, and at least MIN_UNITS of them: for the command line one cycle
# of its distinct rounds, so that every query is timed
MIN_UNITS = {"fusion_tables": 3, "verlinde_sweep": 3, "alcove_deep": 3, "cli_oneshot": CLI_DISTINCT_ROUNDS}
# fusion_tables deals its slow products out over a number of passes fixed by
# --seconds, one per this many seconds, and does exactly that many
FUSION_PASS_SECONDS = 7.0


def fusion_passes(seconds: float) -> int:
    return max(MIN_UNITS["fusion_tables"], round(seconds / FUSION_PASS_SECONDS))


def done(workload: str, units: int, trace: bool, elapsed: float, seconds: float) -> bool:
    """Whether a run stops after ``units`` units, ``elapsed`` seconds in.
    Traced runs alternate untraced and traced units; they do at least twice
    MIN_UNITS, in an even number, so that both kinds cover every operation."""
    if workload == "fusion_tables":
        return units >= max(fusion_passes(seconds), 2 if trace else 1)
    least = MIN_UNITS[workload] * (2 if trace else 1)
    return units >= least and elapsed >= seconds and not (trace and units % 2)


# the host-speed reference work for each workload's child processes (see hostspeed)
REFERENCE_WORK = {"fusion_tables": "large", "verlinde_sweep": "large", "alcove_deep": "small",
                  "cli_oneshot": "process"}

SETUP_ALGEBRAS = {
    "fusion_tables": ("A2", "G2", "B3", "C3", "A4", "D4", "F4", "B4", "A5", "E6"),
    "verlinde_sweep": tuple(sorted({alg for alg, _ in VERLINDE_PAIRS})),
    "alcove_deep": ALCOVE_ALGEBRAS,
    "cli_oneshot": CLI_ALGEBRAS,
}


def labels(alg: str, k: int) -> list:
    return [list(w) for w in refcheck.refs()["tables"][f"{alg}|{k}"]["labels"]]


def _rng(seed: int, unit: int = 0) -> random.Random:
    return random.Random(seed * 100_003 + unit)


def _dominant(rng, alg: str, top: int) -> list:
    return [rng.randint(0, top) for _ in range(RANK[alg])]


def fusion_tables(seed: int, unit: int, units: int) -> list:
    """Whole tables in a seeded order, the same in every pass, with the slow
    products dealt out over the passes: pass ``unit`` gets the slow operations
    whose index is ``unit`` modulo ``units``, spread evenly between its table
    calls.  Every run pays each slow product once, whatever its number of
    passes.  The seeded order spreads the calls that first compute a weight
    system over the pass, and spreading the slow products spreads the fast
    table calls, which set op_p50_s, over the whole run instead of bunching
    them in a few seconds of each pass."""
    rng = _rng(seed)
    table_ops = []
    for alg, k in FUSION_TABLES:
        labs = labels(alg, k)
        table_ops += [["fuse", alg, k, a, b] for a in labs for b in labs]
    table_ops.append(["homcheck", "B3", 3, _dominant(rng, "B3", 3), _dominant(rng, "B3", 3)])
    table_ops += [["homcheck", "G2", 4, _dominant(rng, "G2", 6), _dominant(rng, "G2", 6)] for _ in range(2)]
    rng.shuffle(table_ops)
    slow = [["fuse", alg, k, list(a), list(b)] for alg, k, a, b in LARGE_PRODUCTS][unit::units]
    step = len(table_ops) // (len(slow) + 1)
    ops = []
    for i, op in enumerate(slow):
        ops += table_ops[i * step:(i + 1) * step] + [op]
    return ops + table_ops[len(slow) * step:]


def verlinde_sweep(seed: int, unit: int, units: int) -> list:
    """The seed draws the sweep's labels up to genus 3 and the order.  The
    labels from genus 4 on, the reports and the factorization checks, whose
    inputs decide whether they fail and what they cost, are the same for
    every seed.  Each pass opens, in a fixed order, with a genus-0 call and
    the first report for every (algebra, level): these pay the Weyl BFS,
    the S-matrix and the report's own set-up.  With those first calls left
    to the seeded order, which operation paid them changed with the seed,
    and op_tail_s, which sits among the reports and factorization checks,
    spread 0.12 over ten seeds."""
    rng = _rng(seed)
    fixed = _rng(0)
    first, ops = [], []
    for alg, k in VERLINDE_PAIRS:
        labs = labels(alg, k)
        kappa = k + DUAL_COXETER[alg]
        first.append(["verlinde", alg, k, 0, [], []])
        for g in range(13):
            # one label per surface, alternately inserted and on the boundary;
            # from genus 4 on the float sum fails or rounds for some labels,
            # so those labels are fixed and the failure shares do not depend
            # on the seed
            label = [(rng if g < SEEDED_GENERA else fixed).choice(labs)]
            ops.append(["verlinde", alg, k, g, label, []] if g % 2 else ["verlinde", alg, k, g, [], label])
        for g in DEFECT_GENERA.get((alg, k), ()):
            ops.append(["verlinde", alg, k, g, [], []])
        for i in range(2):
            ins = [_dominant(fixed, alg, 2 * kappa) for _ in range(fixed.randint(1, 2))]
            (ops if i else first).append(["report", alg, k, fixed.randint(0, 3), ins, []])
        ops.append(["factor", alg, k, fixed.randint(1, 2), [fixed.choice(labs)]])
    rng.shuffle(ops)
    return first + ops


def _point(rng, alg: str, bound: int) -> list:
    return [rng.randint(-bound, bound) for _ in range(RANK[alg])]


def _shell(rng, alg: str, size: int, dominant: bool = False) -> list:
    """Coordinates of magnitude between size/2 and size: walk lengths, and so
    costs, vary less from seed to seed than for points spread from zero."""
    out = [rng.randint(max(size // 2, 1), size) for _ in range(RANK[alg])]
    return out if dominant else [v * rng.choice((-1, 1)) for v in out]


def alcove_deep(seed: int, unit: int, units: int) -> list:
    """The 10- and 50-kappa points, whose walk lengths set what an operation
    costs (and at 50 kappa whether it fails), and the reports, whose S-matrix
    builds set the peak memory, are the same for every seed, so every seed
    pays the same for them: with seeded 10-kappa points the median operation
    moved by up to 20% between seeds.  The seed draws the 1-kappa points and
    the order."""
    seeded = _rng(seed)
    fixed = _rng(0)
    reports = _rng(0, 1)
    ops = []
    for alg in ALCOVE_ALGEBRAS:
        for h in ALCOVE_LEVELS:
            kappa = h + DUAL_COXETER[alg]
            for band in ALCOVE_BANDS:
                size = band * kappa
                rng = seeded if band == ALCOVE_BANDS[0] else fixed
                ops += [["reduce", alg, h, _shell(rng, alg, size)] for _ in range(2)]
                ops.append(["reduce_batch", alg, h, [_shell(rng, alg, size) for _ in range(8)]])
                ops.append(["induce", alg, h, _shell(rng, alg, size, dominant=True)])
                ops.append(["degree", alg, h, [_shell(rng, alg, size, dominant=True) for _ in range(2)]])
                if alg in REPORT_ALGEBRAS:
                    ins = [_shell(reports, alg, size, dominant=True) for _ in range(reports.randint(1, 2))]
                    ops.append(["report", alg, h, reports.randint(0, 2), ins, []])
    seeded.shuffle(ops)
    return ops


def cli_round(seed: int, unit: int, units: int) -> list:
    """One query per subcommand, on seeded algebras, levels <= 3, alcove-scale weights.

    The algebras of a round are drawn without replacement from two copies of
    the list, so every run sees them in about equal shares.  C3 and F4 stay at
    level 1: products of their level-2 and level-3 labels take 0.5-2 s and
    up to 67 MB at seed, so whether a run drew one set its peak memory.
    Round ``unit`` repeats round ``unit`` modulo CLI_DISTINCT_ROUNDS.
    """
    rng = _rng(seed, unit % CLI_DISTINCT_ROUNDS)
    ops = []
    picks = rng.sample(CLI_ALGEBRAS * 2, 9)
    for sub, alg in zip(("roots", "dim", "tensor", "reduce", "fusion", "verlinde", "report", "induce", "check"), picks):
        top = CLI_MAX_LEVEL.get(alg, 3)
        k = rng.randint(1, top)
        kappa = k + DUAL_COXETER[alg]
        labs = labels(alg, k)
        if sub == "roots":
            ops.append(["roots", alg, 0])
        elif sub == "dim":
            ops.append(["dim", alg, 0, [_dominant(rng, alg, 3) for _ in range(2)]])
        elif sub == "tensor":
            ops.append(["tensor", alg, 0, rng.choice(labs), rng.choice(labs)])
        elif sub == "reduce":
            ops.append(["reduce", alg, k, [_point(rng, alg, 2 * kappa) for _ in range(2)]])
        elif sub == "fusion":
            ops.append(["fusion", alg, k, rng.choice(labs), rng.choice(labs)])
        elif sub == "verlinde":
            ins = [rng.choice(labs) for _ in range(rng.randint(0, 2))]
            ops.append(["verlinde", alg, k, rng.randint(0, 3), ins, []])
        elif sub == "report":
            ops.append(["report", alg, k, rng.randint(0, 2), [_dominant(rng, alg, 2 * kappa)], []])
        elif sub == "induce":
            ops.append(["induce", alg, k, _dominant(rng, alg, 2 * kappa)])
        elif rng.random() < 0.5:
            wide = labels(alg, top)  # some lie outside the level-k alcove
            ops.append(["homcheck", alg, k, rng.choice(wide), rng.choice(wide)])
        else:
            ops.append(["factor", alg, k, rng.randint(1, 2), [rng.choice(labs)]])
    rng.shuffle(ops)
    return ops


PLANS = {
    "fusion_tables": fusion_tables,
    "verlinde_sweep": verlinde_sweep,
    "alcove_deep": alcove_deep,
    "cli_oneshot": cli_round,
}
