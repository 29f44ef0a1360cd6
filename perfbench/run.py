"""The loopfusion benchmark: one command, four workloads, every answer checked.

    python3 perfbench/run.py --workload fusion_tables --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports ``src/loopfusion`` and the
oracles in ``tests/oracles.py``).  Every workload is single-process and
closed-loop with one client: an operation starts when the previous one ends.

* ``fusion_tables``, ``verlinde_sweep`` and ``alcove_deep`` run whole passes
  of a seeded operation list, each pass in a fresh interpreter (cold caches).
* ``cli_oneshot`` runs one ``python -m loopfusion`` process per query, in
  rounds of one query per subcommand.

A run does passes or rounds until ``--seconds`` have passed (``plans.done``;
``fusion_tables`` does a number fixed by ``--seconds``).  Every time is reported
at the reference host speed (see ``hostspeed``), and the benchmark and its
children run on one CPU, so that the calibration sees the CPU the work ran on.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from traced passes (alternating with untraced ones, which
give the tracing overhead).  The last line of standard output is one JSON
object; the lines before it repeat the metrics for a human reader, with the
failure and wrong-answer shares and the tail percentile's sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cli_shim  # noqa: E402
import hostspeed  # noqa: E402
import ops  # noqa: E402
import plans  # noqa: E402
import spans  # noqa: E402

SETUP_PROBES_EACH_SIDE = 4
CHILD_TIMEOUT_S = 120


class Child:
    """Result of one child process: exit code, stdout, wall seconds, peak RSS."""

    def __init__(self, argv: list, env: dict, stdin: str = "", stderr=subprocess.DEVNULL):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            try:
                proc.stdin.write(stdin.encode())
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the child exited without reading; its exit code says why
            self.stdout = proc.stdout.read().decode()
            proc.stdout.close()
            # wait4 reaps the child and hands back its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - start
        self.rss_mb = usage.ru_maxrss / 1024


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + HERE
    # one thread per process, so the host's other load moves the numbers less
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("LOOPFUSION_BACKEND", None)
    env.pop("LOOPFUSION_WEYL_CAP", None)
    return env


def setup_probes(workload: str, env: dict, count: int, speed: hostspeed.Between) -> list:
    """Wall times, at the reference speed, of fresh interpreters importing
    loopfusion and building the workload's root systems, process start and
    exit included."""
    code = "import loopfusion\nfor a in {!r}:\n    loopfusion.build_root_system(a)\n".format(
        plans.SETUP_ALGEBRAS[workload])
    times = []
    for _ in range(count):
        child = Child([sys.executable, "-c", code], env)
        if child.code != 0:
            raise SystemExit(f"set-up probe failed with exit code {child.code}")
        times.append(child.wall_s * speed.next_scale())
    return times


class Tally:
    """Durations (at the reference speed) and outcomes of every operation one
    mode ran; ``keys`` (from ``op_keys``) lets the repeats of one operation
    share a key.  ``scales`` holds the speed factor of each child process.
    ``answers`` holds (op, status, answer) until ``judge`` turns them into
    outcomes, after the last child has ended: a child started by vfork
    inherits this process's peak RSS in its ``wait4`` figure, so the
    reference data is loaded only when no child is left to start."""

    def __init__(self) -> None:
        self.durations: list = []
        self.outcomes: list = []
        self.answers: list = []
        self.keys: list = []
        self.scales: list = []
        self.rss_mb = 0.0
        self.layers: dict = {}
        self.slowest = None  # traced library passes: the slowest op and its layer self times

    def add_layers(self, totals: dict, factor: float) -> None:
        """Merge one child's layer sums, its times brought to the reference speed."""
        for k, v in totals.items():
            self.layers[k] = self.layers.get(k, 0) + (v * factor if k.endswith("_s") else v)

    def judge(self) -> None:
        self.outcomes += [ops.judge(op, answer) if state == ops.OK else state
                          for op, state, answer in self.answers]
        self.answers = []

    def ops_per_s(self) -> float:
        return len(self.durations) / sum(self.durations)

    def per_op(self) -> dict:
        """Per distinct operation (by key), the median of its repeated durations."""
        runs: dict = {}
        for key, d in zip(self.keys, self.durations):
            runs.setdefault(key, []).append(d)
        return {key: statistics.median(v) for key, v in runs.items()}


def common_ops_per_s(plain: Tally, traced: Tally) -> tuple:
    """Untraced and traced ops_per_s over the operations both ran (by their
    per-operation medians), so that units with different slow products do
    not enter the tracing overhead."""
    a, b = plain.per_op(), traced.per_op()
    common = a.keys() & b.keys()
    return len(common) / sum(a[k] for k in common), len(common) / sum(b[k] for k in common)


def op_keys(todo: list) -> list:
    """Name each operation by its content and its occurrence number in the
    unit, so that repeats of an operation across units share a key wherever
    in the unit it runs."""
    seen: dict = {}
    keys = []
    for op in todo:
        text = json.dumps(op)
        seen[text] = seen.get(text, 0) + 1
        keys.append(f"{seen[text]} {text}")
    return keys


def library_pass(workload: str, seed: int, part: int, units: int, traced: bool, env: dict,
                 tally: Tally, speed: hostspeed.Between) -> None:
    """Run one pass in a fresh worker; its answers are judged here, so the
    worker's peak memory holds no reference data."""
    todo = plans.PLANS[workload](seed, part, units)
    # a worker's stderr passes through: it carries the traceback of a crash
    child = Child([sys.executable, os.path.join(HERE, "worker.py"), "1" if traced else "0"], env,
                  stdin=json.dumps(todo), stderr=None)
    if child.code != 0:
        raise SystemExit(f"worker for pass {part} exited with code {child.code}")
    factor = speed.next_scale()
    tally.scales.append(factor)
    got = json.loads(child.stdout)
    tally.durations += [d * factor for d in got["durations"]]
    tally.keys += op_keys(todo)
    tally.answers += zip(todo, got["status"], got["answers"])
    tally.rss_mb = max(tally.rss_mb, child.rss_mb)
    if traced:
        tally.add_layers(got["layers"], factor)
        slow = got["slowest"]
        slow = dict(slow, s=slow["s"] * factor, layers={k: v * factor for k, v in slow["layers"].items()})
        if tally.slowest is None or slow["s"] > tally.slowest["s"]:
            tally.slowest = dict(slow, op=" ".join(map(str, todo[slow["index"]][:3])))


def cli_query(op: list, traced: bool, env: dict, tally: Tally, speed: hostspeed.Between,
              key: str = "") -> None:
    if traced:
        argv = [sys.executable, os.path.join(HERE, "cli_shim.py")]
    else:
        argv = [sys.executable, "-m", "loopfusion"]
    child = Child(argv + ops.cli_argv(op), env)
    factor = speed.next_scale()
    tally.scales.append(factor)
    out = child.stdout
    if traced:
        head, marker, line = out.rpartition("\n" + cli_shim.MARKER)
        if marker:  # absent when the query crashed before main returned
            out = head
            totals = json.loads(line)
            covered = totals.pop("trace.covered_s")
            totals["trace.op_s"] = child.wall_s
            totals["trace.uncovered_s"] = child.wall_s - covered
            tally.add_layers(totals, factor)
    answer = None
    if child.code == 0:
        try:
            answer, state = ops.cli_answer(op, out), ops.OK
        except (ValueError, KeyError, TypeError):
            state = ops.WRONG  # unparseable output is a wrong answer
    elif child.code in ops.CLI_DECLINED:
        state = ops.RAISED
    else:
        state = ops.CRASH
    tally.durations.append(child.wall_s * factor)
    tally.keys.append(key or json.dumps(op))
    tally.answers.append((op, state, answer))
    tally.rss_mb = max(tally.rss_mb, child.rss_mb)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict):
    """Run units until ``plans.done`` stops the run; in trace mode alternate
    untraced and traced units."""
    plain, traced = Tally(), Tally()
    units = plans.fusion_passes(seconds)  # only fusion_tables' plan uses it
    speed = hostspeed.Between(plans.REFERENCE_WORK[workload])
    start = time.perf_counter()
    part = 0
    while not plans.done(workload, part, trace, time.perf_counter() - start, seconds):
        use_trace = trace and part % 2 == 1
        tally = traced if use_trace else plain
        if workload == "cli_oneshot":
            todo = plans.cli_round(seed, part, units)
            for op, key in zip(todo, op_keys(todo)):
                cli_query(op, use_trace, env, tally, speed, key)
        else:
            library_pass(workload, seed, part, units, use_trace, env, tally, speed)
        part += 1
    return plain, traced, part


def tail(durations: list, pct: float) -> tuple:
    """The pct-th percentile (nearest rank) and the number of values beyond it."""
    ordered = sorted(durations)
    rank = math.ceil(len(ordered) * pct / 100)
    beyond = len(ordered) - rank
    if beyond < 10:
        raise SystemExit(f"op_tail_s: only {beyond} samples beyond p{pct:g}; run more units")
    return ordered[rank - 1], beyond


def outcome_counts(*tallies: Tally) -> dict:
    return {o: sum(t.outcomes.count(o) for t in tallies) for o in ops.OUTCOMES}


def share_notes(*tallies: Tally) -> list:
    """The failure and wrong-answer shares, as text lines."""
    count = outcome_counts(*tallies)
    n = sum(count.values())
    failed = n - count[ops.OK]
    wrong = count[ops.WRONG] + count[ops.KNOWN_WRONG]
    return [
        f"fail_share {failed / n:.6f} ratio  (raised + wrong) / attempted = {failed}/{n}",
        f"wrong_share {wrong / n:.6f} ratio  wrong answers / attempted = {wrong}/{n}",
        "outcomes " + " ".join(f"{k}={v}" for k, v in count.items()),
    ]


def verdict(*tallies: Tally) -> tuple:
    """(correct, attempted, failed) over every operation of the given tallies."""
    count = outcome_counts(*tallies)
    attempted = sum(count.values())
    correct = count[ops.WRONG] == 0 and count[ops.CRASH] == 0
    return correct, attempted, attempted - count[ops.OK]


def end_to_end(tally: Tally, setup_s: float, tail_pct: float) -> tuple:
    correct, n, failed = verdict(tally)
    count = outcome_counts(tally)
    wrong = count[ops.WRONG] + count[ops.KNOWN_WRONG]
    per_op = list(tally.per_op().values())
    tail_s, beyond = tail(per_op, tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "exact_share": ((n - failed) / n, "ratio"),
        "no_guess_share": ((n - wrong) / n, "ratio"),
        "peak_rss_mb": (tally.rss_mb, "MB"),
    }
    repeats = n / len(per_op)
    return metrics, [f"op_p50_s and op_tail_s (p{tail_pct:g}, {beyond} beyond it) are over the medians "
                     f"of {len(per_op)} distinct operations, each timed {repeats:.3g} times on average",
                     speed_note(tally)] + share_notes(tally)


def speed_note(*tallies: Tally) -> str:
    scales = [f for t in tallies for f in t.scales]
    return (f"times are at the reference speed: raw times scaled by {min(scales):.3f} to {max(scales):.3f} "
            f"(median {statistics.median(scales):.3f}) over {len(scales)} child processes")


def per_layer(plain: Tally, traced: Tally) -> dict:
    values = spans.finish(traced.layers, *common_ops_per_s(plain, traced))
    out = {}
    for name in sorted(values):
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_share"):
            unit = "ratio"
        elif name.endswith("_bytes"):
            unit = "bytes"
        else:
            unit = "count"
        out[name] = (values[name], unit)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plans.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/loopfusion/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from the root of a loopfusion checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(root, "src"))  # the CLI references read root data
    # one CPU for this process and every child: the two CPUs change speed
    # independently, and a child's calibration is taken here
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env(root)
    setup = []
    if not args.trace:
        # a discarded warm-up, then probes before and after the workload, so
        # that set-up samples the host's speed across the whole run
        speed = hostspeed.Between("process")
        setup_probes(args.workload, env, 1, speed)
        setup = setup_probes(args.workload, env, SETUP_PROBES_EACH_SIDE, speed)
    plain, traced, units = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env)
    if not args.trace:
        setup += setup_probes(args.workload, env, SETUP_PROBES_EACH_SIDE, speed)
    plain.judge()
    traced.judge()
    setup_s = statistics.median(setup) if setup else None

    correct, attempted, failed = verdict(plain, traced)
    if args.trace:
        metrics = per_layer(plain, traced)
        notes = [speed_note(plain, traced)] + share_notes(plain, traced)
        untraced_rate, traced_rate = common_ops_per_s(plain, traced)
        notes.append(f"over the operations both ran: traced ops_per_s {traced_rate:.6g}, "
                     f"untraced {untraced_rate:.6g}")
        if traced.slowest:
            slow = traced.slowest
            top = sorted(slow["layers"].items(), key=lambda kv: -kv[1])[:3]
            notes.append(f"slowest traced op [{slow['op']}] {slow['s']:.4g} s; self time: " + ", ".join(
                f"{name} {value:.4g} s ({value / slow['s']:.0%})" for name, value in top))
    else:
        metrics, notes = end_to_end(plain, setup_s, plans.TAIL_PERCENTILE[args.workload])
    print(f"workload {args.workload} seed {args.seed} units {units} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for line in notes:
        print("  " + line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
