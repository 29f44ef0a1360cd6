"""Self-test of the benchmark's checker and failure accounting.

    python3 perfbench/selftest.py      (from the root of a loopfusion checkout)

Pushes four operations through the same code the benchmark uses: one right
answer, one deliberately wrong answer, one library call that must raise
(a label outside the alcove), and one command-line query that must exit
nonzero (exit code 3).  Checks that the wrong answer lands in wrong_share,
that all three failures land in fail_share, and that both shares use the
four attempted operations as denominator.  Checks that only a
verlinde_dimension answer within float64 rounding of a large exact value
counts as the known defect, and that any other wrong answer is a new one.  Also checks the reference
machinery against itself: the handle-operator products equal the closed
forms for A1 k=1, A1 k=2 and E6 k=1.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import libcall  # noqa: E402
import ops  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402


def library_outcome(op: list, lf, forced=None) -> str:
    from loopfusion.errors import LoopFusionError

    try:
        answer = libcall.run(op, lf)
    except LoopFusionError:
        return ops.RAISED
    return ops.judge(op, answer if forced is None else forced)


def main() -> int:
    import loopfusion as lf

    failures = []

    def expect(label: str, got, want) -> None:
        status = "PASS" if got == want else "FAIL"
        print(f"{status} {label}: got {got!r}, want {want!r}")
        if got != want:
            failures.append(label)

    tally = run.Tally()
    genus3 = ["verlinde", "A1", 1, 3, [], []]
    cases = [
        ("right answer", library_outcome(genus3, lf), ops.OK),
        ("wrong answer (9 for 2^3)", library_outcome(genus3, lf, forced=9), ops.WRONG),
        ("raise (label outside the alcove)",
         library_outcome(["verlinde", "A1", 1, 2, [[5]], []], lf), ops.RAISED),
    ]
    for label, outcome, want in cases:
        expect(label, outcome, want)
        tally.durations.append(1.0)
        tally.outcomes.append(outcome)
    run.cli_query(["fusion", "A1", 1, [5], [0]], False, run.child_env(os.getcwd()), tally,
                  run.hostspeed.Between("process"))
    tally.judge()
    expect("nonzero CLI exit", tally.outcomes[-1], ops.RAISED)

    # only the float-Verlinde rounding defect is a known wrong answer
    genus60 = ["verlinde", "A1", 1, 60, [], []]
    expect("float-rounded 2^60 from verlinde_dimension", ops.judge(genus60, 1152921504606814080),
           ops.KNOWN_WRONG)
    expect("2^60 + 2^40 from verlinde_dimension", ops.judge(genus60, 2**60 + 2**40), ops.WRONG)
    expect("float-rounded 2^60 from cohomology_report",
           ops.judge(["report", "A1", 1, 60, [], []],
                     {"vanishes": False, "degree": 0, "dimension": 1152921504606814080}), ops.WRONG)

    notes = run.share_notes(tally)
    correct, attempted, failed = run.verdict(tally)
    print("\n".join("  " + line for line in notes))
    expect("attempted", attempted, 4)
    expect("failed (raised + wrong)", failed, 3)
    expect("fail_share line", notes[0].split()[1], f"{3 / 4:.6f}")
    expect("wrong_share line", notes[1].split()[1], f"{1 / 4:.6f}")
    expect("correct flag with a wrong answer", correct, False)

    for genus in (0, 1, 7, 60, 200):
        expect(f"A1 k=1 g={genus} handle product", refcheck.table("A1", 1).dimension(genus, []), 2**genus)
        expect(f"E6 k=1 g={genus} handle product", refcheck.table("E6", 1).dimension(genus, []), 3**genus)
        if genus:
            expect(f"A1 k=2 g={genus} handle product", refcheck.table("A1", 2).dimension(genus, []),
                   2 ** (genus - 1) * (2**genus + 1))
    print("selftest:", "FAILED " + ", ".join(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
