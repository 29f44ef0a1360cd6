"""One cold pass of a library workload in a fresh interpreter.

    PYTHONPATH=src:perfbench python3 perfbench/worker.py TRACE < ops.json

Reads the pass's operations (a JSON list) from standard input and runs them
one after another, timing each call alone.  Prints one JSON object: per
operation the duration, the status (``ok``, ``raised`` for a library error,
``crash`` for anything else) and the answer, and with TRACE=1 the per-layer
sums of the traced spans and the slowest operation's layer self times.
The answers are judged by the parent process, so this process loads neither
the reference tables nor the oracles and its peak memory is the library's.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

import libcall

OK, RAISED, CRASH = "ok", "raised", "crash"


def main(traced: bool) -> None:
    todo = json.load(sys.stdin)
    import loopfusion as lf
    from loopfusion.errors import LoopFusionError

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    durations, status, answers, op_spans = [], [], [], []
    reported = False
    for op in todo:
        span = tracer.begin("op") if tracer else None
        start = time.perf_counter()
        answer = None
        try:
            answer = libcall.run(op, lf)
            state = OK
        except LoopFusionError:
            state = RAISED
        except Exception:
            state = CRASH
            if not reported:
                traceback.print_exc()
                reported = True
        durations.append(time.perf_counter() - start)
        if tracer:
            tracer.end(span)
            op_spans.append(span)
        status.append(state)
        answers.append(answer)
    result = {"durations": durations, "status": status, "answers": answers}
    if tracer:
        result["layers"] = tracer.layer_totals()
        slowest = max(range(len(todo)), key=durations.__getitem__)
        result["slowest"] = {"index": slowest, "s": durations[slowest],
                             "layers": tracer.breakdown(op_spans[slowest])}
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1] == "1")
