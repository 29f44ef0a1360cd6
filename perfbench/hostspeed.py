"""Host-speed calibration: fixed reference work, timed next to every measurement.

The 2-core container's CPUs change speed for seconds to minutes at a time,
by up to about 2.3x, and within a slow spell there are no fast moments.  Raw
times of the same work therefore differ between runs by more than the
benchmark's bounds.  So every time the benchmark reports is given at the
reference speed: multiplied by ``reference / C``, where ``C`` is the median
time of a fixed piece of reference work, run on the same CPU just before and
just after the measured child process.  The reference work uses no library
code, so a change to the library cannot move it, and it runs in a process of
its own, so that its memory stays out of the parent's peak RSS (which a
child started by vfork inherits in its ``wait4`` figure).

The reference work is matched to what it calibrates, because a slow spell
slows different kinds of work by different factors:

* ``large``, for library passes whose time goes mostly to the Weyl-group
  BFS and Klimyk products: building a dict of 120000 tuples (about 24 MB)
  in pure Python.  Between the fastest and the slowest third of the
  spells, the ratio to it of the E6 BFS (the largest single cost of
  ``verlinde_sweep``) moved by 4-6%, and of cached Verlinde calls and
  reports by under 3%.  For ``small`` the E6 ratio moved by 15-20%.
* ``small``, for library passes whose time goes to alcove walks: the same
  loop over 20000 tuples, which stays in the CPU's caches.  The ratio to it
  of an F4 alcove walk moved by 1-4%; to ``large``, by up to 9%.
* ``process``, for command-line queries and set-up probes: starting an
  interpreter that imports numpy, as each of them does.  The ratio of a
  command-line query to it stayed within 1%, against 17% for a small
  arithmetic loop.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time

# per loop: tuples in its dict, runs per sample, and its median time on the
# 2-core container in its fast spells, so that reported times read as
# seconds there at full speed
LOOPS = {"small": (20000, 3, 0.018), "large": (120000, 1, 0.13)}
PROCESS_REFERENCE_S = 0.11


def _loop(size: int) -> int:
    seen = {}
    x = (3, -1, 4, 1, -5, 9)
    for i in range(size):
        x = tuple(v + (i % 7) - 3 for v in x)
        seen[(x, i)] = i
    return len(seen)


def _time_loop(size: int, reps: int) -> list:
    gc.disable()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _loop(size)
        times.append(time.perf_counter() - start)
    return times


def loop_times(kind: str) -> list:
    """Wall times of the runs of one loop, timed inside a fresh interpreter."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), kind], stdout=subprocess.PIPE, check=True)
    return json.loads(out.stdout)


def process_times() -> list:
    """Wall time of one interpreter that imports numpy, start and exit
    included, with the thread settings of the benchmark's children."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
    return [time.perf_counter() - start]


class Between:
    """Reference work between child processes: each child's factor comes
    from the samples taken just before it and just after it."""

    def __init__(self, kind: str) -> None:
        if kind == "process":
            self.sample, self.reference = process_times, PROCESS_REFERENCE_S
        else:
            self.sample, self.reference = (lambda: loop_times(kind)), LOOPS[kind][2]
        self.last = self.sample()

    def next_scale(self) -> float:
        """Factor that brings the child that just ended to the reference speed."""
        now = self.sample()
        factor = self.reference / statistics.median(self.last + now)
        self.last = now
        return factor


if __name__ == "__main__":
    print(json.dumps(_time_loop(*LOOPS[sys.argv[1]][:2])))
