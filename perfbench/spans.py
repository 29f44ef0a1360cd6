"""Span tracing from the benchmark side: wrappers around the library's public calls.

Each wrapped call records a span (name, start, end, parent) in memory; the
spans are folded into per-layer self times and counts when the process ends.
A wrapper replaces the function everywhere a loopfusion module holds it by
name (``fusion`` imports ``tensor_decompose`` directly, for instance), so
callers that looked the name up at import time are traced too.  Hot inner
helpers are left alone: the overhead would distort what is measured.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# span name -> per-layer self-time metric
SELF_TIME = {
    "rootdata.build_root_system": "rootdata.build_s",
    "rootdata.weyl_matrices": "rootdata.weyl_matrices_s",
    "rootdata.weyl_orbit": "rootdata.weyl_orbit_s",
    "finite_reps.weight_multiplicities": "finite_reps.weight_system_s",
    "finite_reps.tensor_decompose": "finite_reps.tensor_s",
    "affine_weyl.alcove_reduce": "affine_weyl.reduce_s",
    "affine_weyl.alcove_reduce_batch": "affine_weyl.reduce_batch_s",
    "kernels.dominant_reduce_batch": "kernels.dominant_reduce_s",
    "kernels.alcove_reduce_batch": "kernels.alcove_reduce_s",
    "kernels.signed_weyl_sum": "kernels.signed_sum_s",
    "fusion.s_matrix": "fusion.s_matrix_s",
    "fusion.fuse_kw": "fusion.fuse_kw_s",
    "verlinde.verlinde_dimension": "verlinde.dimension_s",
    "verlinde.cohomology_report": "verlinde.report_s",
    "verlinde.factorization_check": "verlinde.factorization_s",
    "induction.induce": "induction.induce_s",
    "induction.homomorphism_check": "induction.homcheck_s",
    "cli.main": "cli.run_s",
    "op": "trace.uncovered_s",  # one benchmark operation: its self time is covered by no layer
}
COUNTS = (
    "rootdata.build_calls", "rootdata.weyl_elements", "rootdata.orbit_points",
    "finite_reps.weight_system_calls", "finite_reps.weights_dominant",
    "finite_reps.weights_total", "finite_reps.tensor_calls", "finite_reps.tensor_terms",
    "finite_reps.errors", "affine_weyl.reduce_calls", "affine_weyl.reduce_steps",
    "affine_weyl.reduce_walls", "affine_weyl.batch_rows", "affine_weyl.errors",
    "kernels.dominant_rows", "kernels.dominant_steps", "kernels.alcove_rows",
    "kernels.alcove_steps", "kernels.signed_sum_terms", "kernels.signed_sum_bytes",
    "fusion.s_matrix_calls", "fusion.s_matrix_builds", "fusion.s_labels",
    "fusion.fuse_kw_calls", "verlinde.dimension_calls", "verlinde.errors",
    "induction.induce_calls",
)


def _signed_sum_bytes(mats, rows, cols) -> int:
    """Bytes of the arrays the numpy signed-sum path materializes, from shapes.

    images and half-products are int64 [W, A, r]; phases int64 [W, A, B];
    terms complex128 [W, A, B].  Cache traffic is not measured.
    """
    w, r = mats.shape[0], mats.shape[1]
    a, b = rows.shape[0], cols.shape[0]
    return 8 * w * a * r * 2 + 8 * w * a * b + 16 * w * a * b


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, calls=None, before=None, after=None):
        """Wrap fn: count the call under ``calls``, record a span, and let
        ``after(counts, args, result, before(*args))`` count what it did."""
        layer = name.split(".")[0]

        def wrapper(*args, **kwargs):
            if calls:
                self.counts[calls] += 1
            state = before(*args) if before else None
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                # count each error once, in the innermost layer that raised it
                if not getattr(exc, "_perfbench_counted", False) and layer + ".errors" in COUNTS:
                    self.counts[layer + ".errors"] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                self.spans[idx][1] = start
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if after:
                after(self.counts, args, out, state)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def install(self) -> None:
        """Wrap the public layer entry points in every loopfusion module."""
        from loopfusion import affine_weyl, finite_reps, fusion, induction, kernels, rootdata, verlinde
        from loopfusion.affine_weyl import WALL

        def weyl_before(rs):
            return getattr(rs, "_weyl_cache", None) is None

        def weyl_after(counts, args, out, was_cold):
            if was_cold:
                counts["rootdata.weyl_elements"] += len(out[0])

        def orbit_after(counts, args, out, state):
            counts["rootdata.orbit_points"] += len(out)

        def weights_after(counts, args, out, state):
            counts["finite_reps.weights_dominant"] += len(out.dominant)
            counts["finite_reps.weights_total"] += len(out.by_weight)

        def tensor_after(counts, args, out, state):
            counts["finite_reps.tensor_terms"] += len(out.terms)

        def reduce_after(counts, args, out, state):
            counts["affine_weyl.reduce_steps"] += out.length
            counts["affine_weyl.reduce_walls"] += out.status == WALL

        def smatrix_before(*args):
            return len(fusion._smatrix_cache)

        def smatrix_after(counts, args, out, size_before):
            if len(fusion._smatrix_cache) > size_before:
                counts["fusion.s_matrix_builds"] += 1
                counts["fusion.s_labels"] += len(out.labels)

        def dominant_after(counts, args, out, state):
            counts["kernels.dominant_rows"] += len(args[1])
            counts["kernels.dominant_steps"] += int(out[2].sum())

        def alcove_kernel_after(counts, args, out, state):
            counts["kernels.alcove_rows"] += len(args[4])
            counts["kernels.alcove_steps"] += int(out[1].sum())

        def signed_after(counts, args, out, state):
            mats, rows, cols = args[0], args[3], args[4]
            counts["kernels.signed_sum_terms"] += mats.shape[0] * rows.shape[0] * cols.shape[0]
            counts["kernels.signed_sum_bytes"] += _signed_sum_bytes(mats, rows, cols)

        def batch_after(counts, args, out, state):
            counts["affine_weyl.batch_rows"] += len(args[1])

        targets = [
            (rootdata, "build_root_system", "rootdata.build_calls", None, None),
            (rootdata, "weyl_orbit", None, None, orbit_after),
            (finite_reps, "weight_multiplicities", "finite_reps.weight_system_calls", None, weights_after),
            (finite_reps, "tensor_decompose", "finite_reps.tensor_calls", None, tensor_after),
            (affine_weyl, "alcove_reduce", "affine_weyl.reduce_calls", None, reduce_after),
            (affine_weyl, "alcove_reduce_batch", None, None, batch_after),
            (kernels, "dominant_reduce_batch", None, None, dominant_after),
            (kernels, "alcove_reduce_batch", None, None, alcove_kernel_after),
            (kernels, "signed_weyl_sum", None, None, signed_after),
            (fusion, "s_matrix", "fusion.s_matrix_calls", smatrix_before, smatrix_after),
            (fusion, "fuse_kw", "fusion.fuse_kw_calls", None, None),
            (verlinde, "verlinde_dimension", "verlinde.dimension_calls", None, None),
            (verlinde, "cohomology_report", None, None, None),
            (verlinde, "factorization_check", None, None, None),
            (induction, "induce", "induction.induce_calls", None, None),
            (induction, "homomorphism_check", None, None, None),
        ]
        modules = [m for n, m in sys.modules.items() if n == "loopfusion" or n.startswith("loopfusion.")]
        for module, attr, calls, before, after in targets:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            wrapped = self.span(name, original, calls, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        cls = rootdata.RootSystem
        cls.weyl_matrices = self.span("rootdata.weyl_matrices", cls.weyl_matrices, None, weyl_before, weyl_after)

    def self_times(self) -> list:
        """(metric, self seconds, index of the top-level span) per span."""
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[idx] = root[parent]
            else:
                root[idx] = idx
        return [
            (SELF_TIME.get(name, name), end - start - inner, top)
            for (name, start, end, parent), inner, top in zip(self.spans, child, root)
        ]

    def layer_totals(self) -> dict:
        """Self time per layer metric plus the counts; sums, ready to merge."""
        out = {metric: 0.0 for metric in SELF_TIME.values()}
        out.update({n: 0 for n in COUNTS})
        out.update({"cli.import_s": 0.0, "trace.op_s": 0.0})
        for (metric, self_s, _), (name, start, end, _) in zip(self.self_times(), self.spans):
            out[metric] += self_s
            if name == "op":
                out["trace.op_s"] += end - start
        out.update(self.counts)
        return out

    def breakdown(self, top: int) -> dict:
        """Self time per layer metric inside one top-level span."""
        out: dict = {}
        for metric, self_s, root in self.self_times():
            if root == top:
                out[metric] = out.get(metric, 0.0) + self_s
        return out


def finish(totals: dict, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict:
    """Turn merged sums into the per-layer metrics, ratios included."""
    out = {k: v for k, v in totals.items() if not k.startswith("trace.")}
    calls = totals.get("affine_weyl.reduce_calls", 0)
    out["affine_weyl.wall_share"] = totals.get("affine_weyl.reduce_walls", 0) / calls if calls else 0.0
    del out["affine_weyl.reduce_walls"]
    s_calls = out.pop("fusion.s_matrix_calls", 0)
    builds = totals.get("fusion.s_matrix_builds", 0)
    out["fusion.s_matrix_hit_share"] = 1 - builds / s_calls if s_calls else 0.0
    op_s = totals.get("trace.op_s", 0.0)
    out["trace.uncovered_share"] = totals.get("trace.uncovered_s", 0.0) / op_s if op_s else 0.0
    out["trace.overhead_share"] = (
        1 - traced_ops_per_s / untraced_ops_per_s if untraced_ops_per_s else 0.0
    )
    return out
