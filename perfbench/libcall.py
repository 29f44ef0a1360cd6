"""Execute one benchmark operation through the library's public API.

``run(op, lf)`` performs ``op`` (a JSON-ready list ``[kind, algebra, level,
*args]``) through the ``loopfusion`` namespace ``lf`` and returns a
JSON-ready answer.  It loads no reference data, so the worker process that
times it holds only the library's own memory.
"""

from __future__ import annotations


def key(weight) -> str:
    return ",".join(str(int(v)) for v in weight)


def _terms(element) -> dict:
    return {key(w): int(c) for w, c in element.terms.items()}


def _surface(lf, op: list):
    return lf.Surface(genus=op[3], insertions=tuple(map(tuple, op[4])), boundary=tuple(map(tuple, op[5])))


def run(op: list, lf) -> object:
    kind, alg, level = op[0], op[1], op[2]
    rs = lf.build_root_system(alg)
    if kind == "fuse":
        return _terms(lf.fuse_kw(rs, level, tuple(op[3]), tuple(op[4])))
    if kind == "homcheck":
        res = lf.homomorphism_check(rs, level, tuple(op[3]), tuple(op[4]))
        return {"equal": res["equal"], "lhs": _terms(res["lhs"]), "rhs": _terms(res["rhs"])}
    if kind == "verlinde":
        return int(lf.verlinde_dimension(rs, level, _surface(lf, op)))
    if kind == "report":
        rep = lf.cohomology_report(rs, level, _surface(lf, op))
        return {"vanishes": rep.vanishes, "degree": rep.degree, "dimension": int(rep.dimension)}
    if kind == "factor":
        res = lf.factorization_check(rs, level, lf.Surface(genus=op[3], insertions=tuple(map(tuple, op[4]))))
        return {"lhs": int(res["lhs"]), "rhs": int(res["rhs"]), "equal": res["equal"]}
    ctx = lf.AffineContext(rs, level)
    if kind == "reduce":
        red = lf.alcove_reduce(ctx, tuple(op[3]))
        wall = red.status == "wall"
        return {"status": red.status, "reduced": [int(v) for v in red.reduced],
                "length": None if wall else red.length, "sign": None if wall else red.sign}
    if kind == "reduce_batch":
        import numpy as np

        from loopfusion.affine_weyl import alcove_reduce_batch

        reduced, lengths, status = alcove_reduce_batch(ctx, np.array(op[3], dtype=np.int64))
        return {"reduced": reduced.tolist(), "lengths": lengths.tolist(), "status": status.tolist()}
    if kind == "induce":
        res = lf.induce(rs, level, tuple(op[3]))
        return {"terms": _terms(res.value), "degrees": {key(w): d for w, d in res.source_degrees.items()}}
    if kind == "degree":
        return lf.total_degree(ctx, [tuple(w) for w in op[3]])
    raise ValueError(f"unknown operation kind {kind!r}")
