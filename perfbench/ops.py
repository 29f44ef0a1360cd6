"""Judge an operation's answer against the exact reference.

``libcall.run`` performs an operation through the public API (in the worker
process); ``cli_argv`` and ``cli_answer`` do the same through the command
line.  ``judge`` compares an answer with its reference and returns one of
the outcomes below.  A raised library error, or a command-line exit
code 3, 4 or 5, is the library declining to answer: it counts as failed but
not as wrong.
"""

from __future__ import annotations

import json
from functools import lru_cache

import refcheck

OK = "ok"
RAISED = "raised"  # a LoopFusionError, or CLI exit code 3, 4 or 5
WRONG = "wrong"  # an answer that disagrees with the exact reference
KNOWN_WRONG = "known_wrong"  # verlinde_dimension off by float64 rounding only (see _float_rounding)
CRASH = "crash"  # any other exception or exit code: a defect of a new kind
OUTCOMES = (OK, RAISED, WRONG, KNOWN_WRONG, CRASH)
CLI_DECLINED = (3, 4, 5)


@lru_cache(maxsize=None)
def _rs(alg: str):
    from loopfusion.rootdata import build_root_system

    return build_root_system(alg)


@lru_cache(maxsize=None)
def alcove(alg: str, h: int) -> refcheck.Alcove:
    rs = _rs(alg)
    return refcheck.Alcove(rs, h + rs.dual_coxeter)


def cli_argv(op: list) -> list:
    """Command-line arguments for op (the CLI workload's subset of kinds)."""
    kind, alg, level = op[0], op[1], op[2]
    sub = {"fuse": "fusion", "homcheck": "check", "factor": "check"}.get(kind, kind)
    argv = [sub, "--algebra", alg, "--level", str(level)]
    if kind in ("dim", "reduce"):
        weights = op[3]
    elif kind in ("tensor", "fusion", "homcheck"):
        weights = op[3:5]
    elif kind == "induce":
        weights = [op[3]]
    elif kind in ("verlinde", "report", "factor"):
        weights = op[4]
    else:
        weights = []
    if weights:
        # one token with "=", so a leading minus sign is not read as an option
        argv.append("--weights=" + ";".join(refcheck.key(w) for w in weights))
    if kind in ("verlinde", "report", "factor"):
        argv += ["--genus", str(op[3])]
    if kind in ("verlinde", "report") and op[5]:
        argv.append("--boundary=" + ";".join(refcheck.key(w) for w in op[5]))
    return argv


def cli_answer(op: list, stdout: str) -> object:
    """Parse the command line's JSON payload into the library answer shape."""
    kind = op[0]
    res = json.loads(stdout)["result"]
    if kind in ("fusion", "fuse"):
        return {refcheck.key(t["weight"]): t["coeff"] for t in res}
    if kind == "homcheck":
        return {"equal": res["equal"],
                "lhs": {refcheck.key(t["weight"]): t["coeff"] for t in res["lhs"]},
                "rhs": {refcheck.key(t["weight"]): t["coeff"] for t in res["rhs"]}}
    if kind == "report":
        return {"vanishes": res["vanishes"], "degree": res.get("degree"), "dimension": res["dimension"]}
    if kind == "reduce":
        return [{"status": e["status"], "reduced": e["reduced"],
                 "length": None if e["status"] == "wall" else e["length"],
                 "sign": None if e["status"] == "wall" else e["sign"]} for e in res]
    if kind == "induce":
        payload = json.loads(stdout)
        degree = payload["meta"].get("degree")
        return {"terms": {refcheck.key(t["weight"]): t["coeff"] for t in res},
                "degrees": {} if degree is None else {refcheck.key(op[3]): degree}}
    if kind == "dim":
        return [e["dimension"] for e in res]
    if kind == "tensor":
        return {refcheck.key(t["weight"]): t["multiplicity"] for t in res}
    return res  # roots, verlinde, factor


# -- references ---------------------------------------------------------------


def _induced(alg: str, h: int, lam) -> tuple:
    """(label, sign, length) that lam induces to at level h, or None on a wall."""
    box = alcove(alg, h)
    shifted = [v + 1 for v in lam]
    length, wall = box.length_and_wall(shifted)
    if wall:
        return None
    return tuple(v - 1 for v in box.reduce(shifted)), (-1 if length % 2 else 1), length


def _dimension(alg: str, k: int, genus: int, labels) -> int:
    return refcheck.verlinde(alg, k, genus, [tuple(w) for w in labels])


def expected(op: list) -> object:
    kind, alg, level = op[0], op[1], op[2]
    if kind in ("fuse", "fusion"):
        return {refcheck.key(w): c for w, c in refcheck.fusion_product(alg, level, op[3], op[4]).items()}
    if kind == "homcheck":
        left, right = _induced(alg, level, op[3]), _induced(alg, level, op[4])
        terms = {}
        if left and right:
            sign = left[1] * right[1]
            prod = refcheck.fusion_product(alg, level, left[0], right[0])
            terms = {refcheck.key(w): sign * c for w, c in prod.items()}
        return {"equal": True, "lhs": terms, "rhs": terms}
    if kind == "verlinde":
        return _dimension(alg, level, op[3], op[4] + op[5])
    if kind == "report":
        reduced, degree = [], 0
        for lam in op[4]:
            got = _induced(alg, level, lam)
            if got is None:
                return {"vanishes": True, "degree": None, "dimension": 0}
            reduced.append(got[0])
            degree += got[2]
        dim = _dimension(alg, level, op[3], reduced + [tuple(w) for w in op[5]])
        return {"vanishes": False, "degree": degree, "dimension": dim}
    if kind == "factor":
        dim = _dimension(alg, level, op[3], op[4])
        return {"lhs": dim, "rhs": dim, "equal": True}
    box = alcove(alg, level)
    if kind == "reduce":
        if isinstance(op[3][0], list):  # the command line reduces several points
            return [box.expect(x) for x in op[3]]
        return box.expect(op[3])
    if kind == "reduce_batch":
        recs = [box.expect(x) for x in op[3]]
        return {"reduced": [r["reduced"] for r in recs],
                "lengths": [r["length"] for r in recs],
                "status": [int(r["status"] == "wall") for r in recs]}
    if kind == "induce":
        got = _induced(alg, level, op[3])
        if got is None:
            return {"terms": {}, "degrees": {}}
        return {"terms": {refcheck.key(got[0]): got[1]}, "degrees": {refcheck.key(op[3]): got[2]}}
    if kind == "degree":
        total = 0
        for lam in op[3]:
            got = _induced(alg, level, lam)
            if got is None:
                return None
            total += got[2]
        return total
    if kind == "dim":
        return [refcheck.oracle_dimension(alg, w) for w in op[3]]
    if kind == "roots":
        adj, dual_coxeter, order = refcheck.oracles().LIE_TABLES[alg]
        rank = len(refcheck.oracles().CARTAN[alg])
        return {"rank": rank, "dual_coxeter": dual_coxeter, "weyl_order": order,
                "positive_roots": (adj - rank) // 2}
    raise ValueError(f"no reference for {kind!r}")


def judge(op: list, answer) -> str:
    kind = op[0]
    if kind == "tensor":
        return OK if _tensor_ok(op[1], op[3], op[4], answer) else WRONG
    if kind == "reduce_batch":
        # lengths of wall rows carry no meaning
        answer = dict(answer, lengths=[None if s else n for n, s in zip(answer["lengths"], answer["status"])])
    elif kind == "roots":
        answer = {"rank": answer["rank"], "dual_coxeter": answer["dual_coxeter"],
                  "weyl_order": answer["weyl_order"], "positive_roots": len(answer["positive_roots"])}
    want = expected(op)
    if answer == want:
        return OK
    if kind == "verlinde" and _float_rounding(want, answer):
        return KNOWN_WRONG
    return WRONG


def _tensor_ok(alg: str, a, b, answer: dict) -> bool:
    """Exact identities: positive multiplicities, sum c*dim(nu) = dim(a)dim(b),
    and on A1 the Clebsch-Gordan rule itself."""
    dim = refcheck.oracle_dimension
    total = sum(c * dim(alg, [int(v) for v in w.split(",")]) for w, c in answer.items())
    good = all(c > 0 for c in answer.values()) and total == dim(alg, a) * dim(alg, b)
    if alg == "A1":
        cg = refcheck.oracles().clebsch_gordan(a[0], b[0])
        good = good and answer == {refcheck.key(w): c for w, c in cg.items()}
    return good


def _float_rounding(want: int, got) -> bool:
    """The seed's documented float-Verlinde defect: an exact value of at least
    FLOAT_VERLINDE_LIMIT answered with an integer within float64 rounding of
    it.  Any other wrong integer is a defect of a new kind."""
    return (isinstance(got, int) and want >= refcheck.FLOAT_VERLINDE_LIMIT
            and abs(got - want) <= want * refcheck.FLOAT_VERLINDE_REL_ERROR)
