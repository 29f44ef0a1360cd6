"""Holomorphic induction from the representation ring to level-h labels.

An irreducible with highest weight lambda goes to nothing when lambda+rho
meets an affine wall at kappa = h + c, and otherwise to the alcove label it
reduces to, signed by the parity of the reduction length.  Extended
linearly this is a ring homomorphism onto the fusion ring, which
``homomorphism_check`` verifies instance by instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .affine_weyl import WALL, AffineContext, alcove_reduce
from .finite_reps import VirtualCharacter, tensor_decompose
from .fusion import FusionElement, fuse_elements
from .rootdata import RootSystem, Weight, check_dominant


@dataclass
class InductionResult:
    """Induced fusion element plus the reduction degree of each source label."""

    value: FusionElement
    source_degrees: dict[Weight, int] = field(default_factory=dict)


def induce(rs: RootSystem, h: int, lam: tuple) -> InductionResult:
    """Induce a single irreducible: empty on a wall, else one signed label."""
    lam = check_dominant(rs, lam)
    ctx = AffineContext(rs, h)
    red = alcove_reduce(ctx, tuple(v + 1 for v in lam))
    if red.status == WALL:
        return InductionResult(value=FusionElement(k=h), source_degrees={})
    target = tuple(v - 1 for v in red.reduced)
    return InductionResult(
        value=FusionElement(k=h, terms={target: red.sign}),
        source_degrees={lam: red.length},
    )


def induce_virtual(rs: RootSystem, h: int, vc: VirtualCharacter) -> FusionElement:
    """Linear extension of induce; signed contributions may cancel."""
    out = FusionElement(k=h)
    for lam, mult in vc.terms.items():
        single = induce(rs, h, lam)
        for w, c in single.value.terms.items():
            out.add(w, mult * c)
    return out


def homomorphism_check(rs: RootSystem, h: int, lam: tuple, mu: tuple) -> dict:
    """Tensor-then-induce against induce-then-fuse; the two must agree.

    Both inputs are arbitrary dominant weights; the comparison happens in
    the level-h fusion ring.
    """
    tensor = tensor_decompose(rs, lam, mu)
    lhs = induce_virtual(rs, h, tensor)
    left = induce(rs, h, tuple(lam)).value
    right = induce(rs, h, tuple(mu)).value
    rhs = fuse_elements(rs, h, left, right)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
