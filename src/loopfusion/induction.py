"""Holomorphic induction from the representation ring to level-h labels.

An irreducible with highest weight lambda goes to nothing when lambda+rho
meets an affine wall at kappa = h + c, and otherwise to the alcove label it
reduces to, signed by the parity of the reduction length.  Extended
linearly this is a ring homomorphism onto the fusion ring, which
``homomorphism_check`` verifies instance by instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .affine_weyl import AffineContext, _induced
from .finite_reps import VirtualCharacter, tensor_decompose
from .fusion import FusionElement, fuse_elements
from .rootdata import RootSystem, Weight, check_dominant


@dataclass
class InductionResult:
    """Induced fusion element plus the reduction degree of each source label."""

    value: FusionElement
    source_degrees: dict[Weight, int] = field(default_factory=dict)


def induce(rs: RootSystem, h: int, lam: tuple) -> InductionResult:
    """Induce a single irreducible: empty on a wall, else one signed label.

    The wall verdict on lam + rho comes in closed form before any reduced
    point is computed (``affine_weyl._induced``), so a wall weight is never
    swept.  The result's level is the validated h, a Python int.
    """
    lam = check_dominant(rs, lam)
    ctx = AffineContext(rs, h)
    induced = _induced(ctx, lam)
    if induced is None:
        return InductionResult(value=FusionElement(k=ctx.h))
    target, length = induced
    return InductionResult(
        value=FusionElement(k=ctx.h, terms={target: -1 if length % 2 else 1}),
        source_degrees={lam: length},
    )


def induce_virtual(rs: RootSystem, h: int, vc: VirtualCharacter) -> FusionElement:
    """Linear extension of induce; signed contributions may cancel.

    Every term is induced in place by ``affine_weyl._induced`` under one
    context, as ``verlinde.cohomology_report`` induces its insertions.
    """
    ctx = AffineContext(rs, h)
    out = FusionElement(k=ctx.h)
    for lam, mult in vc.terms.items():
        induced = _induced(ctx, lam)
        if induced is not None:
            target, length = induced
            out.add(target, -mult if length % 2 else mult)
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
