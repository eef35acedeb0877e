"""Star-quiver reduction for Fuchsian connections with prescribed residues.

Each pole's orbit contributes an arm to a star quiver; existence of an
irreducible tuple of residues summing to zero is membership of the dimension
vector in Sigma^lambda for the associated deformation vector.
"""

from __future__ import annotations

from enum import Enum
from math import lcm
from typing import Sequence

from .core import Factor, OrbitSpec, residue_arm
from .errors import InputError, ResonantError
from .rootsys import (
    DEFAULT_BUDGET,
    LambdaForm,
    Quiver,
    Vertex,
    in_sigma_lambda,
    p_value,
)


class FuchsianRigidity(Enum):
    EMPTY = "Empty"
    RIGID_SINGLETON = "RigidSingleton"
    INFINITE = "Infinite"


class CBData:
    """A decision quiver with its dimension and deformation vectors.  For the
    star quiver of one residue problem, the vertices are the sink 0 and arm
    nodes (i, j) with i the 1-based orbit index and 1 <= j <= d_i - 1.

    alpha is an integer vector aligned with quiver.vertices, and lam is
    lambda as integer forms (re, im, den) aligned with them, like L:
    lambda_v = (re_v + i im_v) / den, with den the lcm of the orbits'
    denominators.  It is mutable, so it is not hashable."""

    __slots__ = ("quiver", "alpha", "lam")

    quiver: Quiver
    alpha: tuple[int, ...]
    lam: LambdaForm

    def __init__(self, quiver: Quiver, alpha: tuple[int, ...], lam: LambdaForm):
        self.quiver = quiver
        self.alpha = alpha
        self.lam = lam

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CBData:
            return NotImplemented
        return (self.quiver, self.alpha, self.lam) == (other.quiver, other.alpha, other.lam)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"CBData(quiver={self.quiver!r}, alpha={self.alpha!r}, lam={self.lam!r})"


def build_cb_data(
    orbits: Sequence[OrbitSpec],
    seqs: Sequence[Sequence[Factor]] | None = None,
) -> CBData:
    """Assemble the star quiver, alpha, and lambda for a tuple of orbits.

    The arm for orbit i lists the ranks of the partial products
    prod_{l<=j}(C_i - eta_{il}): alpha_{(i,j)} = r_{ij}, with alpha_0 = n,
    lambda_{(i,j)} = eta_{ij} - eta_{i,j+1} and lambda_0 = -sum_i eta_{i1},
    each by integer subtraction over the common denominator, the lcm of
    the orbits' denominators, to which each arm's numerators are scaled.
    A scalar orbit has minimal polynomial of degree 1, hence no arm; it
    still shifts lambda_0 by its eigenvalue.
    """
    orbits = tuple(orbits)
    if not orbits:
        raise InputError("need at least one orbit")
    n = orbits[0].n
    if any(o.n != n for o in orbits):
        raise InputError("all orbits must share the same matrix size n")
    for idx, o in enumerate(orbits, start=1):
        if not o.is_nonresonant():
            raise ResonantError(
                f"orbit {idx} has two eigenvalues differing by a nonzero integer"
            )
    if seqs is not None and len(seqs) != len(orbits):
        raise InputError("one factor sequence per orbit required")

    den = lcm(*(o.den for o in orbits))
    vertices: list[Vertex] = [0]
    arrows: list[tuple[Vertex, Vertex]] = []
    alpha = [n]
    re, im = [0], [0]
    for i, (o, s) in enumerate(zip(orbits, seqs or [None] * len(orbits)), start=1):
        ranks, er, ei = residue_arm(o, s)
        k = den // o.den
        re[0] -= er[0] * k
        im[0] -= ei[0] * k
        arm = [(i, j) for j in range(1, len(er))]
        vertices += arm
        alpha += ranks[1:-1]
        re += [(x - y) * k for x, y in zip(er, er[1:])]
        im += [(x - y) * k for x, y in zip(ei, ei[1:])]
        arrows += zip(arm, [0, *arm])
    return CBData(quiver=Quiver(vertices, arrows), alpha=tuple(alpha), lam=(re, im, den))


def fuchsian_rigidity(
    orbits: Sequence[OrbitSpec],
    seqs: Sequence[Sequence[Factor]] | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> FuchsianRigidity:
    """Empty / RigidSingleton / Infinite for the stable moduli of solutions.

    When solutions exist, alpha is a positive root, and the moduli space is a
    singleton for alpha real, that is p(alpha) = 0, and infinite for alpha
    imaginary.
    """
    data = build_cb_data(orbits, seqs)
    if not in_sigma_lambda(data.quiver, data.alpha, data.lam, budget):
        return FuchsianRigidity.EMPTY
    if p_value(data.quiver, data.alpha) == 0:
        return FuchsianRigidity.RIGID_SINGLETON
    return FuchsianRigidity.INFINITE
