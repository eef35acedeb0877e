"""Star-quiver reduction for Fuchsian connections with prescribed residues.

Each pole's orbit contributes an arm to a star quiver; existence of an
irreducible tuple of residues summing to zero is membership of the dimension
vector in Sigma^lambda for the associated deformation vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm
from typing import Sequence

from .core import OrbitSpec, ScalarLike, residue_arm
from .errors import InputError, ResonantError
from .rootsys import (
    DEFAULT_BUDGET,
    LambdaForm,
    Quiver,
    RootClass,
    Vertex,
    classify_root,
    in_sigma_lambda,
)


class FuchsianRigidity(Enum):
    EMPTY = "Empty"
    RIGID_SINGLETON = "RigidSingleton"
    INFINITE = "Infinite"


@dataclass
class CBData:
    """A decision quiver with its dimension and deformation vectors.  For the
    star quiver of one residue problem, the vertices are the sink 0 and arm
    nodes (i, j) with i the 1-based orbit index and 1 <= j <= d_i - 1.

    lam is lambda as integer forms (re, im, den) aligned with
    quiver.vertices, like L: lambda_v = (re_v + i im_v) / den, with den
    the lcm of the eigenvalue denominators."""

    quiver: Quiver
    alpha: dict[Vertex, int]
    lam: LambdaForm

    def alpha_vector(self) -> tuple[int, ...]:
        return self.quiver.as_vector(self.alpha)


def _integer_arms(
    orbits: Sequence[OrbitSpec], seqs: Sequence[Sequence[ScalarLike]] | None = None
) -> tuple[list[tuple[list[int], list[int], list[int]]], int]:
    """Each orbit's `residue_arm` over one common denominator den, the lcm of
    the eigenvalue denominators: the ranks, the real and the imaginary parts
    of the factors eta times den, and den.  This is the one conversion of
    Scalars to integers between an orbit and a decision."""
    den = lcm(*(x.denominator for o in orbits for e, _ in o.blocks for x in (e.re, e.im)))
    arms = []
    for o, s in zip(orbits, seqs or [None] * len(orbits)):
        ranks, eta = residue_arm(o, s)
        arms.append((ranks, [e.re.numerator * (den // e.re.denominator) for e in eta],
                     [e.im.numerator * (den // e.im.denominator) for e in eta]))
    return arms, den


def build_cb_data(
    orbits: Sequence[OrbitSpec],
    seqs: Sequence[Sequence[ScalarLike]] | None = None,
) -> CBData:
    """Assemble the star quiver, alpha, and lambda for a tuple of orbits.

    The arm for orbit i lists the ranks of the partial products
    prod_{l<=j}(C_i - eta_{il}): alpha_{(i,j)} = r_{ij}, with alpha_0 = n,
    lambda_{(i,j)} = eta_{ij} - eta_{i,j+1} and lambda_0 = -sum_i eta_{i1},
    each by integer subtraction over the common denominator.  A scalar
    orbit has minimal polynomial of degree 1, hence no arm; it still shifts
    lambda_0 by its eigenvalue.
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

    arms, den = _integer_arms(orbits, seqs)
    vertices: list[Vertex] = [0]
    arrows: list[tuple[Vertex, Vertex]] = []
    alpha: dict[Vertex, int] = {0: n}
    re, im = [0], [0]
    for i, (ranks, er, ei) in enumerate(arms, start=1):
        re[0] -= er[0]
        im[0] -= ei[0]
        for j in range(1, len(er)):
            v = (i, j)
            vertices.append(v)
            alpha[v] = ranks[j]
            re.append(er[j - 1] - er[j])
            im.append(ei[j - 1] - ei[j])
            arrows.append((v, 0 if j == 1 else (i, j - 1)))
    return CBData(quiver=Quiver(vertices, arrows), alpha=alpha, lam=(re, im, den))


def fuchsian_rigidity(
    orbits: Sequence[OrbitSpec],
    seqs: Sequence[Sequence[ScalarLike]] | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> FuchsianRigidity:
    """Empty / RigidSingleton / Infinite for the stable moduli of solutions.

    When solutions exist, the moduli space is a singleton for alpha real and
    infinite for alpha imaginary.
    """
    data = build_cb_data(orbits, seqs)
    if not in_sigma_lambda(data.quiver, data.alpha, data.lam, budget):
        return FuchsianRigidity.EMPTY
    cls = classify_root(data.quiver, data.alpha_vector())
    if cls is RootClass.REAL:
        return FuchsianRigidity.RIGID_SINGLETON
    return FuchsianRigidity.INFINITE
