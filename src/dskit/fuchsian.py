"""Star-quiver reduction for Fuchsian connections with prescribed residues.

Each pole's orbit contributes an arm to a star quiver; existence of an
irreducible tuple of residues summing to zero is membership of the dimension
vector in Sigma^lambda for the associated deformation vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core import OrbitSpec, Scalar, ScalarLike, rank_after_factors
from .errors import InputError, ResonantError
from .rootsys import (
    CartanMatrix,
    Quiver,
    RootClass,
    Vertex,
    cartan_of_quiver,
    classify_root,
    dot_lambda,
    in_sigma_lambda,
)


class FuchsianRigidity(Enum):
    EMPTY = "Empty"
    RIGID_SINGLETON = "RigidSingleton"
    INFINITE = "Infinite"


@dataclass
class CBData:
    """Star quiver with dimension and deformation vectors for one residue
    problem. Vertices are the sink 0 and arm nodes (i, j) with i the 1-based
    orbit index and 1 <= j <= d_i - 1."""

    quiver: Quiver
    cartan: CartanMatrix
    alpha: dict[Vertex, int]
    lam: dict[Vertex, Scalar]

    def alpha_vector(self) -> tuple[int, ...]:
        return self.cartan.as_vector(self.alpha)

    def alpha_dot_lambda(self) -> Scalar:
        return dot_lambda(self.cartan, self.alpha, self.lam)


def build_cb_data(
    orbits: Sequence[OrbitSpec],
    seqs: Sequence[Sequence[ScalarLike]] | None = None,
) -> CBData:
    """Assemble the star quiver, alpha, and lambda for a tuple of orbits.

    The arm for orbit i lists the ranks of the partial products
    prod_{l<=j}(C_i - eta_{il}): alpha_{(i,j)} = r_{ij}, with alpha_0 = n.
    A scalar orbit has minimal polynomial of degree 1, hence no arm; it still
    shifts lambda_0 by its eigenvalue.
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
    if seqs is None:
        chosen = tuple(o.default_factor_sequence() for o in orbits)
    else:
        if len(seqs) != len(orbits):
            raise InputError("one factor sequence per orbit required")
        chosen = tuple(
            o.validate_factor_sequence(s) for o, s in zip(orbits, seqs)
        )

    vertices: list[Vertex] = [0]
    arrows: list[tuple[Vertex, Vertex]] = []
    alpha: dict[Vertex, int] = {0: n}
    lam_0 = Scalar(0)
    lam: dict[Vertex, Scalar] = {}
    for i, (o, seq) in enumerate(zip(orbits, chosen), start=1):
        d = len(seq)
        ranks = [rank_after_factors(o, seq, j) for j in range(d + 1)]
        assert ranks[0] == n and ranks[d] == 0
        lam_0 = lam_0 - seq[0]
        for j in range(1, d):
            v = (i, j)
            vertices.append(v)
            alpha[v] = ranks[j]
            lam[v] = seq[j - 1] - seq[j]
            arrows.append((v, 0 if j == 1 else (i, j - 1)))
    lam[0] = lam_0
    quiver = Quiver(vertices, arrows)
    return CBData(
        quiver=quiver,
        cartan=cartan_of_quiver(quiver),
        alpha=alpha,
        lam=lam,
    )


def fuchsian_ds_exists(
    orbits: Sequence[OrbitSpec],
    seqs: Sequence[Sequence[ScalarLike]] | None = None,
    budget: int | None = None,
) -> bool:
    """Whether an irreducible tuple A_i in O_i with sum zero exists."""
    return fuchsian_rigidity(orbits, seqs, budget) is not FuchsianRigidity.EMPTY


def fuchsian_rigidity(
    orbits: Sequence[OrbitSpec],
    seqs: Sequence[Sequence[ScalarLike]] | None = None,
    budget: int | None = None,
) -> FuchsianRigidity:
    """Empty / RigidSingleton / Infinite for the stable moduli of solutions.

    When solutions exist, the moduli space is a singleton for alpha real and
    infinite for alpha imaginary.
    """
    data = build_cb_data(orbits, seqs)
    kwargs = {} if budget is None else {"budget": budget}
    if not in_sigma_lambda(data.cartan, data.alpha, data.lam, **kwargs):
        return FuchsianRigidity.EMPTY
    cls = classify_root(data.cartan, data.cartan.as_vector(data.alpha))
    if cls is RootClass.REAL:
        return FuchsianRigidity.RIGID_SINGLETON
    return FuchsianRigidity.INFINITE
