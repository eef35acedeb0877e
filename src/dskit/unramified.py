"""Quiver reduction for unramified formal types and the rank-2 point counts.

An unramified formal type is a block decomposition with an irregular part
q_j(z) I + residue per block. The quiver has base vertices for the blocks of
the irregular types and one arm of path vertices per residue, glued by the
rules below; existence of an irreducible framable connection is a two-part
criterion on (alpha, lambda) plus decompositions inside a sublattice L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import OrbitSpec, Scalar, ScalarLike, rank_after_factors
from .errors import InputError, ResonantError
from .rootsys import (
    DEFAULT_BUDGET,
    CartanMatrix,
    Quiver,
    Vertex,
    cartan_of_quiver,
    dot_lambda,
    p_drop_search,
    sigma_candidates,
)


def _as_q(coeffs: Iterable[ScalarLike]) -> tuple[Scalar, ...]:
    q = [Scalar.of(x) for x in coeffs]
    while q and not q[-1]:
        q.pop()
    return tuple(q)


@dataclass(frozen=True)
class UnramBlock:
    """One simultaneous eigenblock: q(z) = sum q[m-1] z^-m, plus a residue orbit."""

    q: tuple[Scalar, ...]
    dim: int
    residue: OrbitSpec

    def __init__(self, q: Iterable[ScalarLike], dim: int, residue: OrbitSpec):
        object.__setattr__(self, "q", _as_q(q))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "residue", residue)
        if self.dim < 1:
            raise InputError("block dimension must be >= 1")
        if residue.n != self.dim:
            raise InputError(
                f"residue orbit lives on gl_{residue.n}, block has dim {self.dim}"
            )

    def q_degree(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class UnramFormalType:
    """Unramified formal type: pairwise distinct q_j with residues R_j."""

    blocks: tuple[UnramBlock, ...]

    def __init__(self, blocks: Sequence[UnramBlock]):
        blocks = tuple(blocks)
        if not blocks:
            raise InputError("formal type needs at least one block")
        seen = set()
        for b in blocks:
            if b.q in seen:
                raise InputError("blocks must have pairwise distinct q_j")
            seen.add(b.q)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def ell(self) -> int:
        return len(self.blocks)

    def slope(self) -> int:
        return max(b.q_degree() for b in self.blocks)

    def is_regular_singular(self) -> bool:
        return self.ell == 1 and self.blocks[0].q == ()

    def is_irregular(self) -> bool:
        return not self.is_regular_singular()

    def residue_trace(self) -> Scalar:
        t = Scalar(0)
        for b in self.blocks:
            t = t + b.residue.trace()
        return t


def _q_diff_degree(q1: tuple[Scalar, ...], q2: tuple[Scalar, ...]) -> int:
    top = max(len(q1), len(q2))
    for m in range(top, 0, -1):
        c1 = q1[m - 1] if m <= len(q1) else Scalar(0)
        c2 = q2[m - 1] if m <= len(q2) else Scalar(0)
        if c1 != c2:
            return m
    return 0


def _intra_type_arrows(
    t: UnramFormalType, vertex: Callable[[int], Vertex]
) -> list[tuple[Vertex, Vertex]]:
    """deg_{z^-1}(q_j - q_j') - 1 arrows vertex(j) -> vertex(j') for j < j'."""
    return [
        (vertex(j), vertex(jp))
        for j in range(1, t.ell + 1)
        for jp in range(j + 1, t.ell + 1)
        for _ in range(_q_diff_degree(t.blocks[j - 1].q, t.blocks[jp - 1].q) - 1)
    ]


def build_base_quiver(d: UnramFormalType) -> Quiver:
    """Base quiver of a single irregular type: vertices 1..ell, and
    deg_{z^-1}(q_j - q_j') - 1 arrows j -> j' for j < j'."""
    if not d.is_irregular():
        raise InputError("base quiver is defined for irregular formal types")
    return Quiver(list(range(1, d.ell + 1)), _intra_type_arrows(d, lambda j: j))


@dataclass
class HiroeData:
    """Quiver, dimension/deformation vectors, and lattice constraints for a
    tuple of unramified types (index 0 irregular).

    Base vertices are (i, j); path vertices (i, j, k). lattice_pairs lists,
    for each i != 0 with ell_i >= 2, the pair (vertices of type 0, vertices of
    type i) whose coordinate sums the sublattice L requires to be equal.
    """

    quiver: Quiver
    cartan: CartanMatrix
    base_vertices: tuple[Vertex, ...]
    path_vertices: tuple[Vertex, ...]
    alpha: dict[Vertex, int]
    lam: dict[Vertex, Scalar]
    lattice_pairs: tuple[tuple[tuple[Vertex, ...], tuple[Vertex, ...]], ...]

    def alpha_vector(self) -> tuple[int, ...]:
        return self.cartan.as_vector(self.alpha)

    def lattice_test(self) -> Callable[[Sequence[int]], bool]:
        """Membership in L of vectors aligned with cartan.vertices; the vertex
        indices are looked up once, here."""
        pos = {v: k for k, v in enumerate(self.cartan.vertices)}
        idx = [([pos[v] for v in lhs], [pos[v] for v in rhs]) for lhs, rhs in self.lattice_pairs]
        return lambda vec: all(
            sum(vec[i] for i in lhs) == sum(vec[i] for i in rhs) for lhs, rhs in idx
        )

    def in_lattice(self, beta) -> bool:
        return self.lattice_test()(self.cartan.as_vector(beta))

    def alpha_dot_lambda(self) -> Scalar:
        return dot_lambda(self.cartan, self.alpha, self.lam)

    def candidates(self, budget: int | None) -> list[tuple[int, ...]] | None:
        """The vectors of L that the search may use; one list serves both
        readings of condition (2)."""
        return sigma_candidates(
            self.cartan, self.alpha_vector(), self.lam, budget, self.lattice_test()
        )


def build_hiroe_data(
    types: Sequence[UnramFormalType],
    _allow_regular_type0: bool = False,
) -> HiroeData:
    """Assemble the quiver, alpha, lambda, and lattice data for a tuple of
    unramified formal types. The first type must be irregular.

    _allow_regular_type0 drops that guard so an all-regular tuple can be fed
    through the same construction (it then degenerates to the Fuchsian star);
    used for structural cross-checks, not part of the public contract.
    """
    types = tuple(types)
    if not types:
        raise InputError("need at least one formal type")
    n = types[0].n
    if any(t.n != n for t in types):
        raise InputError("all formal types must share the same rank n")
    if not _allow_regular_type0 and not types[0].is_irregular():
        raise InputError(
            "type 0 must be irregular (reorder so an irregular type comes first)"
        )
    for i, t in enumerate(types):
        for j, b in enumerate(t.blocks, start=1):
            if not b.residue.is_nonresonant():
                raise ResonantError(f"residue of type {i}, block {j} is resonant")

    has_base = [i == 0 or t.ell >= 2 for i, t in enumerate(types)]

    base_vertices: list[Vertex] = []
    path_vertices: list[Vertex] = []
    arrows: list[tuple[Vertex, Vertex]] = []
    alpha: dict[Vertex, int] = {}
    lam: dict[Vertex, Scalar] = {}

    # base vertices and intra-type base arrows
    for i, t in enumerate(types):
        if not has_base[i]:
            continue
        for j in range(1, t.ell + 1):
            base_vertices.append((i, j))
            alpha[(i, j)] = t.blocks[j - 1].dim
        arrows.extend(_intra_type_arrows(t, lambda j: (i, j)))

    # cross arrows from every type-0 base vertex to every other base vertex
    ell0 = types[0].ell
    for i, t in enumerate(types):
        if i == 0 or not has_base[i]:
            continue
        for j in range(1, ell0 + 1):
            for jp in range(1, t.ell + 1):
                arrows.append(((0, j), (i, jp)))

    # residue paths
    shift_0 = Scalar(0)  # accumulated -eta^1 of the baseless types
    for i, t in enumerate(types):
        if not has_base[i] and i != 0:
            for b in t.blocks:  # ell_i == 1 here
                shift_0 = shift_0 - b.residue.default_factor_sequence()[0]
    for i, t in enumerate(types):
        for j, b in enumerate(t.blocks, start=1):
            seq = b.residue.default_factor_sequence()
            d = len(seq)
            ranks = [rank_after_factors(b.residue, seq, k) for k in range(d + 1)]
            assert ranks[0] == b.dim and ranks[d] == 0
            for k in range(1, d):
                v = (i, j, k)
                path_vertices.append(v)
                alpha[v] = ranks[k]
                lam[v] = seq[k - 1] - seq[k]
                if k > 1:
                    arrows.append((v, (i, j, k - 1)))
            if has_base[i]:
                if d > 1:
                    arrows.append(((i, j, 1), (i, j)))
                lam[(i, j)] = -seq[0]
                if i == 0:
                    lam[(0, j)] = lam[(0, j)] + shift_0
            elif d > 1:
                for jj in range(1, ell0 + 1):
                    arrows.append(((i, j, 1), (0, jj)))

    quiver = Quiver(base_vertices + path_vertices, arrows)
    lattice_pairs = tuple(
        (
            tuple((0, j) for j in range(1, ell0 + 1)),
            tuple((i, j) for j in range(1, t.ell + 1)),
        )
        for i, t in enumerate(types)
        if i != 0 and t.ell >= 2
    )
    data = HiroeData(
        quiver=quiver,
        cartan=cartan_of_quiver(quiver),
        base_vertices=tuple(base_vertices),
        path_vertices=tuple(path_vertices),
        alpha=alpha,
        lam=lam,
        lattice_pairs=lattice_pairs,
    )
    assert data.in_lattice(data.alpha), "alpha must lie in the sublattice L"
    return data


def unramified_ds_exists(
    types: Sequence[UnramFormalType],
    ell_ge_2: bool = False,
    budget: int | None = DEFAULT_BUDGET,
) -> bool:
    """Whether an irreducible framable connection with these formal types exists.

    Condition (1): alpha is a positive root of Q and alpha.lambda = 0.
    Condition (2): every decomposition of alpha into at least THREE nonzero
    vectors of L cap Z_{>=0}^I, each pairing to zero with lambda, strictly
    drops p. The printed criterion says "at least three" (ell > 2);
    ell_ge_2=True tightens it to two-part decompositions as well. The two
    modes genuinely differ on some inputs; the CLI reports disagreements.
    """
    data = build_hiroe_data(types)
    return _exists_on_data(data, data.candidates(budget), ell_ge_2=ell_ge_2, budget=budget)


def _exists_on_data(
    data: HiroeData,
    candidates: list[tuple[int, ...]] | None,
    ell_ge_2: bool,
    budget: int | None,
) -> bool:
    """The criterion for one reading, on the list from HiroeData.candidates
    (None when condition (1) fails)."""
    if candidates is None:
        return False
    min_parts = 2 if ell_ge_2 else 3
    return p_drop_search(data.cartan, data.alpha_vector(), candidates, budget, min_parts)[1]


def count_rank2_moduli(d: UnramFormalType, orbit: OrbitSpec) -> int:
    """Point count of the full (not stable) moduli space for the slope-1
    rank-2 example: one unramified type of slope 1 and one residue orbit.

    This transcribes the worked case analysis; it is not a general counting
    engine. Inputs outside the example's scope are rejected.
    """
    if orbit.n != 2:
        raise InputError("the count is for rank 2 only")
    if not orbit.is_nonresonant():
        raise ResonantError("orbit is resonant")
    if d.n != 2 or d.slope() != 1:
        raise InputError("formal type must have rank 2 and slope 1")

    if d.ell == 2:
        # leading term diag(a,b) with a != b; residues are the scalars c, d
        c = d.blocks[0].residue.eigenvalues()[0]
        dd = d.blocks[1].residue.eigenvalues()[0]
        if orbit.trace() != -(c + dd):
            return 0
        if orbit.is_scalar():
            eta = orbit.eigenvalues()[0]
            return 1 if (c == dd and eta == -c) else 0
        if orbit.determinant() != c * dd:
            return 1
        return 3 if c != dd else 2

    # single block: leading term a.I with a != 0, truncated orbit is a single
    # GL_2(C)-orbit, so the count is 1 exactly when O = -residue orbit
    res = d.blocks[0].residue
    return 1 if orbit == res.negated() else 0
