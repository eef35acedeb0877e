"""Quiver reduction for unramified formal types and the rank-2 point counts.

An unramified formal type is a block decomposition with an irregular part
q_j(z) I + residue per block. The quiver has base vertices for the blocks of
the irregular types and one arm of path vertices per residue, glued by the
rules below; existence of an irreducible framable connection is a two-part
criterion on (alpha, lambda) plus decompositions inside a sublattice L.
"""

from __future__ import annotations

import operator
from math import lcm
from typing import Iterable, Sequence

from .core import Factor, OrbitSpec, Triple, as_triple, residue_arm
from .errors import InputError, ResonantError
from .frozen import Frozen
from .fuchsian import CBData
from .rootsys import (
    DEFAULT_BUDGET,
    LambdaForm,
    Quiver,
    Vertex,
    best_p_sums,
    p_value,
    sigma_candidates,
)


def _as_q(coeffs: Iterable[Factor]) -> tuple[Triple, ...]:
    q = [as_triple(x) for x in coeffs]
    while q and not (q[-1][0] or q[-1][1]):
        q.pop()
    return tuple(q)


class UnramBlock(Frozen):
    """One simultaneous eigenblock: q(z) = sum q[m-1] z^-m, plus a residue
    orbit.  Each coefficient is held as its reduced triple (re, im, den),
    and a zero top coefficient is dropped."""

    __slots__ = ("q", "dim", "residue")

    q: tuple[Triple, ...]
    dim: int
    residue: OrbitSpec

    def __init__(self, q: Iterable[Factor], dim: int, residue: OrbitSpec):
        q = _as_q(q)
        dim = int(dim)
        if dim < 1:
            raise InputError("block dimension must be >= 1")
        if residue.n != dim:
            raise InputError(
                f"residue orbit lives on gl_{residue.n}, block has dim {dim}"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "residue", residue)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not UnramBlock:
            return NotImplemented
        return (self.q, self.dim, self.residue) == (other.q, other.dim, other.residue)

    def __hash__(self) -> int:
        return hash((self.q, self.dim, self.residue))

    def __repr__(self) -> str:
        return f"UnramBlock(q={self.q!r}, dim={self.dim!r}, residue={self.residue!r})"


class UnramFormalType(Frozen):
    """Unramified formal type: pairwise distinct q_j with residues R_j."""

    __slots__ = ("blocks",)

    blocks: tuple[UnramBlock, ...]

    def __init__(self, blocks: Sequence[UnramBlock]):
        blocks = tuple(blocks)
        if not blocks:
            raise InputError("formal type needs at least one block")
        qs = sorted(b.q for b in blocks)
        if any(a == b for a, b in zip(qs, qs[1:])):
            raise InputError("blocks must have pairwise distinct q_j")
        object.__setattr__(self, "blocks", blocks)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not UnramFormalType:
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.blocks,))

    def __repr__(self) -> str:
        return f"UnramFormalType(blocks={self.blocks!r})"

    @property
    def n(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def ell(self) -> int:
        return len(self.blocks)

    def slope(self) -> int:
        return max(len(b.q) for b in self.blocks)

    def is_irregular(self) -> bool:
        return self.ell > 1 or self.blocks[0].q != ()


def _q_diff_degree(q1: tuple[Triple, ...], q2: tuple[Triple, ...]) -> int:
    """deg_{z^-1}(q1 - q2).  Neither has a zero top coefficient, so a longer
    one differs from a shorter one at its own length."""
    if len(q1) != len(q2):
        return max(len(q1), len(q2))
    return next((m for m in range(len(q1), 0, -1) if q1[m - 1] != q2[m - 1]), 0)


def _intra_type_arrows(t: UnramFormalType, i: int) -> list[tuple[Vertex, Vertex]]:
    """deg_{z^-1}(q_j - q_j') - 1 arrows (i, j) -> (i, j') for j < j'."""
    return [
        ((i, j), (i, jp))
        for j in range(1, t.ell + 1)
        for jp in range(j + 1, t.ell + 1)
        for _ in range(_q_diff_degree(t.blocks[j - 1].q, t.blocks[jp - 1].q) - 1)
    ]


class HiroeData(CBData):
    """The decision quiver of a tuple of unramified types (index 0
    irregular), with the sublattice L.

    Base vertices are (i, j); path vertices (i, j, k).  lattice_forms is L as
    integer forms aligned with quiver.vertices, one for each i != 0 with
    ell_i >= 2: +1 at the base vertices of type 0, -1 at those of type i.
    A vector lies in L iff every form vanishes on it.
    """

    __slots__ = ("lattice_forms",)

    lattice_forms: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        quiver: Quiver,
        alpha: tuple[int, ...],
        lam: LambdaForm,
        lattice_forms: tuple[tuple[int, ...], ...],
    ):
        self.quiver = quiver
        self.alpha = alpha
        self.lam = lam
        self.lattice_forms = lattice_forms

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HiroeData:
            return NotImplemented
        return (self.quiver, self.alpha, self.lam, self.lattice_forms) == (
            other.quiver, other.alpha, other.lam, other.lattice_forms)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"HiroeData(quiver={self.quiver!r}, alpha={self.alpha!r}, lam={self.lam!r}, "
                f"lattice_forms={self.lattice_forms!r})")

    def readings(self, budget: int | None = DEFAULT_BUDGET) -> tuple[bool, bool]:
        """Whether an irreducible framable connection with these formal types
        exists, by the parts>=3 and by the parts>=2 reading of condition (2).

        Condition (1): alpha is a positive root of Q and alpha.lambda = 0.
        Condition (2): every decomposition of alpha into at least three
        nonzero vectors of L cap Z_{>=0}^I, each pairing to zero with lambda,
        strictly drops p.  The printed criterion says "at least three"
        (ell > 2); the parts>=2 reading also requires it of two-part
        decompositions.  The readings genuinely differ on some inputs; both
        are read off one table of best p-sums over the vectors of L that the
        search may use.  None means no budget."""
        alpha = self.alpha
        candidates = sigma_candidates(self.quiver, alpha, self.lam, budget, self.lattice_forms)
        if candidates is None:
            return False, False
        p_alpha = p_value(self.quiver, alpha)
        two, three = best_p_sums(self.quiver, alpha, candidates, budget)
        return three is None or three < p_alpha, two is None or two < p_alpha


def build_hiroe_data(types: Sequence[UnramFormalType]) -> HiroeData:
    """Assemble the quiver, alpha, lambda, and lattice data for a tuple of
    unramified formal types. The first type must be irregular."""
    types = tuple(types)
    if not types:
        raise InputError("need at least one formal type")
    n = types[0].n
    if any(t.n != n for t in types):
        raise InputError("all formal types must share the same rank n")
    if not types[0].is_irregular():
        raise InputError(
            "type 0 must be irregular (reorder so an irregular type comes first)"
        )
    for i, t in enumerate(types):
        for j, b in enumerate(t.blocks, start=1):
            if not b.residue.is_nonresonant():
                raise ResonantError(f"residue of type {i}, block {j} is resonant")

    has_base = [i == 0 or t.ell >= 2 for i, t in enumerate(types)]
    # each residue arm with its factor numerators scaled to den, the lcm of
    # the residues' denominators
    den = lcm(*(b.residue.den for t in types for b in t.blocks))
    arms = []
    for t in types:
        arms.append([])
        for b in t.blocks:
            ranks, er, ei = residue_arm(b.residue)
            k = den // b.residue.den
            arms[-1].append((ranks, [x * k for x in er], [y * k for y in ei]))
    # the type-0 base vertices also take -eta^1 of each baseless type (ell_i == 1)
    baseless = [arms[i][0] for i, base in enumerate(has_base) if not base]
    shift_re = -sum(er[0] for _, er, _ in baseless)
    shift_im = -sum(ei[0] for _, _, ei in baseless)

    vertices: list[Vertex] = []  # the base vertices, then the path vertices
    arrows: list[tuple[Vertex, Vertex]] = []
    alpha: list[int] = []
    re: list[int] = []
    im: list[int] = []

    # base vertices, lambda = -eta^1 of their block, and intra-type base arrows
    for i, t in enumerate(types):
        if not has_base[i]:
            continue
        for j, (b, (_, er, ei)) in enumerate(zip(t.blocks, arms[i]), start=1):
            vertices.append((i, j))
            alpha.append(b.dim)
            re.append((shift_re if i == 0 else 0) - er[0])
            im.append((shift_im if i == 0 else 0) - ei[0])
        arrows.extend(_intra_type_arrows(t, i))

    # cross arrows from every type-0 base vertex to every other base vertex
    ell0 = types[0].ell
    for i, t in enumerate(types):
        if i == 0 or not has_base[i]:
            continue
        for j in range(1, ell0 + 1):
            for jp in range(1, t.ell + 1):
                arrows.append(((0, j), (i, jp)))

    # residue paths, lambda = eta^k - eta^(k+1)
    for i, t in enumerate(types):
        for j, (ranks, er, ei) in enumerate(arms[i], start=1):
            for k in range(1, len(er)):
                v = (i, j, k)
                vertices.append(v)
                alpha.append(ranks[k])
                re.append(er[k - 1] - er[k])
                im.append(ei[k - 1] - ei[k])
                if k > 1:
                    arrows.append((v, (i, j, k - 1)))
            if len(er) == 1:
                continue
            if has_base[i]:
                arrows.append(((i, j, 1), (i, j)))
            else:  # ell_i == 1 here
                arrows.extend(((i, j, 1), (0, jj)) for jj in range(1, ell0 + 1))

    lattice_forms = tuple(
        tuple((len(v) == 2) * ((v[0] == 0) - (v[0] == i)) for v in vertices)
        for i, t in enumerate(types)
        if i != 0 and t.ell >= 2
    )
    data = HiroeData(
        quiver=Quiver(vertices, arrows), alpha=tuple(alpha), lam=(re, im, den),
        lattice_forms=lattice_forms,
    )
    assert not any(
        sum(map(operator.mul, data.alpha, f)) for f in lattice_forms
    ), "alpha must lie in L"
    return data


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
        # leading term diag(a,b) with a != b; residues are the scalars c, d.
        # -c, -d and O's eigenvalues with multiplicity over one denominator:
        # given the trace, det O = cd iff the two sorted pairs are equal
        r1, r2 = (b.residue for b in d.blocks)
        den = lcm(r1.den, r2.den, orbit.den)
        cd = sorted((-r.re[0] * (den // r.den), -r.im[0] * (den // r.den)) for r in (r1, r2))
        k = den // orbit.den
        eigs = sorted((x * k, y * k) for x, y, part in zip(orbit.re, orbit.im, orbit.parts)
                      for _ in range(sum(part)))
        if [sum(t) for t in zip(*eigs)] != [sum(t) for t in zip(*cd)]:
            return 0
        if orbit.is_scalar():
            return 1 if eigs == cd else 0
        if eigs != cd:
            return 1
        return 3 if cd[0] != cd[1] else 2

    # single block: leading term a.I with a != 0, truncated orbit is a single
    # GL_2(C)-orbit, so the count is 1 exactly when O = -residue orbit
    res = d.blocks[0].residue
    den = lcm(res.den, orbit.den)
    rows = [sorted((x * (den // o.den) * sign, y * (den // o.den) * sign, part)
                   for x, y, part in zip(o.re, o.im, o.parts))
            for o, sign in ((orbit, 1), (res, -1))]
    return 1 if rows[0] == rows[1] else 0
