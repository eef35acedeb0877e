"""Quivers, symmetric generalized Cartan matrices, and Kac root combinatorics.

This is the shared engine behind both existence criteria: one search finds
the vectors 0 <= beta <= alpha on which lambda (and the lattice, if any)
vanishes, and scans decompositions of alpha into them for one that does not
drop p.  lambda's real and imaginary integer numerators and the lattice rows
are integer forms, so the search meets in the middle: the coordinates are
split where the suffix box holds at most isqrt of the whole box, the suffix
box is tabulated by its form values, and the prefix box is walked in order
and joined on the negated values.  Only the joined vectors are classified as
roots.  The budget charges the whole box before anything is tabulated, then
each decomposition node.  Every public search and decider defaults to
DEFAULT_BUDGET = 2,000,000 and reads budget=None as no budget.  Both readings
of unramified-ds share one candidate list.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterator, Mapping, Sequence, Union

from .core import Scalar, ScalarLike
from .errors import BudgetExceededError, DescentGuardError, InputError

DEFAULT_BUDGET = 2_000_000

Vertex = Hashable
VecLike = Union[Mapping[Vertex, int], Sequence[int]]


@dataclass(frozen=True)
class Quiver:
    """A finite loop-free quiver; parallel arrows are allowed."""

    vertices: tuple[Vertex, ...]
    arrows: tuple[tuple[Vertex, Vertex], ...]

    def __init__(self, vertices: Sequence[Vertex], arrows: Sequence[tuple[Vertex, Vertex]]):
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise InputError("duplicate vertex ids")
        vset = set(verts)
        arrs = []
        for tail, head in arrows:
            if tail not in vset or head not in vset:
                raise InputError(f"arrow ({tail!r}, {head!r}) uses unknown vertex")
            if tail == head:
                raise InputError(f"loop detected at vertex {tail!r}")
            arrs.append((tail, head))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "arrows", tuple(arrs))


@dataclass(frozen=True)
class CartanMatrix:
    """Symmetric generalized Cartan matrix over an ordered vertex set."""

    vertices: tuple[Vertex, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.vertices)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise InputError("Cartan matrix shape does not match vertex set")
        for i in range(n):
            if self.rows[i][i] != 2:
                raise InputError("Cartan diagonal entries must equal 2")
            for j in range(n):
                if self.rows[i][j] != self.rows[j][i]:
                    raise InputError("Cartan matrix must be symmetric")
                if i != j and self.rows[i][j] > 0:
                    raise InputError("off-diagonal Cartan entries must be <= 0")

    def index(self, v: Vertex) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise InputError(f"unknown vertex {v!r}") from None

    def as_vector(self, beta: VecLike) -> tuple[int, ...]:
        """Coerce a mapping or sequence to a tuple aligned with self.vertices."""
        if isinstance(beta, Mapping):
            unknown = set(beta) - set(self.vertices)
            if unknown:
                raise InputError(f"unknown vertices in vector: {sorted(map(repr, unknown))}")
            return tuple(int(beta.get(v, 0)) for v in self.vertices)
        vec = tuple(int(x) for x in beta)
        if len(vec) != len(self.vertices):
            raise InputError(
                f"vector length {len(vec)} does not match {len(self.vertices)} vertices"
            )
        return vec

    def pairing(self, beta: VecLike) -> tuple[int, ...]:
        """The vector C beta."""
        b = self.as_vector(beta)
        return tuple(sum(row[j] * b[j] for j in range(len(b))) for row in self.rows)

    def bilinear(self, beta: VecLike, gamma: VecLike) -> int:
        b = self.as_vector(beta)
        cg = self.pairing(gamma)
        return sum(x * y for x, y in zip(b, cg))


class RootClass(Enum):
    REAL = "RealRoot"
    IMAGINARY = "ImaginaryRoot"
    NOT_ROOT = "NotRoot"


def cartan_of_quiver(q: Quiver) -> CartanMatrix:
    """C_ij = 2 delta_ij - #{edges between i and j}, arrows counted undirected."""
    verts = q.vertices
    pos = {v: k for k, v in enumerate(verts)}
    n = len(verts)
    counts = [[0] * n for _ in range(n)]
    for tail, head in q.arrows:
        a, b = pos[tail], pos[head]
        counts[a][b] += 1
        counts[b][a] += 1
    rows = tuple(
        tuple(2 if i == j else -counts[i][j] for j in range(n)) for i in range(n)
    )
    return CartanMatrix(verts, rows)


def p_value(c: CartanMatrix, beta: VecLike) -> int:
    """p(beta) = 1 - (1/2) beta^t C beta; beta^t C beta is even because C is
    symmetric with 2 on the diagonal."""
    b = c.as_vector(beta)
    return 1 - c.bilinear(b, b) // 2


def reflect(c: CartanMatrix, i: Vertex, beta: VecLike) -> tuple[int, ...]:
    """Simple reflection s_i(beta) = beta - (beta^t C e_i) e_i."""
    b = list(c.as_vector(beta))
    k = c.index(i)
    b[k] -= c.pairing(b)[k]
    return tuple(b)


def _support_connected(c: CartanMatrix, b: Sequence[int]) -> bool:
    support = [i for i, x in enumerate(b) if x != 0]
    if not support:
        return False
    seen = {support[0]}
    frontier = [support[0]]
    supp = set(support)
    while frontier:
        i = frontier.pop()
        for j in supp - seen:
            if c.rows[i][j] != 0:
                seen.add(j)
                frontier.append(j)
    return seen == supp


def classify_root(c: CartanMatrix, beta: VecLike) -> RootClass:
    """Classify an integer vector as a real root, imaginary root, or neither.

    Standard descent: normalize the sign, repeatedly reflect at a vertex with
    positive pairing (each step strictly lowers the height), stop on a simple
    root (real), a negative entry (not a root), or the fundamental region
    (imaginary iff the support is connected).
    """
    b = list(c.as_vector(beta))
    if all(x == 0 for x in b):
        raise InputError("classify_root needs a nonzero vector")
    if all(x <= 0 for x in b):
        b = [-x for x in b]
    if any(x < 0 for x in b):
        return RootClass.NOT_ROOT
    guard = 4 * sum(b)
    for _ in range(guard + 1):
        if sum(b) == 1:
            return RootClass.REAL
        pair = c.pairing(b)
        k = next((i for i, p in enumerate(pair) if p > 0), None)
        if k is None:
            if _support_connected(c, b):
                return RootClass.IMAGINARY
            return RootClass.NOT_ROOT
        b[k] -= pair[k]
        if b[k] < 0:
            return RootClass.NOT_ROOT
    raise DescentGuardError(
        f"descent did not settle within {guard} reflections"
    )


def box_vectors(alpha: Sequence[int], budget: int | None) -> Iterator[tuple[int, ...]]:
    """Every vector 0 <= beta <= alpha in lexicographic order; each costs one
    node, charged before the walk so that a box over budget fails at once."""
    _after_box(alpha, budget)
    return itertools.product(*(range(x + 1) for x in alpha))


def _after_box(alpha: Sequence[int], budget: int | None) -> int | None:
    """What the budget has left once the box under alpha is paid for."""
    left = None if budget is None else budget - math.prod(x + 1 for x in alpha)
    if left is not None and left < 0:
        raise BudgetExceededError(f"lattice-point enumeration exceeded budget of {budget}")
    return left


def positive_roots_leq(
    c: CartanMatrix, alpha: VecLike, budget: int | None = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All positive roots beta with beta <= alpha componentwise, sorted."""
    a = c.as_vector(alpha)
    if any(x < 0 for x in a):
        raise InputError("alpha must be componentwise nonnegative")
    return [
        b for b in box_vectors(a, budget)
        if any(b) and classify_root(c, b) is not RootClass.NOT_ROOT
    ]


def _lambda_numerators(
    c: CartanMatrix, lam: Mapping[Vertex, ScalarLike]
) -> tuple[list[int], list[int], int]:
    """lambda over one common denominator den, aligned with c.vertices: the
    integers re, im with lambda_v = (re_v + i im_v) / den."""
    unknown = set(lam) - set(c.vertices)
    if unknown:
        raise InputError(f"unknown vertices in deformation vector: {sorted(map(repr, unknown))}")
    lv = [Scalar.of(lam.get(v, 0)) for v in c.vertices]
    den = math.lcm(*(x.denominator for s in lv for x in (s.re, s.im)))
    return [int(s.re * den) for s in lv], [int(s.im * den) for s in lv], den


def decompositions(
    alpha: tuple[int, ...],
    parts: list[tuple[int, ...]],
    budget: int | None,
    min_parts: int = 2,
) -> Iterator[list[tuple[int, ...]]]:
    """Multiset decompositions of alpha into >= min_parts vectors from parts.

    Parts are chosen in nondecreasing lexicographic order with componentwise
    pruning. The budget counts search nodes; exceeding it raises.
    """
    nodes = 0
    n = len(alpha)

    def walk(
        remaining: tuple[int, ...], start: int, chosen: list[tuple[int, ...]]
    ) -> Iterator[list[tuple[int, ...]]]:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(
                f"decomposition search exceeded budget of {budget} nodes"
            )
        if all(x == 0 for x in remaining):
            if len(chosen) >= min_parts:
                yield list(chosen)
            return
        for idx in range(start, len(parts)):
            cand = parts[idx]
            if all(cand[i] <= remaining[i] for i in range(n)):
                chosen.append(cand)
                yield from walk(
                    tuple(remaining[i] - cand[i] for i in range(n)), idx, chosen
                )
                chosen.pop()

    yield from walk(alpha, 0, [])


def _split_point(alpha: Sequence[int]) -> int:
    """The least h whose suffix box (beta[h:] <= alpha[h:]) is no larger than
    its prefix box.  That h has the least prefix + suffix among such splits,
    and its suffix box holds at most isqrt of the whole box."""
    suffix = math.prod(x + 1 for x in alpha)
    prefix = 1
    for h, x in enumerate(alpha):
        if suffix <= prefix:
            return h
        prefix *= x + 1
        suffix //= x + 1
    return len(alpha)


def _form_zeros(
    alpha: Sequence[int], forms: Sequence[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """Every vector 0 <= beta <= alpha on which all the forms vanish, in
    lexicographic order, found by meeting in the middle (Horowitz-Sahni):
    the suffix box is tabulated by its form values, and each vector of the
    prefix box, walked in order, is joined with the suffixes stored under
    the negated values."""
    h = _split_point(alpha)
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    tails = [f[h:] for f in forms]
    for s in itertools.product(*(range(x + 1) for x in alpha[h:])):
        table.setdefault(tuple(sum(map(operator.mul, s, f)) for f in tails), []).append(s)
    heads = [[-x for x in f[:h]] for f in forms]
    for p in itertools.product(*(range(x + 1) for x in alpha[:h])):
        for s in table.get(tuple(sum(map(operator.mul, p, f)) for f in heads), ()):
            yield p + s


def sigma_candidates(
    c: CartanMatrix,
    alpha: tuple[int, ...],
    lam: Mapping[Vertex, ScalarLike],
    budget: int | None,
    lattice: Sequence[Sequence[int]] | None = None,
) -> list[tuple[int, ...]] | None:
    """The parts a Sigma-criterion search may use: the positive roots below
    alpha, or given the integer forms of a lattice the nonzero vectors below
    alpha on which every form vanishes, other than alpha and pairing to zero
    with lambda.  None when alpha is not a root or alpha.lambda != 0, so that
    no search is due.

    The whole box is charged to the budget first.  The forms are the nonzero
    rows among lambda's real and imaginary numerators and the lattice rows;
    _form_zeros splits the coordinates so that the suffix box is at most
    isqrt of the box, tabulates it by form values and joins each prefix on
    them, so it visits prefix + suffix vectors instead of their product.  The
    joined vectors come in lexicographic order, and only they reach
    classify_root, which cannot raise on a nonnegative vector.
    """
    if classify_root(c, alpha) is RootClass.NOT_ROOT:
        return None
    re, im, _ = _lambda_numerators(c, lam)
    if sum(map(operator.mul, alpha, re)) or sum(map(operator.mul, alpha, im)):
        return None
    _after_box(alpha, budget)
    forms = [f for f in (re, im, *(lattice or ())) if any(f)]
    return [
        b for b in _form_zeros(alpha, forms)
        if any(b) and b != alpha
        and (lattice is not None or classify_root(c, b) is not RootClass.NOT_ROOT)
    ]


def p_drop_search(
    c: CartanMatrix,
    alpha: tuple[int, ...],
    candidates: list[tuple[int, ...]],
    budget: int | None,
    min_parts: int,
) -> tuple[bool, bool]:
    """Scan the decompositions of alpha into >= min_parts candidates, on what
    the box under alpha left of the budget.

    Returns whether any exists and whether every one strictly lowers p.
    """
    p_alpha = p_value(c, alpha)
    found = False
    for decomp in decompositions(alpha, candidates, _after_box(alpha, budget), min_parts):
        found = True
        if sum(p_value(c, g) for g in decomp) >= p_alpha:
            return True, False
    return found, True


def in_sigma_lambda(
    c: CartanMatrix,
    alpha: VecLike,
    lam: Mapping[Vertex, ScalarLike],
    budget: int | None = DEFAULT_BUDGET,
) -> bool:
    """Membership of alpha in Sigma^lambda.

    True iff alpha is a positive root with alpha.lambda = 0 and every way of
    writing alpha as a sum of >= 2 positive roots, each pairing to zero with
    lambda, strictly lowers p. For real alpha this is equivalent to "no such
    decomposition exists at all"; both routes are evaluated and must agree.
    """
    a = c.as_vector(alpha)
    if any(x < 0 for x in a) or not any(a):
        raise InputError("alpha must be a nonzero nonnegative vector")
    candidates = sigma_candidates(c, a, lam, budget)
    if candidates is None:
        return False
    found_any, verdict = p_drop_search(c, a, candidates, budget, min_parts=2)
    if found_any and verdict and classify_root(c, a) is RootClass.REAL:
        raise AssertionError(
            "real-root shortcut disagrees with the general criterion"
        )
    return verdict
