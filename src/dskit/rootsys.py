"""Quivers and Kac root combinatorics.

A loop-free quiver is its own symmetric generalized Cartan matrix, which
Quiver stores as neighbour lists; every root function takes the quiver.
This is the shared engine behind both existence criteria: one search finds
the vectors 0 <= beta <= alpha on which lambda (and the lattice, if any)
vanishes, and one table of best p-sums over the sums of those vectors tells
whether a decomposition of alpha into >= 2, or >= 3, of them does not drop
p.  lambda comes as its real and imaginary integer numerators over one
denominator (a LambdaForm) and the lattice as its rows, all integer forms,
so the search meets in the middle: the coordinates are split where the
suffix box holds at most isqrt of the whole box, the suffix box is
tabulated by its form values, and the prefix box is walked in order and
joined on the negated values.  Only the joined vectors are classified as
roots.  The budget charges the whole box before anything is tabulated, then
each step of the table, which is iterative, so a deep alpha cannot overflow
the stack.  Every public search and decider defaults to DEFAULT_BUDGET =
2,000,000 and reads budget=None as no budget.  Both readings of
unramified-ds come from one table, so they fit the budget together or not
at all.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from enum import Enum
from typing import Hashable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, InputError
from .frozen import Frozen

DEFAULT_BUDGET = 2_000_000

Vertex = Hashable
VecLike = Sequence[int]
# lambda as integer forms aligned with Quiver.vertices, (re, im, den): the
# deformation weight at vertex v is (re[v] + i im[v]) / den
LambdaForm = tuple[Sequence[int], Sequence[int], int]


class Quiver(Frozen):
    """A finite loop-free quiver, parallel arrows allowed, which is its own
    symmetric generalized Cartan matrix C = 2 I - (adjacency, arrows counted
    undirected).  C is stored as one neighbour list per vertex, a neighbour
    joined by m arrows listed m times, so (C beta)_i = 2 beta_i - the sum of
    beta_j over the neighbours j of i.  Two quivers are equal when their
    vertices and arrows are, in order; the index and the neighbour lists are
    derived from them."""

    __slots__ = ("vertices", "arrows", "_index", "_neighbours")

    vertices: tuple[Vertex, ...]
    arrows: tuple[tuple[Vertex, Vertex], ...]
    _index: dict[Vertex, int]
    _neighbours: tuple[tuple[int, ...], ...]

    def __init__(self, vertices: Sequence[Vertex], arrows: Sequence[tuple[Vertex, Vertex]]):
        verts = tuple(vertices)
        index = {v: k for k, v in enumerate(verts)}
        if len(index) != len(verts):
            raise InputError("duplicate vertex ids")
        neighbours: list[list[int]] = [[] for _ in verts]
        arrs = []
        for tail, head in arrows:
            if tail not in index or head not in index:
                raise InputError(f"arrow ({tail!r}, {head!r}) uses unknown vertex")
            if tail == head:
                raise InputError(f"loop detected at vertex {tail!r}")
            arrs.append((tail, head))
            neighbours[index[tail]].append(index[head])
            neighbours[index[head]].append(index[tail])
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "arrows", tuple(arrs))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_neighbours", tuple(map(tuple, neighbours)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Quiver:
            return NotImplemented
        return self.vertices == other.vertices and self.arrows == other.arrows

    def __hash__(self) -> int:
        return hash((self.vertices, self.arrows))

    def __repr__(self) -> str:
        return f"Quiver(vertices={self.vertices!r}, arrows={self.arrows!r})"

    def index(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except (KeyError, TypeError):
            raise InputError(f"unknown vertex {v!r}") from None

    def as_vector(self, beta: VecLike) -> tuple[int, ...]:
        """Coerce a sequence of integers aligned with self.vertices to a
        tuple.  A mapping is refused, since it would be read by its keys."""
        if isinstance(beta, Mapping):
            raise InputError("a vector is a sequence aligned with the vertices, not a mapping")
        entries = list(enumerate(beta))
        if len(entries) != len(self.vertices):
            raise InputError(
                f"vector length {len(entries)} does not match {len(self.vertices)} vertices"
            )
        vec = []
        for key, x in entries:
            try:
                vec.append(operator.index(x))
            except TypeError:
                raise InputError(f"vector entry {key!r} is not an integer: {x!r}") from None
        return tuple(vec)

    def _pair(self, b: Sequence[int]) -> tuple[int, ...]:
        """C b, for integers b aligned with self.vertices."""
        return tuple(
            2 * x - sum(map(b.__getitem__, nb)) for x, nb in zip(b, self._neighbours)
        )

    def pairing(self, beta: VecLike) -> tuple[int, ...]:
        """The vector C beta."""
        return self._pair(self.as_vector(beta))


class RootClass(Enum):
    REAL = "RealRoot"
    IMAGINARY = "ImaginaryRoot"
    NOT_ROOT = "NotRoot"


def p_value(q: Quiver, beta: VecLike) -> int:
    """p(beta) = 1 - (1/2) beta^t C beta; beta^t C beta is even because C is
    symmetric with 2 on the diagonal."""
    b = q.as_vector(beta)
    return 1 - sum(map(operator.mul, b, q._pair(b))) // 2


def reflect(q: Quiver, i: Vertex, beta: VecLike) -> tuple[int, ...]:
    """Simple reflection s_i(beta) = beta - (beta^t C e_i) e_i."""
    b = list(q.as_vector(beta))
    k = q.index(i)
    b[k] -= q._pair(b)[k]
    return tuple(b)


def _support_connected(q: Quiver, b: Sequence[int]) -> bool:
    support = {i for i, x in enumerate(b) if x != 0}
    if not support:
        return False
    frontier = [min(support)]
    seen = set(frontier)
    while frontier:
        for j in q._neighbours[frontier.pop()]:
            if j in support and j not in seen:
                seen.add(j)
                frontier.append(j)
    return seen == support


def classify_root(q: Quiver, beta: VecLike) -> RootClass:
    """Classify an integer vector as a real root, imaginary root, or neither.

    Standard descent: normalize the sign, repeatedly reflect at the least
    vertex with positive pairing (each step strictly lowers the height), stop
    on a simple root (real), a negative entry (not a root), or the
    fundamental region (imaginary iff the support is connected).  The
    pairing C b is formed once and updated in place: reflecting at k by the
    step s = (C b)_k makes (C b)_k = -s and adds s at each neighbour of k,
    once per arrow.  A heap holds every vertex whose pairing has turned
    positive, so the least one is found without a scan; entries whose
    pairing has dropped to <= 0 since are discarded when they come up.
    """
    b = list(q.as_vector(beta))
    if all(x == 0 for x in b):
        raise InputError("classify_root needs a nonzero vector")
    if all(x <= 0 for x in b):
        b = [-x for x in b]
    if any(x < 0 for x in b):
        return RootClass.NOT_ROOT
    pair = list(q._pair(b))
    positive = [i for i, p in enumerate(pair) if p > 0]  # sorted, so a heap
    height = sum(b)
    # each reflection lowers the height by at least 1, so this ends
    while height != 1:
        while positive and pair[positive[0]] <= 0:
            heapq.heappop(positive)
        if not positive:
            if _support_connected(q, b):
                return RootClass.IMAGINARY
            return RootClass.NOT_ROOT
        k = positive[0]
        step = pair[k]
        b[k] -= step
        if b[k] < 0:
            return RootClass.NOT_ROOT
        height -= step
        pair[k] = -step
        for j in q._neighbours[k]:
            if pair[j] <= 0 < pair[j] + step:
                heapq.heappush(positive, j)
            pair[j] += step
    return RootClass.REAL


def _check_budget(budget: int | None) -> None:
    """A budget is a count of nodes, so a negative one is malformed."""
    if budget is not None and budget < 0:
        raise InputError(f"budget must be 0 or more, got {budget}")


def _after_box(alpha: Sequence[int], budget: int | None) -> float:
    """What the budget has left once the box under alpha is paid for, one
    node per vector, inf with no budget; a box over budget fails before it
    is walked, as soon as the product of its sides so far passes the budget."""
    if budget is None:
        return math.inf
    box = 1
    for x in alpha:
        box *= x + 1
        if box > budget:
            raise BudgetExceededError(f"lattice-point enumeration exceeded budget of {budget}")
    return budget - box


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
    q: Quiver,
    alpha: tuple[int, ...],
    lam: LambdaForm,
    budget: int | None,
    lattice: Sequence[Sequence[int]] | None = None,
) -> list[tuple[int, ...]] | None:
    """The parts a Sigma-criterion search may use: the positive roots below
    alpha, or given the integer forms of a lattice the nonzero vectors below
    alpha on which every form vanishes, other than alpha and pairing to zero
    with lambda.  None when alpha is not a root or alpha.lambda != 0, so that
    no search is due.  lam is lambda as integer forms aligned with
    q.vertices; only its numerators are read.

    The whole box is charged to the budget first.  The forms are the nonzero
    rows among lambda's real and imaginary numerators and the lattice rows;
    _form_zeros splits the coordinates so that the suffix box is at most
    isqrt of the box, tabulates it by form values and joins each prefix on
    them, so it visits prefix + suffix vectors instead of their product.  The
    joined vectors come in lexicographic order, and only they reach
    classify_root, which cannot raise on a nonnegative vector.
    """
    _check_budget(budget)
    re, im, _ = lam
    if len(re) != len(q.vertices) or len(im) != len(q.vertices):
        raise InputError(
            f"deformation vector lengths {len(re)}, {len(im)} do not match "
            f"{len(q.vertices)} vertices"
        )
    if classify_root(q, alpha) is RootClass.NOT_ROOT:
        return None
    if sum(map(operator.mul, alpha, re)) or sum(map(operator.mul, alpha, im)):
        return None
    _after_box(alpha, budget)
    forms = [f for f in (re, im, *(lattice or ())) if any(f)]
    return [
        b for b in _form_zeros(alpha, forms)
        if any(b) and b != alpha
        and (lattice is not None or classify_root(q, b) is not RootClass.NOT_ROOT)
    ]


def best_p_sums(
    q: Quiver,
    alpha: tuple[int, ...],
    candidates: list[tuple[int, ...]],
    budget: int | None,
) -> tuple[int | None, int | None]:
    """The largest sum of p over the decompositions of alpha into >= 2 and
    into >= 3 candidates, each None when there is no such decomposition.

    One max-plus table, on what the box under alpha left of the budget, keeps
    for each sum of candidates <= alpha its largest sum of p by 0, 1, 2 and
    >= 3 parts.  A sum, the empty one first, is extended by every candidate
    after all the sums it is built from, and each extension that stays under
    alpha costs one node.
    Vectors are packed into one integer, a field per coordinate with a spare
    top bit, so an extension is one addition, and it stays under alpha iff
    adding each field's headroom sets no top bit.
    """
    _check_budget(budget)
    left = _after_box(alpha, budget)
    widths = [x.bit_length() + 1 for x in alpha]
    shifts = [0, *itertools.accumulate(widths)]

    def pack(v: Sequence[int]) -> int:
        return sum(x << s for x, s in zip(v, shifts))

    tops = sum(1 << (s - 1) for s in shifts[1:])
    headroom = tops - pack([x + 1 for x in alpha])
    none = -math.inf
    parts = [(pack(b), p_value(q, b)) for b in candidates]
    goal = pack(alpha)
    # packing keeps the order of vectors, so a sum pops after every sum that
    # extends to it, and the last to pop is alpha
    rows = {0: [0, none, none, none]}
    heap = [0]
    nodes = 0
    while heap:
        g = heapq.heappop(heap)
        if g == goal:
            break
        zero, one, two, more = rows.pop(g)
        more = max(two, more)
        for b, p in parts:
            s = g + b
            if (s + headroom) & tops:
                continue
            nodes += 1
            if nodes > left:
                raise BudgetExceededError(
                    f"decomposition search exceeded budget of {left} nodes"
                )
            row = rows.get(s)
            if row is None:
                rows[s] = [none, zero + p, one + p, more + p]
                heapq.heappush(heap, s)
            else:
                row[1] = max(row[1], zero + p)
                row[2] = max(row[2], one + p)
                row[3] = max(row[3], more + p)
    _, _, two, more = rows.get(goal, (none,) * 4)
    return tuple(None if x == none else x for x in (max(two, more), more))


def in_sigma_lambda(
    q: Quiver,
    alpha: VecLike,
    lam: LambdaForm,
    budget: int | None = DEFAULT_BUDGET,
) -> bool:
    """Membership of alpha in Sigma^lambda, for alpha and lambda's integer
    forms (re, im, den) aligned with q.vertices.

    True iff alpha is a positive root with alpha.lambda = 0 and every way of
    writing alpha as a sum of >= 2 positive roots, each pairing to zero with
    lambda, strictly lowers p.  Once the search is due alpha is a root, so it
    is real iff p(alpha) = 0; then, as every part has p >= 0, this is
    equivalent to "no such decomposition exists at all".  Both routes are
    evaluated and must agree.
    """
    a = q.as_vector(alpha)
    if any(x < 0 for x in a) or not any(a):
        raise InputError("alpha must be a nonzero nonnegative vector")
    candidates = sigma_candidates(q, a, lam, budget)
    if candidates is None:
        return False
    p_alpha = p_value(q, a)
    best = best_p_sums(q, a, candidates, budget)[0]
    verdict = best is None or best < p_alpha
    if best is not None and verdict and p_alpha == 0:
        raise AssertionError(
            "real-root shortcut disagrees with the general criterion"
        )
    return verdict
