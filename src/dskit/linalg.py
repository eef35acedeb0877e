"""Dense exact linear algebra over the Gaussian integers.

A matrix over Q(i) is held as a `Gaussian` triple (re, im, den): parallel
lists of Python ints for the real and imaginary parts of the matrix times
one common denominator den, and den.  Elimination (the Jordan type,
`sylvester_solve`), the nilpotency test and the gauge recursion work on
these triples; products (`gaussian_mul`) and fraction-free elimination make
no `Fraction`: the parser and the callers build the triples.  Each kernel
reads whether its input is real, with all imaginary parts zero, and then
does integer arithmetic alone: a real product is one integer product, and
real elimination is the Bareiss step over Z.  A right-hand side is scaled apart from the matrix, so its
denominators never enter the operator.  The shifted Sylvester equation
(b + k) x - x b = rhs is readied once for all shifts k
(`sylvester_operator`): b = b' / den over Z[i], with the characteristic
polynomial p of b' by Faddeev-LeVerrier.  Each shift is then the n x n
system p(b' + k den) y = R by Cayley-Hamilton (Jameson, SIAM J. Appl.
Math. 16, 1968).  Only when that matrix is singular, that is when two
eigenvalues of b differ by k, is the n^2 x n^2 Kronecker system
eliminated instead.  No pivoting heuristics are needed because the
arithmetic is exact.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from math import gcd
from operator import getitem, mul

from .core import dual_partition
from .errors import InputError

Ints = list[list[int]]
# a matrix scaled to Z[i]: real parts, imaginary parts, and the scale
Gaussian = tuple[Ints, Ints, int]


def zero_gaussian(n: int, den: int = 1) -> Gaussian:
    """The n x n zero matrix over den, with fresh rows to write into."""
    return [[0] * n for _ in range(n)], [[0] * n for _ in range(n)], den


def _gauss_jordan(re: Ints, im: Ints) -> list[int]:
    """Fraction-free Gauss-Jordan elimination over Z[i], in place.

    Rows are held as parallel lists of real and imaginary parts.  A step with
    pivot d in column c replaces every other row b, at every column, by
    (d b - f a) / p, where a is the pivot row, f is b's entry in column c and
    p is the previous pivot (1 before the first step).  By Sylvester's
    determinant identity every entry stays a minor of the input, so the
    division is exact in Z[i] (Bareiss 1968; Nakos, Turner and Williams
    1997).  When im is all zero on entry every minor is an integer, so the
    step runs over Z, two products and one exact division a cell, and im is
    left zero; the pivots and rows are those of the Z[i] step.  On return
    the first len(pivots) rows form the reduced echelon form times the last
    pivot: each holds that pivot in its own pivot column and 0 in the
    others.  Returns the pivot columns.
    """
    rows = len(re)
    cols = len(re[0]) if rows else 0
    real = not any(map(any, im))
    pr, pi = 1, 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if re[i][c] or im[i][c]), None)
        if piv is None:
            continue
        re[r], re[piv] = re[piv], re[r]
        im[r], im[piv] = im[piv], im[r]
        ar, ai = re[r], im[r]
        dr, di = ar[c], ai[c]
        nrm = pr * pr + pi * pi
        for k in range(rows):
            if k == r:
                continue
            br, bi = re[k], im[k]
            fr, fi = br[c], bi[c]
            if real:
                re[k] = [(dr * u - fr * s) // pr for u, s in zip(br, ar)]
                continue
            xr = [dr * u - di * v - fr * s + fi * t for u, v, s, t in zip(br, bi, ar, ai)]
            xi = [dr * v + di * u - fr * t - fi * s for u, v, s, t in zip(br, bi, ar, ai)]
            # divide by p: multiply by its conjugate, then divide by its norm
            re[k] = [(x * pr + y * pi) // nrm for x, y in zip(xr, xi)]
            im[k] = [(y * pr - x * pi) // nrm for x, y in zip(xr, xi)]
        pr, pi = dr, di
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def gaussian_mul(a: Gaussian, b: Gaussian) -> Gaussian:
    """The product of a = (ar + i ai) / ad and b = (br + i bi) / bd, over the
    product of their scales.  When ai and bi are both zero it is one integer
    product, with a zero imaginary part; otherwise four."""
    (ar, ai, ad), (br, bi, bd) = a, b
    br_t = list(zip(*br))
    if not any(map(any, ai)) and not any(map(any, bi)):
        return ([[sum(map(mul, x, y)) for y in br_t] for x in ar],
                [[0] * len(br_t) for _ in ar], ad * bd)
    bi_t = list(zip(*bi))
    return (
        [[sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)) for yr, yi in zip(br_t, bi_t)]
         for xr, xi in zip(ar, ai)],
        [[sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)) for yr, yi in zip(br_t, bi_t)]
         for xr, xi in zip(ar, ai)],
        ad * bd,
    )


def is_nilpotent(g: Gaussian) -> bool:
    """Whether some power of the square matrix g = (re + i im) / den is zero.

    Scaling keeps nilpotency, so den is never read.  A nilpotent matrix has
    every power sum tr A^m zero (its eigenvalues are all 0), so g is not
    nilpotent when tr A or tr A^2 = sum_ij A_ij A_ji is nonzero, an O(n^2)
    test that settles most inputs.  Otherwise g is squared until the
    exponent reaches n: an n x n matrix is nilpotent exactly when its n-th
    power, or any higher one, is zero.
    """
    re, im, _ = g
    n = len(re)
    if any(len(row) != n for row in re):
        raise InputError("nilpotency needs a square matrix")
    if sum(map(getitem, re, range(n))) or sum(map(getitem, im, range(n))):
        return False
    # tr A^2 = sum_ij A_ij A_ji has the real part sum re_ij re_ji - im_ij im_ji
    # and the imaginary part 2 sum re_ij im_ji
    flat_re, flat_im = list(chain(*re)), list(chain(*im))
    if (sum(map(mul, flat_re, chain(*zip(*re)))) != sum(map(mul, flat_im, chain(*zip(*im))))
            or sum(map(mul, flat_re, chain(*zip(*im))))):
        return False
    k = 1
    while k < n:
        g = gaussian_mul(g, g)
        k *= 2
    return not any(map(any, g[0])) and not any(map(any, g[1]))


# x -> b x - x b readied once for every shift by `sylvester_operator`:
# b = (b', den), the coefficients p_0..p_n of the characteristic
# polynomial of b' as (re, im) pairs, and H_0..H_{n-1} over scale 1
Sylvester = tuple[Gaussian, list[tuple[int, int]], list[Gaussian]]


def sylvester_operator(g: Gaussian) -> Sylvester:
    """x -> b x - x b readied for `sylvester_solve` at every shift, for
    g = (b', den) with b = b' / den: g itself, the characteristic polynomial
    p = sum_j p_j t^j of b', and H_m = sum_{j>m} p_j b'^{j-1-m} for
    m = 0..n-1.

    Both come from Faddeev-LeVerrier: H_{n-1} = I, p_m = -tr(b' H_m) /
    (n - m) and H_{m-1} = b' H_m + p_m I, where the division is exact in
    Z[i] because b' has Gaussian-integer entries.
    """
    br, bi, _ = g
    n = len(br)
    h = [([[int(i == j) for j in range(n)] for i in range(n)], [[0] * n for _ in range(n)], 1)]
    p = [(1, 0)]
    for k in range(1, n + 1):
        # tr(b' H_m) = sum_il b'_il (H_m)_li; b' H_m itself is needed only for m > 0
        hr, hi = (list(chain(*zip(*part))) for part in h[0][:2])
        pr = (sum(map(mul, chain(*bi), hi)) - sum(map(mul, chain(*br), hr))) // k
        pi = -(sum(map(mul, chain(*br), hi)) + sum(map(mul, chain(*bi), hr))) // k
        p.insert(0, (pr, pi))
        if k < n:
            re, im, _ = gaussian_mul((br, bi, 1), h[0])
            for i in range(n):
                re[i][i] += pr
                im[i][i] += pi
            h.insert(0, (re, im, 1))
    return g, p, h


def _over_pivot(ur: list[int], ui: list[int], pr: int, pi: int, big: int, n: int) -> Gaussian:
    """The n x n matrix read by rows from (ur + i ui) / ((pr + i pi) big), in
    lowest terms: the numerator times the pivot's conjugate, over its norm
    times big."""
    d = (pr * pr + pi * pi) * big
    xr = [u * pr + v * pi for u, v in zip(ur, ui)]
    xi = [v * pr - u * pi for u, v in zip(ur, ui)]
    g = gcd(d, *xr, *xi)
    return ([[x // g for x in xr[i : i + n]] for i in range(0, n * n, n)],
            [[x // g for x in xi[i : i + n]] for i in range(0, n * n, n)], d // g)


def sylvester_solve(op: Sylvester, k: int, rhs: Gaussian) -> Gaussian | None:
    """One solution x of (b + k) x - x b = rhs for op = `sylvester_operator(b)`,
    with free coordinates set to zero and in lowest terms, or None if the
    system is inconsistent.

    With b = b' / den, rhs = r / big, s = k den, a = b' + s and c = den r,
    y = big x solves a y - y b' = c over Z[i], reduced to an n x n system
    (Jameson, SIAM J. Appl. Math. 16, 1968): a^j y - y b'^j =
    sum_{i<j} a^{j-1-i} c b'^i, so p(b') = 0 (Cayley-Hamilton) gives
    p(a) y = sum_m a^m c H_m, and p(a) = p(a) - p(b') = s sum_m a^m H_m.
    One Horner recursion in a takes both sums, and `_gauss_jordan`
    eliminates [p(a) | sum_m a^m c H_m], which at n = 1 is [s | c] and
    already reduced.  p(a) is singular exactly when two eigenvalues of b
    differ by k; only then is the n^2 x n^2 system of `_kronecker`
    eliminated instead.  A nonsingular system has one solution, so the two
    routes agree.
    """
    (br, bi, den), _, h = op
    n = len(br)
    s = k * den
    # [L | R] <- (b' + s) [L | R] + [s H_m | c H_m] from [s I | c], for m = n - 2 down to 0
    re = [[s * (i == j) for j in range(n)] + [y * den for y in row] for i, row in enumerate(rhs[0])]
    im = [[0] * n + [y * den for y in row] for row in rhs[1]]
    if n > 1:
        c = ([row[n:] for row in re], [row[n:] for row in im], 1)
        for hr, hi, _ in reversed(h[:-1]):
            xr, xi, _ = gaussian_mul((br, bi, 1), (re, im, 1))
            yr, yi, _ = gaussian_mul(c, (hr, hi, 1))
            re = [[u + s * w + v for u, w, v in zip(x, row, [s * z for z in hrow] + y)]
                  for x, row, hrow, y in zip(xr, re, hr, yr)]
            im = [[u + s * w + v for u, w, v in zip(x, row, [s * z for z in hrow] + y)]
                  for x, row, hrow, y in zip(xi, im, hi, yi)]
    pivots = _gauss_jordan(re, im) if n > 1 else [0] if s else []
    if pivots == list(range(n)):
        return _over_pivot([x for row in re for x in row[n:]], [x for row in im for x in row[n:]],
                           re[0][0], im[0][0], rhs[2], n)
    return _kronecker_solve(op[0], k, rhs)


def _kronecker(g: Gaussian) -> Gaussian:
    """The operator of x -> b x - x b on n x n matrices x stacked by rows,
    written from g = (b', den), b = b' / den: the operator times b's common
    denominator den, and den.  It has n^4 entries."""
    br, bi, den = g
    n = len(br)
    ops: tuple[Ints, Ints] = ([], [])
    for parts, op in zip((br, bi), ops):
        for i in range(n):
            for j in range(n):
                # (b x - x b)_ij = sum_a b_ia x_aj - sum_c x_ic b_cj
                row = [0] * (n * n)
                row[j::n] = parts[i]
                block = slice(i * n, i * n + n)
                row[block] = [x - bc[j] for x, bc in zip(row[block], parts)]
                op.append(row)
    return *ops, den


def _kronecker_solve(g: Gaussian, k: int, rhs: Gaussian) -> Gaussian | None:
    """`sylvester_solve` for g = (b', den) on the n^2 x n^2 system: the
    operator of `_kronecker`, k times its scale den added to the diagonal,
    is augmented by rhs = (bre + i bim) / big, row by row, times den.  Every
    pivot row then ends in the same last pivot p, so x = u / (p big), u
    that column, with free coordinates zero."""
    re, im, den = _kronecker(g)
    bre, bim, big = rhs
    n, cols = len(bre), len(re)
    for r, (row, y) in enumerate(zip(re, sum(bre, []))):
        row[r] += k * den
        row.append(y * den)
    for row, y in zip(im, sum(bim, [])):
        row.append(y * den)
    pivots = _gauss_jordan(re, im)
    if cols in pivots:
        return None
    pr, pi = (re[0][pivots[0]], im[0][pivots[0]]) if pivots else (1, 0)
    ur, ui = [0] * cols, [0] * cols
    for r, c in enumerate(pivots):
        ur[c], ui[c] = re[r][cols], im[r][cols]
    return _over_pivot(ur, ui, pr, pi, big, n)


def jordan_type_of_nilpotent(g: Gaussian) -> tuple[int, ...]:
    """Jordan partition of the nilpotent matrix g = (re + i im) / den from
    the ranks of its powers over Z[i]; scaling keeps every rank, so den is
    never read."""
    n = len(g[0])
    ranks = [n] + [len(_gauss_jordan([row[:] for row in re], [row[:] for row in im]))
                   for re, im, _ in accumulate(repeat(g, n), gaussian_mul)]
    if ranks[-1] != 0:
        raise InputError("matrix is not nilpotent")
    # the drops rank(a^{k-1}) - rank(a^k) are the parts of the dual partition
    return dual_partition([p - q for p, q in zip(ranks, ranks[1:]) if p > q])
