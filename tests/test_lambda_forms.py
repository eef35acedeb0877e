"""lambda as integer forms, against the Scalar subtraction it replaced.

`scalar_star_lambda` and `_scalar_hiroe_lambda` are the former lambda parts
of `build_cb_data` and `build_hiroe_data`, which subtracted the factors eta of
each residue arm as `Scalar`s.  Both builders now subtract integers over one
common denominator, the lcm of the eigenvalue denominators; on seeded tuples
their forms must give the same lambda at every vertex.  From parsing on, no
decision on orbits, unramified types, rank-2 counts or Coxeter types makes a
`Scalar`.
"""

import math
import random
from fractions import Fraction

from dskit import jsonio
from dskit.core import OrbitSpec, cell_triple
from dskit.coxeter import coxeter_ds_decide
from dskit.formal import CoxeterFormalType
from dskit.fuchsian import FuchsianRigidity, build_cb_data, fuchsian_rigidity
from dskit.rootsys import sigma_candidates
from dskit.unramified import UnramBlock, UnramFormalType, build_hiroe_data, count_rank2_moduli
import exact_oracles
from exact_oracles import (
    Scalar,
    eigenvalues,
    lambda_values,
    orbit_blocks,
    scalar_count_rank2_moduli,
    scalar_coxeter_ds_decide,
    scalar_of,
    scalar_residue_arm,
    scalar_star_lambda,
    sort_key,
    triple,
)

# denominators 1, 2, 3, 5 and 7 and imaginary parts 0, +-1/2, +-1/3 and 1
_RE = [Fraction(p, q) for q in (1, 2, 3, 5, 7) for p in range(-q, q + 1)]
_IM = [Fraction(0)] * 4 + [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(1)]


def _scalar_hiroe_lambda(types):
    """The former lambda of `build_hiroe_data`: eta^k - eta^(k+1) on the
    paths, -eta^1 at each base vertex, and -eta^1 of every baseless type
    added at the base vertices of type 0, by Scalar subtraction."""
    has_base = [i == 0 or t.ell >= 2 for i, t in enumerate(types)]
    lam = {}
    shift_0 = Scalar(0)
    for i, t in enumerate(types):
        for j, b in enumerate(t.blocks, start=1):
            _, eta = scalar_residue_arm(b.residue)
            for k in range(1, len(eta)):
                lam[(i, j, k)] = eta[k - 1] - eta[k]
            if has_base[i]:
                lam[(i, j)] = -eta[0]
            else:
                shift_0 = shift_0 - eta[0]
    for j in range(1, types[0].ell + 1):
        lam[(0, j)] += shift_0
    return lam


def _eigenvalue_lcm(orbits):
    return math.lcm(*(x.denominator for o in orbits for e, _ in orbit_blocks(o) for x in (e.re, e.im)))


def _orbit(rng, n):
    """A nonresonant orbit on gl_n with 1 to n eigenvalues from _RE + i _IM."""
    while True:
        k = rng.randint(1, n)
        cuts = sorted(rng.sample(range(1, n), k - 1))
        mults = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        eigs = {Scalar(rng.choice(_RE), rng.choice(_IM)) for _ in mults}
        if len(eigs) < k:
            continue
        blocks = []
        for e, m in zip(sorted(eigs, key=sort_key), mults):
            split = rng.randint(0, m - 1)
            blocks.append((triple(e), (m - split, split) if 0 < split <= m - split else (m,)))
        o = OrbitSpec(n, blocks)
        if o.is_nonresonant():
            return o


def _sequence(rng, o):
    """A factor sequence: each eigenvalue as often as its largest part, shuffled."""
    seq = [triple(e) for e, part in orbit_blocks(o) for _ in range(part[0])]
    rng.shuffle(seq)
    return seq


def _q(rng):
    return [rng.randint(-2, 2) for _ in range(rng.randint(0, 1))] + [rng.choice([-2, -1, 1, 2])]


def _irregular_type(rng, n, ell):
    cuts = sorted(rng.sample(range(1, n), ell - 1))
    dims = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    qs = set()
    while len(qs) < ell:
        qs.add(tuple(_q(rng)))
    return UnramFormalType([UnramBlock(list(q), d, _orbit(rng, d)) for q, d in zip(sorted(qs), dims)])


def test_star_forms_match_scalar_subtraction():
    # seed 20261101, 400 tuples of 2 to 4 orbits on gl_1 .. gl_4, half of them
    # with shuffled factor sequences
    rng = random.Random(20261101)
    nonreal = mixed = sequenced = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        orbits = [_orbit(rng, n) for _ in range(rng.randint(2, 4))]
        seqs = [_sequence(rng, o) for o in orbits] if rng.random() < 0.5 else None
        data = build_cb_data(orbits, seqs)
        assert lambda_values(data) == scalar_star_lambda(orbits, seqs), (orbits, seqs)
        assert data.lam[2] == _eigenvalue_lcm(orbits)
        eigs = [e for o in orbits for e in eigenvalues(o)]
        nonreal += any(e.im for e in eigs)
        mixed += len({e.re.denominator for e in eigs}) > 1
        sequenced += seqs is not None
    assert nonreal >= 200 and mixed >= 200 and sequenced >= 150, (nonreal, mixed, sequenced)


def test_unramified_forms_match_scalar_subtraction():
    # seed 20261102, 400 tuples at n = 2 .. 4: type 0 irregular with 1 to 3
    # blocks, then baseless types (one block, regular or not) and types with
    # ell >= 2
    rng = random.Random(20261102)
    nonreal = mixed = baseless = later_ell = 0
    for _ in range(400):
        n = rng.randint(2, 4)
        types = [_irregular_type(rng, n, rng.randint(1, min(n, 3)))]
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.4:
                types.append(_irregular_type(rng, n, rng.randint(2, min(n, 3))))
            else:
                q = [] if rng.random() < 0.7 else _q(rng)
                types.append(UnramFormalType([UnramBlock(q, n, _orbit(rng, n))]))
        data = build_hiroe_data(types)
        assert lambda_values(data) == _scalar_hiroe_lambda(types), types
        residues = [b.residue for t in types for b in t.blocks]
        assert data.lam[2] == _eigenvalue_lcm(residues)
        eigs = [e for o in residues for e in eigenvalues(o)]
        nonreal += any(e.im for e in eigs)
        mixed += len({e.re.denominator for e in eigs}) > 1
        baseless += any(t.ell == 1 for t in types[1:])
        later_ell += any(t.ell >= 2 for t in types[1:])
    assert min(nonreal, mixed, baseless, later_ell) >= 100, (nonreal, mixed, baseless, later_ell)


def _s(a, b=1, c=0, d=1):
    return [a, b, c, d]


def _orbit_doc(n, blocks):
    return {"n": n, "blocks": [{"eig": e, "partition": p} for e, p in blocks]}


def _block_doc(q, n, blocks):
    return {"q": q, "dim": n, "residue": _orbit_doc(n, blocks)}


def test_deciding_parsed_orbits_and_types_makes_no_scalar(monkeypatch):
    made = []
    init, scalar = Scalar.__init__, exact_oracles._scalar
    monkeypatch.setattr(Scalar, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    # Scalar arithmetic builds its results past __init__
    monkeypatch.setattr(exact_oracles, "_scalar", lambda *args: made.append(args) or scalar(*args))
    # a rank-2 triple with traces summing to zero: non-real eigenvalues over
    # mixed denominators, and explicit factor sequences as triples
    orbits = [jsonio.parse_orbit(o) for o in (
        _orbit_doc(2, [(_s(1, 3, 1, 2), [2])]),
        _orbit_doc(2, [(_s(2, 7), [1]), (_s(0, 1, -1), [1])]),
        _orbit_doc(2, [(_s(-1, 5), [1]), (_s(-79, 105), [1])]),
    )]
    seqs = [[cell_triple(*jsonio.reduced_cell(c, "seq")) for c in seq] for seq in (
        [_s(1, 3, 1, 2)] * 2, [_s(0, 1, -1), _s(2, 7)], [_s(-79, 105), _s(-1, 5)])]
    # residue traces summing to zero: type 0 with q of two lengths, a baseless
    # type and a later type with two blocks, so that L has a form
    types = [jsonio.parse_unram_type({"blocks": blocks}) for blocks in (
        [_block_doc([_s(1)], 1, [(_s(1, 3), [1])]),
         _block_doc([_s(-1), _s(2)], 2, [(_s(0, 1, 1, 2), [1]), (_s(1, 5), [1])])],
        [_block_doc([], 3, [(_s(-1, 3), [2]), (_s(1, 7), [1])])],
        [_block_doc([_s(2)], 1, [(_s(0), [1])]),
         _block_doc([_s(0), _s(1)], 2, [(_s(-1, 210, -1, 4), [1, 1])])],
    )]
    # rank 2, slope 1 with non-real residues c = 1/3 + i/2 and d = 1/5 - i:
    # O with eigenvalues -c and -d counts 3; one block with q non-real and O
    # the negated residue counts 1
    pair = jsonio.parse_unram_type({"blocks": [
        _block_doc([_s(1)], 1, [(_s(1, 3, 1, 2), [1])]),
        _block_doc([_s(-1)], 1, [(_s(1, 5, -1), [1])])]})
    split = jsonio.parse_orbit(_orbit_doc(2, [(_s(-1, 3, -1, 2), [1]), (_s(-1, 5, 1), [1])]))
    single = jsonio.parse_unram_type({"blocks": [
        _block_doc([_s(1, 2, 3, 4)], 2, [(_s(1, 3), [1]), (_s(0, 1, 1, 2), [1])])]})
    negated = jsonio.parse_orbit(_orbit_doc(2, [(_s(-1, 3), [1]), (_s(0, 1, -1, 2), [1])]))
    # p(0) = (-1 + 2i)/6 as an unreduced triple, and Tr O = -2 p(0)
    ftype = CoxeterFormalType(2, 1, (2, -4, -12))
    nilpotent_shift = jsonio.parse_orbit(_orbit_doc(2, [(_s(1, 6, -1, 3), [2])]))
    star = build_cb_data(orbits, seqs)
    rigidity = fuchsian_rigidity(orbits, seqs)
    hiroe = build_hiroe_data(types)
    readings = hiroe.readings()
    counts = count_rank2_moduli(pair, split), count_rank2_moduli(single, negated)
    exists = coxeter_ds_decide(ftype, nilpotent_shift)
    assert made == []
    # the spy sees the Scalar route on the same input
    scalar_seqs = [[scalar_of(t) for t in seq] for seq in seqs]
    assert lambda_values(star) == scalar_star_lambda(orbits, scalar_seqs)
    assert lambda_values(hiroe) == _scalar_hiroe_lambda(types)
    assert counts == (scalar_count_rank2_moduli(pair, split),
                      scalar_count_rank2_moduli(single, negated)) == (3, 1)
    assert exists is scalar_coxeter_ds_decide(ftype, nilpotent_shift) is True
    assert made
    # the verdicts, as the Scalar route gave them; L holds one form, and six
    # vectors of L below alpha pair to zero with lambda
    assert rigidity is FuchsianRigidity.RIGID_SINGLETON
    assert readings == (True, True)
    assert hiroe.lattice_forms == ((1, 1, -1, -1, 0, 0, 0),)
    assert len(sigma_candidates(hiroe.quiver, hiroe.alpha, hiroe.lam, None,
                                hiroe.lattice_forms)) == 6
