"""Rank-2 irregular types: existence readings and moduli counts.

An unramified formal type fixes the polar part of a connection at one point:
a list of blocks, each a polynomial leading term q plus a residue orbit.  The
decision procedure builds a quiver whose base vertices come in one "leg" per
irregular type, glued along lattice conditions.  Two readings of the
multiplicity bound exist in the literature (summands >= 3 versus >= 2), and
they genuinely disagree on small examples, so both are exposed.
"""

from fractions import Fraction

from dskit.core import OrbitSpec
from dskit.unramified import (
    UnramBlock,
    UnramFormalType,
    build_hiroe_data,
    count_rank2_moduli,
)


def leading_pair(c, d):
    """Rank-2 slope-1 type: leading term diag(z^-1, -z^-1), residues c, d."""
    return UnramFormalType([
        UnramBlock([1], 1, OrbitSpec(1, [(c, (1,))])),
        UnramBlock([-1], 1, OrbitSpec(1, [(d, (1,))])),
    ])


# One irregular point with residues (1/3, 2/3) and one regular point whose
# orbit has eigenvalues (-1/3, -2/3).  The two readings split: the >= 3
# reading accepts, the >= 2 reading rejects.
t_irr = leading_pair(Fraction(1, 3), Fraction(2, 3))
t_reg = UnramFormalType([UnramBlock(
    [], 2, OrbitSpec(2, [(Fraction(-1, 3), (1,)), (Fraction(-2, 3), (1,))]))])
witness = [t_irr, t_reg]

data = build_hiroe_data(witness)
by_three, by_two = data.readings()
print("quiver vertices:", data.quiver.vertices)
print("alpha:", dict(zip(data.quiver.vertices, data.alpha)))
print("summands >= 3 reading:", by_three)
print("summands >= 2 reading:", by_two)
print()

# For a single rank-2 slope-1 point plus one regular orbit O, the moduli
# space of solutions has an explicit component count depending on how
# det O and tr O interact with the residues c, d.
c, d = Fraction(1, 3), Fraction(2, 3)
t = leading_pair(c, d)
teq = leading_pair(Fraction(1, 2), Fraction(1, 2))
rows = [
    ("det O = cd, c != d", t,
     OrbitSpec(2, [(Fraction(-1, 3), (1,)), (Fraction(-2, 3), (1,))])),
    ("det O = c^2, c = d, regular orbit", teq,
     OrbitSpec(2, [(Fraction(-1, 2), (2,))])),
    ("det O != cd", t,
     OrbitSpec(2, [(Fraction(-1, 5), (1,)), (Fraction(-4, 5), (1,))])),
    ("scalar orbit -c, c = d", teq,
     OrbitSpec(2, [(Fraction(-1, 2), (1, 1))])),
    ("trace mismatch", t,
     OrbitSpec(2, [(0, (1,)), (Fraction(1, 3), (1,))])),
]
print("moduli component counts:")
for label, tt, o in rows:
    print(f"  {label:36s} -> {count_rank2_moduli(tt, o)}")
