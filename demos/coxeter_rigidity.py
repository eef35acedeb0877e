"""Rigidity for connections with one slope-r/n point and one regular point.

For coprime r and n, the formal type z^(-r/n) x (Coxeter twist) leaves a
single discrete invariant at the irregular point; the interesting datum is
the residue orbit O at the regular one.  Existence reduces to a dominance
bound on Jordan blocks, rigidity to a cohomology count h1, and for the
dominance-least orbit everything collapses to a divisibility rule.
"""

from fractions import Fraction

from dskit import linalg
from dskit.core import OrbitSpec, min_partition_with_r_parts, partitions_of
from dskit.coxeter import (
    SimpleTypeQuery,
    coxeter_ds_decide,
    h1_dimension,
    is_rigid_coxeter_gl,
    residue_representative,
    rigid_table_readings,
)
from dskit.formal import CoxeterFormalType

# n = 2, r = 1 with p(0) = 0: solvable exactly for the regular nilpotent
# orbit and the trace-zero regular semisimple ones.
t = CoxeterFormalType(2, 1, 0)
for o, label in [
    (OrbitSpec(2, [(0, (2,))]), "regular nilpotent"),
    (OrbitSpec(2, [(Fraction(1, 5), (1,)), (Fraction(-1, 5), (1,))]), "rss, trace 0"),
    (OrbitSpec(2, [(Fraction(1, 5), (1,)), (Fraction(2, 5), (1,))]), "rss, trace != 0"),
    (OrbitSpec(2, [(0, (1, 1))]), "zero orbit (scalar)"),
]:
    print(f"  n=2 r=1, {label:22s} -> {coxeter_ds_decide(t, o)}")
print()

# h1 counts moduli: 0 means rigid.  Running over nilpotent orbits for
# n = 5, r = 3 shows rigidity exactly at the dominance-least orbit.
n, r = 5, 3
print(f"h1 for nilpotent orbits, n={n}, r={r} (orbits with <= {r} blocks):")
for parts in partitions_of(n):
    if len(parts) > r:
        continue
    o = OrbitSpec(n, [(0, parts)])
    h1 = h1_dimension(n, r, o)
    star = "  <- rigid" if is_rigid_coxeter_gl(n, r, o) else ""
    print(f"  {str(parts):12s} h1 = {h1}{star}")
print()

# The same divisibility rule, read off root-system data for the classical
# families.  Type B genuinely depends on which reading of the two divisor
# conditions one takes; both are exposed.
q = SimpleTypeQuery("B", 4, 3)
either, both = rigid_table_readings(q)
print(f"B4, r=3 (Coxeter number {q.coxeter_number()}):",
      f"either-divisor {either},", f"both-divisors {both}")
either, both = rigid_table_readings(SimpleTypeQuery("A", 6, 5))
assert either == both
print(f"A6, r=5: both readings agree -> {either}")
print()

# Concrete matrix representatives of the distinguished residue orbits: a
# single lower shift by r, whose Jordan type is the dominance-least
# partition with r parts.
for n, r in [(5, 2), (5, 3), (7, 3)]:
    m = residue_representative(n, r)
    jt = linalg.jordan_type_of_nilpotent(m)
    assert jt == min_partition_with_r_parts(r, n)
    print(f"residue representative n={n}, r={r}: Jordan type {jt}")
