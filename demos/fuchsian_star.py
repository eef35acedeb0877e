"""Deciding additive existence for tuples of adjoint orbits.

Given conjugacy classes O_1, ..., O_k of n x n matrices, we ask for matrices
A_i in O_i with A_1 + ... + A_k = 0 and no common invariant subspace.  The
decision runs through a star-shaped quiver: one central vertex, one arm per
orbit, with arm lengths and weights read off from the eigenvalue structure.
"""

from fractions import Fraction

from dskit.core import OrbitSpec, Scalar
from dskit.fuchsian import FuchsianRigidity, build_cb_data, fuchsian_rigidity


def show(title, orbits):
    print(f"--- {title}")
    data = build_cb_data(orbits)
    print(f"  quiver vertices: {data.quiver.vertices}")
    print(f"  dimension vector alpha: {dict(zip(data.quiver.vertices, data.alpha))}")
    print("  weights lambda:")
    # lambda_v = (re_v + i im_v) / den, aligned with the vertices; the central
    # vertex 0 comes first there and is printed last
    re, im, den = data.lam
    weights = [(v, Scalar(Fraction(x, den), Fraction(y, den)))
               for v, x, y in zip(data.quiver.vertices, re, im)]
    for v, x in weights[1:] + weights[:1]:
        print(f"    lambda[{v}] = {x}")
    verdict = fuchsian_rigidity(orbits)
    print(f"  exists: {verdict is not FuchsianRigidity.EMPTY}   rigidity: {verdict.value}")
    print()
    return verdict


# A hypergeometric-style triple: three regular semisimple rank-2 orbits whose
# traces sum to zero and whose eigenvalue triples never cancel.  The star is
# the D4 diagram with alpha = (2,1,1,1), a real root, so the solution is a
# rigid singleton: unique up to simultaneous conjugation.
a1, a2 = Fraction(1, 7), Fraction(2, 7)
b1, b2 = Fraction(3, 7), Fraction(-1, 7)
c1 = Fraction(4, 7)
c2 = -(a1 + a2 + b1 + b2 + c1)
rss = lambda x, y: OrbitSpec(2, [(x, (1,)), (y, (1,))])
v = show("generic rank-2 triple", [rss(a1, a2), rss(b1, b2), rss(c1, c2)])
assert v is FuchsianRigidity.RIGID_SINGLETON

# Break the cross-sum condition: pick eigenvalues with a1 + b1 + c1 = 0.
# The traces still sum to zero, but one eigenvalue triple cancels, the
# dimension vector stops being a root, and the problem becomes unsolvable.
c1x = -(a1 + b1)
c2x = -(a1 + a2 + b1 + b2 + c1x)
v = show("triple with a cancelling eigenvalue choice",
         [rss(a1, a2), rss(b1, b2), rss(c1x, c2x)])
assert v is FuchsianRigidity.EMPTY

# Four nilpotent 2x2 orbits: alpha = (2,1,1,1,1) is the isotropic imaginary
# root of the 4-arm star, so solutions exist and come in a positive-
# dimensional family (the sign of a moduli space, not a singleton).
nilp = OrbitSpec(2, [(0, (2,))])
v = show("four nilpotent rank-2 orbits", [nilp] * 4)
assert v is FuchsianRigidity.INFINITE
