"""Spectral families and their observable functions.

A bounded step family assigns to each threshold a lattice value, monotonely,
ending at the top.  Its observable function sends each quasipoint to the
least threshold whose value the quasipoint contains.  On Boolean lattices the
transform is a bijection and carries an exact function algebra; on chains it
loses information, shown below.

Run:  python3 demos/03_observable_functions.py
"""

from stonespec import (SpectralFamily, boolean_lattice, chain_lattice,
                       from_observable_function, mo_lattice,
                       observable_function, spectrum_of)
from stonespec import family as fam

mo2 = mo_lattice(2)
e = SpectralFamily(mo2, [(0, "a"), (1, "1")])
print("== a family on MO(2) and its observable function ==")
print("family:", e)
for name, value in observable_function(e).as_dict().items():
    print(f"  f_E({name}) = {value}")
print("spectrum:", spectrum_of(e))

print()
print("== the transferred algebra on a Boolean lattice ==")
b2 = boolean_lattice(2)
ex = SpectralFamily(b2, [(0, "x"), (1, "1")])   # atom values (0, 1)
ey = SpectralFamily(b2, [(0, "y"), (1, "1")])   # atom values (1, 0)
print("E   =", ex)
print("F   =", ey)
print("E+F =", fam.add(ex, ey), " (constant 1)")
print("E*F =", fam.mul(ex, ey), " (the zero family)")
print("|E| =", fam.sup_norm(ex))
g = observable_function(ex)
print("inverse transform recovers E:", from_observable_function(g) == ex)

print()
print("== chains: the transform is NOT injective ==")
c3 = chain_lattice(3)
e1 = SpectralFamily(c3, [(0, "m1"), (1, "1")])
e2 = SpectralFamily(c3, [(0, "m1"), (2, "1")])
print("two distinct families:", e1, "and", e2)
print("observable functions:",
      observable_function(e1).as_dict(), "and",
      observable_function(e2).as_dict())
print("the spectrum has one point and there is no orthocomplement to split them;")
print("on orthocomplemented lattices (boolean, MO) distinct families never collide.")
