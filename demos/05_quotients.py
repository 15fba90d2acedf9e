"""Quotient algebras: deleting an ideal, the induced transform and lifting.

Modding a field of sets by an ideal deletes the ideal's atoms.  A measurable
function then acts on the quotient spectrum through its level-set family;
the kernel is exactly the functions vanishing outside the ideal, and every
bounded family of the quotient lifts back to a genuine point function.

Run:  python3 demos/05_quotients.py
"""

from stonespec import (FieldOfSets, MeasurableFunction, SetIdeal,
                       SpectralFamily, gamma_transform, lift_spectral_family,
                       observable_function, quotient)

f4 = FieldOfSets.from_partition(("1", "2", "3", "4"),
                                [["1"], ["2"], ["3"], ["4"]])
ideal = SetIdeal.from_generators(f4, [["1"]])
q = quotient(f4, ideal)

print("== the quotient by the ideal generated by {1} ==")
print("surviving points:", q.reduced.ground)
print("classes:", ", ".join(q.reduced.set_name(m) for m in q.reduced.members()))
print("embedded quasipoints:",
      [f4.stone().point_name(k) for k in q.embedded_point_indices()])

print()
print("== the induced transform ignores what happens inside the ideal ==")
phi = MeasurableFunction(f4, {"1": 99, "2": 0, "3": 1, "4": 2})
psi = MeasurableFunction(f4, {"1": -5, "2": 0, "3": 1, "4": 2})
print("phi and psi differ only on {1}:",
      gamma_transform(phi, q) == gamma_transform(psi, q))

print()
print("== the kernel law ==")
dead = MeasurableFunction(f4, {"1": 7, "2": 0, "3": 0, "4": 0})
print("a function supported inside the ideal maps to zero:",
      all(v == 0 for v in gamma_transform(dead, q).values))

print()
print("== lifting a family of the quotient ==")
lat = q.lattice()
e = SpectralFamily(lat, [(0, lat.set_ids[q.reduced.mask_of(["2"])]),
                         (1, lat.top)])
lift = lift_spectral_family(q, e)
print("lift:", lift)
print("its level-set classes reproduce the family:",
      gamma_transform(lift, q) == observable_function(e))
print("the deleted point takes the top threshold by convention:", lift("1"))
