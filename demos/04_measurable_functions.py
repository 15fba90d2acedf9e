"""Measurable functions as spectral families, and step-sum integration.

Level sets of a measurable function form a spectral family in its field of
sets; the induced function recovers it exactly.  Step sums along a grid
approximate any function within the grid spacing, exactly when the grid
contains every threshold.

Run:  python3 demos/04_measurable_functions.py
"""

from fractions import Fraction

from stonespec import (FieldOfSets, MeasurableFunction, function_of,
                       observable_function, riemann_stieltjes,
                       riemann_stieltjes_on_points, spectral_family_of)

print("== the floor function, windowed over three sample points ==")
w3 = FieldOfSets.discrete(("-1/2", "1/2", "3/2"))
floorw = MeasurableFunction(w3, {"-1/2": -1, "1/2": 0, "3/2": 1})
e = spectral_family_of(floorw)
lat = w3.lattice()
for t, v in zip(e.thresholds, e.values):
    print(f"  E({t}) = {lat.names[v]}")
print("induced function at 1/2:", function_of(w3, e)("1/2"))

print()
print("== bijection: both round trips are identities ==")
print("family -> function -> family:", spectral_family_of(function_of(w3, e)) == e)
print("function -> family -> function:", function_of(w3, spectral_family_of(floorw)) == floorw)

print()
print("== step sums ==")
six = FieldOfSets.discrete(tuple("abcdef"))
phi = MeasurableFunction(six, {"a": Fraction(1, 3), "b": Fraction(3, 4),
                               "c": 1, "d": Fraction(8, 5), "e": 2, "f": 0})
e6 = spectral_family_of(phi)
eps = Fraction(1, 2)
lo, hi = e6.bounds()
grid = [lo + k * eps for k in range(int((hi - lo) / eps) + 2)]
s = riemann_stieltjes_on_points(six, e6, grid)
print("phi      :", [str(v) for v in phi.values])
print("step sum :", [str(v) for v in s.values])
print("max error:", max(abs(a - b) for a, b in zip(phi.values, s.values)),
      "<= eps =", eps)
exact = riemann_stieltjes_on_points(six, e6, sorted(set(phi.values)))
print("threshold grid reproduces phi exactly:", exact == phi)

print()
print("== the same sum on quasipoints reconstructs f_E ==")
g = observable_function(e6)
integral = riemann_stieltjes(e6, e6.thresholds)
print("f_E == integral on every quasipoint:", integral == g)
