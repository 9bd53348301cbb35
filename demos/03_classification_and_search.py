#!/usr/bin/env python3
"""The reduced-family classifier and the feasibility search.

Walks the case table for the six-dimensional reduced family, searches for
metrics with negative Gauduchon scalar, and shows both kinds of negative
answer: a closed-form infeasibility certificate and an honest 'exhausted'.
"""

from fractions import Fraction

from gauduchon import Target, cr, find_metric, gamma_scalar
from gauduchon import catalog
from gauduchon.catalog import Reduced6Params

print("== classifier on the case table ==")
points = [
    Reduced6Params(1, cr(1), Fraction(2), Fraction(1)),
    Reduced6Params(0, cr(0), Fraction(1), Fraction(0)),
    Reduced6Params(1, cr(0), Fraction(2), Fraction(3, 2)),
    Reduced6Params(1, cr(0), Fraction(2), Fraction(0)),
    Reduced6Params(1, cr(1), Fraction(0), Fraction(0)),
    Reduced6Params(0, cr(0), Fraction(0), Fraction(0)),
]
for params in points:
    label = catalog.classify_reduced6(params)
    feasible = catalog.certified("reduced6", params)["gamma1<0"] is None
    print(f"rho={params.rho} B={params.B} x={params.x} y={params.y}"
          f"  ->  {label:<3} negative-scalar feasible: {feasible}")

print()
print("== search with closed-form context ==")
params = Reduced6Params(1, cr(0), Fraction(1), Fraction(0))
se = catalog.reduced6(1, 0, 1, 0)
out = find_metric(se, Target("gamma_negative", 1), family="reduced6", params=params)
print("status:", out.status)
print("witness gamma1 =", gamma_scalar(out.witness, 1, se))

params = Reduced6Params(1, cr(1), Fraction(0), Fraction(0))  # the h6 point
se = catalog.reduced6(1, 1, 0, 0)
out = find_metric(se, Target("gamma_negative", 1), family="reduced6", params=params)
print("h6 point:", out.status, out.certificate)

print()
print("== blind search stays honest ==")
out = find_metric(catalog.iwasawa(), Target("skt"), budget=50, seed=3)
print("pluriclosed metric on the bi-invariant entry:", out.status,
      f"after {out.samples_used} samples")

print()
print("== exact witness for a vanishing scalar on the n = 4 family ==")
se = catalog.family8(1, 0)
out = find_metric(se, Target("gauduchon_zero", 1), budget=50, seed=5,
                  family="family8", params=(1, 0))
print("status:", out.status)
print("witness is exact: gamma1 =", gamma_scalar(out.witness, 1, se))
