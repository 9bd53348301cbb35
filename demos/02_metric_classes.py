#!/usr/bin/env python3
"""Metric classes on the six-dimensional catalog families.

Classifies metrics exactly (Kaehler / pluriclosed / balanced / astheno /
k-th Gauduchon), computes the Gauduchon sign scalar and the Lee form, and
reproduces the closed-form scalar that controls the nilpotent family.
"""

from fractions import Fraction

from gauduchon import Metric, classify, gamma_scalar, lee_form
from gauduchon import catalog
from gauduchon.errors import ensure

diag = Metric.diagonal(3)

print("== the bi-invariant entry (balanced, not pluriclosed) ==")
report = classify(diag, catalog.iwasawa())
print("label:", report.label)
print("gamma1 =", report.gamma[1], " lee form:", report.lee)

print()
print("== the deformation family: pluriclosed exactly at t = 1 ==")
for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
    se = catalog.jt(t)
    K = catalog.skt_scalar_nilpotent6(catalog.Reduced6Params(1, 1, 1 / t, 0).as_nilpotent6())
    ensure(K == 2 - 2 / t, f"jt({t}): K != 2 - 2/t")
    gamma = gamma_scalar(diag, 1, se)
    report = classify(diag, se)
    print(f"t = {str(t):>4}:  K = 2 - 2/t = {str(K):>4}   gamma1 = {str(gamma):>6}"
          f"   skt = {report.skt}")

print()
print("== the scalar is metric-independent in sign ==")
se = catalog.jt(Fraction(1, 2))
for entries in ([1, 1, 1], [3, 1, 2], [1, 5, 1]):
    m = Metric.diagonal(3, entries)
    print(f"diag{entries}: gamma1 = {gamma_scalar(m, 1, se)}")

print()
print("== a nonzero Lee form, solving d(Omega^2) = theta ^ Omega^2 ==")
se = catalog.reduced6(0, 0, 1, 0)
theta = lee_form(diag, se)
print("theta =", theta)
report = classify(diag, se)
print("balanced?", report.balanced, "  gamma1 =", report.gamma[1])
