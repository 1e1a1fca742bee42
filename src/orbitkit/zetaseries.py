"""The ordinary-power-series route to the dynamical zeta function.

zeta_T(s) = exp(sum_n F(n) s^n / n) = prod_i (1 - s^i)^{-O(i)}
= 1 + sum_n G(n) s^n, where G(n) is the orbit monoid's weight-n count.
Both functions return G(1..N) as a MONOID Sequence, the constant 1
left implicit.  zeta_from_fix expands the exp through the transforms
module's integer recurrence; product_formula multiplies the product out
factor by factor, an independent route to the same numbers.
"""

from __future__ import annotations

from math import comb

from .sequences import Sequence, View
from .transforms import monoid_counts


def zeta_from_fix(f: Sequence) -> Sequence:
    """Coefficients G(1..|f|) of exp(sum F(n) s^n / n).

    Raises the realizability error at the first n whose G(n) is not a
    nonnegative integer.  That is all it checks: F = (2, 0) gives
    G = (2, 2), although its orbit count at n = 2 is negative, so no
    map has those fixed-point counts (see realizable_as_fix).
    """
    f.require_view(View.FIX, "zeta_from_fix")
    return Sequence(View.MONOID, monoid_counts(f.terms))


def product_formula(o: Sequence) -> Sequence:
    """Coefficients G(1..|o|) of prod_i (1 - s^i)^{-O(i)}."""
    o.require_view(View.ORBIT, "product_formula")
    order = len(o)
    out = [1] + [0] * order
    for i in range(1, order + 1):
        c = o[i]
        if c == 0:
            continue
        new = [0] * (order + 1)
        for j in range(order // i + 1):
            w = comb(c + j - 1, j)  # (1 - s^i)^(-c) = sum_j C(c+j-1, j) s^(ij)
            pos = i * j
            for q in range(order + 1 - pos):
                if out[q]:
                    new[pos + q] += w * out[q]
        out = new
    return Sequence(View.MONOID, out[1:])
