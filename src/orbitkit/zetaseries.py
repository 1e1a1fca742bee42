"""The product route to the dynamical zeta function.

zeta_T(s) = exp(sum_n F(n) s^n / n) = prod_i (1 - s^i)^{-O(i)}
= 1 + sum_n G(n) s^n, where G(n) is the orbit monoid's weight-n count.
transforms.monoid_counts expands the exp by its integer recurrence
(convert(f, View.MONOID) for fixed-point data f); product_formula
multiplies the product out factor by factor, an independent route to
the same numbers and the referee of that recurrence.
"""

from __future__ import annotations

from math import comb

from .sequences import Sequence, View


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
