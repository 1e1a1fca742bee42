"""The ordinary-power-series route to the dynamical zeta function.

zeta_T(s) = exp(sum_n F(n) s^n / n) = prod_i (1 - s^i)^{-O(i)}; its
coefficient of s^n is the monoid count G(n), so every coefficient is a
nonnegative integer.  zeta_from_fix expands the exp through the
transforms module's integer recurrence; product_formula multiplies the
product out factor by factor, an independent route to the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .sequences import Sequence, View
from .transforms import monoid_counts


@dataclass(frozen=True)
class PowerSeries:
    """Integer coefficients of s**0 .. s**order."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) < 1:
            raise ValueError("a power series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        """Coefficient of s**i (zero-based)."""
        if not 0 <= i <= self.order:
            raise IndexError(f"power {i} outside 0..{self.order}")
        return self.coeffs[i]

    def __iter__(self):
        return iter(self.coeffs)


def zeta_from_fix(f: Sequence) -> PowerSeries:
    """zeta_T as exp(sum F(n) s^n / n), to order |f|.

    The result must have nonnegative integer coefficients; if not, f
    was not the fixed-point data of any map and the corresponding
    realizability error is raised with the offending order.
    """
    f.require_view(View.FIX, "zeta_from_fix")
    return PowerSeries((1, *monoid_counts(f.terms)))


def product_formula(o: Sequence) -> PowerSeries:
    """zeta_T as the product prod_i (1 - s^i)^{-O(i)}, to order |o|."""
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
    return PowerSeries(tuple(out))
