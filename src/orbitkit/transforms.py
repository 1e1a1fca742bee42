"""Transforms between the three views of one system's counting data.

orbit -> fix is the divisor sum F(n) = sum_{d|n} d * O(d): the series
n*O(n) times zeta, by dirichlet.times_zeta.  fix -> orbit is its Moebius
inversion: dirichlet.over_zeta.  orbit <-> monoid is the Euler
transform, by monoid_counts; convert(f, View.MONOID) is the dynamical
zeta power series of realizable fixed-point data f.  All arithmetic is
exact; failures of integrality or positivity are how non-realizable
inputs announce themselves, and _exact_count is the one place where an
orbit or monoid count is checked.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Optional, Sequence as Vector

from . import dirichlet
from .sequences import Sequence, View


class NotRealizableError(ValueError):
    """The data cannot be the fixed-point counts of any map.

    ``index`` is the smallest offending one-based index; the subclass,
    NonIntegralError or NegativeError, says what went wrong there.
    """

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


class NonIntegralError(NotRealizableError):
    """A count that must be an integer is not."""


class NegativeError(NotRealizableError):
    """A count that must be nonnegative is negative."""


def orbit_to_fix(o: Sequence) -> Sequence:
    """F(n) = sum_{d|n} d * O(d): the series n*O(n) times zeta."""
    o.require_view(View.ORBIT, "orbit_to_fix")
    n_o = map(mul, range(1, len(o) + 1), o.terms)
    return Sequence(View.FIX, tuple(dirichlet.times_zeta(n_o)))


def _exact_count(total: int, n: int, what: str) -> int:
    """total / n, the {what} count at index n, which must be a nonnegative integer."""
    q, r = divmod(total, n)
    if r:
        raise NonIntegralError(n, f"{what} count at n={n} is not integral")
    if q < 0:
        raise NegativeError(n, f"{what} count at n={n} is negative")
    return q


def _invert_fix_terms(terms: Vector[int]) -> list[int]:
    """O(n) = (1/n) sum_{d|n} mu(n/d) F(d), exactly: F over zeta, each written over its total."""
    counts = dirichlet.over_zeta(terms)
    for n, total in enumerate(counts, start=1):
        counts[n - 1] = _exact_count(total, n, "orbit")
    return counts


def fix_to_orbit(f: Sequence) -> Sequence:
    f.require_view(View.FIX, "fix_to_orbit")
    return Sequence(View.ORBIT, tuple(_invert_fix_terms(f.terms)))


def monoid_counts(fix: Vector[int]) -> list[int]:
    """Weight counts G(1..N) of the orbit monoid with fixed-point counts fix.

    Runs n*G(n) = F(n) + sum_{k<n} F(k) G(n-k) in ints: the Euler
    transform, and the coefficients of exp(sum F(n) s^n / n).  Raises at
    the first n whose G(n) is not a nonnegative integer, and checks no
    more: F = (2, 0) gives G = (2, 2), yet fix_to_orbit rejects it.
    """
    g: list[int] = []
    for n in range(1, len(fix) + 1):
        g.append(_exact_count(fix[n - 1] + sum(map(mul, fix, reversed(g))), n, "monoid"))
    return g


def euler(o: Sequence) -> Sequence:
    """Euler transform: weight-n counts of the free abelian orbit monoid."""
    o.require_view(View.ORBIT, "euler")
    return Sequence(View.MONOID, tuple(monoid_counts(orbit_to_fix(o).terms)))


def euler_inverse(g: Sequence) -> Sequence:
    """Invert the Euler transform back to an orbit sequence.

    Recovers F(n) = n*g(n) - sum_{k<n} F(k) g(n-k) and then Moebius
    inverts; a NotRealizableError means g is not the Euler transform of
    any nonnegative orbit sequence.
    """
    g.require_view(View.MONOID, "euler_inverse")
    terms = g.terms
    fix: list[int] = []
    for n in range(1, len(terms) + 1):
        value = n * terms[n - 1] - sum(map(mul, terms, reversed(fix)))
        if value < 0:
            raise NegativeError(n, f"recovered fix count at n={n} is negative")
        fix.append(value)
    return Sequence(View.ORBIT, tuple(_invert_fix_terms(fix)))


def is_multiplicative(s: Sequence) -> Optional[tuple[int, int]]:
    """Check s(mn) = s(m) s(n) for coprime m, n, with mn within range.

    Returns None when s is multiplicative, else the witness: the
    lexicographically smallest bad pair, or (1, 1) when s(1) != 1.
    """
    if s[1] != 1:
        return (1, 1)
    n_max = len(s)
    for m in range(2, n_max + 1):
        if m * (m + 1) > n_max:
            break
        for n in range(m + 1, n_max // m + 1):
            if gcd(m, n) == 1 and s[m * n] != s[m] * s[n]:
                return (m, n)
    return None


def convert(s: Sequence, view: View) -> Sequence:
    """Re-express s in another view (identity when views already agree)."""
    if s.view is view:
        return s
    if s.view is View.ORBIT:
        return orbit_to_fix(s) if view is View.FIX else euler(s)
    if s.view is View.FIX:
        o = fix_to_orbit(s)  # raises unless s is realizable
        return o if view is View.ORBIT else Sequence(View.MONOID, monoid_counts(s.terms))
    o = euler_inverse(s)
    return o if view is View.ORBIT else orbit_to_fix(o)
