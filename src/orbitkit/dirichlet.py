"""Truncated Dirichlet series with integer coefficients.

A DirichletPoly holds the int coefficients of n^{-s} for n = 1..N from
any iterable (DirichletPoly(s.terms) for a sequence s, sparse([(1, 1)], N)
for the identity).  Multiplication is Dirichlet convolution truncated
to N; division is the unique inverse when the divisor has a nonzero
leading coefficient and the quotient is integral.  Identities with
infinite Euler products or 1/n weights are checked in cleared-denominator
form, so only these finite integer objects ever exist.
Multiplying and dividing by zeta run on its Euler product instead, one
slice pass per prime power; the harmonic mul and div are their referee.
"""

from __future__ import annotations

import sys
from operator import add, sub
from typing import Iterable

from .numtheory import _Value, _require_int, primes_upto


class DirichletPoly(_Value):
    """Int coefficients of 1^{-s} .. N^{-s}."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]) -> None:
        object.__setattr__(self, "coeffs", tuple(coeffs))
        # bool, subclasses and non-ints take the loop, which names the index
        if not set(map(type, self.coeffs)) <= {int}:
            for n, c in enumerate(self.coeffs, start=1):
                if not isinstance(c, int):
                    raise TypeError(f"coefficient {n} is not an int: {c!r}")
        if len(self.coeffs) < 1:
            raise ValueError("a Dirichlet polynomial needs at least one coefficient")

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> int:
        """Coefficient of n^{-s} (one-based)."""
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"index must be an int, got {n!r}")
        if not 1 <= n <= len(self.coeffs):
            raise IndexError(f"index {n} outside 1..{len(self.coeffs)}")
        return self.coeffs[n - 1]

    def __iter__(self):
        return iter(self.coeffs)


def zeta_shift(a: int, n_terms: int) -> DirichletPoly:
    """zeta(s - a) truncated: coefficient n**a at n, for a >= 0."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    _require_int(a, "shift", least=0)
    return DirichletPoly(tuple(n**a for n in range(1, n_terms + 1)))


def zeta_poly(n_terms: int) -> DirichletPoly:
    """zeta(s) truncated: all coefficients 1."""
    return zeta_shift(0, n_terms)


def sparse(entries: Iterable[tuple[int, int]], n_terms: int) -> DirichletPoly:
    """Polynomial with the given (index, coefficient) entries, rest zero."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    coeffs: list[int] = [0] * n_terms
    seen: set[int] = set()
    for idx, value in entries:
        _require_int(idx, "sparse index", most=n_terms)
        if idx in seen:
            raise ValueError(f"duplicate sparse index {idx}")
        seen.add(idx)
        coeffs[idx - 1] = value
    return DirichletPoly(tuple(coeffs))


def mul(a: DirichletPoly, b: DirichletPoly) -> DirichletPoly:
    """Dirichlet convolution, truncated to min(|a|, |b|)."""
    n_out = min(len(a), len(b))
    out: list[int] = [0] * n_out
    for d, ad in enumerate(a.coeffs[:n_out], start=1):
        if ad != 0:
            for i, be in zip(range(d - 1, n_out, d), b.coeffs):
                if be != 0:
                    out[i] += ad * be
    return DirichletPoly(tuple(out))


def div(a: DirichletPoly, b: DirichletPoly) -> DirichletPoly:
    """The unique c with mul(b, c) = a, term by term; needs b(1) != 0.

    c(d) is final once each proper divisor of d has pushed its term
    forward.  Raises ValueError at the first d where b(1) does not
    divide it, the first index where c is not an integer.
    """
    b1 = b[1]
    if b1 == 0:
        raise ZeroDivisionError("divisor has zero leading coefficient")
    n_out = min(len(a), len(b))
    out: list[int] = list(a.coeffs[:n_out])
    b_rest = b.coeffs[1:]
    for d in range(1, n_out + 1):
        acc = out[d - 1]
        if acc % b1:
            raise ValueError(f"quotient coefficient {d} is not an integer")
        c = out[d - 1] = acc // b1
        if c != 0:
            for i, be in zip(range(2 * d - 1, n_out, d), b_rest):
                out[i] -= c * be
    return DirichletPoly(tuple(out))


def times_zeta(a: Iterable[int]) -> list[int]:
    """Divisor sums of a: a times zeta = prod_p (1 + p^-s)(1 + p^-2s)(1 + p^-4s)..."""
    out = list(a)
    n = len(out)
    for p in primes_upto(n):
        q = p
        while q <= n:
            out[q - 1 :: q] = map(add, out[q - 1 :: q], out[: n // q])
            q *= q
    return out


def over_zeta(a: Iterable[int]) -> list[int]:
    """Moebius sums of a: a divided by zeta, times (1 - p^-s) for each prime p."""
    out = list(a)
    n = len(out)
    for p in primes_upto(n):
        out[p - 1 :: p] = map(sub, out[p - 1 :: p], out[: n // p])
    return out


def dilate(a: DirichletPoly, k: int) -> DirichletPoly:
    """Substitute s -> ks: coefficient a(j) moves to index j**k.

    Composing with zeta_shift gives the even-argument zeta values, e.g.
    dilate(zeta_shift(c, N), 2) is zeta(2s - c) truncated to N.
    """
    _require_int(k, "k")
    n_out = len(a)
    out: list[int] = [0] * n_out
    j = 1
    while j**k <= n_out:
        out[j**k - 1] = a[j]
        j += 1
    return DirichletPoly(tuple(out))
