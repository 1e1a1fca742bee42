"""Search for factorizations of an orbit sequence as a product.

Given a target T, find all pairs (u, v) of nonnegative orbit sequences
with product_orbits(u, v) = T up to length N.  At index n the product
constraint is linear in the two unknowns u(n), v(n) once earlier values
are fixed, which keeps the backtracking narrow:

    T(n) - C = u(n) * B + v(n) * A + n * u(n) * v(n)

with A, B the partial fixed-point sums of u, v at n and C the portion
from strictly smaller indices.  Since A, B >= u(1), v(1) >= 1, each
candidate u(n) is bounded and determines at most one v(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .numtheory import divisors
from .sequences import Sequence, View


@dataclass(frozen=True)
class FactorPair:
    left: Sequence
    right: Sequence


@dataclass(frozen=True)
class FactorSearchResult:
    pairs: tuple[FactorPair, ...]
    truncated: bool


def factor_search(
    target: Sequence, n_terms: int | None = None, limit: int = 10_000
) -> FactorSearchResult:
    """All product factorizations of target to length n_terms.

    Pairs come out in lexicographic order of the left factor; (u, v)
    and (v, u) are both reported.  If more than ``limit`` pairs exist
    the list stops there and ``truncated`` is set.
    """
    target.require_view(View.ORBIT, "factor_search")
    n = len(target) if n_terms is None else n_terms
    if not 1 <= n <= len(target):
        raise ValueError(f"n_terms {n} outside 1..{len(target)}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if target[1] < 1:
        raise ValueError("target(1) must be >= 1 for any factorization to exist")

    # (d1, d2, gcd) with lcm(d1, d2) = m and both entries below m
    inner: dict[int, list[tuple[int, int, int]]] = {}
    proper: dict[int, list[int]] = {}
    for m in range(2, n + 1):
        divs = divisors(m)
        proper[m] = divs[:-1]
        inner[m] = [
            (d1, d2, gcd(d1, d2))
            for d1 in divs[:-1]
            for d2 in divs[:-1]
            if d1 * d2 == m * gcd(d1, d2)
        ]

    u = [0] * (n + 1)
    v = [0] * (n + 1)
    found: list[FactorPair] = []
    # stack[m - 1] yields the choices of (u(m), v(m)); depth-first, so
    # indices below m stay fixed while it is live
    first = target[1]
    stack = [iter([(d, first // d) for d in divisors(first)])]
    while stack:
        m = len(stack)
        choice = next(stack[-1], None)
        if choice is None:
            stack.pop()
            continue
        u[m], v[m] = choice
        if m < n:
            stack.append(_choices(target, m + 1, u, v, proper, inner))
            continue
        if len(found) >= limit:
            return FactorSearchResult(tuple(found), True)
        found.append(
            FactorPair(
                Sequence(View.ORBIT, tuple(u[1:])), Sequence(View.ORBIT, tuple(v[1:]))
            )
        )
    return FactorSearchResult(tuple(found), False)


def _choices(target, m, u, v, proper, inner) -> Iterator[tuple[int, int]]:
    """Each (u(m), v(m)) that meets target(m), by ascending u(m)."""
    a = sum(d * u[d] for d in proper[m])
    b = sum(d * v[d] for d in proper[m])
    r = target[m] - sum(u[d1] * v[d2] * g for d1, d2, g in inner[m])
    x = 0
    while x * b <= r:
        y, remainder = divmod(r - x * b, a + m * x)
        if remainder == 0:
            yield x, y
        x += 1
