"""Search for factorizations of an orbit sequence as a product.

Given a target T, find all pairs (u, v) of nonnegative orbit sequences
with product_orbits(u, v) = T up to length N.  Fixed points of a
product multiply, so once earlier values are fixed the constraint at
index n is one factorization of the target's fixed-point count:

    F_T(n) = (A + n * u(n)) * (B + n * v(n))

with A, B the fixed-point sums of u, v over the proper divisors of n.

The choices at n read u and v only at proper divisors of n, and no
index above N/2 divides another index up to N.  So once u and v are
fixed on 1..N/2 the upper indices choose independently: the search runs
depth-first over 1..N/2, and ``factor_blocks`` yields each complete
prefix as a block, with one choice list per upper index.
``factor_search`` expands the blocks into pairs by their Cartesian
product; a caller that only prints pairs can read the blocks instead.
"""

from __future__ import annotations

import sys
from itertools import islice, product
from typing import Iterator, NamedTuple

from .numtheory import _require_int, divisors
from .sequences import Sequence, View
from .transforms import orbit_to_fix


class FactorPair(NamedTuple):
    left: tuple[int, ...]  # u(1..N), indexed from zero
    right: tuple[int, ...]


class FactorSearchResult(NamedTuple):
    pairs: tuple[FactorPair, ...]
    truncated: bool


def factor_search(target: Sequence, *, limit: int = 10_000) -> FactorSearchResult:
    """All product factorizations of target; truncate(target, n) for a prefix.

    Pairs come out in lexicographic order of the left factor; (u, v)
    and (v, u) are both reported.  If more than ``limit`` pairs exist
    the list stops there and ``truncated`` is set.
    """
    target.require_view(View.ORBIT, "factor_search")
    _require_int(limit, "limit", most=sys.maxsize)  # islice's bound
    # the last index varies fastest and each list ascends in u(k), so the
    # pairs stay in lexicographic order of the left factor
    pairs = (
        FactorPair(left + us, right + vs)
        for left, right, upper in factor_blocks(target)
        for us, vs in (zip(*rest) for rest in product(*upper))
    )
    found = tuple(islice(pairs, limit))
    return FactorSearchResult(found, next(pairs, None) is not None)


def factor_blocks(target: Sequence) -> Iterator[tuple]:
    """Each factor pair block of target as (left, right, upper).

    left and right are u and v on 1..N/2; upper holds, for each index
    k = N/2 + 1..N in turn, the ascending list of its (u(k), v(k))
    choices, each list nonempty.  The block's pairs are the Cartesian
    product of those lists; blocks come in lexicographic order of left.
    """
    target.require_view(View.ORBIT, "factor_blocks")
    if target[1] < 1:
        raise ValueError("target(1) must be >= 1 for any factorization to exist")
    n = len(target)
    fix = orbit_to_fix(target).terms
    proper = [divisors(m)[:-1] for m in range(1, n + 1)]
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    half = n // 2
    # stack[m] yields the choices of (u(m), v(m)), indices below m fixed while
    # it is live; placeholder index 0 has one choice, so n = 1 has one prefix
    stack = [iter(((0, 0),))]
    while stack:
        m = len(stack) - 1
        choice = next(stack[-1], None)
        if choice is None:
            stack.pop()
            continue
        u[m], v[m] = choice
        if m < half:
            stack.append(_choices(fix, m + 1, u, v, proper))
            continue
        upper = [list(_choices(fix, k, u, v, proper)) for k in range(half + 1, n + 1)]
        if all(upper):
            yield tuple(u[1 : half + 1]), tuple(v[1 : half + 1]), upper


def _choices(fix, m, u, v, proper) -> Iterator[tuple[int, int]]:
    """Each (u(m), v(m)) that meets fix(m), by ascending u(m)."""
    f = fix[m - 1]
    a = sum(d * u[d] for d in proper[m - 1])
    b = sum(d * v[d] for d in proper[m - 1])
    # f >= T(1) >= 1 makes both factors positive: F_u(m) starts at the first
    # positive A + m*x (A = B = 0 only at m = 1), and F_v(m) >= max(B, 1)
    for fu in range(a or m, f // max(b, 1) + 1, m):
        fv, remainder = divmod(f, fu)
        if remainder == 0 and (fv - b) % m == 0:
            yield (fu - a) // m, (fv - b) // m
