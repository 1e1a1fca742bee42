"""Brute-force ground truth via explicit unions of cycles.

Everything here is deliberately naive.  An orbit Sequence o is read
directly as its realization, o(n) cycles of length n for n up to
len(o).  Products and iterates are then one simulation, _trace: a
translation of the torus Z/d1 x Z/d2, followed point by point.  The
paper's gcd/lcm product sum referees the fixed-point route of the
operators module.  The orbit monoid's weight-n counts G(n) are the
coefficients of zeta_T(s) = prod_i (1 - s^i)^{-O(i)}: product_formula
multiplies that product out factor by factor and monoid_by_partitions
counts the elements, two referees for the Euler recurrence of the
transforms module.  Slow and dumb on purpose: these are the referees for
the clever routes, and they walk their own divisors (`_divisors`).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd, isqrt
from typing import Iterator

from .numtheory import _require_int
from .sequences import Sequence, View


def _divisors(n: int) -> list[int]:
    """Divisors of n, ascending: a trial of every d up to isqrt(n), then their cofactors."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def count_fixed(o: Sequence, n: int) -> int:
    """Points fixed by the n-th iterate: every point on a cycle whose
    length divides n."""
    o.require_view(View.ORBIT, "oracle.count_fixed")
    _require_int(n, "n", most=len(o))
    return sum(d * o[d] for d in _divisors(n))


def product_by_lcm(u: Sequence, v: Sequence) -> Sequence:
    """Orbit counts of the product by the paper's formula, to min(|u|, |v|):
    O(n) = sum over lcm(d1, d2) = n of u(d1) v(d2) gcd(d1, d2)."""
    u.require_view(View.ORBIT, "oracle.product_by_lcm")
    v.require_view(View.ORBIT, "oracle.product_by_lcm")
    n_out = min(len(u), len(v))
    terms = []
    for n in range(1, n_out + 1):
        divs = _divisors(n)
        total = 0
        for d1 in divs:
            for d2 in divs:
                g = gcd(d1, d2)
                if d1 * d2 == n * g:  # lcm(d1, d2) == n
                    total += u[d1] * v[d2] * g
        terms.append(total)
    return Sequence(View.ORBIT, tuple(terms))


def _trace(d1: int, d2: int, s1: int, s2: int, weight: int, counts: list[int]) -> None:
    """Walk (x, y) -> (x + s1 mod d1, y + s2 mod d2) around the d1 x d2 grid
    point by point, and add weight at each cycle length below len(counts)."""
    visited = bytearray(d1 * d2)
    for start in range(d1 * d2):
        if visited[start]:
            continue
        i, j = x, y = divmod(start, d2)
        length = 0
        while True:
            visited[x * d2 + y] = 1
            x, y, length = (x + s1) % d1, (y + s2) % d2, length + 1
            if x == i and y == j:
                break
        if length < len(counts):
            counts[length] += weight


def simulate_product(u: Sequence, v: Sequence, n_terms: int) -> Sequence:
    """Orbit counts of the product system, found by tracing points.

    A d1-cycle times a d2-cycle is the step (1, 1) on the d1 x d2 grid.
    Cycle pairs with equal lengths trace identically, so each grid is
    walked once and weighted by count1 * count2.
    """
    u.require_view(View.ORBIT, "oracle.simulate_product")
    v.require_view(View.ORBIT, "oracle.simulate_product")
    _require_int(n_terms, "n_terms", most=min(len(u), len(v)))
    counts = [0] * (n_terms + 1)
    for d1, c1 in enumerate(u.terms, start=1):
        for d2, c2 in enumerate(v.terms, start=1):
            if c1 and c2:  # a cycle of length d1 and one of length d2
                _trace(d1, d2, 1, 1, c1 * c2, counts)
    return Sequence(View.ORBIT, tuple(counts[1:]))


def simulate_iterate(o: Sequence, k: int, n_terms: int) -> Sequence:
    """Orbit counts of the k-th iterate, found by tracing points: the k-th
    iterate of a d-cycle is the step (k, 0) on the d x 1 grid."""
    o.require_view(View.ORBIT, "oracle.simulate_iterate")
    _require_int(k, "k")
    _require_int(n_terms, "n_terms", most=len(o) // k)
    counts = [0] * (n_terms + 1)
    for d, c in enumerate(o.terms, start=1):
        if c:
            _trace(d, 1, k, 0, c, counts)
    return Sequence(View.ORBIT, tuple(counts[1:]))


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts <= largest, parts non-increasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


@lru_cache(maxsize=16)  # three-route-monoid asks for orders 1..12 again for each of its cases
def _partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_partitions(n, n))


def monoid_by_partitions(o: Sequence, order: int) -> Sequence:
    """Weight-n counts of the orbit monoid for n = 1..order, by counting.

    A weight-n element takes m_i orbits of length i, with repetition,
    for a partition of n with part multiplicities m_i: that is
    prod_i C(O(i)+m_i-1, m_i) elements per partition.  Exponential in
    order, so only for small orders.
    """
    o.require_view(View.ORBIT, "oracle.monoid_by_partitions")
    _require_int(order, "order", most=len(o))
    counts = []
    for n in range(1, order + 1):
        total = 0
        for parts in _partitions_of(n):
            ways = 1
            for i in set(parts):
                m = parts.count(i)
                ways *= comb(o[i] + m - 1, m)
            total += ways
        counts.append(total)
    return Sequence(View.MONOID, tuple(counts))


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


def cyclic_subgroup_count(n: int) -> int:
    """Number of cyclic subgroups of Z/n x Z/n.

    Over the divisors d of n, ascending: d*d less the counts at the smaller
    divisors of d is the number of elements of exact order d, and d less
    theirs is phi(d), the number that each cyclic subgroup of order d owns.
    """
    _require_int(n, "n")
    exact, phi = {}, {}  # keyed by the divisors of n seen so far
    for d in _divisors(n):
        smaller = [e for e in exact if d % e == 0]
        exact[d] = d * d - sum(exact[e] for e in smaller)
        phi[d] = d - sum(phi[e] for e in smaller)
    return sum(exact[d] // phi[d] for d in exact)


def primitive_lattice_count(n: int) -> int:
    """Number of primitive index-n sublattices of Z^2.

    Hermite normal form: bases ((a, b), (0, c)) with ac = n and
    0 <= b < a, primitive when gcd(a, b, c) = 1.
    """
    _require_int(n, "n")
    total = 0
    for a in _divisors(n):
        c = n // a
        g = gcd(a, c)
        for b in range(a):
            if gcd(g, b) == 1:
                total += 1
    return total
