"""Operators combining systems: product, disjoint union, iteration.

Fixed points of a product compose pointwise, so the orbit product runs
orbit -> fix -> pointwise product -> orbit; the paper's gcd-weighted lcm
sum is its referee in the oracle.  Iteration acts on fixed points by
dilation F_{T^k}(n) = F_T(kn), and on orbit counts by the divisor sum
over the part of k supported on primes missing from n.
"""

from __future__ import annotations

from operator import add, mul

from .numtheory import _require_int, factorize
from .sequences import Sequence, View
from .transforms import fix_to_orbit, orbit_to_fix


def product_orbits(u: Sequence, v: Sequence) -> Sequence:
    """Orbit counts of the Cartesian product, to length min(|u|, |v|)."""
    u.require_view(View.ORBIT, "product_orbits")
    v.require_view(View.ORBIT, "product_orbits")
    return fix_to_orbit(product_fix(orbit_to_fix(u), orbit_to_fix(v)))


def union_orbits(u: Sequence, v: Sequence) -> Sequence:
    """Orbit counts of the disjoint union: pointwise sum."""
    u.require_view(View.ORBIT, "union_orbits")
    v.require_view(View.ORBIT, "union_orbits")
    return Sequence(View.ORBIT, tuple(map(add, u.terms, v.terms)))


def product_fix(f: Sequence, g: Sequence) -> Sequence:
    """Fixed-point counts of the Cartesian product: pointwise product."""
    f.require_view(View.FIX, "product_fix")
    g.require_view(View.FIX, "product_fix")
    return Sequence(View.FIX, tuple(map(mul, f.terms, g.terms)))


def _check_power(k: int, available: int, op: str) -> int:
    _require_int(k, "k")
    n_out = available // k
    if n_out < 1:
        raise ValueError(
            f"{op} with k={k} needs at least {k} input terms, got {available}"
        )
    return n_out


def iterate_fix(f: Sequence, k: int) -> Sequence:
    """Fixed points of the k-th iterate: F(kn), length |f| // k."""
    f.require_view(View.FIX, "iterate_fix")
    n_out = _check_power(k, len(f), "iterate_fix")
    return Sequence(View.FIX, f.terms[k - 1 : k * n_out : k])


def iterate_orbits(o: Sequence, k: int) -> Sequence:
    """Orbit counts of the k-th iterate, computed directly.

    With J the primes of k missing from n and q their full contribution
    to k, the count is sum_{d | q} (k/d) * O(kn/d).  This never goes
    through fixed-point data, so it can cross-check the dilation route.
    """
    o.require_view(View.ORBIT, "iterate_orbits")
    n_out = _check_power(k, len(o), "iterate_orbits")
    k_pairs = factorize(k)
    terms = []
    for n in range(1, n_out + 1):
        divs = [1]  # the divisors of q, from k's own factorization
        for p, a in k_pairs:
            if n % p:
                divs += [d * p**j for j in range(1, a + 1) for d in divs]
        terms.append(sum((k // d) * o[k * n // d] for d in divs))
    return Sequence(View.ORBIT, tuple(terms))
