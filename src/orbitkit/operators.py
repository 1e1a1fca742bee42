"""Operators combining systems: product, disjoint union, iteration.

Both operators on maps act pointwise on fixed points, so each orbit route
runs orbit -> fix -> pointwise -> orbit: the product multiplies,
F_{T x S}(n) = F_T(n) F_S(n), and the k-th iterate dilates,
F_{T^k}(n) = F_T(kn).  Their referees in the oracle count orbits
directly, by the paper's gcd-weighted lcm sum and by the gcd split of
each cycle under the k-th power.
"""

from __future__ import annotations

from operator import add, mul

from .numtheory import _require_int
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


def iterate_fix(f: Sequence, k: int) -> Sequence:
    """Fixed points of the k-th iterate: F(kn), length |f| // k."""
    f.require_view(View.FIX, "iterate_fix")
    _require_int(k, "k", most=len(f))
    return Sequence(View.FIX, f.terms[k - 1 :: k])


def iterate_orbits(o: Sequence, k: int) -> Sequence:
    """Orbit counts of the k-th iterate, to length |o| // k."""
    o.require_view(View.ORBIT, "iterate_orbits")
    return fix_to_orbit(iterate_fix(orbit_to_fix(o), k))
