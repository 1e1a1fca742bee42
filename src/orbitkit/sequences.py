"""Sequence containers and the built-in example catalogue.

Sequences are one-indexed, immutable vectors of nonnegative integers.
The ``view`` tag records how the data is meant to be read:

* ORBIT  - number of closed orbits of each length,
* FIX    - number of points fixed by the n-th iterate,
* MONOID - number of weight-n elements of the orbit monoid.

Transforms and operators check views at their boundaries, so a FIX
vector is never fed to, say, the Euler transform by accident.
Each catalogue builtin checks its parameters, then its length in _vector.
"""

from __future__ import annotations

import enum
import sys
from itertools import accumulate, chain, count, islice, repeat
from math import gcd, prod
from operator import mul, sub
from typing import Iterator, Mapping, Union

from .numtheory import PrimeSet, _Value, _require_int, factorize, part

_TWO, _THREE = PrimeSet.finite((2,)), PrimeSet.finite((3,))


class View(enum.Enum):
    ORBIT = "orbit"
    FIX = "fix"
    MONOID = "monoid"


class ViewError(ValueError):
    """A sequence arrived with the wrong view tag."""


class Sequence(_Value):
    """One-indexed vector of nonnegative integers plus a view tag."""

    __slots__ = ("view", "terms")
    view: View
    terms: tuple[int, ...]

    def __init__(self, view: View, terms: tuple[int, ...]) -> None:
        object.__setattr__(self, "view", view)
        object.__setattr__(self, "terms", terms)
        self.__post_init__()

    # its own method, not part of __init__, because perfbench times it as sequences.validate
    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not isinstance(self.view, View):
            raise TypeError(f"view must be a View member, got {self.view!r}")
        if len(self.terms) < 1:
            raise ValueError("a sequence needs at least one term")
        # bool, subclasses and negatives take the loop, which names the index
        if set(map(type, self.terms)) <= {int} and min(self.terms) >= 0:
            return
        for i, t in enumerate(self.terms, start=1):
            if not isinstance(t, int) or isinstance(t, bool):
                raise TypeError(f"term {i} is not an int: {t!r}")
            if t < 0:
                raise ValueError(f"term {i} is negative: {t}")

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, n: int) -> int:
        """Term at one-based index n."""
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"index must be an int, got {n!r}")
        if not 1 <= n <= len(self.terms):
            raise IndexError(f"index {n} outside 1..{len(self.terms)}")
        return self.terms[n - 1]

    def __iter__(self):
        return iter(self.terms)

    def require_view(self, view: View, op: str) -> None:
        if self.view is not view:
            raise ViewError(
                f"{op} expects a {view.value} sequence, got {self.view.value}"
            )


def truncate(s: Sequence, m: int) -> Sequence:
    """First m terms of s, same view."""
    _require_int(m, "m", most=len(s))
    return Sequence(s.view, s.terms[:m])


# ---------------------------------------------------------------------------
# built-in catalogue
# ---------------------------------------------------------------------------


def _vector(view: View, n_terms: int, terms: Iterator[int]) -> Sequence:
    """The first n_terms of an endless iterator: every builtin's one length check."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    return Sequence(view, tuple(islice(terms, n_terms)))


def zeta(n_terms: int) -> Sequence:
    """One closed orbit of every length."""
    return _vector(View.ORBIT, n_terms, repeat(1))


def delta(n_terms: int) -> Sequence:
    """A single fixed point and nothing else."""
    return _vector(View.ORBIT, n_terms, chain((1,), repeat(0)))


def id_orbits(n_terms: int) -> Sequence:
    """n closed orbits of length n."""
    return _vector(View.ORBIT, n_terms, count(1))


def geometric(p: int, n_terms: int) -> Sequence:
    """p**n closed orbits of length n, for a base p >= 2."""
    _require_int(p, "p", least=2)
    return _vector(View.ORBIT, n_terms, accumulate(repeat(p), mul))


def s_p(primes: PrimeSet, n_terms: int) -> Sequence:
    """Indicator of the integers not divisible by any prime in the set."""
    return _vector(View.ORBIT, n_terms, (int(part(n, primes) == 1) for n in count(1)))


def feigenbaum(n_terms: int) -> Sequence:
    """One orbit at each power-of-two length, none elsewhere."""
    return _vector(View.ORBIT, n_terms, (int(part(n, _TWO) == n) for n in count(1)))


def ternary(n_terms: int) -> Sequence:
    """One orbit at each power-of-three length, none elsewhere."""
    return _vector(View.ORBIT, n_terms, (int(part(n, _THREE) == n) for n in count(1)))


def golden_mean(n_terms: int) -> Sequence:
    """Fixed-point counts of the golden mean shift: the Lucas numbers."""
    def lucas() -> Iterator[int]:
        a, b = 1, 3
        while True:
            yield a
            a, b = b, a + b
    return _vector(View.FIX, n_terms, lucas())


def full_shift(a: int, n_terms: int) -> Sequence:
    """Fixed-point counts a**n of the full shift on a >= 2 symbols."""
    _require_int(a, "a", least=2)
    return _vector(View.FIX, n_terms, accumulate(repeat(a), mul))


def dual_rational(a: int, b: int, n_terms: int) -> Sequence:
    """Fixed-point counts b**n - a**n for coprime 0 < a < b."""
    _require_int(a, "a")
    _require_int(b, "b", least=a + 1)
    if gcd(a, b) != 1:
        raise ValueError(f"a and b must be coprime, got gcd({a},{b})={gcd(a, b)}")
    powers_a, powers_b = accumulate(repeat(a), mul), accumulate(repeat(b), mul)
    return _vector(View.FIX, n_terms, map(sub, powers_b, powers_a))


def localized_23(n_terms: int) -> Sequence:
    """Fixed-point counts: the 3-part of 2**n - 1."""
    return _vector(View.FIX, n_terms, (part(2**n - 1, _THREE) for n in count(1)))


def s_integer_23(n_terms: int) -> Sequence:
    """Fixed-point counts: 2**n - 1 with its 3-part removed."""
    mersenne = (2**n - 1 for n in count(1))
    return _vector(View.FIX, n_terms, (m // part(m, _THREE) for m in mersenne))


def s_part_seq(primes: PrimeSet, n_terms: int) -> Sequence:
    """The largest divisor of n supported on the given primes, per n.

    Plain arithmetic data; tagged ORBIT since any nonnegative sequence
    is the orbit count of some map, and that is the view under which
    the dirichlet module consumes it.
    """
    return _vector(View.ORBIT, n_terms, (part(n, primes) for n in count(1)))


def a_s(primes: PrimeSet, n_terms: int) -> Sequence:
    """Weights a_{S,n} = prod_{p in S} ((p+1) p^{v_p(n)} - 2) / (p - 1).

    Primes of S not dividing n contribute a factor of 1, so cofinite
    sets are fine.  Every factor is a positive integer: p is 1 modulo
    p - 1, so (p+1) p^a - 2 is 2 - 2 = 0 modulo p - 1.  Tagged ORBIT,
    like s_part_seq, for the dirichlet module.
    """
    weights = (
        prod(((p + 1) * p**a - 2) // (p - 1) for p, a in factorize(n) if primes.contains(p))
        for n in count(1)
    )
    return _vector(View.ORBIT, n_terms, weights)


_CATALOGUE = {
    "zeta": ((), zeta),
    "delta": ((), delta),
    "id_orbits": ((), id_orbits),
    "geometric": (("p",), geometric),
    "s_P": (("P",), s_p),
    "feigenbaum": ((), feigenbaum),
    "ternary": ((), ternary),
    "golden_mean": ((), golden_mean),
    "full_shift": (("a",), full_shift),
    "dual_rational": (("a", "b"), dual_rational),
    "localized_23": ((), localized_23),
    "s_integer_23": ((), s_integer_23),
    "s_part_seq": (("S",), s_part_seq),
    "a_S": (("S",), a_s),
}


def builtin_names() -> list[str]:
    return sorted(_CATALOGUE)


def builtin(name: str, params: Mapping[str, Union[int, PrimeSet]], n_terms: int) -> Sequence:
    """Instantiate a catalogue entry, e.g. builtin("full_shift", {"a": 2}, n_terms)."""
    try:
        wanted, factory = _CATALOGUE[name]
    except KeyError:
        known = ", ".join(builtin_names())
        raise ValueError(f"unknown builtin {name!r}; known: {known}") from None
    given = set(params)
    if given != set(wanted):
        raise ValueError(
            f"builtin {name!r} takes parameters {sorted(wanted)}, got {sorted(given)}"
        )
    args = [params[k] for k in wanted]
    return factory(*args, n_terms)
