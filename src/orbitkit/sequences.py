"""Sequence containers and the built-in example catalogue.

Sequences are one-indexed, immutable vectors of nonnegative integers.
The ``view`` tag records how the data is meant to be read:

* ORBIT  - number of closed orbits of each length,
* FIX    - number of points fixed by the n-th iterate,
* MONOID - number of weight-n elements of the orbit monoid.

Transforms and operators check views at their boundaries, so a FIX
vector is never fed to, say, the Euler transform by accident.
"""

from __future__ import annotations

import enum
import sys
from math import gcd
from typing import Mapping, Union

from .numtheory import PrimeSet, _require_int, factorize, part

_THREE = PrimeSet.finite((3,))


class View(enum.Enum):
    ORBIT = "orbit"
    FIX = "fix"
    MONOID = "monoid"


class ViewError(ValueError):
    """A sequence arrived with the wrong view tag."""


class Sequence:
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.view is other.view and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.view, self.terms))

    def __repr__(self) -> str:
        return f"Sequence(view={self.view!r}, terms={self.terms!r})"

    def __setattr__(self, name, *_):
        raise AttributeError(f"Sequence is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

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


def zeta(n_terms: int) -> Sequence:
    """One closed orbit of every length."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    return Sequence(View.ORBIT, (1,) * n_terms)


def delta(n_terms: int) -> Sequence:
    """A single fixed point and nothing else."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    return Sequence(View.ORBIT, (1,) + (0,) * (n_terms - 1))


def id_orbits(n_terms: int) -> Sequence:
    """n closed orbits of length n."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    return Sequence(View.ORBIT, tuple(range(1, n_terms + 1)))


def geometric(p: int, n_terms: int) -> Sequence:
    """p**n closed orbits of length n, for a base p >= 2."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    _require_int(p, "p", least=2)
    return Sequence(View.ORBIT, tuple(p**n for n in range(1, n_terms + 1)))


def s_p(primes: PrimeSet, n_terms: int) -> Sequence:
    """Indicator of the integers not divisible by any prime in the set."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    return Sequence(
        View.ORBIT,
        tuple(1 if part(n, primes) == 1 else 0 for n in range(1, n_terms + 1)),
    )


def _at_powers(base: int, n_terms: int) -> Sequence:
    """One orbit at each length that is a power of base, none elsewhere."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    terms = [0] * n_terms
    k = 1
    while k <= n_terms:
        terms[k - 1] = 1
        k *= base
    return Sequence(View.ORBIT, tuple(terms))


def feigenbaum(n_terms: int) -> Sequence:
    """One orbit at each power-of-two length, none elsewhere."""
    return _at_powers(2, n_terms)


def ternary(n_terms: int) -> Sequence:
    """One orbit at each power-of-three length, none elsewhere."""
    return _at_powers(3, n_terms)


def golden_mean(n_terms: int) -> Sequence:
    """Fixed-point counts of the golden mean shift: the Lucas numbers."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    terms = []
    a, b = 1, 3
    for _ in range(n_terms):
        terms.append(a)
        a, b = b, a + b
    return Sequence(View.FIX, tuple(terms))


def full_shift(a: int, n_terms: int) -> Sequence:
    """Fixed-point counts a**n of the full shift on a >= 2 symbols."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    _require_int(a, "a", least=2)
    return Sequence(View.FIX, tuple(a**n for n in range(1, n_terms + 1)))


def dual_rational(a: int, b: int, n_terms: int) -> Sequence:
    """Fixed-point counts b**n - a**n for coprime 0 < a < b."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    _require_int(a, "a")
    _require_int(b, "b", least=a + 1)
    if gcd(a, b) != 1:
        raise ValueError(f"a and b must be coprime, got gcd({a},{b})={gcd(a, b)}")
    return Sequence(View.FIX, tuple(b**n - a**n for n in range(1, n_terms + 1)))


def localized_23(n_terms: int) -> Sequence:
    """Fixed-point counts: the 3-part of 2**n - 1."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    return Sequence(
        View.FIX, tuple(part(2**n - 1, _THREE) for n in range(1, n_terms + 1))
    )


def s_integer_23(n_terms: int) -> Sequence:
    """Fixed-point counts: 2**n - 1 with its 3-part removed."""
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    terms = []
    for n in range(1, n_terms + 1):
        m = 2**n - 1
        terms.append(m // part(m, _THREE))
    return Sequence(View.FIX, tuple(terms))


def s_part_seq(primes: PrimeSet, n_terms: int) -> Sequence:
    """The largest divisor of n supported on the given primes, per n.

    Plain arithmetic data; tagged ORBIT since any nonnegative sequence
    is the orbit count of some map, and that is the view under which
    the dirichlet module consumes it.
    """
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    return Sequence(View.ORBIT, tuple(part(n, primes) for n in range(1, n_terms + 1)))


def a_s(primes: PrimeSet, n_terms: int) -> Sequence:
    """Weights a_{S,n} = prod_{p in S} ((p+1) p^{v_p(n)} - 2) / (p - 1).

    Primes of S not dividing n contribute a factor of 1, so cofinite
    sets are fine.  Every factor is a positive integer: p is 1 modulo
    p - 1, so (p+1) p^a - 2 is 2 - 2 = 0 modulo p - 1.  Tagged ORBIT,
    like s_part_seq, for the dirichlet module.
    """
    _require_int(n_terms, "n_terms", most=sys.maxsize)
    terms = []
    for n in range(1, n_terms + 1):
        w = 1
        for p, a in factorize(n):
            if primes.contains(p):
                w *= ((p + 1) * p**a - 2) // (p - 1)
        terms.append(w)
    return Sequence(View.ORBIT, tuple(terms))


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
