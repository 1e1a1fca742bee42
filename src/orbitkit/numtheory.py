"""Exact elementary number theory used throughout the library.

Plain trial division in factorize, which divisors builds on, and in mobius
and is_prime: whole-vector divisor sums run in dirichlet, so these per-n
calls serve only identities, referees and the factor search.  The one
sieve lists the primes for dirichlet's Euler-product kernels.  Exact ints.
_require_int is the one check of every integer argument in the library.
_Value is the one frozen-value base of PrimeSet, Sequence and DirichletPoly.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt
from typing import Iterable, Optional


def _require_int(value: int, name: str, least: Optional[int] = 1,
                 most: Optional[int] = None) -> None:
    """The one integer argument check: an int, not a bool, in least..most (None: unbounded)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {_shown(least)}, got {_shown(value)}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {_shown(most)}, got {_shown(value)}")


def _shown(value) -> str:
    """repr(value), or an int's sign and bit length where repr would pass the digit limit."""
    try:
        return repr(value)
    except ValueError:  # an int past the interpreter's int/str digit limit
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_upto(n: int) -> list[int]:
    """The primes up to n, ascending, by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes((n - p * p) // p + 1)
    return list(compress(range(n + 1), sieve))


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Ascending (prime, exponent) pairs of n by trial division; () for n = 1."""
    _require_int(n, "n")
    pairs: list[tuple[int, int]] = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            pairs.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending: the products of its prime powers."""
    out = [1]
    for p, a in factorize(n):
        out += [d * p**j for j in range(1, a + 1) for d in out]
    return sorted(out)


def mobius(n: int) -> int:
    """Moebius mu: (-1)^k for squarefree n with k prime factors, else 0."""
    _require_int(n, "n")
    out = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1 if p == 2 else 2
    if m > 1:
        out = -out
    return out


def sigma_k(n: int, k: int) -> int:
    """Sum of d**k over the divisors d of n."""
    _require_int(n, "n")
    _require_int(k, "k", least=0)
    out = 1
    for p, a in factorize(n):
        out *= sum(p ** (k * j) for j in range(a + 1))
    return out


def euler_phi(n: int) -> int:
    """Euler totient."""
    _require_int(n, "n")
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


class _Value:
    """Frozen, and checks nothing: equal to its own class only, hashed and printed by its fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, *_):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class PrimeSet(_Value):
    """A finite or cofinite set of primes.

    With ``cofinite=False`` the set is exactly ``primes``; with
    ``cofinite=True`` it is every prime *except* ``primes``.  The listed
    primes are kept sorted, so equal sets compare equal.
    """

    __slots__ = ("cofinite", "primes")
    cofinite: bool
    primes: tuple[int, ...]

    def __init__(self, cofinite: bool, primes: Iterable[int]) -> None:
        object.__setattr__(self, "cofinite", cofinite)
        object.__setattr__(self, "primes", tuple(primes))
        last = 1
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p <= last:
                raise ValueError("listed primes must be distinct and ascending")
            last = p

    @classmethod
    def finite(cls, primes: Iterable[int] = ()) -> "PrimeSet":
        return cls(False, sorted(set(primes)))

    @classmethod
    def all_except(cls, excluded: Iterable[int] = ()) -> "PrimeSet":
        """The cofinite set of all primes outside ``excluded``."""
        return cls(True, sorted(set(excluded)))

    def complement(self) -> "PrimeSet":
        return PrimeSet(not self.cofinite, self.primes)

    def contains(self, p: int) -> bool:
        if not self.cofinite:
            return p in self.primes
        return is_prime(p) and p not in self.primes


def part(n: int, s: PrimeSet) -> int:
    """Largest divisor of n whose prime factors all lie in s.

    For a finite s this never factors n, so it stays cheap even when n
    is an enormous integer such as 2**200 - 1.
    """
    _require_int(n, "n")
    if not s.cofinite:
        out = 1
        m = n
        for p in s.primes:
            while m % p == 0:
                m //= p
                out *= p
        return out
    out = 1
    for p, a in factorize(n):
        if p not in s.primes:
            out *= p**a
    return out
