"""Brute-force reference implementations shared by the tests, and the CLI runner.

Everything here recomputes results from first principles, on purpose:
loops over all pairs instead of divisor tricks, so the library's
number-theoretic shortcuts are checked against something dumber.
"""

import contextlib
import io
import sys
from fractions import Fraction
from math import gcd
from random import Random
from unittest import mock

import pytest
from hypothesis import strategies as st

from orbitkit import NegativeError, NonIntegralError, Sequence, View
from orbitkit.cli import main

# for tests that set Python's int/str digit limit (3.10.7 and later have one)
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int/str digit limit"
)


@contextlib.contextmanager
def digit_limit(digits=None):
    """Python's int/str digit limit set to digits (None: its default) inside the block, where
    the interpreter has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits if digits is None else digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class _Unread(io.StringIO):
    @property
    def buffer(self):
        raise AssertionError("stdin was read")


def invoke(*argv, stdin=""):
    """Run the orbitkit CLI in-process: (exit code, stdout, stderr).

    stdin is what it reads: bytes or text written as UTF-8, on a buffer that can seek
    as a file redirected to stdin can, or an open binary stream, read as it is (None: a
    stdin that fails the test if read).  The runner takes no pytest fixture, so it also
    runs inside hypothesis's @given.
    """
    if isinstance(stdin, str):
        stdin = stdin.encode("utf-8")
    if isinstance(stdin, bytes):
        stdin = io.BytesIO(stdin)
    stdin = _Unread() if stdin is None else io.TextIOWrapper(stdin)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def divisors_brute(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius_brute(n):
    if n == 1:
        return 1
    count = 0
    for p in range(2, n + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            count += 1
    return -1 if count % 2 else 1


def sigma_brute(n, k):
    return sum(d**k for d in divisors_brute(n))


def phi_brute(n):
    return sum(1 for m in range(1, n + 1) if gcd(m, n) == 1)


def fix_from_orbit_brute(o: Sequence):
    """F(n) = sum of d * o(d) over divisors d of n."""
    return [
        sum(d * o[d] for d in divisors_brute(n))
        for n in range(1, len(o) + 1)
    ]


def invert_fix_brute(fix):
    """Orbit counts O(n) = (1/n) sum_{d|n} mu(n/d) F(d), one n at a time, or
    the (index, error class) of the first that is not a nonnegative integer."""
    out = []
    for n in range(1, len(fix) + 1):
        total = sum(mobius_brute(n // d) * fix[d - 1] for d in divisors_brute(n))
        if total % n:
            return n, NonIntegralError
        if total < 0:
            return n, NegativeError
        out.append(total // n)
    return out


def euler_inverse_brute(g):
    """Orbit counts whose Euler transform is g: fix counts from
    n g(n) = F(n) + sum_{k<n} F(k) g(n-k), one index at a time, then
    invert_fix_brute; or the (index, error class) of the first failure."""
    fix = []
    for n in range(1, len(g) + 1):
        value = n * g[n - 1]
        for k in range(1, n):
            value -= fix[k - 1] * g[n - k - 1]
        if value < 0:
            return n, NegativeError
        fix.append(value)
    return invert_fix_brute(fix)


def product_brute(u: Sequence, v: Sequence):
    """Orbit counts of the product, straight from the lcm double sum."""
    n_out = min(len(u), len(v))
    out = [0] * n_out
    for d1 in range(1, len(u) + 1):
        for d2 in range(1, len(v) + 1):
            m = d1 * d2 // gcd(d1, d2)
            if m <= n_out:
                out[m - 1] += u[d1] * v[d2] * gcd(d1, d2)
    return out


def iterate_brute(o: Sequence, k: int):
    """Orbit counts of T^k via fix counts: F_{T^k}(n) = F_T(kn)."""
    fix = fix_from_orbit_brute(o)
    n_out = len(o) // k
    out = []
    for n in range(1, n_out + 1):
        total = 0
        for d in divisors_brute(n):
            total += mobius_brute(n // d) * fix[k * d - 1]
        assert total % n == 0
        out.append(total // n)
    return out


def is_multiplicative_brute(terms):
    """The witness is_multiplicative must return: (1, 1) when s(1) != 1, else the
    lexicographically smallest coprime pair 2 <= m < n with s(mn) != s(m) s(n),
    mn within range, found by trying every pair; None when there is none."""
    if terms[0] != 1:
        return (1, 1)
    n_max = len(terms)
    for m in range(2, n_max + 1):
        for n in range(m + 1, n_max + 1):
            if m * n <= n_max and gcd(m, n) == 1 and terms[m * n - 1] != terms[m - 1] * terms[n - 1]:
                return (m, n)
    return None


def factor_search_dfs(target: Sequence, n_terms: int, limit: int):
    """Factor pairs of target to length n_terms as (pairs, truncated): a
    depth-first search over every index, each pair a (left, right) of
    tuples, in lexicographic order of the left factor, at most limit of
    them.  The search the library ran before it combined the indices
    above n/2 as one Cartesian product, kept as that search's referee.
    """
    fix = fix_from_orbit_brute(target)
    proper = [divisors_brute(m)[:-1] for m in range(1, n_terms + 1)]
    u = [0] * (n_terms + 1)
    v = [0] * (n_terms + 1)

    def choices(m):
        # F_T(m) = (A + m u(m)) (B + m v(m)), by ascending u(m)
        f = fix[m - 1]
        a = sum(d * u[d] for d in proper[m - 1])
        b = sum(d * v[d] for d in proper[m - 1])
        for fu in range(a or m, f // max(b, 1) + 1, m):
            fv, remainder = divmod(f, fu)
            if remainder == 0 and (fv - b) % m == 0:
                yield (fu - a) // m, (fv - b) // m

    found = []
    stack = [choices(1)]
    while stack:
        m = len(stack)
        choice = next(stack[-1], None)
        if choice is None:
            stack.pop()
            continue
        u[m], v[m] = choice
        if m < n_terms:
            stack.append(choices(m + 1))
            continue
        if len(found) >= limit:
            return found, True
        found.append((tuple(u[1:]), tuple(v[1:])))
    return found, False


def random_orbit(rng: Random, n: int, max_term: int) -> Sequence:
    return Sequence(View.ORBIT, tuple(rng.randint(0, max_term) for _ in range(n)))


def exp_series(a):
    """exp of a power series with zero constant term, in Fractions.

    Uses b' = a' b, i.e. n b(n) = sum_{k<=n} k a(k) b(n-k): the rational
    form of transforms.monoid_counts' recurrence, kept as its referee.
    """
    if a[0] != 0:
        raise ValueError(f"exp_series needs zero constant term, got {a[0]}")
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for n in range(1, len(a)):
        acc = sum((k * a[k] * out[n - k] for k in range(1, n + 1)), Fraction(0))
        out[n] = acc / n
    return out


def zeta_series_brute(fix):
    """Coefficients of exp(sum F(n) s^n / n) as ints, or the (index, error
    class) of the first one that is not a nonnegative integer."""
    series = exp_series([0] + [Fraction(f, n) for n, f in enumerate(fix, start=1)])
    for i, c in enumerate(series):
        if c.denominator != 1:
            return i, NonIntegralError
        if c < 0:
            return i, NegativeError
    return [int(c) for c in series]


def dirichlet_mul_brute(a, b):
    """Dirichlet convolution over all index pairs (d, e), truncated."""
    n_out = min(len(a), len(b))
    out = [0] * n_out
    for d in range(1, len(a) + 1):
        for e in range(1, len(b) + 1):
            if d * e <= n_out:
                out[d * e - 1] += a[d - 1] * b[e - 1]
    return out


def dirichlet_div_brute(a, b):
    """The c with b * c = a, solved index by index over all pairs in Fractions;
    its ints, or the ValueError that div raises at the first non-integer."""
    n_out = min(len(a), len(b))
    c = []
    for n in range(1, n_out + 1):
        acc = Fraction(a[n - 1])
        for d in range(1, n):
            for e in range(2, n + 1):
                if d * e == n:
                    acc -= c[d - 1] * b[e - 1]
        c.append(acc / b[0])
    for n, value in enumerate(c, start=1):
        if value.denominator != 1:
            raise ValueError(f"quotient coefficient {n} is not an integer")
    return [int(value) for value in c]


class SubInt(int):
    """An int subclass: accepted as a term, but not by a type-set fast path."""


def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def sequence_terms_brute(terms):
    """The terms as Sequence must store them, checked one at a time."""
    for i, t in enumerate(terms, start=1):
        if not isinstance(t, int) or isinstance(t, bool):
            raise TypeError(f"term {i} is not an int: {t!r}")
        if t < 0:
            raise ValueError(f"term {i} is negative: {t}")
    return tuple(terms)


def dirichlet_coeffs_brute(coeffs):
    """The coefficients as DirichletPoly must store them, checked one at a time."""
    for n, c in enumerate(coeffs, start=1):
        if not isinstance(c, int):
            raise TypeError(f"coefficient {n} is not an int: {c!r}")
    return tuple(coeffs)


# Term lists for the container referees: often all plain ints (the fast
# path), otherwise mixed with values only the per-term loop may judge.
mixed_terms = st.one_of(
    st.lists(st.integers(min_value=-3, max_value=10**30), min_size=1, max_size=12),
    st.lists(
        st.one_of(
            st.integers(min_value=-3, max_value=10**30),
            st.booleans(),
            st.integers(min_value=-3, max_value=9).map(SubInt),
            st.fractions(max_denominator=5),
            st.floats(allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    ),
)
