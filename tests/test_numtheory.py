import itertools
import math
import re
import sys

import pytest
from hypothesis import given, strategies as st

from orbitkit import (
    PrimeSet,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    part,
    primes_upto,
    sigma_k,
)
from orbitkit import asymptotics, dirichlet, operators, oracle, sequences
from orbitkit.factorization import factor_search
from orbitkit.identities import run
from orbitkit.sequences import s_p
from orbitkit.transforms import orbit_to_fix
from helpers import (
    digit_limit, divisors_brute, mobius_brute, needs_digit_limit, phi_brute, sigma_brute,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(1, 50):
        assert is_prime(n) == (n in primes)


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(1000)) == 168


def test_primes_upto_matches_trial_division():
    reference = [p for p in range(3001) if is_prime(p)]
    for n in range(-3, 3001):
        assert primes_upto(n) == [p for p in reference if p <= n]


def test_factorize_known():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(2**10 * 3**4) == ((2, 10), (3, 4))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


@given(st.integers(min_value=1, max_value=5000))
def test_factorize_roundtrip(n):
    pairs = factorize(n)
    primes = [p for p, _ in pairs]
    assert primes == sorted(set(primes))  # distinct and ascending
    assert all(is_prime(p) for p in primes)
    assert all(a >= 1 for _, a in pairs)
    assert math.prod(p**a for p, a in pairs) == n


@given(st.integers(min_value=1, max_value=2000))
def test_divisors_match_brute(n):
    assert divisors(n) == divisors_brute(n)


def test_divisors_known_values():
    assert divisors(1) == [1]
    assert divisors(7919) == [1, 7919]
    assert divisors(2**20) == [2**j for j in range(21)]
    primes = (2, 3, 5, 7, 11, 13)
    subsets = (c for k in range(7) for c in itertools.combinations(primes, k))
    assert divisors(30030) == sorted(map(math.prod, subsets))
    assert divisors(720720) == divisors_brute(720720)
    assert len(divisors(720720)) == 240


@given(st.integers(min_value=1, max_value=2000))
def test_mobius_matches_brute(n):
    assert mobius(n) == mobius_brute(n)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=3))
def test_sigma_matches_brute(n, k):
    assert sigma_k(n, k) == sigma_brute(n, k)


def test_sigma_rejects_negative_exponent():
    with pytest.raises(ValueError):
        sigma_k(6, -1)


@given(st.integers(min_value=1, max_value=800))
def test_phi_matches_brute(n):
    assert euler_phi(n) == phi_brute(n)


class TestPrimeSet:
    def test_finite_membership(self):
        s = PrimeSet.finite((5, 2))
        assert s.primes == (2, 5)
        assert not s.cofinite
        assert s.contains(2) and s.contains(5)
        assert not s.contains(3)

    def test_cofinite_membership(self):
        s = PrimeSet.all_except((3,))
        assert s.cofinite
        assert s.contains(2) and s.contains(7919)
        assert not s.contains(3)

    def test_complement_involution(self):
        s = PrimeSet.finite((2, 7))
        assert s.complement().complement() == s
        assert s.complement().cofinite

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            PrimeSet.finite((4,))
        with pytest.raises(ValueError):
            PrimeSet.all_except((1,))

    def test_names_a_non_prime_before_the_order(self):
        for bad in (1, 0, -3):
            with pytest.raises(ValueError, match=f"^{bad} is not prime$"):
                PrimeSet.finite((bad,))
        with pytest.raises(ValueError, match="distinct and ascending"):
            PrimeSet(False, (3, 2))

    def test_keeps_any_iterable_as_a_tuple(self):
        # equal sets compare equal and hash alike, however the primes came in
        for given_primes in ([2, 3], iter((2, 3)), range(2, 4)):
            s = PrimeSet(False, given_primes)
            assert s.primes == (2, 3)
            assert s == PrimeSet.finite((3, 2))
            assert hash(s) == hash(PrimeSet.finite((2, 3)))
        assert PrimeSet(True, [5]) == PrimeSet.all_except((5,))

    @given(st.lists(st.sampled_from(primes_upto(60)), max_size=6), st.booleans(),
           st.integers(1, 200))
    def test_s_p_matches_brute_indicator(self, listed, cofinite, n):
        primes = PrimeSet.all_except(listed) if cofinite else PrimeSet.finite(listed)
        in_set = [p for p in range(2, n + 1) if is_prime(p) and (p in listed) != cofinite]
        expected = [0 if any(m % p == 0 for p in in_set) else 1 for m in range(1, n + 1)]
        assert list(s_p(primes, n)) == expected


def test_part_known_values():
    two = PrimeSet.finite((2,))
    assert part(40, two) == 8
    assert part(40, two.complement()) == 5
    assert part(7, two) == 1
    assert part(1, PrimeSet.all_except()) == 1
    assert part(360, PrimeSet.finite((2, 3))) == 72


def test_part_large_value_with_small_set():
    # the finite path must not factorize the 200-bit cofactor
    n = 2**200 - 1
    assert part(n, PrimeSet.finite((3,))) == 3
    assert part(2**18 - 1, PrimeSet.finite((3,))) == 27


@given(st.integers(min_value=1, max_value=3000))
def test_part_complement_product(n):
    for s in (PrimeSet.finite((2,)), PrimeSet.finite((2, 3)), PrimeSet.all_except((5,))):
        assert part(n, s) * part(n, s.complement()) == n


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=1000))
def test_part_multiplicative_on_coprimes(m, n):
    from math import gcd

    if gcd(m, n) != 1:
        return
    s = PrimeSet.finite((2, 7))
    assert part(m * n, s) == part(m, s) * part(n, s)


# every integer argument of the library goes through numtheory._require_int:
# label: (call with the value, the argument's name, least, most or None)
_Z6 = sequences.zeta(6)
_TWO = PrimeSet.finite((2,))
_INTEGER_ARGUMENTS = {
    "factorize": (factorize, "n", 1, None),
    "mobius": (mobius, "n", 1, None),
    "euler_phi": (euler_phi, "n", 1, None),
    "part": (lambda x: part(x, _TWO), "n", 1, None),
    "sigma_k-n": (lambda x: sigma_k(x, 1), "n", 1, None),
    "sigma_k-k": (lambda x: sigma_k(6, x), "k", 0, None),
    "zeta_shift-n_terms": (lambda x: dirichlet.zeta_shift(1, x), "n_terms", 1, sys.maxsize),
    "zeta_shift-shift": (lambda x: dirichlet.zeta_shift(x, 3), "shift", 0, None),
    "zeta_poly": (dirichlet.zeta_poly, "n_terms", 1, sys.maxsize),
    "sparse-n_terms": (lambda x: dirichlet.sparse([], x), "n_terms", 1, sys.maxsize),
    "sparse-index": (lambda x: dirichlet.sparse([(x, 5)], 3), "sparse index", 1, 3),
    "dilate": (lambda x: dirichlet.dilate(dirichlet.zeta_poly(4), x), "k", 1, None),
    "iterate_orbits": (lambda x: operators.iterate_orbits(_Z6, x), "k", 1, 6),
    "iterate_fix": (lambda x: operators.iterate_fix(orbit_to_fix(_Z6), x), "k", 1, 6),
    **{
        name: (factory, "n_terms", 1, sys.maxsize)
        for name, factory in [
            ("zeta", sequences.zeta),
            ("delta", sequences.delta),
            ("id_orbits", sequences.id_orbits),
            ("geometric", lambda x: sequences.geometric(2, x)),
            ("s_p", lambda x: sequences.s_p(_TWO, x)),
            ("feigenbaum", sequences.feigenbaum),
            ("ternary", sequences.ternary),
            ("golden_mean", sequences.golden_mean),
            ("full_shift", lambda x: sequences.full_shift(2, x)),
            ("dual_rational", lambda x: sequences.dual_rational(1, 2, x)),
            ("localized_23", sequences.localized_23),
            ("s_integer_23", sequences.s_integer_23),
            ("s_part_seq", lambda x: sequences.s_part_seq(_TWO, x)),
            ("a_s", lambda x: sequences.a_s(_TWO, x)),
        ]
    },
    "geometric-p": (lambda x: sequences.geometric(x, 3), "p", 2, None),
    "full_shift-a": (lambda x: sequences.full_shift(x, 3), "a", 2, None),
    "dual_rational-a": (lambda x: sequences.dual_rational(x, 5, 3), "a", 1, None),
    "dual_rational-b": (lambda x: sequences.dual_rational(2, x, 3), "b", 3, None),
    "truncate": (lambda x: sequences.truncate(_Z6, x), "m", 1, 6),
    "count_fixed": (lambda x: oracle.count_fixed(_Z6, x), "n", 1, 6),
    "monoid_by_partitions": (lambda x: oracle.monoid_by_partitions(_Z6, x), "order", 1, 6),
    "simulate_product": (
        lambda x: oracle.simulate_product(_Z6, sequences.zeta(4), x), "n_terms", 1, 4
    ),
    "iterate_by_gcd": (lambda x: oracle.iterate_by_gcd(_Z6, x), "k", 1, 6),
    "simulate_iterate-k": (lambda x: oracle.simulate_iterate(_Z6, x, 1), "k", 1, None),
    "simulate_iterate-n_terms": (lambda x: oracle.simulate_iterate(_Z6, 2, x), "n_terms", 1, 3),
    "cyclic_subgroup_count": (oracle.cyclic_subgroup_count, "n", 1, None),
    "primitive_lattice_count": (oracle.primitive_lattice_count, "n", 1, None),
    "factor_search": (lambda x: factor_search(_Z6, limit=x), "limit", 1, sys.maxsize),
    "pi_count": (lambda x: asymptotics.pi_count(_Z6, x), "n_max", 1, 6),
    "mertens_sum": (lambda x: asymptotics.mertens_sum(_Z6, x, 1.0), "n_max", 1, 6),
    "harmonic_number": (asymptotics.harmonic_number, "n", 1, None),
    "run": (lambda x: run("mobius-sum", x), "terms", 1, None),
}


def _bad_values(least, most):
    """(value, the rule it breaks): a bool, a float, and one past each bound."""
    yield True, "an integer, got True"
    yield 2.5, "an integer, got 2.5"
    yield least - 1, f"at least {least}, got {least - 1}"
    if most is not None:
        yield most + 1, f"at most {most}, got {most + 1}"


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, f"{name} must be {rule}", id=f"{label}-{value!r}")
    for label, (call, name, least, most) in _INTEGER_ARGUMENTS.items()
    for value, rule in _bad_values(least, most)
] + [
    # past the int/str digit limit, a value is shown by its sign and bit length
    pytest.param(asymptotics.harmonic_number, -10**5000,
                 "n must be at least 1, got a negative int of 16610 bits",
                 id="harmonic_number--10**5000", marks=needs_digit_limit),
    # and so is a bound past that limit
    pytest.param(lambda x: sequences.dual_rational(x, 5, 3), 10**5000,
                 "b must be at least an int of 16610 bits, got 5",
                 id="dual_rational-b-10**5000", marks=needs_digit_limit),
])
def test_every_integer_argument_has_one_check(call, value, message):
    with digit_limit(), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
