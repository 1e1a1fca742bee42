import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitkit import (
    Sequence,
    View,
    ViewError,
    count_fixed,
    cyclic_subgroup_count,
    iterate_orbits,
    orbit_to_fix,
    primitive_lattice_count,
    product_formula,
    product_orbits,
    simulate_iterate,
    simulate_product,
)
from orbitkit import numtheory, oracle
from orbitkit.oracle import monoid_by_partitions, product_by_lcm
from orbitkit.sequences import delta, zeta
from helpers import divisors_brute, iterate_brute, product_brute, random_orbit

from math import gcd


def test_divisors_by_trial_match_brute():
    for n in range(1, 2001):
        assert oracle._divisors(n) == divisors_brute(n)


def test_oracle_calls_no_numtheory_kernel():
    # a referee that called the kernels it referees would fail with them
    bound = {name for name, value in vars(oracle).items()
             if getattr(value, "__module__", None) == numtheory.__name__}
    assert bound == {"_require_int"}
    assert numtheory not in vars(oracle).values()


def test_count_fixed_matches_transform():
    rng = random.Random(11)
    for _ in range(20):
        o = random_orbit(rng, 18, 4)
        f = orbit_to_fix(o)
        for n in range(1, 19):
            assert count_fixed(o, n) == f[n]


def test_count_fixed_respects_horizon():
    o = Sequence(View.ORBIT, (1, 1))
    assert count_fixed(o, 2) == 3
    with pytest.raises(ValueError, match="^n must be at most 2, got 3$"):
        count_fixed(o, 3)
    with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
        count_fixed(o, 0)


def test_simulate_product_respects_horizon():
    u = Sequence(View.ORBIT, (1, 1, 1))
    v = Sequence(View.ORBIT, (1, 1))
    assert simulate_product(u, v, 2) == product_orbits(u, v)
    with pytest.raises(ValueError, match="^n_terms must be at most 2, got 3$"):
        simulate_product(u, v, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: count_fixed(s, 1),
        lambda s: simulate_product(s, zeta(3), 1),
        lambda s: simulate_product(zeta(3), s, 1),
        lambda s: simulate_iterate(s, 1, 1),
    ],
)
def test_oracle_reads_only_orbit_counts(call):
    fix = Sequence(View.FIX, (1, 3, 4))
    with pytest.raises(ViewError, match="expects a orbit sequence, got fix"):
        call(fix)


def test_simulate_product_small():
    u = Sequence(View.ORBIT, (1, 1))  # fixed point plus a 2-cycle
    v = Sequence(View.ORBIT, (0, 2))  # two 2-cycles
    # n=2 gets 2 from the fixed point paired with each 2-cycle and
    # 2*2 from the 2-cycle paired with each 2-cycle
    got = simulate_product(u, v, 2)
    assert got == product_orbits(u, v)
    assert got.terms == (0, 6)


def test_simulate_product_zeta():
    z = zeta(6)
    got = simulate_product(z, z, 6)
    assert got.terms == (1, 4, 5, 10, 7, 20)


def test_simulate_product_random():
    rng = random.Random(12)
    for _ in range(60):
        u = random_orbit(rng, 10, 3)
        v = random_orbit(rng, 10, 3)
        assert simulate_product(u, v, 10) == product_orbits(u, v)


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40),
)
@settings(max_examples=60)
def test_product_by_lcm_matches_brute(u_terms, v_terms):
    u = Sequence(View.ORBIT, tuple(u_terms))
    v = Sequence(View.ORBIT, tuple(v_terms))
    assert list(product_by_lcm(u, v)) == product_brute(u, v)


def test_simulate_iterate_small():
    o = Sequence(View.ORBIT, (1, 1, 0, 1))
    got = simulate_iterate(o, 2, 2)
    assert got == iterate_orbits(o, 2)


def test_simulate_iterate_random():
    rng = random.Random(13)
    for _ in range(60):
        o = random_orbit(rng, 12, 3)
        k = rng.randint(1, 6)
        assert simulate_iterate(o, k, 12 // k) == iterate_orbits(o, k)


orbit_terms = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=14)


@given(orbit_terms, orbit_terms, st.data())
@settings(max_examples=60)
def test_simulate_product_matches_brute_below_the_horizon(u_terms, v_terms, data):
    u = Sequence(View.ORBIT, tuple(u_terms))
    v = Sequence(View.ORBIT, tuple(v_terms))
    m = data.draw(st.integers(min_value=1, max_value=min(len(u), len(v))))
    assert list(simulate_product(u, v, m)) == product_brute(u, v)[:m]


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60)
def test_simulate_iterate_matches_brute_below_the_horizon(k, data):
    terms = data.draw(st.lists(st.integers(min_value=0, max_value=4), min_size=k, max_size=36))
    o = Sequence(View.ORBIT, tuple(terms))
    m = data.draw(st.integers(min_value=1, max_value=len(o) // k))
    assert list(simulate_iterate(o, k, m)) == iterate_brute(o, k)[:m]


def test_simulate_iterate_horizon_guard():
    o = Sequence(View.ORBIT, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        simulate_iterate(o, 3, 2)  # needs 6 > horizon 4
    assert simulate_iterate(o, 2, 2) == iterate_orbits(o, 2)


def brute_cyclic_subgroups(n):
    # subgroups of C_n x C_n are counted via their cyclic generators
    seen = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        elements = sum(
            1
            for a in range(d)
            for b in range(d)
            if d // gcd(gcd(a, b), d) == d
        )
        phi_d = sum(1 for m in range(1, d + 1) if gcd(m, d) == 1)
        seen += elements // phi_d
    return seen


def test_cyclic_subgroup_count_small():
    assert cyclic_subgroup_count(1) == 1
    assert cyclic_subgroup_count(2) == 4
    assert cyclic_subgroup_count(4) == 10
    for n in range(1, 30):
        assert cyclic_subgroup_count(n) == brute_cyclic_subgroups(n)


def brute_primitive_lattices(n):
    count = 0
    for a in range(1, n + 1):
        if n % a:
            continue
        c = n // a
        for b in range(a):
            if gcd(gcd(a, b), c) == 1:
                count += 1
    return count


def test_primitive_lattice_count_small():
    assert primitive_lattice_count(1) == 1
    assert primitive_lattice_count(2) == 3
    assert primitive_lattice_count(4) == 6
    for n in range(1, 40):
        assert primitive_lattice_count(n) == brute_primitive_lattices(n)


def test_counts_tie_to_self_product():
    prod = product_orbits(zeta(40), zeta(40))
    for n in range(1, 41):
        assert cyclic_subgroup_count(n) == prod[n]
        divisor_sum = sum(
            primitive_lattice_count(d) for d in range(1, n + 1) if n % d == 0
        )
        assert divisor_sum == prod[n]


def test_monoid_by_partitions_known_counts():
    # all-ones orbits: the partition numbers; one fixed point: all ones
    assert monoid_by_partitions(zeta(10), 10).terms == (1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    assert monoid_by_partitions(delta(6), 6).terms == (1,) * 6
    assert monoid_by_partitions(zeta(10), 3).view is View.MONOID
    with pytest.raises(ValueError):
        monoid_by_partitions(zeta(4), 5)


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10))
@settings(max_examples=60)
def test_monoid_by_partitions_matches_product_formula(terms):
    o = Sequence(View.ORBIT, tuple(terms))
    assert monoid_by_partitions(o, len(o)) == product_formula(o)
