import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitkit import PrimeSet, Sequence, View, factor_search, product_orbits
from orbitkit.factorization import factor_blocks
from orbitkit.sequences import delta, feigenbaum, s_p, ternary, truncate, zeta
from helpers import factor_search_dfs, fix_from_orbit_brute, product_brute, random_orbit


def orbits(terms):
    return Sequence(View.ORBIT, terms)


def test_delta_factors_uniquely():
    result = factor_search(delta(5))
    assert not result.truncated
    assert len(result.pairs) == 1
    assert result.pairs[0].left == delta(5).terms
    assert result.pairs[0].right == delta(5).terms


def test_single_term_enumerates_divisor_pairs():
    result = factor_search(Sequence(View.ORBIT, (12,)))
    lefts = [p.left[0] for p in result.pairs]
    rights = [p.right[0] for p in result.pairs]
    assert lefts == [1, 2, 3, 4, 6, 12]
    assert rights == [12, 6, 4, 3, 2, 1]


def test_zeta_ten_has_sixteen_pairs():
    result = factor_search(zeta(10))
    assert not result.truncated
    assert len(result.pairs) == 16
    for left, right in result.pairs:
        assert product_orbits(orbits(left), orbits(right)) == zeta(10)
        excluded = tuple(p for p in (2, 3, 5, 7) if left[p - 1] == 0)
        assert left == s_p(PrimeSet.finite(excluded), 10).terms
        assert right == s_p(PrimeSet.all_except(excluded), 10).terms
    # an indicator times the indicator of the complementary primes is zeta, at 100 terms too
    for pset in map(PrimeSet.finite, ((), (2,), (3,), (2, 7))):
        assert product_orbits(s_p(pset, 100), s_p(pset.complement(), 100)) == zeta(100)


def test_pairs_sorted_by_left_factor():
    result = factor_search(zeta(10))
    lefts = [p.left for p in result.pairs]
    assert lefts == sorted(lefts)


def test_rejects_zero_leading_term():
    with pytest.raises(ValueError):
        factor_search(Sequence(View.ORBIT, (0, 1)))


def test_rejects_limit_below_one():
    with pytest.raises(ValueError, match="^limit must be at least 1, got 0$"):
        factor_search(zeta(3), limit=0)


def test_truncation_flag():
    result = factor_search(zeta(30), limit=10)
    assert result.truncated
    assert len(result.pairs) == 10


def test_smooth_product_recovered():
    target = product_orbits(feigenbaum(12), ternary(12))
    result = factor_search(target)
    pairs = set(result.pairs)
    assert (feigenbaum(12).terms, ternary(12).terms) in pairs
    for left, right in result.pairs:
        assert product_orbits(orbits(left), orbits(right)) == target


def test_random_products_always_recovered():
    rng = random.Random(21)
    found = 0
    for _ in range(15):
        u = random_orbit(rng, 6, 2)
        v = random_orbit(rng, 6, 2)
        if u[1] * v[1] == 0:
            continue
        target = product_orbits(u, v)
        result = factor_search(target, limit=5000)
        pairs = set(result.pairs)
        if not result.truncated:
            assert (u.terms, v.terms) in pairs
            found += 1
        for left, right in result.pairs:
            assert product_orbits(orbits(left), orbits(right)) == target
    assert found >= 5


def test_result_is_swap_symmetric():
    result = factor_search(zeta(8))
    pairs = set(result.pairs)
    assert all((r, l) in pairs for l, r in pairs)


def test_matches_exhaustive_referee():
    # F_T(n) = F_u(n) F_v(n) >= n u(n) since F_v(n) >= v(1) >= 1, so every
    # factor pair has u(n), v(n) <= F_T(n) / n: try them all
    rng = random.Random(47)
    for _ in range(80):
        n = rng.randint(1, 4)
        target = Sequence(
            View.ORBIT, (rng.randint(1, 3), *(rng.randint(0, 3) for _ in range(n - 1)))
        )
        bounds = [range(f // m + 1) for m, f in enumerate(fix_from_orbit_brute(target), 1)]
        candidates = [Sequence(View.ORBIT, c) for c in itertools.product(*bounds)]
        expected = [
            (u.terms, v.terms)
            for u in candidates
            for v in candidates
            # index 1 of the lcm sum is u(1) v(1): a cheap first filter
            if u[1] * v[1] == target[1] and product_brute(u, v) == list(target.terms)
        ]
        result = factor_search(target)
        assert not result.truncated
        assert list(result.pairs) == expected


@st.composite
def search_cases(draw):
    """A product of two random orbit vectors, or a random vector that is
    mostly not one, with a prefix length and a limit."""
    n = draw(st.integers(1, 10))
    vector = st.tuples(st.integers(1, 3), *[st.integers(0, 3)] * (n - 1))
    if draw(st.booleans()):
        target = product_orbits(orbits(draw(vector)), orbits(draw(vector)))
    else:
        target = orbits(draw(vector))
    return target, draw(st.integers(1, n)), draw(st.sampled_from([1, 2, 3, 5, 10_000]))


@settings(max_examples=300, deadline=None)
@given(search_cases())
def test_matches_depth_first_referee(case):
    target, n_terms, limit = case
    result = factor_search(truncate(target, n_terms), limit=limit)
    assert (list(result.pairs), result.truncated) == factor_search_dfs(target, n_terms, limit)


@settings(max_examples=300, deadline=None)
@given(search_cases())
def test_blocks_expand_to_the_pairs_in_order(case):
    target, n_terms, _ = case
    pairs = factor_search_dfs(target, n_terms, 10**9)[0]
    blocks = list(factor_blocks(truncate(target, n_terms)))
    assert sum(math.prod(map(len, upper)) for _, _, upper in blocks) == len(pairs)
    expanded = [
        (left + tuple(u for u, _ in rest), right + tuple(v for _, v in rest))
        for left, right, upper in blocks
        for rest in itertools.product(*upper)
    ]
    assert expanded == pairs
    assert expanded == list(factor_search(truncate(target, n_terms), limit=10**9).pairs)
