import itertools
import random

import pytest

from orbitkit import PrimeSet, Sequence, View, factor_search, product_orbits
from orbitkit.sequences import delta, feigenbaum, s_p, ternary, zeta
from helpers import fix_from_orbit_brute, product_brute, random_orbit


def test_delta_factors_uniquely():
    result = factor_search(delta(5), 5)
    assert not result.truncated
    assert len(result.pairs) == 1
    assert result.pairs[0].left == delta(5)
    assert result.pairs[0].right == delta(5)


def test_single_term_enumerates_divisor_pairs():
    result = factor_search(Sequence(View.ORBIT, (12,)), 1)
    lefts = [p.left[1] for p in result.pairs]
    rights = [p.right[1] for p in result.pairs]
    assert lefts == [1, 2, 3, 4, 6, 12]
    assert rights == [12, 6, 4, 3, 2, 1]


def test_zeta_ten_has_sixteen_pairs():
    result = factor_search(zeta(10), 10)
    assert not result.truncated
    assert len(result.pairs) == 16
    for pair in result.pairs:
        assert product_orbits(pair.left, pair.right) == zeta(10)
        excluded = tuple(p for p in (2, 3, 5, 7) if pair.left[p] == 0)
        assert pair.left == s_p(PrimeSet.finite(excluded), 10)
        assert pair.right == s_p(PrimeSet.all_except(excluded), 10)


def test_pairs_sorted_by_left_factor():
    result = factor_search(zeta(10), 10)
    lefts = [p.left.terms for p in result.pairs]
    assert lefts == sorted(lefts)


def test_rejects_zero_leading_term():
    with pytest.raises(ValueError):
        factor_search(Sequence(View.ORBIT, (0, 1)), 2)


def test_truncation_flag():
    result = factor_search(zeta(30), 30, limit=10)
    assert result.truncated
    assert len(result.pairs) == 10


def test_smooth_product_recovered():
    target = product_orbits(feigenbaum(12), ternary(12))
    result = factor_search(target, 12)
    pairs = {(p.left.terms, p.right.terms) for p in result.pairs}
    assert (feigenbaum(12).terms, ternary(12).terms) in pairs
    for pair in result.pairs:
        assert product_orbits(pair.left, pair.right) == target


def test_random_products_always_recovered():
    rng = random.Random(21)
    found = 0
    for _ in range(15):
        u = random_orbit(rng, 6, 2)
        v = random_orbit(rng, 6, 2)
        if u[1] * v[1] == 0:
            continue
        target = product_orbits(u, v)
        result = factor_search(target, 6, limit=5000)
        pairs = {(p.left.terms, p.right.terms) for p in result.pairs}
        if not result.truncated:
            assert (u.terms, v.terms) in pairs
            found += 1
        for pair in result.pairs:
            assert product_orbits(pair.left, pair.right) == target
    assert found >= 5


def test_result_is_swap_symmetric():
    result = factor_search(zeta(8), 8)
    pairs = {(p.left.terms, p.right.terms) for p in result.pairs}
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
        result = factor_search(target, n)
        assert not result.truncated
        assert [(p.left.terms, p.right.terms) for p in result.pairs] == expected
