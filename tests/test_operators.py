import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitkit import (
    Sequence,
    View,
    ViewError,
    fix_to_orbit,
    iterate_fix,
    iterate_orbits,
    orbit_to_fix,
    product_fix,
    product_orbits,
    union_orbits,
)
from orbitkit.sequences import delta, feigenbaum, full_shift, id_orbits, zeta
from helpers import iterate_brute, product_brute, random_orbit

short_orbit = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=24)


def test_product_zeta_squared():
    assert product_orbits(zeta(8), zeta(8)).terms == (1, 4, 5, 10, 7, 20, 9, 22)


def test_product_view_checks():
    with pytest.raises(ViewError):
        product_orbits(zeta(4), full_shift(2, 4))
    with pytest.raises(ViewError):
        product_fix(full_shift(2, 4), zeta(4))


def test_product_fix_is_pointwise():
    got = product_fix(full_shift(2, 4), full_shift(3, 4))
    assert got.terms == (6, 36, 216, 1296)
    assert got[2] == 36


def test_product_length_is_min():
    got = product_orbits(zeta(8), zeta(5))
    assert len(got) == 5


@given(short_orbit, short_orbit)
@settings(max_examples=60)
def test_product_matches_brute(u_terms, v_terms):
    u = Sequence(View.ORBIT, tuple(u_terms))
    v = Sequence(View.ORBIT, tuple(v_terms))
    assert list(product_orbits(u, v)) == product_brute(u, v)


@given(short_orbit, short_orbit)
@settings(max_examples=40)
def test_product_commutes(u_terms, v_terms):
    u = Sequence(View.ORBIT, tuple(u_terms))
    v = Sequence(View.ORBIT, tuple(v_terms))
    assert product_orbits(u, v) == product_orbits(v, u)


def test_union_adds():
    got = union_orbits(feigenbaum(6), zeta(6))
    assert got.terms == (2, 2, 1, 2, 1, 1)


def test_union_is_orbit_only():
    with pytest.raises(ViewError):
        union_orbits(full_shift(2, 4), zeta(4))


def test_iterate_identity_squared():
    assert iterate_orbits(id_orbits(16), 2).terms == (5, 8, 15, 16, 25, 24, 35, 32)


def test_iterate_identity_fourth():
    t = iterate_orbits(id_orbits(200), 4)
    for n in range(1, 51):
        assert t[n] == (16 * n if n % 2 == 0 else 21 * n)


def test_iterate_fix_is_dilation():
    f = full_shift(2, 12)
    t = iterate_fix(f, 3)
    assert t.terms == (8, 64, 512, 4096)
    assert t[2] == 64
    assert t.view is View.FIX


def test_iterate_feigenbaum_squared():
    t = iterate_orbits(feigenbaum(256), 2)
    assert t.terms[:8] == (3, 2, 0, 2, 0, 0, 0, 2)
    # past m = 1, the square has two orbits at each power of two and none elsewhere
    assert t.terms[1:] == tuple(2 if m & (m - 1) == 0 else 0 for m in range(2, 129))


def test_iterate_k_one_is_identity():
    o = zeta(6)
    assert iterate_orbits(o, 1) == o


def test_iterate_argument_checks():
    with pytest.raises(ValueError):
        iterate_orbits(zeta(6), 0)
    with pytest.raises(ValueError):
        iterate_orbits(zeta(3), 4)  # not enough terms for a single output
    with pytest.raises(ViewError):
        iterate_orbits(full_shift(2, 6), 2)


# k = 6, 12 and 30 have two or three primes, each missing from some n
@given(st.one_of(st.integers(min_value=1, max_value=6), st.sampled_from([12, 30])), st.data())
@settings(max_examples=60)
def test_iterate_matches_brute(k, data):
    terms = data.draw(st.lists(st.integers(min_value=0, max_value=4),
                               min_size=k, max_size=4 * k + 20))
    o = Sequence(View.ORBIT, tuple(terms))
    assert list(iterate_orbits(o, k)) == iterate_brute(o, k)


def test_iterate_consistent_with_fix_route():
    rng = random.Random(42)
    for _ in range(30):
        o = random_orbit(rng, 36, 4)
        for k in (2, 3, 4, 6):
            via_fix = fix_to_orbit(iterate_fix(orbit_to_fix(o), k))
            assert iterate_orbits(o, k) == via_fix


def test_iterate_composes():
    rng = random.Random(43)
    o = random_orbit(rng, 60, 3)
    lhs = iterate_orbits(iterate_orbits(o, 2), 3)
    rhs = iterate_orbits(o, 6)
    assert lhs == rhs


def test_product_with_delta_is_identity():
    rng = random.Random(44)
    o = random_orbit(rng, 20, 5)
    assert product_orbits(o, delta(20)) == o
    assert product_orbits(delta(20), o) == o
