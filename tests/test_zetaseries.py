from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitkit import (
    NegativeError,
    NonIntegralError,
    NotRealizableError,
    Sequence,
    View,
    ViewError,
    convert,
    euler,
    fix_to_orbit,
    orbit_to_fix,
    product_formula,
)
from orbitkit.identities import PARTITION_TERMS
from orbitkit.oracle import monoid_by_partitions
from orbitkit.sequences import (
    delta,
    dual_rational,
    full_shift,
    golden_mean,
    s_integer_23,
    zeta,
)
from orbitkit.transforms import monoid_counts
from helpers import exp_series, zeta_series_brute


def test_exp_of_zero():
    assert exp_series([0]) == [1]


def test_exp_of_s():
    got = exp_series([0, 1, 0, 0])
    assert got == [1, 1, Fraction(1, 2), Fraction(1, 6)]


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        exp_series([1, 1])


def test_exp_geometric_log():
    # exp(sum 2^n s^n / n) = 1/(1 - 2s)
    a = [Fraction(2**n, n) if n else 0 for n in range(5)]
    assert exp_series(a) == [1, 2, 4, 8, 16]


def test_monoid_counts_golden_mean():
    got = convert(golden_mean(6), View.MONOID)
    assert got.view is View.MONOID
    assert got.terms == (1, 2, 3, 5, 8, 13)
    assert all(type(c) is int for c in got)


def test_monoid_counts_dual_rational():
    # (1, 3, 9, 27, 81, ...): convert expands the counts by monoid_counts
    assert convert(dual_rational(2, 3, 20), View.MONOID).terms == tuple(3**m for m in range(20))


def test_monoid_counts_full_shift():
    # 1/(1 - a s): the monoid count G(n) = a^n, forced by the Euler
    # recurrence n G(n) = F(n) + sum F(k) G(n-k)
    for a in (2, 3):
        got = convert(full_shift(a, 20), View.MONOID).terms
        assert got == tuple(a**m for m in range(1, 21))
        assert got == tuple(euler(fix_to_orbit(full_shift(a, 20))))


def test_monoid_counts_view_check():
    # convert reads the view tag: orbit data goes through euler, and is
    # not expanded as if it were fixed-point data
    o = zeta(4)
    assert convert(o, View.MONOID).terms == (1, 2, 3, 5)
    assert monoid_counts(o.terms) == [1, 1, 1, 1]


def test_monoid_counts_rejects_unrealizable():
    with pytest.raises(NonIntegralError, match="^monoid count at n=2 is not integral$") as err:
        monoid_counts((1, 2))
    assert err.value.index == 2
    with pytest.raises(NonIntegralError, match="^orbit count at n=2 is not integral$") as err:
        convert(Sequence(View.FIX, (1, 2)), View.MONOID)
    assert err.value.index == 2


def test_monoid_counts_rejects_a_negative_count():
    with pytest.raises(NegativeError, match="^monoid count at n=1 is negative$") as err:
        monoid_counts([-1])
    assert err.value.index == 1


def test_monoid_counts_checks_only_monoid_counts():
    # G = (2, 2) are nonnegative integers, yet O(2) = (F(2) - F(1)) / 2 = -1,
    # which convert finds before it expands the series
    f = Sequence(View.FIX, (2, 0))
    assert monoid_counts(f.terms) == [2, 2]
    with pytest.raises(NegativeError) as err:
        convert(f, View.MONOID)
    assert err.value.index == 2


def test_product_formula_partitions():
    got = product_formula(zeta(6))
    assert got.view is View.MONOID
    assert got.terms == (1, 2, 3, 5, 7, 11)
    assert all(type(c) is int for c in got)


def test_product_formula_delta():
    assert product_formula(delta(4)).terms == (1, 1, 1, 1)


def test_product_formula_view_check():
    with pytest.raises(ViewError):
        product_formula(golden_mean(4))


def test_s_integer_ninth_term():
    # both series routes agree that the ninth monoid count is 122
    o = fix_to_orbit(s_integer_23(10))
    via_product = product_formula(o)
    via_exp = convert(s_integer_23(10), View.MONOID)
    assert via_product == via_exp
    assert via_product.terms[:8] == (1, 1, 3, 4, 10, 13, 33, 56)
    assert via_product[9] == 122


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=24))
@settings(max_examples=60)
def test_three_routes_agree(terms):
    o = Sequence(View.ORBIT, tuple(terms))
    g = euler(o)
    assert product_formula(o) == g
    m = min(len(g), PARTITION_TERMS)
    assert monoid_by_partitions(o, m).terms == g.terms[:m]


fix_data = st.one_of(
    # arbitrary data: mostly not realizable, failing at varied orders
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=16),
    # realizable data, then possibly one term nudged
    st.builds(
        lambda orbits, at, bump: [
            f + (bump if n == at else 0)
            for n, f in enumerate(orbit_to_fix(Sequence(View.ORBIT, tuple(orbits))), 1)
        ],
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=16),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=3),
    ),
)


@given(fix_data)
@settings(max_examples=200)
def test_monoid_counts_matches_fraction_referee(fix):
    expected = zeta_series_brute(fix)
    if isinstance(expected, tuple):
        with pytest.raises(NotRealizableError) as err:
            monoid_counts(fix)
        assert (err.value.index, type(err.value)) == expected
    else:
        got = monoid_counts(fix)
        assert got == expected[1:]
        assert all(type(c) is int for c in got)
