from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from orbitkit import DirichletPoly, dilate, div, mul, sparse, zeta_poly, zeta_shift
from orbitkit.dirichlet import over_zeta, times_zeta
from orbitkit.sequences import delta, id_orbits, zeta
from orbitkit import product_orbits
from helpers import (
    dirichlet_coeffs_brute,
    dirichlet_div_brute,
    dirichlet_mul_brute,
    mixed_terms,
    outcome,
)

ints = st.integers(min_value=-6, max_value=6)


def poly(*values):
    return DirichletPoly(values)


def test_from_sequence():
    assert DirichletPoly(zeta(5).terms).coeffs == (1, 1, 1, 1, 1)
    assert DirichletPoly(id_orbits(4).terms).coeffs == (1, 2, 3, 4)
    assert DirichletPoly(delta(3).terms).coeffs == (1, 0, 0)
    assert all(type(c) is int for c in DirichletPoly(zeta(3).terms).coeffs)


@given(mixed_terms)
def test_validation_agrees_with_per_term_loop(coeffs):
    got = outcome(lambda: DirichletPoly(coeffs).coeffs)
    assert got == outcome(dirichlet_coeffs_brute, coeffs)


def test_keeps_the_numbers_it_is_given():
    p = poly(2, -1, 10**40)
    assert p.coeffs == (2, -1, 10**40)
    assert all(type(c) is int for c in p)
    # ints only, even where a Fraction or float is integral
    with pytest.raises(TypeError, match=r"^coefficient 2 is not an int: Fraction\(1, 2\)$"):
        poly(2, Fraction(1, 2), Fraction(4, 2))
    with pytest.raises(TypeError, match=r"^coefficient 1 is not an int: Fraction\(2, 1\)$"):
        poly(Fraction(4, 2))
    with pytest.raises(TypeError, match="^coefficient 2 is not an int: 0.5$"):
        poly(1, 0.5)
    with pytest.raises(TypeError, match="^coefficient 1 is not an int: 1.0$"):
        poly(1.0)


def test_one_indexed_getitem():
    p = poly(3, 7)
    assert p[1] == 3 and p[2] == 7
    with pytest.raises(IndexError):
        p[0]
    with pytest.raises(IndexError):
        p[3]
    for index in (True, 1.0, "1"):
        with pytest.raises(TypeError) as info:
            p[index]
        assert str(info.value) == f"index must be an int, got {index!r}"


def test_rejects_empty():
    with pytest.raises(ValueError):
        DirichletPoly(())


def test_mul_is_dirichlet_convolution():
    zz = mul(zeta_poly(12), zeta_poly(12))
    # coefficient n of zeta^2 is the divisor count
    assert zz[6] == 4
    assert zz[12] == 6
    assert zz.coeffs[:6] == (1, 2, 2, 3, 2, 4)


def test_mul_unit_and_length():
    a = poly(2, 5, 7, 11)
    assert mul(a, sparse([(1, 1)], 4)) == a
    assert len(mul(a, zeta_poly(2)).coeffs) == 2


def test_mobius_inverts_zeta():
    from orbitkit import mobius

    mu = DirichletPoly(mobius(n) for n in range(1, 51))
    assert mul(zeta_poly(50), mu) == sparse([(1, 1)], 50)


def test_div_roundtrip():
    a = poly(1, 4, 5, 10, 7, 20)
    assert div(a, a) == sparse([(1, 1)], 6)
    zz = mul(zeta_poly(8), zeta_poly(8))
    assert div(zz, zeta_poly(8)) == zeta_poly(8)


def test_div_requires_unit():
    with pytest.raises(ZeroDivisionError):
        div(zeta_poly(4), poly(0, 1, 0, 0))


def test_div_ttimest_series():
    n = 8
    num = mul(mul(zeta_poly(n), zeta_poly(n)), zeta_shift(1, n))
    got = div(num, dilate(zeta_poly(n), 2))
    assert got.coeffs == (1, 4, 5, 10, 7, 20, 9, 22)
    assert got == DirichletPoly(product_orbits(zeta(n), zeta(n)).terms)
    assert all(type(c) is int for c in got)


def test_div_rejects_a_non_integral_quotient():
    # the quotients are (1/2, 1/2, 1/2, 1/4) and (2, 1, 3, 3/2)
    with pytest.raises(ValueError, match="^quotient coefficient 1 is not an integer$"):
        div(poly(1, 1, 1, 1), poly(2, 0, 0, 1))
    with pytest.raises(ValueError, match="^quotient coefficient 4 is not an integer$"):
        div(poly(4, 2, 6, 3), poly(2, 0, 0, 0))
    got = div(poly(4, 2, 6, 2), poly(2, 0, 0, 0))
    assert got.coeffs == (2, 1, 3, 1)
    assert all(type(c) is int for c in got)


def test_zeta_shift():
    assert zeta_shift(0, 5) == zeta_poly(5)
    assert zeta_shift(1, 4).coeffs == (1, 2, 3, 4)
    assert zeta_shift(2, 3).coeffs == (1, 4, 9)
    with pytest.raises(ValueError):
        zeta_shift(-1, 4)


def test_dilate():
    squares = dilate(zeta_poly(10), 2)
    assert [squares[n] for n in range(1, 11)] == [1, 0, 0, 1, 0, 0, 0, 0, 1, 0]
    a = poly(3, 1, 4, 1)
    assert dilate(a, 1) == a
    assert dilate(sparse([(1, 1)], 6), 3) == sparse([(1, 1)], 6)
    with pytest.raises(ValueError):
        dilate(a, 0)


def test_dilate_of_shift_weights_squares():
    # coefficient j^c lands at j^2: the zeta(2s - c) prefix
    p = dilate(zeta_shift(1, 9), 2)
    assert [p[n] for n in range(1, 10)] == [1, 0, 0, 2, 0, 0, 0, 0, 3]


def test_sparse():
    p = sparse([(1, 5), (2, -2)], 4)
    assert p.coeffs == (5, -2, 0, 0)
    assert sparse([(1, 1)], 3).coeffs == (1, 0, 0)
    with pytest.raises(ValueError):
        sparse([(1, 1), (1, 2)], 4)  # duplicate index
    with pytest.raises(ValueError):
        sparse([(5, 1)], 4)  # out of range


@given(st.lists(ints, min_size=1, max_size=12), st.lists(ints, min_size=1, max_size=12))
@settings(max_examples=40)
def test_mul_commutes(a_coeffs, b_coeffs):
    a, b = DirichletPoly(a_coeffs), DirichletPoly(b_coeffs)
    assert mul(a, b) == mul(b, a)


@given(st.lists(ints, min_size=1, max_size=10))
@settings(max_examples=40)
def test_div_inverts_mul(coeffs):
    b = DirichletPoly(coeffs)
    if b[1] == 0:
        return
    a = poly(*range(1, len(coeffs) + 1))
    assert div(mul(a, b), b) == a


@given(st.lists(ints, min_size=1, max_size=30), st.lists(ints, min_size=1, max_size=30))
@settings(max_examples=100)
def test_integer_mul_matches_all_pairs_referee(a_coeffs, b_coeffs):
    got = mul(DirichletPoly(a_coeffs), DirichletPoly(b_coeffs))
    assert list(got) == dirichlet_mul_brute(a_coeffs, b_coeffs)
    assert all(type(c) is int for c in got)


@given(st.lists(ints, min_size=1, max_size=30), st.lists(ints, min_size=1, max_size=30))
@settings(max_examples=100)
def test_integer_div_matches_all_pairs_referee(a_coeffs, b_coeffs):
    if b_coeffs[0] == 0:
        return
    # the referee's ints, or the ValueError at its first non-integral coefficient
    got = outcome(lambda: list(div(DirichletPoly(a_coeffs), DirichletPoly(b_coeffs))))
    assert got == outcome(dirichlet_div_brute, a_coeffs, b_coeffs)
    if isinstance(got, list):
        assert all(type(c) is int for c in got)


@given(
    st.lists(ints, min_size=1, max_size=12),
    st.lists(st.integers(min_value=-10**30, max_value=10**30), min_size=1, max_size=12),
    st.data(),
)
@settings(max_examples=60)
def test_div_names_the_first_non_integral_index(b_coeffs, c_coeffs, data):
    if b_coeffs[0] == 0:
        return
    b = DirichletPoly(b_coeffs)
    a = list(mul(b, DirichletPoly(c_coeffs)))
    assert list(div(DirichletPoly(a), b)) == c_coeffs[: len(a)]
    if abs(b_coeffs[0]) == 1:
        return
    # r e_k / b is zero below k and r / b(1) at k, so the quotient first fails at k
    k = data.draw(st.integers(min_value=1, max_value=len(a)))
    a[k - 1] += data.draw(st.integers(min_value=1, max_value=abs(b_coeffs[0]) - 1))
    message = f"quotient coefficient {k} is not an integer"
    assert outcome(div, DirichletPoly(a), b) == (ValueError, message)
    assert outcome(dirichlet_div_brute, a, b_coeffs) == (ValueError, message)


@st.composite
def zeta_kernel_inputs(draw, max_size):
    """1..max_size coefficients: small ints of either sign, ints of up to 3000
    digits, or a mix.  A seeded Random builds the long lists, which would
    overrun hypothesis's own buffer."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    kind = draw(st.sampled_from(("int", "huge", "mixed")))
    rng = Random(draw(st.integers(min_value=0, max_value=2**32)))

    def term():
        k = rng.choice(("int", "huge")) if kind == "mixed" else kind
        if k == "int":
            return rng.randint(-50, 50)
        return rng.randint(-(10**3000), 10**3000)

    return [term() for _ in range(n)]


@given(zeta_kernel_inputs(400))
@settings(max_examples=100, deadline=None)
def test_zeta_kernels_match_the_harmonic_loops(coeffs):
    # over_zeta inverts the list it is given, in place, so each kernel gets a copy
    a, zeta = DirichletPoly(coeffs), zeta_poly(len(coeffs))
    times, over = times_zeta(list(coeffs)), list(coeffs)
    assert over_zeta(over) is over
    assert times == list(mul(a, zeta))
    assert over == list(div(a, zeta))
    assert all(type(c) is int for c in times + over)


@given(zeta_kernel_inputs(60))
@settings(max_examples=60, deadline=None)
def test_zeta_kernels_match_all_pairs_referee(coeffs):
    ones, over = [1] * len(coeffs), list(coeffs)
    assert times_zeta(list(coeffs)) == dirichlet_mul_brute(coeffs, ones)
    assert over_zeta(over) is over
    assert over == dirichlet_div_brute(coeffs, ones)


def test_zeta_kernels_known_values():
    # zeta times zeta counts divisors; Moebius is delta divided by zeta
    assert times_zeta([1] * 12) == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]
    assert over_zeta([1] + [0] * 11) == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert times_zeta([]) == over_zeta([]) == []
