from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from orbitkit import (
    NegativeError,
    NonIntegralError,
    NotRealizableError,
    PrimeSet,
    Sequence,
    View,
    ViewError,
    convert,
    euler,
    euler_inverse,
    fix_to_orbit,
    format_bfile,
    is_multiplicative,
    orbit_to_fix,
    part,
    product_formula,
)
from orbitkit.sequences import feigenbaum, geometric, golden_mean, id_orbits, zeta
from orbitkit.transforms import monoid_counts
from helpers import (
    euler_inverse_brute,
    fix_from_orbit_brute,
    invert_fix_brute,
    invoke,
    is_multiplicative_brute,
    random_orbit,
)

orbit_terms = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=64)


@st.composite
def fix_data(draw):
    """Nonnegative data, mostly not realizable: raw random terms, or true fix
    counts with one term nudged, so the first failure can sit deep."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=40))
    fix = fix_from_orbit_brute(Sequence(View.ORBIT, tuple(draw(orbit_terms))))
    i = len(fix) - 1 - draw(st.integers(min_value=0, max_value=len(fix) - 1))
    if draw(st.booleans()):
        fix[i] += draw(st.integers(min_value=1, max_value=i + 1))
    else:  # a multiple of i + 1: integral, but may leave O(i + 1) negative
        fix[i] = max(0, fix[i] - (i + 1) * draw(st.integers(min_value=1, max_value=3)))
    return fix


def test_orbit_to_fix_id():
    # orbits = identity map counts give F(n) = sigma_2(n)
    f = orbit_to_fix(id_orbits(6))
    assert f.view is View.FIX
    assert f.terms == (1, 5, 10, 21, 26, 50)
    # the doubling cascade has F(n) = 2 * (2-part of n) - 1
    fix = tuple(2 * part(m, PrimeSet.finite((2,))) - 1 for m in range(1, 257))
    assert orbit_to_fix(feigenbaum(256)).terms == fix


def test_fix_to_orbit_golden_mean():
    o = fix_to_orbit(golden_mean(10))
    assert o.terms == (1, 1, 1, 1, 2, 2, 4, 5, 8, 11)


def test_orbit_to_fix_requires_view():
    with pytest.raises(ViewError):
        orbit_to_fix(golden_mean(4))
    with pytest.raises(ViewError):
        fix_to_orbit(zeta(4))


@given(orbit_terms)
def test_moebius_roundtrip(terms):
    o = Sequence(View.ORBIT, tuple(terms))
    f = orbit_to_fix(o)
    assert list(f) == fix_from_orbit_brute(o)
    assert fix_to_orbit(f) == o


@given(fix_data())
@settings(max_examples=200)
def test_invert_fix_matches_brute(terms):
    f = Sequence(View.FIX, tuple(terms))
    expected = invert_fix_brute(terms)
    if isinstance(expected, list):
        assert list(fix_to_orbit(f)) == expected
    else:
        with pytest.raises(NotRealizableError) as err:
            fix_to_orbit(f)
        assert (err.value.index, type(err.value)) == expected


@given(fix_data())
@settings(max_examples=200)
def test_fix_to_monoid_is_the_zeta_series(terms):
    f = Sequence(View.FIX, tuple(terms))
    try:
        o = fix_to_orbit(f)
    except NotRealizableError as expected:
        with pytest.raises(NotRealizableError) as err:
            convert(f, View.MONOID)
        assert (type(err.value), err.value.index, str(err.value)) == (
            type(expected), expected.index, str(expected)
        )
    else:
        g = convert(f, View.MONOID)
        assert g.view is View.MONOID
        assert list(g) == monoid_counts(f.terms)
        assert g == product_formula(o)


@st.composite
def deep_fix_data(draw):
    """An orbit vector of 1..400 terms, small or of about 3000 digits, its fix
    counts, and the fix counts with one term nudged: mostly not realizable,
    with the first failure anywhere."""
    n = draw(st.integers(min_value=1, max_value=400))
    digits = draw(st.sampled_from((2, 3000)))
    rng = Random(draw(st.integers(min_value=0, max_value=2**32)))
    o = Sequence(View.ORBIT, tuple(rng.randrange(10**digits) for _ in range(n)))
    fix = fix_from_orbit_brute(o)
    bad = list(fix)
    i = draw(st.integers(min_value=0, max_value=n - 1))
    if draw(st.booleans()):
        bad[i] += draw(st.integers(min_value=1, max_value=i + 1))
    else:  # integral, and O(i + 1) negative unless clamping at 0 breaks integrality
        bad[i] = max(0, bad[i] - (i + 1) * (o[i + 1] + draw(st.integers(1, 3))))
    return o, fix, bad


@given(deep_fix_data())
@settings(max_examples=60, deadline=None)
def test_long_and_huge_data_match_brute(data):
    o, fix, bad = data
    assert list(orbit_to_fix(o)) == fix
    assert fix_to_orbit(Sequence(View.FIX, tuple(fix))) == o
    expected = invert_fix_brute(bad)
    f = Sequence(View.FIX, tuple(bad))
    if isinstance(expected, list):
        assert list(fix_to_orbit(f)) == expected
    else:
        with pytest.raises(NotRealizableError) as err:
            fix_to_orbit(f)
        assert (err.value.index, type(err.value)) == expected


@given(deep_fix_data())
@settings(max_examples=30, deadline=None)
def test_transform_fix_to_orbit_inverts_as_brute(data):
    # the command inverts the b-file's own list in place, not through fix_to_orbit
    o, fix, bad = data
    assert invoke("transform", "fix-to-orbit", stdin=format_bfile(fix)) == (0, format_bfile(o), "")
    expected = invert_fix_brute(bad)
    got = invoke("transform", "fix-to-orbit", stdin=format_bfile(bad))
    if isinstance(expected, list):
        assert got == (0, format_bfile(expected), "")
    else:
        with pytest.raises(NotRealizableError) as err:
            fix_to_orbit(Sequence(View.FIX, tuple(bad)))
        assert (err.value.index, type(err.value)) == expected
        assert got == (1, "", f"verification failure: {err.value}\n")


def test_fix_to_orbit_nonintegral():
    with pytest.raises(NonIntegralError, match="^orbit count at n=2 is not integral$") as err:
        fix_to_orbit(Sequence(View.FIX, (1, 2)))
    assert err.value.index == 2


def test_fix_to_orbit_negative():
    with pytest.raises(NegativeError, match="^orbit count at n=2 is negative$") as err:
        fix_to_orbit(Sequence(View.FIX, (3, 1)))
    assert err.value.index == 2


def test_not_realizable_is_value_error():
    assert issubclass(NotRealizableError, ValueError)


def test_realizable_reports():
    # realizable data gives its orbits; the error's class says why, .index where
    assert fix_to_orbit(Sequence(View.FIX, (1, 3, 4, 7))).terms == (1, 1, 1, 1)
    for terms, error in (((1, 2), NonIntegralError), ((3, 1), NegativeError)):
        with pytest.raises(NotRealizableError) as err:
            fix_to_orbit(Sequence(View.FIX, terms))
        assert (err.value.index, type(err.value)) == (2, error)


def test_realizable_first_failure_wins():
    # index 2 already fails; index 4 would too
    with pytest.raises(NonIntegralError) as err:
        fix_to_orbit(Sequence(View.FIX, (1, 2, 1, 2)))
    assert err.value.index == 2


def test_euler_zeta_is_partitions():
    g = euler(zeta(10))
    assert g.view is View.MONOID
    assert g.terms == (1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_euler_requires_orbit_view():
    with pytest.raises(ViewError):
        euler(golden_mean(4))
    with pytest.raises(ViewError):
        euler_inverse(zeta(4))


def test_euler_inverse_negative():
    with pytest.raises(NegativeError) as err:
        euler_inverse(Sequence(View.MONOID, (1, 0)))
    assert err.value.index == 2


@given(orbit_terms)
@settings(max_examples=60)
def test_euler_roundtrip(terms):
    o = Sequence(View.ORBIT, tuple(terms))
    assert euler_inverse(euler(o)) == o


monoid_data = st.one_of(
    # arbitrary data: mostly not an Euler transform
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=24),
    # true monoid counts, then possibly one term nudged
    st.builds(
        lambda orbits, at, bump: [
            g + (bump if n == at else 0)
            for n, g in enumerate(euler(Sequence(View.ORBIT, tuple(orbits))), 1)
        ],
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=24),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=3),
    ),
)


@given(monoid_data)
@settings(max_examples=200)
def test_euler_inverse_matches_brute(terms):
    expected = euler_inverse_brute(terms)
    g = Sequence(View.MONOID, tuple(terms))
    if isinstance(expected, tuple):
        with pytest.raises(NotRealizableError) as err:
            euler_inverse(g)
        assert (err.value.index, type(err.value)) == expected
    else:
        assert list(euler_inverse(g)) == expected


def test_multiplicative_zeta_and_id():
    assert is_multiplicative(zeta(30)) is None
    assert is_multiplicative(id_orbits(30)) is None
    # divisor sums inherit multiplicativity
    assert is_multiplicative(orbit_to_fix(zeta(20))) is None


def test_multiplicative_lucas_witness():
    assert is_multiplicative(golden_mean(10)) == (2, 3)  # 3*4 != 18


def test_multiplicative_witnesses():
    assert is_multiplicative(geometric(2, 10)) == (1, 1)
    s = Sequence(View.ORBIT, (1, 1, 1, 1, 1, 2, 1, 1, 1, 1))
    assert is_multiplicative(s) == (2, 3)
    m, n = is_multiplicative(s)
    assert s[m * n] != s[m] * s[n]


def test_multiplicative_short_sequences_vacuous():
    # nothing to check below length 6 when s(1) = 1
    assert is_multiplicative(Sequence(View.ORBIT, (1, 9, 9, 9, 9))) is None


def test_multiplicative_checks_the_top_edge_of_its_pair_loop():
    # at exactly six terms (2, 3) is the one pair, with 2 * 3 = n_max
    assert is_multiplicative(Sequence(View.ORBIT, (1, 2, 3, 4, 5, 7))) == (2, 3)


@st.composite
def _perturbed_multiplicative(draw):
    """A multiplicative sequence of up to 60 terms, its values at prime powers drawn,
    then often one term moved: anywhere, or at m * (n_max // m), the top of m's pairs."""
    n_max = draw(st.integers(1, 60))
    terms = [1]
    for n in range(2, n_max + 1):
        p = next(d for d in range(2, n + 1) if n % d == 0)
        q = p
        while n % (q * p) == 0:
            q *= p
        terms.append(draw(st.integers(0, 9)) if q == n else terms[q - 1] * terms[n // q - 1])
    top_edges = [m * (n_max // m) for m in range(2, n_max + 1) if m * (m + 1) <= n_max]
    places = [st.none(), st.integers(1, n_max)]
    if top_edges:
        places.append(st.sampled_from(top_edges))
    index = draw(st.one_of(places))
    if index is not None:
        terms[index - 1] += draw(st.integers(1, 5))
    return terms


@settings(max_examples=300)
@given(_perturbed_multiplicative())
def test_multiplicative_witness_matches_every_pair_tried(terms):
    assert is_multiplicative(Sequence(View.ORBIT, tuple(terms))) == is_multiplicative_brute(terms)


def test_convert_all_views():
    import random

    rng = random.Random(7)
    o = random_orbit(rng, 24, 5)
    f = orbit_to_fix(o)
    g = euler(o)
    for src in (o, f, g):
        assert convert(src, View.ORBIT) == o
        assert convert(src, View.FIX) == f
        assert convert(src, View.MONOID) == g
        assert convert(src, src.view) is src
