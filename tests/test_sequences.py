import pytest
from hypothesis import given, strategies as st

from orbitkit import (
    DirichletPoly,
    PrimeSet,
    Sequence,
    View,
    ViewError,
)
from orbitkit import builtin, builtin_names, truncate
from orbitkit.sequences import (
    a_s,
    delta,
    dual_rational,
    feigenbaum,
    full_shift,
    geometric,
    golden_mean,
    id_orbits,
    localized_23,
    s_integer_23,
    s_p,
    s_part_seq,
    ternary,
    zeta,
)
from helpers import mixed_terms, outcome, sequence_terms_brute


class TestSequenceType:
    def test_one_indexed(self):
        s = Sequence(View.ORBIT, (7, 8, 9))
        assert s[1] == 7 and s[3] == 9
        assert len(s) == 3
        assert list(s) == [7, 8, 9]

    def test_index_out_of_range(self):
        s = Sequence(View.FIX, (1,))
        with pytest.raises(IndexError):
            s[0]
        with pytest.raises(IndexError):
            s[2]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sequence(View.ORBIT, ())

    def test_rejects_negative_terms(self):
        with pytest.raises(ValueError):
            Sequence(View.ORBIT, (1, -1))

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Sequence(View.ORBIT, (1, 1.5))
        with pytest.raises(TypeError):
            Sequence(View.ORBIT, (True, 1))

    def test_rejects_a_view_that_is_not_a_member(self):
        with pytest.raises(TypeError, match="^view must be a View member, got 'orbit'$"):
            Sequence("orbit", (1,))

    def test_index_must_be_an_int(self):
        with pytest.raises(TypeError, match="^index must be an int, got 1.0$"):
            zeta(3)[1.0]

    def test_view_guard(self):
        s = Sequence(View.ORBIT, (1, 2))
        s.require_view(View.ORBIT, "op")
        with pytest.raises(ViewError):
            s.require_view(View.FIX, "op")

    def test_equality_includes_view(self):
        a = Sequence(View.ORBIT, (1, 2))
        b = Sequence(View.FIX, (1, 2))
        assert a != b

    def test_truncate(self):
        s = Sequence(View.ORBIT, (1, 2, 3, 4))
        assert truncate(s, 2).terms == (1, 2)
        assert truncate(s, 4) == s
        with pytest.raises(ValueError):
            truncate(s, 5)
        with pytest.raises(ValueError):
            truncate(s, 0)


@given(mixed_terms)
def test_validation_agrees_with_per_term_loop(terms):
    got = outcome(lambda: Sequence(View.ORBIT, terms).terms)
    assert got == outcome(sequence_terms_brute, terms)


def test_zeta_delta_id():
    assert zeta(5).terms == (1, 1, 1, 1, 1)
    assert zeta(5).view is View.ORBIT
    assert delta(5).terms == (1, 0, 0, 0, 0)
    assert id_orbits(5).terms == (1, 2, 3, 4, 5)


def test_geometric():
    assert geometric(2, 6).terms == (2, 4, 8, 16, 32, 64)
    assert geometric(3, 4).terms == (3, 9, 27, 81)
    with pytest.raises(ValueError):
        geometric(1, 4)


def test_indicator_sequences():
    assert feigenbaum(12).terms == (1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0)
    assert ternary(12).terms == (1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0)
    assert s_p(PrimeSet.finite((2,)), 12).terms == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0)
    assert s_p(PrimeSet.finite(), 6) == zeta(6)
    assert s_p(PrimeSet.all_except(), 6) == delta(6)


def test_s_p_cofinite():
    # all primes except {2,3}: indicator of 3-smooth numbers
    s = s_p(PrimeSet.all_except((2, 3)), 12)
    assert s.terms == (1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1)


def test_fix_view_builtins():
    assert golden_mean(10).terms == (1, 3, 4, 7, 11, 18, 29, 47, 76, 123)
    assert golden_mean(10).view is View.FIX
    assert full_shift(2, 6).terms == (2, 4, 8, 16, 32, 64)
    assert full_shift(3, 4).terms == (3, 9, 27, 81)
    assert dual_rational(2, 3, 6).terms == (1, 5, 19, 65, 211, 665)
    with pytest.raises(ValueError):
        full_shift(1, 4)
    with pytest.raises(ValueError, match="^a must be at least 2, got 1$"):
        full_shift(1, 0)  # parameters are checked before the length
    with pytest.raises(ValueError):
        dual_rational(2, 4, 4)  # not coprime
    with pytest.raises(ValueError):
        dual_rational(3, 2, 4)  # needs a < b


def test_localized_23():
    # 3-part of 2^n - 1: forced by v_3(2^n - 1) = 1 + v_3(n) for even n
    assert localized_23(12).terms == (1, 3, 1, 3, 1, 9, 1, 3, 1, 3, 1, 9)
    assert localized_23(18)[18] == 27


def test_localized_23_is_fast_at_depth():
    # 2^200 - 1 must not get factored outside {3}
    assert localized_23(200)[200] == 3


def test_s_integer_23():
    assert s_integer_23(10).terms == (1, 1, 7, 5, 31, 7, 127, 85, 511, 341)
    assert s_integer_23(10).view is View.FIX


def test_s_part_seq():
    assert s_part_seq(PrimeSet.finite((2,)), 12).terms == (1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4)
    assert s_part_seq(PrimeSet.finite((2, 3)), 9).terms == (1, 2, 3, 4, 1, 6, 1, 8, 9)


def test_a_s_values():
    two = a_s(PrimeSet.finite((2,)), 8)
    assert isinstance(two, Sequence) and two.view is View.ORBIT
    assert two.terms == (1, 4, 1, 10, 1, 4, 1, 22)
    both = a_s(PrimeSet.finite((2, 3)), 9)
    assert both.terms == (1, 4, 5, 10, 1, 20, 1, 22, 17)


def test_a_s_always_integral():
    for primes in ((2,), (3,), (2, 3), (5, 7)):
        seq = a_s(PrimeSet.finite(primes), 60)
        assert all(type(t) is int for t in seq.terms)
        for n in range(1, 61):
            weight = 1
            for p in primes:
                a, m = 0, n
                while m % p == 0:
                    a, m = a + 1, m // p
                if a:
                    factor, r = divmod((p + 1) * p**a - 2, p - 1)
                    assert r == 0
                    weight *= factor
            assert seq[n] == weight


# each validated container, built from fixed fields, with its field names and repr
CONTAINERS = [
    (
        lambda: Sequence(View.ORBIT, [1, 2]),
        ("view", "terms"),
        "Sequence(view=<View.ORBIT: 'orbit'>, terms=(1, 2))",
    ),
    (
        lambda: DirichletPoly([1, -2]),
        ("coeffs",),
        "DirichletPoly(coeffs=(1, -2))",
    ),
    (lambda: PrimeSet(True, (2,)), ("cofinite", "primes"), "PrimeSet(cofinite=True, primes=(2,))"),
]


@pytest.mark.parametrize("make, names, text", CONTAINERS)
def test_containers_are_immutable_values(make, names, text):
    a, b = make(), make()
    assert a == b and not a != b and a is not b
    assert repr(a) == text
    assert a != tuple(getattr(a, name) for name in names)
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text
    assert hash(a) == hash(b) and len({a, b}) == 1


# pairs that differ in one field, or in their class only
UNEQUAL = [
    (Sequence(View.ORBIT, [1, 2]), Sequence(View.ORBIT, [1, 3])),
    (Sequence(View.ORBIT, [1, 2]), Sequence(View.FIX, [1, 2])),
    (DirichletPoly([1, -2]), DirichletPoly([1, 2])),
    (PrimeSet(True, (2,)), PrimeSet(True, (3,))),
    (PrimeSet.finite((2,)), PrimeSet.all_except((2,))),
    (Sequence(View.ORBIT, [1, 2]), DirichletPoly([1, 2])),
]


@pytest.mark.parametrize("a, b", UNEQUAL)
def test_containers_that_differ_are_unequal_values(a, b):
    assert a != b and b != a and not a == b
    assert repr(a) != repr(b) and len({a, b}) == 2


class TestBuiltinDispatch:
    def test_names_sorted(self):
        names = builtin_names()
        assert names == sorted(names)
        assert "golden_mean" in names and "a_S" in names

    def test_simple(self):
        assert builtin("zeta", {}, 4) == zeta(4)

    def test_with_params(self):
        assert builtin("full_shift", {"a": 3}, 4) == full_shift(3, 4)
        got = builtin("s_P", {"P": PrimeSet.finite((2,))}, 6)
        assert got == s_p(PrimeSet.finite((2,)), 6)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin("nope", {}, 4)

    def test_missing_param(self):
        with pytest.raises(ValueError, match="takes parameters"):
            builtin("geometric", {}, 4)

    def test_extra_param(self):
        with pytest.raises(ValueError, match="takes parameters"):
            builtin("zeta", {"p": 2}, 4)
        # parameter names never meet the function's own argument names
        for key in ("name", "params", "n_terms"):
            with pytest.raises(ValueError, match="takes parameters"):
                builtin("geometric", {"p": 2, key: 3}, 4)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=30))
def test_full_shift_matches_powers(a, n):
    assert full_shift(a, n)[n] == a**n


@given(st.integers(min_value=1, max_value=64))
def test_feigenbaum_partial_sums(n):
    # one new orbit appears at each power of two
    total = sum(feigenbaum(n).terms)
    assert total == sum(1 for k in range(8) if 2**k <= n)
