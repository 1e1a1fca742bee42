"""Acceptance gate: thirteen end-to-end criteria, one line of output each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL
lines; each criterion is also an ordinary assertion, so the suite
fails loudly if any of them regresses.
"""

import math
import random

from orbitkit import (
    PrimeSet,
    DirichletPoly,
    Sequence,
    View,
    convert,
    cyclic_subgroup_count,
    dilate,
    div,
    divisors,
    euler,
    euler_inverse,
    factor_search,
    fix_to_orbit,
    harmonic_number,
    iterate_orbits,
    mertens_sum,
    mobius,
    mul,
    orbit_to_fix,
    pnt_report,
    primes_upto,
    primitive_lattice_count,
    product_formula,
    product_orbits,
    sigma_k,
    simulate_iterate,
    simulate_product,
    sparse,
    zeta_poly,
    zeta_shift,
)
from orbitkit.identities import PARTITION_TERMS
from orbitkit.oracle import monoid_by_partitions
from orbitkit.numtheory import factorize, part
from orbitkit.sequences import (
    a_s,
    dual_rational,
    feigenbaum,
    full_shift,
    golden_mean,
    id_orbits,
    s_p,
    s_part_seq,
    zeta,
)
from helpers import random_orbit


def report(num, name, check):
    try:
        check()
    except AssertionError:
        print(f"C{num:02d} {name}: FAIL")
        raise
    print(f"C{num:02d} {name}: PASS")


# -- 1 -----------------------------------------------------------------


def _product_series():
    n = 200
    prod = product_orbits(zeta(n), zeta(n))
    assert prod.terms[:8] == (1, 4, 5, 10, 7, 20, 9, 22)
    for m in range(1, n + 1):
        assert prod[m] == sum(sigma_k(d, 1) * mobius(m // d) ** 2 for d in divisors(m))
    num = mul(mul(zeta_poly(n), zeta_poly(n)), zeta_shift(1, n))
    quotient = div(num, dilate(zeta_poly(n), 2))
    assert quotient == DirichletPoly(prod.terms)


def test_c01():
    report(1, "self-product series", _product_series)


# -- 2 -----------------------------------------------------------------


def _iterates_of_identity():
    assert iterate_orbits(id_orbits(16), 2).terms == (5, 8, 15, 16, 25, 24, 35, 32)
    t4 = iterate_orbits(id_orbits(200), 4)
    for m in range(1, 51):
        assert t4[m] == (16 * m if m % 2 == 0 else 21 * m)
    for p in (2, 3, 5):
        tp = iterate_orbits(id_orbits(50 * p), p)
        for m in range(1, 51):
            expected = p * p * m if m % p == 0 else (p * p + 1) * m
            assert tp[m] == expected


def test_c02():
    report(2, "identity-map iterates", _iterates_of_identity)


# -- 3 -----------------------------------------------------------------


def _feigenbaum_counts():
    two = PrimeSet.finite((2,))
    f = orbit_to_fix(feigenbaum(256))
    for m in range(1, 257):
        assert f[m] == 2 * part(m, two) - 1
    t = iterate_orbits(feigenbaum(256), 2)
    for m in range(1, 129):
        if m == 1:
            assert t[m] == 3
        elif m & (m - 1) == 0:
            assert t[m] == 2
        else:
            assert t[m] == 0


def test_c03():
    report(3, "doubling cascade counts", _feigenbaum_counts)


# -- 4 -----------------------------------------------------------------


def _euler_transforms():
    assert euler(zeta(10)).terms == (1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    fib = [1, 1]
    while len(fib) < 32:
        fib.append(fib[-1] + fib[-2])
    g = euler(fix_to_orbit(golden_mean(30)))
    assert all(g[m] == fib[m] for m in range(1, 31))
    assert g[5] == 8
    # zeta(s) = 1/(1 - a s) forces G(n) = a^n for the full shift
    for a in (2, 3):
        g = convert(full_shift(a, 20), View.MONOID).terms
        assert g == tuple(a**m for m in range(1, 21))
    g = convert(dual_rational(2, 3, 20), View.MONOID).terms
    assert g == tuple(3 ** (m - 1) for m in range(1, 21))


def test_c04():
    report(4, "Euler transforms of the worked systems", _euler_transforms)


# -- 5 -----------------------------------------------------------------


def _three_routes():
    rng = random.Random(2024)
    for _ in range(100):
        o = random_orbit(rng, rng.randint(1, 40), 4)
        g = euler(o)
        assert product_formula(o) == g
        m = min(len(g), PARTITION_TERMS)
        assert monoid_by_partitions(o, m).terms == g.terms[:m]


def test_c05():
    report(5, "three-route monoid agreement", _three_routes)


# -- 6 -----------------------------------------------------------------


def _oracle_equivalence():
    small = [
        Sequence(View.ORBIT, (a, b, c))
        for a in range(4)
        for b in range(4)
        for c in range(4)
    ]
    for u in small:
        for v in small:
            assert simulate_product(u, v, 3) == product_orbits(u, v)
    for bits in range(3**6):
        terms, rest = [], bits
        for _ in range(6):
            terms.append(rest % 3)
            rest //= 3
        o = Sequence(View.ORBIT, tuple(terms))
        for k in range(1, 7):
            assert simulate_iterate(o, k, 6 // k) == iterate_orbits(o, k)
    rng = random.Random(2025)
    for _ in range(100):
        u = random_orbit(rng, 12, 3)
        v = random_orbit(rng, 12, 3)
        assert simulate_product(u, v, 12) == product_orbits(u, v)
        k = rng.randint(1, 6)
        assert simulate_iterate(u, k, 12 // k) == iterate_orbits(u, k)


def test_c06():
    report(6, "simulation oracle equivalence", _oracle_equivalence)


# -- 7 -----------------------------------------------------------------


def _lattice_counts():
    prod = product_orbits(zeta(60), zeta(60))
    for m in range(1, 61):
        assert cyclic_subgroup_count(m) == prod[m]
        assert sum(primitive_lattice_count(d) for d in divisors(m)) == prod[m]


def test_c07():
    report(7, "cyclic subgroups and primitive lattices", _lattice_counts)


# -- 8 -----------------------------------------------------------------


def _indicator_factorization():
    for p_list in ((), (2,), (3,), (2, 7)):
        pset = PrimeSet.finite(p_list)
        got = product_orbits(s_p(pset, 100), s_p(pset.complement(), 100))
        assert got == zeta(100)
    result = factor_search(zeta(10))
    assert not result.truncated
    assert len(result.pairs) == 16
    for left, right in result.pairs:
        excluded = tuple(p for p in primes_upto(10) if left[p - 1] == 0)
        assert left == s_p(PrimeSet.finite(excluded), 10).terms
        assert right == s_p(PrimeSet.all_except(excluded), 10).terms


def test_c08():
    report(8, "prime-set indicator factorization", _indicator_factorization)


# -- 9 -----------------------------------------------------------------


def _odd_part_product_series():
    n = 100
    prod = product_orbits(s_p(PrimeSet.finite((2,)), n), zeta(n))
    assert prod.terms[:9] == (1, 1, 5, 1, 7, 5, 9, 1, 17)
    lhs = DirichletPoly(prod.terms)
    rhs = zeta_poly(n)
    for q in primes_upto(n):
        if q == 2:
            continue
        lhs = mul(lhs, sparse([(1, 1), (q, -q)], n))
        rhs = mul(rhs, sparse([(1, 1), (q, 1)], n))
    assert lhs == rhs


def test_c09():
    report(9, "odd-part product series", _odd_part_product_series)


# -- 10 ----------------------------------------------------------------


def _interpolation_lemmas():
    n = 100
    for p_list in ((2,), (3,), (2, 3)):
        pset = PrimeSet.finite(p_list)
        lhs = DirichletPoly(s_part_seq(pset, n).terms)
        rhs = zeta_poly(n)
        for p in p_list:
            lhs = mul(lhs, sparse([(1, 1), (p, -p)], n))
            rhs = mul(rhs, sparse([(1, 1), (p, -1)], n))
        assert lhs == rhs
        lhs = DirichletPoly(a_s(pset, n).terms)
        rhs = zeta_poly(n)
        for p in p_list:
            lhs = mul(lhs, sparse([(1, 1), (p, -p)], n))
            rhs = mul(rhs, sparse([(1, 1), (p, 1)], n))
        assert lhs == rhs
    n = 60
    for a, b in ((0, 1), (1, 1), (1, 2)):
        u = Sequence(View.ORBIT, tuple(m**a for m in range(1, n + 1)))
        v = Sequence(View.ORBIT, tuple(m**b for m in range(1, n + 1)))
        prod = product_orbits(u, v)
        lhs = mul(DirichletPoly(prod.terms), dilate(zeta_shift(a + b, n), 2))
        rhs = mul(mul(zeta_shift(a, n), zeta_shift(b, n)), zeta_shift(a + b + 1, n))
        assert lhs == rhs


def test_c10():
    report(10, "interpolation and Ramanujan series", _interpolation_lemmas)


# -- 11 ----------------------------------------------------------------


def _iterated_indicators():
    def closed_form(p_list, k, m):
        if any(m % p == 0 for p in p_list):
            return 0
        out = 1
        for p, a in factorize(k):
            if p in p_list:
                continue
            out *= p**a if m % p == 0 else sigma_k(p**a, 1)
        return out

    for p_list in ((), (2,), (3,), (2, 5)):
        pset = PrimeSet.finite(p_list)
        for k in range(1, 25):
            iterated = iterate_orbits(s_p(pset, 24 * k), k)
            for m in range(1, 25):
                assert iterated[m] == closed_form(p_list, k, m)


def test_c11():
    report(11, "iterated indicator closed form", _iterated_indicators)


# -- 12 ----------------------------------------------------------------


def _growth_asymptotics():
    h = math.log(2)
    o = fix_to_orbit(full_shift(2, 40))
    for n in (20, 25, 30):
        rep = pnt_report(o, h, 1.0, n)
        assert abs(rep.pi_actual / rep.pi_predicted - 1) <= 5 / n
    drift20 = mertens_sum(o, 20, h) - harmonic_number(20)
    drift30 = mertens_sum(o, 30, h) - harmonic_number(30)
    assert abs(drift30 - drift20) < 1e-3
    for m in range(2, 41):
        assert (m * o[m] - 2**m) ** 2 <= 4 * m * m * 2**m


def test_c12():
    report(12, "orbit growth asymptotics", _growth_asymptotics)


# -- 13 ----------------------------------------------------------------


def _roundtrips():
    rng = random.Random(2026)
    for _ in range(200):
        o = random_orbit(rng, rng.randint(1, 200), 9)
        f = orbit_to_fix(o)
        assert fix_to_orbit(f) == o
        assert orbit_to_fix(fix_to_orbit(f)) == f
    for _ in range(200):
        o = random_orbit(rng, rng.randint(1, 60), 5)
        g = euler(o)
        assert euler_inverse(g) == o
        assert euler(euler_inverse(g)) == g


def test_c13():
    report(13, "transform round-trips", _roundtrips)
