"""Named, machine-checkable identities behind the `verify` subcommand.

Every invariant promised by the library is registered here under a
stable name, as a function of a term count.  Randomized checks use
fixed seeds, so identical invocations give identical results.  Each
check reports the first failing index when there is one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import asymptotics, dirichlet, operators, oracle, transforms, zetaseries
from .bfile import format_bfile, parse_bfile
from .factorization import factor_search
from .numtheory import (
    PrimeSet,
    divisors,
    factorize,
    is_prime,
    mobius,
    part,
    primes_upto,
    sigma_k,
)
from .sequences import (
    Sequence,
    View,
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
    truncate,
    zeta,
)

Outcome = tuple[bool, Optional[int], str]


@dataclass(frozen=True)
class VerifyResult:
    name: str
    ok: bool
    failing_index: Optional[int]
    detail: str


@dataclass(frozen=True)
class Identity:
    name: str
    default_terms: int
    description: str
    check: Callable[[int], Outcome]


REGISTRY: dict[str, Identity] = {}


def identity(name: str, default_terms: int, description: str):
    def wrap(fn):
        REGISTRY[name] = Identity(name, default_terms, description, fn)
        return fn

    return wrap


def run(name: str, terms: Optional[int] = None) -> VerifyResult:
    ident = REGISTRY[name]
    n = ident.default_terms if terms is None else terms
    if n < 1:
        raise ValueError(f"terms must be >= 1, got {n}")
    ok, idx, detail = ident.check(n)
    return VerifyResult(ident.name, ok, idx, detail)


def run_all(terms: Optional[int] = None) -> list[VerifyResult]:
    return [run(name, terms) for name in REGISTRY]


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

_OK: Outcome = (True, None, "")


def _fail(idx: Optional[int], detail: str) -> Outcome:
    return (False, idx, detail)


def _mismatch(expected, actual) -> Optional[int]:
    """First one-based index where the iterables differ, else None."""
    xs, ys = list(expected), list(actual)
    for i in range(min(len(xs), len(ys))):
        if xs[i] != ys[i]:
            return i + 1
    if len(xs) != len(ys):
        return min(len(xs), len(ys)) + 1
    return None


def _random_orbit(rng: random.Random, n: int, max_term: int) -> Sequence:
    return Sequence(View.ORBIT, tuple(rng.randint(0, max_term) for _ in range(n)))


def _random_multiplicative(rng: random.Random, n: int, max_val: int) -> Sequence:
    at_prime_power = {}
    for p in primes_upto(n):
        q = p
        while q <= n:
            at_prime_power[q] = rng.randint(0, max_val)
            q *= p
    terms = []
    for m in range(1, n + 1):
        t = 1
        for p, a in factorize(m).pairs:
            t *= at_prime_power[p**a]
        terms.append(t)
    return Sequence(View.ORBIT, tuple(terms))


# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------


@identity("mobius-sum", 10_000, "sum of mu over divisors vanishes except at 1")
def _mobius_sum(n: int) -> Outcome:
    for m in range(1, n + 1):
        total = sum(mobius(d) for d in divisors(m))
        if total != (1 if m == 1 else 0):
            return _fail(m, f"divisor sum of mu at {m} is {total}")
    return _OK


@identity("sigma-multiplicative", 300, "sigma_k is multiplicative on coprime pairs")
def _sigma_mult(n: int) -> Outcome:
    rng = random.Random(101)
    for _ in range(100):
        a = rng.randint(1, n)
        b = rng.randint(1, n)
        if math.gcd(a, b) != 1:
            continue
        for k in range(4):
            if sigma_k(a * b, k) != sigma_k(a, k) * sigma_k(b, k):
                return _fail(a * b, f"sigma_{k}({a}*{b}) is not the product")
    return _OK


@identity("part-complement", 2_000, "S-part times complement part recovers n")
def _part_complement(n: int) -> Outcome:
    sets = (
        PrimeSet.finite((2,)),
        PrimeSet.finite((3,)),
        PrimeSet.finite((2, 5)),
        PrimeSet.all_except((2,)),
    )
    for s in sets:
        for m in range(1, n + 1):
            if part(m, s) * part(m, s.complement()) != m:
                return _fail(m, f"part mismatch at {m} for {s}")
    return _OK


@identity("factorize-roundtrip", 2_000, "factorizations multiply back with prime parts")
def _factorize_roundtrip(n: int) -> Outcome:
    for m in range(1, n + 1):
        fac = factorize(m)
        if fac.value() != m:
            return _fail(m, f"factorization of {m} multiplies to {fac.value()}")
        if any(not is_prime(p) for p in fac.primes):
            return _fail(m, f"non-prime factor reported for {m}")
    return _OK


# ---------------------------------------------------------------------------
# sequence catalogue
# ---------------------------------------------------------------------------


@identity("zeta-ones", 500, "zeta is all ones; empty and full prime sets collapse")
def _zeta_ones(n: int) -> Outcome:
    z = zeta(n)
    if any(t != 1 for t in z):
        return _fail(None, "zeta has a term different from 1")
    if s_p(PrimeSet.finite(), n) != z:
        return _fail(None, "s_P with no primes is not zeta")
    if s_p(PrimeSet.all_except(), n) != delta(n):
        return _fail(None, "s_P over all primes is not delta")
    return _OK


@identity("sp-multiplicative", 200, "prime-set indicators are multiplicative")
def _sp_mult(n: int) -> Outcome:
    sets = (
        PrimeSet.finite(),
        PrimeSet.finite((2,)),
        PrimeSet.finite((3,)),
        PrimeSet.finite((2, 5)),
        PrimeSet.all_except((2,)),
        PrimeSet.all_except((2, 3)),
    )
    for s in sets:
        report = transforms.is_multiplicative(s_p(s, n))
        if not report.ok:
            return _fail(None, f"s_P not multiplicative for {s}: witness {report.witness}")
    return _OK


@identity("feigenbaum-sums", 1_024, "partial sums over dyadic blocks count the doublings")
def _feig_sums(n: int) -> Outcome:
    seq = feigenbaum(n)
    k, block = 0, 1
    while block <= n:
        total = asymptotics.pi_count(seq, block)
        if total != k + 1:
            return _fail(block, f"sum to 2^{k} is {total}, expected {k + 1}")
        k, block = k + 1, block * 2
    return _OK


@identity("dual-rational-growth", 64, "dual map fix counts are positive and increasing")
def _dual_growth(n: int) -> Outcome:
    for a, b in ((1, 2), (2, 3), (3, 5), (4, 9)):
        seq = dual_rational(a, b, n)
        prev = 0
        for m in range(1, n + 1):
            if seq[m] <= prev:
                return _fail(m, f"({a},{b}) not strictly increasing at {m}")
            prev = seq[m]
    return _OK


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


@identity("fix-orbit-roundtrip", 200, "Moebius inversion round-trips both ways")
def _fix_orbit_roundtrip(n: int) -> Outcome:
    rng = random.Random(202)
    for _ in range(200):
        o = _random_orbit(rng, rng.randint(1, n), 9)
        f = transforms.orbit_to_fix(o)
        if transforms.fix_to_orbit(f) != o:
            return _fail(None, "fix_to_orbit(orbit_to_fix(o)) != o")
        if transforms.orbit_to_fix(transforms.fix_to_orbit(f)) != f:
            return _fail(None, "orbit_to_fix(fix_to_orbit(f)) != f")
    return _OK


@identity("euler-roundtrip", 60, "Euler transform round-trips both ways")
def _euler_roundtrip(n: int) -> Outcome:
    rng = random.Random(303)
    for _ in range(200):
        o = _random_orbit(rng, rng.randint(1, n), 5)
        g = transforms.euler(o)
        if transforms.euler_inverse(g) != o:
            return _fail(None, "euler_inverse(euler(o)) != o")
        if transforms.euler(transforms.euler_inverse(g)) != g:
            return _fail(None, "euler(euler_inverse(g)) != g")
    return _OK


@identity("multiplicative-iff", 60, "orbit counts multiplicative iff fix counts are")
def _mult_iff(n: int) -> Outcome:
    orbit_cases = (
        zeta(n),
        delta(n),
        id_orbits(n),
        geometric(2, n),
        feigenbaum(n),
        ternary(n),
        s_p(PrimeSet.finite((2,)), n),
        s_p(PrimeSet.all_except((2,)), n),
    )
    for o in orbit_cases:
        want = transforms.is_multiplicative(o).ok
        got = transforms.is_multiplicative(transforms.orbit_to_fix(o)).ok
        if want != got:
            return _fail(None, "orbit/fix multiplicativity disagree on an orbit case")
    fix_cases = (
        golden_mean(n),
        full_shift(2, n),
        full_shift(3, n),
        dual_rational(2, 3, n),
        localized_23(n),
        s_integer_23(n),
    )
    for f in fix_cases:
        want = transforms.is_multiplicative(f).ok
        got = transforms.is_multiplicative(transforms.fix_to_orbit(f)).ok
        if want != got:
            return _fail(None, "orbit/fix multiplicativity disagree on a fix case")
    return _OK


@identity("product-multiplicative", 60, "products of multiplicative systems stay multiplicative")
def _product_mult(n: int) -> Outcome:
    rng = random.Random(404)
    for _ in range(30):
        u = _random_multiplicative(rng, n, 3)
        v = _random_multiplicative(rng, n, 3)
        report = transforms.is_multiplicative(operators.product_orbits(u, v))
        if not report.ok:
            return _fail(None, f"product lost multiplicativity, witness {report.witness}")
    return _OK


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@identity("product-identity", 60, "the single fixed point is a two-sided product identity")
def _product_identity(n: int) -> Outcome:
    rng = random.Random(505)
    for _ in range(20):
        o = _random_orbit(rng, n, 4)
        d = delta(n)
        if operators.product_orbits(o, d) != o or operators.product_orbits(d, o) != o:
            return _fail(None, "delta is not the product identity")
    return _OK


@identity("product-commutative", 60, "orbit products commute")
def _product_comm(n: int) -> Outcome:
    rng = random.Random(606)
    for _ in range(25):
        u = _random_orbit(rng, n, 4)
        v = _random_orbit(rng, n, 4)
        if operators.product_orbits(u, v) != operators.product_orbits(v, u):
            return _fail(None, "product_orbits(u, v) != product_orbits(v, u)")
    return _OK


@identity("product-associative", 40, "orbit products associate")
def _product_assoc(n: int) -> Outcome:
    rng = random.Random(707)
    for _ in range(10):
        u = _random_orbit(rng, n, 3)
        v = _random_orbit(rng, n, 3)
        w = _random_orbit(rng, n, 3)
        lhs = operators.product_orbits(operators.product_orbits(u, v), w)
        rhs = operators.product_orbits(u, operators.product_orbits(v, w))
        if lhs != rhs:
            return _fail(None, "product is not associative")
    return _OK


@identity("product-distributive", 60, "product distributes over disjoint union")
def _product_distrib(n: int) -> Outcome:
    rng = random.Random(808)
    for _ in range(15):
        u = _random_orbit(rng, n, 4)
        v = _random_orbit(rng, n, 4)
        w = _random_orbit(rng, n, 4)
        lhs = operators.product_orbits(u, operators.union_orbits(v, w))
        rhs = operators.union_orbits(
            operators.product_orbits(u, v), operators.product_orbits(u, w)
        )
        if lhs != rhs:
            return _fail(None, "product does not distribute over union")
    return _OK


@identity("product-fix-consistency", 60, "orbit-product route matches pointwise fix product")
def _product_fix_consistency(n: int) -> Outcome:
    rng = random.Random(909)
    for _ in range(40):
        u = _random_orbit(rng, n, 4)
        v = _random_orbit(rng, n, 4)
        idx = _mismatch(oracle.product_by_lcm(u, v), operators.product_orbits(u, v))
        if idx is not None:
            return _fail(idx, "lcm product disagrees with the fix-count route")
    return _OK


@identity("iterate-fix-consistency", 72, "direct iterate matches the fix-dilation route")
def _iterate_fix_consistency(n: int) -> Outcome:
    rng = random.Random(1010)
    for _ in range(40):
        o = _random_orbit(rng, max(n, 6), 4)
        for k in range(1, 7):
            direct = operators.iterate_orbits(o, k)
            dilated = transforms.fix_to_orbit(
                operators.iterate_fix(transforms.orbit_to_fix(o), k)
            )
            idx = _mismatch(direct, dilated)
            if idx is not None:
                return _fail(idx, f"iterate routes disagree for k={k}")
    return _OK


@identity("iterate-composition", 48, "iterating j then k equals iterating jk")
def _iterate_composition(n: int) -> Outcome:
    rng = random.Random(1111)
    for _ in range(25):
        o = _random_orbit(rng, max(n, 16), 4)
        for j, k in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 4)):
            lhs = operators.iterate_orbits(operators.iterate_orbits(o, j), k)
            rhs = operators.iterate_orbits(o, j * k)
            if lhs != rhs:
                return _fail(None, f"iterate composition fails for j={j}, k={k}")
    return _OK


def _sp_iterate_expected(p_list: tuple[int, ...], k: int, m: int) -> int:
    if any(m % p == 0 for p in p_list):
        return 0
    out = 1
    for p, a in factorize(k).pairs:
        if p in p_list:
            continue
        out *= p**a if m % p == 0 else sigma_k(p**a, 1)
    return out


@identity("sp-iterate-closed-form", 24, "iterates of prime-set indicators have a closed form")
def _sp_iterate(n: int) -> Outcome:
    for p_list in ((), (2,), (3,), (2, 5)):
        pset = PrimeSet.finite(p_list)
        for k in range(1, n + 1):
            base = s_p(pset, k * n)
            iterated = operators.iterate_orbits(base, k)
            for m in range(1, n + 1):
                if iterated[m] != _sp_iterate_expected(p_list, k, m):
                    return _fail(m, f"closed form fails for P={p_list}, k={k}")
    return _OK


@identity("feigenbaum-iterate", 64, "doubling-cascade iterates scale by the 2-part of k")
def _feig_iterate(n: int) -> Outcome:
    two = PrimeSet.finite((2,))
    base = feigenbaum(8 * n)
    for k in range(1, 9):
        t = operators.iterate_orbits(truncate(base, k * n), k)
        k2 = part(k, two)
        expected = [2 * k2 - 1] + [
            k2 * feigenbaum(n)[m] for m in range(2, n + 1)
        ]
        idx = _mismatch(expected, t)
        if idx is not None:
            return _fail(idx, f"feigenbaum iterate wrong for k={k}")
    return _OK


# ---------------------------------------------------------------------------
# dirichlet series
# ---------------------------------------------------------------------------


def _poly_mismatch(a: dirichlet.DirichletPoly, b: dirichlet.DirichletPoly) -> Optional[int]:
    return _mismatch(a.coeffs, b.coeffs)


@identity("ttimest-series", 200, "self-product matches its closed Dirichlet form")
def _ttimest(n: int) -> Outcome:
    prod = operators.product_orbits(zeta(n), zeta(n))
    prefix = (1, 4, 5, 10, 7, 20, 9, 22)
    idx = _mismatch(prefix, prod.terms[: len(prefix)])
    if idx is not None:
        return _fail(idx, "self-product prefix wrong")
    for m in range(1, n + 1):
        direct = sum(sigma_k(d, 1) * mobius(m // d) ** 2 for d in divisors(m))
        if prod[m] != direct:
            return _fail(m, "squarefree-weighted sigma sum disagrees")
    z = dirichlet.zeta_poly(n)
    rhs = dirichlet.mul(dirichlet.mul(z, z), dirichlet.zeta_shift(1, n))
    lhs = dirichlet.mul(dirichlet.from_sequence(prod), dirichlet.dilate(z, 2))
    idx = _poly_mismatch(lhs, rhs)
    if idx is not None:
        return _fail(idx, "cleared-denominator identity fails")
    quotient = dirichlet.div(rhs, dirichlet.dilate(z, 2))
    idx = _poly_mismatch(quotient, dirichlet.from_sequence(prod))
    if idx is not None:
        return _fail(idx, "division route disagrees with the product")
    return _OK


@identity("fix-series", 100, "orbit series times zeta(s+1) is the fix series")
def _fix_series(n: int) -> Outcome:
    shift = dirichlet.from_coeffs(Fraction(1, m) for m in range(1, n + 1))
    for f in (golden_mean(n), full_shift(2, n)):
        o = transforms.fix_to_orbit(f)
        lhs = dirichlet.mul(dirichlet.from_sequence(o), shift)
        rhs = dirichlet.from_coeffs(Fraction(f[m], m) for m in range(1, n + 1))
        idx = _poly_mismatch(lhs, rhs)
        if idx is not None:
            return _fail(idx, "fix series identity fails")
    return _OK


@identity("iterate-id2-series", 100, "squared identity map has series (5 - 2/2^s) zeta(s-1)")
def _iterate_id2(n: int) -> Outcome:
    t = operators.iterate_orbits(id_orbits(2 * n), 2)
    prefix = (5, 8, 15, 16, 25, 24, 35, 32)
    idx = _mismatch(prefix, t.terms[: min(len(prefix), n)])
    if idx is not None:
        return _fail(idx, "second-iterate prefix wrong")
    lhs = dirichlet.from_sequence(t)
    rhs = dirichlet.mul(
        dirichlet.sparse([(1, 5), (2, -2)], n), dirichlet.zeta_shift(1, n)
    )
    idx = _poly_mismatch(lhs, rhs)
    if idx is not None:
        return _fail(idx, "sparse form fails")
    return _OK


@identity("iterate-idp-series", 60, "prime iterates of the identity map in sparse form")
def _iterate_idp(n: int) -> Outcome:
    for p in (2, 3, 5):
        t = operators.iterate_orbits(id_orbits(p * n), p)
        for m in range(1, n + 1):
            expected = p * p * m if m % p == 0 else (p * p + 1) * m
            if t[m] != expected:
                return _fail(m, f"pointwise form fails for p={p}")
        lhs = dirichlet.from_sequence(t)
        rhs = dirichlet.mul(
            dirichlet.sparse([(1, p * p + 1), (p, -p)], n),
            dirichlet.zeta_shift(1, n),
        )
        idx = _poly_mismatch(lhs, rhs)
        if idx is not None:
            return _fail(idx, f"sparse form fails for p={p}")
    return _OK


@identity("s-part-interpolation", 100, "S-part series equals zeta times local factors")
def _s_part_interp(n: int) -> Outcome:
    for p_list in ((2,), (3,), (2, 3)):
        pset = PrimeSet.finite(p_list)
        lhs = dirichlet.from_sequence(s_part_seq(pset, n))
        rhs = dirichlet.zeta_poly(n)
        for p in p_list:
            lhs = dirichlet.mul(lhs, dirichlet.sparse([(1, 1), (p, -p)], n))
            rhs = dirichlet.mul(rhs, dirichlet.sparse([(1, 1), (p, -1)], n))
        idx = _poly_mismatch(lhs, rhs)
        if idx is not None:
            return _fail(idx, f"interpolation fails for S={p_list}")
    return _OK


@identity("rational-a-series", 100, "a_S weights satisfy their interpolation identity")
def _a_series(n: int) -> Outcome:
    for p_list in ((2,), (3,), (2, 3)):
        pset = PrimeSet.finite(p_list)
        lhs = dirichlet.from_sequence(a_s(pset, n))
        rhs = dirichlet.zeta_poly(n)
        for p in p_list:
            lhs = dirichlet.mul(lhs, dirichlet.sparse([(1, 1), (p, -p)], n))
            rhs = dirichlet.mul(rhs, dirichlet.sparse([(1, 1), (p, 1)], n))
        idx = _poly_mismatch(lhs, rhs)
        if idx is not None:
            return _fail(idx, f"a_S identity fails for S={p_list}")
    return _OK


@identity("sp-zeta-product-series", 100, "indicator times zeta products in closed form")
def _sp_zeta_series(n: int) -> Outcome:
    for p_list in ((2,), (3,), (2, 5)):
        pset = PrimeSet.finite(p_list)
        prod = operators.product_orbits(s_p(pset, n), zeta(n))
        lhs = dirichlet.from_sequence(prod)
        rhs = dirichlet.zeta_poly(n)
        for q in primes_upto(n):
            if q in p_list:
                continue
            lhs = dirichlet.mul(lhs, dirichlet.sparse([(1, 1), (q, -q)], n))
            rhs = dirichlet.mul(rhs, dirichlet.sparse([(1, 1), (q, 1)], n))
        idx = _poly_mismatch(lhs, rhs)
        if idx is not None:
            return _fail(idx, f"closed form fails for P={p_list}")
    return _OK


@identity("a035109-prefix", 9, "odd-part indicator times zeta opens (1,1,5,1,7,5,9,1,17)")
def _a035109(n: int) -> Outcome:
    m = min(n, 9)
    prod = operators.product_orbits(s_p(PrimeSet.finite((2,)), m), zeta(m))
    expected = (1, 1, 5, 1, 7, 5, 9, 1, 17)[:m]
    idx = _mismatch(expected, prod)
    if idx is not None:
        return _fail(idx, "prefix wrong")
    return _OK


@identity("ramanujan-series", 60, "power-map products satisfy the four-zeta identity")
def _ramanujan(n: int) -> Outcome:
    for a, b in ((0, 1), (1, 1), (1, 2)):
        u = Sequence(View.ORBIT, tuple(m**a for m in range(1, n + 1)))
        v = Sequence(View.ORBIT, tuple(m**b for m in range(1, n + 1)))
        prod = operators.product_orbits(u, v)
        for m in range(1, n + 1):
            total = sum(
                mobius(m // d) * sigma_k(d, a + 1) * sigma_k(d, b + 1)
                for d in divisors(m)
            )
            q, r = divmod(total, m)
            if r or prod[m] != q:
                return _fail(m, f"pointwise form fails for (a,b)=({a},{b})")
        lhs = dirichlet.mul(
            dirichlet.from_sequence(prod),
            dirichlet.dilate(dirichlet.zeta_shift(a + b, n), 2),
        )
        rhs = dirichlet.mul(
            dirichlet.mul(dirichlet.zeta_shift(a, n), dirichlet.zeta_shift(b, n)),
            dirichlet.zeta_shift(a + b + 1, n),
        )
        idx = _poly_mismatch(lhs, rhs)
        if idx is not None:
            return _fail(idx, f"series identity fails for (a,b)=({a},{b})")
    return _OK


@identity("mobius-series", 50, "zeta times the mu series is the identity")
def _mobius_series(n: int) -> Outcome:
    mu = dirichlet.from_coeffs(mobius(m) for m in range(1, n + 1))
    lhs = dirichlet.mul(dirichlet.zeta_poly(n), mu)
    idx = _poly_mismatch(lhs, dirichlet.delta_poly(n))
    if idx is not None:
        return _fail(idx, "zeta * mu != delta")
    return _OK


# ---------------------------------------------------------------------------
# zeta power series
# ---------------------------------------------------------------------------


# The partitions route is exponential in n: it checks this many terms.
PARTITION_TERMS = 12


def _three_route_case(o: Sequence) -> Optional[int]:
    g = transforms.euler(o)
    idx = _mismatch(g, zetaseries.product_formula(o))
    if idx is not None:
        return idx
    m = min(len(g), PARTITION_TERMS)
    return _mismatch(g.terms[:m], oracle.monoid_by_partitions(o, m))


@identity("three-route-monoid", 40, "Euler recurrence, product and exp expansions agree")
def _three_route(n: int) -> Outcome:
    cases = [
        zeta(n),
        delta(n),
        id_orbits(n),
        feigenbaum(n),
        ternary(n),
        s_p(PrimeSet.finite((2,)), n),
        transforms.fix_to_orbit(golden_mean(n)),
        transforms.fix_to_orbit(full_shift(2, n)),
    ]
    rng = random.Random(1212)
    cases.extend(_random_orbit(rng, rng.randint(1, n), 4) for _ in range(100))
    for o in cases:
        idx = _three_route_case(o)
        if idx is not None:
            return _fail(idx, "zeta function routes disagree")
    return _OK


@identity("euler-partitions", 40, "Euler transform of all-ones counts partitions")
def _euler_partitions(n: int) -> Outcome:
    g = transforms.euler(zeta(n))
    prefix = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    idx = _mismatch(prefix[: min(n, 10)], g.terms[: min(n, 10)])
    if idx is not None:
        return _fail(idx, "partition prefix wrong")
    # independent route: pentagonal-number recurrence
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    idx = _mismatch(p[1:], g)
    if idx is not None:
        return _fail(idx, "pentagonal recurrence disagrees")
    return _OK


@identity("golden-mean-monoid", 30, "golden mean monoid counts are shifted Fibonacci")
def _golden_monoid(n: int) -> Outcome:
    fib = [1, 1]
    while len(fib) < n + 2:
        fib.append(fib[-1] + fib[-2])
    g = transforms.euler(transforms.fix_to_orbit(golden_mean(n)))
    expected = [fib[m] for m in range(1, n + 1)]
    idx = _mismatch(expected, g)
    if idx is not None:
        return _fail(idx, "monoid counts are not Fibonacci(n+1)")
    idx = _mismatch(expected, zetaseries.zeta_from_fix(golden_mean(n)))
    if idx is not None:
        return _fail(idx, "series route disagrees")
    return _OK


@identity("full-shift-monoid", 20, "full shift monoid counts are a^n")
def _full_shift_monoid(n: int) -> Outcome:
    # 1 + sum G(n) s^n = zeta(s) = 1/(1 - a s), so G(n) = a^n exactly
    for a in (2, 3, 5):
        g = transforms.euler(transforms.fix_to_orbit(full_shift(a, n)))
        expected = [a**m for m in range(1, n + 1)]
        idx = _mismatch(expected, g)
        if idx is not None:
            return _fail(idx, f"monoid counts wrong for a={a}")
        idx = _mismatch(expected, zetaseries.zeta_from_fix(full_shift(a, n)))
        if idx is not None:
            return _fail(idx, f"series coefficients wrong for a={a}")
    return _OK


@identity("dual-rational-monoid", 20, "dual map monoid counts are (b-a) b^(n-1)")
def _dual_monoid(n: int) -> Outcome:
    for a, b in ((1, 2), (2, 3), (3, 5)):
        g = transforms.euler(transforms.fix_to_orbit(dual_rational(a, b, n)))
        expected = [(b - a) * b ** (m - 1) for m in range(1, n + 1)]
        idx = _mismatch(expected, g)
        if idx is not None:
            return _fail(idx, f"monoid counts wrong for ({a},{b})")
        idx = _mismatch(expected, zetaseries.zeta_from_fix(dual_rational(a, b, n)))
        if idx is not None:
            return _fail(idx, f"series coefficients wrong for ({a},{b})")
    return _OK


@identity("localized-monoid", 200, "3-part system: orbit support and paired monoid counts")
def _localized(n: int) -> Outcome:
    o = transforms.fix_to_orbit(localized_23(n))
    support = {1}
    m = 2
    while m <= n:
        support.add(m)
        m *= 3
    for m in range(1, n + 1):
        if o[m] != (1 if m in support else 0):
            return _fail(m, f"orbit count at {m} is {o[m]}")
    g = transforms.euler(o)
    for m in range(1, min(40, (len(g) - 1) // 2) + 1):
        if g[2 * m] != g[2 * m + 1]:
            return _fail(2 * m, "even/odd monoid pairing fails")
    return _OK


@identity("s-integer-monoid", 10, "3-free-part system: known orbit and monoid prefixes")
def _s_integer(n: int) -> Outcome:
    m = max(n, 10)
    o = transforms.fix_to_orbit(s_integer_23(m))
    orbit_prefix = (1, 0, 2, 1, 6, 0, 18, 10, 56, 31)
    idx = _mismatch(orbit_prefix, o.terms[:10])
    if idx is not None:
        return _fail(idx, "orbit prefix wrong")
    g = transforms.euler(o)
    monoid_prefix = (1, 1, 3, 4, 10, 13, 33, 56)
    idx = _mismatch(monoid_prefix, g.terms[:8])
    if idx is not None:
        return _fail(idx, "monoid prefix wrong")
    idx = _mismatch(g, zetaseries.product_formula(o))
    if idx is not None:
        return _fail(idx, "product route disagrees with the recurrence")
    return _OK


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


@identity("orbit-growth", 40, "shift orbit counts track e^{hn}/n with root-size error")
def _orbit_growth(n: int) -> Outcome:
    for a in (2, 3):
        o = transforms.fix_to_orbit(full_shift(a, n))
        for m in range(2, n + 1):
            # |m*O(m)/a^m - 1| <= 2m a^{-m/2}, squared to stay integral
            if (m * o[m] - a**m) ** 2 > 4 * m * m * a**m:
                return _fail(m, f"pointwise growth bound fails for a={a}")
    return _OK


@identity("mertens-cauchy", 30, "Mertens increments shrink geometrically")
def _mertens_cauchy(n: int) -> Outcome:
    h = math.log(2)
    o = transforms.fix_to_orbit(full_shift(2, max(n, 4)))
    prev = asymptotics.mertens_sum(o, 1, h)
    for m in range(2, max(n, 4) + 1):
        cur = asymptotics.mertens_sum(o, m, h)
        if abs(cur - prev - 1.0 / m) > 2.0 * 2.0 ** (-m / 2) + 1e-9:
            return _fail(m, "increment outside the geometric envelope")
        prev = cur
    return _OK


@identity("mertens-drift", 30, "Mertens sum minus the harmonic sum settles down")
def _mertens_drift(n: int) -> Outcome:
    top = max(n, 30)
    o = transforms.fix_to_orbit(full_shift(2, top))
    h = math.log(2)
    at20 = asymptotics.mertens_sum(o, 20, h) - asymptotics.harmonic_number(20)
    at30 = asymptotics.mertens_sum(o, top, h) - asymptotics.harmonic_number(top)
    if abs(at30 - at20) >= 1e-3:
        return _fail(None, f"drift {abs(at30 - at20):.2e} exceeds 1e-3")
    return _OK


@identity("pnt-ratio", 30, "orbit counting function tracks its predicted growth")
def _pnt_ratio(n: int) -> Outcome:
    top = max(n, 20)
    o = transforms.fix_to_orbit(full_shift(2, top))
    points = [p for p in (20, 25, 30) if p <= top] or [top]
    for p in points:
        report = asymptotics.pnt_report(o, math.log(2), 1.0, p)
        ratio = report.pi_actual / report.pi_predicted
        if abs(ratio - 1.0) > 5.0 / p:
            return _fail(p, f"ratio {ratio:.4f} outside 1 +- {5.0 / p:.3f}")
    return _OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@identity("oracle-count-fixed", 30, "fixed points counted on cycles match the divisor sum")
def _oracle_count_fixed(n: int) -> Outcome:
    rng = random.Random(1313)
    for _ in range(50):
        o = _random_orbit(rng, n, 4)
        system = oracle.build(o)
        f = transforms.orbit_to_fix(o)
        for m in range(1, n + 1):
            if oracle.count_fixed(system, m) != f[m]:
                return _fail(m, "count_fixed disagrees with orbit_to_fix")
    return _OK


@identity("oracle-product", 12, "traced products match the gcd/lcm formula")
def _oracle_product(n: int) -> Outcome:
    small = [
        Sequence(View.ORBIT, (a, b, c))
        for a in range(4)
        for b in range(4)
        for c in range(4)
    ]
    for u in small:
        for v in small:
            simulated = oracle.simulate_product(oracle.build(u), oracle.build(v), 3)
            if simulated != operators.product_orbits(u, v):
                return _fail(None, f"exhaustive case u={u.terms}, v={v.terms}")
    rng = random.Random(1414)
    for _ in range(100):
        u = _random_orbit(rng, n, 3)
        v = _random_orbit(rng, n, 3)
        simulated = oracle.simulate_product(oracle.build(u), oracle.build(v), n)
        idx = _mismatch(simulated, operators.product_orbits(u, v))
        if idx is not None:
            return _fail(idx, "random product case disagrees")
    return _OK


@identity("oracle-iterate", 12, "traced iterates match the direct formula")
def _oracle_iterate(n: int) -> Outcome:
    for bits in range(3**6):
        terms, rest = [], bits
        for _ in range(6):
            terms.append(rest % 3)
            rest //= 3
        o = Sequence(View.ORBIT, tuple(terms))
        for k in range(1, 7):
            simulated = oracle.simulate_iterate(oracle.build(o), k, 6 // k)
            if simulated != operators.iterate_orbits(o, k):
                return _fail(None, f"exhaustive case o={o.terms}, k={k}")
    rng = random.Random(1515)
    for _ in range(100):
        o = _random_orbit(rng, n, 3)
        k = rng.randint(1, 6)
        if n // k < 1:
            continue
        simulated = oracle.simulate_iterate(oracle.build(o), k, n // k)
        idx = _mismatch(simulated, operators.iterate_orbits(o, k))
        if idx is not None:
            return _fail(idx, f"random iterate case disagrees for k={k}")
    return _OK


@identity("cyclic-subgroups", 60, "cyclic subgroup counts equal the self-product")
def _cyclic_subgroups(n: int) -> Outcome:
    prod = operators.product_orbits(zeta(n), zeta(n))
    for m in range(1, n + 1):
        if oracle.cyclic_subgroup_count(m) != prod[m]:
            return _fail(m, "cyclic subgroup count disagrees")
    return _OK


@identity("primitive-lattices", 60, "primitive lattice counts sum to the self-product")
def _primitive_lattices(n: int) -> Outcome:
    prod = operators.product_orbits(zeta(n), zeta(n))
    for m in range(1, n + 1):
        total = sum(oracle.primitive_lattice_count(d) for d in divisors(m))
        if total != prod[m]:
            return _fail(m, "lattice divisor sum disagrees")
    return _OK


@identity("lattice-prime-powers", 4, "prime-power lattice sums have the closed form")
def _lattice_prime_powers(n: int) -> Outcome:
    for p in (2, 3, 5):
        for r in range(n + 1):
            total = sum(
                oracle.primitive_lattice_count(d) for d in divisors(p**r)
            )
            expected = p**r + 2 * sum(p**j for j in range(r))
            if total != expected:
                return _fail(p**r, f"closed form fails at {p}^{r}")
    return _OK


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


@identity("zeta-factorization", 10, "zeta splits exactly into prime-set indicator pairs")
def _zeta_factor(n: int) -> Outcome:
    target = zeta(n)
    result = factor_search(target, n)
    if result.truncated:
        return _fail(None, "search unexpectedly truncated")
    expected_count = 2 ** len(primes_upto(n))
    if len(result.pairs) != expected_count:
        return _fail(None, f"found {len(result.pairs)} pairs, expected {expected_count}")
    seen = set()
    for pair in result.pairs:
        excluded = tuple(p for p in primes_upto(n) if pair.left[p] == 0)
        if pair.left != s_p(PrimeSet.finite(excluded), n):
            return _fail(None, "left factor is not a prime-set indicator")
        if pair.right != s_p(PrimeSet.all_except(excluded), n):
            return _fail(None, "right factor is not the complementary indicator")
        if operators.product_orbits(pair.left, pair.right) != target:
            return _fail(None, "pair does not multiply back to zeta")
        seen.add((pair.left.terms, pair.right.terms))
    for left, right in seen:
        if (right, left) not in seen:
            return _fail(None, "result set is not swap-symmetric")
    return _OK


@identity("three-smooth-factor", 12, "smooth-number product is rediscovered by search")
def _three_smooth(n: int) -> Outcome:
    feig, tern = feigenbaum(n), ternary(n)
    target = operators.product_orbits(feig, tern)
    for m in range(1, n + 1):
        rest = m
        while rest % 2 == 0:
            rest //= 2
        while rest % 3 == 0:
            rest //= 3
        if target[m] != (1 if rest == 1 else 0):
            return _fail(m, "product is not the 3-smooth indicator")
    result = factor_search(target, n)
    pairs = {(p.left.terms, p.right.terms) for p in result.pairs}
    if (feig.terms, tern.terms) not in pairs:
        return _fail(None, "original factor pair not found")
    for pair in result.pairs:
        if operators.product_orbits(pair.left, pair.right) != target:
            return _fail(None, "a reported pair does not multiply back")
    return _OK


# ---------------------------------------------------------------------------
# cli plumbing
# ---------------------------------------------------------------------------


@identity("bfile-roundtrip", 50, "b-file export/import round-trips exactly")
def _bfile_roundtrip(n: int) -> Outcome:
    rng = random.Random(1616)
    values = [rng.randint(-(10**12), 10**12) for _ in range(n)]
    for start in (1, 0, 5, -3):
        text = format_bfile(values, start)
        parsed = parse_bfile(text)
        if parsed.start != start or list(parsed.values) != values:
            return _fail(None, f"round-trip failed for offset {start}")
        if parsed.to_text() != text:
            return _fail(None, f"re-export not byte-identical for offset {start}")
    commented = "# header\n\n" + format_bfile(values, 1) + "# trailer\n"
    if list(parse_bfile(commented).values) != values:
        return _fail(None, "comments and blank lines not ignored")
    return _OK
