"""Named, machine-checkable identities behind the `verify` subcommand.

Every invariant promised by the library is registered here under a
stable name, as a function of a term count.  Randomized checks draw
their cases from `_cases`, one `random.Random` per fixed seed, so
identical invocations give identical results.  A check returns None
when its identity holds and otherwise raises `Mismatch` with the first
failing index, when there is one.  Every elementwise comparison goes
through `_expect`, which finds that index; a divisor sum is a Dirichlet
product, whose factors `_same_series` reads as plain coefficients and
multiplies out.  Checks that are not elementwise equality (multiplicativity
witnesses, envelopes, orderings, counts) raise `Mismatch` themselves.
`run` alone turns either outcome into a `VerifyResult`.  It reports a
kernel's `NotRealizableError` as a failure at its index, and re-raises
any other exception as a RuntimeError that names the identity.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import reduce
from operator import methodcaller
from typing import Callable, NamedTuple, Optional

from . import asymptotics, dirichlet, operators, oracle, transforms
from .bfile import format_bfile, parse_bfile
from .factorization import factor_search
from .numtheory import (
    PrimeSet,
    _require_int,
    divisors,
    euler_phi,
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


class Mismatch(Exception):
    """A failed check: ``Mismatch(first failing one-based index or None, detail)``."""


class VerifyResult(NamedTuple):
    name: str
    ok: bool
    failing_index: Optional[int]
    detail: str


class Identity(NamedTuple):
    name: str
    default_terms: int
    description: str
    check: Callable[[int], None]


REGISTRY: dict[str, Identity] = {}


def identity(name: str, default_terms: int, description: str):
    def wrap(fn):
        REGISTRY[name] = Identity(name, default_terms, description, fn)
        return fn

    return wrap


def run(name: str, terms: Optional[int] = None) -> VerifyResult:
    ident = REGISTRY[name]
    n = ident.default_terms if terms is None else terms
    _require_int(n, "terms")
    try:
        ident.check(n)
    except Mismatch as exc:
        return VerifyResult(ident.name, False, *exc.args)
    except transforms.NotRealizableError as exc:
        return VerifyResult(ident.name, False, exc.index, str(exc))
    except Exception as exc:
        raise RuntimeError(f"identity {ident.name}: {exc!r}") from exc
    return VerifyResult(ident.name, True, None, "")


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------


def _expect(expected, actual, detail: str) -> None:
    """Raise at the first one-based index where the iterables (or their lengths) differ.

    Two `Sequence`s must also carry the same view; a view difference has no index.
    """
    if isinstance(expected, Sequence) and isinstance(actual, Sequence):
        if expected.view is not actual.view:
            raise Mismatch(None, detail)
    xs, ys = list(expected), list(actual)
    if xs == ys:
        return
    first = next((i for i, (x, y) in enumerate(zip(xs, ys)) if x != y), min(len(xs), len(ys)))
    raise Mismatch(first + 1, detail)


def _same_series(lhs: list, rhs: list, detail: str) -> dirichlet.DirichletPoly:
    """`_expect` equal Dirichlet products of each side's coefficient iterables; return the rhs's."""
    left, right = (reduce(dirichlet.mul, map(dirichlet.DirichletPoly, side)) for side in (lhs, rhs))
    _expect(left, right, detail)
    return right


def _cases(seed: int, count: int, *draws: Callable[[random.Random], object]):
    """Yield `count` tuples, one value per draw, all drawn from one `random.Random(seed)`."""
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(draw(rng) for draw in draws)


def _orbits(length, max_term: int) -> Callable[[random.Random], Sequence]:
    """A draw of orbit counts in 0..max_term; `length` is a count or a draw of one."""

    def draw(rng: random.Random) -> Sequence:
        n = length(rng) if callable(length) else length
        return Sequence(View.ORBIT, tuple(rng.randint(0, max_term) for _ in range(n)))

    return draw


def _multiplicative(n: int, max_val: int) -> Callable[[random.Random], Sequence]:
    """A draw of n multiplicative orbit counts, each prime-power term in 0..max_val."""

    def draw(rng: random.Random) -> Sequence:
        at_prime_power = {}
        for p in primes_upto(n):
            q = p
            while q <= n:
                at_prime_power[q] = rng.randint(0, max_val)
                q *= p
        terms = (math.prod(at_prime_power[p**a] for p, a in factorize(m)) for m in range(1, n + 1))
        return Sequence(View.ORBIT, tuple(terms))

    return draw


# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------


@identity("mobius-sum", 10_000, "sum of mu over divisors vanishes except at 1")
def _mobius_sum(n: int) -> None:
    sums = (sum(mobius(d) for d in divisors(m)) for m in range(1, n + 1))
    _expect([1] + [0] * (n - 1), sums, "divisor sum of mu is not the indicator of 1")


@identity("sigma-multiplicative", 300, "sigma_k is multiplicative on coprime pairs")
def _sigma_mult(n: int) -> None:
    for a, b in _cases(101, 100, *[methodcaller("randint", 1, n)] * 2):
        if math.gcd(a, b) != 1:
            continue
        for k in range(4):
            if sigma_k(a * b, k) != sigma_k(a, k) * sigma_k(b, k):
                raise Mismatch(a * b, f"sigma_{k}({a}*{b}) is not the product")


@identity("part-complement", 2_000, "S-part times complement part recovers n")
def _part_complement(n: int) -> None:
    sets = (
        PrimeSet.finite((2,)),
        PrimeSet.finite((3,)),
        PrimeSet.finite((2, 5)),
        PrimeSet.all_except((2,)),
    )
    for s in sets:
        c = s.complement()
        products = (part(m, s) * part(m, c) for m in range(1, n + 1))
        _expect(range(1, n + 1), products, f"part mismatch for {s}")


@identity("factorize-roundtrip", 2_000, "factorizations multiply back with prime parts")
def _factorize_roundtrip(n: int) -> None:
    found = [factorize(m) for m in range(1, n + 1)]
    values = (math.prod(p**a for p, a in pairs) for pairs in found)
    _expect(range(1, n + 1), values, "factorization does not multiply back")
    prime = (all(is_prime(p) for p, _ in pairs) for pairs in found)
    _expect([True] * n, prime, "non-prime factor reported")


# ---------------------------------------------------------------------------
# sequence catalogue
# ---------------------------------------------------------------------------


@identity("zeta-ones", 500, "zeta is all ones; empty and full prime sets collapse")
def _zeta_ones(n: int) -> None:
    z = zeta(n)
    _expect([1] * n, z, "zeta has a term different from 1")
    _expect(z, s_p(PrimeSet.finite(), n), "s_P with no primes is not zeta")
    _expect(delta(n), s_p(PrimeSet.all_except(), n), "s_P over all primes is not delta")


@identity("sp-multiplicative", 200, "prime-set indicators are multiplicative")
def _sp_mult(n: int) -> None:
    sets = (
        PrimeSet.finite(),
        PrimeSet.finite((2,)),
        PrimeSet.finite((3,)),
        PrimeSet.finite((2, 5)),
        PrimeSet.all_except((2,)),
        PrimeSet.all_except((2, 3)),
    )
    for s in sets:
        witness = transforms.is_multiplicative(s_p(s, n))
        if witness is not None:
            raise Mismatch(math.prod(witness), f"s_P not multiplicative for {s}: witness {witness}")


@identity("feigenbaum-sums", 1_024, "partial sums over dyadic blocks count the doublings")
def _feig_sums(n: int) -> None:
    seq = feigenbaum(n)
    k, block = 0, 1
    while block <= n:
        total = asymptotics.pi_count(seq, block)
        if total != k + 1:
            raise Mismatch(block, f"sum to 2^{k} is {total}, expected {k + 1}")
        k, block = k + 1, block * 2


@identity("dual-rational-growth", 64, "dual map fix counts are positive and increasing")
def _dual_growth(n: int) -> None:
    for a, b in ((1, 2), (2, 3), (3, 5), (4, 9)):
        seq = dual_rational(a, b, n)
        prev = 0
        for m in range(1, n + 1):
            if seq[m] <= prev:
                raise Mismatch(m, f"({a},{b}) not strictly increasing at {m}")
            prev = seq[m]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


@identity("fix-orbit-roundtrip", 200, "Moebius inversion round-trips both ways")
def _fix_orbit_roundtrip(n: int) -> None:
    for (o,) in _cases(202, 200, _orbits(methodcaller("randint", 1, n), 9)):
        f = transforms.orbit_to_fix(o)
        _expect(o, transforms.fix_to_orbit(f), "fix_to_orbit(orbit_to_fix(o)) != o")
        _expect(f, transforms.orbit_to_fix(transforms.fix_to_orbit(f)),
                "orbit_to_fix(fix_to_orbit(f)) != f")


@identity("euler-roundtrip", 60, "Euler transform round-trips both ways")
def _euler_roundtrip(n: int) -> None:
    for (o,) in _cases(303, 200, _orbits(methodcaller("randint", 1, n), 5)):
        g = transforms.euler(o)
        _expect(o, transforms.euler_inverse(g), "euler_inverse(euler(o)) != o")
        _expect(g, transforms.euler(transforms.euler_inverse(g)), "euler(euler_inverse(g)) != g")


@identity("multiplicative-iff", 60, "orbit counts multiplicative iff fix counts are")
def _mult_iff(n: int) -> None:
    cases = (
        ("zeta", zeta(n)),
        ("delta", delta(n)),
        ("id_orbits", id_orbits(n)),
        ("geometric p=2", geometric(2, n)),
        ("feigenbaum", feigenbaum(n)),
        ("ternary", ternary(n)),
        ("s_P P=2", s_p(PrimeSet.finite((2,)), n)),
        ("s_P P=~2", s_p(PrimeSet.all_except((2,)), n)),
        ("golden_mean", golden_mean(n)),
        ("full_shift a=2", full_shift(2, n)),
        ("full_shift a=3", full_shift(3, n)),
        ("dual_rational a=2 b=3", dual_rational(2, 3, n)),
        ("localized_23", localized_23(n)),
        ("s_integer_23", s_integer_23(n)),
    )
    for label, seq in cases:
        want = transforms.is_multiplicative(seq) is None
        other = transforms.convert(seq, View.FIX if seq.view is View.ORBIT else View.ORBIT)
        if (transforms.is_multiplicative(other) is None) != want:
            counts = f"{seq.view.value} counts"
            raise Mismatch(None, f"orbit/fix multiplicativity disagree on the {counts} of {label}")


@identity("product-multiplicative", 60, "products of multiplicative systems stay multiplicative")
def _product_mult(n: int) -> None:
    for u, v in _cases(404, 30, *[_multiplicative(n, 3)] * 2):
        witness = transforms.is_multiplicative(operators.product_orbits(u, v))
        if witness is not None:
            raise Mismatch(math.prod(witness), f"product lost multiplicativity, witness {witness}")


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@identity("product-identity", 60, "the single fixed point is a two-sided product identity")
def _product_identity(n: int) -> None:
    for (o,) in _cases(505, 20, _orbits(n, 4)):
        d = delta(n)
        _expect(o, operators.product_orbits(o, d), "delta is not the product identity")
        _expect(o, operators.product_orbits(d, o), "delta is not the product identity")


@identity("product-commutative", 60, "orbit products commute")
def _product_comm(n: int) -> None:
    for u, v in _cases(606, 25, *[_orbits(n, 4)] * 2):
        _expect(operators.product_orbits(u, v), operators.product_orbits(v, u),
                "product_orbits(u, v) != product_orbits(v, u)")


@identity("product-associative", 40, "orbit products associate")
def _product_assoc(n: int) -> None:
    for u, v, w in _cases(707, 10, *[_orbits(n, 3)] * 3):
        lhs = operators.product_orbits(operators.product_orbits(u, v), w)
        rhs = operators.product_orbits(u, operators.product_orbits(v, w))
        _expect(lhs, rhs, "product is not associative")


@identity("product-distributive", 60, "product distributes over disjoint union")
def _product_distrib(n: int) -> None:
    for u, v, w in _cases(808, 15, *[_orbits(n, 4)] * 3):
        lhs = operators.product_orbits(u, operators.union_orbits(v, w))
        rhs = operators.union_orbits(
            operators.product_orbits(u, v), operators.product_orbits(u, w)
        )
        _expect(lhs, rhs, "product does not distribute over union")


@identity("product-fix-consistency", 60, "orbit-product route matches pointwise fix product")
def _product_fix_consistency(n: int) -> None:
    for u, v in _cases(909, 40, *[_orbits(n, 4)] * 2):
        _expect(
            oracle.product_by_lcm(u, v),
            operators.product_orbits(u, v),
            "lcm product disagrees with the fix-count route",
        )


@identity("iterate-fix-consistency", 72, "direct iterate matches the fix-dilation route")
def _iterate_fix_consistency(n: int) -> None:
    for (o,) in _cases(1010, 40, _orbits(max(n, 6), 4)):
        for k in range(1, 7):
            direct = operators.iterate_orbits(o, k)
            dilated = transforms.fix_to_orbit(
                operators.iterate_fix(transforms.orbit_to_fix(o), k)
            )
            _expect(direct, dilated, f"iterate routes disagree for k={k}")


@identity("iterate-composition", 48, "iterating j then k equals iterating jk")
def _iterate_composition(n: int) -> None:
    for (o,) in _cases(1111, 25, _orbits(max(n, 16), 4)):
        for j, k in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 4)):
            lhs = operators.iterate_orbits(operators.iterate_orbits(o, j), k)
            rhs = operators.iterate_orbits(o, j * k)
            _expect(lhs, rhs, f"iterate composition fails for j={j}, k={k}")


def _sp_iterate_expected(p_list: tuple[int, ...], k: int, m: int) -> int:
    if any(m % p == 0 for p in p_list):
        return 0
    out = 1
    for p, a in factorize(k):
        if p in p_list:
            continue
        out *= p**a if m % p == 0 else sigma_k(p**a, 1)
    return out


@identity("sp-iterate-closed-form", 24, "iterates of prime-set indicators have a closed form")
def _sp_iterate(n: int) -> None:
    for p_list in ((), (2,), (3,), (2, 5)):
        pset = PrimeSet.finite(p_list)
        for k in range(1, n + 1):
            base = s_p(pset, k * n)
            iterated = operators.iterate_orbits(base, k)
            expected = (_sp_iterate_expected(p_list, k, m) for m in range(1, n + 1))
            _expect(expected, iterated, f"closed form fails for P={p_list}, k={k}")


@identity("feigenbaum-iterate", 64, "doubling-cascade iterates scale by the 2-part of k")
def _feig_iterate(n: int) -> None:
    two = PrimeSet.finite((2,))
    base = feigenbaum(8 * n)
    for k in range(1, 9):
        t = operators.iterate_orbits(truncate(base, k * n), k)
        k2 = part(k, two)
        expected = [2 * k2 - 1] + [k2 * x for x in base.terms[1:n]]
        _expect(expected, t, f"feigenbaum iterate wrong for k={k}")


# ---------------------------------------------------------------------------
# dirichlet series
# ---------------------------------------------------------------------------


def _sparse(entries: list[tuple[int, int]], n: int) -> dirichlet.DirichletPoly:
    """`dirichlet.sparse` truncated to n terms: entries past n drop out."""
    return dirichlet.sparse([(m, c) for m, c in entries if m <= n], n)


@identity("ttimest-series", 200, "self-product matches its closed Dirichlet form")
def _ttimest(n: int) -> None:
    prod = operators.product_orbits(zeta(n), zeta(n))
    prefix = (1, 4, 5, 10, 7, 20, 9, 22)
    _expect(prefix[:n], prod.terms[: len(prefix)], "self-product prefix wrong")
    sigma = (sigma_k(m, 1) for m in range(1, n + 1))
    squarefree = (mobius(m) ** 2 for m in range(1, n + 1))
    _same_series([sigma, squarefree], [prod], "squarefree-weighted sigma sum disagrees")
    z = dirichlet.zeta_poly(n)
    rhs = _same_series([prod, dirichlet.dilate(z, 2)], [z, z, dirichlet.zeta_shift(1, n)],
                       "cleared-denominator identity fails")
    quotient = dirichlet.div(rhs, dirichlet.dilate(z, 2))
    _expect(quotient, prod, "division route disagrees with the product")


@identity("fix-series", 100, "orbit series times zeta(s+1) is the fix series")
def _fix_series(n: int) -> None:
    # cleared form: coefficient m times m, so m*O(m) times zeta(s) is F(m)
    for f in (golden_mean(n), full_shift(2, n)):
        o = transforms.fix_to_orbit(f)
        cleared = (m * t for m, t in enumerate(o, start=1))
        _same_series([cleared, dirichlet.zeta_poly(n)], [f], "fix series identity fails")


@identity("iterate-id2-series", 100, "squared identity map has series (5 - 2/2^s) zeta(s-1)")
def _iterate_id2(n: int) -> None:
    t = operators.iterate_orbits(id_orbits(2 * n), 2)
    prefix = (5, 8, 15, 16, 25, 24, 35, 32)
    _expect(prefix[:n], t.terms[: len(prefix)], "second-iterate prefix wrong")
    _same_series([t], [_sparse([(1, 5), (2, -2)], n), dirichlet.zeta_shift(1, n)],
                 "sparse form fails")


@identity("iterate-idp-series", 60, "prime iterates of the identity map in sparse form")
def _iterate_idp(n: int) -> None:
    for p in (2, 3, 5):
        t = operators.iterate_orbits(id_orbits(p * n), p)
        expected = (p * p * m if m % p == 0 else (p * p + 1) * m for m in range(1, n + 1))
        _expect(expected, t, f"pointwise form fails for p={p}")
        rhs = [_sparse([(1, p * p + 1), (p, -p)], n), dirichlet.zeta_shift(1, n)]
        _same_series([t], rhs, f"sparse form fails for p={p}")


def _local_factors(s: Sequence, primes, sign: int, detail: str) -> None:
    """Check series(s) * prod_p (1 - p/p^s) == zeta(s) * prod_p (1 + sign/p^s) over `primes`."""
    n = len(s)
    lhs = [s, *(_sparse([(1, 1), (p, -p)], n) for p in primes)]
    rhs = [dirichlet.zeta_poly(n), *(_sparse([(1, 1), (p, sign)], n) for p in primes)]
    _same_series(lhs, rhs, detail)


@identity("s-part-interpolation", 100, "S-part series equals zeta times local factors")
def _s_part_interp(n: int) -> None:
    for p_list in ((2,), (3,), (2, 3)):
        seq = s_part_seq(PrimeSet.finite(p_list), n)
        _local_factors(seq, p_list, -1, f"interpolation fails for S={p_list}")


@identity("rational-a-series", 100, "a_S weights satisfy their interpolation identity")
def _a_series(n: int) -> None:
    for p_list in ((2,), (3,), (2, 3)):
        seq = a_s(PrimeSet.finite(p_list), n)
        _local_factors(seq, p_list, 1, f"a_S identity fails for S={p_list}")


@identity("sp-zeta-product-series", 100, "indicator times zeta products in closed form")
def _sp_zeta_series(n: int) -> None:
    for p_list in ((2,), (3,), (2, 5)):
        prod = operators.product_orbits(s_p(PrimeSet.finite(p_list), n), zeta(n))
        others = [q for q in primes_upto(n) if q not in p_list]
        _local_factors(prod, others, 1, f"closed form fails for P={p_list}")


@identity("a035109-prefix", 9, "odd-part indicator times zeta opens (1,1,5,1,7,5,9,1,17)")
def _a035109(n: int) -> None:
    m = min(n, 9)
    prod = operators.product_orbits(s_p(PrimeSet.finite((2,)), m), zeta(m))
    expected = (1, 1, 5, 1, 7, 5, 9, 1, 17)[:m]
    _expect(expected, prod, "prefix wrong")


@identity("ramanujan-series", 60, "power-map products satisfy the four-zeta identity")
def _ramanujan(n: int) -> None:
    for a, b in ((0, 1), (1, 1), (1, 2)):
        u = Sequence(View.ORBIT, tuple(m**a for m in range(1, n + 1)))
        v = Sequence(View.ORBIT, tuple(m**b for m in range(1, n + 1)))
        prod = operators.product_orbits(u, v)
        sigmas = (sigma_k(m, a + 1) * sigma_k(m, b + 1) for m in range(1, n + 1))
        cleared = (m * t for m, t in enumerate(prod, start=1))
        _same_series([sigmas, map(mobius, range(1, n + 1))], [cleared],
                     f"pointwise form fails for (a,b)=({a},{b})")
        lhs = [prod, dirichlet.dilate(dirichlet.zeta_shift(a + b, n), 2)]
        rhs = [dirichlet.zeta_shift(c, n) for c in (a, b, a + b + 1)]
        _same_series(lhs, rhs, f"series identity fails for (a,b)=({a},{b})")


@identity("mobius-series", 50, "zeta times the mu series is the identity")
def _mobius_series(n: int) -> None:
    _same_series([dirichlet.zeta_poly(n), map(mobius, range(1, n + 1))],
                 [dirichlet.sparse([(1, 1)], n)], "zeta * mu != delta")


# ---------------------------------------------------------------------------
# zeta power series
# ---------------------------------------------------------------------------


# The partitions route is exponential in n: it checks this many terms.
PARTITION_TERMS = 12


@identity("three-route-monoid", 40, "Euler recurrence, product and exp expansions agree")
def _three_route(n: int) -> None:
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
    cases.extend(o for (o,) in _cases(1212, 100, _orbits(methodcaller("randint", 1, n), 4)))
    for o in cases:
        g = transforms.euler(o)
        m = min(len(g), PARTITION_TERMS)
        _expect(g, oracle.product_formula(o), "zeta function routes disagree")
        _expect(g.terms[:m], oracle.monoid_by_partitions(o, m), "zeta function routes disagree")


@identity("euler-partitions", 40, "Euler transform of all-ones counts partitions")
def _euler_partitions(n: int) -> None:
    g = transforms.euler(zeta(n))
    prefix = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    _expect(prefix[: min(n, 10)], g.terms[: min(n, 10)], "partition prefix wrong")
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
    _expect(p[1:], g, "pentagonal recurrence disagrees")


def _monoid_closed_form(f: Sequence, expected: list, detail: str) -> None:
    """Monoid counts of fixed-point data f by the Euler route and by the product route."""
    o = transforms.fix_to_orbit(f)
    _expect(expected, transforms.euler(o), detail)
    _expect(expected, oracle.product_formula(o), f"product route: {detail}")


@identity("golden-mean-monoid", 30, "golden mean monoid counts are shifted Fibonacci")
def _golden_monoid(n: int) -> None:
    fib = [1, 1]
    while len(fib) < n + 2:
        fib.append(fib[-1] + fib[-2])
    _monoid_closed_form(golden_mean(n), fib[1 : n + 1], "monoid counts are not Fibonacci(n+1)")


@identity("full-shift-monoid", 20, "full shift monoid counts are a^n")
def _full_shift_monoid(n: int) -> None:
    # 1 + sum G(n) s^n = zeta(s) = 1/(1 - a s), so G(n) = a^n exactly
    for a in (2, 3, 5):
        expected = [a**m for m in range(1, n + 1)]
        _monoid_closed_form(full_shift(a, n), expected, f"monoid counts wrong for a={a}")


@identity("dual-rational-monoid", 20, "dual map monoid counts are (b-a) b^(n-1)")
def _dual_monoid(n: int) -> None:
    for a, b in ((1, 2), (2, 3), (3, 5)):
        expected = [(b - a) * b ** (m - 1) for m in range(1, n + 1)]
        _monoid_closed_form(dual_rational(a, b, n), expected, f"monoid counts wrong for ({a},{b})")


@identity("localized-monoid", 200, "3-part system: orbit support and paired monoid counts")
def _localized(n: int) -> None:
    o = transforms.fix_to_orbit(localized_23(n))
    support = {1}
    m = 2
    while m <= n:
        support.add(m)
        m *= 3
    indicator = (int(m in support) for m in range(1, n + 1))
    _expect(indicator, o, "orbit counts are not the indicator of {1, 2*3^j}")
    g = transforms.euler(o)
    for m in range(1, min(40, (len(g) - 1) // 2) + 1):
        if g[2 * m] != g[2 * m + 1]:
            raise Mismatch(2 * m, "even/odd monoid pairing fails")


@identity("s-integer-monoid", 10, "3-free-part system: known orbit and monoid prefixes")
def _s_integer(n: int) -> None:
    m = max(n, 10)
    o = transforms.fix_to_orbit(s_integer_23(m))
    orbit_prefix = (1, 0, 2, 1, 6, 0, 18, 10, 56, 31)
    _expect(orbit_prefix, o.terms[:10], "orbit prefix wrong")
    g = transforms.euler(o)
    monoid_prefix = (1, 1, 3, 4, 10, 13, 33, 56)
    _expect(monoid_prefix, g.terms[:8], "monoid prefix wrong")
    _expect(g, oracle.product_formula(o), "product route disagrees with the recurrence")


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


@identity("orbit-growth", 40, "shift orbit counts track e^{hn}/n with root-size error")
def _orbit_growth(n: int) -> None:
    for a in (2, 3):
        o = transforms.fix_to_orbit(full_shift(a, n))
        for m in range(2, n + 1):
            # |m*O(m)/a^m - 1| <= 2m a^{-m/2}, squared to stay integral
            if (m * o[m] - a**m) ** 2 > 4 * m * m * a**m:
                raise Mismatch(m, f"pointwise growth bound fails for a={a}")


@identity("mertens-cauchy", 30, "Mertens increments shrink geometrically")
def _mertens_cauchy(n: int) -> None:
    h = math.log(2)
    o = transforms.fix_to_orbit(full_shift(2, max(n, 4)))
    prev = asymptotics.mertens_sum(o, 1, h)
    for m in range(2, max(n, 4) + 1):
        cur = asymptotics.mertens_sum(o, m, h)
        if abs(cur - prev - 1.0 / m) > 2.0 * 2.0 ** (-m / 2) + 1e-9:
            raise Mismatch(m, "increment outside the geometric envelope")
        prev = cur


@identity("mertens-drift", 30, "Mertens sum minus the harmonic sum settles down")
def _mertens_drift(n: int) -> None:
    top = max(n, 30)
    o = transforms.fix_to_orbit(full_shift(2, top))
    h = math.log(2)
    at20 = asymptotics.mertens_sum(o, 20, h) - asymptotics.harmonic_number(20)
    at30 = asymptotics.mertens_sum(o, top, h) - asymptotics.harmonic_number(top)
    if abs(at30 - at20) >= 1e-3:
        raise Mismatch(None, f"drift {abs(at30 - at20):.2e} exceeds 1e-3")


@identity("pnt-ratio", 30, "orbit counting function tracks its predicted growth")
def _pnt_ratio(n: int) -> None:
    top = max(n, 20)
    o = transforms.fix_to_orbit(full_shift(2, top))
    points = [p for p in (20, 25, 30) if p <= top]
    for p in points:
        report = asymptotics.pnt_report(o, math.log(2), 1.0, p)
        ratio = report.pi_actual / report.pi_predicted
        if abs(ratio - 1.0) > 5.0 / p:
            raise Mismatch(p, f"ratio {ratio:.4f} outside 1 +- {5.0 / p:.3f}")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@identity("oracle-count-fixed", 30, "fixed points counted on cycles match the divisor sum")
def _oracle_count_fixed(n: int) -> None:
    for (o,) in _cases(1313, 50, _orbits(n, 4)):
        counted = (oracle.count_fixed(o, m) for m in range(1, n + 1))
        _expect(counted, transforms.orbit_to_fix(o), "count_fixed disagrees with orbit_to_fix")


@identity("oracle-product", 12, "traced products match the gcd/lcm formula")
def _oracle_product(n: int) -> None:
    small = [Sequence(View.ORBIT, terms) for terms in itertools.product(range(4), repeat=3)]
    for u, v in itertools.product(small, repeat=2):
        _expect(oracle.simulate_product(u, v, 3), operators.product_orbits(u, v),
                f"exhaustive case u={u.terms}, v={v.terms}")
    for u, v in _cases(1414, 100, *[_orbits(n, 3)] * 2):
        simulated = oracle.simulate_product(u, v, n)
        _expect(simulated, operators.product_orbits(u, v), "random product case disagrees")


@identity("oracle-iterate", 12, "traced iterates match the direct formula")
def _oracle_iterate(n: int) -> None:
    # the first term varies fastest, as in counting up in base 3
    for digits in itertools.product(range(3), repeat=6):
        o = Sequence(View.ORBIT, digits[::-1])
        for k in range(1, 7):
            _expect(oracle.simulate_iterate(o, k, 6 // k), operators.iterate_orbits(o, k),
                    f"exhaustive case o={o.terms}, k={k}")
    for o, k in _cases(1515, 100, _orbits(n, 3), methodcaller("randint", 1, 6)):
        if n // k < 1:
            continue
        simulated = oracle.simulate_iterate(o, k, n // k)
        direct = operators.iterate_orbits(o, k)
        _expect(simulated, direct, f"random iterate case disagrees for k={k}")


@identity("cyclic-subgroups", 60, "cyclic subgroup counts equal the self-product")
def _cyclic_subgroups(n: int) -> None:
    # Gauss's sum_{d|m} phi(d) = m, that is phi * zeta = id; the count finds its own phi
    phi = map(euler_phi, range(1, n + 1))
    _same_series([range(1, n + 1)], [phi, dirichlet.zeta_poly(n)], "divisor sum of phi is not n")
    prod = operators.product_orbits(zeta(n), zeta(n))
    counts = map(oracle.cyclic_subgroup_count, range(1, n + 1))
    _expect(counts, prod, "cyclic subgroup count disagrees")


@identity("primitive-lattices", 60, "primitive lattice counts sum to the self-product")
def _primitive_lattices(n: int) -> None:
    z = zeta(n)
    counts = map(oracle.primitive_lattice_count, range(1, n + 1))
    _same_series([counts, z], [operators.product_orbits(z, z)], "lattice divisor sum disagrees")


@identity("lattice-prime-powers", 4, "prime-power lattice sums have the closed form")
def _lattice_prime_powers(n: int) -> None:
    for p in (2, 3, 5):
        for r in range(n + 1):
            total = sum(
                oracle.primitive_lattice_count(d) for d in divisors(p**r)
            )
            expected = p**r + 2 * sum(p**j for j in range(r))
            if total != expected:
                raise Mismatch(p**r, f"closed form fails at {p}^{r}")


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def _product(left: tuple, right: tuple) -> Sequence:
    """The product of a factor pair, which the search returns as plain tuples."""
    return operators.product_orbits(Sequence(View.ORBIT, left), Sequence(View.ORBIT, right))


@identity("zeta-factorization", 10, "zeta splits exactly into prime-set indicator pairs")
def _zeta_factor(n: int) -> None:
    target = zeta(n)
    # zeta to n terms has exactly 2^pi(n) pairs; the limit leaves room for one too many
    primes = primes_upto(n)
    expected_count = 2 ** len(primes)
    result = factor_search(target, limit=expected_count + 1)
    if result.truncated:
        raise Mismatch(None, "search unexpectedly truncated")
    if len(result.pairs) != expected_count:
        raise Mismatch(None, f"found {len(result.pairs)} pairs, expected {expected_count}")
    for left, right in result.pairs:
        excluded = tuple(p for p in primes if left[p - 1] == 0)
        _expect(s_p(PrimeSet.finite(excluded), n), left,
                "left factor is not a prime-set indicator")
        _expect(s_p(PrimeSet.all_except(excluded), n), right,
                "right factor is not the complementary indicator")
        _expect(target, _product(left, right), "pair does not multiply back to zeta")
    seen = set(result.pairs)
    for left, right in seen:
        if (right, left) not in seen:
            raise Mismatch(None, "result set is not swap-symmetric")


@identity("three-smooth-factor", 12, "smooth-number product is rediscovered by search")
def _three_smooth(n: int) -> None:
    feig, tern = feigenbaum(n), ternary(n)
    target = operators.product_orbits(feig, tern)
    smooth = PrimeSet.finite((2, 3))
    indicator = (int(part(m, smooth) == m) for m in range(1, n + 1))
    _expect(indicator, target, "product is not the 3-smooth indicator")
    result = factor_search(target)
    if (feig.terms, tern.terms) not in result.pairs:
        raise Mismatch(None, "original factor pair not found")
    for left, right in result.pairs:
        _expect(target, _product(left, right), "a reported pair does not multiply back")


# ---------------------------------------------------------------------------
# cli plumbing
# ---------------------------------------------------------------------------


@identity("bfile-roundtrip", 50, "b-file export/import round-trips exactly")
def _bfile_roundtrip(n: int) -> None:
    # n terms of 13 digits or fewer, then four that bfile splits: three drawn, and one
    # whose low halves begin with zeros
    big = (methodcaller("randint", -(10**d), 10**d) for d in (700, 2000, 4000))
    [drawn] = _cases(1616, 1, *[methodcaller("randint", -(10**12), 10**12)] * n, *big)
    values = (*drawn, -(10**3000 + 7))
    for start in (1, 0, 5, -3):
        text = format_bfile(values, start)
        parsed = parse_bfile(text)
        if parsed.start != start or parsed.values != values:
            raise Mismatch(None, f"round-trip failed for offset {start}")
        if format_bfile(parsed.values, parsed.start) != text:
            raise Mismatch(None, f"re-export not byte-identical for offset {start}")
    commented = "# header\n\n" + format_bfile(values, 1) + "# trailer\n"
    if parse_bfile(commented).values != values:
        raise Mismatch(None, "comments and blank lines not ignored")
