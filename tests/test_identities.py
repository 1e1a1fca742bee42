import hashlib
import importlib
import random
import sys

import pytest

from orbitkit import DirichletPoly, factor_search, identities
from orbitkit.cli import main
from orbitkit.identities import (
    REGISTRY,
    Identity,
    Mismatch,
    VerifyResult,
    _expect,
    run,
)
from orbitkit.sequences import Sequence, View


def test_registry_is_populated():
    assert len(REGISTRY) >= 40
    # the names the command-line docs promise
    for name in (
        "ttimest-series",
        "three-route-monoid",
        "zeta-factorization",
        "pnt-ratio",
        "oracle-product",
    ):
        assert name in REGISTRY


def test_every_identity_passes_at_defaults():
    results = [run(name) for name in REGISTRY]
    assert [r for r in results if not r.ok] == []


@pytest.mark.parametrize("terms", [1, 2, 3, 4, 7])
def test_every_identity_passes_at_small_terms(terms):
    # fixed prefixes and sparse factors are cut to the requested length
    results = [run(name, terms) for name in REGISTRY]
    assert [r for r in results if not r.ok] == []


def _trace_one_step_long(real):
    """oracle._trace, which writes into `counts`, with every cycle it traces one step longer."""
    def fake(d1, d2, s1, s2, weight, counts):
        shorter = [0] * (len(counts) - 1)
        real(d1, d2, s1, s2, weight, shorter)
        for length, count in enumerate(shorter):
            counts[length + 1] += count
    return fake


# kernel "module.name": (corruption, the FAIL lines `verify all` prints at default terms).
# A corruption k adds 1 to output term k, None adds 1 to every value of an int-valued
# kernel, and a callable maps the real kernel to its fake. A new kernel is one new row.
_KERNEL_FAULTS = {
    "transforms.euler": (3, """
        euler-roundtrip: FAIL at index 3 (euler_inverse(euler(o)) != o)
        three-route-monoid: FAIL at index 3 (zeta function routes disagree)
        euler-partitions: FAIL at index 3 (partition prefix wrong)
        golden-mean-monoid: FAIL at index 3 (monoid counts are not Fibonacci(n+1))
        full-shift-monoid: FAIL at index 3 (monoid counts wrong for a=2)
        dual-rational-monoid: FAIL at index 3 (monoid counts wrong for (1,2))
        localized-monoid: FAIL at index 2 (even/odd monoid pairing fails)
        s-integer-monoid: FAIL at index 3 (monoid prefix wrong)
    """),
    # the closed-form monoid checks compare the product route with the Euler recurrence
    "zetaseries.product_formula": (3, """
        three-route-monoid: FAIL at index 3 (zeta function routes disagree)
        golden-mean-monoid: FAIL at index 3 (product route: monoid counts are not Fibonacci(n+1))
        full-shift-monoid: FAIL at index 3 (product route: monoid counts wrong for a=2)
        dual-rational-monoid: FAIL at index 3 (product route: monoid counts wrong for (1,2))
        s-integer-monoid: FAIL at index 3 (product route disagrees with the recurrence)
    """),
    "dirichlet.zeta_shift": (4, """
        ttimest-series: FAIL at index 4 (cleared-denominator identity fails)
        fix-series: FAIL at index 4 (fix series identity fails)
        iterate-id2-series: FAIL at index 4 (sparse form fails)
        iterate-idp-series: FAIL at index 4 (sparse form fails for p=2)
        s-part-interpolation: FAIL at index 4 (interpolation fails for S=(2,))
        rational-a-series: FAIL at index 4 (a_S identity fails for S=(2,))
        sp-zeta-product-series: FAIL at index 4 (closed form fails for P=(2,))
        ramanujan-series: FAIL at index 4 (series identity fails for (a,b)=(0,1))
        mobius-series: FAIL at index 4 (zeta * mu != delta)
    """),
    # Gauss's sum of phi(d) over d | m breaks at m = 1, before the oracle divides by it
    "numtheory.euler_phi": (None, """
        cyclic-subgroups: FAIL at index 1 (divisor sum of phi is not n)
    """),
    "oracle._trace": (_trace_one_step_long, """
        oracle-product: FAIL at index 3 (exhaustive case u=(0, 0, 1), v=(0, 0, 1))
        oracle-iterate: FAIL at index 1 (exhaustive case o=(1, 0, 0, 0, 0, 0), k=1)
    """),
    "operators.product_orbits": (2, """
        product-multiplicative: FAIL (product lost multiplicativity, witness (2, 3))
        product-identity: FAIL at index 2 (delta is not the product identity)
        product-associative: FAIL at index 2 (product is not associative)
        product-distributive: FAIL at index 2 (product does not distribute over union)
        product-fix-consistency: FAIL at index 2 (lcm product disagrees with the fix-count route)
        ttimest-series: FAIL at index 2 (self-product prefix wrong)
        sp-zeta-product-series: FAIL at index 2 (closed form fails for P=(2,))
        a035109-prefix: FAIL at index 2 (prefix wrong)
        ramanujan-series: FAIL at index 2 (pointwise form fails for (a,b)=(0,1))
        oracle-product: FAIL at index 2 (exhaustive case u=(0, 0, 0), v=(0, 0, 0))
        cyclic-subgroups: FAIL at index 2 (cyclic subgroup count disagrees)
        primitive-lattices: FAIL at index 2 (lattice divisor sum disagrees)
        zeta-factorization: FAIL at index 2 (pair does not multiply back to zeta)
        three-smooth-factor: FAIL at index 2 (product is not the 3-smooth indicator)
    """),
    # operators and factorization import it by name; F(1) one too high is not realizable
    # at n = 2, and each identity reports that kernel error as its own FAIL
    "transforms.orbit_to_fix": (1, """
        fix-orbit-roundtrip: FAIL at index 2 (orbit count at n=2 is not integral)
        euler-roundtrip: FAIL at index 2 (monoid count at n=2 is not integral)
        multiplicative-iff: FAIL (orbit/fix multiplicativity disagree on the orbit counts of zeta)
        product-multiplicative: FAIL at index 2 (orbit count at n=2 is not integral)
        product-identity: FAIL at index 2 (orbit count at n=2 is not integral)
        product-commutative: FAIL at index 2 (orbit count at n=2 is not integral)
        product-associative: FAIL at index 3 (orbit count at n=3 is not integral)
        product-distributive: FAIL at index 2 (orbit count at n=2 is not integral)
        product-fix-consistency: FAIL at index 3 (orbit count at n=3 is not integral)
        iterate-fix-consistency: FAIL at index 2 (orbit count at n=2 is not integral)
        ttimest-series: FAIL at index 2 (orbit count at n=2 is not integral)
        sp-zeta-product-series: FAIL at index 2 (orbit count at n=2 is not integral)
        a035109-prefix: FAIL at index 2 (orbit count at n=2 is not integral)
        ramanujan-series: FAIL at index 2 (orbit count at n=2 is not integral)
        three-route-monoid: FAIL at index 2 (monoid count at n=2 is not integral)
        euler-partitions: FAIL at index 2 (monoid count at n=2 is not integral)
        golden-mean-monoid: FAIL at index 2 (monoid count at n=2 is not integral)
        full-shift-monoid: FAIL at index 2 (monoid count at n=2 is not integral)
        dual-rational-monoid: FAIL at index 2 (monoid count at n=2 is not integral)
        localized-monoid: FAIL at index 2 (monoid count at n=2 is not integral)
        s-integer-monoid: FAIL at index 2 (monoid count at n=2 is not integral)
        oracle-count-fixed: FAIL at index 1 (count_fixed disagrees with orbit_to_fix)
        oracle-product: FAIL at index 2 (orbit count at n=2 is not integral)
        cyclic-subgroups: FAIL at index 2 (orbit count at n=2 is not integral)
        primitive-lattices: FAIL at index 2 (orbit count at n=2 is not integral)
        zeta-factorization: FAIL (found 0 pairs, expected 16)
        three-smooth-factor: FAIL at index 2 (orbit count at n=2 is not integral)
    """),
    # the four kernels that exactly one identity catches
    "dirichlet.div": (1, """
        ttimest-series: FAIL at index 1 (division route disagrees with the product)
    """),
    "transforms.euler_inverse": (1, """
        euler-roundtrip: FAIL at index 1 (euler_inverse(euler(o)) != o)
    """),
    "operators.union_orbits": (1, """
        product-distributive: FAIL at index 1 (product does not distribute over union)
    """),
    "operators.iterate_fix": (1, """
        iterate-fix-consistency: FAIL at index 2 (orbit count at n=2 is not integral)
    """),
}


def _corrupt(monkeypatch, kernel, corruption):
    """Patch the corrupted kernel into every orbitkit module whose attribute is the real one."""
    module, attr = kernel.split(".")
    real = getattr(importlib.import_module(f"orbitkit.{module}"), attr)

    def plus_one(*args):
        out = real(*args)
        if corruption is None:
            return out + 1
        poly = isinstance(out, DirichletPoly)
        values = out.coeffs if poly else out.terms
        if len(values) >= corruption:
            values = (*values[: corruption - 1], values[corruption - 1] + 1, *values[corruption:])
        return DirichletPoly(values) if poly else Sequence(out.view, values)

    fake = corruption(real) if callable(corruption) else plus_one
    for name, loaded in list(sys.modules.items()):
        if name.startswith("orbitkit") and getattr(loaded, attr, None) is real:
            monkeypatch.setattr(loaded, attr, fake)


@pytest.mark.parametrize("kernel", _KERNEL_FAULTS)
def test_a_corrupted_kernel_fails_exactly_its_identities(monkeypatch, capsys, kernel):
    corruption, lines = _KERNEL_FAULTS[kernel]
    fails = dict(line.strip().split(": ", 1) for line in lines.strip().splitlines())
    assert fails.keys() <= REGISTRY.keys()
    _corrupt(monkeypatch, kernel, corruption)
    assert main(["verify", "all"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [f"{name}: {fails.get(name, 'PASS')}" for name in REGISTRY]


@pytest.mark.parametrize(
    "expected, actual, index",
    [((1, 2, 3), (1, 5, 3), 2), ((1, 2), (1, 2, 3), 3), ((1, 2, 3), (1,), 2), ((), (4,), 1)],
)
def test_expect_raises_at_first_difference(expected, actual, index):
    _expect((1, 2), [1, 2], "equal")  # returns None when they agree
    with pytest.raises(Mismatch) as info:
        _expect(expected, actual, "detail")
    assert info.value.args == (index, "detail")


def test_expect_compares_views_of_two_sequences():
    orbit, fix = Sequence(View.ORBIT, (1, 2)), Sequence(View.FIX, (1, 2))
    _expect(orbit, Sequence(View.ORBIT, (1, 2)), "equal")
    _expect(orbit, (1, 2), "a plain iterable has no view")
    with pytest.raises(Mismatch) as info:
        _expect(orbit, fix, "views differ")
    assert info.value.args == (None, "views differ")


def test_expect_takes_generators():
    _expect((m * m for m in range(1, 4)), iter([1, 4, 9]), "equal")
    with pytest.raises(Mismatch) as info:
        _expect((m * m for m in range(1, 4)), (m + m for m in range(1, 5)), "detail")
    assert info.value.args == (1, "detail")
    with pytest.raises(Mismatch) as info:
        _expect((m for m in range(1, 4)), (m for m in range(1, 3)), "detail")
    assert info.value.args == (3, "detail")


def test_zeta_factorization_limits_the_search_to_one_extra_pair(monkeypatch):
    # zeta to 10 terms has 2^pi(10) = 16 factor pairs: the search may find 17
    limits = []

    def spy(target, *, limit):
        limits.append(limit)
        return factor_search(target, limit=limit)

    monkeypatch.setattr(identities, "factor_search", spy)
    assert run("zeta-factorization", 10).ok
    assert limits == [17]


def test_failure_without_index(monkeypatch, capsys):
    # run() and `verify NAME` report a check's Mismatch as it was raised, with or without an index
    for index, detail, line in (
        (None, "no index to give", "always-fails: FAIL (no index to give)"),
        (3, "wrong from term 3", "always-fails: FAIL at index 3 (wrong from term 3)"),
    ):
        def always_fails(n, index=index, detail=detail):
            raise Mismatch(index, detail)

        ident = Identity("always-fails", 1, "fails with or without an index", always_fails)
        monkeypatch.setitem(REGISTRY, ident.name, ident)
        assert run(ident.name) == VerifyResult(ident.name, False, index, detail)
        assert main(["verify", ident.name]) == 1
        assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("error", [RuntimeError("boom"), ValueError("boom")])
def test_other_exception_in_a_check_is_an_internal_error(monkeypatch, capsys, error):
    def crashes(n):
        raise error

    name = "product-identity"
    monkeypatch.setitem(REGISTRY, name, Identity(name, 1, "raises a defect", crashes))
    with pytest.raises(RuntimeError, match=f"identity {name}: {type(error).__name__}"):
        run(name)
    assert main(["verify", "all"]) == 4
    captured = capsys.readouterr()
    names = list(REGISTRY)
    assert [line.split(": ")[0] for line in captured.out.splitlines()] == names[: names.index(name)]
    assert captured.err.startswith("internal error:")
    assert f"identity {name}" in captured.err


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        run("no-such-identity")


def test_terms_override():
    result = run("mobius-sum", terms=50)
    assert result.ok
    with pytest.raises(ValueError):
        run("mobius-sum", terms=0)


def test_results_are_deterministic():
    # randomized checks use fixed seeds, so reruns agree exactly
    first = run("three-route-monoid")
    second = run("three-route-monoid")
    assert first == second


# each seeded identity at default terms: how many values random.Random.randint returns,
# and the first 16 hex digits of the SHA-256 of their repr, so that a changed seed, case
# count or draw order shows even where every check still passes
_CASE_STREAMS = {
    "sigma-multiplicative": (200, "f27c861fbf087c7c"),
    "fix-orbit-roundtrip": (20819, "a172f0b9f853cdaa"),
    "euler-roundtrip": (5815, "5887d8e6503c6484"),
    "product-multiplicative": (1500, "90130fa56305bd19"),
    "product-identity": (1200, "0d0c0d6ced96c81b"),
    "product-commutative": (3000, "3b0bd2c8de829bb5"),
    "product-associative": (1200, "5ccf86cea5bdaec7"),
    "product-distributive": (2700, "d6683a230353dfd5"),
    "product-fix-consistency": (4800, "ff78071a2de082ed"),
    "iterate-fix-consistency": (2880, "f3a6fb17a0148ea3"),
    "iterate-composition": (1200, "ef73091235461a75"),
    "three-route-monoid": (2431, "976af488f94aa10d"),
    "oracle-count-fixed": (1500, "270fed7cd480d772"),
    "oracle-product": (2400, "ceabe536a9fd9230"),
    "oracle-iterate": (1300, "2cc94c4eaffaf99d"),
    "bfile-roundtrip": (50, "00d0d3341c219d76"),
}


def test_seeded_case_streams_are_pinned(monkeypatch):
    real = random.Random.randint
    draws = []

    def recording(self, a, b):
        draws.append(real(self, a, b))
        return draws[-1]

    monkeypatch.setattr(random.Random, "randint", recording)
    for name, (count, digest) in _CASE_STREAMS.items():
        draws.clear()
        assert run(name).ok, name
        assert len(draws) == count, name
        assert hashlib.sha256(repr(draws).encode()).hexdigest()[:16] == digest, name


def test_result_fields():
    r = run("zeta-ones", terms=10)
    assert r.name == "zeta-ones"
    assert r.ok is True
    assert r.failing_index is None
    assert r.detail == ""


def test_descriptions_present():
    for ident in REGISTRY.values():
        assert ident.description
        assert ident.default_terms >= 1
