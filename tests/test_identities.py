import hashlib
import random
import sys

import pytest

from orbitkit import (
    dirichlet, factor_search, identities, numtheory, operators, transforms, zetaseries,
)
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


def _euler_off_by_one_at_3(monkeypatch):
    """Make transforms.euler add 1 to its third term."""
    real = transforms.euler

    def wrong(o):
        g = real(o)
        if len(g) < 3:
            return g
        terms = list(g.terms)
        terms[2] += 1
        return Sequence(g.view, tuple(terms))

    monkeypatch.setattr(transforms, "euler", wrong)


# the identities a wrong third product-formula term breaks at default terms
_PRODUCT_AT_3_FAILURES = {
    "three-route-monoid": "zeta function routes disagree",
    "golden-mean-monoid": "product route: monoid counts are not Fibonacci(n+1)",
    "full-shift-monoid": "product route: monoid counts wrong for a=2",
    "dual-rational-monoid": "product route: monoid counts wrong for (1,2)",
    "s-integer-monoid": "product route disagrees with the recurrence",
}


def test_wrong_product_formula_term_is_reported_at_its_index(monkeypatch):
    # the closed-form monoid checks compare the product route with the Euler recurrence
    real = zetaseries.product_formula

    def wrong(o):
        g = real(o)
        if len(g) < 3:
            return g
        return Sequence(g.view, (*g.terms[:2], g.terms[2] + 1, *g.terms[3:]))

    monkeypatch.setattr(zetaseries, "product_formula", wrong)
    for name in REGISTRY:
        result = run(name)
        if name in _PRODUCT_AT_3_FAILURES:
            assert (result.ok, result.failing_index) == (False, 3), name
            assert result.detail == _PRODUCT_AT_3_FAILURES[name]
        else:
            assert result.ok, name


# the identities a wrong third Euler term breaks at default terms
_EULER_AT_3_FAILURES = {
    "euler-roundtrip": " at index 3 (euler_inverse(euler(o)) != o)",
    "three-route-monoid": " at index 3 (zeta function routes disagree)",
    "euler-partitions": " at index 3 (partition prefix wrong)",
    "golden-mean-monoid": " at index 3 (monoid counts are not Fibonacci(n+1))",
    "full-shift-monoid": " at index 3 (monoid counts wrong for a=2)",
    "dual-rational-monoid": " at index 3 (monoid counts wrong for (1,2))",
    "localized-monoid": " at index 2 (even/odd monoid pairing fails)",
    "s-integer-monoid": " at index 3 (monoid prefix wrong)",
}


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


def test_run_reports_a_failing_check(monkeypatch):
    _euler_off_by_one_at_3(monkeypatch)
    result = run("euler-partitions")
    assert result.ok is False
    assert result.failing_index == 3
    assert result.detail == "partition prefix wrong"
    result = run("euler-roundtrip")
    assert (result.ok, result.failing_index) == (False, 3)
    assert result.detail == "euler_inverse(euler(o)) != o"


def test_verify_all_reports_every_failure(monkeypatch, capsys):
    _euler_off_by_one_at_3(monkeypatch)
    code = main(["verify", "all"])
    out = capsys.readouterr().out
    assert code == 1
    expected = "".join(
        f"{name}: FAIL{_EULER_AT_3_FAILURES[name]}\n"
        if name in _EULER_AT_3_FAILURES
        else f"{name}: PASS\n"
        for name in REGISTRY
    )
    assert out == expected


def test_a_wrong_phi_fails_cyclic_subgroups_and_nothing_else(monkeypatch, capsys):
    # phi(n) + 1 breaks Gauss's sum_{d|m} phi(d) = m at m = 1, before the oracle divides by it
    real = numtheory.euler_phi
    for name, module in list(sys.modules.items()):
        if name.startswith("orbitkit") and getattr(module, "euler_phi", None) is real:
            monkeypatch.setattr(module, "euler_phi", lambda n: real(n) + 1)
    code = main(["verify", "all"])
    out = capsys.readouterr().out
    assert code == 1
    expected = "".join(
        "cyclic-subgroups: FAIL at index 1 (divisor sum of phi is not n)\n"
        if name == "cyclic-subgroups"
        else f"{name}: PASS\n"
        for name in REGISTRY
    )
    assert out == expected
    assert len(out.splitlines()) == 51


def test_wrong_product_term_is_reported_at_its_index(monkeypatch):
    # product_orbits adds 1 to its second term; whole-sequence checks name index 2
    real = operators.product_orbits

    def wrong(u, v):
        prod = real(u, v)
        if len(prod) < 2:
            return prod
        return Sequence(prod.view, (prod.terms[0], prod.terms[1] + 1, *prod.terms[2:]))

    monkeypatch.setattr(operators, "product_orbits", wrong)
    expected = {
        "product-identity": "delta is not the product identity",
        "product-associative": "product is not associative",
        "product-distributive": "product does not distribute over union",
        "oracle-product": "exhaustive case u=(0, 0, 0), v=(0, 0, 0)",
        "zeta-factorization": "pair does not multiply back to zeta",
    }
    for name, detail in expected.items():
        assert run(name) == VerifyResult(name, False, 2, detail)


# the identities a zeta(s - a) one too big at coefficient 4 breaks at default terms
_ZETA_SHIFT_AT_4_FAILURES = {
    "ttimest-series": "cleared-denominator identity fails",
    "fix-series": "fix series identity fails",
    "iterate-id2-series": "sparse form fails",
    "iterate-idp-series": "sparse form fails for p=2",
    "s-part-interpolation": "interpolation fails for S=(2,)",
    "rational-a-series": "a_S identity fails for S=(2,)",
    "sp-zeta-product-series": "closed form fails for P=(2,)",
    "ramanujan-series": "series identity fails for (a,b)=(0,1)",
    "mobius-series": "zeta * mu != delta",
}


def test_wrong_zeta_shift_coefficient_fails_every_series_identity_at_its_index(monkeypatch):
    real = dirichlet.zeta_shift

    def wrong(a, n_terms):
        coeffs = list(real(a, n_terms))
        if len(coeffs) >= 4:
            coeffs[3] += 1
        return dirichlet.DirichletPoly(coeffs)

    monkeypatch.setattr(dirichlet, "zeta_shift", wrong)
    results = [run(name) for name in REGISTRY]
    failures = {r.name: (r.failing_index, r.detail) for r in results if not r.ok}
    assert failures == {name: (4, detail) for name, detail in _ZETA_SHIFT_AT_4_FAILURES.items()}
    assert len(results) - len(failures) == 42


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
    def always_fails(n):
        raise Mismatch(None, "no index to give")

    ident = Identity("always-fails", 1, "fails without an index", always_fails)
    monkeypatch.setitem(REGISTRY, ident.name, ident)
    assert run(ident.name) == VerifyResult(ident.name, False, None, "no index to give")
    assert main(["verify", ident.name]) == 1
    assert capsys.readouterr().out == "always-fails: FAIL (no index to give)\n"


def test_kernel_error_fails_its_identity_and_the_run_goes_on(monkeypatch, capsys):
    # fixed-point counts with F(1) one too high are not realizable at n=2
    real = transforms.orbit_to_fix

    def wrong(o):
        f = real(o)
        return Sequence(f.view, (f.terms[0] + 1, *f.terms[1:]))

    monkeypatch.setattr(transforms, "orbit_to_fix", wrong)
    assert run("fix-orbit-roundtrip") == VerifyResult(
        "fix-orbit-roundtrip", False, 2, "orbit count at n=2 is not integral"
    )
    code = main(["verify", "all"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(": ")[0] for line in lines] == list(REGISTRY)
    assert "euler-roundtrip: FAIL at index 2 (monoid count at n=2 is not integral)" in lines


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
