import contextlib
import decimal
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import orbitkit
from orbitkit.cli import main, parse_prime_set
from orbitkit import PrimeSet, Sequence, View, format_bfile, product_orbits
from orbitkit.sequences import id_orbits, zeta
from helpers import factor_search_dfs, needs_digit_limit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_golden_mean_monoid(capsys):
    code, out, _ = run_cli(capsys, "seq", "golden_mean", "--terms", "6", "--view", "monoid")
    assert code == 0
    assert out == "1 1\n2 2\n3 3\n4 5\n5 8\n6 13\n"


def test_seq_default_view(capsys):
    code, out, _ = run_cli(capsys, "seq", "zeta", "--terms", "3")
    assert code == 0
    assert out == "1 1\n2 1\n3 1\n"


def test_seq_with_params(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "full_shift", "--param", "a=2", "--terms", "4", "--view", "orbit"
    )
    assert code == 0
    assert out == "1 2\n2 1\n3 2\n4 3\n"


def test_seq_rational_builtin(capsys):
    code, out, _ = run_cli(capsys, "seq", "a_S", "--param", "S=2", "--terms", "4")
    assert code == 0
    assert out == "1 1\n2 4\n3 1\n4 10\n"


def test_seq_a_s_view(capsys):
    # the a_S weights are orbit-tagged integers, so every view applies
    code, out, _ = run_cli(
        capsys, "seq", "a_S", "--param", "S=2", "--terms", "4", "--view", "fix"
    )
    assert code == 0
    assert out == "1 1\n2 9\n3 4\n4 49\n"
    code, out, _ = run_cli(
        capsys, "growth", "--name", "a_S", "--param", "S=2", "--h", "1", "--c1", "1",
        "--terms", "4",
    )
    assert code == 0
    assert "pi_actual 16\n" in out


def test_seq_unknown_builtin(capsys):
    code, _, err = run_cli(capsys, "seq", "nope", "--terms", "4")
    assert code == 2
    assert "unknown builtin" in err


def test_prime_set_syntax():
    assert parse_prime_set("2,3") == PrimeSet.finite((2, 3))
    assert parse_prime_set("") == PrimeSet.finite()
    assert parse_prime_set("~") == PrimeSet.all_except()
    assert parse_prime_set("~2,3") == PrimeSet.all_except((2, 3))
    with pytest.raises(ValueError):
        parse_prime_set("2,x")


def test_seq_prime_set_param(capsys):
    code, out, _ = run_cli(capsys, "seq", "s_P", "--param", "P=~2,3", "--terms", "6")
    assert code == 0
    assert out == "1 1\n2 1\n3 1\n4 1\n5 0\n6 1\n"


@pytest.mark.parametrize("value", ["1", "0", "-3"])
def test_seq_prime_set_names_a_non_prime(capsys, value):
    code, out, err = run_cli(capsys, "seq", "s_P", "--param", f"P={value}", "--terms", "3")
    assert (code, out, err) == (2, "", f"usage error: {value} is not prime\n")


@pytest.mark.parametrize("argv, message", [
    (("geometric", "--param", "p=1_0"), "parameter p must be an integer, got '1_0'"),
    (("geometric", "--param", "p= 2"), "parameter p must be an integer, got ' 2'"),
    (("geometric", "--param", "p=+2"), "parameter p must be an integer, got '+2'"),
    (("geometric", "--param", "p=\u0663"), "parameter p must be an integer"),
    (("s_P", "--param", "P=+3"), "bad prime set '+3'"),
    (("s_P", "--param", "P=\u0663"), "bad prime set"),
    (("s_P", "--param", "P=2, 3"), "bad prime set '2, 3'"),
    (("s_P", "--param", "P=2,"), "bad prime set '2,'"),
    (("full_shift", "--param", "a=2", "--param", "a=3"), "parameter a given more than once"),
    (("dual_rational", "--param", "a=1", "--param", "b=2", "--param", "a=3"),
     "parameter a given more than once"),
    (("s_P", "--param", "P=2", "--param", "P=3"), "parameter P given more than once"),
    (("s_P", "--param", "P"), "--param expects key=value, got 'P'"),
])
def test_seq_params_are_plain_integers_given_once(capsys, argv, message):
    code, out, err = run_cli(capsys, "seq", *argv, "--terms", "2")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and message in err


def test_transform_pipeline(capsys, tmp_path):
    fix_file = tmp_path / "fix.b"
    fix_file.write_text("1 1\n2 3\n3 4\n4 7\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "transform", "fix-to-orbit", "--in", str(fix_file))
    assert code == 0
    assert out == "1 1\n2 1\n3 1\n4 1\n"


def test_transform_not_realizable(capsys, tmp_path):
    f = tmp_path / "bad.b"
    f.write_text("1 1\n2 2\n", encoding="ascii")
    code, _, err = run_cli(capsys, "transform", "fix-to-orbit", "--in", str(f))
    assert code == 1
    assert "2" in err


def test_transform_bad_format(capsys, tmp_path):
    f = tmp_path / "bad.b"
    f.write_text("1 x\n", encoding="ascii")
    code, _, err = run_cli(capsys, "transform", "euler", "--in", str(f))
    assert code == 3
    assert "line 1" in err


def test_transform_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "transform", "euler", "--in", str(tmp_path / "nope.b"))
    assert code == 2


def test_op_product_zeta(capsys, tmp_path):
    z = tmp_path / "zeta.b"
    z.write_text("".join(f"{n} 1\n" for n in range(1, 9)), encoding="ascii")
    code, out, _ = run_cli(
        capsys, "op", "product", "--in", str(z), "--in", str(z), "--terms", "8"
    )
    assert code == 0
    values = [int(line.split()[1]) for line in out.splitlines()]
    assert values == [1, 4, 5, 10, 7, 20, 9, 22]


def test_op_iterate(capsys, tmp_path):
    ident = tmp_path / "id.b"
    ident.write_text("".join(f"{n} {n}\n" for n in range(1, 17)), encoding="ascii")
    code, out, _ = run_cli(capsys, "op", "iterate", "--in", str(ident), "--k", "2", "--terms", "8")
    assert code == 0
    values = [int(line.split()[1]) for line in out.splitlines()]
    assert values == [5, 8, 15, 16, 25, 24, 35, 32]


def test_op_iterate_requires_k(capsys, tmp_path):
    f = tmp_path / "a.b"
    f.write_text("1 1\n2 1\n", encoding="ascii")
    code, _, err = run_cli(capsys, "op", "iterate", "--in", str(f))
    assert code == 2
    assert "--k" in err


@pytest.mark.parametrize("k, terms", [("0", "2"), ("-1", "100")])
def test_op_iterate_names_a_bad_power_before_the_terms(capsys, tmp_path, k, terms):
    f = tmp_path / "z6.b"
    f.write_text("".join(f"{n} 1\n" for n in range(1, 7)), encoding="ascii")
    code, out, err = run_cli(capsys, "op", "iterate", "--in", str(f), "--k", k, "--terms", terms)
    assert (code, out) == (2, "")
    assert err == f"usage error: --k must be at least 1, got {k}\n"


def test_op_product_needs_two_inputs(capsys, tmp_path):
    f = tmp_path / "a.b"
    f.write_text("1 1\n", encoding="ascii")
    code, _, err = run_cli(capsys, "op", "product", "--in", str(f))
    assert code == 2


def test_op_terms_longer_than_input(capsys, tmp_path):
    f = tmp_path / "a.b"
    f.write_text("1 1\n2 1\n", encoding="ascii")
    code, _, err = run_cli(
        capsys, "op", "product", "--in", str(f), "--in", str(f), "--terms", "5"
    )
    assert code == 2
    assert "requested" in err


@pytest.mark.parametrize(
    "argv", [("factor",), ("op", "product"), ("op", "union"), ("op", "iterate", "--k", "1")]
)
def test_whole_input_is_checked_before_terms_are_taken(capsys, tmp_path, argv):
    # the negative term lies past the two terms asked for
    f = tmp_path / "neg3.b"
    f.write_text("1 1\n2 1\n3 -5\n", encoding="ascii")
    inputs = ["--in", str(f)] * (2 if argv[-1] in ("product", "union") else 1)
    code, out, err = run_cli(capsys, *argv, *inputs, "--terms", "2")
    assert (code, out, err) == (3, "", "input error: term 3 is negative: -5\n")


def test_op_iterate_short_input_names_the_terms_requested(capsys, tmp_path):
    f = tmp_path / "six.b"
    f.write_text("".join(f"{n} {n}\n" for n in range(1, 7)), encoding="ascii")
    code, out, err = run_cli(capsys, "op", "iterate", "--in", str(f), "--k", "2", "--terms", "4")
    assert (code, out) == (2, "")
    assert err == "usage error: input has 6 terms but 8 were requested\n"
    # --terms fits an index, k times it does not: still the terms requested
    code, out, err = run_cli(capsys, "op", "iterate", "--in", str(f), "--k", "2",
                             "--terms", str(sys.maxsize))
    assert (code, out) == (2, "")
    assert err == f"usage error: input has 6 terms but {2 * sys.maxsize} were requested\n"


@pytest.mark.parametrize("argv, message", [
    (("iterate", "--k", "2"), "iterate takes exactly one --in"),
    (("product", "--k", "2"), "--k only applies to iterate"),
])
def test_op_names_a_misused_flag(capsys, tmp_path, argv, message):
    f = tmp_path / "s3.b"
    f.write_text("1 1\n2 1\n3 1\n", encoding="ascii")
    code, out, err = run_cli(capsys, "op", *argv, "--in", str(f), "--in", str(f))
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "ttimest-series", "--terms", "200")
    assert code == 0
    assert out == "ttimest-series: PASS\n"


def test_verify_unknown(capsys):
    code, _, err = run_cli(capsys, "verify", "fictional")
    assert code == 2
    assert "unknown identity" in err


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "ttimest-series:" in out
    assert "default terms" in out


@pytest.mark.parametrize("argv", [
    ("seq", "zeta"),
    ("growth", "--name", "zeta", "--h", "1", "--c1", "1"),
])
def test_builtin_commands_name_terms_below_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--terms", "0")
    assert (code, out, err) == (2, "", "usage error: --terms must be at least 1, got 0\n")


@pytest.mark.parametrize("argv", [("all",), ("no-such-identity",), ("--list",)])
def test_verify_checks_terms_first(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv, "--terms", "0")
    assert (code, out, err) == (2, "", "usage error: --terms must be at least 1, got 0\n")


@pytest.mark.parametrize("terms", [sys.maxsize + 1, 99999999999999999999])
@pytest.mark.parametrize("argv", [
    ("seq", "zeta"),
    ("growth", "--name", "zeta", "--h", "1", "--c1", "1"),
    ("verify", "zeta-ones"),
])
def test_terms_past_an_index_is_usage_error(capsys, argv, terms):
    code, out, err = run_cli(capsys, *argv, "--terms", str(terms))
    message = f"usage error: --terms must be at most {sys.maxsize}, got {terms}\n"
    assert (code, out, err) == (2, "", message)


def test_verify_requires_name(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


def test_verify_all_smoke(capsys):
    # cut the expensive defaults down; every identity still runs
    code, out, _ = run_cli(capsys, "verify", "all", "--terms", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(__import__("orbitkit.identities", fromlist=["REGISTRY"]).REGISTRY)
    assert all(line.endswith("PASS") for line in lines)


def test_long_bfile_output_is_unbroken(capsys, tmp_path):
    # output is written in slices; indices run on across slice boundaries
    # (lists of lines, so a failure reports its first wrong line quickly)
    code, out, _ = run_cli(capsys, "seq", "id_orbits", "--terms", "2500")
    assert code == 0
    assert out.splitlines(keepends=True) == [f"{n} {n}\n" for n in range(1, 2501)]
    f = tmp_path / "id.b"
    f.write_text(out, encoding="ascii")
    code, out, _ = run_cli(capsys, "export", "--in", str(f), "--offset", "-5")
    assert code == 0
    assert out.splitlines(keepends=True) == [f"{n - 6} {n}\n" for n in range(1, 2501)]


def test_growth_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "growth", "--name", "full_shift", "--param", "a=2",
        "--h", "0.6931471805599453", "--c1", "1.0", "--terms", "20",
    )
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["n_max"] == "20"
    assert lines["pi_actual"] == "111013"
    assert float(lines["pi_predicted"]) == pytest.approx(2**21 / 20)


@pytest.mark.parametrize(
    "h, terms", [("0.693147", "1024"), ("1000", "20"), ("1e-20", "5"), ("0.01", "1100")]
)
def test_growth_past_the_float_range(capsys, h, terms):
    # e^{h(N+1)} overflows, or e^h - 1 rounds to 0; the prediction itself may still be a float
    # at h = 0.01, O(1100) e^{-11} is about 2^1100 e^{-11} / 1100, past the float range
    code, out, err = run_cli(
        capsys, "growth", "--name", "full_shift", "--param", "a=2",
        "--h", h, "--c1", "1", "--terms", terms,
    )
    assert (code, err) == (0, "")
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    with decimal.localcontext() as ctx:  # decimal has no overflow at these sizes
        ctx.prec = 40
        n, rate = int(terms), decimal.Decimal(float(h))
        expected = float((rate * (n + 1)).exp() / (n * (rate.exp() - 1)))
    assert float(lines["pi_predicted"]) == pytest.approx(expected, rel=1e-9)
    if h == "0.01":
        assert lines["mertens_actual"] == "inf"


@pytest.mark.parametrize("flag", ["--h", "--c1"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_growth_rejects_non_finite_parameters(capsys, flag, value):
    given = {"--h": "1", "--c1": "1", flag: value}
    code, out, err = run_cli(
        capsys, "growth", "--name", "zeta", "--terms", "5", *(f"{k}={v}" for k, v in given.items())
    )
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


def test_growth_rejects_nonpositive_h(capsys):
    code, _, err = run_cli(
        capsys, "growth", "--name", "zeta", "--h", "0", "--c1", "1.0", "--terms", "5"
    )
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "flag, value", [("--c1", "-1"), ("--c1", "nan"), ("--h", "inf"), ("--h", "-inf")]
)
def test_growth_checks_both_rates_before_building_the_sequence(capsys, monkeypatch, flag, value):
    calls = []

    def builtin(*args):
        calls.append(args)
        raise AssertionError("the sequence was built before the rates were checked")

    monkeypatch.setattr("orbitkit.cli.builtin", builtin)
    given = {"--h": "1", "--c1": "1", flag: value}
    code, out, err = run_cli(
        capsys, "growth", "--name", "full_shift", "--param", "a=2", "--terms", "40000",
        *(f"{k}={v}" for k, v in given.items()),
    )
    assert (code, out, calls) == (2, "", [])
    assert err == f"usage error: {flag} must be positive and finite, got {float(value)}\n"


def test_factor_text_output(capsys, tmp_path):
    f = tmp_path / "delta.b"
    f.write_text("1 1\n2 0\n3 0\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "factor", "--in", str(f))
    assert code == 0
    assert out.splitlines()[0] == "pairs 1"
    assert out.splitlines()[1] == "truncated false"
    assert out.splitlines()[2] == "1 0 0 | 1 0 0"


def test_factor_json_output(capsys, tmp_path):
    f = tmp_path / "zeta.b"
    f.write_text("".join(f"{n} 1\n" for n in range(1, 7)), encoding="ascii")
    code, out, _ = run_cli(capsys, "factor", "--in", str(f), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["truncated"] is False
    assert len(payload["pairs"]) == 8
    assert {"left", "right"} <= set(payload["pairs"][0])


def _random_product():
    rng = random.Random(0)
    u, v = (Sequence(View.ORBIT, tuple(rng.randint(1, 40) for _ in range(8))) for _ in "uv")
    return product_orbits(u, v)


def _plain_rendering(target, limit):
    pairs, truncated = factor_search_dfs(target, len(target), limit)
    lines = [f"pairs {len(pairs)}", f"truncated {str(truncated).lower()}"]
    lines += [f"{' '.join(map(str, left))} | {' '.join(map(str, right))}" for left, right in pairs]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("target, limit", [
    (zeta(12), 10_000),
    (id_orbits(24), 50),
    (_random_product(), 10_000),  # terms of up to four digits
    (zeta(12), 32),  # exactly the pair count: not truncated
])
def test_factor_text_matches_the_plain_rendering(capsys, tmp_path, target, limit):
    f = tmp_path / "target.b"
    f.write_text("".join(f"{n} {t}\n" for n, t in enumerate(target, 1)), encoding="ascii")
    code, out, _ = run_cli(capsys, "factor", "--in", str(f), "--limit", str(limit))
    assert code == 0
    assert out == _plain_rendering(target, limit)


@st.composite
def factor_cases(draw):
    """A product of two random orbit vectors, with a limit at, next to or
    well below its pair count."""
    n = draw(st.integers(1, 8))
    vector = st.tuples(st.integers(1, 3), *[st.integers(0, 3)] * (n - 1))
    target = product_orbits(*(Sequence(View.ORBIT, draw(vector)) for _ in "uv"))
    count = len(factor_search_dfs(target, n, 10**9)[0])
    return target, draw(st.sampled_from([1, 2, 3, max(count - 1, 1), count, count + 1]))


@settings(max_examples=200, deadline=None)
@given(factor_cases())
def test_factor_text_streams_the_plain_rendering(case):
    target, limit = case
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(format_bfile(target.terms))):
        with contextlib.redirect_stdout(out):
            assert main(["factor", "--limit", str(limit)]) == 0
    assert out.getvalue() == _plain_rendering(target, limit)


def test_factor_text_memory_follows_blocks(tmp_path):
    # id_orbits to 300 terms is one block with 14 varying indices; its first
    # 10,000 pairs as tuples hold about 48 MB
    f = tmp_path / "id300.b"
    f.write_text(format_bfile(id_orbits(300).terms), encoding="ascii")
    with open(tmp_path / "out.txt", "w", encoding="ascii") as fh, contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            code = main(["factor", "--in", str(f), "--limit", "10000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20
    with open(tmp_path / "out.txt", encoding="ascii") as fh:
        assert [next(fh), next(fh)] == ["pairs 10000\n", "truncated true\n"]
        assert sum(1 for _ in fh) == 10_000


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_factor_checks_limit_before_reading(capsys, monkeypatch, limit):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 x\n"))
    code, out, err = run_cli(capsys, "factor", "--limit", limit)
    assert (code, out, err) == (2, "", f"usage error: --limit must be at least 1, got {limit}\n")


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_factor_limit_past_an_index_is_usage_error(capsys, monkeypatch, json_flag):
    # the search stops through islice, which takes at most sys.maxsize: checked before any output
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n2 1\n"))
    limit = sys.maxsize + 1
    code, out, err = run_cli(capsys, "factor", "--limit", str(limit), *json_flag)
    assert (code, out) == (2, "")
    assert err == f"usage error: --limit must be at most {sys.maxsize}, got {limit}\n"


def test_export_import_roundtrip(capsys, tmp_path):
    f = tmp_path / "seq.b"
    f.write_text("1 4\n2 5\n3 6\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "export", "--in", str(f), "--offset", "0")
    assert code == 0
    assert out == "0 4\n1 5\n2 6\n"
    shifted = tmp_path / "shifted.b"
    shifted.write_text(out, encoding="ascii")
    code, out, _ = run_cli(capsys, "import", "--in", str(shifted))
    assert code == 0
    assert out == "1 4\n2 5\n3 6\n"


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n2 1\n3 1\n"))
    code, out, _ = run_cli(capsys, "transform", "euler")
    assert code == 0
    assert out == "1 1\n2 2\n3 3\n"


def test_deterministic_output(capsys):
    first = run_cli(capsys, "verify", "three-route-monoid")
    second = run_cli(capsys, "verify", "three-route-monoid")
    assert first == second


def test_usage_error_exit_code(capsys):
    assert main(["seq"]) == 2  # missing required --terms
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_non_ascii_input_is_malformed(capsys, tmp_path, monkeypatch):
    f = tmp_path / "accent.b"
    f.write_bytes("1 1\n2 \u00e9\n".encode("utf-8"))
    code, _, err = run_cli(capsys, "transform", "orbit-to-fix", "--in", str(f))
    assert code == 3
    assert "not ASCII" in err
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n2 \u00e9\n"))
    code, _, _ = run_cli(capsys, "transform", "orbit-to-fix")
    assert code == 3


@pytest.mark.parametrize("terms", ["-1", "0"])
@pytest.mark.parametrize(
    "argv", [("op", "product"), ("op", "union"), ("factor",), ("op", "iterate", "--k", "2")]
)
def test_terms_below_one_is_usage_error(capsys, tmp_path, argv, terms):
    f = tmp_path / "s3.b"
    f.write_text("1 1\n2 1\n3 1\n", encoding="ascii")
    inputs = ["--in", str(f)] * (2 if argv[-1] in ("product", "union") else 1)
    code, out, err = run_cli(capsys, *argv, *inputs, "--terms", terms)
    assert code == 2
    assert out == ""
    assert "--terms" in err


@pytest.mark.parametrize("text", ["1 1_000\n", "1 1\n2 +4\n", "1 1\n2 \u0663\n"])
def test_import_rejects_non_canonical_fields(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "import")
    assert code == 3
    assert out == ""
    assert "non-integer field" in err


@pytest.mark.parametrize("argv", [
    ("transform", "orbit-to-fix"),
    ("transform", "fix-to-orbit"),
    ("transform", "euler-inv"),
    ("factor",),
])
def test_negative_term_is_malformed(capsys, tmp_path, argv):
    f = tmp_path / "neg.b"
    f.write_text("1 1\n2 -1\n", encoding="ascii")
    code, _, err = run_cli(capsys, *argv, "--in", str(f))
    assert code == 3
    assert "negative" in err


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(seq, view):
        raise RuntimeError("boom")

    monkeypatch.setattr("orbitkit.cli.convert", broken)
    code, out, err = run_cli(capsys, "seq", "zeta", "--terms", "3", "--view", "fix")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "boom" in err


@pytest.fixture
def default_digit_limit():
    """Python's default int/str digit limit, where the interpreter has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(old)


def test_import_term_with_5001_digits(capsys, tmp_path, default_digit_limit):
    text = "1 " + "7" * 5001 + "\n"
    f = tmp_path / "big.b"
    f.write_text(text, encoding="ascii")
    code, out, _ = run_cli(capsys, "import", "--in", str(f))
    assert code == 0
    assert out == text


def test_transform_term_with_5001_digits(capsys, tmp_path, default_digit_limit):
    f = tmp_path / "big.b"
    f.write_text("1 2\n2 1" + "0" * 4999 + "3\n", encoding="ascii")  # 10^5000 + 3
    code, out, _ = run_cli(capsys, "transform", "orbit-to-fix", "--in", str(f))
    assert code == 0
    assert out == "1 2\n2 2" + "0" * 4999 + "8\n"


@needs_digit_limit
@pytest.mark.parametrize("argv", [("seq", "zeta", "--terms", "2"), ("seq", "nope", "--terms", "2")])
def test_main_restores_the_digit_limit(capsys, default_digit_limit, argv):
    before = sys.get_int_max_str_digits()
    run_cli(capsys, *argv)
    assert sys.get_int_max_str_digits() == before


def test_cli_import_skips_dataclasses_and_json():
    # dataclasses (and the inspect it imports) compile methods at import time;
    # json is needed only by factor --json; the library computes in ints, so
    # nothing imports fractions (or the decimal it loads)
    src = str(Path(orbitkit.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import orbitkit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_closed_stdout_is_not_an_error(tmp_path):
    # like `| head -n 1`: the reader takes one line and closes the pipe while
    # factor still has about 360 KB to write
    src = str(Path(orbitkit.__file__).resolve().parent.parent)
    f = tmp_path / "id40.b"
    f.write_text(format_bfile(id_orbits(40).terms), encoding="ascii")
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitkit.cli", "factor", "--limit", "2000", "--in", str(f)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"pairs 2000\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0


def test_factor_deep_input(capsys, tmp_path):
    # one stack frame per index would pass Python's recursion limit
    f = tmp_path / "delta.b"
    f.write_text("1 1\n" + "".join(f"{n} 0\n" for n in range(2, 1501)), encoding="ascii")
    code, out, _ = run_cli(capsys, "factor", "--in", str(f))
    assert code == 0
    assert out.splitlines()[:2] == ["pairs 1", "truncated false"]
