import contextlib
import decimal
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orbitkit
from orbitkit import cli
from orbitkit.cli import main, parse_prime_set
from orbitkit import PrimeSet, Sequence, View, format_bfile, product_orbits
from orbitkit.identities import REGISTRY
from orbitkit.sequences import builtin_names, id_orbits, zeta
from helpers import digit_limit, factor_search_dfs, invoke, needs_digit_limit


# The exit-code contract, one helpers.invoke per check: the command line, stdin (None: one that
# fails the check if read), and the exit code, stdout and stderr, each pinned exactly. Commands run
# in a directory holding _FILES. A check whose stderr names a flag rule (`usage error: --flag must be`)
# runs with no files and a cli.builtin that fails if called: main checks every flag before any
# command reads input or builds a term. Of argparse's own errors, whose usage lines differ
# between Python versions, the last line of stderr is pinned.
_FILES = {
    "s3.b": "1 1\n2 1\n3 1\n",
    "six.b": "1 1\n2 1\n3 1\n4 1\n5 1\n6 1\n",
    "neg3.b": "1 1\n2 1\n3 -5\n",  # negative past the first two terms
    "fix2.b": "1 1\n2 2\n",  # fixed-point counts that no map has
    "x.b": "1 x\n",
    "accent.b": "1 1\n2 \u00e9\n",
    "z8.b": "".join(f"{n} 1\n" for n in range(1, 9)),
}
_MAX = sys.maxsize


def _unbuilt(*args):
    raise AssertionError("a builtin was built")


@pytest.fixture
def expect(monkeypatch, tmp_path):
    def check(command, code, err, out="", stdin=None):
        err = err and err + "\n"
        if re.match(r"usage error: --\w+ must be ", err):
            monkeypatch.setattr("orbitkit.cli.builtin", _unbuilt)
        else:
            for name, text in _FILES.items():
                (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        got = invoke(*shlex.split(command), stdin=stdin)
        if err.startswith("orbitkit"):
            got = (*got[:2], got[2].splitlines(keepends=True)[-1])
        assert got == (code, out, err)
    return check


def _rates(flag, value):
    return " ".join(f"{f}={value if f == flag else 1}" for f in ("--h", "--c1"))


# flag rules, in main's order: --limit, --terms, --k, --h, --c1
@pytest.mark.parametrize("limit", ["0", "-1"])
def test_factor_checks_limit_before_reading(expect, limit):
    expect(f"factor --limit {limit}", 2, f"usage error: --limit must be at least 1, got {limit}")


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_factor_limit_past_an_index_is_usage_error(expect, json_flag):
    expect(" ".join(("factor", "--limit", str(_MAX + 1), *json_flag)), 2,
           f"usage error: --limit must be at most {_MAX}, got {_MAX + 1}")


@pytest.mark.parametrize("argv", [
    ("seq", "zeta"),
    ("growth", "--name", "zeta", "--h", "1", "--c1", "1"),
])
def test_builtin_commands_name_terms_below_one(expect, argv):
    expect(" ".join(argv) + " --terms 0", 2, "usage error: --terms must be at least 1, got 0")


@pytest.mark.parametrize("argv", [("all",), ("no-such-identity",), ("--list",)])
def test_verify_checks_terms_first(expect, argv):
    expect(f"verify {argv[0]} --terms 0", 2, "usage error: --terms must be at least 1, got 0")


@pytest.mark.parametrize("terms", ["-1", "0"])
@pytest.mark.parametrize(
    "argv", [("op", "product"), ("op", "union"), ("factor",), ("op", "iterate", "--k", "2")]
)
def test_terms_below_one_is_usage_error(expect, argv, terms):
    inputs = " --in s3.b" * (2 if argv[-1] in ("product", "union") else 1)
    expect(" ".join(argv) + f"{inputs} --terms {terms}", 2,
           f"usage error: --terms must be at least 1, got {terms}")


@pytest.mark.parametrize("terms", [_MAX + 1, 99999999999999999999])
@pytest.mark.parametrize("argv", [
    ("seq", "zeta"),
    ("growth", "--name", "zeta", "--h", "1", "--c1", "1"),
    ("verify", "zeta-ones"),
])
def test_terms_past_an_index_is_usage_error(expect, argv, terms):
    expect(" ".join(argv) + f" --terms {terms}", 2,
           f"usage error: --terms must be at most {_MAX}, got {terms}")


@pytest.mark.parametrize("k, terms", [("0", "2"), ("-1", "100")])
def test_op_iterate_names_a_bad_power_before_the_terms(expect, k, terms):
    expect(f"op iterate --in six.b --k {k} --terms {terms}", 2,
           f"usage error: --k must be at least 1, got {k}")


@pytest.mark.parametrize("flag", ["--h", "--c1"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_growth_rejects_non_finite_parameters(expect, flag, value):
    expect(f"growth --name zeta --terms 5 {_rates(flag, value)}", 2,
           f"usage error: {flag} must be positive and finite, got {float(value)}")


def test_growth_rejects_nonpositive_h(expect):
    expect("growth --name zeta --h 0 --c1 1.0 --terms 5", 2,
           "usage error: --h must be positive and finite, got 0.0")


@pytest.mark.parametrize(
    "flag, value", [("--c1", "-1"), ("--c1", "nan"), ("--h", "inf"), ("--h", "-inf")]
)
def test_growth_checks_both_rates_before_building_the_sequence(expect, flag, value):
    expect(f"growth --name full_shift --param a=2 --terms 40000 {_rates(flag, value)}", 2,
           f"usage error: {flag} must be positive and finite, got {float(value)}")


@pytest.mark.parametrize("value", ["1", "0", "-3", "4"])
def test_seq_prime_set_names_a_non_prime(expect, value):
    expect(f"seq s_P --param P={value} --terms 3", 2, f"usage error: {value} is not prime")


def _row(command, code, err, out="", stdin=None):
    name = command if stdin is None else f"{command} < {stdin}"
    return pytest.param(command, code, err, out, stdin, id=name or "no command")


_ROWS = [
    # of two bad values, the first in that order is named
    _row("factor --limit 0 --terms 0", 2, "usage error: --limit must be at least 1, got 0"),
    _row("op iterate --in s3.b --k 0 --terms 0", 2,
         "usage error: --terms must be at least 1, got 0"),
    _row("growth --name zeta --h 0 --c1 0 --terms 0", 2,
         "usage error: --terms must be at least 1, got 0"),
    _row("growth --name zeta --h 0 --c1 0 --terms 5", 2,
         "usage error: --h must be positive and finite, got 0.0"),
    # a bad flag value is named before a misused or missing flag
    _row("op iterate --in s3.b --terms 0", 2, "usage error: --terms must be at least 1, got 0"),
    _row("op product --in s3.b --terms 0", 2, "usage error: --terms must be at least 1, got 0"),
    _row("op product --in s3.b --k 0", 2, "usage error: --k must be at least 1, got 0"),
    _row("op iterate --in s3.b --in s3.b --k 0", 2, "usage error: --k must be at least 1, got 0"),
    # integer flags are spelled as b-file fields, -?[0-9]+
    *(_row(f"{cmd} {flag} {shlex.quote(v)}", 2,
           f"usage error: {flag} must be an integer, got {v!r}")
      for cmd, flag, v in (("seq zeta", "--terms", "1_0"), ("seq zeta", "--terms", "\u0663"),
                           ("verify zeta-ones", "--terms", " 3"),
                           ("op iterate --in s3.b", "--k", "+2"), ("factor", "--limit", "1e3"),
                           ("export --in s3.b", "--offset", "+1"))),
    # a value led by '-' that is no plain negative number still goes to its flag's rule
    _row("export --offset -1_0", 2, "usage error: --offset must be an integer, got '-1_0'"),
    _row("growth --name zeta --h -1_0 --c1 1 --terms 3", 2,
         "usage error: --h must be positive and finite, got '-1_0'"),
    _row("seq zeta --terms -1e3", 2, "usage error: --terms must be an integer, got '-1e3'"),
    # rates are ASCII decimals, inf, -inf or nan: no +, _, space or non-ASCII digit
    *(_row(f"growth --name zeta --terms 5 {_rates(flag, shlex.quote(v))}", 2,
           f"usage error: {flag} must be positive and finite, got {v!r}")
      for flag, v in (("--h", "1_0"), ("--c1", "\u0663"), ("--h", "+2"), ("--h", " 3"))),
    # builtins and their parameters
    _row("seq zeta --terms 3 --view fix", 0, "", out="1 1\n2 3\n3 4\n"),
    _row("seq geometric --terms 3", 2,
         "usage error: builtin 'geometric' takes parameters ['p'], got []"),
    _row("seq nope --terms 4", 2,
         f"usage error: unknown builtin 'nope'; known: {', '.join(builtin_names())}"),
    *(_row(f"seq {params} --terms 2", 2, f"usage error: {message}") for params, message in (
        ("geometric --param p=1_0", "parameter p must be an integer, got '1_0'"),
        ("geometric --param 'p= 2'", "parameter p must be an integer, got ' 2'"),
        ("geometric --param p=+2", "parameter p must be an integer, got '+2'"),
        ("geometric --param p=\u0663", "parameter p must be an integer, got '\u0663'"),
        ("s_P --param P=+3", "bad prime set '+3': entries must be integers"),
        ("s_P --param P=\u0663", "bad prime set '\u0663': entries must be integers"),
        ("s_P --param 'P=2, 3'", "bad prime set '2, 3': entries must be integers"),
        ("s_P --param P=2,", "bad prime set '2,': entries must be integers"),
        ("full_shift --param a=2 --param a=3", "parameter a given more than once"),
        ("dual_rational --param a=1 --param b=2 --param a=3", "parameter a given more than once"),
        ("s_P --param P=2 --param P=3", "parameter P given more than once"),
        ("s_P --param P", "--param expects key=value, got 'P'"),
    )),
    # op: the number of inputs and --k, then the whole input, then its prefix
    _row("op iterate --in s3.b", 2, "usage error: iterate requires --k"),
    _row("op product --in s3.b", 2, "usage error: product takes exactly two --in"),
    _row("op iterate --k 2 --in s3.b --in s3.b", 2, "usage error: iterate takes exactly one --in"),
    _row("op product --k 2 --in s3.b --in s3.b", 2, "usage error: --k only applies to iterate"),
    _row("op product --in s3.b --in s3.b --terms 5", 2,
         "usage error: input has 3 terms but 5 were requested"),
    # a power past the input, with no --terms, is named by the operator's own check of k
    _row("op iterate --in six.b --k 7", 2, "usage error: k must be at most 6, got 7"),
    # k input terms per output term, even where k times --terms is past an index
    *(_row(f"op iterate --in six.b --k 2 --terms {t}", 2,
           f"usage error: input has 6 terms but {2 * t} were requested") for t in (4, _MAX)),
    *(_row(f"{cmd} --terms 2", 3, "input error: term 3 is negative: -5")
      for cmd in ("factor --in neg3.b", "op product --in neg3.b --in neg3.b",
                  "op union --in neg3.b --in neg3.b", "op iterate --k 1 --in neg3.b")),
    # input: malformed (3), unreadable (2) or not realizable (1)
    *(_row(f"{cmd} --in neg3.b", 3, "input error: term 3 is negative: -5") for cmd in (
        "transform orbit-to-fix", "transform fix-to-orbit", "transform euler-inv", "factor")),
    _row("transform euler --in x.b", 3, "input error: line 1: non-integer field in '1 x'"),
    _row("transform euler --in nope.b", 2,
         "usage error: [Errno 2] No such file or directory: 'nope.b'"),
    _row("transform fix-to-orbit --in fix2.b", 1,
         "verification failure: orbit count at n=2 is not integral"),
    _row("transform orbit-to-fix --in accent.b", 3, "input error: byte 6: input is not ASCII"),
    # stdin is read by the reader --in uses: bytes checked as ASCII, then fields line by line
    *(_row(cmd, 3, "input error: byte 6: input is not ASCII", stdin=text)
      for cmd, text in (("transform orbit-to-fix", "1 1\n2 \u00e9\n"),
                        ("import", "1 1\n2 \u0663\n"))),
    *(_row("import", 3, f"input error: line {n}: non-integer field in {line!r}", stdin=text)
      for text, n, line in (("1 1_000\n", 1, "1 1_000"), ("1 1\n2 +4\n", 2, "2 +4"))),
    _row("import", 0, "", out="1 1\n2 3\n3 4\n",
         stdin="# zeta, fix view\r\n1 1\r\n\r\n2 3\r\n3 4\r\n"),
    _row("import", 3, "input error: line 2: index 3 is not contiguous with 1",
         stdin="1 5\n3 6\n"),
    # one term: the search's prefix over indices up to n/2 is empty
    _row("factor", 0, "", out="pairs 4\ntruncated false\n1 | 6\n2 | 3\n3 | 2\n6 | 1\n",
         stdin="1 6\n"),
    # verify
    _row("verify fictional", 2,
         f"usage error: unknown identity 'fictional'; known: {', '.join(REGISTRY)}"),
    _row("verify", 2, "usage error: verify needs an identity name, 'all', or --list"),
    _row("verify --list", 0, "", out="".join(
        f"{name}: {ident.description} (default terms {ident.default_terms})\n"
        for name, ident in REGISTRY.items())),
    # argparse's own errors
    _row("seq", 2, "orbitkit seq: error: the following arguments are required: name, --terms"),
    _row("", 2, "orbitkit: error: the following arguments are required: command"),
    *(_row(f"seq zeta --terms {option}", 2,
           "orbitkit seq: error: argument --terms: expected one argument")
      for option in ("--view=fix", "-h=1", "--help")),  # an option after a number flag stays one
]


@pytest.mark.parametrize("command, code, err, out, stdin", _ROWS)
def test_contract(expect, command, code, err, out, stdin):
    expect(command, code, err, out, stdin)


def test_every_number_flag_has_one_rule():
    # _check_flags and _join_values read cli._NUMBERS; the parser's number types must agree with it
    sub = next(a for a in cli._build_parser()._actions if a.choices and a.dest == "command")
    typed = {flag: action.type for parser in sub.choices.values() for action in parser._actions
             if action.type in (cli._integer, cli._rate) for flag in action.option_strings}
    assert typed == {flag: cli._rate if rule is None else cli._integer
                     for flag, rule in cli._NUMBERS.items()}


def test_seq_golden_mean_monoid(expect):
    expect("seq golden_mean --terms 6 --view monoid", 0, "", out="1 1\n2 2\n3 3\n4 5\n5 8\n6 13\n")


def test_seq_default_view(expect):
    expect("seq zeta --terms 3", 0, "", out="1 1\n2 1\n3 1\n")


def test_seq_with_params(expect):
    expect("seq full_shift --param a=2 --terms 4 --view orbit", 0, "", out="1 2\n2 1\n3 2\n4 3\n")


def test_seq_rational_builtin(expect):
    expect("seq a_S --param S=2 --terms 4", 0, "", out="1 1\n2 4\n3 1\n4 10\n")


def test_seq_a_s_view(expect):
    # the a_S weights are orbit-tagged integers, so every view applies
    expect("seq a_S --param S=2 --terms 4 --view fix", 0, "", out="1 1\n2 9\n3 4\n4 49\n")
    code, out, err = invoke("growth", "--name", "a_S", "--param", "S=2", "--h", "1", "--c1", "1",
                            "--terms", "4")
    assert (code, err) == (0, "")
    assert "pi_actual 16\n" in out


def test_prime_set_syntax():
    assert parse_prime_set("2,3") == PrimeSet.finite((2, 3))
    assert parse_prime_set("") == PrimeSet.finite()
    assert parse_prime_set("~") == PrimeSet.all_except()
    assert parse_prime_set("~2,3") == PrimeSet.all_except((2, 3))
    with pytest.raises(ValueError):
        parse_prime_set("2,x")


def test_seq_prime_set_param(expect):
    expect("seq s_P --param P=~2,3 --terms 6", 0, "", out="1 1\n2 1\n3 1\n4 1\n5 0\n6 1\n")


def test_transform_pipeline(expect):
    # zeta's fix counts, and id_orbits to 10^5 terms there and back
    expect("transform fix-to-orbit", 0, "", out="1 1\n2 1\n3 1\n4 1\n",
           stdin="1 1\n2 3\n3 4\n4 7\n")
    code, fix, err = invoke("seq", "id_orbits", "--terms", "100000", "--view", "fix")
    assert (code, err) == (0, "")
    code, out, err = invoke("transform", "fix-to-orbit", stdin=fix)
    assert (code, err) == (0, "")
    assert out.splitlines(keepends=True) == [f"{n} {n}\n" for n in range(1, 100_001)]


def test_op_product_zeta(expect):
    expect("op product --in z8.b --in z8.b --terms 8", 0, "",
           out="1 1\n2 4\n3 5\n4 10\n5 7\n6 20\n7 9\n8 22\n")


def test_op_iterate(expect):
    expect("op iterate --in - --k 2 --terms 8", 0, "",
           out="1 5\n2 8\n3 15\n4 16\n5 25\n6 24\n7 35\n8 32\n",
           stdin="".join(f"{n} {n}\n" for n in range(1, 17)))


def test_verify_pass():
    # zeta to 42 terms has 2^13 factor pairs, the most that zeta-factorization checks whole; both
    # oracle simulations go through one torus tracer; fix-series runs in cleared form, in ints
    terms = {"ttimest-series": 200, "zeta-factorization": 42, "oracle-product": 16,
             "oracle-iterate": 40, "fix-series": 1000}
    got = {name: invoke("verify", name, "--terms", str(n)) for name, n in terms.items()}
    assert got == {name: (0, f"{name}: PASS\n", "") for name in terms}


def test_verify_all_smoke(expect):
    # cut the expensive defaults down; every identity still runs
    expect("verify all --terms 8", 0, "", out="".join(f"{name}: PASS\n" for name in REGISTRY))


def test_long_bfile_output_is_unbroken():
    # output is written in slices; indices run on across slice boundaries
    # (lists of lines, so a failure reports its first wrong line quickly)
    code, out, err = invoke("seq", "id_orbits", "--terms", "2500")
    assert (code, err) == (0, "")
    assert out.splitlines(keepends=True) == [f"{n} {n}\n" for n in range(1, 2501)]
    code, out, err = invoke("export", "--offset", "-5", stdin=out)
    assert (code, err) == (0, "")
    assert out.splitlines(keepends=True) == [f"{n - 6} {n}\n" for n in range(1, 2501)]


def test_growth_report():
    code, out, err = invoke("growth", "--name", "full_shift", "--param", "a=2",
                            "--h", "0.6931471805599453", "--c1", "1.0", "--terms", "20")
    assert (code, err) == (0, "")
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["n_max"] == "20"
    assert lines["pi_actual"] == "111013"
    assert float(lines["pi_predicted"]) == pytest.approx(2**21 / 20)


@pytest.mark.parametrize(
    "h, terms", [("0.693147", "1024"), ("1000", "20"), ("1e-20", "5"), ("0.01", "1100")]
)
def test_growth_past_the_float_range(h, terms):
    # e^{h(N+1)} overflows, or e^h - 1 rounds to 0; the prediction itself may still be a float
    # at h = 0.01, O(1100) e^{-11} is about 2^1100 e^{-11} / 1100, past the float range
    code, out, err = invoke("growth", "--name", "full_shift", "--param", "a=2",
                            "--h", h, "--c1", "1", "--terms", terms)
    assert (code, err) == (0, "")
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    with decimal.localcontext() as ctx:  # decimal has no overflow at these sizes
        ctx.prec = 40
        n, rate = int(terms), decimal.Decimal(float(h))
        expected = float((rate * (n + 1)).exp() / (n * (rate.exp() - 1)))
    assert float(lines["pi_predicted"]) == pytest.approx(expected, rel=1e-9)
    if h == "0.01":
        assert lines["mertens_actual"] == "inf"


def test_factor_text_output(expect):
    expect("factor", 0, "", out="pairs 1\ntruncated false\n1 0 0 | 1 0 0\n",
           stdin="1 1\n2 0\n3 0\n")


def test_factor_json_output():
    code, out, err = invoke("factor", "--json", stdin="".join(f"{n} 1\n" for n in range(1, 7)))
    assert (code, err) == (0, "")
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
    (id_orbits(300), 10_000),  # one block with 14 varying indices, cut at the limit
])
def test_factor_text_matches_the_plain_rendering(expect, target, limit):
    expect(f"factor --limit {limit}", 0, "", out=_plain_rendering(target, limit),
           stdin=format_bfile(target.terms))


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
    got = invoke("factor", "--limit", str(limit), stdin=format_bfile(target.terms))
    assert got == (0, _plain_rendering(target, limit), "")


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


def test_fix_to_orbit_memory_holds_one_copy_of_the_terms(tmp_path):
    # the full 2-shift's fixed points 2^n to 6,000 terms, about 2.6 MB of ints; the
    # command inverts them in place, where a second vector of them would be about 2.1 times
    fix = [2**n for n in range(1, 6001)]
    size = sum(map(sys.getsizeof, fix))
    f = tmp_path / "fix.b"
    f.write_text(format_bfile(fix), encoding="ascii")
    del fix
    with open(tmp_path / "out.txt", "w", encoding="ascii") as fh, contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            code = main(["transform", "fix-to-orbit", "--in", str(f)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1.6 * size
    with open(tmp_path / "out.txt", encoding="ascii") as fh:  # binary necklaces
        assert [next(fh) for _ in range(6)] == ["1 2\n", "2 1\n", "3 2\n", "4 3\n", "5 6\n", "6 9\n"]
        assert sum(1 for _ in fh) == 5_994


def test_export_import_roundtrip(expect):
    expect("export --offset 0", 0, "", out="0 4\n1 5\n2 6\n", stdin="1 4\n2 5\n3 6\n")
    expect("import", 0, "", out="1 4\n2 5\n3 6\n", stdin="0 4\n1 5\n2 6\n")


def test_stdin_input(expect):
    expect("transform euler", 0, "", out="1 1\n2 2\n3 3\n", stdin="1 1\n2 1\n3 1\n")


def test_deterministic_output():
    assert invoke("verify", "three-route-monoid") == invoke("verify", "three-route-monoid")


def test_unexpected_exception_is_internal_error(expect, monkeypatch):
    def broken(seq, view):
        raise RuntimeError("boom")

    monkeypatch.setattr("orbitkit.cli.convert", broken)
    expect("seq zeta --terms 3 --view fix", 4, "internal error: RuntimeError('boom')")


def test_seq_writes_terms_past_the_split_cut_as_str_does(expect):
    # 2^n is past bfile._CUT bits from n = 2049 on: the last four of twenty 128-line slices
    expect("seq full_shift --param a=2 --terms 2500", 0, "",
           out="".join(f"{n} {2**n}\n" for n in range(1, 2501)))


def test_import_writes_a_negative_3000_digit_term_as_str_does(expect, tmp_path):
    term = -(10**2999 + 3**2000)  # the low halves of its split begin with zeros
    (tmp_path / "neg.b").write_text(f"0 5\n1 {term}\n2 7\n", encoding="ascii")
    expect("import --in neg.b", 0, "", out=f"1 5\n2 {term}\n3 7\n")


def test_import_term_with_5001_digits(expect):
    text = "1 " + "7" * 5001 + "\n"
    with digit_limit():
        expect("import", 0, "", out=text, stdin=text)


def test_transform_term_with_5001_digits(expect):
    with digit_limit():  # 10^5000 + 3 in, 2 (10^5000 + 4) out
        expect("transform orbit-to-fix", 0, "", out="1 2\n2 2" + "0" * 4999 + "8\n",
               stdin="1 2\n2 1" + "0" * 4999 + "3\n")


@needs_digit_limit
@pytest.mark.parametrize("argv", [("seq", "zeta", "--terms", "2"), ("seq", "nope", "--terms", "2")])
def test_main_restores_the_digit_limit(argv):
    with digit_limit():
        before = sys.get_int_max_str_digits()
        invoke(*argv)
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


@pytest.mark.skipif(os.name != "posix", reason="closes the child's fd 0 before it runs")
def test_closed_stdin_is_a_usage_error():
    # like `orbitkit import <&-`: the interpreter starts with no fd 0, so sys.stdin is None
    src = str(Path(orbitkit.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "orbitkit.cli", "import"],
        capture_output=True,
        preexec_fn=lambda: os.closerange(0, 1),
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        2, b"", b"usage error: no stdin to read; give the input with --in FILE\n")


def test_factor_deep_input(expect):
    # one stack frame per index would pass Python's recursion limit
    delta = " ".join(["1"] + ["0"] * 1499)
    expect("factor", 0, "", out=f"pairs 1\ntruncated false\n{delta} | {delta}\n",
           stdin="1 1\n" + "".join(f"{n} 0\n" for n in range(2, 1501)))
