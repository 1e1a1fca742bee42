"""Inputs, invocations and output checks for the three benchmark workloads.

Each workload turns a seeded ``random.Random`` into b-files in a work
directory and returns a ``Plan``: the timed ``orbitkit`` invocations of
one pass, the untimed edge probes, and the sizes of the inputs.  Every
check uses a referee written here with plain loops, so no check compares
a library route with itself.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Every workload is a function (work_dir, rng, run_cli) -> Plan, where
# run_cli(argv) returns the stdout of one untimed orbitkit invocation.
#
# A check gets the raw stdout of one invocation and returns None when the
# output is right, or a one-line reason when it is not; it may raise
# ValueError or IndexError on output it cannot parse.
Check = Callable[[bytes], Optional[str]]

_LOG2_10 = math.log2(10)


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Plan:
    invocations: list[Invocation]
    probes: list[Invocation]
    inputs: dict[str, dict[str, int]]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bfile_text(values) -> str:
    return "".join(f"{i} {v}\n" for i, v in enumerate(values, start=1))


# ---------------------------------------------------------------------------
# referees: plain loops, independent of the library's code
# ---------------------------------------------------------------------------


def mobius_table(n: int) -> list[int]:
    """mu(0..n) by an Eratosthenes sieve."""
    mu = [1] * (n + 1)
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        for m in range(p, n + 1, p):
            composite[m] = 1
            mu[m] = -mu[m]
        for m in range(p * p, n + 1, p * p):
            mu[m] = 0
    return mu


def fix_from_orbits(orbits: list[int]) -> list[int]:
    """F(n) = sum over d | n of d * O(d), by walking the multiples of each d."""
    n = len(orbits)
    fix = [0] * (n + 1)
    for d in range(1, n + 1):
        weight = d * orbits[d - 1]
        if weight:
            for m in range(d, n + 1, d):
                fix[m] += weight
    return fix[1:]


def orbits_from_fix(fix: list[int], mu: list[int]) -> list[int]:
    """O(n) = (1/n) sum over d | n of mu(n/d) F(d); the inputs are realizable."""
    n = len(fix)
    acc = [0] * (n + 1)
    for d in range(1, n + 1):
        value = fix[d - 1]
        for k in range(1, n // d + 1):
            if mu[k]:
                acc[d * k] += mu[k] * value
    out = []
    for m in range(1, n + 1):
        q, r = divmod(acc[m], m)
        if r or q < 0:
            raise ValueError(f"referee input is not realizable at n={m}")
        out.append(q)
    return out


def monoid_by_product(orbits: list[int], order: int) -> list[int]:
    """Coefficients 1..order of prod_i (1 - s^i)^(-O(i)), multiplied out."""
    out = [1] + [0] * order
    for i in range(1, order + 1):
        count = orbits[i - 1]
        if count == 0:
            continue
        new = [0] * (order + 1)
        weight = 1  # C(count + j - 1, j)
        for j in range(order // i + 1):
            if j:
                weight = weight * (count + j - 1) // j
            shift = i * j
            for q in range(order + 1 - shift):
                if out[q]:
                    new[shift + q] += weight * out[q]
        out = new
    return out[1:]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def expect_text(text: str) -> Check:
    want = digest(text.encode())

    def check(out: bytes) -> Optional[str]:
        return None if digest(out) == want else "output differs from the referee"

    return check


def expect_pass(name: str) -> Check:
    return expect_text(f"{name}: PASS\n")


def expect_prefix(values: list[int]) -> Check:
    """The first len(values) b-file lines carry exactly these values."""
    want = bfile_text(values).encode()

    def check(out: bytes) -> Optional[str]:
        return None if out.startswith(want) else f"first {len(values)} terms differ from the referee"

    return check


def expect_factor_pairs(target: list[int], limit: int, sample: list[int]) -> Check:
    """The header agrees with the pair lines, and the first pair, the last
    pair and the sampled ones (u, v) have F_u * F_v = F_target."""
    target_fix = fix_from_orbits(target)

    def check(out: bytes) -> Optional[str]:
        lines = out.decode("ascii").splitlines()
        if len(lines) < 2 or lines[1] not in ("truncated true", "truncated false"):
            return "factor header is malformed"
        count = int(lines[0].removeprefix("pairs "))
        if count != len(lines) - 2 or not 1 <= count <= limit:
            return f"factor reports {count} pairs on {len(lines) - 2} lines"
        for k in sorted({0, count - 1, *(i for i in sample if i < count)}):
            left, bar, right = lines[2 + k].partition(" | ")
            u = [int(t) for t in left.split()]
            v = [int(t) for t in right.split()]
            if not bar or len(u) != len(target) or len(v) != len(target):
                return f"factor pair {k} is malformed"
            fixed = zip(fix_from_orbits(u), fix_from_orbits(v), target_fix)
            if any(a * b != t for a, b, t in fixed):
                return f"factor pair {k} does not multiply to the target"
        return None

    return check


def expect_line(line: str) -> Check:
    want = line.encode() + b"\n"

    def check(out: bytes) -> Optional[str]:
        return None if want in out.splitlines(keepends=True) else f"missing line {line!r}"

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _write(work: Path, name: str, values, inputs: dict) -> tuple[str, str]:
    """Write values as a b-file; returns its path and its text.

    Values may be ints or digit strings; strings carry terms past
    Python's 4300-digit int/str conversion limit.
    """
    digits = [str(v) for v in values]
    text = bfile_text(digits)
    path = work / name
    path.write_text(text, encoding="ascii")
    inputs[name] = {
        "terms": len(digits),
        "bytes": len(text),
        "max_digits": max(map(len, digits)),
    }
    return str(path), text


def _probes(work: Path, rng, inputs: dict) -> list[Invocation]:
    """Two valid inputs the CLI should handle.

    A 5001-digit term passes Python's 4300-digit int/str limit, and the
    factor search on delta goes 1500 indices deep.
    """
    big = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=5000))
    big_file, big_text = _write(work, "probe-5001-digits.b", [big], inputs)
    delta_file, _ = _write(work, "probe-delta-1500.b", [1] + [0] * 1499, inputs)
    return [
        Invocation("probe import 5001-digit term", ("import", "--in", big_file),
                   expect_text(big_text)),
        Invocation("probe factor delta 1500", ("factor", "--in", delta_file),
                   expect_line("pairs 1")),
    ]


def long_small(work: Path, rng, run_cli) -> Plan:
    """2*10^4 small orbit counts: divisor-loop kernels dominate."""
    n, k = 20_000, 6
    inputs: dict = {}
    u = [rng.randrange(1000) for _ in range(n)]
    v = [rng.randrange(1000) for _ in range(n)]
    mu = mobius_table(n)
    fu, fv = fix_from_orbits(u), fix_from_orbits(v)
    product = orbits_from_fix([a * b for a, b in zip(fu, fv)], mu)
    iterate = orbits_from_fix([fu[k * m - 1] for m in range(1, n // k + 1)], mu)
    u_file, u_text = _write(work, "u.b", u, inputs)
    v_file, _ = _write(work, "v.b", v, inputs)
    fu_file, fu_text = _write(work, "fu.b", fu, inputs)
    invocations = [
        Invocation("transform orbit-to-fix", ("transform", "orbit-to-fix", "--in", u_file),
                   expect_text(fu_text)),
        Invocation("transform fix-to-orbit", ("transform", "fix-to-orbit", "--in", fu_file),
                   expect_text(u_text)),
        Invocation("op product", ("op", "product", "--in", u_file, "--in", v_file),
                   expect_text(bfile_text(product))),
        Invocation("op union", ("op", "union", "--in", u_file, "--in", v_file),
                   expect_text(bfile_text(a + b for a, b in zip(u, v)))),
        Invocation(f"op iterate k={k}", ("op", "iterate", "--in", u_file, "--k", str(k)),
                   expect_text(bfile_text(iterate))),
        Invocation("verify mobius-series", ("verify", "mobius-series", "--terms", str(n)),
                   expect_pass("mobius-series")),
        Invocation("verify ttimest-series", ("verify", "ttimest-series", "--terms", "3000"),
                   expect_pass("ttimest-series")),
    ]
    return Plan(invocations, _probes(work, rng, inputs), inputs)


def _huge(rng, n: int) -> int:
    """A seeded orbit count with about 0.3*n decimal digits."""
    bits = max(1, round(0.3 * n * _LOG2_10))
    return rng.getrandbits(bits) | (1 << (bits - 1))


def short_huge(work: Path, rng, run_cli) -> Plan:
    """Terms with thousands of digits: big-integer parse/format and the
    quadratic Euler recurrence dominate."""
    n, n_euler, n_check = 12_000, 1_500, 200
    inputs: dict = {}
    orbits = [_huge(rng, m) for m in range(1, n + 1)]
    fix_file, _ = _write(work, "fix-huge.b", fix_from_orbits(orbits), inputs)
    euler_file, _ = _write(work, "orbit-huge.b", orbits[:n_euler], inputs)
    invocations = [
        Invocation("seq full_shift a=2", ("seq", "full_shift", "--param", "a=2", "--terms", str(n)),
                   expect_text(bfile_text(1 << m for m in range(1, n + 1)))),
        Invocation("transform fix-to-orbit", ("transform", "fix-to-orbit", "--in", fix_file),
                   expect_text(bfile_text(orbits))),
        Invocation("transform euler", ("transform", "euler", "--in", euler_file),
                   expect_prefix(monoid_by_product(orbits, n_check))),
        Invocation("verify three-route-monoid", ("verify", "three-route-monoid", "--terms", "120"),
                   expect_pass("three-route-monoid")),
    ]
    return Plan(invocations, _probes(work, rng, inputs), inputs)


def _necklaces(a: int, n_max: int) -> list[int]:
    """Orbit counts of the full shift on a symbols, by Moebius inversion of a^n."""
    return orbits_from_fix([a**n for n in range(1, n_max + 1)], mobius_table(n_max))


def many_small(work: Path, rng, run_cli) -> Plan:
    """About 55 short invocations: start-up and per-call costs dominate.

    The identities are the ones ``verify --list`` names, each at its
    default term count; the seed shuffles the order of the invocations.
    """
    n = 300
    listing = run_cli(("verify", "--list")).decode("ascii")
    identity_names = [line.split(":", 1)[0] for line in listing.splitlines()]
    inputs: dict = {}
    id_orbits = list(range(1, n + 1))
    ones = [1] * n
    id_file, _ = _write(work, "id-orbits-300.b", id_orbits, inputs)
    ones_file, _ = _write(work, "zeta-300.b", ones, inputs)
    sample = rng.sample(range(2_000), 8)
    invocations = [
        Invocation(f"verify {name}", ("verify", name), expect_pass(name))
        for name in identity_names
    ]
    invocations += [
        Invocation("factor id_orbits", ("factor", "--in", id_file, "--terms", str(n), "--limit", "10000"),
                   expect_factor_pairs(id_orbits, 10_000, sample)),
        Invocation("factor zeta", ("factor", "--in", ones_file, "--terms", str(n), "--limit", "2000"),
                   expect_factor_pairs(ones, 2_000, sample)),
        Invocation("growth full_shift a=2",
                   ("growth", "--name", "full_shift", "--param", "a=2", "--h", "0.693147",
                    "--c1", "1", "--terms", "20"),
                   expect_line(f"pi_actual {sum(_necklaces(2, 20))}")),
    ]
    rng.shuffle(invocations)
    return Plan(invocations, _probes(work, rng, inputs), inputs)


WORKLOADS = {
    "long-small": long_small,
    "short-huge": short_huge,
    "many-small": many_small,
}
