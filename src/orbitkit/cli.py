"""Command-line front end.

Sequences travel as OEIS-style b-files: one ``index value`` pair per line, indices
contiguous, comments starting with ``#`` ignored on input.  ``--in FILE`` and stdin (no
``--in``, or ``--in -``) are read as ASCII bytes by one reader, bfile.read_bfile.
Internally everything is one-indexed; offsets other than 1 exist only at the
export/import boundary.

Exit codes: 0 success, 1 verification failure (including non-realizable inputs), 2 usage
error (including a closed stdin to read), 3 malformed input (including non-ASCII bytes
and negative terms read as orbit, fix or monoid data), 4 internal error; a reader
closing stdout early (``| head``) is no error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from itertools import chain, islice, product
from typing import Optional, Sequence as Vector

from .asymptotics import _require_rate, pnt_report
from .bfile import _FIELD, BFileFormatError, format_bfile, read_bfile
from .factorization import factor_blocks, factor_search
from .identities import REGISTRY, run
from .numtheory import PrimeSet, _require_int
from .operators import iterate_orbits, product_orbits, union_orbits
from .sequences import Sequence, View, builtin, builtin_names, truncate
from .transforms import NotRealizableError, convert

_PRIME_SET_PARAMS = frozenset({"P", "S"})
_BFILE_SLICE = 128  # b-file lines formatted per write


def parse_prime_set(text: str) -> PrimeSet:
    """Parse ``2,3`` (finite) or ``~2,3`` (all primes except 2 and 3).

    Bare ``~`` means every prime; the empty string means no primes.
    Entries are spelled as b-file fields: no +, _, space or non-ASCII digit.
    """
    cofinite = text.startswith("~")
    body = text[1:] if cofinite else text
    entries = body.split(",") if body else []
    if not all(map(_FIELD.fullmatch, entries)):
        raise ValueError(f"bad prime set {text!r}: entries must be integers")
    primes = [int(tok) for tok in entries]
    return PrimeSet.all_except(primes) if cofinite else PrimeSet.finite(primes)


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        if key in params:
            raise ValueError(f"parameter {key} given more than once")
        if key in _PRIME_SET_PARAMS:
            params[key] = parse_prime_set(raw)
        elif _FIELD.fullmatch(raw):  # as in b-files: no +, _, space or non-ASCII digit
            params[key] = int(raw)
        else:
            raise ValueError(f"parameter {key} must be an integer, got {raw!r}")
    return params


def _read_values(path: Optional[str]) -> tuple[int, ...]:
    """The terms of the b-file at path, or on stdin (left open) for no path or '-'."""
    if path not in (None, "-"):
        with open(path, "rb") as fh:
            return read_bfile(fh).values
    if sys.stdin is None:  # started with no fd 0, as `orbitkit import <&-` is
        raise ValueError("no stdin to read; give the input with --in FILE")
    return read_bfile(sys.stdin.buffer).values


def _read_sequence(path: Optional[str], view: View, n_terms: Optional[int] = None) -> Sequence:
    """Read a b-file, check all of it, then keep its first n_terms terms (all when None)."""
    values = _read_values(path)
    if n_terms is not None and len(values) < n_terms:
        raise ValueError(f"input has {len(values)} terms but {n_terms} were requested")
    try:
        seq = Sequence(view, values)
    except ValueError as exc:  # a negative term
        raise BFileFormatError(str(exc)) from None
    return seq if n_terms is None else truncate(seq, n_terms)


def _write_bfile(values: Vector[int], start: int = 1) -> None:
    """Write values to stdout as a b-file, one slice at a time, never as one string."""
    for i in range(0, len(values), _BFILE_SLICE):
        sys.stdout.write(format_bfile(values[i : i + _BFILE_SLICE], start + i))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_seq(args) -> int:
    seq = builtin(args.name, _parse_params(args.param), args.terms)
    if args.view is not None:
        seq = convert(seq, View(args.view))
    _write_bfile(seq.terms)
    return 0


_TRANSFORMS = {
    "fix-to-orbit": (View.FIX, View.ORBIT),
    "orbit-to-fix": (View.ORBIT, View.FIX),
    "euler": (View.ORBIT, View.MONOID),
    "euler-inv": (View.MONOID, View.ORBIT),
}


def _cmd_transform(args) -> int:
    in_view, out_view = _TRANSFORMS[args.kind]
    result = convert(_read_sequence(args.infile, in_view), out_view)
    _write_bfile(result.terms)
    return 0


_OPERATORS = {"product": (2, product_orbits), "union": (2, union_orbits),
              "iterate": (1, iterate_orbits)}  # name: (number of --in, operator)


def _cmd_op(args) -> int:
    arity, fn = _OPERATORS[args.op]
    if len(args.infile) != arity:
        raise ValueError(f"{args.op} takes exactly {('one', 'two')[arity - 1]} --in")
    n_terms, power = args.terms, ()
    if arity == 1:
        if args.k is None:
            raise ValueError("iterate requires --k")
        n_terms, power = n_terms and args.k * n_terms, (args.k,)  # k input terms per output
    elif args.k is not None:
        raise ValueError("--k only applies to iterate")
    inputs = [_read_sequence(path, View.ORBIT, n_terms) for path in args.infile]
    _write_bfile(fn(*inputs, *power).terms)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for name, ident in REGISTRY.items():
            print(f"{name}: {ident.description} (default terms {ident.default_terms})")
        return 0
    if args.name is None:
        raise ValueError("verify needs an identity name, 'all', or --list")
    if args.name not in REGISTRY and args.name != "all":
        raise ValueError(f"unknown identity {args.name!r}; known: {', '.join(REGISTRY)}")
    names = list(REGISTRY) if args.name == "all" else [args.name]
    failures = 0
    for name in names:
        result = run(name, args.terms)
        if result.ok:
            print(f"{name}: PASS")
        else:
            failures += 1
            where = "" if result.failing_index is None else f" at index {result.failing_index}"
            detail = f" ({result.detail})" if result.detail else ""
            print(f"{name}: FAIL{where}{detail}")
    return 1 if failures else 0


def _cmd_growth(args) -> int:
    orbits = convert(builtin(args.name, _parse_params(args.param), args.terms), View.ORBIT)
    report = pnt_report(orbits, args.h, args.c1, args.terms)
    for name, value in zip(report._fields, report):
        print(f"{name} {value!r}")
    return 0


def _cmd_factor(args) -> int:
    target = _read_sequence(args.infile, View.ORBIT, args.terms)
    if args.json:
        import json  # only this output needs it; the other commands start without it
        result = factor_search(target, limit=args.limit)
        payload = {"pairs": [p._asdict() for p in result.pairs], "truncated": result.truncated}
        print(json.dumps(payload, sort_keys=True))
        return 0
    # Lines come from blocks, not pairs. A block is formatted once into lists of
    # (left, right) pieces: one piece for each run of one-choice indices (the
    # prefix heads the first), one per choice at the others. A line takes one of each.
    blocks, count = [], 0
    for left, right, upper in factor_blocks(target):
        lists, ls, rs = [], [f"{u} " for u in left], ["|", *(f" {v}" for v in right)]
        for choices in upper:
            if len(choices) == 1:
                ls.append(f"{choices[0][0]} ")
                rs.append(f" {choices[0][1]}")
            else:
                lists += [("".join(ls), "".join(rs))], [(f"{u} ", f" {v}") for u, v in choices]
                ls, rs = [], []
        lists.append([("".join(ls), "".join(rs) + "\n")])
        blocks.append(lists)
        count += math.prod(map(len, lists))
        if count > args.limit:
            break
    print(f"pairs {min(count, args.limit)}")
    print(f"truncated {'true' if count > args.limit else 'false'}")
    pieces = (chain(*zip(*line)) for lists in blocks for line in product(*lists))
    sys.stdout.writelines(map("".join, islice(pieces, args.limit)))
    return 0


def _cmd_export(args) -> int:
    _write_bfile(_read_values(args.infile), args.offset)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _integer(text: str):
    """A b-file field's spelling makes an int; any other text is left for _require_int to name."""
    return int(text) if _FIELD.fullmatch(text) else text


_DECIMAL = r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE]-?[0-9]+)?|-?inf|nan"  # compiled when growth runs


def _rate(text: str):
    """An ASCII decimal, inf, -inf or nan makes a float; other text is left for _require_rate."""
    return float(text) if re.fullmatch(_DECIMAL, text) else text


# Every flag typed _integer or _rate, with its rule: an int's least and most, or None for a rate.
_NUMBERS = {"--limit": (1, sys.maxsize), "--terms": (1, sys.maxsize), "--k": (1, None),
            "--offset": (None, None), "--h": None, "--c1": None}  # maxsize: islice's bound


def _join_values(argv: list[str]) -> list[str]:
    """Number flags with a value such as -1_0 as --flag=value, which argparse reads as no option."""
    out: list[str] = []
    for token in argv:  # a value led by '-' that no option string starts: not -h, --name
        if out and out[-1] in _NUMBERS and token[:1] == "-" and not re.match(r"-h|--[a-z]", token):
            token = f"{out.pop()}={token}"
        out.append(token)
    return out


def _check_flags(args) -> None:
    """Each flag's one rule, in _NUMBERS' order, before any command reads input or builds a term."""
    for flag, rule in _NUMBERS.items():
        if (value := getattr(args, flag[2:], None)) is not None:
            _require_int(value, flag, *rule) if rule else _require_rate(value, flag)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitkit",
        description="Orbit-counting sequence toolkit: builtins, transforms, operators, identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print a builtin sequence as a b-file")
    p.add_argument("name", help="builtin name: " + ", ".join(builtin_names()))
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="builtin parameter; prime sets use e.g. P=2,3 or P=~2,3 (cofinite)")
    p.add_argument("--terms", type=_integer, required=True)
    p.add_argument("--view", choices=[v.value for v in View], default=None,
                   help="convert to this view before printing")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("transform", help="apply a transform to a b-file")
    p.add_argument("kind", choices=sorted(_TRANSFORMS))
    p.add_argument("--in", dest="infile", default=None, metavar="FILE",
                   help="input b-file (default stdin)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("op", help="apply an operator to orbit-count b-files")
    p.add_argument("op", choices=list(_OPERATORS))
    p.add_argument("--in", dest="infile", action="append", default=[], metavar="FILE")
    p.add_argument("--k", type=_integer, default=None, help="iteration power (iterate only)")
    p.add_argument("--terms", type=_integer, default=None,
                   help="output length; inputs must carry enough terms")
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("verify", help="run a named identity (or 'all')")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--terms", type=_integer, default=None,
                   help="override the identity's default term count")
    p.add_argument("--list", action="store_true", help="list identities and exit")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("growth", help="print a growth report for a builtin")
    p.add_argument("--name", required=True)
    p.add_argument("--param", action="append", default=[], metavar="K=V")
    p.add_argument("--h", type=_rate, required=True, help="exponential growth rate")
    p.add_argument("--c1", type=_rate, required=True, help="leading constant")
    p.add_argument("--terms", type=_integer, required=True)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("factor", help="search for product factorizations of a b-file")
    p.add_argument("--in", dest="infile", default=None, metavar="FILE")
    p.add_argument("--terms", type=_integer, default=None)
    p.add_argument("--limit", type=_integer, default=10_000)
    p.add_argument("--json", action="store_true", help="emit a JSON envelope")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("export", help="re-emit a canonical b-file at another offset")
    p.add_argument("--in", dest="infile", default=None, metavar="FILE")
    p.add_argument("--offset", type=_integer, required=True)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("import", help="normalize a b-file to offset 1")
    p.add_argument("--in", dest="infile", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_export, offset=1)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)  # exact terms may have any number of digits
    try:
        args = _build_parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
        _check_flags(args)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except SystemExit as exc:  # from argparse, after it printed usage or help
        return exc.code if isinstance(exc.code, int) else 2
    except BFileFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except NotRealizableError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # shutdown flushes what is left into devnull, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4
    finally:  # an in-process caller gets its own limit back
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
