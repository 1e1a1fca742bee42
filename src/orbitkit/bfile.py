"""Reading and writing OEIS-style b-files.

Canonical form is one data line per index, "<index> <value>\n", indices
contiguous and ascending.  Comment ('#') and blank lines are accepted on
input and never written, so re-export of a canonical file is byte-identical.
format_bfile splits a term past _CUT bits at 10^k = 5^k 2^k: a divmod by 5^k and a shift.
"""

from __future__ import annotations

import io
import re
import sys
from functools import lru_cache
from itertools import chain, count, islice
from typing import BinaryIO, Iterable, NamedTuple


_BLOCK = 1 << 16  # bytes read_bfile reads at a time, before it finishes the last line
_CUT = 1 << 11  # bits: a term no longer (617 digits or fewer) is written by str()
_FIELD = re.compile(r"-?[0-9]+")
_DROP_FIELD_CHARS = str.maketrans("", "", "0123456789-")


class BFileFormatError(ValueError):
    """Malformed b-file input."""


class BFile(NamedTuple):
    start: int
    values: tuple[int, ...]


def parse_bfile(text: str) -> BFile:
    """Read a b-file: canonical text in one pass, any other line by line."""
    # Canonical text is "<field> <field>\n" on every line: removing the field
    # characters leaves one " \n" per line, and no field is empty.
    lines = text.count("\n")
    if lines and text.translate(_DROP_FIELD_CHARS) == " \n" * lines:
        tokens = text.split()
        if len(tokens) == 2 * lines:
            try:
                start = int(tokens[0])
                if all(map(str.__eq__, islice(tokens, 0, None, 2), map(str, count(start)))):
                    return BFile(start, tuple(map(int, islice(tokens, 1, None, 2))))
            except ValueError:  # a field such as "-" or "1-2": let the lines say where
                pass
    return _parse_lines(text)


def _parse_lines(text: str) -> BFile:
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pieces = line.split()
        if len(pieces) != 2:
            raise BFileFormatError(f"line {lineno}: expected 'index value', got {raw!r}")
        if not all(map(_FIELD.fullmatch, pieces)):
            raise BFileFormatError(f"line {lineno}: non-integer field in {raw!r}")
        try:
            idx, val = int(pieces[0]), int(pieces[1])
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise BFileFormatError(f"line {lineno}: {exc}") from None
        if entries and idx != entries[-1][0] + 1:
            raise BFileFormatError(
                f"line {lineno}: index {idx} is not contiguous with {entries[-1][0]}"
            )
        entries.append((idx, val))
    if not entries:
        raise BFileFormatError("no data lines found")
    return BFile(entries[0][0], tuple(v for _, v in entries))


def read_bfile(fh: BinaryIO) -> BFile:
    """From fh's position in blocks of whole lines (a pipe held first); whole if they fail."""
    if not fh.seekable():
        fh = io.BytesIO(fh.read())
    begin = fh.tell()
    try:
        blocks = iter(lambda: fh.read(_BLOCK) + fh.readline(), b"")
        parts = [parse_bfile(block.decode("ascii")) for block in blocks]
    except (UnicodeDecodeError, BFileFormatError):
        parts = []
    if parts and all(b.start == a.start + len(a.values) for a, b in zip(parts, parts[1:])):
        return BFile(parts[0].start, tuple(chain.from_iterable(p.values for p in parts)))
    fh.seek(begin)  # the same stream: what the blocks read is read again
    try:
        return parse_bfile(fh.read().decode("ascii"))
    except UnicodeDecodeError as exc:
        raise BFileFormatError(f"byte {exc.start}: input is not ASCII") from None


def format_bfile(values: Iterable[int], start: int = 1) -> str:
    indices = count(start)
    try:
        return "".join(
            f"{i} {v if v.bit_length() <= _CUT else _decimal(v)}\n" for i, v in zip(indices, values)
        )
    except ValueError as exc:  # a term over the int/str digit limit; zip drew its index last
        raise BFileFormatError(f"index {next(indices) - 1}: {exc}") from None


_digit_limit = getattr(sys, "get_int_max_str_digits", int)  # int() is 0: no limit before 3.10.7


def _decimal(v: int) -> str:
    """str(v) for a term past _CUT bits; str() itself where it may be over the digit limit."""
    limit = _digit_limit()
    if 0 < limit < (v.bit_length() * 1234 >> 12) + 1:  # 1234/4096 is just over log10(2)
        return str(v)  # the interpreter's own ValueError, if v is over
    return "-" + _digits(-v) if v < 0 else _digits(v)


def _digits(v: int, width: int = 0) -> str:
    """The decimal digits of v >= 0, zero-padded to width.

    Past _CUT bits, v is split at 10^k = 5^k 2^k, k near half its digits: v >> k
    is divided by 5^k, and the remainder is shifted back over v's low k bits. Each
    half is written the same way (Knuth, TAOCP vol. 2, 4.4). divmod's quadratic
    constant is below str()'s: at 3,600 digits this is 1.68 times as fast as str().
    """
    if v.bit_length() <= _CUT:
        return str(v).zfill(width)
    k = (v.bit_length() * 1233 >> 13) & -64  # half its digits, rounded down to a multiple of 64
    high, r = divmod(v >> k, _power_of_five(k))
    return _digits(high, width - k) + _digits(r << k | v & ((1 << k) - 1), k)


@lru_cache(maxsize=64)  # k is a multiple of 64: 25 powers for terms up to 3,600 digits
def _power_of_five(k: int) -> int:
    return 5**k
