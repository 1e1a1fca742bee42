"""Reading and writing OEIS-style b-files.

Canonical form is one data line per index, "<index> <value>\n", indices
contiguous and ascending.  Comment ('#') and blank lines are accepted on
input and never written, so re-export of a canonical file is byte-identical.
read_bfile reads a file in blocks of whole lines, and whole only where a block fails.
"""

from __future__ import annotations

import io
import re
from itertools import chain, count, islice
from typing import Callable, Iterable, NamedTuple


_BLOCK = 1 << 16  # bytes read_bfile reads at a time, before it finishes the last line
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


def read_bfile(path: str) -> BFile:
    """Parsed in blocks of whole lines; whole where they cannot stand for it or it cannot seek."""
    with open(path, "rb") as fh:
        if fh.seekable():
            try:
                blocks = iter(lambda: fh.read(_BLOCK) + fh.readline(), b"")
                parts = [parse_bfile(block.decode("ascii")) for block in blocks]
            except (UnicodeDecodeError, BFileFormatError):
                parts = []
            if parts and all(b.start == a.start + len(a.values) for a, b in zip(parts, parts[1:])):
                return BFile(parts[0].start, tuple(chain.from_iterable(p.values for p in parts)))
            fh.seek(0)  # the same handle: what the blocks read is read again
        return _parse_text(io.TextIOWrapper(fh, encoding="ascii").read)


def _parse_text(read: Callable[[], str]) -> BFile:
    try:
        text = read()
    except UnicodeDecodeError as exc:
        raise BFileFormatError(f"byte {exc.start}: input is not ASCII") from None
    return parse_bfile(text)


def format_bfile(values: Iterable[int], start: int = 1) -> str:
    indices = count(start)
    try:
        return "".join(f"{i} {v}\n" for i, v in zip(indices, values))
    except ValueError as exc:  # a term over the int/str digit limit; zip drew its index last
        raise BFileFormatError(f"index {next(indices) - 1}: {exc}") from None
