"""Reading and writing OEIS-style b-files.

Canonical form is one data line per index, "<index> <value>\n", indices
contiguous and ascending.  Comment lines starting with '#' and blank
lines are accepted on input and never written on output, so re-export
of a canonical file is byte-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable


_FIELD = re.compile(r"-?[0-9]+")


class BFileFormatError(ValueError):
    """Malformed b-file input."""


@dataclass(frozen=True)
class BFile:
    start: int
    values: tuple[int, ...]

    def to_text(self) -> str:
        return format_bfile(self.values, self.start)


def parse_bfile(text: str) -> BFile:
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
        idx, val = int(pieces[0]), int(pieces[1])
        if entries and idx != entries[-1][0] + 1:
            raise BFileFormatError(
                f"line {lineno}: index {idx} is not contiguous with {entries[-1][0]}"
            )
        entries.append((idx, val))
    if not entries:
        raise BFileFormatError("no data lines found")
    return BFile(entries[0][0], tuple(v for _, v in entries))


def format_bfile(values: Iterable[int], start: int = 1) -> str:
    return "".join(f"{start + i} {v}\n" for i, v in enumerate(values))
