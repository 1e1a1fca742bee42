import io
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from orbitkit import BFile, BFileFormatError, bfile, cli, format_bfile, parse_bfile, read_bfile
from helpers import digit_limit, invoke, needs_digit_limit, outcome


def test_format_canonical():
    assert format_bfile([10, -20, 30], 1) == "1 10\n2 -20\n3 30\n"
    assert format_bfile([7], 0) == "0 7\n"
    assert format_bfile([1, 2], -1) == "-1 1\n0 2\n"


def test_parse_canonical():
    parsed = parse_bfile("1 10\n2 -20\n3 30\n")
    assert parsed.start == 1
    assert parsed.values == (10, -20, 30)


def test_parse_skips_comments_and_blanks():
    text = "# b-file for something\n\n1 5\n# interior comment\n2 6\n\n"
    parsed = parse_bfile(text)
    assert parsed.start == 1
    assert parsed.values == (5, 6)


def test_parse_other_offsets():
    assert parse_bfile("0 1\n1 1\n").start == 0
    assert parse_bfile("5 9\n6 8\n").start == 5


def test_parse_rejects_gap():
    with pytest.raises(BFileFormatError, match="line 2"):
        parse_bfile("1 5\n3 6\n")


def test_parse_rejects_descending():
    with pytest.raises(BFileFormatError):
        parse_bfile("2 5\n1 6\n")


def test_parse_rejects_bad_fields():
    with pytest.raises(BFileFormatError, match="line 1"):
        parse_bfile("x 5\n")
    with pytest.raises(BFileFormatError):
        parse_bfile("1 5 6\n")
    with pytest.raises(BFileFormatError):
        parse_bfile("1\n")
    # int() spellings that are not b-file digits
    for text in ("1 1_000\n", "3 +4\n", "2 \u0663\n", "+1 5\n", "1 -\n", "1 5.0\n"):
        with pytest.raises(BFileFormatError, match="non-integer field"):
            parse_bfile(text)


def test_parse_rejects_empty():
    with pytest.raises(BFileFormatError, match="no data"):
        parse_bfile("")
    with pytest.raises(BFileFormatError, match="no data"):
        parse_bfile("# nothing here\n")


def test_bfile_to_text_roundtrip():
    b = BFile(3, (1, 2, 3))
    assert parse_bfile(format_bfile(b.values, b.start)) == b


def test_handles_big_integers():
    n = 2**300 - 7
    text = format_bfile([n], 1)
    assert parse_bfile(text).values == (n,)


@given(
    st.lists(st.integers(min_value=-(10**9), max_value=10**9), min_size=1, max_size=40),
    st.integers(min_value=-5, max_value=5),
)
def test_roundtrip_is_byte_identical(values, start):
    text = format_bfile(values, start)
    parsed = parse_bfile(text)
    assert parsed.start == start
    assert list(parsed.values) == values
    assert format_bfile(parsed.values, parsed.start) == text


# Edits that take a canonical text off the one-pass route: each acts on
# the list of lines at one position.  Valid results and error messages
# must come out as the per-line reader gives them.
def _replace(old, new):
    def edit(lines, i):
        lines[i] = lines[i].replace(old, new, 1)

    return edit


def _set_value(value):
    def edit(lines, i):
        lines[i] = lines[i].split(" ")[0] + f" {value}\n"

    return edit


def _swap_with_next(lines, i):
    lines[i : i + 2] = lines[i : i + 2][::-1]


_EDITS = [
    lambda lines, i: lines.insert(i, "# a comment\n"),
    lambda lines, i: lines.insert(i, "\n"),
    _replace("\n", "\r\n"),
    _replace("\n", "\r"),
    _replace(" ", "\t"),
    _replace(" ", "  "),
    _replace(" ", " +"),
    _replace(" ", " 1_"),
    _replace(" ", " \u0663"),
    _replace(" ", " 5 "),
    _set_value("1-2"),
    _set_value("-"),
    _set_value("--3"),
    _set_value(""),  # an empty value field
    lambda lines, i: lines.__setitem__(i, " " + lines[i].partition(" ")[2]),  # an empty index
    lambda lines, i: lines.pop(i),  # a gap, or no data at all
    _swap_with_next,  # a descent
    lambda lines, i: lines.__setitem__(i, "0" + lines[i]),  # index such as 01
    lambda lines, i: lines.__setitem__(i, " " + lines[i]),
    lambda lines, i: lines.__setitem__(i, lines[i].rstrip("\n")),  # a missing newline
]


def _edited(values, start, edits):
    """format_bfile's text, with each (position, edit) applied to its list of lines."""
    lines = format_bfile(values, start).splitlines(keepends=True)
    for where, edit in edits:
        if lines:
            edit(lines, where % len(lines))
    return "".join(lines)


@settings(max_examples=400)
@given(
    st.lists(st.integers(min_value=-(10**40), max_value=10**40), min_size=1, max_size=8),
    st.integers(min_value=-3, max_value=12),
    st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(_EDITS)), max_size=3),
)
def test_one_pass_reader_agrees_with_line_reader(values, start, edits):
    text = _edited(values, start, edits)
    assert outcome(parse_bfile, text) == outcome(bfile._parse_lines, text)


@given(
    st.lists(st.integers(min_value=-(10**40), max_value=10**40), min_size=1, max_size=40),
    st.integers(min_value=-5, max_value=5),
)
def test_canonical_text_never_reaches_the_line_reader(values, start):
    def refuse(text):
        raise AssertionError("canonical text went through the per-line reader")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bfile, "_parse_lines", refuse)
        assert parse_bfile(format_bfile(values, start)) == BFile(start, tuple(values))


@needs_digit_limit
def test_term_over_the_digit_limit_names_its_line():
    text = "1 " + "1" * 5000 + "\n"
    with digit_limit():
        with pytest.raises(BFileFormatError, match="^line 1: "):
            parse_bfile(text)
        with pytest.raises(BFileFormatError, match="^line 3: "):
            parse_bfile("# big\n1 1\n" + text.replace("1 ", "2 ", 1))
    with digit_limit(0):
        assert parse_bfile(text).values == (int("1" * 5000),)


@needs_digit_limit
def test_writing_a_term_over_the_digit_limit_names_its_index():
    big = 10**5000
    with digit_limit():
        with pytest.raises(BFileFormatError, match="^index 2: "):
            format_bfile([1, big])
        with pytest.raises(BFileFormatError, match="^index 3: "):
            format_bfile([big, 1], 3)
        with pytest.raises(BFileFormatError, match="^index 7: "):
            format_bfile((1, 2, big), 5)
    with digit_limit(0):
        assert format_bfile([1, big]) == "1 1\n2 1" + "0" * 5000 + "\n"


@needs_digit_limit
def test_writing_a_negative_term_over_the_digit_limit_names_its_index():
    with digit_limit():
        with pytest.raises(BFileFormatError, match="^index 2: Exceeds the limit"):
            format_bfile([1, -(10**5000)])
        for term in (10**4299, -(10**4300 - 1)):  # 4,300 digits: written
            assert format_bfile([term]) == f"1 {term}\n"
    with digit_limit(700):  # a lower limit, reached by a term past bfile._CUT
        with pytest.raises(BFileFormatError, match="^index 1: Exceeds the limit"):
            format_bfile([-(10**700)])
        assert format_bfile([-(10**699)]) == "1 -1" + "0" * 699 + "\n"


# A term past bfile._CUT bits is split at 10^k = 5^k 2^k by a divmod of its top bits by 5^k
# and a shift of k bits; str() is the referee. Edges: 10^k - 1, 10^k and 10^k + 1 for k on
# each side of every split size (a multiple of 64) up to 20,000 bits and of the cut's 617
# digits, powers of two at the cut, low halves that begin with zeros (one of them split
# again), and zero. Then q 10^k + r, which is split at exactly k: its low half r has k low
# bits all ones (2^k - 1) or all zeros (2^k, 10^k - 2^k), and a 5^k remainder of 0, 1 or 5^k - 1.
_SPLIT_EDGES = [0, 1, 10**3000 + 7, 10**3000 + 3**2000, *(2**bfile._CUT + d for d in (-1, 0, 1)),
                *(10**(k + e) + d for k in (*range(64, 6100, 64), 617) for e in (-1, 0, 1)
                  for d in (-1, 0, 1)),
                *(q * 10**k + r for k in range(320, 6081, 64)
                  for q in (10**(k + 1), 7 * 10**(k + 19), 10**(k + 20) - 1)
                  for r in (2**k - 1, 2**k, 10**k - 2**k))]


def test_split_writes_what_str_writes_at_its_edges():
    with digit_limit(0):
        for term in _SPLIT_EDGES + [-t for t in _SPLIT_EDGES]:
            assert format_bfile([term]) == f"1 {term}\n"


@settings(max_examples=300)  # about a third of the terms drawn are past the cut
@given(st.integers(0, 20_000).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)))
def test_split_writes_what_str_writes(term):
    with digit_limit(0):
        assert format_bfile([term], 0) == f"0 {term}\n"


def _read_whole(data):
    """Bytes read as one text, as parse_bfile reads it: the referee of the block reader."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise BFileFormatError(f"byte {exc.start}: input is not ASCII") from None
    return parse_bfile(text)


class _Unseekable(io.BytesIO):
    """Bytes on a stream that cannot seek, as a pipe's."""

    def seekable(self):
        return False


# Edits for the block reader, beside _EDITS: bytes that are not ASCII, a line
# longer than any block, and comment lines enough to fill a block on their own.
_BLOCK_EDITS = _EDITS + [
    _replace(" ", " \u00e9"),
    lambda lines, i: lines.insert(i, "# \u00e9\n"),  # a comment parse_bfile would accept
    lambda lines, i: lines.insert(i, "#" + "x" * 100 + "\n"),
    lambda lines, i: lines.insert(i, "# c\n" * 20),
    _set_value("7" * 150),
]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.integers(min_value=-(10**40), max_value=10**40), min_size=1, max_size=20),
    st.integers(min_value=-3, max_value=12),
    st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(_BLOCK_EDITS)), max_size=3),
    st.integers(min_value=1, max_value=64),
)
def test_block_reader_agrees_with_whole_text(values, start, edits, block):
    data = _edited(values, start, edits).encode("utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bfile, "_BLOCK", block)
        whole = outcome(_read_whole, data)
        assert outcome(read_bfile, io.BytesIO(data)) == whole
        assert outcome(read_bfile, _Unseekable(data)) == whole


def _stdin_reads_as_the_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.b"
        path.write_bytes(data)
        from_file = invoke("import", "--in", str(path))
        assert invoke("import", stdin=data) == from_file
        assert invoke("import", stdin=_Unseekable(data)) == from_file  # as a pipe gives


# Bytes that a locale text layer over stdin decodes where --in refuses them, and two
# that every reader treats alike.
@pytest.mark.parametrize("data", [
    pytest.param(b"# \xc3\xa9\n1 1\n2 3\n", id="a comment that is not ASCII"),
    pytest.param("1\u00a01\n".encode(), id="a no-break space"),
    pytest.param(b"1 \xff\n", id="a byte that is not UTF-8"),
    pytest.param(b"\xef\xbb\xbf1 1\n2 3\n", id="a UTF-8 BOM"),
    pytest.param(b"1 1\r\n2 3\r\n", id="CRLF"),
    pytest.param(b"1 1\n3 3\n", id="a gap"),
])
def test_stdin_reads_as_a_file_does(data):
    _stdin_reads_as_the_file(data)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-(10**40), max_value=10**40), min_size=1, max_size=20),
    st.integers(min_value=-3, max_value=12),
    st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(_BLOCK_EDITS)), max_size=3),
    st.integers(min_value=1, max_value=64),
)
def test_stdin_reads_as_a_file_does_after_edits(values, start, edits, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bfile, "_BLOCK", block)
        _stdin_reads_as_the_file(_edited(values, start, edits).encode("utf-8"))


_LINES = "".join(f"{n} 1\n" for n in range(3, 40))


@pytest.mark.parametrize("text, block, message", [  # a block is block bytes and the rest of a line
    pytest.param("1 1\n2 x\n" + _LINES + "40 \u00e9\n", 1, "byte 189: input is not ASCII",
                 id="a late byte that is not ASCII beats an early malformed line"),
    pytest.param("1 1\n" + _LINES, 1, "line 2: index 3 is not contiguous with 1",
                 id="a gap between two blocks that each parse"),
    pytest.param("1 1\n# \u00e9\n2 1\n", 5, "byte 6: input is not ASCII",
                 id="a comment that is not ASCII, in a block parse_bfile would accept"),
])
def test_block_reader_reports_errors_across_blocks(tmp_path, monkeypatch, text, block, message):
    monkeypatch.setattr(bfile, "_BLOCK", block)
    path = tmp_path / "in.b"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "rb") as fh:
        got = outcome(read_bfile, fh)
    assert got == outcome(_read_whole, path.read_bytes()) == (BFileFormatError, message)


@pytest.mark.parametrize("text, message", [
    pytest.param("1 \u00e9\n" + _LINES, "byte 2: input is not ASCII", id="not ASCII in the first block"),
    pytest.param("1 x\n" + _LINES, "line 1: non-integer field in '1 x'", id="malformed first block"),
    pytest.param("1 1\n" + _LINES, "line 2: index 3 is not contiguous with 1", id="a gap"),
])
def test_a_file_that_cannot_seek_is_read_once_and_whole(monkeypatch, text, message):
    # a pipe, as `--in <(zcat b.txt.gz)` or `zcat b.txt.gz |` gives, cannot be read twice:
    # its bytes are read from it once and held, then read in blocks and whole as a file's are
    monkeypatch.setattr(bfile, "_BLOCK", 1)
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode("utf-8"))
    os.close(write_end)
    with open(read_end, "rb") as fh:
        assert outcome(read_bfile, fh) == (BFileFormatError, message)


@pytest.mark.parametrize("text, result", [
    pytest.param("1 1\n2 x\n" + _LINES, (BFileFormatError, "line 2: non-integer field in '2 x'"),
                 id="a malformed block"),
    pytest.param("1 1\n# \u00e9\n2 1\n", (BFileFormatError, "byte 6: input is not ASCII"),
                 id="a block that is not ASCII"),
    pytest.param("5 1\n6 2\n", BFile(5, (1, 2)), id="blocks that parse"),
])
def test_a_stream_is_read_from_where_it_stands(tmp_path, monkeypatch, text, result):
    # as a shell leaves stdin after `read` took a line: the bytes before k are neither
    # parsed nor counted, by the blocks or by the whole text read again from k
    monkeypatch.setattr(bfile, "_BLOCK", 1)
    head = "# \u00e9\n0 x\n".encode()
    path = tmp_path / "in.b"
    path.write_bytes(head + text.encode("utf-8"))
    with open(path, "rb") as fh:
        fh.seek(len(head))
        assert outcome(read_bfile, fh) == result


def test_canonical_blocks_never_reach_the_line_reader(tmp_path, monkeypatch):
    calls = []

    def refuse(text):
        raise AssertionError("canonical text went through the per-line reader")

    def counted(text):
        calls.append(len(text))
        return parse(text)

    parse = bfile.parse_bfile
    values = [7**n for n in range(300)]
    path = tmp_path / "canonical.b"
    path.write_text(format_bfile(values, 0), encoding="ascii")
    monkeypatch.setattr(bfile, "_parse_lines", refuse)
    monkeypatch.setattr(bfile, "parse_bfile", counted)
    monkeypatch.setattr(bfile, "_BLOCK", 1024)
    with open(path, "rb") as fh:
        assert read_bfile(fh) == BFile(0, tuple(values))
    assert len(calls) > 1 and sum(calls) == path.stat().st_size


def _traced_peak(read, source):
    """read(source), and the most memory that tracemalloc saw held while it ran."""
    tracemalloc.start()
    try:
        return read(source), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_file_holds_less_than_its_size(tmp_path, monkeypatch):
    # 2,000 terms of about 1,000 digits: the whole text and its tokens would be twice the file
    path = tmp_path / "big.b"
    path.write_text(format_bfile(10**999 + 3**n for n in range(2000)), encoding="ascii")
    size = path.stat().st_size
    with open(path, "rb") as fh:
        monkeypatch.setattr("sys.stdin", SimpleNamespace(buffer=fh))  # as `< big.b` gives
        for where in (str(path), None):
            values, peak = _traced_peak(cli._read_values, where)
            assert len(values) == 2000
            assert peak < size
    # a pipe's bytes are held, then read in blocks as a file's are: beside them, only one
    # block's text and tokens
    data = path.read_bytes()
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with open(read_end, "rb") as fh:
        got, peak = _traced_peak(read_bfile, fh)
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert len(got.values) == 2000
    assert peak < 2 * size
