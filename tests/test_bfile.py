import pytest
from hypothesis import given, strategies as st

from orbitkit import BFile, BFileFormatError, format_bfile, parse_bfile


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
    assert parse_bfile(b.to_text()) == b


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
    assert parsed.to_text() == text
