"""transform's text reader and writer against the Python reference forms.

A file of plain numerals in 1 or 2 columns is read by numpy's tokenizer
(textio._read_numerals); every other file by textio._parse_text, the
reference parser.  Both must give the entries that float() gives for each
field, bit for bit.  The writer's array kernel (textio._repr_lines) must
print what one f-string of two reprs per line prints, for every double.
"""

import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcchaos import cli, textio


def bits(values: np.ndarray) -> list[int]:
    return np.ascontiguousarray(values, dtype=complex).view(np.int64).tolist()


def reference_entries(text: str) -> np.ndarray:
    """float() of every field, one entry per non-blank line of 1 or 2 fields."""
    rows = [line.split() for line in text.splitlines()]
    assert all(len(row) <= 2 for row in rows)
    return np.array([complex(*map(float, row)) for row in rows if row], dtype=complex)


def double_of(word: int) -> float:
    return struct.unpack("<d", word.to_bytes(8, "little"))[0]


numerals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(0, 2**64 - 1).map(double_of).filter(math.isfinite).map(repr),
    st.sampled_from(["-0.0", "0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e+308"]),
    # long digit strings, with and without a point and an exponent
    st.from_regex(r"[+-]?[0-9]{1,200}(\.[0-9]{0,200})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.from_regex(r"[+-]?[0-9]{0,3}\.[0-9]{1,30}([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    # hundreds of zeros before the first significant digit
    st.builds(lambda zeros, tail: f"0.{'0' * zeros}{tail}", st.integers(0, 400), st.integers(1, 10**20)),
    # exponent forms at the edges of overflow and underflow
    st.builds(lambda m, e, letter: f"{m}{letter}{e}", st.integers(-(10**17), 10**17),
              st.integers(-420, 330), st.sampled_from("eE")),
)
separators = st.sampled_from([" ", "\t", "  ", " \t ", "\t\t"])
margins = st.sampled_from(["", " ", "\t", "  "])
blank_lines = st.sampled_from(["", " ", "\t", " \t  "])


@st.composite
def numeral_files(draw, columns=None):
    """A file of 1 or 2 numerals (the same count throughout) on every non-blank line."""
    columns = columns or draw(st.sampled_from([1, 2]))
    rows = draw(st.lists(st.lists(numerals, min_size=columns, max_size=columns), min_size=1, max_size=30))
    lines = []
    for row in rows:
        lines += draw(st.lists(blank_lines, max_size=2))
        lines.append(draw(margins) + draw(separators).join(row) + draw(margins))
    lines += draw(st.lists(blank_lines, max_size=2))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(numeral_files())
def test_the_numpy_reader_matches_the_reference_parser_bit_for_bit(text):
    fast = textio._read_numerals(text.encode())
    assert fast is not None
    assert bits(fast) == bits(textio._parse_text(text, "in.txt"))
    assert bits(fast) == bits(reference_entries(text))


@settings(max_examples=100, deadline=None)
@given(numeral_files(), st.data())
def test_a_foreign_line_sends_the_file_to_the_reference_parser(text, data):
    # a line of another field count or with a byte outside the numerals
    foreign = data.draw(st.sampled_from(
        ["1_000", "٣", "2\x0c3", "1\r2", "4 5\r", "7", "7 8", "\x0b9", "+6.5e1"]
    ))
    lines = text.split("\n")
    lines.insert(data.draw(st.integers(0, len(lines))), foreign)
    mixed = "\n".join(lines)
    expected = reference_entries(mixed)
    assert bits(textio._parse_text(mixed, "in.txt")) == bits(expected)
    fast = textio._read_numerals(mixed.encode())
    assert fast is None or bits(fast) == bits(expected)


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"1\n2 0.5\n", [1, 2 + 0.5j]),
        (b"1 2\n3\n", [1 + 2j, 3]),
        (b"1\r\n2\r3 4\r\n", [1, 2, 3 + 4j]),
        (b"1\x0c2\n3\n", [1, 2, 3]),
        (b"1_000\n-2\n", [1000, -2]),
        ("٣\n١.5\n".encode(), [3, 1.5]),
        (b"[1, [2, 3]]", [1, 2 + 3j]),
        (b"", []),
        (b" \n\t\n", []),
    ],
    ids=["mixed-fields", "mixed-fields-first-two", "carriage-returns", "form-feed",
         "underscore", "arabic-indic-digits", "json", "empty", "blank"],
)
def test_files_outside_the_numerals_take_the_reference_parser(tmp_path, data, expected):
    src = tmp_path / "in.txt"
    src.write_bytes(data)
    assert textio._read_numerals(data) is None
    assert bits(cli._read_array(str(src))) == bits(np.array(expected, dtype=complex))


@pytest.mark.parametrize(
    "data, message",
    [
        (b"1 2 3\n4\n", "malformed entry in {}: more than 2 fields on a line"),
        (b"1 2 3\n4 5 6\n", "malformed entry in {}: more than 2 fields on a line"),
        # every line's field count is checked before any field is converted, however long the file
        (b"1 2\n" * 4 + b"abc\n" + b"1 2\n" * 16_994 + b"1 2 3\n" + b"1 2\n" * 3_000,
         "malformed entry in {}: more than 2 fields on a line"),
        (b"1\n1e\n", "malformed entry in {}: could not convert string to float: '1e'"),
        (b"1e999\n1\n", "non-finite entry in {}"),
        (b"\xff1\n2\n", None),
        (b"1\n\xe9\n", None),
        (b"", "length must be positive"),
        (b"[" + b"1" * 400 + b"]", "malformed entry in {}: int too large to convert to float"),
        (b"[1, 2", "malformed JSON in {}: Expecting ',' delimiter: line 1 column 6 (char 5)"),
        (b"[" * 100000, "arrays nested too deeply in {}"),
    ],
    ids=["three-fields-then-one", "three-fields", "three-fields-on-line-17000-after-a-bad-numeral",
         "bad-numeral", "overflow", "non-utf8", "latin-1", "empty", "json-integer-overflow",
         "malformed-json", "json-nested-too-deeply"],
)
def test_rejected_files_exit_2_with_the_reference_message(tmp_path, capsys, data, message):
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_bytes(data)
    if message is None:
        # undecodable: the message of reading the file in text mode
        with pytest.raises(UnicodeDecodeError) as raised, open(src) as fh:
            fh.read()
        message = str(raised.value)
    assert cli.main(["transform", "--p", "2", "--input", str(src), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(src)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [lambda i: f"{i} {-i / 7!r}\r\n", lambda i: f"{i / 3!r}\n" if i % 2 else f"{i} 0.5\n"],
    ids=["crlf", "ragged"],
)
def test_a_long_file_outside_the_numerals_parses_as_float_does(tmp_path, line):
    # past 2**14 lines, where a reader that chunked its lines would start a second chunk
    src = tmp_path / "in.txt"
    text = "".join(map(line, range(2**14 + 3)))
    src.write_bytes(text.encode())
    assert textio._read_numerals(text.encode()) is None
    assert bits(cli._read_array(str(src))) == bits(reference_entries(text))


BLOCK = textio._WRITE_BLOCK


@pytest.mark.parametrize("length", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_the_writer_prints_what_one_f_string_per_line_prints(tmp_path, length):
    rng = np.random.default_rng(length)
    words = rng.integers(-(2**63), 2**63 - 1, 2 * length, dtype=np.int64, endpoint=True)
    # 0.0, -0.0, the least subnormal, the least normal, a nan, 2.0
    special = [0, -(2**63), 1, 2**52, -1, 2**62][: 2 * length]
    words[: len(special)] = special
    values = words.view(complex)
    out, out_json = tmp_path / "out.txt", tmp_path / "out.json"
    cli._write_array(str(out), values, False)
    cli._write_array(str(out_json), values, True)
    re, im = values.real.tolist(), values.imag.tolist()
    assert out.read_text() == "".join(f"{a!r} {b!r}\n" for a, b in zip(re, im))
    one_write_per_chunk = io.StringIO()
    json.dump(list(zip(re, im)), one_write_per_chunk)
    assert out_json.read_text() == one_write_per_chunk.getvalue() + "\n"


@pytest.mark.parametrize("mode, direction", [("float", "inverse"), ("exact", "inverse")])
def test_a_transform_past_the_float_range_exits_2(tmp_path, capsys, mode, direction):
    # finite entries whose sum overflows: no inf or nan is written, and no warning
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("1e308\n1e308\n")
    argv = ["transform", "--p", "2", "--mode", mode, "--direction", direction]
    assert cli.main([*argv, "--input", str(src), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: the transform of {src} overflows the float range\n"
    assert not out.exists()


def test_a_forward_transform_with_representable_coefficients_stays_in_range(tmp_path):
    # the float stages scale by 1/p as they go, so 1e308 + 1e308 never forms and
    # float mode writes the bytes exact mode writes
    src = tmp_path / "in.txt"
    src.write_text("1e308\n1e308\n")
    written = {}
    for mode in ("float", "exact"):
        out = tmp_path / f"{mode}.txt"
        argv = ["transform", "--p", "2", "--mode", mode, "--input", str(src), "--output", str(out)]
        assert cli.main(argv) == 0
        written[mode] = out.read_text()
    assert written["float"] == written["exact"] == "1e+308 0.0\n0.0 0.0\n"


# -- the writer's kernel against repr() -------------------------------------------

SIGN = np.uint64(1 << 63)


def assert_prints_as_repr(words) -> None:
    """The kernel's lines for these float64 bit patterns (paired as re, im) are one f-string each."""
    words = np.asarray(words, dtype=np.uint64)
    values = np.concatenate([words, np.zeros(len(words) % 2, dtype=np.uint64)]).view(complex)
    got = "".join(textio._repr_lines(values[lo : lo + BLOCK]) for lo in range(0, len(values), BLOCK))
    re, im = values.real.tolist(), values.imag.tolist()
    expected = [f"{a!r} {b!r}" for a, b in zip(re, im)]
    if got != "".join(line + "\n" for line in expected):
        lines = got.split("\n")
        wrong = [(a, b) for a, b in zip(lines, expected) if a != b]
        assert wrong[:5] == [] and len(lines) == len(expected) + 1


def neighbours(doubles, ulps: int) -> np.ndarray:
    """The bit patterns within ulps of each double, both signs, finite ones only."""
    words = np.asarray(doubles, dtype=np.float64).view(np.int64)
    near = (words[:, None] + np.arange(-ulps, ulps + 1)).ravel()
    near = near[(near >= 0) & (near < 0x7FF0000000000000)].astype(np.uint64)
    return np.concatenate([near, near | SIGN])


def test_the_kernel_prints_random_bit_patterns_as_repr():
    rng = np.random.default_rng(20)
    assert_prints_as_repr(rng.integers(0, 2**64, 1 << 20, dtype=np.uint64, endpoint=False))


def test_the_kernel_prints_powers_of_two_and_ten_as_repr():
    # every binary exponent, where the spacing below c = 2**52 halves, and every
    # normal power of ten
    assert_prints_as_repr(neighbours([2.0**e for e in range(-1074, 1024)], 3))
    assert_prints_as_repr(neighbours([float(f"1e{e}") for e in range(-307, 309)], 4))


def test_the_kernel_prints_the_layout_edges_as_repr():
    # positional below 1e16 and from 1e-4, the largest exact powers of ten, 2**53,
    # the largest double and the least normal one
    edges = [1e16, 1e15, 1e-4, 1e-5, 1e22, 1e23, 2.0**53, 1.7976931348623157e308, 2.2250738585072014e-308]
    assert_prints_as_repr(neighbours(edges, 100))


def test_the_kernel_prints_zeros_subnormals_and_non_finite_values_as_repr():
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308, math.inf, -math.inf, math.nan]
    words = np.array(specials, dtype=np.float64).view(np.uint64)
    # -nan and a nan with a payload print as "nan"
    more = [0xFFF8000000000000, 0x7FF0000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001]
    assert_prints_as_repr(np.concatenate([words, np.array(more, dtype=np.uint64)]))


def test_the_kernel_prints_integers_and_thousandths_as_repr():
    integers = np.arange(2 * 10**6 + 1, dtype=np.float64)
    assert_prints_as_repr(integers.view(np.uint64))
    assert_prints_as_repr((integers / 1000).view(np.uint64))
