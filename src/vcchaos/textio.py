"""transform's array files: the reader of text and JSON arrays and the writer.

Only `transform` imports this module, and it imports no other layer: a
malformed file raises ValueError, which the CLI reports with exit code 2.

The text writer prints each float as repr() does, from arrays: the shortest
decimal that reads back to the same double and, of those, the closest
(Schubfach: R. Giulietti, "The Schubfach way to render doubles", 2020) is
computed on uint64 arrays; each number's characters are laid out in a
fixed-width row of bytes, and one mask drops the bytes a row does not use.
Subnormals, inf and nan are printed by repr() itself.
"""

from __future__ import annotations

import functools
import io
import json

import numpy as np

# lines parsed per numpy call: bounds the token lists alive at once; also the
# entries formatted per write
_PARSE_BLOCK = 1 << 14

# the bytes of a file of plain numerals: on these alone lines break only at
# "\n", fields split only at space and tab, and numpy's field parser accepts
# and rounds exactly as float() does (they differ only on "_" and non-ASCII digits)
_NUMERAL_BYTES = b"0123456789+-.eE \t\n"


def read_array(path: str) -> np.ndarray:
    """Complex entries of a JSON array or of text lines of 1 (real) or 2 (re im) fields.

    A file of plain numerals in 1 or 2 columns is read by numpy's C
    tokenizer; any other file, including every malformed one, by the
    decoded text as open(path).read() gives it, so that parser alone
    decides what else is accepted and words every error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    out = _read_numerals(data)
    if out is None:
        # locale encoding and universal newlines, as a text-mode open reads it
        text = io.TextIOWrapper(io.BytesIO(data)).read()
        del data
        out = _parse_text(text, path)
    if not np.isfinite(out).all():
        raise ValueError(f"non-finite entry in {path}")
    return out


def _read_numerals(data: bytes) -> np.ndarray | None:
    """The entries of a file of plain numerals in 1 or 2 columns, else None."""
    # blank data never reaches loadtxt, which warns on stderr when it finds no rows
    if not data or data.isspace() or data.translate(None, _NUMERAL_BYTES):
        return None
    try:
        table = np.loadtxt(
            io.BytesIO(data), dtype=float, comments=None, quotechar=None, ndmin=2, encoding="latin1"
        )
    except ValueError:  # a malformed field or ragged rows
        return None
    if table.shape[1] == 1:
        return table[:, 0].astype(complex)
    if table.shape[1] == 2:
        return table.view(complex)[:, 0]
    return None


def _parse_text(text: str, path: str) -> np.ndarray:
    """The entries of a decoded file: a JSON array, else text lines parsed _PARSE_BLOCK at a time."""
    if text.lstrip().startswith("["):
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError(f"arrays nested too deeply in {path}") from None
        # a bare number is a real entry; an empty list fails float() below
        rows = (item if isinstance(item, list) and item else [item] for item in data)
        try:
            return np.array([complex(*map(float, row)) for row in rows], dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond float range
            raise ValueError(f"malformed entry in {path}: {exc}") from None
    # drop the text and then the line list once consumed: together they
    # are most of the reader's peak memory
    lines = text.splitlines()
    del text
    blocks = []
    for lo in range(0, len(lines), _PARSE_BLOCK):
        blocks.append(_parse_lines(lines[lo : lo + _PARSE_BLOCK], path))
    del lines
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=complex)


def _parse_lines(lines: list[str], path: str) -> np.ndarray:
    """One complex entry per line of 1 or 2 whitespace-separated fields; blank lines skipped."""
    counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.intp, count=len(lines))
    if (counts > 2).any():
        raise ValueError(f"malformed entry in {path}: more than 2 fields on a line")
    try:
        # the joined block splits into every line's fields in order; float()
        # semantics for each, as on the JSON path
        fields = np.array(" ".join(lines).split(), dtype=float)
    except ValueError as exc:
        raise ValueError(f"malformed entry in {path}: {exc}") from None
    counts = counts[counts > 0]
    if len(fields) == 2 * len(counts):
        return fields.view(complex)
    out = np.zeros(len(counts), dtype=complex)
    starts = np.cumsum(counts) - counts
    out.real = fields[starts]
    pairs = counts == 2
    out.imag[pairs] = fields[starts[pairs] + 1]
    return out


def write_array(path: str, values: np.ndarray, as_json: bool) -> None:
    """One "re im" line per entry, each part as repr() prints it, or a JSON array of [re, im]."""
    with open(path, "w") as fh:
        if as_json:
            fh.write(json.dumps(list(zip(values.real.tolist(), values.imag.tolist()))) + "\n")
            return
        values = np.ascontiguousarray(values, dtype=complex)
        for lo in range(0, len(values), _PARSE_BLOCK):
            fh.write(_repr_lines(values[lo : lo + _PARSE_BLOCK]))


# -- shortest round-trip digits (Schubfach) on uint64 arrays --------------------
#
# A normal double is v = c * 2**q with 2**52 <= c < 2**53.  Its rounding
# interval, scaled by 4, is [cb - 2, cb + 2] around cb = 4c (cb - 1 below when
# c = 2**52, where the spacing halves), closed when c is even.  With
# k = floor(log10 of the interval's width) and g ~ 10**-k * 2**(127 - h - q)
# a 126-bit table row, rop(g * x) ~ g * x / 2**127 rounded to odd gives the
# interval's ends and v at 10**k scale, 2 fraction bits kept, exactly enough
# to decide which multiples of 10**k and 10**(k+1) lie in it.  Names follow
# the paper's figures; the 64 x 64-bit products are 32-bit limbs.

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_LOW63 = _U(2**63 - 1)
_HIDDEN = 1 << 52
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)


@functools.cache
def _table_row(k: int) -> tuple[int, int]:
    """(g1, g0) with g = g1 * 2**63 + g0 = floor(10**-k * 2**(125 - floor(log2 10**-k))) + 1."""
    power = 10 ** abs(k)
    if k <= 0:
        log2 = power.bit_length() - 1
        beta = power << (125 - log2) if log2 <= 125 else power >> (log2 - 125)
    else:
        log2 = -power.bit_length()
        beta = (1 << (125 - log2)) // power
    g = beta + 1
    return g >> 63, g & (2**63 - 1)


def _limbs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return a, a & _LOW32, a >> _U(32)


def _mul_high(a, b_lo, b_hi):
    """floor(a * b / 2**64) for a < 2**64 given by _limbs and b = b_hi * 2**32 + b_lo < 2**59."""
    _, a_lo, a_hi = a
    cross = a_hi * b_lo
    mid = ((a_lo * b_lo) >> _U(32)) + a_lo * b_hi + (cross & _LOW32)  # < 2**60
    return a_hi * b_hi + (cross >> _U(32)) + (mid >> _U(32))


def _rop(g1, g0, cp):
    """g * cp / 2**127 rounded to odd, from the product's upper bits as in the paper's figure 8."""
    _, cp_lo, cp_hi = _limbs(cp)
    z = ((g1[0] * cp) >> _U(1)) + _mul_high(g0, cp_lo, cp_hi)
    return (_mul_high(g1, cp_lo, cp_hi) + (z >> _U(63))) | (((z & _LOW63) + _LOW63) >> _U(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, e, n): f * 10**e is the shortest, closest decimal of each normal double, f has n digits."""
    c = (bits & _U(_HIDDEN - 1)) | _U(_HIDDEN)
    biased = (bits >> _U(52)) & _U(0x7FF)
    q = biased.astype(np.int64) - 1075
    irregular = (c == _U(_HIDDEN)) & (biased > _U(1))
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) where the spacing halves
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)  # 1 <= h <= 4
    low = int(k.min())
    table = np.zeros((2, int(k.max()) - low + 1), dtype=np.uint64)
    for row in np.flatnonzero(np.bincount(k - low)).tolist():
        table[:, row] = _table_row(low + row)
    g1, g0 = (_limbs(np.take(column, k - low)) for column in table)
    cb = c << _U(2)
    vb = _rop(g1, g0, cb << h)
    # the interval's ends, nudged inwards where it is open (c odd)
    out = c & _U(1)
    lower = _rop(g1, g0, (cb - _U(2) + irregular) << h) + out
    upper = _rop(g1, g0, (cb + _U(2)) << h) - out
    # s * 10**k <= v < (s + 1) * 10**k; the scaled values keep 2 fraction bits
    s4 = vb & ~_U(3)
    s = s4 >> _U(2)
    # the closer of s and s + 1 when both are in the interval (the even one on a tie)
    mid = s4 + _U(2)  # (s + 1/2) * 4
    up = (vb > mid) | ((vb == mid) & (s & _U(1) == _U(1)))
    in_s, in_t = lower <= s4, s4 + _U(4) <= upper
    f = s + np.where(in_s == in_t, up, in_t)
    # one multiple of 10**(k+1) in the interval: it is the shortest
    sp10 = s // _U(10) * _U(10)
    in_sp, in_tp = lower <= sp10 << _U(2), (sp10 << _U(2)) + _U(40) <= upper
    f = np.where(in_sp != in_tp, sp10 + in_tp * _U(10), f)
    # 10**15 <= f < 10**17 here; strip its trailing zeros, 8 + 4 + 2 + 1 + 1 at most
    n = 16 + (f >= _POW10[16])
    e = k
    for zeros in (8, 4, 2, 1, 1):
        power = _POW10[zeros]
        whole = f // power
        strip = whole * power == f
        f = np.where(strip, whole, f)
        e = e + strip * zeros
    return f, e, n - (e - k)


# A printed float is laid out in a row of 4 little-endian words, 32 bytes:
# byte 0 is "-", kept only for negative numbers, and the text starts at
# byte 1.  The 17 digit characters come first, 0-padded; then each row
# inserts, by its layout class, "." after the integer digits or "0.000"
# before the digits.  Class 0 is exponent form ("." after the first digit),
# class decpt + 4 positional form for -4 < decpt <= 16.
_ROW = 32
_ASCII_ZEROS = _U(0x3030303030303030)
_SEPARATORS = np.array([ord(" "), ord("\n")], dtype=np.uint8)
_ZERO, _E, _PLUS, _MINUS = (ord(ch) for ch in "0e+-")


def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each class's insertion: (word, class) tables of the bits below it and of the
    inserted bytes in place, and the inserted length in bits by class."""
    before, inserted, shift = [], [], []
    for cls in range(21):
        if cls == 0:
            at, text = 2, "."
        elif cls <= 4:  # decpt <= 0: "0." and -decpt zeros
            at, text = 1, "0." + "0" * (4 - cls)
        else:  # after the decpt integer digits
            at, text = cls - 3, "."
        before.append((1 << 8 * at) - 1)
        inserted.append(int.from_bytes(text.encode(), "little") << 8 * at)
        shift.append(8 * len(text))

    def by_word(values):
        return np.array([[v >> 64 * w & (2**64 - 1) for v in values] for w in range(3)], dtype=np.uint64)

    return by_word(before), by_word(inserted), np.array(shift, dtype=np.uint64)


_BEFORE, _INSERTED, _SHIFT = _layout_tables()
# the columns a row keeps, 1 - negative to last, at index negative * _ROW + last
_KEEP = np.arange(_ROW) <= np.arange(_ROW)[:, None]
_KEEP = np.concatenate([_KEEP & (np.arange(_ROW) >= 1), _KEEP])


def _repr_lines(block: np.ndarray) -> str:
    """ "re im" lines of a complex128 block, each part exactly as repr() prints it."""
    x = block.view(np.float64)
    rows = len(x)
    bits = x.view(np.uint64)
    negative = (bits >> _U(63)).astype(np.intp)
    biased = (bits >> _U(52)) & _U(0x7FF)
    # subnormals, inf and nan are printed by repr(); they and zeros run as 1.0 below
    plain = (bits << _U(1)) == _U(0)
    fallback = np.flatnonzero(((biased == _U(0)) | (biased == _U(0x7FF))) & ~plain)
    plain[fallback] = True
    f, e, digits = _shortest(np.where(plain, _U(0x3FF0000000000000), bits))
    f[plain] = 0
    e[plain] = 0
    digits[plain] = 1
    decpt = digits + e  # v = 0.d1d2... * 10**decpt
    positional = (decpt > -4) & (decpt <= 16)
    cls = np.where(positional, decpt + 4, 0)
    # the digits, left-aligned: byte 1 the first, bytes 2-9 and 10-17 two groups of 8
    left = f * np.take(_POW10, 17 - digits)
    first = left // _POW10[16]
    rest = left - first * _POW10[16]
    upper = rest // _POW10[8]
    group1, group2 = _ascii8(upper), _ascii8(rest - upper * _POW10[8])
    digit_words = (
        _U(_MINUS) | ((first + _U(_ZERO)) << _U(8)) | (group1 << _U(16)),
        (group1 >> _U(48)) | (group2 << _U(16)),
        group2 >> _U(48),
    )
    # insert the class's bytes; the bytes after them move up by its length
    shift = np.take(_SHIFT, cls)
    words = np.zeros((rows, _ROW // 8), dtype=np.uint64)
    carried = _U(0)
    for word, value in enumerate(digit_words):
        low = value & np.take(_BEFORE[word], cls)
        high = value ^ low
        words[:, word] = low | np.take(_INSERTED[word], cls) | (high << shift) | carried
        carried = high >> (_U(64) - shift)
    text = words.view(np.uint8).reshape(-1)
    size = np.where(decpt <= 0, 2 - decpt + digits, np.where(decpt < digits, digits + 1, decpt + 2))
    start = np.arange(1, rows * _ROW, _ROW)
    if not positional.all():
        # e+XX or e+XXX after the digits; with 1 digit, "e" replaces the "."
        expo = np.flatnonzero(~positional)
        power = decpt[expo] - 1
        wide = np.abs(power) >= 100
        mark = start[expo] + digits[expo] + (digits[expo] > 1)
        text[mark] = _E
        text[mark + 1] = np.where(power < 0, _MINUS, _PLUS)
        power = np.abs(power)
        text[mark[wide] + 2] = _ZERO + power[wide] // 100
        text[mark + 2 + wide] = _ZERO + power // 10 % 10
        text[mark + 3 + wide] = _ZERO + power % 10
        size[expo] = mark + 4 + wide - start[expo]
    for row, value in zip(fallback.tolist(), x[fallback].tolist()):
        shown = repr(value).encode()
        text[start[row] : start[row] + len(shown)] = np.frombuffer(shown, dtype=np.uint8)
        size[row] = len(shown)
        negative[row] = 0
    # re and im: a space after the first, a newline after the second
    text[start + size] = np.tile(_SEPARATORS, rows // 2)
    keep = np.take(_KEEP, negative * _ROW + size + 1, axis=0)
    return text.reshape(rows, _ROW)[keep].tobytes().decode("ascii")


def _ascii8(n: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each n < 10**8 as ASCII bytes, the first in the lowest byte."""
    upper = n // _U(10000)
    lanes = upper | ((n - upper * _U(10000)) << _U(32))  # two 32-bit lanes of 4 digits
    # per lane, x // 100 = x * 5243 >> 19 and then x // 10 = x * 103 >> 10, masked to the lane
    hundreds = ((lanes * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)
    lanes = hundreds | ((lanes - hundreds * _U(100)) << _U(16))  # four 16-bit lanes of 2 digits
    tens = ((lanes * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return (tens | ((lanes - tens * _U(10)) << _U(8))) + _ASCII_ZEROS
