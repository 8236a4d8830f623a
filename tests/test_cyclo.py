import cmath
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcchaos.cyclo import CycloArray, cyclotomic_polynomial, root_of_unity


def _value(order, coeffs):
    """The one-row array sum(coeffs[j] * w**j), w = exp(2*pi*i/order)."""
    column = CycloArray.from_values(coeffs)
    return CycloArray(order, column.nums.T, column.denom)


def _rows(arr):
    return [[Fraction(int(n), arr.denom) for n in row] for row in arr.nums]


def _is_real(v):
    return v == v.conj()


def test_root_examples():
    i_val = root_of_unity(4, 1)
    assert _rows(i_val) == [[0, 1, 0, 0]]
    [(z, err)] = i_val.eval_complex()
    assert abs(z - 1j) <= err

    assert _rows(root_of_unity(3, 5)) == [[0, 0, 1]]  # exponent reduced mod 3
    assert root_of_unity(2, 1) == Fraction(-1)


def test_ring_operation_examples():
    w5 = root_of_unity(5)
    assert w5 * root_of_unity(5, 4) == 1
    assert root_of_unity(3).conj() == root_of_unity(3, 2)
    w2 = root_of_unity(2)
    assert ((1 + w2) * (1 + w2 * w2)).is_zero()


def test_is_zero_examples():
    assert _value(3, (1, 1, 1)).is_zero()
    assert _value(6, (1, -1, 1, 0, 0, 0)).is_zero()
    assert _value(2, (1, 1)).is_zero()
    assert not _value(2, (1, 0)).is_zero()


def test_eval_complex_examples():
    [(z, err)] = root_of_unity(4, 1).eval_complex()
    assert abs(z - 1j) <= err <= 1e-14
    [(z, err)] = (1 + root_of_unity(3)).eval_complex()
    assert abs(z - complex(0.5, math.sqrt(3) / 2)) <= err
    [(z, err)] = _value(7, [0] * 7).eval_complex()
    assert z == 0


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # Phi_p(w_p) = 0 numerically for p <= 30
    for p in range(2, 31):
        phi = cyclotomic_polynomial(p)
        acc = _value(p, [0] * p)
        for t, coeff in enumerate(phi):
            acc = acc + root_of_unity(p, t).scale(coeff)
        assert acc.is_zero()
        [(z, err)] = acc.eval_complex()
        assert abs(z) <= err


def _random_value(rng, order):
    return _value(
        order,
        [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(order)],
    )


def test_ring_axioms_on_random_triples():
    rng = random.Random(1)
    for _ in range(100):
        order = rng.choice([2, 3, 4, 5, 6])
        a, b, c = (_random_value(rng, order) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_zero_test_consistent_with_eval():
    rng = random.Random(7)
    for _ in range(10_000):
        order = rng.choice([2, 3, 4, 5, 6, 7, 12])
        if rng.random() < 0.3:
            # construct an exact zero: rational multiple of Phi_order(w)
            phi = cyclotomic_polynomial(order)
            scalar = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            v = _value(order, [0] * order)
            for t, coeff in enumerate(phi):
                v = v + root_of_unity(order, t).scale(coeff * scalar)
            v = v.rotated(rng.randrange(order))
        else:
            v = _random_value(rng, order)
        [(z, err)] = v.eval_complex()
        if v.is_zero():
            assert abs(z) <= err
        if abs(z) > err:
            assert not v.is_zero()


def test_abs_squared_is_real():
    rng = random.Random(3)
    for _ in range(50):
        v = _random_value(rng, rng.choice([3, 4, 5, 6]))
        sq = v * v.conj()
        assert _is_real(sq)
        [(z, err)] = sq.eval_complex()
        assert abs(z.imag) <= err


def test_conjugation_and_reality():
    w = root_of_unity(5)
    assert not _is_real(w)
    assert _is_real(w + w.conj())
    assert _is_real(CycloArray.coerce(Fraction(3, 7)))


def test_real_and_imag_parts():
    rng = random.Random(11)
    for _ in range(30):
        v = _random_value(rng, rng.choice([2, 3, 4, 5, 6]))
        re, im = v.real_part(), v.imag_part()
        [(z, _)] = v.eval_complex()
        [(zr, er)] = re.eval_complex()
        [(zi, ei)] = im.eval_complex()
        assert abs(zr - z.real) <= er + 1e-12
        assert abs(zi - z.imag) <= ei + 1e-12
        assert _is_real(re) and _is_real(im)


def test_promotion_preserves_value():
    w3 = root_of_unity(3)
    w6 = w3.promote(6)
    assert w6.order == 6
    assert w6 == w3
    assert (w6 - root_of_unity(6, 2)).is_zero()


def test_as_rational():
    assert (root_of_unity(4, 2) + 1).is_zero()
    assert root_of_unity(4, 2).rationals() == [-1]
    assert CycloArray.roots(4, [0, 2, 4]).rationals() == [1, -1, 1]
    with pytest.raises(ValueError):
        root_of_unity(5).rationals()
    with pytest.raises(ValueError):
        CycloArray.roots(4, [0, 1]).rationals()  # one irrational row is enough


def test_power():
    w = root_of_unity(7, 3)
    assert w**7 == root_of_unity(7, 0)
    assert w**0 == 1
    with pytest.raises(ValueError):
        w ** (-1)


def test_base_mismatch_is_promoted_via_lcm():
    # cross-order arithmetic is defined through the lcm embedding
    v = root_of_unity(2) + root_of_unity(3)
    assert v.order == 6
    [(z, err)] = v.eval_complex()
    expected = complex(-1) + complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert abs(z - expected) <= err + 1e-12


def test_float_parts_agree_with_exact_parts():
    # rational parts come out as float(Fraction), the others as eval_complex gives them
    rng = random.Random(41)
    for order in (1, 2, 3, 4, 5, 6, 8, 12):
        values = [_value(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(order)])]
        values += [CycloArray.roots(order, [j]) for j in range(order)]
        values += [values[0] + values[0].conj(), CycloArray.coerce(Fraction(-1, 3)).promote(order)]
        for v, z in zip(values, CycloArray.from_values(values).float_parts()):
            [(approx, _)] = v.eval_complex()
            for part, exact, got, want in (
                ("re", v.real_part(), z.real, approx.real),
                ("im", v.imag_part(), z.imag, approx.imag),
            ):
                key = exact.keys()[0]
                if any(key[1:]):
                    assert got == want, part
                else:
                    assert got == float(Fraction(key[0], exact.denom)), part
    empty = CycloArray.from_values([]).float_parts()
    assert empty.dtype == complex and empty.tolist() == []
    mixed = [Fraction(1, 3), root_of_unity(3), root_of_unity(8, 2)]
    assert CycloArray.from_values(mixed).float_parts()[::2].tolist() == [1 / 3, 1j]



def _scalar_eval(value):
    """Row by row, term by term: the Python complex sum and bound that eval_complex reproduces.

    The roots are exact at whole quarter turns and cmath.exp elsewhere, so
    this reference does not read pary.unit_roots.
    """
    r = value.order
    roots = [
        (1, 1j, -1, -1j)[4 * j // r] if 4 * j % r == 0 else cmath.exp(2j * math.pi * j / r)
        for j in range(r)
    ]
    out = []
    for row in value.nums:
        total, mag = 0j, 0.0
        for j, n in enumerate(row):
            if n:
                cf = n / value.denom
                total += cf * roots[j]
                mag += abs(cf)
        out.append((total, mag * 2.0**-52 * (r + 8) + 4 * math.ulp(1.0) * (abs(total) + 1e-300)))
    return out


def _scalar_float_parts(value):
    """Per row: the nearest float to each rational part, else the scalar evaluation's part."""
    out = []
    for i in range(len(value)):
        row = value[i]
        z = _scalar_eval(row)[0][0]
        parts = []
        for exact, approx in ((row.real_part(), z.real), (row.imag_part(), z.imag)):
            key = exact.keys()[0]
            parts.append(approx if any(key[1:]) else key[0] / exact.denom)
        out.append(complex(*parts))
    return out


def test_array_evaluation_is_bitwise_the_scalar_sum():
    # same correctly rounded coefficients, same summation order, so the same bits,
    # signed zeros included.  Numerators and denominators past 2**53 must divide
    # exactly: rounding both to floats first changes about a third of such quotients
    rng = random.Random(43)
    for order in (1, 2, 3, 4, 5, 6, 8, 12, 15, 30):
        for bits in (3, 60, 200):
            nums = np.array(
                [[rng.choice((0, 0, rng.randint(-(2**bits), 2**bits))) for _ in range(order)]
                 for _ in range(12)],
                dtype=object,
            )
            for denom in (1, 6, rng.randint(2**64, 2**80)):
                value = CycloArray(order, nums, denom)
                for (z, err), (z_ref, err_ref) in zip(value.eval_complex(), _scalar_eval(value)):
                    assert repr(z) == repr(z_ref) and repr(err) == repr(err_ref)
                parts = value.float_parts()
                assert parts.dtype == complex
                assert list(map(repr, parts.tolist())) == list(map(repr, _scalar_float_parts(value)))


# -- CycloArray against an independent Fraction reference ----------------------


def _ref_promote(c, order, new_order):
    out = [Fraction(0)] * new_order
    for j, x in enumerate(c):
        out[j * (new_order // order)] = x
    return out


def _ref_product(a, b, r):
    """Product in Q[x]/(x**r - 1): a polynomial product with exponents mod r."""
    out = [Fraction(0)] * r
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % r] += x * y
    return out


def _ref_residue(c, r):
    """Remainder of sum c_j x**j on division by Phi_r, by long division."""
    phi = cyclotomic_polynomial(r)
    deg = len(phi) - 1
    c = list(c)
    for top in range(len(c) - 1, deg - 1, -1):
        lead = c[top]
        for t, coeff in enumerate(phi):
            c[top - deg + t] -= lead * coeff
    return c[:deg]


def _random_rows(rng, order, count):
    return [
        [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5, 6])) for _ in range(order)]
        for _ in range(count)
    ]


def _array(rows, order):
    return CycloArray.from_values(_value(order, row) for row in rows)


def test_cyclo_array_matches_fraction_reference():
    rng = random.Random(61)
    orders = [1, 2, 3, 4, 5, 6, 12]
    for _ in range(60):
        r_a, r_b = rng.choice(orders), rng.choice(orders)
        r = math.lcm(r_a, r_b)
        count = rng.randint(1, 5)
        rows_a = _random_rows(rng, r_a, count)
        # b has as many rows as a, or one row that broadcasts
        rows_b = _random_rows(rng, r_b, rng.choice([1, count]))
        a, b = _array(rows_a, r_a), _array(rows_b, r_b)
        ref_a = [_ref_promote(x, r_a, r) for x in rows_a]
        ref_b = [_ref_promote(y, r_b, r) for y in rows_b] * (count // len(rows_b))
        assert (a + b).order == (a * b).order == r
        assert _rows(a + b) == [[x + y for x, y in zip(u, v)] for u, v in zip(ref_a, ref_b)]
        assert _rows(a - b) == [[x - y for x, y in zip(u, v)] for u, v in zip(ref_a, ref_b)]
        assert _rows(a * b) == [_ref_product(u, v, r) for u, v in zip(ref_a, ref_b)]
        assert _rows(a.conj()) == [[x[-t % r_a] for t in range(r_a)] for x in rows_a]
        assert _rows(a.promote(r)) == ref_a
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        assert _rows(a.scale(q)) == [[x * q for x in u] for u in rows_a]
        keys = a.keys()
        for i, u in enumerate(rows_a):
            assert [Fraction(int(k), a.denom) for k in keys[i]] == _ref_residue(u, r_a)
        # keys are equal exactly for equal values: adding a rotated multiple of
        # Phi_r changes the representation of a row but not its value
        shifted = []
        for u in rows_a:
            v, s, c = list(u), rng.randrange(r_a), Fraction(rng.randint(1, 3), rng.randint(1, 3))
            for t, coeff in enumerate(cyclotomic_polynomial(r_a)):
                v[(s + t) % r_a] += c * coeff
            shifted.append(v)
        both = CycloArray.from_values([a, _array(shifted, r_a)])
        assert len(both) == 2 * count
        keys = both.keys().tolist()
        assert keys[:count] == keys[count:]
        assert (a - _array(shifted, r_a)).is_zero().all()
        for i in range(count):
            for j in range(count):
                same = _ref_residue(rows_a[i], r_a) == _ref_residue(rows_a[j], r_a)
                assert (keys[i] == keys[j]) == same
                assert bool((a[i] - a[j]).is_zero()) == same


# -- equality, rationals and float evaluation, row by row -------------------------

_COEFFS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 6, 7]))


def _disguised(data, row, order):
    """The same value with a rotated rational multiple of Phi_order(w), which is 0, added."""
    row, s, c = list(row), data.draw(st.integers(0, order - 1)), data.draw(_COEFFS)
    for t, coeff in enumerate(cyclotomic_polynomial(order)):
        row[(s + t) % order] += c * coeff
    return row


def _key_rows(arr, order):
    promoted = arr.promote(order)
    return [[Fraction(int(k), promoted.denom) for k in row] for row in promoted.keys()]


def _equal_by_keys(a, b):
    if len(a) != len(b) and 1 not in (len(a), len(b)):
        return False
    order = math.lcm(a.order, b.order)
    ka, kb = _key_rows(a, order), _key_rows(b, order)
    return all(ka[i % len(ka)] == kb[i % len(kb)] for i in range(max(len(ka), len(kb))))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equality_agrees_with_keys_rationals_and_mpmath(data):
    r_a = data.draw(st.integers(1, 12), label="order of a")
    count = data.draw(st.integers(1, 4), label="rows of a")
    if data.draw(st.booleans(), label="rational a"):
        # rational rows, all one value or not, so == against a number can hold
        same = data.draw(st.booleans())
        consts = [data.draw(_COEFFS)] * count if same else [data.draw(_COEFFS) for _ in range(count)]
        rows_a = [_disguised(data, [c] + [0] * (r_a - 1), r_a) for c in consts]
    else:
        rows_a = [[data.draw(_COEFFS) for _ in range(r_a)] for _ in range(count)]
    a = _array(rows_a, r_a)

    if data.draw(st.booleans(), label="b re-expresses a"):
        # a's values in a multiple order and another representation, maybe with one row moved
        r_b = data.draw(st.sampled_from(range(r_a, 13, r_a)), label="order of b")
        rows_b = [_disguised(data, _ref_promote(u, r_a, r_b), r_b) for u in rows_a]
        if data.draw(st.booleans(), label="move one row"):
            i, j = data.draw(st.integers(0, count - 1)), data.draw(st.integers(0, r_b - 1))
            rows_b[i][j] += data.draw(_COEFFS.filter(bool))
    else:
        r_b = data.draw(st.integers(1, 12), label="order of b")
        count_b = data.draw(st.integers(1, 5), label="rows of b")
        rows_b = [[data.draw(_COEFFS) for _ in range(r_b)] for _ in range(count_b)]
    b = _array(rows_b, r_b)

    i = data.draw(st.integers(0, count - 1))
    for x, y in ((a, b), (b, a), (a, a[i]), (a[i], a)):
        assert (x == y) is _equal_by_keys(x, y)
        assert (x != y) is not _equal_by_keys(x, y)

    try:
        rationals = a.rationals()
    except ValueError:
        rationals = None
        assert any(any(row[1:]) for row in _key_rows(a, a.order))
    numbers = [0, 1, -1, data.draw(_COEFFS)] + (rationals or [])
    for x in numbers:
        expected = rationals is not None and all(q == x for q in rationals)
        assert (a == x) is expected
        if x == int(x):
            assert (a == int(x)) is expected

    with mpmath.workdps(50):
        for row, (z, err) in zip(rows_a, a.eval_complex()):
            exact = mpmath.fsum(
                mpmath.mpf(c.numerator) / c.denominator * mpmath.expjpi(mpmath.mpf(2 * j) / r_a)
                for j, c in enumerate(row)
                if c
            )
            assert abs(mpmath.mpc(z) - exact) <= err
