import math
import random
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from vcchaos import vc
from vcchaos.cyclo import CycloArray, _power_residues, root_of_unity
from vcchaos.pary import RankCapError, digitwise_add, run_cell_cap
from vcchaos.stepfn import StepFn
from vcchaos.vc import (
    _length_rank,
    exponent_table,
    matrix_op_norm,
    rademacher,
    synthesize,
    vc_function,
    vc_transform_exact,
    vc_transform_float,
    verify_inverse_identity,
)


def _value(order, coeffs):
    """The one-row array sum(coeffs[j] * w**j), w = exp(2*pi*i/order)."""
    column = CycloArray.from_values(coeffs)
    return CycloArray(order, column.nums.T, column.denom)


def _coeffs(value):
    return tuple(Fraction(int(n), value.denom) for n in value.nums[0])


def test_rademacher_examples():
    assert rademacher(2, 0).values.rationals() == [1, -1]
    assert list(rademacher(3, 0).values) == [root_of_unity(3, m) for m in range(3)]
    expected = [root_of_unity(3, m % 3) for m in range(9)]
    assert list(rademacher(3, 1).values) == expected


def test_rademacher_refuses_a_huge_rank_before_building_p_pow_k():
    # 2**(10**6) is a 10**6-bit integer, and counting its digits alone took seconds
    started = time.perf_counter()
    with run_cell_cap(10**7), pytest.raises(RankCapError) as refused:
        rademacher(2, 10**6)
    assert time.perf_counter() - started < 0.5
    assert str(refused.value) == "2**1000001 cells exceed the cell cap 10000000"


def test_rademacher_digit_identity():
    # R_k(x) equals w**(k-th digit of x) on every cell, p <= 7, k <= 4
    for p in range(2, 8):
        for k in range(5):
            cells = p ** (k + 1)
            if cells > 20000:
                continue
            fn = rademacher(p, k)
            for m in range(cells):
                # k-th point digit of m / cells: floor(x * p**(k+1)) mod p
                digit = int(Fraction(m, cells) * p ** (k + 1)) % p
                assert _coeffs(fn.values[m]) == _coeffs(root_of_unity(p, digit))


def test_rademacher_periodicity():
    # R_k repeats with period p**-k on its rank-(k+1) grid
    for p, k in [(2, 1), (3, 1), (5, 2)]:
        fn = rademacher(p, k)
        cells = p ** (k + 1)
        period = p  # cells per period p**-k
        for m in range(cells):
            assert fn.values[m] == fn.values[(m + period) % cells]


def test_vc_function_examples():
    f = vc_function(3, 5)
    assert f.values[4] == 1  # cell 4 = [4/9, 5/9), digits (1,1): w**(2*1+1*1) = w**3 = 1

    g = vc_function(2, 3)
    assert g.values.rationals() == [1, -1, -1, 1]

    assert vc_function(7, 0) == StepFn.constant(7, 1)


def _entry(p, k, n, m):
    return root_of_unity(p, int(exponent_table(p, k)[n, m]))


def test_vc_matrix_examples():
    assert [[_entry(2, 1, n, m).rationals()[0] for m in range(2)] for n in range(2)] == [
        [1, 1],
        [1, -1],
    ]

    w = root_of_unity(3)
    assert [_entry(3, 1, 1, m) for m in range(3)] == [root_of_unity(3, 0), w, w * w]
    assert [_entry(3, 1, 2, m) for m in range(3)] == [root_of_unity(3, 0), w * w, w]

    for p, k in [(2, 2), (3, 2), (5, 1)]:
        assert all(_entry(p, k, 0, m) == 1 for m in range(p**k))


def test_matrix_is_symmetric():
    for p, k in [(2, 3), (3, 2), (5, 1), (6, 2)]:
        e = exponent_table(p, k)
        assert (e == e.T).all()


def test_inverse_identity():
    for p in range(2, 8):
        for k in range(4):
            if p**k <= 400:
                assert verify_inverse_identity(p, k)


def _gram_oracle(table, p):
    """The exponent-tally check: each Gram row's exponent counts reduced against Phi_p."""
    cells = len(table)
    residue_rows = np.array(_power_residues(p), dtype=np.int64)
    row_offsets = p * np.arange(cells)[:, None]
    for i in range(cells):
        diff = (table[i][None, :] - table) % p
        counts = np.bincount(
            (diff + row_offsets).ravel(), minlength=p * cells
        ).reshape(cells, p)
        if counts[i, 0] != cells or counts[i, 1:].any():
            return False
        residues = counts @ residue_rows
        residues[i] = 0
        if residues.any():
            return False
    return True


_GRAM_CASES = [(2, 0), (2, 1), (2, 6), (3, 4), (4, 3), (5, 2), (6, 3), (7, 2), (10, 2)]


@pytest.mark.parametrize("p, k", _GRAM_CASES)
def test_inverse_identity_agrees_with_the_exponent_tally(p, k):
    assert verify_inverse_identity(p, k) == _gram_oracle(exponent_table(p, k), p) is True


@pytest.mark.parametrize("p, k", [(2, 1), (2, 6), (3, 4), (4, 3), (5, 2), (6, 3), (10, 2)])
def test_inverse_identity_rejects_corrupted_tables(monkeypatch, p, k):
    rng = random.Random(p * 100 + k)
    table = exponent_table(p, k)
    n, m = rng.randrange(len(table)), rng.randrange(len(table))
    bumped = table.copy()
    bumped[n, m] += 1  # may read p: the check takes exponents mod p
    duplicated = table.copy()
    duplicated[(n + 1) % len(table)] = table[n]
    for corrupted in (bumped, duplicated):
        monkeypatch.setattr(vc, "exponent_table", lambda p_, k_, t=corrupted: t.copy())
        assert verify_inverse_identity(p, k) is False
        assert _gram_oracle(corrupted, p) is False


def test_inverse_identity_gate():
    for p, k in [(2, 10), (3, 6)]:
        started = time.perf_counter()
        assert verify_inverse_identity(p, k)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"verify_inverse_identity({p}, {k}) took {elapsed:.2f}s (limit 1s)"


def test_gram_modulus():
    for p in range(2, 40):
        for bound in (1, 2 * p, 1000):
            l, z = vc._gram_modulus(p, bound)
            assert l > bound and l % p == 1 and vc._is_prime(l)
            assert [e for e in range(1, p + 1) if pow(z, e, l) == 1] == [p]  # order exactly p


def test_inverse_identity_refuses_inexact_float_products():
    # 2**18 cells need a modulus above 2**19, so N * (l - 1)**2 exceeds 2**53; the
    # refusal comes before the 2**36-entry exponent table (which this cap would refuse too)
    with run_cell_cap(2**18):
        with pytest.raises(ValueError, match=r"exceed 2\*\*53"):
            verify_inverse_identity(2, 18)
    # the largest exact case at p = 2, N = 2**16, passes the bound (and then meets the cap)
    with run_cell_cap(2**16):
        with pytest.raises(ValueError, match="exponent table entries"):
            verify_inverse_identity(2, 16)


def test_matrix_op_norm():
    assert matrix_op_norm(2, 2) == pytest.approx(2.0, abs=1e-9)
    assert matrix_op_norm(3, 1) == pytest.approx(math.sqrt(3), abs=1e-9)
    assert matrix_op_norm(5, 0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "p, k",
    [(p, k) for p in (2, 3, 5, 6) for k in range(4)] + [(10, 3), (20, 2), (50, 2)],
)
def test_op_norm_error_bound_holds_against_mpmath(p, k):
    err = vc._op_norm_err(p, k)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(matrix_op_norm(p, k)) - mpmath.sqrt(p**k)) <= err
    # criterion 02's literal 1e-9 is implied by the bound up to 1000 cells
    if p**k <= 1000:
        assert err < 1e-9


def test_op_norm_holds_no_whole_table():
    # at (50, 2) the two 2500 x 2500 tables, int64 exponents and complex128 values,
    # take 150 MB; the norm is taken a 2**16-entry block of VC at a time
    matrix_op_norm(3, 1)  # the first call loads what every later call shares
    tracemalloc.start()
    try:
        norm = matrix_op_norm(50, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(norm - 50) <= vc._op_norm_err(50, 2)
    assert peak <= 4 * 2**16 * 16


def _matrix_oracle(values, p, direction):
    """Dense matrix multiplication against the exponent table (exact).

    Inputs are promoted to their common order, in which w_p**e is a rotation
    by e * (order // p).
    """
    exponents = exponent_table(p, round(math.log(len(values), p)))
    size = len(exponents)
    vals = [CycloArray.coerce(v) for v in values]
    order = math.lcm(p, *(v.order for v in vals))
    vals = [v.promote(order) for v in vals]
    out = []
    sign = -1 if direction == "forward" else 1
    for n in range(size):
        acc = _value(order, [0] * order)
        for m in range(size):
            acc = acc + vals[m].rotated(sign * int(exponents[n, m]) * (order // p))
        if direction == "forward":
            acc = acc.scale(Fraction(1, size))
        out.append(acc)
    return out


def _assert_same_representation(fast, oracle):
    assert len(fast) == len(oracle)
    assert all(a.order == b.order and _coeffs(a) == _coeffs(b) for a, b in zip(fast, oracle))


def test_exact_transform_matches_matrix_oracle():
    rng = random.Random(8)
    for p, k in [(2, 3), (3, 2), (4, 2), (5, 2)]:
        size = p**k
        values = [
            _value(p, [Fraction(rng.randint(-2, 2)) for _ in range(p)])
            for _ in range(size)
        ]
        for direction in ("forward", "inverse"):
            fast = vc_transform_exact(values, p, direction)
            _assert_same_representation(fast, _matrix_oracle(values, p, direction))


def test_exact_transform_mixed_orders_and_length_one():
    # rationals with denominators 3 and 7 next to order-p and order-2p values
    rng = random.Random(31)
    for p, k in [(2, 3), (3, 2), (5, 1)]:
        values = []
        for m in range(p**k):
            kind = m % 4  # every kind occurs: p**k >= 4 here
            if kind < 2:
                values.append(Fraction(rng.randint(-5, 5), (3, 7)[kind]))
            else:
                order = p if kind == 2 else 2 * p
                values.append(_value(order, [Fraction(rng.randint(-2, 2), 2) for _ in range(order)]))
        for direction in ("forward", "inverse"):
            fast = vc_transform_exact(values, p, direction)
            assert fast[0].order == 2 * p
            _assert_same_representation(fast, _matrix_oracle(values, p, direction))
    # k = 0: a length-1 input is its own transform, in the ring of order p
    for direction in ("forward", "inverse"):
        (out,) = vc_transform_exact([Fraction(2, 3)], 5, direction)
        assert out.order == 5 and _coeffs(out) == (Fraction(2, 3), 0, 0, 0, 0)
        _assert_same_representation([out], _matrix_oracle([Fraction(2, 3)], 5, direction))


@pytest.mark.parametrize("p, k", [(2, 0), (2, 1), (2, 5), (3, 3), (6, 2)])
def test_transform_kernel_matches_dense_exponent_table(p, k):
    rng = random.Random(p * 10 + k)
    cells = p**k
    exact_in = [_value(p, [Fraction(rng.randint(-3, 3)) for _ in range(p)]) for _ in range(cells)]
    gen = np.random.default_rng(p * 10 + k)
    float_in = gen.standard_normal(cells) + 1j * gen.standard_normal(cells)
    # the dense reference in extended precision, so its own rounding is negligible
    pi = np.arccos(np.longdouble(-1))
    # numerators past 2**63 take the kernel's Python-int path
    huge_in = [v.scale(2**70 + 1) for v in exact_in]
    for direction, sign in (("forward", -1), ("inverse", 1)):
        for values in (exact_in, huge_in):
            fast = vc_transform_exact(values, p, direction)
            _assert_same_representation(fast, _matrix_oracle(values, p, direction))

        dense = np.exp(sign * 2j * pi * exponent_table(p, k) / p)
        reference = dense @ float_in.astype(np.clongdouble)
        mass = float(np.sum(np.abs(float_in)))
        if direction == "forward":
            reference /= cells
            mass /= cells
        # k stages of p unit-modulus products, (p + 3) ulps of the l1 mass each
        bound = 2 * (k * (p + 3) + 4) * 2.0**-52 * mass
        err = np.max(np.abs(vc_transform_float(float_in, p, direction) - reference))
        assert err <= bound


def _einsum_transform_exact(values, p, direction):
    """The dense-kernel exact transform: one 4-D einsum per digit axis.

    kernel[a, s, b, t] = 1 where t = s - shift[a, b] (mod r), applied along
    each digit axis of the (p,)*k + (r,) numerator tensor, then the digit
    axes reversed; O(p**2 r**2) kernel memory.
    """
    vals = CycloArray.from_values(values)
    order = math.lcm(vals.order, p)
    length = len(vals)
    k = round(math.log(length, p)) if length > 1 else 0
    sign = -1 if direction == "forward" else 1
    digit, ring = np.arange(p), np.arange(order)
    shift = sign * np.outer(digit, digit) * (order // p)
    hits = (ring[None, :, None, None] - shift[:, None, :, None] - ring) % order == 0
    tensor = vals.promote(order).nums
    peak = max(map(abs, tensor.ravel().tolist()), default=0)
    dtype = np.int64 if peak * length <= np.iinfo(np.int64).max else object
    kernel, tensor = hits.astype(np.int64).astype(dtype), tensor.astype(dtype)
    for axis in range(k):
        tensor = np.einsum("asbt,ibjt->iajs", kernel, tensor.reshape(p**axis, p, -1, order))
    tensor = tensor.reshape((p,) * k + (order,)).transpose(*reversed(range(k)), k)
    denom = vals.denom * (length if direction == "forward" else 1)
    return CycloArray(order, tensor.reshape(length, order).astype(object), denom)


_KERNEL_GRIDS = [(2, 0), (2, 1), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (5, 1), (5, 2), (6, 2),
                 (12, 1)]


@pytest.mark.parametrize("p, k", _KERNEL_GRIDS)
def test_exact_transform_matches_the_dense_kernel(p, k):
    rng = random.Random(p * 100 + k)
    cells = p**k
    mixed = [
        Fraction(rng.randint(-5, 5), rng.choice((1, 3, 7))) if m % 3 else
        _value(2 * p, [Fraction(rng.randint(-2, 2), 2) for _ in range(2 * p)])
        for m in range(cells)
    ]
    integers = [rng.randint(-9, 9) for _ in range(cells)]
    huge = [2**70 * rng.randint(-9, 9) + 1 for _ in range(cells)]  # the Python-int path
    for values in (mixed, integers, huge):
        for direction in ("forward", "inverse"):
            fast = vc_transform_exact(values, p, direction)
            dense = _einsum_transform_exact(values, p, direction)
            assert (fast.order, fast.denom) == (dense.order, dense.denom)
            assert fast.nums.dtype == object and fast.nums.shape == dense.nums.shape
            assert fast.nums.tolist() == dense.nums.tolist()


def test_exact_transform_at_the_int64_bound():
    # coefficient 0 of a constant input sums every cell: 8 * peak is int64's
    # maximum or just past it, on either side of the kernel's dtype choice
    limit = 2**63 - 1
    for peak in (limit // 8, limit // 8 + 1):
        for values in ([peak] * 8, [peak, -peak] * 4):
            for direction in ("forward", "inverse"):
                fast = vc_transform_exact(values, 2, direction)
                _assert_same_representation(fast, _matrix_oracle(values, 2, direction))
    (total, *rest) = vc_transform_exact([limit // 8] * 8, 2, "inverse")
    assert total == 8 * (limit // 8) and all(c == 0 for c in rest)


def test_transform_examples():
    # p**d * indicator of the first cell expands with all-ones coefficients
    for p, d in [(2, 2), (3, 1), (5, 1)]:
        values = [p**d if m == 0 else 0 for m in range(p**d)]
        coeffs = vc_transform_exact(values, p, "forward")
        assert all(c == 1 for c in coeffs)

    # cell values of VC_n transform to the unit vector at n
    for p, n in [(2, 3), (3, 5), (4, 6)]:
        f = vc_function(p, n)
        coeffs = vc_transform_exact(list(f.values), p, "forward")
        for m, c in enumerate(coeffs):
            assert c == (1 if m == n else 0)


def test_transform_roundtrip_exact():
    rng = random.Random(12)
    for p, k in [(2, 4), (3, 3)]:
        values = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(p**k)]
        coeffs = vc_transform_exact(values, p, "forward")
        back = vc_transform_exact(coeffs, p, "inverse")
        assert all((a - b).is_zero() for a, b in zip(back, values))


def _butterfly_transform(values, direction):
    """The p = 2 transform as a plain butterfly: a + b and a - b at each stage, halved forward.

    Stages run from the most significant index bit down, as the radix stages
    do, so both sum the same pairs in the same order; the natural Hadamard
    order out is then read at bit-reversed indices, which is Paley order.
    """
    x = np.array(values, dtype=np.complex128)
    k = x.size.bit_length() - 1
    half = x.size // 2
    while half:
        for start in range(0, x.size, 2 * half):
            a, b = x[start : start + half].copy(), x[start + half : start + 2 * half].copy()
            x[start : start + half], x[start + half : start + 2 * half] = a + b, a - b
            if direction == "forward":
                x[start : start + 2 * half] *= 0.5
        half //= 2
    reverse = [int(format(n, f"0{k}b")[::-1], 2) for n in range(x.size)]
    return x[reverse]


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_the_binary_float_transform_is_bitwise_the_butterfly(direction):
    # halving is exact, so the kernel's 1/2 per stage and the butterfly's give
    # the same bits: transform's p = 2 output bytes depend on it
    rng = np.random.default_rng(12)
    values = rng.standard_normal(2**12) + 1j * rng.standard_normal(2**12)
    out = vc_transform_float(values, 2, direction)
    assert np.array_equal(out.view(np.uint64), _butterfly_transform(values, direction).view(np.uint64))


def test_transform_roundtrip_float():
    rng = np.random.default_rng(3)
    for p, k in [(2, 6), (3, 4), (5, 3)]:
        values = rng.standard_normal(p**k) + 1j * rng.standard_normal(p**k)
        coeffs = vc_transform_float(values, p, "forward")
        back = vc_transform_float(coeffs, p, "inverse")
        assert np.max(np.abs(back - values)) < 1e-10


def test_float_matches_exact_transform():
    rng = random.Random(21)
    for p, k in [(2, 3), (3, 2)]:
        values = [rng.randint(-4, 4) for _ in range(p**k)]
        exact = vc_transform_exact(values, p, "forward")
        approx = vc_transform_float(np.array(values, dtype=float), p, "forward")
        assert np.max(np.abs(exact.float_parts() - approx)) <= 1e-10


def test_transform_length_validation():
    with pytest.raises(ValueError):
        vc_transform_exact([1, 2, 3], 2, "forward")
    with pytest.raises(ValueError):
        vc_transform_float(np.ones(6), 2, "forward")
    with pytest.raises(ValueError):
        vc_transform_exact([1, 2], 2, "sideways")


def test_synthesize_examples():
    f = synthesize({1: 1, 2: 1}, 2)
    assert f.values.rationals() == [2, 0, 0, -2]

    assert synthesize({0: 5}, 3) == StepFn.constant(3, 5)

    for p, n in [(2, 5), (3, 7)]:
        assert synthesize({n: 1}, p) == vc_function(p, n)


def test_synthesize_parseval():
    rng = random.Random(17)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        support = rng.sample(range(p**3), 4)
        coeffs = {n: Fraction(rng.randint(-3, 3)) for n in support}
        coeffs = {n: c for n, c in coeffs.items() if c}
        if not coeffs:
            continue
        f = synthesize(coeffs, p)
        assert f.lq_norm_even_pow(2) == sum(c * c for c in coeffs.values())


def test_orthonormality_small():
    for p in (2, 3):
        for n in range(p**2):
            for m in range(p**2):
                value = (vc_function(p, n) * vc_function(p, m).conj()).integral()
                assert value == (1 if n == m else 0)


def test_multiplicativity():
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice([2, 3, 4, 5])
        a, b = rng.randrange(p**3), rng.randrange(p**3)
        assert vc_function(p, a) * vc_function(p, b) == vc_function(
            p, digitwise_add(a, b, p)
        )


def test_length_rank_reads_the_digit_count():
    assert [_length_rank(n, 3) for n in (1, 3, 9, 3**40)] == [0, 1, 2, 40]
    for length in (2, 6, 10, 3**40 + 3):
        with pytest.raises(ValueError, match=f"length {length} is not a power of the base 3"):
            _length_rank(length, 3)
    for length in (0, -9):
        with pytest.raises(ValueError, match="length must be positive"):
            _length_rank(length, 3)
