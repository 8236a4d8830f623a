import math
import random
from fractions import Fraction

import numpy as np
import pytest

from vcchaos.cyclo import CycloValue, root_of_unity
from vcchaos.pary import digits_of_point, digitwise_add
from vcchaos.stepfn import StepFn
from vcchaos.vc import (
    CoeffVector,
    matrix_op_norm,
    rademacher,
    synthesize,
    vc_function,
    vc_matrix,
    vc_transform_exact,
    vc_transform_float,
    verify_inverse_identity,
)


def test_rademacher_examples():
    assert [v.as_rational() for v in rademacher(2, 0).values] == [1, -1]
    assert list(rademacher(3, 0).values) == [root_of_unity(3, m) for m in range(3)]
    expected = [root_of_unity(3, m % 3) for m in range(9)]
    assert list(rademacher(3, 1).values) == expected


def test_rademacher_digit_identity():
    # R_k(x) equals w**(k-th digit of x) on every cell, p <= 7, k <= 4
    for p in range(2, 8):
        for k in range(5):
            cells = p ** (k + 1)
            if cells > 20000:
                continue
            fn = rademacher(p, k)
            for m in range(cells):
                digit = digits_of_point(Fraction(m, cells), p, k + 1)[k]
                assert fn.values[m].coeffs == root_of_unity(p, digit).coeffs


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
    assert f.eval_at(Fraction(4, 9)) == 1  # digits (1,1): w**(2*1+1*1) = w**3 = 1

    g = vc_function(2, 3)
    assert [v.as_rational() for v in g.values] == [1, -1, -1, 1]

    assert vc_function(7, 0) == StepFn.constant(7, 1)


def test_vc_matrix_examples():
    m2 = vc_matrix(2, 1)
    assert [[m2.entry(n, m).as_rational() for m in range(2)] for n in range(2)] == [
        [1, 1],
        [1, -1],
    ]

    m3 = vc_matrix(3, 1)
    w = root_of_unity(3)
    assert m3.row(1) == [CycloValue.one(3), w, w * w]
    assert m3.row(2) == [CycloValue.one(3), w * w, w]

    for p, k in [(2, 2), (3, 2), (5, 1)]:
        mat = vc_matrix(p, k)
        assert all(mat.entry(0, m) == 1 for m in range(mat.size))


def test_matrix_is_symmetric():
    for p, k in [(2, 3), (3, 2), (5, 1), (6, 2)]:
        e = vc_matrix(p, k).exponents
        assert (e == e.T).all()


def test_inverse_identity():
    for p in range(2, 8):
        for k in range(4):
            if p**k <= 400:
                assert verify_inverse_identity(p, k)


def test_matrix_op_norm():
    assert matrix_op_norm(2, 2) == pytest.approx(2.0, abs=1e-9)
    assert matrix_op_norm(3, 1) == pytest.approx(math.sqrt(3), abs=1e-9)
    assert matrix_op_norm(5, 0) == pytest.approx(1.0, abs=1e-12)


def _matrix_oracle(values, p, direction):
    """Dense matrix multiplication against the exponent table (exact).

    Inputs are promoted to their common order, in which w_p**e is a rotation
    by e * (order // p).
    """
    mat = vc_matrix(p, round(math.log(len(values), p)))
    size = mat.size
    vals = [CycloValue.coerce(v, p) for v in values]
    order = math.lcm(*(v.order for v in vals))
    vals = [v.promote(order) for v in vals]
    out = []
    sign = -1 if direction == "forward" else 1
    for n in range(size):
        acc = CycloValue.zero(order)
        for m in range(size):
            acc = acc + vals[m].rotated(sign * int(mat.exponents[n, m]) * (order // p))
        if direction == "forward":
            acc = acc.scale(Fraction(1, size))
        out.append(acc)
    return out


def _assert_same_representation(fast, oracle):
    assert len(fast) == len(oracle)
    assert all(a.order == b.order and a.coeffs == b.coeffs for a, b in zip(fast, oracle))


def test_exact_transform_matches_matrix_oracle():
    rng = random.Random(8)
    for p, k in [(2, 3), (3, 2), (4, 2), (5, 2)]:
        size = p**k
        values = [
            CycloValue(p, [Fraction(rng.randint(-2, 2)) for _ in range(p)])
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
                values.append(CycloValue(order, [Fraction(rng.randint(-2, 2), 2) for _ in range(order)]))
        for direction in ("forward", "inverse"):
            fast = vc_transform_exact(values, p, direction)
            assert fast[0].order == 2 * p
            _assert_same_representation(fast, _matrix_oracle(values, p, direction))
    # k = 0: a length-1 input is its own transform, in the ring of order p
    for direction in ("forward", "inverse"):
        (out,) = vc_transform_exact([Fraction(2, 3)], 5, direction)
        assert out.order == 5 and out.coeffs == (Fraction(2, 3), 0, 0, 0, 0)
        _assert_same_representation([out], _matrix_oracle([Fraction(2, 3)], 5, direction))


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
        for a, b in zip(exact, approx):
            z, err = a.eval_complex()
            assert abs(z - b) <= err + 1e-10


def test_transform_length_validation():
    with pytest.raises(ValueError):
        vc_transform_exact([1, 2, 3], 2, "forward")
    with pytest.raises(ValueError):
        vc_transform_float(np.ones(6), 2, "forward")
    with pytest.raises(ValueError):
        vc_transform_exact([1, 2], 2, "sideways")


def test_synthesize_examples():
    f = synthesize({1: 1, 2: 1}, 2)
    assert [v.as_rational() for v in f.values] == [2, 0, 0, -2]

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


def test_coeff_vector():
    cv = CoeffVector(3, {1: Fraction(1), 4: Fraction(-2)})
    assert cv.support == [1, 4]
    assert cv.max_index == 4
    assert synthesize(cv) == synthesize({1: 1, 4: -2}, 3)
    with pytest.raises(ValueError):
        CoeffVector(3, {-1: Fraction(1)})
    with pytest.raises(ValueError):
        CoeffVector(3, {1: 1.0}, mode="bogus")
