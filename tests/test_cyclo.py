import math
import random
from fractions import Fraction

import pytest

from vcchaos.cyclo import CycloValue, cyclotomic_polynomial, float_parts, root_of_unity


def test_root_examples():
    i_val = root_of_unity(4, 1)
    assert i_val.coeffs == (0, 1, 0, 0)
    z, err = i_val.eval_complex()
    assert abs(z - 1j) <= err

    assert root_of_unity(3, 5).coeffs == (0, 0, 1)  # exponent reduced mod 3
    assert root_of_unity(2, 1) == Fraction(-1)


def test_ring_operation_examples():
    w5 = root_of_unity(5)
    assert w5 * root_of_unity(5, 4) == 1
    assert root_of_unity(3).conj() == root_of_unity(3, 2)
    w2 = root_of_unity(2)
    assert ((1 + w2) * (1 + w2 * w2)).is_zero()


def test_is_zero_examples():
    assert CycloValue(3, (1, 1, 1)).is_zero()
    assert CycloValue(6, (1, -1, 1, 0, 0, 0)).is_zero()
    assert CycloValue(2, (1, 1)).is_zero()
    assert not CycloValue(2, (1, 0)).is_zero()


def test_eval_complex_examples():
    z, err = root_of_unity(4, 1).eval_complex()
    assert abs(z - 1j) <= err <= 1e-14
    z, err = (1 + root_of_unity(3)).eval_complex()
    assert abs(z - complex(0.5, math.sqrt(3) / 2)) <= err
    z, err = CycloValue.zero(7).eval_complex()
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
        acc = CycloValue.zero(p)
        for t, coeff in enumerate(phi):
            acc = acc + root_of_unity(p, t).scale(coeff)
        assert acc.is_zero()
        z, err = acc.eval_complex()
        assert abs(z) <= err


def _random_value(rng, order):
    return CycloValue(
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
            v = CycloValue.zero(order)
            for t, coeff in enumerate(phi):
                v = v + root_of_unity(order, t).scale(coeff * scalar)
            v = v.rotated(rng.randrange(order))
        else:
            v = _random_value(rng, order)
        z, err = v.eval_complex()
        if v.is_zero():
            assert abs(z) <= err
        if abs(z) > err:
            assert not v.is_zero()


def test_abs_squared_is_real():
    rng = random.Random(3)
    for _ in range(50):
        v = _random_value(rng, rng.choice([3, 4, 5, 6]))
        sq = v.abs_squared()
        assert sq.is_real()
        z, err = sq.eval_complex()
        assert abs(z.imag) <= err


def test_conjugation_and_reality():
    w = root_of_unity(5)
    assert not w.is_real()
    assert (w + w.conj()).is_real()
    assert CycloValue.from_rational(Fraction(3, 7)).is_real()


def test_real_and_imag_parts():
    rng = random.Random(11)
    for _ in range(30):
        v = _random_value(rng, rng.choice([2, 3, 4, 5, 6]))
        re, im = v.real_part(), v.imag_part()
        z, _ = v.eval_complex()
        zr, er = re.eval_complex()
        zi, ei = im.eval_complex()
        assert abs(zr - z.real) <= er + 1e-12
        assert abs(zi - z.imag) <= ei + 1e-12
        assert re.is_real() and im.is_real()


def test_promotion_preserves_value():
    w3 = root_of_unity(3)
    w6 = w3.promote(6)
    assert w6.order == 6
    assert w6 == w3
    assert (w6 - root_of_unity(6, 2)).is_zero()


def test_as_rational():
    assert (root_of_unity(4, 2) + 1).is_zero()
    assert root_of_unity(4, 2).as_rational() == -1
    with pytest.raises(ValueError):
        root_of_unity(5).as_rational()


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
    z, err = v.eval_complex()
    expected = complex(-1) + complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert abs(z - expected) <= err + 1e-12


def test_float_parts_agree_with_exact_parts():
    # rational parts come out as float(Fraction), the others as eval_complex gives them
    rng = random.Random(41)
    for order in (1, 2, 3, 4, 5, 6, 8, 12):
        values = [CycloValue(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(order)])]
        values += [CycloValue.root(order, j) for j in range(order)]
        values += [values[0] + values[0].conj(), CycloValue.from_rational(Fraction(-1, 3), order)]
        for v, z in zip(values, float_parts(values)):
            approx = v.eval_complex()[0]
            for part, exact, got, want in (
                ("re", v.real_part(), z.real, approx.real),
                ("im", v.imag_part(), z.imag, approx.imag),
            ):
                key = exact.canonical_key()
                if any(key[1:]):
                    assert got == want, part
                else:
                    assert got == float(key[0]), part
    assert float_parts([]) == []
    mixed = [Fraction(1, 3), root_of_unity(3), root_of_unity(8, 2)]
    assert float_parts([CycloValue.coerce(v) for v in mixed])[::2] == [1 / 3, 1j]
