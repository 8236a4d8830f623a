import random
import time
from fractions import Fraction

import pytest

from vcchaos.cyclo import CycloArray, root_of_unity
from vcchaos.pary import RankCapError, run_cell_cap
from vcchaos.stepfn import Distribution, PArySet, StepFn, at_least_two
from vcchaos.vc import rademacher, synthesize


def test_pointwise_examples():
    r0 = rademacher(2, 0)
    total = r0 + r0.conj()
    assert total.values.rationals() == [2, -2]

    r0_p3 = rademacher(3, 0)
    assert r0_p3 * r0_p3**2 == StepFn.constant(3, 1)

    scaled = StepFn.constant(3, 1) * root_of_unity(3)
    assert scaled == StepFn.constant(3, root_of_unity(3))


def test_base_mismatch_raises():
    with pytest.raises(ValueError):
        rademacher(2, 0) + rademacher(3, 0)


def test_rank_overflow():
    with pytest.raises(RankCapError):
        StepFn.constant(2, 1, rank=40)


def test_integral_examples():
    for p in (2, 3, 5):
        assert rademacher(p, 0).integral().is_zero()
    assert StepFn.constant(4, 1).integral() == 1
    # product of full geometric sums integrates to 1: only the constant survives
    p, d = 3, 2
    prod = StepFn.constant(p, 1)
    for k in range(d):
        r_k = rademacher(p, k)
        prod = prod * (1 + r_k + r_k**2)
    assert prod.integral() == 1


def test_lq_norm_examples():
    for p, k, q in [(2, 0, 2), (3, 1, 4), (5, 0, 6)]:
        assert rademacher(p, k).lq_norm_even_pow(q) == 1
    f = rademacher(2, 0) + rademacher(2, 1)
    assert f.lq_norm_even_pow(4) == 8
    c = Fraction(3, 2)
    g = synthesize({5: c}, 2)
    assert g.lq_norm_even_pow(2) == c * c


def test_level_set_examples():
    p3 = 1 - rademacher(3, 0)
    zs = p3.level_set(0)
    assert zs == PArySet.from_interval(3, 0, Fraction(1, 3))
    assert zs.measure() == Fraction(1, 3)

    prod = StepFn.constant(3, 1)
    for k in range(2):
        r_k = rademacher(3, k)
        prod = prod * (1 + r_k + r_k**2)
    assert prod.level_set(0).measure() == Fraction(8, 9)

    const = StepFn.constant(5, root_of_unity(5))
    assert const.level_set(root_of_unity(5)) == PArySet.full(5)


def test_level_sets_partition():
    rng = random.Random(2)
    for _ in range(10):
        p = rng.choice([2, 3, 4])
        rank = rng.randint(1, 3)
        f = StepFn(p, rank, [root_of_unity(p, rng.randrange(p)) for _ in range(p**rank)])
        dist = f.distribution()
        total = Fraction(0)
        for value, measure in dist.entries:
            assert f.level_set(value).measure() == measure
            total += measure
        assert total == 1


def test_distribution_examples():
    re_r0_p2 = rademacher(2, 0).scale(1)  # already real for p = 2
    d2 = re_r0_p2.distribution()
    assert d2.measure_of(1) == Fraction(1, 2)
    assert d2.measure_of(-1) == Fraction(1, 2)
    assert d2.is_symmetric()

    re_r0 = StepFn(3, 1, [root_of_unity(3, m).real_part() for m in range(3)])
    d3 = re_r0.distribution()
    assert d3.measure_of(1) == Fraction(1, 3)
    assert d3.measure_of(Fraction(-1, 2)) == Fraction(2, 3)
    assert not d3.is_symmetric()

    im_r0 = StepFn(3, 1, [root_of_unity(3, m).imag_part() for m in range(3)])
    di = im_r0.distribution()
    assert di.measure_of(0) == Fraction(1, 3)
    assert len(di.entries) == 3
    assert di.is_symmetric()


def test_distribution_requires_real_for_symmetry():
    f = StepFn.constant(3, root_of_unity(3))
    with pytest.raises(ValueError):
        f.distribution().is_symmetric()


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(((CycloArray.coerce(1), Fraction(1, 2)),))


def test_set_algebra_examples():
    e = PArySet.from_interval(2, 0, Fraction(1, 2))
    shifted = e.translate_mod1(Fraction(1, 4))
    expected = PArySet.from_interval(2, 0, Fraction(1, 4)) | PArySet.from_interval(
        2, Fraction(3, 4), 1
    )
    assert shifted == expected

    a = PArySet.from_interval(10, 0, Fraction(6, 10))
    b = PArySet.from_interval(10, Fraction(3, 10), Fraction(9, 10))
    h = at_least_two([a, b])
    assert h == PArySet.from_interval(10, Fraction(3, 10), Fraction(6, 10))
    assert h.measure() == Fraction(3, 10)


def test_set_views_check_the_cap_before_building_masks():
    # each call would build a mask of 2**22 or more bits under a cap of 16 cells
    with run_cell_cap(16):
        started = time.perf_counter()
        with pytest.raises(RankCapError):
            PArySet.full(2).mask_at_rank(24)
        with pytest.raises(RankCapError):
            PArySet.full(2).translate_mod1(Fraction(1, 2**24))
        with pytest.raises(RankCapError):
            PArySet.from_interval(2, 0, 1 - Fraction(1, 2**22))
        assert time.perf_counter() - started < 0.1


def test_translate_requires_pary_shift():
    e = PArySet.from_interval(2, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        e.translate_mod1(Fraction(1, 3))


def test_translate_preserves_measure():
    rng = random.Random(9)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        rank = rng.randint(1, 4)
        s = PArySet.from_cells(
            p, rank, [m for m in range(p**rank) if rng.random() < 0.5]
        )
        shift = Fraction(rng.randrange(p**rank), p**rank)
        assert s.translate_mod1(shift).measure() == s.measure()


def test_canonical_minimal_rank():
    fine = PArySet.from_cells(2, 3, range(4))  # [0, 1/2) written with 8 cells
    assert fine.rank == 1
    assert fine == PArySet.from_interval(2, 0, Fraction(1, 2))
    assert PArySet.from_cells(3, 2, range(9)) == PArySet.full(3)


def _reduce_by_shifts(p, rank, mask):
    """Reference reduction: shift the mask once per parent cell and compare its p bits."""
    block = (1 << p) - 1
    while rank > 0:
        out = 0
        for j in range(p ** (rank - 1)):
            bits = (mask >> (j * p)) & block
            if bits == block:
                out |= 1 << j
            elif bits:
                return rank, mask
        rank, mask = rank - 1, out
    return rank, mask


def _random_mask(rng):
    """(p, rank, mask) of a random set refined from a coarser grid.

    One cell is flipped half the time, so reductions stop at every depth.
    """
    p = rng.choice([2, 3, 4, 5, 6, 7, 10])
    rank = rng.randint(0, 5 if p <= 3 else 3)
    coarse = rng.randint(0, rank)
    reps = p ** (rank - coarse)
    mask = 0
    for m in range(p**coarse):
        if rng.random() < 0.5:
            mask |= ((1 << reps) - 1) << (m * reps)
    if rng.random() < 0.5:
        mask ^= 1 << rng.randrange(p**rank)
    return p, rank, mask


def test_reduction_matches_the_shift_loop():
    rng = random.Random(17)
    for _ in range(500):
        p, rank, mask = _random_mask(rng)
        s = PArySet(p, rank, mask)
        assert (s.rank, s.mask) == _reduce_by_shifts(p, rank, mask)


def _cells_by_bits(mask):
    """Reference cells: clear the lowest set bit of the mask, one cell at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask_at_rank_by_bits(p, rank, mask, new_rank):
    """Reference refinement: a block of p**(new_rank - rank) ones per set cell."""
    reps = p ** (new_rank - rank)
    out = 0
    for m in _cells_by_bits(mask):
        out |= ((1 << reps) - 1) << (m * reps)
    return out


def test_mask_views_match_the_bit_loop():
    rng = random.Random(23)
    for _ in range(200):
        s = PArySet(*_random_mask(rng))
        assert s.cells() == _cells_by_bits(s.mask)
        finer = s.rank + rng.randint(0, 2)
        assert s.mask_at_rank(finer) == _mask_at_rank_by_bits(s.p, s.rank, s.mask, finer)


def test_mask_views_are_linear_in_the_cells():
    # on these 2**18 cells, clearing one bit at a time took about 6 s for cells() alone
    s = PArySet.from_interval(2, 0, 1 - Fraction(1, 2**18))
    started = time.perf_counter()
    cells = s.cells()
    text = repr(s)
    finer = s.mask_at_rank(19)
    assert time.perf_counter() - started < 0.5
    assert cells == list(range(2**18 - 1))
    assert text.startswith("PArySet(p=2, rank=18, cells=[0, 1, 2, ")
    assert finer == (1 << (2**19 - 2)) - 1


def test_reduction_is_linear_in_the_cells():
    # the shift loop took 0.5 s on these 2**18 cells and grew quadratically
    started = time.perf_counter()
    s = PArySet.from_interval(2, 0, 1 - Fraction(1, 2**18))
    assert time.perf_counter() - started < 0.1
    assert s.rank == 18 and s.measure() == 1 - Fraction(1, 2**18)


def test_overlap_bound_property():
    # families with min measure >= 1/p: exact pair-overlap lower bound
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(334):
            sets = []
            while len(sets) < p:
                rank = rng.randint(1, 3)
                cells = [m for m in range(p**rank) if rng.random() < 0.7]
                s = PArySet.from_cells(p, rank, cells)
                if s.measure() >= Fraction(1, p):
                    sets.append(s)
            a = min(s.measure() for s in sets)
            h = at_least_two(sets)
            assert h.measure() >= Fraction(p * a - 1, p - 1)


def test_indicator_and_membership():
    s = PArySet.from_interval(3, Fraction(1, 3), Fraction(2, 3))
    ind = s.indicator()
    assert ind.integral() == Fraction(1, 3)
    assert ind.values.rationals() == [0, 1, 0]
    # 16 cells span two mask bytes
    wide = PArySet.from_cells(2, 4, [0, 9, 15]).indicator()
    assert [m for m, x in enumerate(wide.values.rationals()) if x] == [0, 9, 15]
    assert s.cells() == [1]
