import random
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcchaos.cyclo import CycloArray, root_of_unity
from vcchaos.pary import RankCapError, run_cell_cap
from vcchaos.stepfn import Distribution, PArySet, StepFn, overlap_counts, symmetric_decomposition
from vcchaos.uniqueness import overlap_bound_check
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
    assert zs == PArySet.from_cells(3, 1, [0])  # [0, 1/3)
    assert zs.measure() == Fraction(1, 3)

    prod = StepFn.constant(3, 1)
    for k in range(2):
        r_k = rademacher(3, k)
        prod = prod * (1 + r_k + r_k**2)
    assert prod.level_set(0).measure() == Fraction(8, 9)

    const = StepFn.constant(5, root_of_unity(5))
    assert const.level_set(root_of_unity(5)) == PArySet(5, 0, [1])


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


def test_distribution_keys_each_distinct_row_once(monkeypatch):
    # a decomposition piece holds 0, cos and -cos on its 7 cells: 3 distinct rows to key
    pieces = [piece for j in range(1, 7) for piece in symmetric_decomposition(7, 0, j)]
    keyed, keys = [], CycloArray.keys

    def counted(self):
        keyed.append(len(self))
        return keys(self)

    monkeypatch.setattr(CycloArray, "keys", counted)
    laws = [piece.distribution() for piece in pieces]
    assert len(keyed) == len(pieces) and max(keyed) <= 3
    assert all(len(law.entries) == 3 for law in laws)


def test_distribution_requires_real_for_symmetry():
    f = StepFn.constant(3, root_of_unity(3))
    with pytest.raises(ValueError):
        f.distribution().is_symmetric()


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(((CycloArray.coerce(1), Fraction(1, 2)),))


def _lifted_bits(sets):
    """The family as a (sets, cells) 0/1 array at its finest rank."""
    rank = max(s.rank for s in sets)
    return np.array([s.bits_at_rank(rank) for s in sets])


def test_set_algebra_examples():
    a = PArySet.from_cells(10, 1, range(6))  # [0, 6/10)
    b = PArySet.from_cells(10, 1, range(3, 9))  # [3/10, 9/10)
    # [3/10, 6/10) is covered twice; the smaller set has 6 of the 10 cells
    twice, smallest = overlap_counts(_lifted_bits([a, b]))
    assert (twice, smallest) == (3, 6)
    # one (families, sets, cells) array counts every family at once
    stacked = np.array([_lifted_bits([a, b]), _lifted_bits([b, b])])
    assert [c.tolist() for c in overlap_counts(stacked)] == [[3, 6], [6, 6]]


def test_set_views_check_the_cap_before_building_masks():
    # each call would build an array of 2**22 or more cells under a cap of 16 cells
    with run_cell_cap(16):
        started = time.perf_counter()
        with pytest.raises(RankCapError):
            PArySet(2, 0, [1]).bits_at_rank(24)
        with pytest.raises(RankCapError):
            PArySet(2, 22, [1])
        with pytest.raises(RankCapError):
            PArySet.from_cells(2, 22, [0])
        assert time.perf_counter() - started < 0.1


def test_canonical_minimal_rank():
    fine = PArySet.from_cells(2, 3, range(4))  # [0, 1/2) written with 8 cells
    assert fine.rank == 1
    assert fine == PArySet(2, 1, [1, 0])  # [0, 1/2)
    assert PArySet.from_cells(3, 2, range(9)) == PArySet(3, 0, [1])


def test_constructor_takes_one_bit_per_cell():
    with pytest.raises(ValueError, match=r"^need 9 cell bits, got shape \(8,\)$"):
        PArySet(3, 2, [0] * 8)
    with pytest.raises(ValueError, match=r"^need 3 cell bits, got shape \(1, 3\)$"):
        PArySet(3, 1, [[0, 1, 0]])
    # an int mask is not a second input format
    with pytest.raises(ValueError, match=r"^need 2 cell bits, got shape \(\)$"):
        PArySet(2, 1, 0b10)
    for bad in ([0, 2, 1], [0, -1, 1], [0, 0.5, 1]):
        with pytest.raises(ValueError, match=r"^cell bits must be 0 or 1$"):
            PArySet(3, 1, bad)
    # bool entries, as level_set passes them, and integer entries make the same set
    assert PArySet(3, 1, [False, True, False]) == PArySet(3, 1, np.array([0, 1, 0]))


def test_one_set_at_two_ranks_is_one_value():
    coarse = PArySet(3, 1, [0, 1, 1])  # [1/3, 1)
    fine = PArySet(3, 3, np.repeat([0, 1, 1], 9))
    assert fine == coarse and hash(fine) == hash(coarse)
    assert (fine.rank, fine.bits.tolist()) == (1, [0, 1, 1])
    assert len({coarse, fine, PArySet.from_cells(3, 2, range(3, 9))}) == 1
    assert fine != PArySet(3, 1, [1, 1, 0]) and fine != PArySet(3, 0, [1])


def test_bits_are_read_only():
    source = np.array([0, 1, 1], np.uint8)
    kept, merged = PArySet(3, 1, source), PArySet(2, 3, np.ones(8, np.uint8))
    for s in (kept, merged):
        assert s.bits.dtype == np.uint8
        with pytest.raises(ValueError, match="read-only"):
            s.bits[0] = 1
        with pytest.raises(AttributeError):
            s.bits = np.zeros(3, np.uint8)
    # the set holds its own copy, so the caller's array stays writable and apart
    source[0] = 1
    assert kept.cells() == [1, 2] and source.flags.writeable


def test_from_cells_checks_every_index_before_building_bits():
    # writing a bit per index first reached 26.7 MB for the index 10**8 before the range check
    for p, rank, cells in [(2, 1, [10**8]), (2, 3, [0, -1]), (2, 3, [2**70]), (3, 2, [9])]:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^cells must lie in 0\.\.{p**rank - 1}$"):
                PArySet.from_cells(p, rank, cells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _reduce_by_parents(p, rank, bits):
    """Reference reduction: merge rank by rank while each parent's p children agree, one parent at a time."""
    bits = list(bits)
    while rank > 0:
        parents = [bits[j * p : (j + 1) * p] for j in range(p ** (rank - 1))]
        if any(len(set(children)) > 1 for children in parents):
            break
        rank, bits = rank - 1, [children[0] for children in parents]
    return rank, bits


def _random_bits(rng):
    """(p, rank, bits) of a random set refined from a coarser grid.

    One cell is flipped half the time, so reductions stop at every depth.
    """
    p = rng.choice([2, 3, 4, 5, 6, 7, 10])
    rank = rng.randint(0, 5 if p <= 3 else 3)
    coarse = rng.randint(0, rank)
    bits = []
    for _ in range(p**coarse):
        bits += [int(rng.random() < 0.5)] * p ** (rank - coarse)
    if rng.random() < 0.5:
        bits[rng.randrange(p**rank)] ^= 1
    return p, rank, bits


def test_reduction_matches_the_parent_loop():
    rng = random.Random(17)
    for _ in range(500):
        p, rank, bits = _random_bits(rng)
        s = PArySet(p, rank, bits)
        assert (s.rank, s.bits.tolist()) == _reduce_by_parents(p, rank, bits)


def _bits_at_rank_by_cells(p, rank, bits, new_rank):
    """Reference refinement: each cell of the finer grid reads its rank-`rank` ancestor."""
    reps = p ** (new_rank - rank)
    return [bits[m // reps] for m in range(len(bits) * reps)]


def test_bit_views_match_the_cell_loop():
    rng = random.Random(23)
    for _ in range(200):
        s = PArySet(*_random_bits(rng))
        bits = s.bits.tolist()
        assert s.cells() == [m for m, b in enumerate(bits) if b]
        assert s.measure() == Fraction(sum(bits), len(bits))
        finer = s.rank + rng.randint(0, 2)
        assert s.bits_at_rank(finer).tolist() == _bits_at_rank_by_cells(s.p, s.rank, bits, finer)


def test_bit_views_are_linear_in_the_cells():
    # on these 2**18 cells, clearing one bit of an int mask at a time took about 6 s for cells() alone
    s = PArySet(2, 18, np.arange(2**18) < 2**18 - 1)  # [0, 1 - 2**-18)
    started = time.perf_counter()
    cells = s.cells()
    text = repr(s)
    finer = s.bits_at_rank(19)
    assert time.perf_counter() - started < 0.5
    assert cells == list(range(2**18 - 1))
    assert text.startswith("PArySet(p=2, rank=18, cells=[0, 1, 2, ")
    assert finer.tolist() == [1] * (2**19 - 2) + [0, 0]


def test_reduction_is_linear_in_the_cells():
    # a shift loop over an int mask took 0.5 s on these 2**18 cells and grew quadratically
    bits = np.arange(2**18) < 2**18 - 1  # [0, 1 - 2**-18)
    full = np.ones(2**18, np.uint8)  # merges through all 18 ranks
    started = time.perf_counter()
    s = PArySet(2, 18, bits)
    whole = PArySet(2, 18, full)
    assert time.perf_counter() - started < 0.1
    assert s.rank == 18 and s.measure() == 1 - Fraction(1, 2**18)
    assert whole == PArySet(2, 0, [1])


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
            twice, _ = overlap_counts(_lifted_bits(sets))
            cells = p ** max(s.rank for s in sets)
            assert Fraction(int(twice), cells) >= Fraction(p * a - 1, p - 1)


def test_indicator_and_membership():
    # a set's indicator is its 0/1 cell array; its cells and measure read it
    s = PArySet.from_cells(3, 1, [1])  # [1/3, 2/3)
    assert s.bits.tolist() == [0, 1, 0] and s.cells() == [1] and s.measure() == Fraction(1, 3)
    wide = PArySet.from_cells(2, 4, [0, 9, 15])
    assert wide.cells() == [0, 9, 15] and wide.measure() == Fraction(3, 16)
    assert PArySet.from_cells(2, 1, [1]).bits.tolist() == [0, 1]
    assert PArySet.from_cells(3, 2, [1, 2, 7]).bits.tolist() == [0, 1, 1, 0, 0, 0, 0, 1, 0]


def _overlap_loop(sets):
    """(|H|, a) by a per-cell count at the family's finest rank, kept as the kernel's oracle."""
    p, rank = sets[0].p, max(s.rank for s in sets)
    cells = p**rank

    def holds(s, m):
        return int(s.bits[m // p ** (rank - s.rank)])

    twice = sum(sum(holds(s, m) for s in sets) >= 2 for m in range(cells))
    smallest = min(sum(holds(s, m) for m in range(cells)) for s in sets)
    return twice, smallest


@st.composite
def families(draw):
    """p sets in base p, p in 2..6, each of its own rank in 0..3."""
    p = draw(st.integers(2, 6))
    ranks = draw(st.lists(st.integers(0, 3), min_size=p, max_size=p))
    return [PArySet(p, r, draw(st.lists(st.integers(0, 1), min_size=p**r, max_size=p**r))) for r in ranks]


@st.composite
def tight_families(draw):
    """p sets meeting the pair-overlap bound with equality.

    Each set is t common cells plus its own (N - t)/p of the rest, so
    |H| = t and a = t + (N - t)/p, and (p - 1)|H| = p a - N.
    """
    p, rank = draw(st.integers(2, 6)), draw(st.integers(0, 3))
    cells = p**rank
    order = draw(st.permutations(range(cells)))
    common = cells - p * draw(st.integers(0, cells // p))
    share = (cells - common) // p
    parts = [order[common + i * share : common + (i + 1) * share] for i in range(p)]
    return [PArySet.from_cells(p, rank, order[:common] + part) for part in parts]


@settings(max_examples=200, deadline=None)
@given(st.one_of(families(), tight_families()))
def test_overlap_counts_match_the_cell_loop(sets):
    p = sets[0].p
    twice, smallest = _overlap_loop(sets)
    assert [int(c) for c in overlap_counts(_lifted_bits(sets))] == [twice, smallest]
    cells = p ** max(s.rank for s in sets)
    h_measure, bound, holds = overlap_bound_check(sets)
    assert h_measure == Fraction(twice, cells)
    assert bound == (p * Fraction(smallest, cells) - 1) / (p - 1)
    # the lemma: every family holds, and the integer form decides it as the Fractions do
    assert holds and (p - 1) * twice >= p * smallest - cells


@settings(max_examples=50, deadline=None)
@given(tight_families())
def test_tight_families_meet_the_overlap_bound_with_equality(sets):
    h_measure, bound, holds = overlap_bound_check(sets)
    assert h_measure == bound and holds


# the tools of an int-bitmask cell set: packing 0/1 arrays into ints and counting set bits
_BITMASK_TOOL = re.compile(r"\b(?:packbits|unpackbits|bit_count)\b")


def _bitmask_tools(path: Path) -> list[int]:
    """Lines of the module that use a bitmask tool."""
    return [n for n, line in enumerate(path.read_text().splitlines(), 1) if _BITMASK_TOOL.search(line)]


def test_cell_sets_have_one_format():
    # PArySet's 0/1 cell array is the only cell-set format in the package
    package = Path(__file__).resolve().parent.parent / "src" / "vcchaos"
    found = {path.name: lines for path in sorted(package.glob("*.py")) if (lines := _bitmask_tools(path))}
    assert found == {}


def test_the_bitmask_scan_sees_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "a = np.packbits(b)\nc = np.unpackbits(d, count=8)\nn = mask.bit_count()\n"
        "e = bits.sum()\nf = mask.bit_length()\n"
    )
    assert _bitmask_tools(module) == [1, 2, 3]
