"""Acceptance suite: one test per criterion, exact tolerances pinned inline.

Conventions: a criterion whose literal target is mathematically impossible
is asserted in its attainable form, and the test also asserts the bound that
blocks the literal target, so the reason stays checked; see the comments on
criteria 5 and 9.
"""

import json
import math
import random
import re
import time
from fractions import Fraction

import numpy as np

import vcchaos as v
from vcchaos.cli import main as cli_main
from vcchaos.cyclo import CycloArray, root_of_unity
from vcchaos.stepfn import PArySet, StepFn
from vcchaos.vc import exponent_table


# -- criterion 1: orthonormality and the inverse identity ----------------------


def test_criterion_01_orthonormality_and_inverse_identity():
    started = time.perf_counter()
    for p in (2, 3, 4, 5, 6):
        for k in range(4):
            if p**k > 216:
                continue
            # Gram check: VC^(k) conj-transpose(VC^(k)) = p**k * I exactly;
            # at k = 3 the entries are exactly p**3 * integral(VC_n conj VC_m)
            # for all n, m < p**3
            assert v.verify_inverse_identity(p, k)
    # independent route: the step-function integral on sampled pairs
    rng = random.Random(101)
    for p in (2, 3, 4, 5, 6):
        size = p**3 if p**3 <= 216 else p**2
        for _ in range(25):
            n, m = rng.randrange(size), rng.randrange(size)
            value = (v.vc_function(p, n) * v.vc_function(p, m).conj()).integral()
            assert value == (1 if n == m else 0)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s (limit 10s)"


# -- criterion 2: operator norm --------------------------------------------------


def test_criterion_02_operator_norm():
    for p in (2, 3, 4):
        for k in range(4):
            assert abs(v.matrix_op_norm(p, k) - p ** (k / 2)) < 1e-9


# -- criterion 3: fast transform vs matrix oracle --------------------------------


def _value(order, coeffs):
    """The one-row array sum(coeffs[j] * w**j), w = exp(2*pi*i/order)."""
    column = CycloArray.from_values(coeffs)
    return CycloArray(order, column.nums.T, column.denom)


def _oracle_transform(values, p, k, direction):
    """Dense product against the exponent table, in exact integer arithmetic.

    The order-p values become integer numerators over one denominator, a
    (cells, p) array whose columns are the powers of w; multiplying by w**e
    rolls the columns by e, so output n sums, for each e, the rolled
    numerators of the cells m with sign * E[n, m] = e (mod p).
    """
    vals = [CycloArray.coerce(x).promote(p) for x in values]
    coeffs = [[Fraction(int(n), x.denom) for n in x.nums[0]] for x in vals]
    denom = math.lcm(*(c.denominator for row in coeffs for c in row))
    nums = np.array([[int(c * denom) for c in row] for row in coeffs], dtype=np.int64)
    size = p**k
    assert int(np.abs(nums).max()) * size < 2**62  # int64 sums stay exact
    sign = -1 if direction == "forward" else 1
    table = sign * exponent_table(p, k) % p
    out = sum((table == e).astype(np.int64) @ np.roll(nums, e, axis=1) for e in range(p))
    if direction == "forward":
        denom *= size
    return [_value(p, [Fraction(int(x), denom) for x in row]) for row in out]


def test_criterion_03_exact_transform_matches_oracle():
    rng = random.Random(7)
    for p in (2, 3, 4, 5):
        for k in range(5):
            size = p**k
            if size > 700:
                continue
            values = [
                _value(p, [Fraction(rng.randint(-2, 2)) for _ in range(p)])
                for _ in range(size)
            ]
            directions = ("forward", "inverse") if size <= 260 else ("forward",)
            for direction in directions:
                fast = v.vc_transform_exact(values, p, direction)
                oracle = _oracle_transform(values, p, k, direction)
                assert all((a - b).is_zero() for a, b in zip(fast, oracle))
            if "inverse" not in directions:
                # exact roundtrip closes the loop at the largest size
                coeffs = v.vc_transform_exact(values, p, "forward")
                back = v.vc_transform_exact(coeffs, p, "inverse")
                assert all((a - b).is_zero() for a, b in zip(back, values))
    # exhaustive basis check at small sizes
    for p, k in [(2, 3), (3, 2)]:
        size = p**k
        for n in range(size):
            basis = [1 if m == n else 0 for m in range(size)]
            fast = v.vc_transform_exact(basis, p, "inverse")
            expected = exponent_table(p, k)
            assert all(
                (fast[m] - root_of_unity(p, int(expected[m, n]))).is_zero() for m in range(size)
            )


def test_criterion_03_float_transform_performance():
    rng = np.random.default_rng(3)
    size = 3**12  # 531441
    data = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v.vc_transform_float(data[: 3**8], 3, "forward")  # warm-up
    started = time.perf_counter()
    out = v.vc_transform_float(data, 3, "forward")
    elapsed = time.perf_counter() - started
    assert out.size == size
    assert elapsed < 1.0, f"float transform took {elapsed:.3f}s (limit 1s)"
    back = v.vc_transform_float(out, 3, "inverse")
    assert np.max(np.abs(back - data)) < 1e-10


# -- criterion 4: sharpness thresholds -------------------------------------------


def test_criterion_04_sharpness_thresholds():
    for p in (2, 3, 5):
        for d in (1, 2, 3, 4):
            if p**d > 10**5:
                continue
            unit = v.witness_unit_chaos(p, d)
            assert unit.level_set_measure == 1 - Fraction(p - 1, p) ** d
            assert unit.support_ok
            assert all(
                n == 0 or v.contains(v.unit_chaos(p, d), n) for n in unit.support
            )
            # it is the paper's polynomial prod_{k<d} (1 - R_k), built cell by cell
            product = StepFn.constant(p, 1)
            for k in range(d):
                product = product * (1 - v.rademacher(p, k))
            assert unit.level_set == product.level_set(0)
            assert unit.coefficients == v.vc_transform_exact(product.values, p)
            full = v.witness_full_chaos(p, d)
            assert full.level_set_measure == 1 - Fraction(1, p**d)
            assert full.support_ok
            assert all(
                n == 0 or v.contains(v.full_chaos(p, d), n) for n in full.support
            )
    # cited classical constants: p = 2, d = 1 gives 1/2; p = 2 gives 1/2**d
    assert v.witness_unit_chaos(2, 1).threshold == Fraction(1, 2)
    for d in (1, 2, 3, 4):
        assert v.witness_unit_chaos(2, d).threshold == Fraction(1, 2**d)
        assert v.witness_full_chaos(2, d).threshold == Fraction(1, 2**d)


# -- criterion 5: q = 4 ceiling and optimizer ------------------------------------


def test_criterion_05_exact_ratio_ceiling_within_runtime():
    spec = v.unit_chaos(2, 1)
    members = v.enumerate_members(spec, 2**10)
    assert len(members) == 11
    started = time.perf_counter()
    for trial in range(10_000):
        c = v.sample_unit_coefficients(len(members), 20260809, trial)
        coeffs = {n: complex(z) for n, z in zip(members, c)}
        ratio4 = v.norm_ratio_pow_exact(spec, coeffs, 4)
        assert ratio4 <= 3  # exact rational comparison
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 5 sampling took {elapsed:.1f}s (limit 60s)"


def test_criterion_05_optimizer_attains_2_9_at_n_1024():
    # The optimizer reaches the sharp q = 4 ceiling at N = 2**10.  On the unit
    # sphere integral|f|**4 = |sum c^2|**2 + 2 - 2 sum|c|**4 <= 3 - 2/M over
    # M indices, and only M = 11 indices lie in [1, 2**10], so the supremum is
    # 31/11 ~ 2.818.  The literal target 2.9 lies above it: 3 - 2/M >= 2.9
    # first holds at M = 20, i.e. at N = 2**19.  The test pins that bound and
    # asserts the certified ratio**4 lies within 1e-6 below the ceiling.
    spec = v.unit_chaos(2, 1)
    members = v.enumerate_members(spec, 2**10)
    assert len(members) == 11
    ceiling = 3 - Fraction(2, len(members))
    assert ceiling < Fraction(29, 10)  # 2.9 is out of reach at N = 2**10
    report = v.estimate_constant(spec, 4, 2**10, 200, seed=7)
    assert report.members == len(members)
    assert report.best_ratio_pow_exact <= ceiling  # exact rational comparison
    assert ceiling - report.best_ratio_pow_exact < Fraction(1, 10**6)


def test_criterion_05_companion_optimizer_is_exact_optimal_at_n_1024():
    report = v.estimate_constant(v.unit_chaos(2, 1), 4, 2**10, 200, seed=7)
    ceiling = Fraction(31, 11)  # 3 - 2/11, the true supremum over 11 indices
    assert report.best_ratio_pow_exact <= ceiling
    assert float(report.best_ratio_pow_exact) > float(ceiling) - 1e-6


def test_criterion_05_companion_optimizer_attains_2_9_at_n_2_pow_20():
    report = v.estimate_constant(v.unit_chaos(2, 1), 4, 2**20, 50, seed=7)
    assert report.members == 21  # supremum 3 - 2/21 ~ 2.9048
    assert report.best_ratio_pow_exact >= Fraction(29, 10)
    assert report.best_ratio_pow_exact <= 3


def test_criterion_05_companion_optimizer_meets_closed_form_suprema_d1():
    # Unit chaos with d = 1 is {R_k = VC_(p**k)}, and on the unit sphere
    # integral|f|**4 = sum c_i c_j conj(c_k c_l) E[R_i R_j conj(R_k R_l)].
    # For p >= 3 the product R_i R_j is VC at the digitwise sum p**i + p**j,
    # which has digit 2 at i when i = j, so E[R_i R_j conj(R_k R_l)] = 0 unless
    # {i, j} = {k, l}: integral|f|**4 = 2 (sum|c|**2)**2 - sum|c|**4, whose
    # supremum over M members is 2 - 1/M (sum|c|**4 >= 1/M, equal moduli).
    # For p = 2, R_i**2 = 1, so the terms with i = j and k = l add
    # |sum c**2|**2 <= 1 and those with {i, j} = {k, l}, i != j, add
    # 2 - 2 sum|c|**4: the supremum is 3 - 2/M (real equal coefficients).
    # No claim is made for d >= 2.
    for p in range(2, 8):
        report = v.estimate_constant(v.unit_chaos(p, 1), 4, p**11, 100, seed=3)
        members = report.members
        assert members == 12
        supremum = 3 - Fraction(2, members) if p == 2 else 2 - Fraction(1, members)
        assert report.best_ratio_pow_exact <= supremum  # exact rational comparison
        assert supremum - report.best_ratio_pow_exact < Fraction(1, 10**6)


# -- criterion 6: stability of the estimate in N ---------------------------------


def test_criterion_06_estimate_stability_as_n_grows():
    # regression baseline: pinned protocol (pure random sampling, 100 trials,
    # seed 2026); the estimate must move by < 5% when N grows from p**4 to p**6
    for p, d in ((3, 1), (3, 2), (2, 2)):
        spec = v.full_chaos(p, d)
        small = v.estimate_constant(spec, 4, p**4, 100, seed=2026, optimizer="random")
        large = v.estimate_constant(spec, 4, p**6, 100, seed=2026, optimizer="random")
        change = abs(large.best_ratio - small.best_ratio) / small.best_ratio
        assert change < 0.05, f"(p,d)=({p},{d}) drifted {100 * change:.2f}%"


# -- criterion 7: L1-L2 lower bound ----------------------------------------------


def test_criterion_07_l1_lower_bound():
    report = v.estimate_l1_constant(v.unit_chaos(2, 1), 2**8, 1000, seed=5)
    assert report.min_l1_ratio >= 1 / math.sqrt(3) - 1e-6


# -- criterion 8: independence of digit functions --------------------------------


def test_criterion_08_independence_product_rule():
    rng = random.Random(88)
    for p in (2, 3, 4, 5):
        for _ in range(100):
            depth = rng.randint(0, 4)
            tables = [
                [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(p)]
                for _ in range(depth + 1)
            ]
            assert v.independence_check(p, tables)


# -- criterion 9: symmetric decomposition ----------------------------------------


def _re_power(p, k, j):
    return StepFn(
        p,
        k + 1,
        [root_of_unity(p, j * (m % p)).real_part() for m in range(p ** (k + 1))],
    )


def _im_power(p, k, j):
    return StepFn(
        p,
        k + 1,
        [root_of_unity(p, j * (m % p)).imag_part() for m in range(p ** (k + 1))],
    )


def test_criterion_09_decomposition_and_imaginary_symmetry():
    for p in range(2, 8):
        for j in range(1, p):
            for k in (0, 1):
                pieces = v.symmetric_decomposition(p, k, j)
                assert len(pieces) == p - 1
                total = pieces[0]
                for piece in pieces[1:]:
                    total = total + piece
                assert total == _re_power(p, k, j)  # exact reconstruction
                for piece in pieces:
                    assert piece.distribution().is_symmetric()
                    assert piece.integral().is_zero()
            assert _im_power(p, 0, j).distribution().is_symmetric()


def test_criterion_09_re_symmetry_iff_even_base():
    # For j coprime to p, R^j is uniform on all p-th roots of unity (a
    # primitive p-th root generates them), so Re R^j is symmetric exactly
    # when the base p is even.  Otherwise the law depends on the reduced
    # order p/gcd(j, p), not on p alone: at (6, 2) and (6, 4) it is
    # {1: 1/3, -1/2: 2/3}, not negation-invariant although the base is even.
    # The test asserts the even-base rule where it holds, the reduced-order
    # rule on the other pairs, and that exact law.
    non_coprime = []
    for p in range(2, 8):
        for j in range(1, p):
            law = _re_power(p, 0, j).distribution()
            if math.gcd(j, p) == 1:
                assert law.is_symmetric() == (p % 2 == 0), (p, j)
            else:
                non_coprime.append((p, j))
                reduced = p // math.gcd(j, p)
                assert law.is_symmetric() == (reduced % 2 == 0), (p, j)
    assert non_coprime == [(4, 2), (6, 2), (6, 3), (6, 4)]
    for j in (2, 4):
        law = _re_power(6, 0, j).distribution()
        assert law.measure_of(1) == Fraction(1, 3)
        assert law.measure_of(Fraction(-1, 2)) == Fraction(2, 3)


def test_criterion_09_companion_re_symmetry_iff_even_reduced_order():
    # R^j is uniform on the roots of unity of order p/gcd(j, p); its real
    # part is symmetric exactly when that reduced order is even
    for p in range(2, 8):
        for j in range(1, p):
            symmetric = _re_power(p, 0, j).distribution().is_symmetric()
            assert symmetric == ((p // math.gcd(j, p)) % 2 == 0), (p, j)


# -- criterion 10: pair-overlap bound audit ---------------------------------------


def test_criterion_10_overlap_bound_audit():
    rng = random.Random(1010)
    failures = 0
    for p in (2, 3, 5):
        for _ in range(1000):
            sets = []
            for _ in range(p):
                rank = rng.randint(1, 3)
                cells = [m for m in range(p**rank) if rng.random() < 0.6]
                sets.append(PArySet.from_cells(p, rank, cells))
            _, _, holds = v.overlap_bound_check(sets)
            failures += 0 if holds else 1
    assert failures == 0


# -- criterion 11: index combinatorics ---------------------------------------------


def test_criterion_11_index_combinatorics():
    for p in (2, 3, 4, 5):
        for d in (1, 2, 3, 4):
            for levels in range(1, 7):
                for spec in (v.unit_chaos(p, d), v.full_chaos(p, d)):
                    members = v.enumerate_members(spec, p**levels - 1)
                    assert len(members) == v.count_below_power(spec, levels)
                spec = v.exact_weight(p, d)
                members = v.enumerate_members(spec, p**levels - 1)
                assert len(members) == v.count_below_power(spec, levels)
    for p in (2, 3, 4):
        for top in (0, 1, 2, 3):
            for s in range(1, top + 2):
                assert v.pattern_multiplicity_check(p, s, top, p ** (top + 1) - 1)


# -- criterion 12: CLI determinism --------------------------------------------------


def _strip_wall_time(text: str) -> str:
    return re.sub(r'^\s*"wall_time_s": [0-9.eE+-]+,?\n', "", text, flags=re.M)


def test_criterion_12_cli_determinism(tmp_path):
    for args in (
        ["verify", "--p", "3", "--max-rank", "3", "--seed", "11"],
        [
            "khinchin", "--p", "2", "--d", "1", "--set", "v", "--q", "4",
            "--N", "64", "--trials", "40", "--seed", "3",
        ],
        ["sharpness", "--p", "3", "--d", "2"],
    ):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            assert cli_main(args + ["--out", str(path)]) in (0, 1)
        first, second = (p.read_bytes().decode() for p in paths)
        assert _strip_wall_time(first) == _strip_wall_time(second)
        assert first != "" and json.loads(first)["schema_version"] == 1
