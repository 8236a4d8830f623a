import json
import math
import random
import re
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcchaos import cli, khinchin
from vcchaos.cyclo import CycloArray, root_of_unity
from vcchaos.indices import (
    digit_pattern,
    enumerate_members,
    exact_weight,
    full_chaos,
    unit_chaos,
)
from vcchaos.khinchin import (
    _ascent,
    _moved,
    _ratio_objective,
    estimate_constant,
    estimate_l1_constant,
    norm_ratio_pow_exact,
    sample_unit_coefficients,
)
from vcchaos.pary import RankCapError, run_cell_cap
from vcchaos.stepfn import StepFn, independence_check, symmetric_decomposition
from vcchaos.vc import rademacher, synthesize


def _digitwise_add_loop(a, b, p):
    result, scale = 0, 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        result += ((da + db) % p) * scale
        scale *= p
    return result


def _sum_tables_loop(p, members, h):
    """The per-pair sum tables _sum_tables replaced, with the scalar divmod sum, kept as its oracle."""
    tables = []
    targets = list(members)
    for _ in range(h - 1):
        sums = [_digitwise_add_loop(t, m, p) for t in targets for m in members]
        targets = sorted(set(sums))
        position = {t: i for i, t in enumerate(targets)}
        tables.append((np.array([position[s] for s in sums], dtype=np.intp), len(targets)))
    return tables


def _assert_same_tables(p, members, h):
    tables = khinchin._sum_tables(p, members, h)
    oracle = _sum_tables_loop(p, members, h)
    assert [bins for _, bins in tables] == [bins for _, bins in oracle]
    for (flat, _), (expected, _) in zip(tables, oracle):
        assert flat.dtype == np.intp and flat.tolist() == expected.tolist()


def _moment_pow_exact(p, coeffs, q):
    """Exact integral of |sum c_n VC_n|**q for even q: S_h / D**q from the exact moment kernel."""
    _, s_h, denom = khinchin._exact_power_sums(coeffs, khinchin._sum_tables(p, list(coeffs), q // 2))
    return Fraction(s_h, denom**q)


def _l1_ratio_with_error(p, coeffs):
    """(||sum c_n VC_n||_1 / ||c||_l2, its error bound) from the VC rows, as estimate_l1_constant scores."""
    c = np.array([complex(v) for v in coeffs.values()], dtype=np.complex128)
    scorer = khinchin._RowRatio(p, list(coeffs), 1)
    ratio = scorer.reset(c)
    return ratio, khinchin._synthesis_error_bound(c, scorer.rows.shape[1], 1, ratio)


def test_norm_ratio_examples():
    spec = unit_chaos(2, 1)
    assert norm_ratio_pow_exact(spec, {4: 1.0}, 4) == 1
    assert norm_ratio_pow_exact(spec, {1: 1, 2: 1}, 4) == 2
    assert norm_ratio_pow_exact(spec, {1: 1, 2: 1}, 2) == 1
    assert norm_ratio_pow_exact(spec, {1: 0.3, 2: -1.7}, 2) == 1


def test_norm_ratio_validation():
    spec = unit_chaos(2, 1)
    with pytest.raises(ValueError):
        norm_ratio_pow_exact(spec, {}, 4)
    with pytest.raises(ValueError):
        norm_ratio_pow_exact(spec, {3: 1.0}, 4)  # 3 has two binary ones, not in d=1
    with pytest.raises(ValueError):
        norm_ratio_pow_exact(spec, {1: 0}, 4)


def test_fourth_moment_examples():
    assert _moment_pow_exact(2, {1: 1, 2: 1}, 4) == 8
    c = Fraction(3, 5)
    assert _moment_pow_exact(3, {7: c}, 4) == c**4
    # n equal unit coefficients on distinct Rademacher indices: 3n^2 - 2n
    for n in range(1, 11):
        coeffs = {2**k: 1 for k in range(n)}
        assert _moment_pow_exact(2, coeffs, 4) == 3 * n * n - 2 * n
        f = synthesize(coeffs, 2)
        assert f.lq_norm_even_pow(4) == 3 * n * n - 2 * n


def test_real_rademacher_moment_identity():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 6)
        coeffs = {2**k: Fraction(rng.randint(-4, 4)) for k in range(n)}
        coeffs = {k: c for k, c in coeffs.items() if c}
        if not coeffs:
            continue
        sum_sq = sum(c * c for c in coeffs.values())
        sum_4 = sum(c**4 for c in coeffs.values())
        moment = _moment_pow_exact(2, coeffs, 4)
        assert moment == 3 * sum_sq**2 - 2 * sum_4
        assert moment <= 3 * sum_sq**2


def test_moment_agrees_with_cell_enumeration():
    rng = random.Random(9)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        d = rng.randint(1, 2)
        members = enumerate_members(full_chaos(p, d), p**5 if p < 5 else p**4)
        support = rng.sample(members, min(4, len(members)))
        coeffs = {n: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for n in support}
        coeffs = {n: c for n, c in coeffs.items() if c}
        if not coeffs:
            continue
        f = synthesize(coeffs, p)
        for q in (2, 4):
            assert _moment_pow_exact(p, coeffs, q) == f.lq_norm_even_pow(q)
    # a non-dyadic common denominator
    coeffs = {1: Fraction(1, 3), 4: Fraction(-2, 3), 6: Fraction(5, 6)}
    f = synthesize(coeffs, 3)
    for q in (2, 4, 6):
        assert _moment_pow_exact(3, coeffs, q) == f.lq_norm_even_pow(q)
    # complex coefficients a + bi, exact as cyclotomic values and as dyadic floats
    parts = {1: (1, 2), 5: (-0.5, 1), 7: (2, -1), 19: (0, 1.5)}
    i = root_of_unity(4, 1)
    f = synthesize({n: i.scale(Fraction(b)) + Fraction(a) for n, (a, b) in parts.items()}, 3)
    assert _moment_pow_exact(3, {n: complex(a, b) for n, (a, b) in parts.items()}, 8) == (
        f.lq_norm_even_pow(8)
    )


def test_sixth_moment_agrees_with_cell_enumeration():
    coeffs = {1: Fraction(1), 3: Fraction(-2), 9: Fraction(1, 2)}
    f = synthesize(coeffs, 3)
    assert _moment_pow_exact(3, coeffs, 6) == f.lq_norm_even_pow(6)


def test_moment_agreement_at_largest_truncation():
    # one deep case: p = 5 support reaching up to 5**5
    coeffs = {2: Fraction(1), 15: Fraction(-1, 2), 630: Fraction(2), 3120: Fraction(1)}
    f = synthesize(coeffs, 5)
    assert _moment_pow_exact(5, coeffs, 4) == f.lq_norm_even_pow(4)


def test_scale_invariance():
    rng = random.Random(15)
    spec = full_chaos(3, 2)
    members = enumerate_members(spec, 80)
    for _ in range(10):
        coeffs = {n: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for n in members[:5]}
        lam = rng.choice([2.0, -0.5, 3.7, 0.1])
        base = float(norm_ratio_pow_exact(spec, coeffs, 4))
        scaled = float(norm_ratio_pow_exact(spec, {n: lam * c for n, c in coeffs.items()}, 4))
        assert scaled == pytest.approx(base, abs=1e-12)


def test_sampled_ratios_below_ceiling():
    spec = unit_chaos(2, 1)
    members = enumerate_members(spec, 2**10)
    for t in range(200):
        c = sample_unit_coefficients(len(members), 42, t)
        coeffs = {n: complex(z) for n, z in zip(members, c)}
        assert norm_ratio_pow_exact(spec, coeffs, 4) <= 3


def test_sum_tables_match_the_per_pair_loop():
    rng = random.Random(5)
    for _ in range(30):
        p = rng.choice([2, 3, 4, 5])
        upper = rng.randint(1, 700)
        d = rng.randint(1, 4)
        pattern = tuple(rng.randint(1, p - 1) for _ in range(rng.randint(1, 4)))
        specs = (
            unit_chaos(p, d),
            full_chaos(p, d),
            exact_weight(p, d),
            digit_pattern(p, min(d, len(pattern)), pattern),
        )
        for spec in specs:
            members = enumerate_members(spec, upper)
            if members:
                _assert_same_tables(p, members, 2 if len(members) > 20 else 3)
    # members past 2**63, and members that fit int64 while their sums do not
    _assert_same_tables(2, enumerate_members(unit_chaos(2, 1), 2**100), 2)
    _assert_same_tables(3, enumerate_members(full_chaos(3, 1), 2 * 3**39)[-12:], 3)
    # in the caller's member order, not sorted
    _assert_same_tables(3, [9, 1, 6, 2, 3], 4)


def test_khinchin_where_member_sums_pass_int64(tmp_path):
    # every member of vtilde(3, 1) below 2 * 3**39 fits int64, but 2 * 3**39
    # plus 2 * 3**38 digitwise does not; golden values from the per-pair tables
    out = tmp_path / "report.json"
    args = ["khinchin", "--p", "3", "--d", "1", "--set", "vtilde", "--q", "4",
            "--N", str(2 * 3**39), "--trials", "3", "--seed", "1", "--out", str(out)]
    assert cli.main(args) == 0
    values = json.loads(out.read_text())["checks"][0]["values"]
    assert values["members"] == 80
    assert values["best_ratio_pow_exact"] == (
        "6755115565620108918832941748602969187093459914147714877585867996771571830772869/"
        "2280213449596379531473777408875632489279633713094068413717309752815217065810053"
    )
    assert (values["ascent_sweeps"], values["moves_scored"], values["moves_accepted"]) == (
        308, 98560, 3199
    )
    # an int64 pass wraps those sums injectively, so the report above holds;
    # only the bins' order, and so the tables, show it
    _assert_same_tables(3, enumerate_members(full_chaos(3, 1), 2 * 3**39), 2)


def test_support_validation_names_the_first_index_outside():
    spec = unit_chaos(3, 1)
    with pytest.raises(ValueError, match="index 5 is outside the index set v"):
        norm_ratio_pow_exact(spec, {1: 1.0, 5: 1.0, 0: 1.0}, 4)
    with pytest.raises(ValueError, match="index 0 is outside"):
        norm_ratio_pow_exact(spec, {0: 1.0, 3: 1.0}, 4)
    with pytest.raises(ValueError, match="index -3 is outside"):
        norm_ratio_pow_exact(spec, {3: 1.0, -3: 1.0}, 4)
    assert norm_ratio_pow_exact(spec, {1: 1.0, 3**50: 1.0}, 4) == Fraction(3, 2)


def _mp_nearest_root(value, q):
    """The double nearest value**(1/q), from mpmath at 400 bits or more.

    The precision holds value's numerator exactly and its quotient to 64 bits
    more, so exact roots and exact ties come out exact, and no other root
    drawn here lies within 2**-340 of a rounding boundary.
    """
    bits = value.numerator.bit_length() + value.denominator.bit_length()
    with mpmath.workprec(max(400, bits + 64)):
        return float(mpmath.root(mpmath.mpf(value.numerator) / value.denominator, q))


@pytest.mark.parametrize(
    "spec, upper, q, trials, seed, optimizer",
    [
        pytest.param(unit_chaos(2, 1), 64, 4, 5, 3, "ascent", id="v21-64-q4"),
        pytest.param(full_chaos(3, 2), 80, 6, 5, 3, "ascent", id="vtilde32-80-q6"),
        pytest.param(unit_chaos(2, 1), 64, 8, 5, 3, "ascent", id="v21-64-q8"),
        pytest.param(full_chaos(3, 2), 242, 4, 5, 3, "ascent", id="vtilde32-242-q4"),
        *(
            pytest.param(full_chaos(3, 2), 26, q, 10, 9, opt, id=f"vtilde32-26-q{q}-{opt}")
            for q in (4, 6)
            for opt in ("ascent", "random")
        ),
    ],
)
def test_even_estimate_reports_the_rounded_root_of_its_certificate(
    spec, upper, q, trials, seed, optimizer
):
    # every even q is certified: ratio**q is the exact rational of the reported
    # point, rebuilt here from fresh tables, and the ratio is its nearest double
    report = estimate_constant(spec, q, upper, trials, seed=seed, optimizer=optimizer)
    members = enumerate_members(spec, upper)
    assert list(report.best_coefficients) == members and report.best_ratio_err is None
    exact = norm_ratio_pow_exact(spec, report.best_coefficients, q)
    assert report.best_ratio_pow_exact == exact
    assert report.best_ratio == _mp_nearest_root(exact, q)
    # the certified point is the one the float objective found
    c = np.array(list(report.best_coefficients.values()), dtype=np.complex128)
    assert report.best_ratio == pytest.approx(_ratio_objective(spec.p, members, q).reset(c), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 4, 6, 8]),
    st.one_of(
        # any positive rational, over a wide range of sizes
        st.tuples(st.integers(1, 2**600), st.integers(1, 2**600)),
        # exact roots: the q-th power of a rational
        st.tuples(st.integers(1, 2**80), st.integers(1, 2**80), st.just("power")),
        # exact ties: a root halfway between two doubles
        st.tuples(st.integers(2**52, 2**53 - 1), st.integers(-60, 60), st.just("tie")),
    ),
)
def test_nearest_root_is_correctly_rounded(q, case):
    if len(case) == 2:
        value = Fraction(*case)
    elif case[2] == "power":
        value = Fraction(case[0], case[1]) ** q
    else:
        # a 54-bit odd significand
        value = (Fraction(2 * case[0] + 1) * Fraction(2) ** case[1]) ** q
    assert khinchin._nearest_root(value, q) == _mp_nearest_root(value, q)


def test_nearest_root_examples():
    assert khinchin._nearest_root(Fraction(16), 4) == 2.0
    assert khinchin._nearest_root(Fraction(81, 16), 4) == 1.5
    for q in (2, 4, 6, 8):
        assert khinchin._nearest_root(Fraction(1), q) == 1.0
        assert khinchin._nearest_root(Fraction(3**q, 2**q), q) == 1.5
    # 1 + 2**-53 lies halfway between 1 and its successor: ties go to the even 1.0,
    # and anything above the tie rounds up
    tie = Fraction(2**53 + 1, 2**53)
    assert khinchin._nearest_root(tie**4, 4) == 1.0
    assert khinchin._nearest_root(tie**4 + Fraction(1, 2**300), 4) == 1.0 + 2**-52
    assert khinchin._nearest_root(Fraction(2**53 + 3, 2**53) ** 6, 6) == 1.0 + 2**-51


@pytest.mark.parametrize(
    "q, optimizer", [(3, opt) for opt in ("ascent", "random")] + [(1, "l1")]
)
def test_float_estimate_reports_one_full_evaluation_of_its_point(q, optimizer):
    # the reported ratio is a fresh scorer's reset at the reported point, bit for
    # bit, so the float error bound proven for that evaluation holds for it; the
    # L1 minimum's scorer is the q = 1 row scorer
    spec, upper = full_chaos(3, 2), 26
    if optimizer == "l1":
        report = estimate_l1_constant(spec, upper, 10, seed=9)
        ratio, err = report.min_l1_ratio, report.min_l1_ratio_err
    else:
        report = estimate_constant(spec, q, upper, 10, seed=9, optimizer=optimizer)
        ratio, err = report.best_ratio, report.best_ratio_err
    members = enumerate_members(spec, upper)
    assert list(report.best_coefficients) == members
    c = np.array(list(report.best_coefficients.values()), dtype=np.complex128)
    objective = _ratio_objective(spec.p, members, q)
    assert ratio == objective.reset(c)
    assert err == khinchin._synthesis_error_bound(c, objective.rows.shape[1], q, ratio)


def test_sum_tables_refuse_a_huge_h_without_building_its_power():
    # 8**(10**12) sums would be refused only after building the power, about 375 GB
    started = time.perf_counter()
    with run_cell_cap(10**40):
        with pytest.raises(RankCapError, match=re.escape(f"8**{10**12} digitwise sums exceed")):
            khinchin._sum_tables(2, list(range(1, 9)), 10**12)
        # a single member's powers are all 1, but h still bounds the work
        with pytest.raises(RankCapError, match=re.escape(f"1**{10**40 + 1} digitwise sums exceed")):
            khinchin._sum_tables(2, [1], 10**40 + 1)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("q", [4, 6])
def test_even_estimate_builds_sum_tables_once(monkeypatch, q):
    spec = full_chaos(3, 2)
    builds = []
    build = khinchin._sum_tables

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(khinchin, "_sum_tables", counted)
    report = estimate_constant(spec, q, 80, 5, seed=3)
    assert len(builds) == 1
    # the certificate from the objective's tables is the one built from scratch
    assert report.best_ratio_pow_exact == norm_ratio_pow_exact(spec, report.best_coefficients, q)
    assert len(builds) == 2


def _exact_cells(coeffs, p):
    """Cell values of sum c_n VC_n from the exact inverse transform, c_n complex floats."""
    i = root_of_unity(4, 1)
    exact = {n: i.scale(Fraction(c.imag)) + Fraction(c.real) for n, c in coeffs.items()}
    return synthesize(exact, p).values


def _mp_ratio(coeffs, p, q):
    """||sum c_n VC_n||_q / ||c||_l2 to 50 digits from the exact cell values."""
    with mpmath.workdps(50):
        norms = []
        cells = _exact_cells(coeffs, p)
        for row in cells.nums:
            z = mpmath.fsum(
                mpmath.mpf(int(n)) / cells.denom * mpmath.expjpi(mpmath.mpf(2 * j) / cells.order)
                for j, n in enumerate(row)
                if n
            )
            norms.append(abs(z) ** q)
        l2 = mpmath.sqrt(mpmath.fsum(abs(mpmath.mpc(c)) ** 2 for c in coeffs.values()))
        return (mpmath.fsum(norms) / len(norms)) ** (mpmath.mpf(1) / q) / l2


@pytest.mark.parametrize(
    "spec, upper", [(unit_chaos(2, 1), 64), (full_chaos(2, 2), 31), (full_chaos(3, 2), 26)]
)
def test_synthesis_error_bound_holds_against_mpmath(spec, upper):
    # q = 3: the ascent's reported ratio; q = 1: single vectors and the L1 minimum
    report = estimate_constant(spec, 3, upper, 5, seed=3)
    cases = [(report.best_coefficients, 3, report.best_ratio, report.best_ratio_err)]
    members = enumerate_members(spec, upper)
    for t in range(3):
        coeffs = dict(zip(members, sample_unit_coefficients(len(members), 11, t) * (t + 0.5)))
        cases.append((coeffs, 1, *_l1_ratio_with_error(spec.p, coeffs)))
    l1 = estimate_l1_constant(spec, upper, 20, seed=5)
    cases.append((l1.best_coefficients, 1, l1.min_l1_ratio, l1.min_l1_ratio_err))
    for coeffs, q, ratio, err in cases:
        assert 0 < err < 1e-12
        assert abs(mpmath.mpf(ratio) - _mp_ratio(coeffs, spec.p, q)) <= err


@pytest.mark.parametrize("spec, upper", [(unit_chaos(2, 1), 2**10), (full_chaos(2, 2), 255)])
def test_l1_error_bound_holds_for_real_dyadic_coefficients(spec, upper):
    # p = 2, real coefficients: the cells are rationals, so the L1 norm is exact
    members = enumerate_members(spec, upper)
    rng = np.random.default_rng(4)
    for scale in (1.0, 1e-3, 37.5):
        coeffs = {n: complex(x) for n, x in zip(members, scale * rng.standard_normal(len(members)))}
        ratio, err = _l1_ratio_with_error(spec.p, coeffs)
        cells = [abs(x) for x in _exact_cells(coeffs, 2).rationals()]
        l1 = sum(cells, Fraction(0)) / len(cells)
        l2_sq = sum(Fraction(c.real) ** 2 for c in coeffs.values())
        lo, hi = Fraction(ratio) - Fraction(err), Fraction(ratio) + Fraction(err)
        assert 0 < lo and lo**2 * l2_sq <= l1**2 <= hi**2 * l2_sq
        assert err < 1e-12


def test_estimate_l1_constant_matches_per_trial_loop():
    spec, upper, trials = unit_chaos(2, 1), 2**8, 300
    members = enumerate_members(spec, upper)
    report = estimate_l1_constant(spec, upper, trials, seed=13)
    worst, worst_t, worst_err = math.inf, None, None
    for t in range(trials):
        c = sample_unit_coefficients(len(members), 13, t)
        val, err = _l1_ratio_with_error(spec.p, dict(zip(members, c)))
        if val < worst:
            worst, worst_t, worst_err = val, t, err
    best = sample_unit_coefficients(len(members), 13, worst_t)
    assert report.best_coefficients == {n: complex(c) for n, c in zip(members, best)}
    assert (report.min_l1_ratio, report.min_l1_ratio_err) == (worst, worst_err)


@pytest.mark.parametrize(
    "estimate",
    [
        lambda spec, upper, trials, seed: estimate_constant(spec, 3, upper, trials, seed),
        lambda spec, upper, trials, seed: estimate_constant(
            spec, 4, upper, trials, seed, optimizer="random"
        ),
        estimate_l1_constant,
    ],
    ids=["ascent", "random", "l1"],
)
def test_each_seeded_start_is_drawn_once(monkeypatch, estimate):
    # both constants draw every (seed, t) start exactly once, in order, and the ascent draws none
    draws, draw = [], khinchin.sample_unit_coefficients

    def counted(count, seed, trial):
        draws.append((seed, trial))
        return draw(count, seed, trial)

    monkeypatch.setattr(khinchin, "sample_unit_coefficients", counted)
    estimate(full_chaos(3, 1), 26, 7, 4)
    assert draws == [(4, t) for t in range(7)]


def test_estimate_l1_constant_runtime():
    started = time.perf_counter()
    estimate_l1_constant(unit_chaos(2, 1), 1024, 10_000, seed=7)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"10k L1 trials took {elapsed:.2f}s (limit 2s)"


def test_l1_examples():
    assert _l1_ratio_with_error(2, {1: 1, 2: 1})[0] == pytest.approx(1 / math.sqrt(2))
    assert _l1_ratio_with_error(2, {8: 1.0})[0] == pytest.approx(1.0)


def test_estimate_constant_monotone_in_trials():
    spec = full_chaos(3, 1)
    values = [
        estimate_constant(spec, 4, 81, trials, seed=5, optimizer="random").best_ratio
        for trials in (5, 20, 60)
    ]
    assert values[0] <= values[1] <= values[2]


def test_estimate_constant_deterministic():
    spec = full_chaos(3, 1)
    a = estimate_constant(spec, 4, 81, 25, seed=11)
    b = estimate_constant(spec, 4, 81, 25, seed=11)
    assert a.best_ratio == b.best_ratio
    assert a.best_ratio_pow_exact == b.best_ratio_pow_exact
    assert a.best_coefficients == b.best_coefficients


def test_estimate_constant_single_trial_at_least_one():
    report = estimate_constant(unit_chaos(2, 1), 4, 4, 1, seed=0, optimizer="random")
    # a single-index vector already gives ratio 1; sampling keeps ratio >= ~1
    assert report.best_ratio >= 0.9
    refined = estimate_constant(unit_chaos(2, 1), 4, 4, 1, seed=0, optimizer="ascent")
    assert refined.best_ratio >= 1.0 - 1e-9


def _per_candidate_ascent(objective, start, step=0.25, decay=0.5, max_failures=10):
    """The ascent as it ran before move scoring: one full evaluation per candidate."""
    c = np.asarray(start, dtype=np.complex128)
    c = c / np.linalg.norm(c)
    best = objective(c)
    failures = 0
    current = step
    while failures < max_failures:
        improved = False
        for i in range(c.size):
            for delta in (current, -current, 1j * current, -1j * current):
                cand = c.copy()
                cand[i] += delta
                cand /= np.linalg.norm(cand)
                val = objective(cand)
                if val > best * (1 + 1e-13):
                    best, c = val, cand
                    improved = True
        if not improved:
            current *= decay
            failures += 1
    return c, best


# 15, 18 and 15 members on grids of 32, 27 and 216 cells
EQUIVALENCE_SETS = [(full_chaos(2, 2), 31), (full_chaos(3, 2), 26), (full_chaos(6, 1), 215)]


@pytest.mark.parametrize("q", [2, 3, 4, 6, 2.5])
@pytest.mark.parametrize("spec, upper", EQUIVALENCE_SETS)
def test_move_scoring_ascent_matches_per_candidate_ascent(spec, upper, q):
    members = enumerate_members(spec, upper)
    objective = _ratio_objective(spec.p, members, q).reset
    for seed in (1, 2):
        start = sample_unit_coefficients(len(members), seed, 0)
        _, want = _per_candidate_ascent(objective, start)
        c, best, counters = _ascent(_ratio_objective(spec.p, members, q), start)
        assert abs(objective(c) - want) <= 1e-9 * want
        assert abs(best - want) <= 1e-9 * want
        assert counters["moves_scored"] == 4 * len(members) * counters["ascent_sweeps"]


@pytest.mark.parametrize("q", [2, 3, 4, 6, 8, 2.5, 1])
def test_move_scores_match_full_evaluation(q):
    spec = full_chaos(3, 2)
    members = enumerate_members(spec, 26)
    scorer, full = _ratio_objective(3, members, q), _ratio_objective(3, members, q)
    c = sample_unit_coefficients(len(members), 5, 0)
    scorer.reset(c)
    deltas = (0.25, -0.25, 0.25j, -0.25j, 0.3 - 0.1j, 2.0)
    for i in (0, 7, len(members) - 1):
        want = [full.reset(_moved(c, i, d)) for d in deltas]
        assert scorer.scores(i, deltas) == pytest.approx(want, rel=1e-12)


def _even_scores_oracle(scorer, i, deltas):
    """The earlier _EvenRatio.scores: columns gathered from the strided sum tables, each score
    summed in the same order.  The scorer must match it bit for bit."""
    count = scorer.point.size
    shifts = [np.arange(count).reshape(1, count)]
    shifts += [flat.reshape(-1, count) for flat, _ in scorer.tables]
    h, levels, norms = scorer.h, scorer.levels, scorer.norms
    gram = [[0j] * (h + 1) for _ in range(h + 1)]
    for k in range(1, h):
        bins = None
        for level in range(h - k, h):
            shift = shifts[level]
            bins = shift[:, i] if bins is None else shift[bins, i]
            gram[h - 1 - level][k] = complex(np.vdot(levels[level + 1][bins], levels[h - k]))
    target = 0
    for level in range(h):
        target = shifts[level][target, i]
        gram[h - 1 - level][h] = complex(levels[level + 1][target]).conjugate()
    ci = complex(scorer.point[i]).conjugate()
    polys = {}
    values = []
    for d in deltas:
        l2_sq = scorer.l2_sq + 2 * (ci * d).real + abs(d) ** 2
        t = abs(d) ** 2
        if t not in polys:
            polys[t] = [
                sum(c * t**j * (norms[h - j] if r == 0 else gram[j][j + r]) for j, c in terms)
                for r, terms in enumerate(scorer.pairs)
            ]
        poly = polys[t]
        gain, power = poly[0], 1
        for r in range(1, h + 1):
            power *= d
            gain += 2 * (power * poly[r]).real
        values.append((norms[h] + gain) ** (1.0 / scorer.q) / math.sqrt(l2_sq))
    return values


@pytest.mark.parametrize("q", [4, 6, 8])
def test_even_move_scores_are_bit_identical_to_the_oracle(q):
    spec = full_chaos(3, 2)
    members = enumerate_members(spec, 26)
    scorer, full = _ratio_objective(3, members, q), _ratio_objective(3, members, q)
    # the mixed-magnitude deltas above, plus two whose |delta|**2 is not dyadic
    deltas = (0.25, -0.25, 0.25j, -0.25j, 0.3 - 0.1j, 2.0, -0.15 + 0.4j, 0.7)
    for trial in (0, 1):
        c = sample_unit_coefficients(len(members), 5, trial)
        scorer.reset(c)
        # the cached sums and the full evaluation, against their np.sum forms
        assert scorer.norms == [float(np.sum(np.abs(g) ** 2)) for g in scorer.levels]
        l2_sq = float(np.sum(np.abs(c) ** 2))
        g = scorer.levels[-1]
        assert full.reset(c) == float(np.sum(np.abs(g) ** 2)) ** (1.0 / q) / math.sqrt(l2_sq)
        for i in (0, 1, 7, 11, len(members) - 1):
            assert scorer.scores(i, deltas) == _even_scores_oracle(scorer, i, deltas)


def test_estimate_constant_q6_runtime():
    started = time.perf_counter()
    estimate_constant(full_chaos(3, 2), 6, 243, 200, seed=7)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.5, f"q = 6 estimate over 51 members took {elapsed:.2f}s (limit 0.5s)"


def test_estimate_l1_constant_floor():
    spec = unit_chaos(2, 1)
    report = estimate_l1_constant(spec, 2**8, 200, seed=3)
    # moment interpolation floor for Rademacher sums: 1/sqrt(3)
    assert report.min_l1_ratio >= 1 / math.sqrt(3) - 1e-6
    assert report.min_l1_ratio <= 1.0 + 1e-9


def test_symmetric_decomposition_examples():
    pieces = symmetric_decomposition(3, 0, 1)
    assert len(pieces) == 2
    dist = pieces[0].distribution()
    assert dist.measure_of(Fraction(1, 2)) == Fraction(1, 3)
    assert dist.measure_of(Fraction(-1, 2)) == Fraction(1, 3)
    assert dist.measure_of(0) == Fraction(1, 3)

    total = pieces[0] + pieces[1]
    assert total.values[0] == 1  # Re R_0 = 1 on [0, 1/3)

    single = symmetric_decomposition(2, 0, 1)
    assert len(single) == 1
    assert single[0] == rademacher(2, 0)


@pytest.mark.parametrize("k", [-1, -2])
def test_symmetric_decomposition_refuses_a_negative_rank(k):
    # k = -1 returned p - 1 rank-0 pieces, and k = -2 named rank -1
    with pytest.raises(ValueError, match=rf"^k must be >= 0, got {k}$"):
        symmetric_decomposition(3, k, 1)


def test_symmetric_decomposition_reconstructs():
    for p in (2, 3, 4, 5, 6, 7):
        for j in range(1, p):
            for k in (0, 1):
                pieces = symmetric_decomposition(p, k, j)
                total = pieces[0]
                for piece in pieces[1:]:
                    total = total + piece
                re_part = StepFn(
                    p,
                    k + 1,
                    [root_of_unity(p, j * (m % p)).real_part() for m in range(p**(k + 1))],
                )
                assert total == re_part
                for piece in pieces:
                    assert piece.distribution().is_symmetric()
                    assert piece.integral().is_zero()


def test_symmetric_decomposition_validation():
    with pytest.raises(ValueError):
        symmetric_decomposition(3, 0, 0)
    with pytest.raises(ValueError):
        symmetric_decomposition(3, 0, 3)


def test_independence_examples():
    # classical Rademacher pair: mu(r_0 = 1, r_1 = -1) = 1/4
    assert independence_check(2, [[1, -1], [1, -1]])
    tables = [
        [root_of_unity(3, (1 * m) % 3) for m in range(3)],
        [root_of_unity(3, (2 * m) % 3) for m in range(3)],
        [root_of_unity(3, (1 * m) % 3) for m in range(3)],
    ]
    assert independence_check(3, tables)
    assert independence_check(5, [[Fraction(7, 2)] * 5])  # constant: single atom


def test_independence_random_tables():
    rng = random.Random(19)
    for p in (2, 3, 5):
        for _ in range(30):
            depth = rng.randint(0, 3)
            tables = [
                [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(p)]
                for _ in range(depth + 1)
            ]
            assert independence_check(p, tables)


def _independence_oracle(p, tables):
    """The product rule tallied with Counters over every digit tuple."""
    keyed = [list(map(tuple, CycloArray.from_values(t).keys().tolist())) for t in tables]
    marginals = [Counter(keys) for keys in keyed]
    joint = Counter(
        tuple(keyed[k][d] for k, d in enumerate(digits))
        for digits in product(range(p), repeat=len(tables))
    )
    return all(
        joint[combo] == math.prod(m[key] for m, key in zip(marginals, combo))
        for combo in product(*marginals)
    )


def test_independence_agrees_with_the_counter_tally():
    rng = random.Random(23)
    for p in (2, 3, 5, 6):
        # few distinct values, so digits repeat them; some irrational (root-of-unity) values
        pool = [
            Fraction(0), Fraction(1), Fraction(-3, 2), root_of_unity(p, 1), root_of_unity(p, p - 1) * 2
        ]
        for depth in range(4):
            for _ in range(5):
                tables = [[rng.choice(pool) for _ in range(p)] for _ in range(depth + 1)]
                assert independence_check(p, tables) == _independence_oracle(p, tables) is True
    # a table given as one CycloArray
    tables = [CycloArray.roots(3, [0, 1, 1]), [1, 2, 1]]
    assert independence_check(3, tables) == _independence_oracle(3, tables) is True


def test_independence_validation():
    with pytest.raises(ValueError):
        independence_check(3, [[1, 2]])  # wrong table size


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_draws_match_a_fresh_philox_generator(seed):
    # the one re-keyed generator draws what Generator(Philox(key=[seed, trial])) draws, in
    # any call order: each call starts from counter 0 with an empty buffer
    for count, trial in [(5, 3), (1, 0), (64, 2**64 - 1), (5, 3), (7, 12)]:
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))
        z = rng.standard_normal(2 * count)
        c = z[0::2] + 1j * z[1::2]
        expected = c / np.linalg.norm(c)
        got = sample_unit_coefficients(count, seed, trial)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_threads_draw_independently():
    # each thread re-keys its own generator, so concurrent draws stay the keyed ones
    expected = {t: sample_unit_coefficients(8, 3, t).tobytes() for t in range(50)}
    mismatches = []

    def draw(offset):
        for i in range(400):
            t = (i + offset) % 50
            if sample_unit_coefficients(8, 3, t).tobytes() != expected[t]:
                mismatches.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=draw, args=(13 * w,)) for w in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert mismatches == []
