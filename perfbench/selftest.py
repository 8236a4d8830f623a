"""Self-tests of the oracles: each must accept a correct output and reject a corrupted one.

Run standalone with ``python3 perfbench/selftest.py`` (exit 0 when all hold);
run.py also runs them before measuring and reports ``correct: false`` if any
fails.  The correct outputs are built from closed forms and from the
oracles' own reference transforms, never from vcchaos.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction

import numpy as np

import oracles


def _sharpness_report(p: int, d: int) -> dict:
    unit = Fraction(p - 1, p) ** d
    full = Fraction(1, p**d)

    def check(name, threshold, support):
        measure = 1 - threshold
        values = {
            "threshold": f"{threshold.numerator}/{threshold.denominator}",
            "level_set_measure": f"{measure.numerator}/{measure.denominator}",
            "support_size": support,
        }
        return {"name": name, "status": "pass", "values": values}

    return {
        "all_passed": True,
        "checks": [check("unit-chaos-witness", unit, 2**d), check("full-chaos-witness", full, p**d)],
    }


def _expect(failures: list[str], label: str, problems: list[str], accept: bool) -> None:
    if accept and problems:
        failures.append(f"{label}: correct output rejected: {problems}")
    if not accept and not problems:
        failures.append(f"{label}: corrupted output accepted")


def check_references(failures: list[str]) -> None:
    """The FFT reference equals the dense-matrix definition, and the matrix is unitary up to p**k."""
    rng = np.random.default_rng(1)
    for p, k in ((2, 5), (3, 3), (6, 2)):
        x = rng.standard_normal(p**k) + 1j * rng.standard_normal(p**k)
        for direction in ("forward", "inverse"):
            err = np.max(np.abs(oracles.fft_apply(x, p, direction) - oracles.dense_apply(x, p, direction)))
            if err > oracles.transform_bound(x, p, direction):
                failures.append(f"fft and dense references differ by {err:.2e} at p={p}, k={k}, {direction}")
        vc = oracles.vc_rows(np.arange(p**k), p, k)
        if np.max(np.abs(vc @ vc.conj().T - p**k * np.eye(p**k))) > 1e-9:
            failures.append(f"dense VC matrix is not p**k times unitary at p={p}, k={k}")


def check_sharpness(failures: list[str]) -> None:
    p, d = 3, 2
    good = _sharpness_report(p, d)
    _expect(failures, "sharpness", oracles.check_sharpness(good, p, d), True)
    for which in (0, 1):
        bad = copy.deepcopy(good)
        values = bad["checks"][which]["values"]
        off = Fraction(values["level_set_measure"]) - Fraction(1, p**d)  # one cell less
        values["level_set_measure"] = f"{off.numerator}/{off.denominator}"
        _expect(failures, f"sharpness level set off by one cell ({which})", oracles.check_sharpness(bad, p, d), False)
    bad = copy.deepcopy(good)
    bad["checks"][0]["values"]["support_size"] += 1
    _expect(failures, "sharpness support size", oracles.check_sharpness(bad, p, d), False)


def check_transforms(failures: list[str]) -> None:
    rng = np.random.default_rng(2)
    p, k = 3, 4
    x = rng.integers(-9, 10, p**k).astype(complex)
    coeffs = oracles.dense_apply(x, p, "forward")
    _expect(failures, "exact round trip", oracles.check_exact_roundtrip(x, coeffs, p), True)
    bad = coeffs.copy()
    bad[rng.integers(p**k)] += 1e-9
    _expect(failures, "exact round trip, one coefficient perturbed", oracles.check_exact_roundtrip(x, bad, p), False)

    p, k = 2, 10
    x = rng.standard_normal(p**k) + 1j * rng.standard_normal(p**k)
    for direction in ("forward", "inverse"):
        out = oracles.dense_apply(x, p, direction)
        _expect(failures, f"float {direction}", oracles.check_float_transform(x, out, p, direction), True)
        bad = out.copy()
        bad[rng.integers(p**k)] *= 1 + 1e-9
        _expect(failures, f"float {direction}, one coefficient perturbed",
                oracles.check_float_transform(x, bad, p, direction), False)


def check_index(failures: list[str]) -> None:
    want = [str(n) for n in oracles.members("vtilde", 3, 2, 500)]
    if want[:6] != ["1", "2", "3", "4", "5", "6"] or "13" in want:
        failures.append(f"brute-force vtilde(3,2) members look wrong: {want[:12]}")
    _expect(failures, "index", oracles.check_index(want, "vtilde", 3, 2, 500), True)
    _expect(failures, "index, member dropped", oracles.check_index(want[:-1], "vtilde", 3, 2, 500), False)
    _expect(failures, "index, member added", oracles.check_index(want + ["501"], "vtilde", 3, 2, 500), False)


def _khinchin_report(ratio: float, members: int, pow_exact: Fraction | None = None,
                     ratio_err: float | None = None, min_l1: float | None = None) -> dict:
    values = {"best_ratio": ratio, "members": members}
    if pow_exact is not None:
        values["best_ratio_pow_exact"] = f"{pow_exact.numerator}/{pow_exact.denominator}"
    if ratio_err is not None:
        values["best_ratio_err"] = ratio_err
    checks = [{"name": "lacunarity-constant-estimate", "status": "pass", "values": values}]
    if min_l1 is not None:
        checks.append({"name": "l1-lower-constant-estimate", "status": "pass",
                       "values": {"min_l1_ratio": min_l1, "min_l1_ratio_err": 1e-14, "members": members}})
    return {"all_passed": True, "checks": checks}


def check_khinchin(failures: list[str]) -> None:
    # exact mode, q = 4 Rademacher case (p = 2, unit chaos of order 1)
    op = {"p": 2, "d": 1, "set": "v", "q": 4, "N": 64, "trials": 40, "seed": 7, "mode": "exact", "l1": True,
          "optimizer": "random"}
    idx = oracles.members("v", 2, 1, 64)
    ratios, _ = oracles.replay_trials(2, idx, 4, op["seed"], op["trials"])
    l1 = oracles.replay_trials(2, idx, 1.0, op["seed"], op["trials"])
    min_l1 = float(np.min(l1[0]))
    best = oracles.sample_unit(len(idx), op["seed"], int(np.argmax(ratios)))
    start = oracles.exact_ratio_pow(2, idx, best, 4)
    cap = 3 - Fraction(2, len(idx))

    def exact(pow_exact: Fraction, l1_value: float = min_l1) -> dict:
        return _khinchin_report(float(pow_exact) ** 0.25, len(idx), pow_exact=pow_exact, min_l1=l1_value)

    def judge(report: dict, optimizer: str) -> list[str]:
        return oracles.check_khinchin(report, dict(op, optimizer=optimizer), {"l1": l1})

    if abs(float(start) ** 0.25 - float(np.max(ratios))) > 1e-12:
        failures.append(f"exact and dense ratios of the best start differ: {float(start) ** 0.25} {np.max(ratios)}")
    _expect(failures, "khinchin random", judge(exact(start), "random"), True)
    _expect(failures, "khinchin random, ratio**4 off by 1e-15",
            judge(exact(start * (1 + Fraction(1, 10**15))), "random"), False)
    _expect(failures, "khinchin random, ratio above its cap", judge(exact(cap + Fraction(1, 10**6)), "random"), False)
    _expect(failures, "khinchin, L1 minimum perturbed", judge(exact(start, min_l1 + 1e-9), "random"), False)
    top = Fraction(oracles.coordinate_ascent(oracles.dense_ratio(2, idx, 4), best)) ** 4
    _expect(failures, "khinchin ascent", judge(exact(top), "ascent"), True)
    _expect(failures, "khinchin ascent, ascent skipped", judge(exact(start), "ascent"), False)
    _expect(failures, "khinchin ascent, ratio 1e-5 high", judge(exact(top * Fraction(1 + 1e-5) ** 4), "ascent"), False)

    # float mode, q = 3: no certificate, the reported error bound is the allowance
    op = {"p": 3, "d": 2, "set": "vtilde", "q": 3, "N": 26, "trials": 20, "seed": 5, "mode": "float", "l1": False}
    idx = oracles.members("vtilde", 3, 2, 26)
    ratios, _ = oracles.replay_trials(3, idx, 3, op["seed"], op["trials"])
    start = float(np.max(ratios))
    top = oracles.coordinate_ascent(oracles.dense_ratio(3, idx, 3), oracles.sample_unit(len(idx), 5, int(np.argmax(ratios))))

    def judge_float(ratio: float, optimizer: str) -> list[str]:
        return oracles.check_khinchin(_khinchin_report(ratio, len(idx), ratio_err=1e-12), dict(op, optimizer=optimizer), {})

    _expect(failures, "khinchin q=3 random", judge_float(start, "random"), True)
    _expect(failures, "khinchin q=3 random, ratio off by 1e-9", judge_float(start - 1e-9, "random"), False)
    _expect(failures, "khinchin q=3 ascent", judge_float(top, "ascent"), True)
    _expect(failures, "khinchin q=3 ascent, ascent skipped", judge_float(start, "ascent"), False)
    _expect(failures, "khinchin q=3, ratio above its cap", judge_float(len(idx) ** (1 / 6) * 1.001, "ascent"), False)


def run_all() -> list[str]:
    failures: list[str] = []
    for check in (check_references, check_sharpness, check_transforms, check_index, check_khinchin):
        check(failures)
    return failures


if __name__ == "__main__":
    problems = run_all()
    for problem in problems:
        print(problem)
    print(f"oracle self-tests: {'FAILED' if problems else 'all passed'}")
    sys.exit(1 if problems else 0)
