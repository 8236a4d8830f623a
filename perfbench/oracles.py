"""Output oracles for the benchmark.

Every oracle recomputes what it checks from the definitions in the project
README with numpy and ``fractions`` alone; none of them imports ``vcchaos``.
Each ``check_*`` function returns a list of problems, empty when the output
is accepted.

Reference transform (README "Conventions"): ``VC[n, m] = w**(sum_j n_j x_j(m))``
with ``n_j`` the base-p digits of n (least significant first) and ``x_j(m)``
the point digits of the left endpoint ``m / p**k``, i.e. digit ``k-1-j`` of m.
Forward is ``p**-k * conj(VC) @ x``, inverse is ``VC @ c``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EPS = 2.0**-52


def rank_of(length: int, p: int) -> int:
    k, n = 0, length
    while n > 1:
        if n % p:
            raise ValueError(f"length {length} is not a power of {p}")
        n //= p
        k += 1
    return k


def _digits(idx: np.ndarray, p: int, k: int) -> np.ndarray:
    """(len(idx), k) base-p digits, least significant first."""
    out = np.empty((idx.size, k), dtype=np.int64)
    rest = np.asarray(idx, dtype=np.int64).copy()
    for j in range(k):
        out[:, j] = rest % p
        rest //= p
    return out


def vc_rows(rows, p: int, k: int, sign: int = 1) -> np.ndarray:
    """Dense rows ``w**(sign * <n, x(m)>)`` of the rank-k VC matrix for n in rows."""
    n_digits = _digits(np.asarray(rows), p, k)
    point_digits = _digits(np.arange(p**k), p, k)[:, ::-1]
    exponents = (n_digits @ point_digits.T) % p
    return np.exp(sign * 2j * np.pi * np.arange(p) / p)[exponents]


def dense_apply(vec, p: int, direction: str, block: int = 128) -> np.ndarray:
    """Transform by dense VC-matrix products, a block of rows at a time."""
    vec = np.asarray(vec, dtype=np.complex128)
    k = rank_of(vec.size, p)
    sign = -1 if direction == "forward" else 1
    out = np.empty(vec.size, dtype=np.complex128)
    for lo in range(0, vec.size, block):
        rows = np.arange(lo, min(lo + block, vec.size))
        out[rows] = vc_rows(rows, p, k, sign) @ vec
    return out / vec.size if direction == "forward" else out


def fft_apply(vec, p: int, direction: str) -> np.ndarray:
    """The same transform through numpy's FFT, for sizes a dense matrix cannot hold.

    Axis i of the (p,)*k tensor is digit k-1-i of the cell index, which the
    convention pairs with digit i of the coefficient index, so the result is
    read out with its axes reversed.
    """
    vec = np.asarray(vec, dtype=np.complex128)
    k = rank_of(vec.size, p)
    if k == 0:
        return vec.copy()
    tensor = vec.reshape((p,) * k)
    if direction == "forward":
        out = np.fft.fftn(tensor) / vec.size
    else:
        out = np.fft.ifftn(tensor) * vec.size
    return out.transpose(tuple(reversed(range(k)))).reshape(vec.size)


def transform_bound(vec, p: int, direction: str) -> float:
    """Absolute error allowed between two float evaluations of the transform.

    Each of the k radix-p stages sums p unit-modulus products, adding at most
    (p + 3) ulps of the l1 mass feeding an entry, and that mass never exceeds
    sum|x|; forward divides by p**k.  Twice that covers the reference's own
    rounding.
    """
    vec = np.asarray(vec, dtype=np.complex128)
    k = rank_of(vec.size, p)
    mass = float(np.sum(np.abs(vec)))
    if direction == "forward":
        mass /= vec.size
    return 2 * (k * (p + 3) + 4) * EPS * (mass + 1e-300)


# -- sharpness -------------------------------------------------------------------


def check_sharpness(report: dict, p: int, d: int) -> list[str]:
    """Closed forms: level sets of measure 1-((p-1)/p)**d and 1-p**-d, supports 2**d and p**d."""
    problems = []
    expected = {
        "unit-chaos-witness": (1 - Fraction(p - 1, p) ** d, 2**d),
        "full-chaos-witness": (1 - Fraction(1, p**d), p**d),
    }
    checks = {c.get("name"): c for c in report.get("checks", [])}
    if report.get("all_passed") is not True:
        problems.append("report says not all checks passed")
    for name, (measure, support) in expected.items():
        check = checks.get(name)
        if check is None:
            problems.append(f"missing check {name}")
            continue
        values = check.get("values", {})
        if check.get("status") != "pass":
            problems.append(f"{name} did not pass")
        if Fraction(values.get("level_set_measure", "-1")) != measure:
            problems.append(f"{name} level-set measure {values.get('level_set_measure')} != {measure}")
        if Fraction(values.get("threshold", "-1")) != 1 - measure:
            problems.append(f"{name} threshold {values.get('threshold')} != {1 - measure}")
        if values.get("support_size") != support:
            problems.append(f"{name} support {values.get('support_size')} != {support}")
    return problems


# -- verify ------------------------------------------------------------------------

VERIFY_CHECKS = (
    "inverse-identity",
    "orthonormality-sample",
    "parseval",
    "multiplicativity",
    "operator-norm",
    "overlap-bound-audit",
    "independence-product-rule",
    "symmetric-decomposition",
    "index-counts",
    "pattern-multiplicity",
)


def check_verify(report: dict, p: int, max_rank: int, seed: int) -> list[str]:
    """Every identity of the suite is present and passed, for the config we asked for."""
    problems = []
    config = report.get("config", {})
    if (config.get("p"), config.get("max_rank"), config.get("seed")) != (p, max_rank, seed):
        problems.append(f"config echo {config} does not match the request")
    checks = {c.get("name"): c for c in report.get("checks", [])}
    if tuple(sorted(checks)) != tuple(sorted(VERIFY_CHECKS)):
        problems.append(f"check names {sorted(checks)} differ from the suite")
    problems += [f"{n} did not pass" for n, c in checks.items() if c.get("status") != "pass"]
    parseval = checks.get("parseval", {}).get("values", {})
    if parseval.get("lhs") != parseval.get("rhs"):
        problems.append(f"parseval sides differ: {parseval}")
    if report.get("all_passed") is not True:
        problems.append("report says not all checks passed")
    return problems


# -- index sets ----------------------------------------------------------------------


def members(kind: str, p: int, d: int, upper: int) -> list[int]:
    """Brute-force digit filter over 1..upper: weight <= d, unit digits only for 'v'."""
    n = np.arange(1, upper + 1)
    k = max(1, rank_of_ceiling(upper, p))
    digits = _digits(n, p, k)
    keep = np.count_nonzero(digits, axis=1) <= d
    if kind == "v":
        keep &= np.all(digits <= 1, axis=1)
    elif kind != "vtilde":
        raise ValueError(f"no brute-force filter for set {kind!r}")
    return n[keep].tolist()


def rank_of_ceiling(upper: int, p: int) -> int:
    """Smallest k with p**k > upper."""
    k = 0
    while p**k <= upper:
        k += 1
    return k


def check_index(lines: list[str], kind: str, p: int, d: int, upper: int) -> list[str]:
    try:
        got = [int(s) for s in lines if s.strip()]
    except ValueError:
        return ["index output is not one integer per line"]
    want = members(kind, p, d, upper)
    if got != want:
        missing = sorted(set(want) - set(got))[:5]
        extra = sorted(set(got) - set(want))[:5]
        return [f"index stream differs: {len(got)} vs {len(want)} members, missing {missing}, extra {extra}"]
    return []


# -- transforms ------------------------------------------------------------------------


def check_exact_roundtrip(x: np.ndarray, coeffs: np.ndarray, p: int) -> list[str]:
    """The dense inverse of the forward output must give back the integer input exactly.

    The coefficients arrive as floats with per-entry error ~(p + 8) ulps of
    their magnitude; a length-N dense product adds N ulps of sum|c| per cell.
    """
    if coeffs.shape != x.shape:
        return [f"output has {coeffs.size} entries, input {x.size}"]
    back = dense_apply(coeffs, p, "inverse")
    bound = (x.size + p + 24) * EPS * float(np.sum(np.abs(coeffs)))
    err = float(np.max(np.abs(back - x)))
    problems = []
    if not np.array_equal(np.rint(back.real), x.real) or err > bound:
        problems.append(f"round trip off by {err:.3e} (bound {bound:.3e})")
    return problems


def check_float_transform(x: np.ndarray, out: np.ndarray, p: int, direction: str, reference=None) -> list[str]:
    if out.shape != x.shape:
        return [f"output has {out.size} entries, input {x.size}"]
    if reference is None:
        reference = fft_apply(x, p, direction)
    bound = transform_bound(x, p, direction)
    err = float(np.max(np.abs(out - reference)))
    return [] if err <= bound else [f"float transform off by {err:.3e} (bound {bound:.3e})"]


# -- khinchin --------------------------------------------------------------------------


def sample_unit(count: int, seed: int, trial: int) -> np.ndarray:
    """The documented sampler: Philox keyed by (seed, trial), complex Gaussian, unit norm."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))
    z = rng.standard_normal(2 * count)
    c = z[0::2] + 1j * z[1::2]
    return c / np.linalg.norm(c)


def replay_trials(p: int, idx: list[int], q: float, seed: int, trials: int, batch: int = 256):
    """Ratios ||sum c_n VC_n||_q / ||c||_2 of every seeded start, via dense synthesis.

    Returns (ratios, error bound per ratio).  The synthesized cell values are
    length-M dot products with unit-modulus entries and sum|c| <= sqrt(M), so
    each cell is off by at most (M + 8) sqrt(M) ulps; by Minkowski the q-norm
    moves by no more than that, plus the rounding of the mean and the root.
    """
    rows = vc_rows(idx, p, rank_of_ceiling(max(idx), p))
    ratios = np.empty(trials)
    for lo in range(0, trials, batch):
        block = np.array([sample_unit(len(idx), seed, t) for t in range(lo, min(lo + batch, trials))])
        values = np.abs(block @ rows)
        ratios[lo : lo + len(block)] = np.mean(values**q, axis=1) ** (1.0 / q)
    return ratios, replay_error(len(idx), q, ratios)


def replay_error(m: int, q: float, ratios):
    return (m + 8) * math.sqrt(m) * EPS + 8 * (q + 1) * EPS * ratios


def dense_ratio(p: int, idx: list[int], q: float):
    """The objective c -> ||sum c_n VC_n||_q / ||c||_2, by dense synthesis."""
    rows = vc_rows(idx, p, rank_of_ceiling(max(idx), p))

    def ratio(c: np.ndarray) -> float:
        return float(np.mean(np.abs(c @ rows) ** q) ** (1.0 / q)) / float(np.linalg.norm(c))

    return ratio


def coordinate_ascent(objective, start: np.ndarray, step: float = 0.25, decay: float = 0.5,
                      max_failures: int = 10, accept: float = 1 + 1e-13) -> float:
    """The ascent the program documents, run on the oracle's own objective; returns the best value.

    Per coordinate it tries +-step and +-i*step, renormalizing each move, and
    keeps a move that beats the best value by the factor ``accept``; a sweep
    without improvement scales the step by ``decay``, and the search stops
    after ``max_failures`` such sweeps.
    """
    c = np.asarray(start, dtype=np.complex128)
    c = c / np.linalg.norm(c)
    best = objective(c)
    failures, current = 0, step
    while failures < max_failures:
        improved = False
        for i in range(c.size):
            for delta in (current, -current, 1j * current, -1j * current):
                cand = c.copy()
                cand[i] += delta
                cand /= np.linalg.norm(cand)
                val = objective(cand)
                if val > best * accept:
                    best, c, improved = val, cand, True
        if not improved:
            current *= decay
            failures += 1
    return best


def digit_add_table(left, right, p: int) -> np.ndarray:
    """(len(left), len(right)) table of carry-free digitwise sums mod p."""
    k = max(1, rank_of_ceiling(max(max(left), max(right)), p))
    a, b = _digits(np.asarray(left), p, k), _digits(np.asarray(right), p, k)
    sums = (a[:, None, :] + b[None, :, :]) % p
    return sums @ (p ** np.arange(k, dtype=np.int64))


def exact_ratio_pow(p: int, idx: list[int], coeffs: np.ndarray, q: int) -> Fraction:
    """Exact ratio**q of float coefficients, for even q, in Gaussian integers.

    E|f|**q = sum_t |(c * ... * c)_t|**2 over the (q/2)-fold convolution
    under digitwise addition (the characters multiply as VC_a VC_b = VC_{a+b}).
    Every float is an integer over a power of two, so after scaling by a
    common 2**L the convolution is exact in Python integers, and the scale
    cancels in moment / ||c||**q.
    """
    parts = [Fraction(x) for c in coeffs for x in (c.real, c.imag)]
    scale = max(f.denominator for f in parts)
    ints = [(int(parts[2 * i] * scale), int(parts[2 * i + 1] * scale)) for i in range(len(idx))]
    conv = dict(zip(idx, ints))
    for _ in range(q // 2 - 1):
        table = digit_add_table(list(conv), idx, p).tolist()
        out: dict[int, tuple[int, int]] = {}
        for row, (ar, ai) in zip(table, conv.values()):
            for t, (br, bi) in zip(row, ints):
                r, i = out.get(t, (0, 0))
                out[t] = (r + ar * br - ai * bi, i + ar * bi + ai * br)
        conv = out
    moment = sum(r * r + i * i for r, i in conv.values())
    return Fraction(moment, sum(r * r + i * i for r, i in ints) ** (q // 2))


def khinchin_cap(kind: str, p: int, d: int, q, count: int):
    """Upper bound for ratio**q over unit coefficient vectors on `count` members.

    General (q >= 2): ||f||_q**q <= ||f||_inf**(q-2) ||f||_2**2 and ||f||_inf <=
    sum|c_n| <= sqrt(M) ||c||, so ratio**q <= M**((q-2)/2), a Fraction for even q.
    Rademacher case (p = 2, unit chaos of order 1, q = 4): E|f|**4 = 3 - 2 sum|c_n|**4
    minus a nonnegative term, so ratio**4 <= 3 - 2/M.
    """
    if (kind, p, d, q) == ("v", 2, 1, 4):
        return 3 - Fraction(2, count)
    if float(q).is_integer() and int(q) % 2 == 0:
        return Fraction(count) ** ((int(q) - 2) // 2)
    return count ** ((q - 2) / 2)


# relative distance allowed between the reported ascent result and the
# oracle's ascent from the same start: the two objectives round differently,
# so a late accept/reject near the 1e-13 threshold can fork the paths, and
# forks that late end within O(final step**2) ~ 1e-7 of the same maximum
ASCENT_RTOL = 1e-6


def check_khinchin(report: dict, op: dict, replays: dict) -> list[str]:
    """Recompute the reported ratio from the seeded starts and compare it.

    The oracle replays every seeded random start with its own Philox sampler
    and dense synthesis, and takes the best (every start within rounding of
    the best, in case of a near tie).  With ``--optimizer random`` the
    report must be that start's ratio: exactly its rational ratio**q in
    exact mode for even q, and within the error bounds otherwise.  With
    ``--optimizer ascent`` the oracle runs the documented coordinate ascent
    from that start on its own objective, and the report must match the
    result to ASCENT_RTOL.  The ratio must also stay under its cap, and with
    ``--l1`` the minimum L1 ratio over the same starts is recomputed.
    ``replays`` keeps the oracle's results between calls for the same operation.
    """
    p, d, q, kind = op["p"], op["d"], op["q"], op["set"]
    problems = []
    checks = {c.get("name"): c for c in report.get("checks", [])}
    main = checks.get("lacunarity-constant-estimate")
    if main is None:
        return ["missing lacunarity-constant-estimate"]
    values = main.get("values", {})
    if main.get("status") != "pass" or report.get("all_passed") is not True:
        problems.append("estimate did not pass")
    idx = members(kind, p, d, op["N"])
    if values.get("members") != len(idx):
        return problems + [f"members {values.get('members')} != brute force {len(idx)}"]
    ratio = values.get("best_ratio")
    if not isinstance(ratio, float) or not math.isfinite(ratio):
        return problems + [f"best_ratio {ratio!r} is not a finite float"]
    cap = khinchin_cap(kind, p, d, q, len(idx))
    exact = op["mode"] == "exact" and isinstance(cap, Fraction)
    if exact:
        pow_exact = Fraction(values.get("best_ratio_pow_exact", "-1"))
        if abs(float(pow_exact) ** (1.0 / q) - ratio) > 4 * EPS * ratio:
            problems.append(f"best_ratio {ratio} is not the q-th root of {pow_exact}")
        if pow_exact > cap:
            problems.append(f"ratio**{q} = {float(pow_exact)} exceeds its cap {float(cap)}")
        tol = 0.0
    else:
        tol = values.get("best_ratio_err")
        if not isinstance(tol, float) or not 0 <= tol < 1e-6:
            return problems + [f"best_ratio_err {tol!r} missing or implausible"]
        if (ratio - tol) ** q > float(cap) * (1 + 1e-12):
            problems.append(f"ratio**{q} = {(ratio - tol) ** q} exceeds its cap {float(cap)}")

    if "q" not in replays:
        replays["q"] = replay_trials(p, idx, q, op["seed"], op["trials"])
    ratios, err = replays["q"]
    # the program's float objective differs from the replay by its own
    # rounding, (M**2 + 16) ulps covers the pair-table sums
    slack = err + (len(idx) ** 2 + 16) * EPS * ratios
    top = int(np.argmax(ratios))
    starts = [int(t) for t in np.flatnonzero(ratios >= ratios[top] - slack[top] - slack)]
    if op["optimizer"] == "random":
        if exact:
            if "exact" not in replays:
                replays["exact"] = [exact_ratio_pow(p, idx, sample_unit(len(idx), op["seed"], t), q) for t in starts]
            if pow_exact not in replays["exact"]:
                problems.append(f"ratio**{q} = {float(pow_exact)} is not the exact value of the best start, "
                                f"{[float(v) for v in replays['exact']]}")
        elif not any(abs(ratio - ratios[t]) <= tol + slack[t] for t in starts):
            problems.append(f"ratio {ratio} != best seeded start {ratios[top]} (+- {tol + slack[top]:.2e})")
    else:
        if "ascent" not in replays:
            objective = dense_ratio(p, idx, q)
            replays["ascent"] = [coordinate_ascent(objective, sample_unit(len(idx), op["seed"], t)) for t in starts]
        if not any(abs(ratio - want) <= tol + ASCENT_RTOL * want for want in replays["ascent"]):
            problems.append(f"ratio {ratio} != the oracle's ascent to {replays['ascent']} "
                            f"(relative tolerance {ASCENT_RTOL})")
    if op["l1"]:
        if "l1" not in replays:
            replays["l1"] = replay_trials(p, idx, 1.0, op["seed"], op["trials"])
        problems += _check_l1(checks.get("l1-lower-constant-estimate"), replays["l1"])
    return problems


def _check_l1(check: dict | None, replay) -> list[str]:
    if check is None:
        return ["missing l1-lower-constant-estimate"]
    values = check.get("values", {})
    got, got_err = values.get("min_l1_ratio"), values.get("min_l1_ratio_err")
    if not isinstance(got, float) or not isinstance(got_err, float):
        return [f"l1 values malformed: {values}"]
    ratios, err = replay
    worst = int(np.argmin(ratios))
    if abs(got - ratios[worst]) > got_err + err[worst]:
        return [f"min L1 ratio {got} != replayed {ratios[worst]} (+- {got_err + err[worst]:.2e})"]
    if not 0 < got <= 1 + got_err:
        return [f"min L1 ratio {got} outside (0, 1]"]
    return []
