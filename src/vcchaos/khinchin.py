"""Norm-ratio estimation and exact moment identities for chaos expansions.

The L2 norm of sum(c_n VC_n) is the l2 norm of the coefficients, and because
VC_a * VC_b = VC at the digitwise sum of a and b, every even moment is exact
coefficient combinatorics:

    integral |f|**(2h) = sum_m |g_m|**2,   g = h-fold digitwise convolution of c.

One kernel computes it, a digitwise-sum table iterated h - 1 times, with two
bindings: complex128 arrays drive the optimizer, and Gaussian-integer
numerators over one common denominator certify ratios exactly (floats are
dyadic rationals).  Randomness is counter-based (Philox keyed by (seed,
trial)), so trials are reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from .cyclo import CycloValue, root_of_unity
from .indices import IndexSpec, contains, enumerate_members
from .pary import RankCapError, cell_cap, check_rank, digit_count, digitwise_add
from .stepfn import StepFn
from .vc import vc_transform_float


def _is_even(q) -> bool:
    return isinstance(q, int) and q >= 2 and q % 2 == 0


def _sum_tables(p: int, members: Sequence[int], h: int, cap: int | None) -> list[tuple]:
    """Index tables (flat, bins) of the h-fold digitwise convolution over `members`.

    Level-1 targets are the members in order; level j+1 targets are the
    sorted digitwise sums of a level-j target and a member, and flat maps
    (target i, member m), at i * len(members) + m, to the position of their
    sum among the bins level-(j+1) targets.  There are h - 1 tables of at
    most members**h entries, and both counts are checked against the cell
    cap before any sum is taken (a huge h never builds the big integer).
    """
    limit = cap if cap is not None else cell_cap()
    count = len(members)
    if h > limit or count ** min(h, 64) > limit or count**h > limit:
        raise RankCapError(f"{count}**{h} digitwise sums exceed the cell cap {limit}")
    tables = []
    targets = list(members)
    for _ in range(h - 1):
        sums = [digitwise_add(t, m, p) for t in targets for m in members]
        targets = sorted(set(sums))
        position = {t: i for i, t in enumerate(targets)}
        tables.append((np.array([position[s] for s in sums], dtype=np.intp), len(targets)))
    return tables


def _exact_power_sums(
    p: int, coeffs: Mapping[int, object], q: int, cap: int | None = None
) -> tuple[int, int, int]:
    """(S_1, S_h, D) for even q = 2h: c has Gaussian-integer numerators over D.

    S_1 and S_h are the sums of |g|**2 over the numerators of c and of their
    h-fold convolution, so integral |f|**q = S_h / D**q and ratio**q = S_h / S_1**h.
    """
    if q < 2 or q % 2:
        raise ValueError(f"q must be a positive even integer, got {q}")
    ratios = []
    for v in coeffs.values():
        if isinstance(v, complex):
            ratios += (v.real.as_integer_ratio(), v.imag.as_integer_ratio())
        elif isinstance(v, (int, float, Fraction)):
            ratios += (v.as_integer_ratio(), (0, 1))
        else:
            raise TypeError(f"cannot convert {type(v).__name__} to an exact complex")
    denom = math.lcm(*(d for _, d in ratios))
    nums = np.array([n * (denom // d) for n, d in ratios], dtype=object)
    re, im = nums[0::2], nums[1::2]
    g_re, g_im, outer = re, im, np.multiply.outer
    for flat, bins in _sum_tables(p, list(coeffs), q // 2, cap):
        next_re, next_im = np.zeros(bins, dtype=object), np.zeros(bins, dtype=object)
        np.add.at(next_re, flat, (outer(g_re, re) - outer(g_im, im)).ravel())
        np.add.at(next_im, flat, (outer(g_re, im) + outer(g_im, re)).ravel())
        g_re, g_im = next_re, next_im
    return int((re * re + im * im).sum()), int((g_re * g_re + g_im * g_im).sum()), denom


def moment_even_pow_exact(p: int, coeffs: Mapping[int, object], q: int) -> Fraction:
    """Exact integral of |sum c_n VC_n|**q for even q, from coefficients alone."""
    _, s_h, denom = _exact_power_sums(p, coeffs, q)
    return Fraction(s_h, denom**q)


def fourth_moment_exact(p: int, coeffs: Mapping[int, object]) -> Fraction:
    """Exact integral of |sum c_n VC_n|**4 (squared l2 norm of c convolved with c)."""
    return moment_even_pow_exact(p, coeffs, 4)


def _validate_support(spec: IndexSpec, coeffs: Mapping[int, object]) -> None:
    if not coeffs:
        raise ValueError("coefficient vector is empty")
    for n in coeffs:
        if n < 1 or not contains(spec, n):
            raise ValueError(f"index {n} is outside the index set {spec.describe()}")


def norm_ratio_pow_exact(
    spec: IndexSpec, coeffs: Mapping[int, object], q: int, cap: int | None = None
) -> Fraction:
    """Exact rational (||sum c_n VC_n||_q / ||c||_l2)**q for even q."""
    _validate_support(spec, coeffs)
    s_1, s_h, _ = _exact_power_sums(spec.p, coeffs, q, cap)
    if s_1 == 0:
        raise ValueError("coefficient vector is zero")
    return Fraction(s_h, s_1 ** (q // 2))


def _synthesize_float(p: int, coeffs: Mapping[int, complex], cap: int | None = None) -> np.ndarray:
    rank = max((digit_count(n, p) for n in coeffs), default=0)
    cells = check_rank(p, rank, cap)
    vec = np.zeros(cells, dtype=np.complex128)
    for n, c in coeffs.items():
        vec[n] = c
    return vc_transform_float(vec, p, "inverse")


def norm_ratio(spec: IndexSpec, coeffs: Mapping[int, object], q) -> float:
    """||sum c_n VC_n||_q / ||c||_l2; exact arithmetic for even integer q."""
    _validate_support(spec, coeffs)
    if _is_even(q):
        return float(norm_ratio_pow_exact(spec, coeffs, q)) ** (1.0 / q)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    cvals = {n: complex(c) for n, c in coeffs.items()}
    l2 = math.sqrt(sum(abs(c) ** 2 for c in cvals.values()))
    if l2 == 0:
        raise ValueError("coefficient vector is zero")
    values = _synthesize_float(spec.p, cvals)
    return float(np.mean(np.abs(values) ** q) ** (1.0 / q)) / l2


def _synthesis_error_bound(p: int, coeffs: Mapping[int, complex]) -> float:
    """Per-cell absolute error bound for the float inverse transform.

    Each of the k stages multiplies by unit-modulus roots and sums p terms,
    and cell values are bounded by sum|c_n|, so the accumulated rounding is
    at most ~k*(p + 3) units in the last place of that magnitude.
    """
    rank = max((digit_count(n, p) for n in coeffs), default=0)
    mass = sum(abs(c) for c in coeffs.values())
    return (rank * (p + 3) + 4) * 2.0**-52 * (mass + 1e-300)


def l1_lower_ratio_with_error(
    spec: IndexSpec, coeffs: Mapping[int, object], cap: int | None = None
) -> tuple[float, float]:
    """(||sum c_n VC_n||_1 / ||c||_l2, absolute error bound), in floats."""
    _validate_support(spec, coeffs)
    cvals = {n: complex(c) for n, c in coeffs.items()}
    l2 = math.sqrt(sum(abs(c) ** 2 for c in cvals.values()))
    if l2 == 0:
        raise ValueError("coefficient vector is zero")
    values = _synthesize_float(spec.p, cvals, cap)
    cell_err = _synthesis_error_bound(spec.p, cvals)
    mean = float(np.mean(np.abs(values)))
    err = (cell_err + mean * values.size * 2.0**-52) / l2 * 1.01 + math.ulp(mean / l2)
    return mean / l2, err


def l1_lower_ratio(spec: IndexSpec, coeffs: Mapping[int, object]) -> float:
    """||sum c_n VC_n||_1 / ||c||_l2 (q = 1 has no exact even path)."""
    return l1_lower_ratio_with_error(spec, coeffs)[0]


# -- seeded sampling and sphere ascent ----------------------------------------


def sample_unit_coefficients(count: int, seed: int, trial: int) -> np.ndarray:
    """Complex standard Gaussian vector normalized to the unit sphere.

    Counter-based generator keyed by (seed, trial): trial t's draw never
    depends on how many other trials run, so parallel reductions and
    prefix reruns agree.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, trial], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    z = rng.standard_normal(2 * count)
    c = z[0::2] + 1j * z[1::2]
    norm = np.linalg.norm(c)
    if norm == 0:
        c = np.ones(count, dtype=np.complex128)
        norm = np.linalg.norm(c)
    return c / norm


def _ratio_objective(
    p: int, members: Sequence[int], q, cap: int | None = None
) -> Callable[[np.ndarray], float]:
    """Float ratio ||f||_q / ||c||_2 as a function of the coefficient array."""
    members = list(members)
    if _is_even(q):
        tables = _sum_tables(p, members, q // 2, cap)

        def ratio_even(c: np.ndarray) -> float:
            g = c
            for flat, bins in tables:
                g_next = np.zeros(bins, dtype=np.complex128)
                np.add.at(g_next, flat, np.multiply.outer(g, c).ravel())
                g = g_next
            l2_sq = float(np.sum(np.abs(c) ** 2))
            return float(np.sum(np.abs(g) ** 2)) ** (1.0 / q) / math.sqrt(l2_sq)

        return ratio_even

    def ratio_general(c: np.ndarray) -> float:
        coeffs = {n: complex(v) for n, v in zip(members, c)}
        values = _synthesize_float(p, coeffs, cap)
        l2 = math.sqrt(sum(abs(v) ** 2 for v in c))
        return float(np.mean(np.abs(values) ** q) ** (1.0 / q)) / l2

    return ratio_general


def coordinate_ascent(
    objective: Callable[[np.ndarray], float],
    start: np.ndarray,
    step: float = 0.25,
    decay: float = 0.5,
    max_failures: int = 10,
) -> tuple[np.ndarray, float]:
    """Maximize a scale-invariant objective over the unit sphere.

    Tries +-step and +-i*step per coordinate (renormalizing after each move);
    a sweep with no improvement halves the step, and the search stops after
    max_failures such halvings.
    """
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


@dataclass
class KhinchinReport:
    """Reproducible record of a norm-ratio estimation run."""

    spec: IndexSpec
    q: object
    upper: int
    trials: int
    seed: int
    method: str
    members: int
    best_ratio: float | None = None
    best_ratio_err: float | None = None
    best_ratio_pow_exact: Fraction | None = None
    best_coefficients: dict[int, complex] = field(default_factory=dict)
    min_l1_ratio: float | None = None
    min_l1_ratio_err: float | None = None

    def to_dict(self) -> dict:
        out = {
            "spec": self.spec.describe(),
            "q": self.q,
            "upper": self.upper,
            "trials": self.trials,
            "seed": self.seed,
            "method": self.method,
            "members": self.members,
        }
        if self.best_ratio is not None:
            out["best_ratio"] = self.best_ratio
        if self.best_ratio_err is not None:
            out["best_ratio_err"] = self.best_ratio_err
        if self.best_ratio_pow_exact is not None:
            out["best_ratio_pow_exact"] = str(self.best_ratio_pow_exact)
        if self.best_coefficients:
            out["best_coefficients"] = {
                str(n): [c.real, c.imag] for n, c in sorted(self.best_coefficients.items())
            }
        if self.min_l1_ratio is not None:
            out["min_l1_ratio"] = self.min_l1_ratio
        if self.min_l1_ratio_err is not None:
            out["min_l1_ratio_err"] = self.min_l1_ratio_err
        return out


def estimate_constant(
    spec: IndexSpec,
    q,
    upper: int,
    trials: int,
    seed: int,
    optimizer: str = "ascent",
    mode: str = "exact",
    cap: int | None = None,
) -> KhinchinReport:
    """Best-effort lower bound for the L2-Lq ratio constant over the index set.

    Random unit-sphere starts (one per trial) plus optional coordinate-ascent
    refinement of the best start.  Deterministic under (seed, trials).  In
    exact mode the reported ratio for even q is certified in rational
    arithmetic; float mode skips certification and reports an error bound.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if optimizer not in ("random", "ascent"):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    members = enumerate_members(spec, upper)
    if not members:
        raise ValueError(f"{spec.describe()} has no members in [1, {upper}]")
    objective = _ratio_objective(spec.p, members, q, cap)
    best_val = -math.inf
    best_c = None
    for t in range(trials):
        c = sample_unit_coefficients(len(members), seed, t)
        val = objective(c)
        if val > best_val:
            best_val, best_c = val, c
    method = f"random x {trials}"
    if optimizer == "ascent":
        best_c, best_val = coordinate_ascent(objective, best_c)
        method += " + coordinate ascent"
    coeffs = {n: complex(c) for n, c in zip(members, best_c)}
    exact_pow = None
    ratio_err = None
    if mode == "exact" and _is_even(q):
        exact_pow = norm_ratio_pow_exact(spec, coeffs, q, cap)
        best_val = float(exact_pow) ** (1.0 / q)
    elif _is_even(q):
        # float mode: the moment-formula objective is already accurate to
        # roundoff; charge a few ulps per coefficient product
        ratio_err = len(members) ** 2 * 2.0**-50 * (1 + best_val) + 8 * math.ulp(best_val)
    else:
        # transform-based float path: per-cell synthesis error e, cell values
        # bounded by sum|c_n|, so mean(|f|^q) moves by at most q*(mass+e)^(q-1)*e
        cell_err = _synthesis_error_bound(spec.p, coeffs)
        mass = sum(abs(c) for c in coeffs.values())
        l2 = math.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))
        mean_q = (best_val * l2) ** q
        delta = q * (mass + cell_err) ** (q - 1) * cell_err
        ratio_err = ((mean_q + delta) ** (1.0 / q) - mean_q ** (1.0 / q)) / l2
        ratio_err += 8 * math.ulp(best_val)
    return KhinchinReport(
        spec=spec,
        q=q,
        upper=upper,
        trials=trials,
        seed=seed,
        method=method,
        members=len(members),
        best_ratio=best_val,
        best_ratio_err=ratio_err,
        best_ratio_pow_exact=exact_pow,
        best_coefficients=coeffs,
    )


def estimate_l1_constant(
    spec: IndexSpec, upper: int, trials: int, seed: int, cap: int | None = None
) -> KhinchinReport:
    """Minimum observed ||f||_1 / ||c||_l2 over seeded unit-sphere trials."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    members = enumerate_members(spec, upper)
    if not members:
        raise ValueError(f"{spec.describe()} has no members in [1, {upper}]")
    worst = math.inf
    worst_err = 0.0
    worst_c = None
    for t in range(trials):
        c = sample_unit_coefficients(len(members), seed, t)
        val, err = l1_lower_ratio_with_error(
            spec, {n: complex(x) for n, x in zip(members, c)}, cap
        )
        if val < worst:
            worst, worst_err, worst_c = val, err, c
    return KhinchinReport(
        spec=spec,
        q=1,
        upper=upper,
        trials=trials,
        seed=seed,
        method=f"random x {trials} (minimum)",
        members=len(members),
        min_l1_ratio=worst,
        min_l1_ratio_err=worst_err,
        best_coefficients={n: complex(c) for n, c in zip(members, worst_c)},
    )


# -- symmetric decomposition and independence ---------------------------------


def symmetric_decomposition(p: int, k: int, j: int) -> list[StepFn]:
    """The p-1 symmetric pieces whose sum is Re(R_k**j), exactly.

    Piece m (m = 1..p-1) takes the value cos(2*pi*m*j/p) on cells with k-th
    digit m, minus the same value on cells with k-th digit 0, and 0 elsewhere;
    cosines are stored exactly as (w**(mj) + w**(-mj)) / 2.
    """
    if not 1 <= j <= p - 1:
        raise ValueError(f"power must lie in 1..{p - 1}, got {j}")
    cells = check_rank(p, k + 1)
    pieces = []
    for m in range(1, p):
        cos_m = (root_of_unity(p, m * j) + root_of_unity(p, -m * j)).scale(
            Fraction(1, 2)
        )
        values = []
        for cell in range(cells):
            digit = cell % p
            if digit == m:
                values.append(cos_m)
            elif digit == 0:
                values.append(-cos_m)
            else:
                values.append(CycloValue.zero(p))
        pieces.append(StepFn(p, k + 1, values))
    return pieces


def independence_check(p: int, tables: Sequence[Sequence[object]], depth: int | None = None) -> bool:
    """Exhaustively verify the product rule for digit-functions f_k(x) = g_k(x_k).

    For every combination of attainable values (e_0, ..., e_n) the joint
    measure mu{f_k = e_k for all k} must equal the product of the marginal
    measures, as exact rationals.  Joint measures are tallied over all
    p**(n+1) rank-(n+1) cells; marginals count digit preimages directly.
    """
    tables = [list(t) for t in tables]
    if depth is None:
        depth = len(tables) - 1
    if depth != len(tables) - 1:
        raise ValueError(f"depth {depth} does not match {len(tables)} tables")
    if any(len(t) != p for t in tables):
        raise ValueError(f"each value table must have exactly {p} entries")
    check_rank(p, depth + 1)
    keyed = []
    for t in tables:
        vals = [CycloValue.coerce(v) for v in t]
        order = 1
        for v in vals:
            order = math.lcm(order, v.order)
        keyed.append([v.promote(order).canonical_key() for v in vals])
    marginals = []
    for keys in keyed:
        counts: dict[tuple, int] = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        marginals.append({key: Fraction(c, p) for key, c in counts.items()})
    cell_measure = Fraction(1, p ** (depth + 1))
    joint: dict[tuple, Fraction] = {}
    for digits in product(range(p), repeat=depth + 1):
        combo = tuple(keyed[k][d] for k, d in enumerate(digits))
        joint[combo] = joint.get(combo, Fraction(0)) + cell_measure
    for combo in product(*[sorted(m) for m in marginals]):
        expected = Fraction(1)
        for k, key in enumerate(combo):
            expected *= marginals[k][key]
        if joint.get(combo, Fraction(0)) != expected:
            return False
    return True
