"""Norm-ratio estimation and exact moment identities for chaos expansions.

The L2 norm of sum(c_n VC_n) is the l2 norm of the coefficients, and because
VC_a * VC_b = VC at the digitwise sum of a and b, every even moment is exact
coefficient combinatorics:

    integral |f|**(2h) = sum_m |g_m|**2,   g = h-fold digitwise convolution of c.

One kernel computes it, a digitwise-sum table iterated h - 1 times, with two
bindings: complex128 arrays drive the optimizer, and Gaussian-integer
numerators over one common denominator certify ratios exactly (floats are
dyadic rationals).  Odd and fractional q, and the L1 lower constant, need the
cell values of f: the (members x cells) block of VC rows is built once per
member set, so each evaluation is one product c @ rows.  Randomness is
counter-based (Philox keyed by (seed, trial)), so trials are reproducible and
order-independent.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from .cyclo import CycloArray, root_of_unity
from .indices import IndexSpec, contains, count_below_power, enumerate_members
from .pary import RankCapError, cell_cap, check_rank, digit_count, digitwise_add
from .stepfn import StepFn
from .vc import _exponent_rows

# bound on |fl(w**e) - w**e| for the rounded unit roots in _vc_rows
_ROOT_ERR = 2.0**-47
# estimate_l1_constant scores its trials in (chunk x cells) blocks of about
# this many complex entries (1 MB)
_CHUNK_ENTRIES = 2**16


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
    parts = []
    for v in coeffs.values():
        if isinstance(v, complex):
            parts += (v.real, v.imag)
        elif isinstance(v, (int, float, Fraction)):
            parts += (v, 0)
        else:
            raise TypeError(f"cannot convert {type(v).__name__} to an exact complex")
    column = CycloArray.from_values(parts)
    re, im, denom = column.nums[0::2, 0], column.nums[1::2, 0], column.denom
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


def _members(spec: IndexSpec, upper: int, cap: int | None) -> list[int]:
    """enumerate_members(spec, upper), once the candidates it generates fit the cell cap.

    It generates every member of at most digit_count(upper) digits, then drops those above upper.
    """
    limit = cap if cap is not None else cell_cap()
    candidates = count_below_power(spec, digit_count(max(upper, 1), spec.p))
    if candidates > limit:
        raise RankCapError(f"{candidates} candidate members exceed the cell cap {limit}")
    members = enumerate_members(spec, upper)
    if not members:
        raise ValueError(f"{spec.describe()} has no members in [1, {upper}]")
    return members


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


def _vc_rows(p: int, members: Sequence[int], cap: int | None) -> np.ndarray:
    """(members, cells) complex128 block of VC_n cell values, n in members.

    The grid has rank digit_count(max(members)), the coarsest one on which
    every VC_n is constant per cell, and f = sum c_n VC_n is c @ rows.  Its
    members * cells entries are checked against the cell cap before any
    array is allocated.
    """
    rank = digit_count(max(members), p)
    cells = check_rank(p, rank, cap)
    limit = cap if cap is not None else cell_cap()
    if len(members) * cells > limit:
        raise RankCapError(
            f"{len(members)} members x {p}**{rank} cells exceed the cell cap {limit}"
        )
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    return roots[_exponent_rows(p, rank, members)]


def _lq_ratios(c: np.ndarray, rows: np.ndarray, q) -> np.ndarray:
    """||sum c_n VC_n||_q / ||c||_l2 for every coefficient vector along c's last axis."""
    moments = np.mean(np.abs(c @ rows) ** q, axis=-1)
    return moments ** (1.0 / q) / np.linalg.norm(c, axis=-1)


def _coefficient_array(coeffs: Mapping[int, object]) -> np.ndarray:
    c = np.array([complex(v) for v in coeffs.values()], dtype=np.complex128)
    if np.linalg.norm(c) == 0:
        raise ValueError("coefficient vector is zero")
    return c


def _synthesis_error_bound(c: np.ndarray, cells: int, q, ratio: float) -> float:
    """Absolute error bound for ratio = _lq_ratios(c, rows, q), rows from _vc_rows.

    Model: u = 2**-53; every real product, sum and quotient is rounded once
    (FMA allowed, any summation order); sqrt is correctly rounded; abs,
    power, exp, cos and sin are within 4 ulps (relative error 8u);
    gamma(n) = n*u / (1 - n*u).  Let M = c.size and N = cells.

    Unit roots.  roots[e] = exp(i*t), where t is 2*pi*e/p after at most four
    roundings (pi, the product, and the complex division by p, done as a
    reciprocal and a product), so |t - 2*pi*e/p| <= 4.01u * 2*pi < 26u; cos
    and sin add at most 8u each, so |roots[e] - w**e| <= 26u + sqrt(2)*8u <
    64u = _ROOT_ERR =: d.

    Cells.  A cell of c @ rows is a length-M complex dot product.  Its real
    and imaginary parts are real dot products of length 2M with terms of
    total magnitude at most sum |c_n| |roots| (|a c| + |b d| <= |x| |y|), so
    each is off by at most gamma(2M) (1 + d) sum|c_n|.  Against the true
    roots, sum c_n (roots - w**e) adds at most d sum|c_n|.  Per cell:
        e_cell = (sqrt(2) gamma(2M) (1 + d) + d) sum|c_n|.

    Norm.  For q >= 1, ||.||_q under the uniform measure on cells is a norm,
    so by Minkowski the exact q-norm of the computed cells is within e_cell
    of ||f||_q.  Evaluating it (abs, power, an N-term mean, the 1/q power,
    the l2 norm of c over 2M squares and the quotient) multiplies it by a
    factor k with |k - 1| <= r := gamma(N + 4M + 8*ceil(q) + 30), since
    |(1 + x)**(1/q) - 1| <= |x| for q >= 1.  With the computed l2 norm L
    within a factor 1 + r of the true one, and r <= 0.01,
        |ratio - exact| <= r/(1 - r) * ratio + (1 + r) e_cell / L,
    and computing sum|c_n| (within 1 + r) and this formula (a few u) stays
    inside the factor 1.03 below.  Returns inf where r > 0.01.
    """
    u = 2.0**-53
    count = cells + 4 * c.size + 8 * math.ceil(q) + 30
    if count * u > 0.01:
        return math.inf
    gamma = lambda n: n * u / (1 - n * u)
    mass = float(np.sum(np.abs(c)))
    cell_err = (math.sqrt(2) * gamma(2 * c.size) * (1 + _ROOT_ERR) + _ROOT_ERR) * mass
    return 1.03 * (cell_err / float(np.linalg.norm(c)) + gamma(count) * ratio)


def norm_ratio(spec: IndexSpec, coeffs: Mapping[int, object], q) -> float:
    """||sum c_n VC_n||_q / ||c||_l2; exact arithmetic for even integer q."""
    _validate_support(spec, coeffs)
    if _is_even(q):
        return float(norm_ratio_pow_exact(spec, coeffs, q)) ** (1.0 / q)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    c = _coefficient_array(coeffs)
    return float(_lq_ratios(c, _vc_rows(spec.p, list(coeffs), None), q))


def l1_lower_ratio_with_error(
    spec: IndexSpec, coeffs: Mapping[int, object], cap: int | None = None
) -> tuple[float, float]:
    """(||sum c_n VC_n||_1 / ||c||_l2, absolute error bound), in floats."""
    _validate_support(spec, coeffs)
    c = _coefficient_array(coeffs)
    rows = _vc_rows(spec.p, list(coeffs), cap)
    ratio = float(_lq_ratios(c, rows, 1))
    return ratio, _synthesis_error_bound(c, rows.shape[1], 1, ratio)


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

    rows = _vc_rows(p, members, cap)

    def ratio_general(c: np.ndarray) -> float:
        return float(_lq_ratios(c, rows, q))

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
    members = _members(spec, upper, cap)
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
        cells = spec.p ** digit_count(max(members), spec.p)
        ratio_err = _synthesis_error_bound(best_c, cells, q, best_val)
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
    """Minimum observed ||f||_1 / ||c||_l2 over seeded unit-sphere trials.

    Trials are scored a chunk at a time, as one (chunk x members) @ rows
    product; the first trial attaining the minimum is reported.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    members = _members(spec, upper, cap)
    rows = _vc_rows(spec.p, members, cap)
    chunk = max(1, _CHUNK_ENTRIES // rows.shape[1])
    worst = math.inf
    worst_c = None
    for start in range(0, trials, chunk):
        block = np.array(
            [
                sample_unit_coefficients(len(members), seed, t)
                for t in range(start, min(start + chunk, trials))
            ]
        )
        ratios = _lq_ratios(block, rows, 1)
        i = int(np.argmin(ratios))
        if ratios[i] < worst:
            worst, worst_c = float(ratios[i]), block[i]
    worst_err = _synthesis_error_bound(worst_c, rows.shape[1], 1, worst)
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


def symmetric_decomposition(p: int, k: int, j: int, cap: int | None = None) -> list[StepFn]:
    """The p-1 symmetric pieces whose sum is Re(R_k**j), exactly.

    Piece m (m = 1..p-1) takes the value cos(2*pi*m*j/p) on cells with k-th
    digit m, minus the same value on cells with k-th digit 0, and 0 elsewhere;
    cosines are stored exactly as (w**(mj) + w**(-mj)) / 2.
    """
    if not 1 <= j <= p - 1:
        raise ValueError(f"power must lie in 1..{p - 1}, got {j}")
    digits = np.arange(check_rank(p, k + 1, cap)) % p
    pieces = []
    for m in range(1, p):
        cos_m = root_of_unity(p, m * j).real_part()
        # row 1 (cos_m) where the digit is m, row 2 (-cos_m) where it is 0, else row 0
        rows = np.select([digits == m, digits == 0], [1, 2])
        values = CycloArray.from_values([0, cos_m, -cos_m])[rows]
        pieces.append(StepFn(p, k + 1, values, cap))
    return pieces


def independence_check(
    p: int, tables: Sequence[Sequence[object]], depth: int | None = None, cap: int | None = None
) -> bool:
    """Exhaustively verify the product rule for digit-functions f_k(x) = g_k(x_k).

    For every combination of attainable values (e_0, ..., e_n) the joint
    measure mu{f_k = e_k for all k} must equal the product of the marginal
    measures.  Over the p**(n+1) rank-(n+1) cells both are integer counts
    times p**-(n+1): the joint count of cells against the product of the
    digit preimage counts, compared exactly.
    """
    tables = [list(t) for t in tables]
    if depth is None:
        depth = len(tables) - 1
    if depth != len(tables) - 1:
        raise ValueError(f"depth {depth} does not match {len(tables)} tables")
    if any(len(t) != p for t in tables):
        raise ValueError(f"each value table must have exactly {p} entries")
    check_rank(p, depth + 1, cap)
    keyed = [list(map(tuple, CycloArray.from_values(t).keys().tolist())) for t in tables]
    marginals = [Counter(keys) for keys in keyed]
    joint = Counter(
        tuple(keyed[k][d] for k, d in enumerate(digits))
        for digits in product(range(p), repeat=depth + 1)
    )
    return all(
        joint[combo] == math.prod(m[key] for m, key in zip(marginals, combo))
        for combo in product(*marginals)
    )
