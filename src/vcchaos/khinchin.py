"""Norm-ratio estimation and exact moment identities for chaos expansions.

The L2 norm of sum(c_n VC_n) is the l2 norm of the coefficients, and because
VC_a * VC_b = VC at the digitwise sum of a and b, every even moment is exact
coefficient combinatorics:

    integral |f|**(2h) = sum_m |g_m|**2,   g = h-fold digitwise convolution of c.

One kernel computes it, a digitwise-sum table iterated h - 1 times, with two
bindings: complex128 arrays drive the optimizer, and Gaussian-integer
numerators over one common denominator certify ratios exactly (floats are
dyadic rationals).  An even-q estimate builds its tables once, and the exact
certificate of its final point reuses the objective's.  Odd and fractional
q, and the L1 lower constant, need the cell values of f: the (members x
cells) block of VC rows is built once per member set, so each evaluation is
one product c @ rows.  Randomness is counter-based (Philox keyed by (seed,
trial)), so trials are reproducible and order-independent.

estimate_constant refines its best random start by a private coordinate
ascent on the unit sphere, which scores a move c + delta e_i from partial
sums kept for the current point instead of a full evaluation.  For even
q = 2h they are the levels G_1..G_h of the table pass, and the four moves of
a coordinate share h(h+1)/2 gathers and dot products: O(1) work for q = 2,
O(M) for q = 4 and O(M**2) (at most the cell count) for q = 6 over M
members, against M**h for a pass.  For other q they are the cell values f,
and a move is f + delta * rows[i], O(cells).  An accepted move recomputes
the sums at the renormalized point, and estimate_constant reports one full
evaluation of the final point, for which the float error bounds are proven.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .indices import IndexSpec, check_candidates, enumerate_members, member_mask
from .pary import (
    _ROOT_ERR,
    _exponent_rows,
    check_cells,
    check_rank,
    digit_count,
    digitwise_add,
    over_common_denominator,
    unit_roots,
)

# estimate_l1_constant scores its trials in (chunk x cells) blocks of about
# this many complex entries (1 MB)
_CHUNK_ENTRIES = 2**16


def _is_even(q) -> bool:
    return isinstance(q, int) and q >= 2 and q % 2 == 0


def _sum_tables(p: int, members: Sequence[int], h: int) -> list[tuple]:
    """Index tables (flat, bins) of the h-fold digitwise convolution over `members`.

    Level-1 targets are the members in order; level j+1 targets are the
    sorted digitwise sums of a level-j target and a member, taken by one
    broadcast digitwise_add, and flat maps (target i, member m), at
    i * len(members) + m, to the position of their sum among the bins
    level-(j+1) targets (np.unique's inverse).  There are h - 1 tables of at
    most members**h entries, and both counts are checked against the cell
    cap before any sum is taken (a huge h never builds the big integer).
    """
    count = len(members)
    # h itself bounds the work for a single member, whose powers are all 1
    check_cells(max(h, count ** min(h, 64)), f"{count}**{h} digitwise sums")
    check_cells(count**h, f"{count}**{h} digitwise sums")
    tables = []
    targets = members = np.array(members, dtype=object)
    for _ in range(h - 1):
        sums = digitwise_add(targets[:, None], members, p)
        targets, flat = np.unique(sums.ravel(), return_inverse=True)
        tables.append((flat, len(targets)))
    return tables


def _even_tables(p: int, coeffs: Mapping[int, object], q: int) -> list[tuple]:
    """_sum_tables for the ratio or moment of order q over the indices of coeffs."""
    if q < 2 or q % 2:
        raise ValueError(f"q must be a positive even integer, got {q}")
    return _sum_tables(p, list(coeffs), q // 2)


def _exact_power_sums(coeffs: Mapping[int, object], tables: list[tuple]) -> tuple[int, int, int]:
    """(S_1, S_h, D) for even q = 2h: c has Gaussian-integer numerators over D.

    tables are the h - 1 _sum_tables over the indices of coeffs, in order.
    S_1 and S_h are the sums of |g|**2 over the numerators of c and of their
    h-fold convolution, so integral |f|**q = S_h / D**q and ratio**q = S_h / S_1**h.
    """
    parts = []
    for v in coeffs.values():
        if isinstance(v, complex):
            parts += (v.real, v.imag)
        elif isinstance(v, (int, float, Fraction)):
            parts += (v, 0)
        else:
            raise TypeError(f"cannot convert {type(v).__name__} to an exact complex")
    nums, denom = over_common_denominator(parts)
    re, im = nums[0::2], nums[1::2]
    g_re, g_im, outer = re, im, np.multiply.outer
    for flat, bins in tables:
        next_re, next_im = np.zeros(bins, dtype=object), np.zeros(bins, dtype=object)
        np.add.at(next_re, flat, (outer(g_re, re) - outer(g_im, im)).ravel())
        np.add.at(next_im, flat, (outer(g_re, im) + outer(g_im, re)).ravel())
        g_re, g_im = next_re, next_im
    return int((re * re + im * im).sum()), int((g_re * g_re + g_im * g_im).sum()), denom


def _ratio_pow_exact(coeffs: Mapping[int, object], tables: list[tuple]) -> Fraction:
    """ratio**q = S_h / S_1**h from _exact_power_sums(coeffs, tables), q = 2 * (len(tables) + 1)."""
    s_1, s_h, _ = _exact_power_sums(coeffs, tables)
    if s_1 == 0:
        raise ValueError("coefficient vector is zero")
    return Fraction(s_h, s_1 ** (len(tables) + 1))


def moment_even_pow_exact(p: int, coeffs: Mapping[int, object], q: int) -> Fraction:
    """Exact integral of |sum c_n VC_n|**q for even q, from coefficients alone."""
    _, s_h, denom = _exact_power_sums(coeffs, _even_tables(p, coeffs, q))
    return Fraction(s_h, denom**q)


def _members(spec: IndexSpec, upper: int) -> list[int]:
    """enumerate_members(spec, upper), nonempty, once its candidates fit the cell cap."""
    check_candidates(spec, upper)
    members = enumerate_members(spec, upper)
    if not members:
        raise ValueError(f"{spec.describe()} has no members in [1, {upper}]")
    return members


def _validate_support(spec: IndexSpec, coeffs: Mapping[int, object]) -> None:
    if not coeffs:
        raise ValueError("coefficient vector is empty")
    indices = list(coeffs)
    inside = member_mask(spec, indices)
    if not inside.all():
        n = indices[inside.argmin()]
        raise ValueError(f"index {n} is outside the index set {spec.describe()}")


def norm_ratio_pow_exact(spec: IndexSpec, coeffs: Mapping[int, object], q: int) -> Fraction:
    """Exact rational (||sum c_n VC_n||_q / ||c||_l2)**q for even q."""
    _validate_support(spec, coeffs)
    return _ratio_pow_exact(coeffs, _even_tables(spec.p, coeffs, q))


def _vc_rows(p: int, members: Sequence[int]) -> np.ndarray:
    """(members, cells) complex128 block of VC_n cell values, n in members.

    The grid has rank digit_count(max(members)), the coarsest one on which
    every VC_n is constant per cell, and f = sum c_n VC_n is c @ rows.  Its
    members * cells entries are checked against the cell cap before any
    array is allocated.
    """
    rank = digit_count(max(members), p)
    cells = check_rank(p, rank)
    check_cells(len(members) * cells, f"{len(members)} members x {p}**{rank} cells")
    return unit_roots(p)[_exponent_rows(p, rank, members)]


def _cell_ratios(cells: np.ndarray, l2, q) -> np.ndarray:
    """||f||_q / l2 for the cell values f along the last axis.

    The moduli are divided by their largest, m, before the power and m is
    multiplied back in, so |f|**q cannot overflow whatever q is.
    """
    moduli = np.abs(cells)
    m = moduli.max(axis=-1, keepdims=True)
    return np.mean((moduli / m) ** q, axis=-1) ** (1.0 / q) * m[..., 0] / l2


def _lq_ratios(c: np.ndarray, rows: np.ndarray, q) -> np.ndarray:
    """||sum c_n VC_n||_q / ||c||_l2 for every coefficient vector along c's last axis."""
    return _cell_ratios(c @ rows, np.linalg.norm(c, axis=-1), q)


def _sum_sq(values: np.ndarray) -> float:
    """sum |values|**2, exactly as np.sum takes it.

    np.add.reduce with axis=None is the reduction np.sum calls, without np.sum's dispatch.
    """
    return float(np.add.reduce(np.abs(values) ** 2, axis=None))


def _coefficient_array(coeffs: Mapping[int, object]) -> np.ndarray:
    c = np.array([complex(v) for v in coeffs.values()], dtype=np.complex128)
    if np.linalg.norm(c) == 0:
        raise ValueError("coefficient vector is zero")
    return c


def _synthesis_error_bound(c: np.ndarray, cells: int, q, ratio: float) -> float:
    """Absolute error bound for ratio = _lq_ratios(c, rows, q), rows from _vc_rows.

    Model: u = 2**-53; every real product, sum and quotient is rounded once
    (FMA allowed, any summation order); sqrt is correctly rounded; abs and
    power are within 4 ulps (relative error 8u); gamma(n) = n*u / (1 - n*u).
    The rows are entries of pary.unit_roots, each within _ROOT_ERR =: d of
    its root of unity (proven there).  Let M = c.size and N = cells.

    Cells.  A cell of c @ rows is a length-M complex dot product.  Its real
    and imaginary parts are real dot products of length 2M with terms of
    total magnitude at most sum |c_n| |roots| (|a c| + |b d| <= |x| |y|), so
    each is off by at most gamma(2M) (1 + d) sum|c_n|.  Against the true
    roots, sum c_n (roots - w**e) adds at most d sum|c_n|.  Per cell:
        e_cell = (sqrt(2) gamma(2M) (1 + d) + d) sum|c_n|.

    Norm.  For q >= 1, ||.||_q under the uniform measure on cells is a norm,
    so by Minkowski the exact q-norm of the computed cells is within e_cell
    of ||f||_q.  It is evaluated as m * ||a/m||_q, with a the computed
    moduli and m their largest; the identity holds for every m > 0, so m's
    own error does not count.  Each quotient a/m is rounded once and the
    largest is 1 exactly, so the power of the largest is 1, the mean is at
    least 1/N and no power overflows.  A quotient or power that underflows
    lies below 2**-1021 and is off by less than 2**-1021; N such terms, with
    N u <= 0.01, against a sum of at least 1 stay within one more rounding.
    Evaluating it (abs, the quotient, power, an N-term mean, the 1/q power,
    the product with m, the l2 norm of c over 2M squares and the quotient
    by it, and the underflow) multiplies it by a factor k with |k - 1| <=
    r := gamma(N + 4M + 8*ceil(q) + 33), since |(1 + x)**(1/q) - 1| <= |x|
    for q >= 1.  With the computed l2 norm L within a factor 1 + r of the
    true one, and r <= 0.01,
        |ratio - exact| <= r/(1 - r) * ratio + (1 + r) e_cell / L,
    and computing sum|c_n| (within 1 + r) and this formula (a few u) stays
    inside the factor 1.03 below.  Returns inf where r > 0.01.
    """
    u = 2.0**-53
    count = cells + 4 * c.size + 8 * math.ceil(q) + 33
    if count * u > 0.01:
        return math.inf
    gamma = lambda n: n * u / (1 - n * u)
    mass = float(np.sum(np.abs(c)))
    cell_err = (math.sqrt(2) * gamma(2 * c.size) * (1 + _ROOT_ERR) + _ROOT_ERR) * mass
    return 1.03 * (cell_err / float(np.linalg.norm(c)) + gamma(count) * ratio)


def _moment_error_bound(c: np.ndarray, tables: list[tuple], ratio: float) -> float:
    """Absolute error bound for ratio = _EvenRatio(p, members, q)(c), tables its _sum_tables.

    Model as in _synthesis_error_bound: u = 2**-53, gamma(n) = n*u/(1 - n*u),
    each real product and sum rounded once in any order, abs and power
    within 8u, sqrt and quotients rounded once, and a real product that
    underflows off by at most 2**-1075.  Let q = 2h, M = c.size, B the
    level-h bins (M when h = 1), T = M**h, mass = sum|c_m| and n = ||c||_2.
    The code returns inf unless h (B + 4M + 64) u <= 0.005, h T <= 2**40,
    n**h >= 2**-399, max(1, mass)**h <= 2**399 and rho, r <= 0.009.

    Levels.  G_1 = c and G_(j+1)(b) = sum of G_j(t) c_m over the pairs (t, m)
    with digitwise sum b, and G^_j is the computed G_j.  A_j is the same
    recursion on |c|, so |G_j| <= A_j, and by Young's inequality on the group
    of digit vectors, ||A_h||_2 <= mass**(h-1) n.  Each part of a complex product a*b sums two
    real products, so the product is off by at most sqrt(2) gamma(2) |a||b|
    (|a_r b_r| + |a_i b_i| <= |a||b|), plus 2**-1073 from underflow.  A bin
    sums at most M products, one per member m (its t is b minus m
    digitwise), and np.add.at adds them off by sqrt(2) gamma(M - 1) times
    the sum of their moduli.  As (1 + gamma(2))**2 (1 + gamma(M - 1)) <=
    1 + gamma(M + 3), with eps = sqrt(2) gamma(M + 3) each computed level
    has |G^_(j+1) - (G^_j conv c)| <= eps (|G^_j| conv |c|) + M 2**-1072 per
    bin.  By induction |G^_j - G_j| <= e_j A_j + U_j with
    e_j = (1 + eps)**(j-1) - 1 <= (j-1) eps / (1 - (j-1) eps), and
    ||U_h||_2 <= 2 h T**1.5 max(1, mass)**h 2**-1072 <= 2**-200 n**h.

    Relative error.  By Parseval and Lyapunov (q >= 2),
    ||G_h||_2 = ||f||_q**h >= ||f||_2**h = n**h, so ||G^_h||_2 =
    ||G_h||_2 (1 + eta) with |eta| <= rho := e_h (mass/n)**(h-1) + 2**-200.
    A square of a bin or of a c_m that underflows is off by 2**-1075, which
    moves no sum of at least 2**-800 by a relative 2**-200.  So the computed
    sum of squares over the B bins is ||G^_h||**2 (1 + t) with
    |t| <= gamma(B + 18), and sum|c_m|**2 is n**2 (1 + t'),
    |t'| <= gamma(M + 18).  The power's exponent fl(1/q) is off by u/q, a
    factor exp(e) on it with |e| <= lam := u (|ln ratio| + |ln n| + 1).
    So the powers, roots and roundings multiply ||G^_h||**(1/h) / n by k
    with |k - 1| <= r := gamma(B + 2M + 64) + 2 lam.  With R =
    ||G_h||**(1/h) / n the exact ratio of c, ratio = R (1 + eta)**(1/h) k,
    and |(1 + eta)**(1/h) - 1| <= rho, so
        |ratio - R| <= R (rho + r + rho r) <= 1.03 ratio (rho + r)
    for rho, r <= 0.01.  The computed mass and n are each within a factor
    1 + gamma(2M + 20) of the true ones, so (mass/n)**(h-1) is within a
    factor 1 + gamma(h (4M + 40)) <= 1.006, and this formula in floats stays
    inside the factor 1.04 below.
    """
    u = 2.0**-53
    gamma = lambda n: n * u / (1 - n * u)
    h, count = len(tables) + 1, c.size
    bins = tables[-1][1] if tables else count
    mass, norm = float(np.sum(np.abs(c))), float(np.linalg.norm(c))
    if h * (bins + 4 * count + 64) * u > 0.005 or h * count**h > 2**40 or not norm > 0:
        return math.inf
    if h * math.log2(norm) < -399 or h * math.log2(max(1.0, mass)) > 399:
        return math.inf
    levels_err = (h - 1) * math.sqrt(2) * gamma(count + 3)
    rho = levels_err / (1 - levels_err) * (mass / norm) ** (h - 1) + 2.0**-200
    r = gamma(bins + 2 * count + 64) + 2 * u * (abs(math.log(ratio)) + abs(math.log(norm)) + 1)
    return 1.04 * ratio * (rho + r) if max(rho, r) <= 0.009 else math.inf


def l1_lower_ratio_with_error(
    spec: IndexSpec, coeffs: Mapping[int, object]
) -> tuple[float, float]:
    """(||sum c_n VC_n||_1 / ||c||_l2, absolute error bound), in floats."""
    _validate_support(spec, coeffs)
    c = _coefficient_array(coeffs)
    rows = _vc_rows(spec.p, list(coeffs))
    ratio = float(_lq_ratios(c, rows, 1))
    return ratio, _synthesis_error_bound(c, rows.shape[1], 1, ratio)


# -- seeded sampling and sphere ascent ----------------------------------------


# each thread's Philox generator, made on its first draw
_generators = threading.local()


def _philox() -> np.random.Generator:
    """The calling thread's Philox generator, which sample_unit_coefficients re-keys per trial.

    Setting a state costs a fraction of building a generator.  Made on first
    use, so commands that draw nothing never import numpy.random.
    """
    rng = getattr(_generators, "philox", None)
    if rng is None:
        rng = _generators.philox = np.random.Generator(np.random.Philox())
    return rng


def sample_unit_coefficients(count: int, seed: int, trial: int) -> np.ndarray:
    """Complex standard Gaussian vector normalized to the unit sphere.

    Counter-based generator keyed by (seed, trial): trial t's draw never
    depends on how many other trials run, so parallel reductions and
    prefix reruns agree.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    rng = _philox()
    # the state np.random.Philox(key=[seed, trial]) starts in: counter 0, empty buffer
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, trial)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    z = rng.standard_normal(2 * count)
    c = z[0::2] + 1j * z[1::2]
    norm = np.linalg.norm(c)
    if norm == 0:
        c = np.ones(count, dtype=np.complex128)
        norm = np.linalg.norm(c)
    return c / norm


# the ascent accepts a move only when it beats the best value by this factor;
# it starts with moves of size _STEP and multiplies them by _DECAY after each
# sweep that accepts none, stopping after _HALVINGS such sweeps
_ACCEPT = 1 + 1e-13
_STEP, _DECAY, _HALVINGS = 0.25, 0.5, 10


def _moved(c: np.ndarray, i: int, delta: complex) -> np.ndarray:
    """c + delta e_i, renormalized to the unit sphere."""
    cand = c.copy()
    cand[i] += delta
    cand /= np.linalg.norm(cand)
    return cand


class _MoveScorer:
    """A ratio objective that also scores moves c + delta e_i from cached partial sums.

    Calling it is one full evaluation.  reset(c) caches the partial sums of
    the current point c and returns its full value; scores(i, deltas) values
    every move point + delta e_i from the cache; accept recomputes the cache
    from scratch at the renormalized accepted point, so rounding never
    carries from one move to the next, and returns the full value there.
    """

    def accept(self, i: int, delta: complex, value: float) -> float:
        return self.reset(_moved(self.point, i, delta))

    def _l2_sq(self, i: int, deltas: Sequence[complex]) -> list[float]:
        """||point + delta e_i||**2 for every delta, from the cached ||point||**2."""
        ci = self.conjugates[i]
        return [self.l2_sq + 2 * (ci * d).real + abs(d) ** 2 for d in deltas]


class _EvenRatio(_MoveScorer):
    """(sum |G_h|**2)**(1/q) / ||c|| for even q = 2h, G_l the l-fold digitwise convolution of c.

    A move c + delta e_i changes G_h by
        sum_{j >= 1} C(h, j) delta**j V_j * e_i,   V_j = G_{h-j} * e_i**(j-1),
    where * is digitwise convolution and G_0 = e_0.  Every V_j lives on the
    level-(h-1) targets, and adding member i maps them injectively to the
    level-h bins flat_{h-1}[t*M + i], so the move touches one bin per
    level-(h-1) target and no two collide.  With V_0 the values of G_h in
    those bins and w = (1, C(h,1) delta, ..., delta**h), the sum of |G_h|**2
    grows by w^H B w - |V_0|**2 for the Gram matrix B_jk = <V_j, V_k>.  The
    diagonal is |G_{h-j}|**2, cached with the levels, and B_jk for j < k is
    <G_{h-j} at the bins of G_{h-k} shifted k - j times by member i, G_{h-k}>,
    so one coordinate costs h(h+1)/2 gathers and dot products that all of its
    moves share: O(M) work for q = 4 and O(M**2) for q = 6, against M**h
    for a table pass.
    """

    def __init__(self, p: int, members: Sequence[int], q: int):
        self.q, self.h = q, q // 2
        count = len(members)
        self.tables = _sum_tables(p, members, self.h)
        # shifts[l][:, i]: bins among the level-(l+1) targets of every level-l
        # target plus member i; level 0 is the single target 0.  columns[i][l]
        # is that column as a contiguous row, made once, so scores gathers
        # through no strided view
        shifts = [np.arange(count).reshape(1, count)]
        shifts += [flat.reshape(-1, count) for flat, _ in self.tables]
        self.columns = list(zip(*(np.ascontiguousarray(shift.T) for shift in shifts)))
        # chains[i][l]: the level-(l+1) bin of G_0 = e_0 shifted l + 1 times by member i
        chain, targets = [], np.zeros(count, dtype=np.intp)
        for shift in shifts:
            targets = shift[targets, np.arange(count)]
            chain.append(targets)
        self.chains = np.array(chain).T.tolist()
        # pairs[r]: (j, C(h, j) C(h, j + r)) for the Gram entries (j, j + r) but (0, 0)
        binomial = [math.comb(self.h, j) for j in range(self.h + 1)]
        self.pairs = [
            [(j, binomial[j] * binomial[j + r]) for j in range(int(r == 0), self.h + 1 - r)]
            for r in range(self.h + 1)
        ]

    def _levels(self, c: np.ndarray) -> list[np.ndarray]:
        """G_0, ..., G_h, each over its level's targets."""
        levels = [np.ones(1, dtype=np.complex128), c]
        for flat, bins in self.tables:
            g_next = np.zeros(bins, dtype=np.complex128)
            np.add.at(g_next, flat, np.multiply.outer(levels[-1], c).ravel())
            levels.append(g_next)
        return levels

    def __call__(self, c: np.ndarray) -> float:
        g = self._levels(c)[-1]
        return _sum_sq(g) ** (1.0 / self.q) / math.sqrt(_sum_sq(c))

    def reset(self, c: np.ndarray) -> float:
        self.point, self.levels, self.conjugates = c, self._levels(c), c.conj().tolist()
        # |G_0|**2 sums to 1 exactly
        self.norms = [1.0, *map(_sum_sq, self.levels[1:])]
        self.l2_sq = self.norms[1]
        return self.norms[-1] ** (1.0 / self.q) / math.sqrt(self.l2_sq)

    def scores(self, i: int, deltas: Sequence[complex]) -> list[float]:
        h, levels, norms, columns = self.h, self.levels, self.norms, self.columns[i]
        # row j starts as the diagonal B_jj = |G_{h-j}|**2; the entries right of it are set below
        gram = [[norms[h - j]] * (h + 1) for j in range(h + 1)]
        for k in range(1, h):
            bins = None
            for level in range(h - k, h):
                bins = columns[level] if bins is None else columns[level][bins]
                gram[h - 1 - level][k] = complex(np.vdot(levels[level + 1][bins], levels[h - k]))
        # V_h is G_0 = e_0 shifted h - 1 times: one bin
        for level, target in enumerate(self.chains[i]):
            gram[h - 1 - level][h] = complex(levels[level + 1][target]).conjugate()
        # with t = |delta|**2, conj(w_j) w_k = C_j C_k t**j delta**(k - j), so the
        # gain is P_0(t) + 2 Re sum_{r >= 1} delta**r P_r(t), where
        # P_r(t) = sum_j C_j C_{j+r} t**j B_{j,j+r}; the deltas of one sweep share t
        polys, values, root = {}, [], 1.0 / self.q
        for d, l2_sq in zip(deltas, self._l2_sq(i, deltas)):
            t = abs(d) ** 2
            if t not in polys:
                polys[t] = [
                    sum(c * t**j * gram[j][j + r] for j, c in terms)
                    for r, terms in enumerate(self.pairs)
                ]
            poly = polys[t]
            gain, power = poly[0], 1
            for r in range(1, h + 1):
                power *= d
                gain += 2 * (power * poly[r]).real
            values.append((norms[h] + gain) ** root / math.sqrt(l2_sq))
        return values


class _RowRatio(_MoveScorer):
    """||c @ rows||_q / ||c|| for non-even q; the move c + delta e_i is f + delta rows[i], O(cells)."""

    def __init__(self, p: int, members: Sequence[int], q):
        self.rows, self.q = _vc_rows(p, members), q

    def __call__(self, c: np.ndarray) -> float:
        return float(_lq_ratios(c, self.rows, self.q))

    def reset(self, c: np.ndarray) -> float:
        self.point, self.cells, self.conjugates = c, c @ self.rows, c.conj().tolist()
        self.l2_sq = _sum_sq(c)
        return float(_cell_ratios(self.cells, np.linalg.norm(c, axis=-1), self.q))

    def scores(self, i: int, deltas: Sequence[complex]) -> list[float]:
        cells = self.cells + np.multiply.outer(deltas, self.rows[i])
        return _cell_ratios(cells, np.sqrt(self._l2_sq(i, deltas)), self.q).tolist()


def _ratio_objective(p: int, members: Sequence[int], q) -> _MoveScorer:
    """Float ratio ||f||_q / ||c||_2 as a function of the coefficient array, and its move scorer."""
    members = list(members)
    return _EvenRatio(p, members, q) if _is_even(q) else _RowRatio(p, members, q)


def _ascent(scorer: _MoveScorer, start: np.ndarray) -> tuple[np.ndarray, float, dict[str, int]]:
    """Maximize a scale-invariant ratio over the unit sphere from start.

    Tries +-step and +-i*step on each coordinate, renormalizing after each
    accepted move; returns the final point, its value and the work counters.
    """
    c = np.asarray(start, dtype=np.complex128)
    best = scorer.reset(c / np.linalg.norm(c))
    counts = dict.fromkeys(("ascent_sweeps", "step_halvings", "moves_scored", "moves_accepted"), 0)
    current = _STEP
    while counts["step_halvings"] < _HALVINGS:
        counts["ascent_sweeps"] += 1
        accepted = counts["moves_accepted"]
        for i in range(c.size):
            moves = (current, -current, 1j * current, -1j * current)
            # each later move of the coordinate is tried from the point just accepted
            while moves:
                tried = 0
                for delta, val in zip(moves, scorer.scores(i, moves)):
                    tried += 1
                    if val > best * _ACCEPT:
                        best = scorer.accept(i, delta, val)
                        counts["moves_accepted"] += 1
                        break
                counts["moves_scored"] += tried
                moves = moves[tried:]
        if counts["moves_accepted"] == accepted:
            current *= _DECAY
            counts["step_halvings"] += 1
    return scorer.point, best, counts


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
    ascent_counters: dict[str, int] = field(default_factory=dict)


def estimate_constant(
    spec: IndexSpec,
    q,
    upper: int,
    trials: int,
    seed: int,
    optimizer: str = "ascent",
    mode: str = "exact",
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
    members = _members(spec, upper)
    objective = _ratio_objective(spec.p, members, q)
    best_val = -math.inf
    best_c = None
    for t in range(trials):
        c = sample_unit_coefficients(len(members), seed, t)
        val = objective(c)
        if val > best_val:
            best_val, best_c = val, c
    method = f"random x {trials}"
    counters = {}
    if optimizer == "ascent":
        best_c, _, counters = _ascent(objective, best_c)
        # the float error bounds below are proven for one full evaluation
        best_val = objective(best_c)
        method += " + coordinate ascent"
    coeffs = {n: complex(c) for n, c in zip(members, best_c)}
    exact_pow = None
    ratio_err = None
    if mode == "exact" and _is_even(q):
        # the objective's sum tables are over the same members in the same order
        exact_pow = _ratio_pow_exact(coeffs, objective.tables)
        best_val = float(exact_pow) ** (1.0 / q)
    elif _is_even(q):
        ratio_err = _moment_error_bound(best_c, objective.tables, best_val)
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
        ascent_counters=counters,
    )


def estimate_l1_constant(spec: IndexSpec, upper: int, trials: int, seed: int) -> KhinchinReport:
    """Minimum observed ||f||_1 / ||c||_l2 over seeded unit-sphere trials.

    Trials are scored a chunk at a time, as one (chunk x members) @ rows
    product; the first trial attaining the minimum is reported.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    members = _members(spec, upper)
    rows = _vc_rows(spec.p, members)
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
