"""The verification suite that `vcchaos verify` runs.

verify_checks owns the suite's input rules: it refuses, before any check
runs, a negative max rank and a run whose largest grid exceeds the cell cap,
so the CLI passes only p, max rank and seed.  Only cli.cmd_verify imports
this module, so no other command compiles it.
It must never import vcchaos.cli: under `python -m vcchaos.cli` the running
CLI is __main__, so that import would compile and run the CLI module again.
The overlap audit counts 0/1 arrays (stepfn.overlap_counts): verify loads no vcchaos.uniqueness.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import numpy as np

from .cyclo import CycloArray
from .indices import (
    count_below_power,
    enumerate_members,
    full_chaos,
    pattern_multiplicity_check,
    unit_chaos,
)
from .pary import check_rank, digitwise_add, rational_str
from .stepfn import StepFn, independence_check, overlap_counts, symmetric_decomposition
from .vc import _op_norm_err, matrix_op_norm, synthesize, vc_function, verify_inverse_identity

# the suite's deepest rank: its matrix checks, parseval indices and independence tables
# stay within min(max rank, _VERIFY_DEPTH), which is what the cap pre-check of verify_checks covers
_VERIFY_DEPTH = 3
# a drawn 16-bit word below this puts its cell in an audit set: probability 0.60001
_AUDIT_THRESHOLD = 39322
# one getrandbits call of _audit_bits draws the words of at most this many cells,
# or of two families where two families hold more
_AUDIT_CHUNK = 1 << 18


def _audit_bits(rng: random.Random, p: int, rank: int, families: int):
    """Yield the audit's families as (f, p, p**rank) 0/1 arrays, drawn from rng a chunk at a time.

    Each cell holds one 16-bit word of the stream, in order, and is in its
    set iff the word is below _AUDIT_THRESHOLD.  getrandbits fills 32-bit
    words low first, and every chunk but the last holds an even number of
    families, so an even number of 16-bit words: the chunks read the stream
    as one call for all the families would, and leave it where that call would.
    """
    cells = p**rank
    per = 2 * max(1, _AUDIT_CHUNK // (2 * p * cells))
    for start in range(0, families, per):
        words = min(per, families - start) * p * cells
        drawn = rng.getrandbits(16 * words).to_bytes(2 * words, "little")
        yield (np.frombuffer(drawn, dtype="<u2") < _AUDIT_THRESHOLD).reshape(-1, p, cells)


def verify_checks(p: int, max_rank: int, seed: int) -> list[tuple]:
    """The suite's checks (_verify_checks), once max rank >= 0 and its largest grids pass the cell cap.

    Independence tallies rank depth + 1 <= k_mat + 1, and the inverse-identity
    and operator-norm checks build p**k_mat x p**k_mat exponent tables, so a
    run the cap would stop midway is refused before any check runs.
    """
    k_mat = min(max_rank, _VERIFY_DEPTH)
    # a negative max rank checks rank 0 here, so a bad base is named before it
    check_rank(p, max(0, max_rank, k_mat + 1, 2 * k_mat))
    if max_rank < 0:
        raise ValueError(f"max rank must be >= 0, got {max_rank}")
    return _verify_checks(p, max_rank, seed)


def _verify_checks(p: int, max_rank: int, seed: int) -> list[tuple]:
    """The suite as (name, anchor, check) triples, in the order run.

    The checks draw from one seeded stream in this order.  A check that draws
    inside its loop scores a list, not a generator, so that every draw happens
    even after a failure and the later checks see the same stream.  The
    overlap audit reads 16 bits of the stream per cell of its sets
    (_audit_bits), so its share of the stream is a fixed number of bits.
    """
    vc_function_cached = functools.lru_cache(maxsize=4096)(vc_function)
    checks = []

    def check(name, anchor):
        def add(fn):
            checks.append((name, anchor, fn))
            return fn

        return add

    rng = random.Random(seed)
    k_mat = min(max_rank, _VERIFY_DEPTH)

    @check("inverse-identity", "VC^(k) inverse equals conj-transpose over p^k")
    def inverse_identity():
        return all(verify_inverse_identity(p, k) for k in range(k_mat + 1)), {"max_rank": k_mat}

    @check("orthonormality-sample", "integral of VC_n conj(VC_m) = delta(n,m)")
    def orthonormality():
        # through the step-function integral on a sampled grid
        cells = p ** min(max_rank, 2)
        pairs = [(rng.randrange(cells), rng.randrange(cells)) for _ in range(20)]
        ok = all(
            (vc_function_cached(p, n) * vc_function_cached(p, m).conj()).integral() == int(n == m)
            for n, m in pairs
        )
        return ok, {"pairs": len(pairs)}

    @check("parseval", "L2 norm squared of the sum equals sum of |c_n|^2")
    def parseval():
        # for a random exact coefficient vector
        population = range(p**k_mat)
        support = sorted(rng.sample(population, min(6, p, len(population))))
        coeffs = {n: Fraction(rng.randint(-3, 3)) for n in support}
        coeffs = {n: c for n, c in coeffs.items() if c} or {support[0]: Fraction(1)}
        lhs = synthesize(coeffs, p).lq_norm_even_pow(2)
        rhs = sum((c * c for c in coeffs.values()), Fraction(0))
        return lhs == rhs, {"lhs": rational_str(lhs), "rhs": rational_str(rhs)}

    @check("multiplicativity", "VC_a * VC_b = VC at the digitwise sum mod p")
    def multiplicativity():
        # on random pairs at rank 2 (rank 1 when max_rank is 0)
        cells = p ** min(max_rank + 1, 2)
        pairs = [(rng.randrange(cells), rng.randrange(cells)) for _ in range(10)]
        ok = all(
            vc_function_cached(p, a) * vc_function_cached(p, b)
            == vc_function_cached(p, digitwise_add(a, b, p))
            for a, b in pairs
        )
        return ok, {"pairs": 10}

    @check("operator-norm", "||VC^(k) x|| / ||x|| equals p^(k/2) within its proven rounding bound")
    def operator_norm():
        # the float consequence of the inverse identity, within its proven rounding bound
        ok = all(
            abs(matrix_op_norm(p, k) - p ** (k / 2)) <= _op_norm_err(p, k) for k in range(k_mat + 1)
        )
        return ok, {"norm_err": _op_norm_err(p, k_mat)}

    @check("overlap-bound-audit", "measure of twice-covered points >= (p*a - 1)/(p - 1)")
    def overlap_audit():
        # mu(H) >= (p*a/N - 1)/(p - 1) over N cells, in integers: (p - 1)|H| >= p*a - N
        rank = min(max_rank, 4)
        counts = map(overlap_counts, _audit_bits(rng, p, rank, 200))
        ok = [((p - 1) * twice >= p * smallest - p**rank).all() for twice, smallest in counts]
        return bool(all(ok)), {"families": 200}

    @check("independence-product-rule", "joint law of digit functions factorizes exactly")
    def independence():
        def tables():
            depth = rng.randint(min(1, max_rank), k_mat)
            return [[Fraction(rng.randint(-2, 2)) for _ in range(p)] for _ in range(depth + 1)]

        return all([independence_check(p, tables()) for _ in range(20)]), {"tables": 20}

    @check("symmetric-decomposition", "Re R_k^j splits into p-1 symmetric mean-zero pieces")
    def symmetric():
        def splits(j):
            pieces = symmetric_decomposition(p, 0, j)
            re_part = StepFn(p, 1, CycloArray.roots(p, j * np.arange(p)).real_part())
            return sum(pieces[1:], pieces[0]) == re_part and all(
                piece.distribution().is_symmetric() for piece in pieces
            )

        return all(splits(j) for j in range(1, p)), {"powers": p - 1}

    @check("index-counts", "enumerated members match binomial closed forms")
    def index_counts():
        ok = all(
            len(enumerate_members(spec, p**levels - 1)) == count_below_power(spec, levels)
            for d in range(1, 4)
            for levels in range(1, 5)
            for spec in (full_chaos(p, d), unit_chaos(p, d))
        )
        return ok, {}

    @check("pattern-multiplicity", "each weight-s index lies in (p-1)^(L+1-s) pattern sets")
    def pattern_multiplicity():
        return all(pattern_multiplicity_check(p, s, 2, p**3 - 1) for s in (1, 2)), {}

    return checks
