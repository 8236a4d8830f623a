"""Command-line entry point: verification suites, estimations, transforms.

Commands emit machine-readable reports (JSON canonical, CSV as a flat
projection).  Every randomized result is reproducible from the echoed seed,
exact rationals are serialized as "numerator/denominator" strings, and float
values carry their error bounds.  Exit codes: 0 all checks passed, 1 a
mathematical check failed, 2 configuration or resource error, and any other
exception (one "error: <Type>: <message>" line on stderr, no traceback).

Each command imports the layers it calls when it runs, so a process loads
only those: a float `transform` loads pary and vc (an exact one cyclo too),
`index` pary and indices, `khinchin` pary, indices and khinchin (its exact
even-q certificate included), and `sharpness` and `verify` every layer but
khinchin.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
import time

import numpy as np

from . import __version__
from .pary import check_rank, digitwise_add, run_cell_cap

SCHEMA_VERSION = 1


def rational_str(q) -> str:
    """A Fraction as "numerator/denominator"."""
    return f"{q.numerator}/{q.denominator}"


class ConfigError(ValueError):
    pass


def _run_report(command: str, args, checks) -> int:
    """Run (name, anchor, check) triples in order and write the report; 0 iff every check passed.

    Each check() returns (ok, values); its record also carries the check's
    own wall_time_s.  The config echoes every option but --out and --format,
    so a report reruns from its own config.
    """
    started = time.perf_counter()
    records = []
    for name, anchor, check in checks:
        check_started = time.perf_counter()
        ok, values = check()
        record = {
            "name": name,
            "anchor": anchor,
            "status": "pass" if ok else "fail",
            "wall_time_s": round(time.perf_counter() - check_started, 6),
        }
        if values:
            record["values"] = values
        records.append(record)
    skip = ("command", "func", "out", "format")
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "config": {key: value for key, value in vars(args).items() if key not in skip},
        "checks": records,
        "all_passed": all(record["status"] == "pass" for record in records),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    _write_report(report, args.out, args.format)
    return 0 if report["all_passed"] else 1


def _write_report(report: dict, out_path: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, allow_nan=False, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["check", "status", "anchor", "values"])
        for record in report["checks"]:
            writer.writerow(
                [
                    record["name"],
                    record["status"],
                    record["anchor"],
                    json.dumps(record.get("values", {}), allow_nan=False, sort_keys=True),
                ]
            )
        text = buf.getvalue()
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _validate_base(p: int) -> None:
    if p < 2:
        raise ConfigError(f"base must be >= 2, got {p}")


# -- verify --------------------------------------------------------------------

# a drawn 16-bit word below this puts its cell in an audit set: probability 0.60001
_AUDIT_THRESHOLD = 39322
# one getrandbits call of _audit_masks draws the words of at most this many cells,
# or of two sets where two sets hold more
_AUDIT_CHUNK = 1 << 18


def _audit_masks(rng: random.Random, p: int, rank: int, count: int) -> list[int]:
    """count random cell masks at rank `rank`, drawn from rng a chunk of sets at a time.

    Each cell holds one 16-bit word of the stream, in order, and is in its
    set iff the word is below _AUDIT_THRESHOLD.  getrandbits fills 32-bit
    words low first, and every chunk but the last holds an even number of
    sets, so an even number of 16-bit words: the chunks read the stream as
    one call for all the sets would, and leave it where that call would.
    """
    cells = p**rank
    sets = 2 * max(1, _AUDIT_CHUNK // (2 * cells))
    masks = []
    for start in range(0, count, sets):
        words = min(sets, count - start) * cells
        drawn = rng.getrandbits(16 * words).to_bytes(2 * words, "little")
        bits = (np.frombuffer(drawn, dtype="<u2") < _AUDIT_THRESHOLD).reshape(-1, cells)
        packed = np.packbits(bits, axis=1, bitorder="little")
        masks += [int.from_bytes(row.tobytes(), "little") for row in packed]
    return masks


def _verify_checks(p: int, max_rank: int, seed: int, tolerance: float) -> list[tuple]:
    """The suite as (name, anchor, check) triples, in the order run.

    The checks draw from one seeded stream in this order.  A check that draws
    inside its loop scores a list, not a generator, so that every draw happens
    even after a failure and the later checks see the same stream.  The
    overlap audit reads 16 bits of the stream per cell of its sets
    (_audit_masks), so its share of the stream is a fixed number of bits.
    """
    from fractions import Fraction

    from .cyclo import CycloArray
    from .indices import (
        count_below_power,
        enumerate_members,
        full_chaos,
        pattern_multiplicity_check,
        unit_chaos,
    )
    from .stepfn import PArySet, StepFn, independence_check, symmetric_decomposition
    from .uniqueness import overlap_bound_check
    from .vc import matrix_op_norm, synthesize, vc_function, verify_inverse_identity

    vc_function_cached = functools.lru_cache(maxsize=4096)(vc_function)
    checks = []

    def check(name, anchor):
        def add(fn):
            checks.append((name, anchor, fn))
            return fn

        return add

    rng = random.Random(seed)
    k_mat = min(max_rank, 3)

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
        population = range(p ** min(max_rank, 3))
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

    @check("operator-norm", "power iteration on VC^(k) returns p^(k/2)")
    def operator_norm():
        # the float consequence of the inverse identity
        ok = all(abs(matrix_op_norm(p, k) - p ** (k / 2)) <= tolerance for k in range(k_mat + 1))
        return ok, {"tolerance": tolerance}

    @check("overlap-bound-audit", "measure of twice-covered points >= (p*a - 1)/(p - 1)")
    def overlap_audit():
        rank = min(max_rank, 4)
        sets = [PArySet(p, rank, mask) for mask in _audit_masks(rng, p, rank, 200 * p)]
        families = [sets[i : i + p] for i in range(0, len(sets), p)]
        return all([overlap_bound_check(family)[2] for family in families]), {"families": 200}

    @check("independence-product-rule", "joint law of digit functions factorizes exactly")
    def independence():
        def tables():
            depth = rng.randint(min(1, max_rank), min(3, max_rank))
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


def cmd_verify(args) -> int:
    _validate_base(args.p)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConfigError(f"tolerance must be finite and > 0, got {args.tolerance}")
    if args.max_rank < 0:
        raise ConfigError(f"max rank must be >= 0, got {args.max_rank}")
    # the largest grids of the suite: independence tallies rank depth + 1 <= k_mat + 1, and the
    # inverse-identity and operator-norm checks build p**k_mat x p**k_mat exponent tables
    k_mat = min(args.max_rank, 3)
    check_rank(args.p, max(args.max_rank, k_mat + 1, 2 * k_mat))
    checks = _verify_checks(args.p, args.max_rank, args.seed, args.tolerance)
    return _run_report("verify", args, checks)


# -- sharpness -------------------------------------------------------------------


def cmd_sharpness(args) -> int:
    from .uniqueness import witness_full_chaos, witness_unit_chaos

    _validate_base(args.p)
    if args.d < 1:
        raise ConfigError(f"d must be >= 1, got {args.d}")

    def certify(builder):
        report = builder(args.p, args.d)
        return report.holds, {
            "threshold": rational_str(report.threshold),
            "level_set_measure": rational_str(report.level_set_measure),
            "support_size": len(report.support),
        }

    anchor = "chaos polynomial equals a nonzero constant on measure 1 - threshold"
    checks = [
        ("unit-chaos-witness", anchor, functools.partial(certify, witness_unit_chaos)),
        ("full-chaos-witness", anchor, functools.partial(certify, witness_full_chaos)),
    ]
    return _run_report("sharpness", args, checks)


# -- khinchin --------------------------------------------------------------------


def _index_spec_from_args(args):
    """The IndexSpec that --set, --p, --d, --s and --pattern name."""
    from .indices import digit_pattern, exact_weight, full_chaos, unit_chaos

    kind = args.set
    if kind == "v":
        return unit_chaos(args.p, args.d)
    if kind == "vtilde":
        return full_chaos(args.p, args.d)
    if kind == "wtilde":
        if args.s is None:
            raise ConfigError("--s is required for the exact-weight set")
        return exact_weight(args.p, args.s)
    if kind == "aset":
        if not args.pattern:
            raise ConfigError("--pattern is required for digit-pattern sets")
        pattern = tuple(int(x) for x in args.pattern.split(","))
        if args.s is None:
            raise ConfigError("--s is required for digit-pattern sets")
        return digit_pattern(args.p, args.s, pattern)
    raise ConfigError(f"unknown index set {kind!r}")


def cmd_khinchin(args) -> int:
    from .khinchin import estimate_constant, estimate_l1_constant

    _validate_base(args.p)
    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {args.trials}")
    if not math.isfinite(args.q):
        raise ConfigError(f"q must be finite, got {args.q}")
    if float(args.q) == int(args.q):
        args.q = int(args.q)
    spec = _index_spec_from_args(args)

    def estimate():
        report = estimate_constant(
            spec, args.q, args.N, args.trials, args.seed, args.optimizer, args.mode
        )
        values = {
            "best_ratio": report.best_ratio,
            "members": report.members,
            "method": report.method,
        }
        if report.best_ratio_err is not None:
            values["best_ratio_err"] = report.best_ratio_err
        if report.best_ratio_pow_exact is not None:
            values["best_ratio_pow_exact"] = rational_str(report.best_ratio_pow_exact)
        values.update(report.ascent_counters)
        # Lyapunov on a probability space: ||f||_q >= ||f||_2 = ||c||_2 for q >= 2, <= for q < 2
        ratio = report.best_ratio
        return (ratio >= 1.0 - 1e-12 if args.q >= 2 else ratio <= 1.0 + 1e-12), values

    def l1_estimate():
        report = estimate_l1_constant(spec, args.N, args.trials, args.seed)
        ok = report.min_l1_ratio is not None and report.min_l1_ratio > 0
        return ok, {
            "min_l1_ratio": report.min_l1_ratio,
            "min_l1_ratio_err": report.min_l1_ratio_err,
            "members": report.members,
        }

    checks = [
        (
            "lacunarity-constant-estimate",
            "Lq norm of chaos sums bounded by constant times l2 of coefficients",
            estimate,
        )
    ]
    if args.l1:
        checks.append(
            (
                "l1-lower-constant-estimate",
                "L1 norm of chaos sums bounded below via the L2 norm",
                l1_estimate,
            )
        )
    return _run_report("khinchin", args, checks)


# -- transform ---------------------------------------------------------------------


# lines parsed per numpy call: bounds the token lists alive at once; also the
# entries formatted per write
_PARSE_BLOCK = 1 << 14

# the bytes of a file of plain numerals: on these alone lines break only at
# "\n", fields split only at space and tab, and numpy's field parser accepts
# and rounds exactly as float() does (they differ only on "_" and non-ASCII digits)
_NUMERAL_BYTES = b"0123456789+-.eE \t\n"


def _read_array(path: str) -> np.ndarray:
    """Complex entries of a JSON array or of text lines of 1 (real) or 2 (re im) fields.

    A file of plain numerals in 1 or 2 columns is read by numpy's C
    tokenizer; any other file, including every malformed one, by the
    decoded text as open(path).read() gives it, so that parser alone
    decides what else is accepted and words every error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    out = _read_numerals(data)
    if out is None:
        # locale encoding and universal newlines, as a text-mode open reads it
        text = io.TextIOWrapper(io.BytesIO(data)).read()
        del data
        out = _parse_text(text, path)
    if not np.isfinite(out).all():
        raise ConfigError(f"non-finite entry in {path}")
    return out


def _read_numerals(data: bytes) -> np.ndarray | None:
    """The entries of a file of plain numerals in 1 or 2 columns, else None."""
    # blank data never reaches loadtxt, which warns on stderr when it finds no rows
    if not data or data.isspace() or data.translate(None, _NUMERAL_BYTES):
        return None
    try:
        table = np.loadtxt(
            io.BytesIO(data), dtype=float, comments=None, quotechar=None, ndmin=2, encoding="latin1"
        )
    except ValueError:  # a malformed field or ragged rows
        return None
    if table.shape[1] == 1:
        return table[:, 0].astype(complex)
    if table.shape[1] == 2:
        return table.view(complex)[:, 0]
    return None


def _parse_text(text: str, path: str) -> np.ndarray:
    """The entries of a decoded file: a JSON array, else text lines parsed _PARSE_BLOCK at a time."""
    if text.lstrip().startswith("["):
        try:
            data = json.loads(text)
        except RecursionError:
            raise ConfigError(f"arrays nested too deeply in {path}") from None
        # a bare number is a real entry; an empty list fails float() below
        rows = (item if isinstance(item, list) and item else [item] for item in data)
        try:
            return np.array([complex(*map(float, row)) for row in rows], dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed entry in {path}: {exc}") from None
    # drop the text and then the line list once consumed: together they
    # are most of the reader's peak memory
    lines = text.splitlines()
    del text
    blocks = []
    for lo in range(0, len(lines), _PARSE_BLOCK):
        blocks.append(_parse_lines(lines[lo : lo + _PARSE_BLOCK], path))
    del lines
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=complex)


def _parse_lines(lines: list[str], path: str) -> np.ndarray:
    """One complex entry per line of 1 or 2 whitespace-separated fields; blank lines skipped."""
    counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.intp, count=len(lines))
    if (counts > 2).any():
        raise ConfigError(f"malformed entry in {path}: more than 2 fields on a line")
    try:
        # the joined block splits into every line's fields in order; float()
        # semantics for each, as on the JSON path
        fields = np.array(" ".join(lines).split(), dtype=float)
    except ValueError as exc:
        raise ConfigError(f"malformed entry in {path}: {exc}") from None
    counts = counts[counts > 0]
    if len(fields) == 2 * len(counts):
        return fields.view(complex)
    out = np.zeros(len(counts), dtype=complex)
    starts = np.cumsum(counts) - counts
    out.real = fields[starts]
    pairs = counts == 2
    out.imag[pairs] = fields[starts[pairs] + 1]
    return out


def _write_array(path: str, values: np.ndarray, as_json: bool) -> None:
    # Python floats, so repr (%r) prints the shortest round-trip digits
    with open(path, "w") as fh:
        if as_json:
            fh.write(json.dumps(list(zip(values.real.tolist(), values.imag.tolist()))) + "\n")
            return
        # re, im interleaved; each block is one %-format of 2 * n floats
        parts = np.ascontiguousarray(values, dtype=complex).view(float)
        for lo in range(0, len(parts), 2 * _PARSE_BLOCK):
            block = parts[lo : lo + 2 * _PARSE_BLOCK].tolist()
            fh.write(("%r %r\n" * (len(block) // 2)) % tuple(block))


def cmd_transform(args) -> int:
    from .vc import _length_rank, vc_transform_exact, vc_transform_float

    _validate_base(args.p)
    values = _read_array(args.input)
    check_rank(args.p, _length_rank(len(values), args.p))
    if args.mode == "float":
        result = vc_transform_float(values, args.p, args.direction)
    else:
        if values.imag.any():
            raise ConfigError("exact mode accepts real inputs only; use --mode float")
        # each float is its exact integer ratio (float.as_integer_ratio)
        out = vc_transform_exact(values.real.tolist(), args.p, args.direction)
        result = out.float_parts()
    _write_array(args.output, result, args.output.endswith(".json"))
    return 0


# -- index ---------------------------------------------------------------------------


def cmd_index(args) -> int:
    from .indices import check_candidates, enumerate_members

    _validate_base(args.p)
    spec = _index_spec_from_args(args)
    check_candidates(spec, args.max)
    members = enumerate_members(spec, args.max)
    lines = "\n".join(str(n) for n in members)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(lines + ("\n" if lines else ""))
    else:
        if lines:
            print(lines)
    return 0


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcchaos",
        description="Exact verification and estimation for base-p Vilenkin-Chrestenson chaos systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_seed=True, report=True):
        sp.add_argument("--p", type=int, required=True, help="base (>= 2)")
        sp.add_argument("--cell-cap", type=int, default=None, help="max cells per grid")
        if report:
            sp.add_argument("--out", type=str, default=None, help="report output path")
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        if with_seed:
            sp.add_argument("--seed", type=int, default=0)

    # no abbreviations: an option added or removed later would change what one means
    sp = sub.add_parser("verify", help="run the exact verification suite", allow_abbrev=False)
    common(sp)
    sp.add_argument("--max-rank", type=int, default=3)
    sp.add_argument("--tolerance", type=float, default=1e-9, help="float-check tolerance")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser(
        "sharpness", help="certify the uniqueness-threshold witnesses", allow_abbrev=False
    )
    common(sp, with_seed=False)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(func=cmd_sharpness)

    sp = sub.add_parser("khinchin", help="estimate norm-ratio constants", allow_abbrev=False)
    common(sp)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--set", choices=("v", "vtilde", "wtilde", "aset"), default="vtilde")
    sp.add_argument("--pattern", type=str, default=None, help="comma-separated digits")
    sp.add_argument("--q", type=float, default=4)
    sp.add_argument("--N", type=int, default=256)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--optimizer", choices=("random", "ascent"), default="ascent")
    sp.add_argument(
        "--mode",
        choices=("exact", "float"),
        default="exact",
        help="exact certifies even-q ratios in rational arithmetic",
    )
    sp.add_argument("--l1", action="store_true", help="also estimate the L1 lower constant")
    sp.set_defaults(func=cmd_khinchin)

    # here --out would otherwise also stand for --output
    sp = sub.add_parser(
        "transform", help="apply the fast transform to an array file", allow_abbrev=False
    )
    common(sp, with_seed=False, report=False)
    sp.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    sp.add_argument("--mode", choices=("exact", "float"), default="float")
    sp.add_argument("--input", type=str, required=True)
    sp.add_argument("--output", type=str, required=True)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("index", help="list chaos index set members", allow_abbrev=False)
    common(sp, with_seed=False, report=False)
    sp.add_argument("--out", type=str, default=None, help="member list output path")
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--set", choices=("v", "vtilde", "wtilde", "aset"), default="vtilde")
    sp.add_argument("--pattern", type=str, default=None)
    sp.add_argument("--max", type=int, required=True)
    sp.set_defaults(func=cmd_index)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize its error code to 2
        return 0 if exc.code in (0, None) else 2
    try:
        with run_cell_cap(args.cell_cap):
            return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError and RankCapError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a resource or program fault, never exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
