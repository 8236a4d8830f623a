"""Command-line entry point: verification suites, estimations, transforms.

Commands emit machine-readable reports (JSON canonical, CSV as a flat
projection).  Every randomized result is reproducible from the echoed seed,
exact rationals are serialized as "numerator/denominator" strings, and float
values carry their error bounds.  Exit codes: 0 all checks passed, 1 a
mathematical check failed, 2 configuration or resource error, and any other
exception (one "error: <Type>: <message>" line on stderr, no traceback).
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
from fractions import Fraction

import numpy as np

from . import __version__
from .cyclo import CycloArray
from .indices import (
    IndexSpec,
    check_candidates,
    count_below_power,
    digit_pattern,
    enumerate_members,
    exact_weight,
    full_chaos,
    pattern_multiplicity_check,
    unit_chaos,
)
from .khinchin import (
    estimate_constant,
    estimate_l1_constant,
    independence_check,
    symmetric_decomposition,
)
from .pary import check_rank, digitwise_add, run_cell_cap
from .stepfn import PArySet, StepFn
from .uniqueness import overlap_bound_check, witness_full_chaos, witness_unit_chaos
from .vc import (
    _length_rank,
    matrix_op_norm,
    synthesize,
    vc_function,
    vc_transform_exact,
    vc_transform_float,
    verify_inverse_identity,
)

SCHEMA_VERSION = 1


def rational_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class ConfigError(ValueError):
    pass


def _check(name: str, anchor: str, ok: bool, **values) -> dict:
    record = {"name": name, "anchor": anchor, "status": "pass" if ok else "fail"}
    if values:
        record["values"] = values
    return record


def _finish_report(command: str, config: dict, checks: list[dict], started: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "config": config,
        "checks": checks,
        "all_passed": all(c["status"] == "pass" for c in checks),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }


def _write_report(report: dict, out_path: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
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
                    json.dumps(record.get("values", {}), sort_keys=True),
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


def _verify_checks(p: int, max_rank: int, seed: int, tolerance: float) -> list[dict]:
    checks = []
    rng = random.Random(seed)

    k_mat = min(max_rank, 3)
    ok = all(verify_inverse_identity(p, k) for k in range(k_mat + 1))
    checks.append(
        _check(
            "inverse-identity",
            "VC^(k) inverse equals conj-transpose over p^k",
            ok,
            max_rank=k_mat,
        )
    )

    # orthonormality through the step-function integral on a sampled grid
    k_orth = min(max_rank, 2)
    pairs = [(rng.randrange(p**k_orth), rng.randrange(p**k_orth)) for _ in range(20)]
    ok = True
    for n, m in pairs:
        value = (vc_function_cached(p, n) * vc_function_cached(p, m).conj()).integral()
        ok = ok and value == int(n == m)
    checks.append(
        _check(
            "orthonormality-sample",
            "integral of VC_n conj(VC_m) = delta(n,m)",
            ok,
            pairs=len(pairs),
        )
    )

    # Parseval for a random exact coefficient vector
    population = range(p ** min(max_rank, 3))
    support = sorted(rng.sample(population, min(6, p, len(population))))
    coeffs = {n: Fraction(rng.randint(-3, 3)) for n in support}
    coeffs = {n: c for n, c in coeffs.items() if c} or {support[0]: Fraction(1)}
    f = synthesize(coeffs, p)
    lhs = f.lq_norm_even_pow(2)
    rhs = sum((c * c for c in coeffs.values()), Fraction(0))
    checks.append(
        _check(
            "parseval",
            "L2 norm squared of the sum equals sum of |c_n|^2",
            lhs == rhs,
            lhs=rational_str(lhs),
            rhs=rational_str(rhs),
        )
    )

    # multiplicativity on random pairs, at rank 2 (rank 1 when max_rank is 0)
    ok = True
    k_mul = min(max_rank + 1, 2)
    for _ in range(10):
        a, b = rng.randrange(p**k_mul), rng.randrange(p**k_mul)
        ok = ok and (
            vc_function_cached(p, a) * vc_function_cached(p, b)
            == vc_function_cached(p, digitwise_add(a, b, p))
        )
    checks.append(
        _check(
            "multiplicativity",
            "VC_a * VC_b = VC at the digitwise sum mod p",
            ok,
            pairs=10,
        )
    )

    # operator norm, the float consequence of the inverse identity
    ok = True
    for k in range(min(max_rank, 3) + 1):
        estimate = matrix_op_norm(p, k)
        ok = ok and abs(estimate - p ** (k / 2)) <= tolerance
    checks.append(
        _check(
            "operator-norm",
            "power iteration on VC^(k) returns p^(k/2)",
            ok,
            tolerance=tolerance,
        )
    )

    # pair-overlap bound audit
    ok = True
    rank = min(max_rank, 4)
    for _ in range(200):
        sets = [
            PArySet.from_cells(p, rank, [m for m in range(p**rank) if rng.random() < 0.6])
            for _ in range(p)
        ]
        _, _, holds = overlap_bound_check(sets)
        ok = ok and holds
    checks.append(
        _check(
            "overlap-bound-audit",
            "measure of twice-covered points >= (p*a - 1)/(p - 1)",
            ok,
            families=200,
        )
    )

    # independence of digit functions
    ok = True
    for _ in range(20):
        depth = rng.randint(min(1, max_rank), min(3, max_rank))
        tables = [
            [Fraction(rng.randint(-2, 2)) for _ in range(p)] for _ in range(depth + 1)
        ]
        ok = ok and independence_check(p, tables)
    checks.append(
        _check(
            "independence-product-rule",
            "joint law of digit functions factorizes exactly",
            ok,
            tables=20,
        )
    )

    # symmetric decomposition of Re R_k^j
    ok = True
    for j in range(1, p):
        pieces = symmetric_decomposition(p, 0, j)
        re_part = StepFn(p, 1, CycloArray.roots(p, j * np.arange(p)).real_part())
        total = pieces[0]
        for piece in pieces[1:]:
            total = total + piece
        ok = ok and total == re_part
        ok = ok and all(piece.distribution().is_symmetric() for piece in pieces)
    checks.append(
        _check(
            "symmetric-decomposition",
            "Re R_k^j splits into p-1 symmetric mean-zero pieces",
            ok,
            powers=p - 1,
        )
    )

    # index combinatorics
    ok = True
    for d in range(1, 4):
        for levels in range(1, 5):
            spec = full_chaos(p, d)
            ok = ok and len(enumerate_members(spec, p**levels - 1)) == count_below_power(
                spec, levels
            )
            spec = unit_chaos(p, d)
            ok = ok and len(enumerate_members(spec, p**levels - 1)) == count_below_power(
                spec, levels
            )
    checks.append(
        _check(
            "index-counts",
            "enumerated members match binomial closed forms",
            ok,
        )
    )

    # digit-pattern multiplicity
    ok = True
    for s in (1, 2):
        ok = ok and pattern_multiplicity_check(p, s, 2, p**3 - 1)
    checks.append(
        _check(
            "pattern-multiplicity",
            "each weight-s index lies in (p-1)^(L+1-s) pattern sets",
            ok,
        )
    )
    return checks


vc_function_cached = functools.lru_cache(maxsize=4096)(vc_function)


def cmd_verify(args) -> int:
    started = time.perf_counter()
    _validate_base(args.p)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConfigError(f"tolerance must be finite and > 0, got {args.tolerance}")
    if args.max_rank < 0:
        raise ConfigError(f"max rank must be >= 0, got {args.max_rank}")
    # the largest grid of the suite: independence tallies rank depth + 1 <= min(max_rank, 3) + 1
    check_rank(args.p, max(args.max_rank, min(args.max_rank, 3) + 1))
    checks = _verify_checks(args.p, args.max_rank, args.seed, args.tolerance)
    config = {
        "p": args.p,
        "max_rank": args.max_rank,
        "seed": args.seed,
        "cell_cap": args.cell_cap,
        "tolerance": args.tolerance,
    }
    report = _finish_report("verify", config, checks, started)
    _write_report(report, args.out, args.format)
    return 0 if report["all_passed"] else 1


# -- sharpness -------------------------------------------------------------------


def cmd_sharpness(args) -> int:
    started = time.perf_counter()
    _validate_base(args.p)
    if args.d < 1:
        raise ConfigError(f"d must be >= 1, got {args.d}")
    checks = []
    for label, builder in (
        ("unit-chaos-witness", witness_unit_chaos),
        ("full-chaos-witness", witness_full_chaos),
    ):
        report_obj = builder(args.p, args.d)
        ok = (
            report_obj.level_set_measure + report_obj.threshold == 1
            and report_obj.support_ok
            and report_obj.level_value != 0
        )
        checks.append(
            _check(
                label,
                "chaos polynomial equals a nonzero constant on measure 1 - threshold",
                ok,
                threshold=rational_str(report_obj.threshold),
                level_set_measure=rational_str(report_obj.level_set_measure),
                support_size=len(report_obj.witness),
            )
        )
    config = {"p": args.p, "d": args.d, "cell_cap": args.cell_cap}
    report = _finish_report("sharpness", config, checks, started)
    _write_report(report, args.out, args.format)
    return 0 if report["all_passed"] else 1


# -- khinchin --------------------------------------------------------------------


def _index_spec_from_args(args) -> IndexSpec:
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
    started = time.perf_counter()
    _validate_base(args.p)
    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {args.trials}")
    if not math.isfinite(args.q):
        raise ConfigError(f"q must be finite, got {args.q}")
    if float(args.q) == int(args.q):
        args.q = int(args.q)
    spec = _index_spec_from_args(args)
    checks = []
    report_obj = estimate_constant(
        spec, args.q, args.N, args.trials, args.seed, args.optimizer, args.mode
    )
    values = {
        "best_ratio": report_obj.best_ratio,
        "members": report_obj.members,
        "method": report_obj.method,
    }
    if report_obj.best_ratio_err is not None:
        values["best_ratio_err"] = report_obj.best_ratio_err
    if report_obj.best_ratio_pow_exact is not None:
        values["best_ratio_pow_exact"] = rational_str(report_obj.best_ratio_pow_exact)
    values.update(report_obj.ascent_counters)
    # Lyapunov on a probability space: ||f||_q >= ||f||_2 = ||c||_2 for q >= 2, <= for q < 2
    ratio = report_obj.best_ratio
    ok = ratio >= 1.0 - 1e-12 if args.q >= 2 else ratio <= 1.0 + 1e-12
    checks.append(
        _check(
            "lacunarity-constant-estimate",
            "Lq norm of chaos sums bounded by constant times l2 of coefficients",
            ok,
            **values,
        )
    )
    if args.l1:
        l1_report = estimate_l1_constant(spec, args.N, args.trials, args.seed)
        checks.append(
            _check(
                "l1-lower-constant-estimate",
                "L1 norm of chaos sums bounded below via the L2 norm",
                l1_report.min_l1_ratio is not None and l1_report.min_l1_ratio > 0,
                min_l1_ratio=l1_report.min_l1_ratio,
                min_l1_ratio_err=l1_report.min_l1_ratio_err,
                members=l1_report.members,
            )
        )
    config = {
        "p": args.p,
        "d": args.d,
        "s": args.s,
        "set": args.set,
        "q": args.q,
        "N": args.N,
        "trials": args.trials,
        "seed": args.seed,
        "optimizer": args.optimizer,
        "mode": args.mode,
    }
    report = _finish_report("khinchin", config, checks, started)
    _write_report(report, args.out, args.format)
    return 0 if report["all_passed"] else 1


# -- transform ---------------------------------------------------------------------


# lines parsed per numpy call: bounds the token lists alive at once
_PARSE_BLOCK = 1 << 14


def _read_array(path: str) -> np.ndarray:
    """Complex entries of a JSON array or of text lines of 1 (real) or 2 (re im) fields."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("["):
        try:
            data = json.loads(text)
        except RecursionError:
            raise ConfigError(f"arrays nested too deeply in {path}") from None
        # a bare number is a real entry; an empty list fails float() below
        rows = (item if isinstance(item, list) and item else [item] for item in data)
        try:
            out = np.array([complex(*map(float, row)) for row in rows], dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed entry in {path}: {exc}") from None
    else:
        # drop the text and then the line list once consumed: together they
        # are most of the reader's peak memory
        lines = text.splitlines()
        del text
        blocks = []
        for lo in range(0, len(lines), _PARSE_BLOCK):
            blocks.append(_parse_lines(lines[lo : lo + _PARSE_BLOCK], path))
        del lines
        out = np.concatenate(blocks) if blocks else np.zeros(0, dtype=complex)
    if not np.isfinite(out).all():
        raise ConfigError(f"non-finite entry in {path}")
    return out


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
    # Python floats, so repr prints the shortest round-trip digits
    re, im = values.real.tolist(), values.imag.tolist()
    with open(path, "w") as fh:
        if as_json:
            json.dump(list(zip(re, im)), fh)
            fh.write("\n")
        else:
            fh.writelines(f"{a!r} {b!r}\n" for a, b in zip(re, im))


def cmd_transform(args) -> int:
    _validate_base(args.p)
    values = _read_array(args.input)
    check_rank(args.p, _length_rank(len(values), args.p))
    if args.mode == "float":
        result = vc_transform_float(values, args.p, args.direction)
    else:
        if values.imag.any():
            raise ConfigError("exact mode accepts real inputs only; use --mode float")
        out = vc_transform_exact(list(map(Fraction, values.real.tolist())), args.p, args.direction)
        result = np.array(out.float_parts(), dtype=complex)
    _write_array(args.output, result, args.output.endswith(".json"))
    return 0


# -- index ---------------------------------------------------------------------------


def cmd_index(args) -> int:
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

    def common(sp, with_seed=True):
        sp.add_argument("--p", type=int, required=True, help="base (>= 2)")
        sp.add_argument("--cell-cap", type=int, default=None, help="max cells per grid")
        sp.add_argument("--out", type=str, default=None, help="report output path")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if with_seed:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("verify", help="run the exact verification suite")
    common(sp)
    sp.add_argument("--max-rank", type=int, default=3)
    sp.add_argument("--tolerance", type=float, default=1e-9, help="float-check tolerance")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sharpness", help="certify the uniqueness-threshold witnesses")
    common(sp, with_seed=False)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(func=cmd_sharpness)

    sp = sub.add_parser("khinchin", help="estimate norm-ratio constants")
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

    sp = sub.add_parser("transform", help="apply the fast transform to an array file")
    common(sp, with_seed=False)
    sp.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    sp.add_argument("--mode", choices=("exact", "float"), default="float")
    sp.add_argument("--input", type=str, required=True)
    sp.add_argument("--output", type=str, required=True)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("index", help="list chaos index set members")
    common(sp, with_seed=False)
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
