"""Command-line entry point: verification suites, estimations, transforms.

Commands emit machine-readable reports (JSON canonical, CSV as a flat
projection).  Every randomized result is reproducible from the echoed seed,
exact rationals are serialized as "numerator/denominator" strings, and float
values carry their error bounds.  Exit codes: 0 all checks passed, 1 a
mathematical check failed, 2 configuration or resource error, and any other
exception (one "error: <Type>: <message>" line on stderr, no traceback).

The CLI parses argv, calls the library and writes the report: each input
rule lives in the library function that uses the input.  Each command
imports the layers it calls when it runs (README lists each command's load
set; tests/test_loading.py checks them).  No layer imports dataclasses; csv
is loaded only for --format csv, and json only to write a report or read or
write a JSON transform file.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import __version__
from .pary import check_rank, rational_str, run_cell_cap

SCHEMA_VERSION = 1


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
    # json and csv are imported here, so a command that writes no report loads neither
    import json

    if fmt == "json":
        text = json.dumps(report, allow_nan=False, indent=2, sort_keys=True) + "\n"
    else:
        import csv
        import io

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
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- verify --------------------------------------------------------------------

def cmd_verify(args) -> int:
    from .suite import verify_checks

    return _run_report("verify", args, verify_checks(args.p, args.max_rank, args.seed))


# -- sharpness -------------------------------------------------------------------


def cmd_sharpness(args) -> int:
    from .uniqueness import witness_full_chaos, witness_unit_chaos

    def certify(builder):
        report = builder(args.p, args.d)
        return report.holds, {
            "threshold": rational_str(report.threshold),
            "level_set_measure": rational_str(report.level_set_measure),
            "support_size": report.support_size,
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
            raise ValueError("--s is required for the exact-weight set")
        return exact_weight(args.p, args.s)
    if not args.pattern:
        raise ValueError("--pattern is required for digit-pattern sets")
    pattern = tuple(int(x) for x in args.pattern.split(","))
    if args.s is None:
        raise ValueError("--s is required for digit-pattern sets")
    return digit_pattern(args.p, args.s, pattern)


def cmd_khinchin(args) -> int:
    from .khinchin import estimate_constant, estimate_l1_constant

    # an integral q (the default 4 is an int already) is echoed and used as an int
    if float(args.q).is_integer():
        args.q = int(args.q)
    spec = _index_spec_from_args(args)

    def estimate():
        report = estimate_constant(spec, args.q, args.N, args.trials, args.seed, args.optimizer)
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
        # Lyapunov on a probability space: ||f||_q >= ||f||_2 = ||c||_2 for q >= 2, <= for q < 2,
        # read from the exact certificate, else from the ratio's proven error bound
        if report.best_ratio_pow_exact is not None:
            ok = report.best_ratio_pow_exact >= 1
        elif args.q >= 2:
            ok = report.best_ratio + report.best_ratio_err >= 1
        else:
            ok = report.best_ratio - report.best_ratio_err <= 1
        return ok, values

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

# The file reader and writer live in textio, which only transform imports;
# these two names are the CLI's file I/O, as perfbench's tracer times it.


def _read_array(path: str) -> np.ndarray:
    """The complex entries of a transform input file (textio.read_array)."""
    from .textio import read_array

    return read_array(path)


def _write_array(path: str, values: np.ndarray, as_json: bool) -> None:
    """Write transform output as text lines or JSON (textio.write_array)."""
    from .textio import write_array

    write_array(path, values, as_json)


def cmd_transform(args) -> int:
    from .vc import _length_rank, vc_transform_exact, vc_transform_float

    values = _read_array(args.input)
    check_rank(args.p, _length_rank(len(values), args.p))
    if args.mode == "exact" and values.imag.any():
        raise ValueError("exact mode accepts real inputs only; use --mode float")
    # finite entries can sum past the float range: the float transform then
    # holds inf or nan, and the exact one's float view fails or holds inf
    with np.errstate(over="ignore", invalid="ignore"):
        if args.mode == "float":
            result = vc_transform_float(values, args.p, args.direction)
        else:
            # each float is its exact integer ratio (float.as_integer_ratio)
            out = vc_transform_exact(values.real.tolist(), args.p, args.direction)
            try:
                result = out.float_parts()
            except OverflowError:
                result = None
    if result is None or not np.isfinite(result).all():
        raise ValueError(f"the transform of {args.input} overflows the float range")
    _write_array(args.output, result, args.output.endswith(".json"))
    return 0


# -- index ---------------------------------------------------------------------------


def cmd_index(args) -> int:
    from .indices import check_candidates, enumerate_members

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

    def common(sp, with_seed=True, report=True, index_set=False):
        sp.add_argument("--p", type=int, required=True, help="base (>= 2)")
        sp.add_argument("--cell-cap", type=int, default=None, help="max cells per grid")
        if index_set:
            sp.add_argument("--d", type=int, default=1)
            sp.add_argument("--s", type=int, default=None)
            sp.add_argument("--set", choices=("v", "vtilde", "wtilde", "aset"), default="vtilde")
            sp.add_argument("--pattern", type=str, default=None, help="comma-separated digits")
        if report:
            sp.add_argument("--out", type=str, default=None, help="report output path")
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        if with_seed:
            sp.add_argument("--seed", type=int, default=0)

    # no abbreviations: an option added or removed later would change what one means
    sp = sub.add_parser("verify", help="run the exact verification suite", allow_abbrev=False)
    common(sp)
    sp.add_argument("--max-rank", type=int, default=3)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser(
        "sharpness", help="certify the uniqueness-threshold witnesses", allow_abbrev=False
    )
    common(sp, with_seed=False)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(func=cmd_sharpness)

    sp = sub.add_parser("khinchin", help="estimate norm-ratio constants", allow_abbrev=False)
    common(sp, index_set=True)
    sp.add_argument("--q", type=float, default=4)
    sp.add_argument("--N", type=int, default=256)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--optimizer", choices=("random", "ascent"), default="ascent")
    sp.add_argument(
        "--mode",
        choices=("exact", "float"),
        default="exact",
        help="accepted and echoed in the report's config, but selects nothing: "
        "every even q is certified exactly, other q carry a proven error bound",
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
    common(sp, with_seed=False, report=False, index_set=True)
    sp.add_argument("--out", type=str, default=None, help="member list output path")
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
    except (ValueError, OSError) as exc:  # RankCapError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a resource or program fault, never exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
