"""Layer tracer: runs one ``vcchaos`` command with every layer's public functions wrapped.

Usage: ``python3 perfbench/tracer.py DUMP.json OP_ID -- <vcchaos arguments>``

The wrappers are installed from outside the package: each public function of
each module, and each method of its public classes, is replaced by a timing
wrapper, also under the names where other modules imported it (for example
``vcchaos.khinchin.digitwise_add``).  Every call adds to per-function
aggregates (calls, total time, self time = duration minus time spent in
wrapped callees), so hot leaves such as ``digitwise_add`` and ``CycloValue``
arithmetic cost a fixed amount of memory.  Coarse calls listed in ``COARSE``
additionally record a span (id, parent span, name, start, end) on the
process-wide monotonic clock.  Spans and aggregates stay in memory and are
written to DUMP.json when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("pary", "cyclo", "stepfn", "vc", "indices", "khinchin", "uniqueness", "cli")

# private CLI helpers that do the file and report I/O
CLI_IO = ("_read_array", "_write_array", "_write_report")

COARSE = {
    "cli.cmd_verify", "cli.cmd_sharpness", "cli.cmd_khinchin", "cli.cmd_transform", "cli.cmd_index",
    "cli._read_array", "cli._write_array", "cli._write_report",
    "uniqueness.witness_unit_chaos", "uniqueness.witness_full_chaos", "uniqueness.overlap_bound_check",
    "vc.verify_inverse_identity", "vc.matrix_op_norm", "vc.vc_transform_exact", "vc.synthesize",
    "khinchin.estimate_constant", "khinchin.estimate_l1_constant", "khinchin.coordinate_ascent",
    "khinchin.norm_ratio_pow_exact", "khinchin.independence_check", "khinchin.symmetric_decomposition",
    "indices.enumerate_members", "indices.pattern_multiplicity_check",
}

MAX_SPANS = 200_000
# coordinate_ascent accepts a move only when it beats the best value by this factor
ASCENT_ACCEPT = 1 + 1e-13


class Recorder:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.stack: list[list] = []  # frames: [start, child_time, layer, span_id]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.spans: list[tuple] = []
        self.dropped_spans = 0

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, layer: str, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, errors = self.stack, self.spans, self.errors
        clock = time.perf_counter
        coarse = name in COARSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if coarse:
                if len(spans) < MAX_SPANS:
                    span_id = len(spans)
                    spans.append(None)
                else:
                    self.dropped_spans += 1
            frame = [clock(), 0.0, layer, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if len(stack) < 2 or stack[-2][2] != layer:
                    errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span_id is not None:
                    parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                    spans[span_id] = (span_id, parent, name, frame[0], end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        data = {
            "op": self.op_id,
            "stats": self.stats,
            "counters": self.counters,
            "errors": self.errors,
            "spans": [s for s in self.spans if s is not None],
            "dropped_spans": self.dropped_spans,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _after_hooks(rec: Recorder) -> dict:
    """Counters that need an argument or a result, keyed by wrapped name."""

    def cells_of_check_rank(args, kwargs, result):
        rec.count("pary.check_rank.cells", result)

    def cells_of_level_set(args, kwargs, result):
        rec.count("stepfn.level_set.cells", len(args[0].values))

    def cells_of(key):
        def hook(args, kwargs, result):
            rec.count(key, len(result))

        return hook

    def members_of(args, kwargs, result):
        rec.count("indices.members", len(result))

    def bytes_read(args, kwargs, result):
        rec.count("cli.bytes_in", os.path.getsize(args[0]))

    def bytes_written(args, kwargs, result):
        rec.count("cli.bytes_out", os.path.getsize(args[0]))

    def report_written(args, kwargs, result):
        out_path = args[1] if len(args) > 1 else kwargs.get("out_path")
        if out_path:
            rec.count("cli.bytes_out", os.path.getsize(out_path))

    return {
        "pary.check_rank": cells_of_check_rank,
        "stepfn.StepFn.level_set": cells_of_level_set,
        "vc.vc_transform_exact": cells_of("vc.transform_exact.cells"),
        "vc.vc_transform_float": cells_of("vc.transform_float.cells"),
        "indices.enumerate_members": members_of,
        "cli._read_array": bytes_read,
        "cli._write_array": bytes_written,
        "cli._write_report": report_written,
    }


def _counting_ascent(rec: Recorder, ascent):
    """Wrap coordinate_ascent so that the objective it is given counts its evaluations."""

    def traced_ascent(objective, start, *args, **kwargs):
        state = {"best": None}
        timed = rec.wrap("khinchin.objective", "khinchin", objective)

        def counted(c):
            value = timed(c)
            rec.count("khinchin.ascent.evals")
            best = state["best"]
            if best is None:
                state["best"] = value
            elif value > best * ASCENT_ACCEPT:
                state["best"] = value
                rec.count("khinchin.ascent.improving")
            return value

        evals_before = rec.counters.get("khinchin.ascent.evals", 0)
        try:
            return ascent(counted, start, *args, **kwargs)
        finally:
            evals = rec.counters.get("khinchin.ascent.evals", 0) - evals_before
            rec.count("khinchin.ascent.sweeps", (evals - 1) / (4 * len(start)))

    return traced_ascent


def install(rec: Recorder) -> None:
    """Wrap the public functions and class methods of every layer, in place."""
    modules = {layer: importlib.import_module(f"vcchaos.{layer}") for layer in LAYERS}
    hooks = _after_hooks(rec)
    replaced: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            public = not attr.startswith("_") or (layer == "cli" and attr in CLI_IO)
            if not public or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                if name == "khinchin.coordinate_ascent":
                    obj_wrapped = rec.wrap(name, layer, _counting_ascent(rec, obj))
                else:
                    obj_wrapped = rec.wrap(name, layer, obj, hooks.get(name))
                replaced[id(obj)] = obj_wrapped
                setattr(module, attr, obj_wrapped)
            elif inspect.isclass(obj):
                _wrap_class(rec, layer, obj, hooks)
    # rebind the names other modules imported, and caches built around them
    for module in [*modules.values(), importlib.import_module("vcchaos")]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])
            elif id(getattr(obj, "__wrapped__", None)) in replaced and hasattr(obj, "cache_info"):
                maxsize = obj.cache_parameters()["maxsize"]
                setattr(module, attr, functools.lru_cache(maxsize=maxsize)(replaced[id(obj.__wrapped__)]))


def _wrap_class(rec: Recorder, layer: str, cls, hooks: dict) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and not attr.startswith("__"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, (classmethod, staticmethod)):
            inner = rec.wrap(name, layer, member.__func__, hooks.get(name))
            setattr(cls, attr, type(member)(inner))
        elif inspect.isfunction(member):
            setattr(cls, attr, rec.wrap(name, layer, member, hooks.get(name)))


# -- aggregation (runs in the benchmark process) ---------------------------------

# per-layer metric -> how it is read from the summed stats and counters
CALLS, SELF, COUNTER = "calls", "self", "counter"
LAYER_METRICS = {
    "pary.digitwise_add.calls": (CALLS, ("pary.digitwise_add",)),
    "pary.digitwise_add.self_s": (SELF, ("pary.digitwise_add",)),
    "pary.digit_count.calls": (CALLS, ("pary.digit_count",)),
    "pary.check_rank.cells": (COUNTER, "pary.check_rank.cells"),
    "cyclo.values_built": (CALLS, ("cyclo.CycloValue.__init__",)),
    "cyclo.arith.self_s": (SELF, ("cyclo.",)),
    "cyclo.zero_tests": (CALLS, ("cyclo.CycloValue.is_zero",)),
    "stepfn.self_s": (SELF, ("stepfn.StepFn.", "stepfn.Distribution.", "stepfn.at_least_two")),
    "stepfn.level_set.cells": (COUNTER, "stepfn.level_set.cells"),
    "stepfn.parysset.self_s": (SELF, ("stepfn.PArySet.",)),
    "vc.transform_exact.calls": (CALLS, ("vc.vc_transform_exact",)),
    "vc.transform_exact.cells": (COUNTER, "vc.transform_exact.cells"),
    "vc.transform_exact.self_s": (SELF, ("vc.vc_transform_exact",)),
    "vc.transform_float.calls": (CALLS, ("vc.vc_transform_float",)),
    "vc.transform_float.cells": (COUNTER, "vc.transform_float.cells"),
    "vc.transform_float.self_s": (SELF, ("vc.vc_transform_float",)),
    "vc.inverse_identity.self_s": (SELF, ("vc.verify_inverse_identity",)),
    "vc.op_norm.self_s": (SELF, ("vc.matrix_op_norm",)),
    "vc.vc_function.calls": (CALLS, ("vc.vc_function",)),
    "indices.members": (COUNTER, "indices.members"),
    "indices.enumerate.self_s": (SELF, ("indices.enumerate_members", "indices.iter_members")),
    "khinchin.trials": (CALLS, ("khinchin.sample_unit_coefficients",)),
    "khinchin.sample.self_s": (SELF, ("khinchin.sample_unit_coefficients",)),
    "khinchin.ascent.evals": (COUNTER, "khinchin.ascent.evals"),
    "khinchin.ascent.sweeps": (COUNTER, "khinchin.ascent.sweeps"),
    "khinchin.ascent.self_s": (SELF, ("khinchin.coordinate_ascent",)),
    "khinchin.objective.self_s": (SELF, ("khinchin.objective",)),
    "khinchin.certificate.self_s": (
        SELF, ("khinchin.norm_ratio_pow_exact", "khinchin.moment_even_pow_exact", "khinchin.fourth_moment_exact"),
    ),
    "khinchin.l1.self_s": (
        SELF, ("khinchin.l1_lower_ratio_with_error", "khinchin.l1_lower_ratio", "khinchin.estimate_l1_constant"),
    ),
    "uniqueness.witness_unit.self_s": (SELF, ("uniqueness.witness_unit_chaos",)),
    "uniqueness.witness_full.self_s": (SELF, ("uniqueness.witness_full_chaos",)),
    "uniqueness.overlap_audit.self_s": (SELF, ("uniqueness.overlap_bound_check",)),
    "cli.io.self_s": (SELF, tuple(f"cli.{name}" for name in CLI_IO)),
    "cli.bytes_in": (COUNTER, "cli.bytes_in"),
    "cli.bytes_out": (COUNTER, "cli.bytes_out"),
}


def merge(dumps: list[dict]) -> dict:
    """Sum the stats, counters and error counts of several traced commands."""
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    errors = {layer: 0 for layer in LAYERS}
    for dump in dumps:
        for name, (calls, total, own) in dump["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for layer, value in dump["errors"].items():
            errors[layer] += value
    return {"stats": stats, "counters": counters, "errors": errors}


def layer_metrics(merged: dict) -> dict[str, float]:
    """Every per-layer metric of one pass, from the merged dumps of its commands."""
    stats, counters = merged["stats"], merged["counters"]
    out = {}
    for metric, (kind, source) in LAYER_METRICS.items():
        if kind == COUNTER:
            out[metric] = counters.get(source, 0)
            continue
        column = 0 if kind == CALLS else 2
        out[metric] = sum(
            row[column] for name, row in stats.items() if any(
                name == s or (s.endswith(".") and name.startswith(s)) for s in source
            )
        )
    evals = counters.get("khinchin.ascent.evals", 0)
    out["khinchin.ascent.improve_ratio"] = counters.get("khinchin.ascent.improving", 0) / evals if evals else 0.0
    for layer in LAYERS:
        out[f"{layer}.errors"] = merged["errors"][layer]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py DUMP.json OP_ID -- <vcchaos arguments>", file=sys.stderr)
        return 2
    dump_path, op_id, cli_args = argv[0], argv[1], argv[3:]
    rec = Recorder(op_id)
    install(rec)
    cli = importlib.import_module("vcchaos.cli")
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        rec.count("cli.bytes_out", os.fstat(sys.stdout.fileno()).st_size)
        rec.dump(dump_path, {"exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
