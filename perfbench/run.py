"""Benchmark of the ``vcchaos`` CLI: end-to-end times per command and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Each operation is a fresh
``python3 -m vcchaos.cli`` process, as users run it, started only after the
previous one has exited.  A pass runs every operation of the workload once,
in an order shuffled from (seed, pass).  Seeded operations have
workloads.VARIANTS input variants, and pass i of a cycle uses variant i.
Passes repeat in whole cycles until ``--seconds`` have elapsed, so every
commit measures every input equally often, however fast it runs.  In a plain
run a reference process (``import numpy``, no vcchaos code) starts right
before every operation, and each sample is scaled to reference speed by it.
A time metric is the sum over operations of each operation's median over its
scaled runs, i.e. the time of one typical pass.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` passes alternate between plain and traced (every layer's public
functions wrapped, see tracer.py) and the line carries the per-layer metrics
of the traced passes plus the tracing overhead.  Every output is checked by
an oracle (oracles.py); ``failed`` counts operations with a nonzero exit code
or a rejected output.  The line before it is the environment record.
See README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy loads, here and in every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import selftest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPORT_TIME = re.compile(r'"wall_time_s": [-+.0-9eE]+')
OP_TIMEOUT_S = 150
SETUP_EVERY = 6  # untraced runs start a setup probe before every sixth operation
END_TO_END = ("wall_s", "cpu_s", "setup_s", "sharpness_s", "verify_s", "khinchin_s", "transform_s", "peak_rss_mb")

# The shared host's speed changes by tens of percent, in CPU time as much as
# in wall time: over minutes, and from one second to the next.  Processes
# started a moment apart see much the same speed.  So untraced runs start a
# reference process right before every operation (before the first of a
# probe's runs in a row) and setup probe: it starts the interpreter and
# imports numpy, as every vcchaos process does, and runs no vcchaos code.
# Each sample is reported at reference speed, i.e. scaled by REFERENCE_S /
# (wall time of the reference process right before it).
REFERENCE_CODE = "import numpy"
REFERENCE_S = 0.2


class Runner:
    """Starts vcchaos processes from the checkout one at a time and measures each."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.verdicts: dict[tuple, list[str]] = {}

    def spawn(self, argv: list[str], tag: str) -> dict:
        out_path = os.path.join(self.workdir, f"{tag}.stdout")
        err_path = os.path.join(self.workdir, f"{tag}.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        return {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
            "stdout": stdout,
            "stderr_path": err_path,
        }

    def setup_probe(self, tag: str) -> tuple[float, str]:
        """Interpreter start plus ``import vcchaos.cli``, no work; returns (wall, module path)."""
        code = "import vcchaos.cli, sys; sys.stdout.write(vcchaos.cli.__file__)"
        res = self.spawn([sys.executable, "-c", code], tag)
        if res["code"] != 0:
            raise RuntimeError(f"importing vcchaos.cli failed, see {res['stderr_path']}")
        return res["wall"], res["stdout"]

    def reference_probe(self, tag: str) -> float:
        """Wall time of the reference process, which runs no vcchaos code."""
        res = self.spawn([sys.executable, "-c", REFERENCE_CODE], tag)
        if res["code"] != 0:
            raise RuntimeError(f"the reference process failed, see {res['stderr_path']}")
        return res["wall"]

    def run_op(self, op: dict, variant: int, tag: str, trace_dump: str | None) -> dict:
        inputs = op["variants"][variant]
        if trace_dump is None:
            argv = [sys.executable, "-m", "vcchaos.cli", *inputs["args"]]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), trace_dump, tag, "--", *inputs["args"]]
        for path in inputs.get("outputs", ()):
            if os.path.exists(path):  # a stale file from an earlier pass must not be judged
                os.remove(path)
        res = self.spawn(argv, tag)
        if res["code"] != 0:
            res["problems"] = [f"exit code {res['code']}"]
            return res
        # outputs are deterministic apart from the report's own wall time,
        # which no oracle reads: an output already judged keeps its verdict,
        # anything new goes to the oracle
        digest = hashlib.sha256(REPORT_TIME.sub("", res["stdout"]).encode())
        for path in inputs.get("outputs", ()):
            with open(path, "rb") as fh:
                digest.update(fh.read())
        key = (op["id"], variant, digest.hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = inputs["check"](res["stdout"])
        res["problems"] = list(self.verdicts[key])
        return res


def environment(root: str, seed: int, workload: str, load_before) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(root),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown"


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vcchaos", "cli.py")):
        print(f"error: no vcchaos sources under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    load_before = list(os.getloadavg())
    problems = selftest.run_all()
    for problem in problems:
        print(f"oracle self-test failed: {problem}", file=sys.stderr)

    bench_dir = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(bench_dir, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, root, workdir, bench_dir, load_before, not problems)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root: str, workdir: str, bench_dir: str, load_before: list, selftest_ok: bool) -> int:
    runner = Runner(root, workdir)
    ops = workloads.build(args.workload, args.seed, workdir)
    _, path = runner.setup_probe("setup")
    if not os.path.realpath(path).startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
        raise RuntimeError(f"vcchaos.cli was imported from {path}, not from this checkout")
    setup_times = []  # (setup wall, reference wall) of each setup probe of an untraced run

    samples = {op["id"]: [] for op in ops}  # (wall, cpu, rss, reference wall) of each run
    passes = []  # traced runs: (traced, summed wall, trace dumps) of every pass
    attempted = failed = 0
    # untraced runs stop only after whole cycles, traced runs after a plain and a traced pass
    passes_per_stop = 2 if args.trace else workloads.VARIANTS
    started = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        order = list(ops)
        random.Random(f"order:{args.seed}:{index}").shuffle(order)
        pass_wall, dumps = 0.0, []
        for position, op in enumerate(order):
            reference = 0.0
            if not args.trace:
                reference = runner.reference_probe(f"reference-p{index}-{position}")
                if position % SETUP_EVERY == 0:
                    setup_times.append((runner.setup_probe(f"setup-p{index}-{position}")[0], reference))
            # traced runs keep the first inputs, so a seed's layer counts repeat exactly
            variant = 0 if args.trace else index % len(op["variants"])
            # a traced pass runs every operation once, so its layer counts are those of one pass
            for repeat in range(1 if args.trace else op.get("runs", 1)):
                tag = f"p{index}-{position}-{repeat}-{op['id']}"
                dump_path = os.path.join(workdir, f"{tag}.trace.json") if traced else None
                res = runner.run_op(op, variant, tag, dump_path)
                attempted += 1
                pass_wall += res["wall"]
                samples[op["id"]].append((res["wall"], res["cpu"], res["rss_mb"], reference))
                if traced:
                    try:
                        with open(dump_path) as fh:
                            dumps.append(json.load(fh))
                    except (OSError, ValueError) as exc:
                        res["problems"].append(f"trace dump unreadable: {exc}")
                if res["problems"]:
                    failed += 1
                    print(f"FAIL {tag} {' '.join(op['variants'][variant]['args'])}: {'; '.join(res['problems'])} "
                          f"(stderr: {res['stderr_path']})", file=sys.stderr, flush=True)
        passes.append((traced, pass_wall, dumps))
        index += 1
        if index % passes_per_stop == 0 and time.perf_counter() - started >= args.seconds:
            break

    if args.trace:
        traced_passes = [p for p in passes if p[0]]
        per_pass = [tracer.layer_metrics(tracer.merge(dumps)) for _, _, dumps in traced_passes]
        metrics = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = (median(wall for _, wall, _ in traced_passes)
                                       - median(wall for traced, wall, _ in passes if not traced))
        write_spans(bench_dir, args, [dumps for _, _, dumps in traced_passes])
    else:
        metrics = end_to_end(ops, samples, setup_times, at_reference_speed=True)
        raw = end_to_end(ops, samples, setup_times, at_reference_speed=False)
    units = metric_units(args.trace)
    result = {
        "correct": selftest_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    env = environment(root, args.seed, args.workload, load_before)
    env.update(passes=index, operations=attempted, fail_ratio=failed / attempted)
    if not args.trace:
        env.update(setup_probes=len(setup_times), raw_metrics=raw,
                   reference_s=median(r[3] for runs in samples.values() for r in runs))
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def end_to_end(ops: list[dict], samples: dict[str, list[tuple]], setup_times: list[tuple],
               at_reference_speed: bool) -> dict[str, float]:
    """One pass over the workload: each operation's median over its runs, summed.

    Taking the median per operation before summing keeps a burst of
    machine noise to the operations it hit, where a per-pass total would
    carry it into the whole pass.  With ``at_reference_speed`` every sample
    is first scaled by REFERENCE_S / (its reference probe's wall time);
    without it the values are the raw measurements.
    """
    def scale(reference: float) -> float:
        return REFERENCE_S / reference if at_reference_speed else 1.0

    metrics = {name: 0.0 for name in ("wall_s", "cpu_s", *(f"{c}_s" for c in workloads.COMMANDS))}
    for op in ops:
        runs = samples[op["id"]]
        wall = median(r[0] * scale(r[3]) for r in runs)
        metrics["wall_s"] += wall
        metrics["cpu_s"] += median(r[1] * scale(r[3]) for r in runs)
        if op["command"] in workloads.COMMANDS:
            metrics[f"{op['command']}_s"] += wall
    metrics["setup_s"] = median(setup * scale(reference) for setup, reference in setup_times)
    metrics["peak_rss_mb"] = max(r[2] for runs in samples.values() for r in runs)
    return metrics


def metric_units(trace: int) -> dict[str, str]:
    if not trace:
        return {name: "MB" if name == "peak_rss_mb" else "s" for name in END_TO_END}
    units = {}
    for name in [*tracer.LAYER_METRICS, "khinchin.ascent.improve_ratio", *(f"{l}.errors" for l in tracer.LAYERS)]:
        units[name] = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else (
            "bytes" if name.startswith("cli.bytes") else "count")
    units["trace.overhead_s"] = "s"
    return units


def write_spans(bench_dir: str, args, traced_dumps: list[list[dict]]) -> None:
    """All spans of the traced passes, one JSON object per line; ``op`` ties a span to its command."""
    path = os.path.join(bench_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        for dumps in traced_dumps:
            for dump in dumps:
                for span_id, parent, name, start, end in dump["spans"]:
                    fh.write(json.dumps({"op": dump["op"], "id": span_id, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
