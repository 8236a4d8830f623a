"""Workload definitions: the operations of one pass, generated from the seed.

Each workload puts most of its time in different layers (see README.md):

- ``exact-algebra``: sharpness witnesses, the exact verify suite and exact
  transforms, i.e. ``Fraction``/``CycloValue`` arithmetic, ``StepFn`` and the
  exact radix-p transform.  Composite p = 6 exercises reduction modulo Phi_n
  for composite n.
- ``khinchin-even``: exact even-q Khinchin estimation, i.e. the digitwise
  convolution moments (``digitwise_add``), coordinate ascent and the exact
  certificate; ``--l1`` adds a little float synthesis.
- ``float-pipeline``: float q = 3 estimation through the float transform
  (``digit_count``, ``vc_transform_float``), 2**17-cell float transforms in
  both directions through text I/O, and an index stream.

Every workload also runs one small probe operation of each command it does
not stress, so that every per-command time is measured, and never 0, on every
workload.  A probe's time is mostly interpreter start and import, and it is
the only operation behind its per-command time, so a plain pass runs it
PROBE_RUNS times in a row to take more samples of it.

An operation is a dict: ``command`` and ``variants``, a list of inputs, each
with ``args`` (the vcchaos argv), ``check(stdout_text) -> problems`` and the
``outputs`` files the check reads; ``runs`` is how often a plain pass runs
it in a row (default 1).  Every seeded khinchin configuration also gets a
companion operation with ``--optimizer random``, whose ratio the oracle can
recompute exactly.
"""

from __future__ import annotations

import json
import os
import random
from functools import partial

import numpy as np

import oracles

WORKLOADS = ("exact-algebra", "khinchin-even", "float-pipeline")
COMMANDS = ("sharpness", "verify", "khinchin", "transform")
# Operations that take a seed (verify, khinchin) get this many seeded input
# variants, and pass i of a cycle uses variant i: their run time depends on
# the seed (verify's random table depths, the length of the ascent), so a
# run's per-operation medians average over inputs too.  Operations without
# a seed repeat their one input in every pass.
VARIANTS = 4
PROBE_RUNS = 2


def _json_report(text: str) -> dict:
    report = json.loads(text)
    if not isinstance(report, dict):
        raise ValueError("report is not a JSON object")
    return report


def _checked_json(check):
    def run(text: str) -> list[str]:
        try:
            report = _json_report(text)
        except ValueError as exc:
            return [f"unreadable report: {exc}"]
        return check(report)

    return run


def sharpness(p: int, d: int) -> dict:
    return {"command": "sharpness", "variants": [{
        "args": ["sharpness", "--p", str(p), "--d", str(d)],
        "check": _checked_json(partial(oracles.check_sharpness, p=p, d=d)),
    }]}


def verify(rng: random.Random, p: int, max_rank: int) -> dict:
    variants = []
    for seed in [rng.randrange(10**6) for _ in range(VARIANTS)]:
        variants.append({
            "args": ["verify", "--p", str(p), "--max-rank", str(max_rank), "--seed", str(seed)],
            "check": _checked_json(partial(oracles.check_verify, p=p, max_rank=max_rank, seed=seed)),
        })
    return {"command": "verify", "variants": variants}


def khinchin(rng: random.Random, p, d, kind, q, upper, trials, mode="exact", l1=False,
             optimizer="ascent") -> dict:
    variants = []
    for seed in [rng.randrange(2**31) for _ in range(VARIANTS)]:
        params = {"p": p, "d": d, "set": kind, "q": q, "N": upper, "trials": trials,
                  "seed": seed, "mode": mode, "l1": l1, "optimizer": optimizer}
        variants.append({
            "args": ["khinchin", "--p", str(p), "--d", str(d), "--set", kind, "--q", str(q),
                     "--N", str(upper), "--trials", str(trials), "--seed", str(seed), "--mode", mode,
                     "--optimizer", optimizer] + (["--l1"] if l1 else []),
            "check": _checked_json(partial(oracles.check_khinchin, op=params, replays={})),
        })
    return {"command": "khinchin", "variants": variants}


def khinchin_set(rng: random.Random, copies: int, *config, **options) -> list[dict]:
    """``copies`` ascent operations of one configuration plus its random-optimizer companion.

    The ascent result is checked against the oracle's own ascent; the
    companion's ratio is the best seeded start's, which the oracle recomputes
    exactly (even q) or within the reported error bound.
    """
    ops = [khinchin(rng, *config, **options) for _ in range(copies)]
    companion = dict(options, l1=False, optimizer="random")
    return ops + [khinchin(rng, *config, **companion)]


def probe(op: dict) -> dict:
    """A small operation of a command the workload does not stress, run PROBE_RUNS times per plain pass."""
    return dict(op, runs=PROBE_RUNS)


def khinchin_probe(rng: random.Random) -> dict:
    """q = 2 is Parseval: ascent, certificate and L1 run, but no convolution and no digitwise sums."""
    return probe(khinchin(rng, 2, 1, "v", 2, 8, 1, l1=True))


def _read_complex(path: str) -> np.ndarray:
    with open(path) as fh:
        parts = fh.read().split()
    values = np.array(parts, dtype=float)
    if values.size % 2:
        raise ValueError("odd number of fields")
    return values[0::2] + 1j * values[1::2]


def transform_exact(rng: random.Random, workdir: str, name: str, p: int, k: int) -> dict:
    """Forward exact transform of seeded integers in [-9, 9]; checked by a dense round trip."""
    x = np.array([rng.randint(-9, 9) for _ in range(p**k)], dtype=float)
    src, dst = os.path.join(workdir, f"{name}.in"), os.path.join(workdir, f"{name}.out")
    with open(src, "w") as fh:
        fh.write("".join(f"{int(v)}\n" for v in x))

    def check(_stdout: str) -> list[str]:
        try:
            coeffs = _read_complex(dst)
        except (OSError, ValueError) as exc:
            return [f"unreadable transform output: {exc}"]
        return oracles.check_exact_roundtrip(x.astype(complex), coeffs, p)

    return {"command": "transform", "variants": [{
        "args": ["transform", "--p", str(p), "--mode", "exact", "--direction", "forward",
                 "--input", src, "--output", dst],
        "outputs": [dst],
        "check": check,
    }]}


def transform_float(rng: random.Random, workdir: str, name: str, p: int, k: int, direction: str) -> dict:
    """Float transform of a seeded complex Gaussian array written as 're im' text lines."""
    gen = np.random.default_rng(rng.randrange(2**63))
    x = gen.standard_normal(p**k) + 1j * gen.standard_normal(p**k)
    src, dst = os.path.join(workdir, f"{name}.in"), os.path.join(workdir, f"{name}.out")
    with open(src, "w") as fh:
        fh.write("".join(f"{a!r} {b!r}\n" for a, b in zip(x.real.tolist(), x.imag.tolist())))
    reference = {}

    def check(_stdout: str) -> list[str]:
        try:
            out = _read_complex(dst)
        except (OSError, ValueError) as exc:
            return [f"unreadable transform output: {exc}"]
        if "ref" not in reference:
            reference["ref"] = oracles.fft_apply(x, p, direction)
        return oracles.check_float_transform(x, out, p, direction, reference["ref"])

    return {"command": "transform", "variants": [{
        "args": ["transform", "--p", str(p), "--mode", "float", "--direction", direction,
                 "--input", src, "--output", dst],
        "outputs": [dst],
        "check": check,
    }]}


def index(rng: random.Random) -> dict:
    kind, p, d = rng.choice((("v", 3, 2), ("vtilde", 3, 2), ("vtilde", 2, 3), ("v", 5, 2)))
    upper = rng.randrange(20_000, 60_000)

    def check(text: str) -> list[str]:
        return oracles.check_index(text.splitlines(), kind, p, d, upper)

    return {"command": "index", "variants": [{
        "args": ["index", "--set", kind, "--p", str(p), "--d", str(d), "--max", str(upper)],
        "check": check,
    }]}


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    """The operations of every pass of a run; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-algebra":
        ops = [
            sharpness(2, 8), sharpness(3, 5), sharpness(6, 3),
            verify(rng, 6, 3), verify(rng, 5, 2),
            transform_exact(rng, workdir, "exact-p6", 6, 4),
            transform_exact(rng, workdir, "exact-p3", 3, 6),
            khinchin_probe(rng),
        ]
    elif workload == "khinchin-even":
        ops = khinchin_set(rng, 1, 2, 2, "v", 6, 15, 20)
        ops += khinchin_set(rng, 1, 2, 1, "v", 4, 1024, 500, l1=True)
        ops += khinchin_set(rng, 1, 3, 2, "vtilde", 4, 242, 100)
        ops += [probe(sharpness(2, 1)), probe(verify(rng, 2, 1)),
                probe(transform_float(rng, workdir, "probe", 2, 4, "forward"))]
    elif workload == "float-pipeline":
        ops = khinchin_set(rng, 2, 3, 2, "vtilde", 3, 26, 50, mode="float")
        ops += [transform_float(rng, workdir, f"float-{d}", 2, 17, d) for d in ("forward", "inverse")]
        ops += [index(rng), probe(sharpness(2, 1)), probe(verify(rng, 2, 1))]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for i, op in enumerate(ops):
        op["id"] = f"{i}-{op['command']}"
    return ops
