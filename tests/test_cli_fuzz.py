"""Fuzz the exit-code contract of every command through cli.main, in process.

Each argv draws small in-range values; a hostile argv also mixes in
negative, zero, 10**30 and nan values, unknown choices and malformed
transform input.  Every run must exit 0, 1 or 2 without a traceback.  Each
argv carries a --cell-cap of 256 or 4096, or a tiny or malformed one (it is
never absent or huge): the cap bounds every workload that grows faster than
linearly, so each example stays small.  --trials is linear work with no
cap, so it stays below 4 (or is -1, 0 or nan), and verify's --max-rank is
always given (the default 3 takes about 0.5 s at p = 5).  Every report a
run prints on stdout must parse as strict JSON: no NaN or Infinity.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from vcchaos.cli import main


def reject_constant(token):
    raise AssertionError(f"report is not strict JSON: {token}")


def maybe(value):
    """The flag's value, or None to leave the flag out."""
    return st.one_of(st.none(), value)


def flags(**options):
    """argv words for every option; an option whose value is None is left out."""
    pairs = [value.map(lambda v, f=flag: [] if v is None else [f"--{f}", v])
             for flag, value in options.items()]
    return st.tuples(*pairs).map(lambda parts: [word for part in parts for word in part])


def argvs(hostile):
    """argv of any command; with hostile, any value may be out of range or malformed."""

    def ints(lo, hi, bad=("-1", "0", str(10**30), "nan")):
        value = st.integers(lo, hi).map(str)
        return st.one_of(value, st.sampled_from(bad)) if hostile else value

    def choice(good, bad):
        return st.sampled_from(good + bad if hostile else good)

    cap = {"cell-cap": choice(["256", "4096"], ["-1", "0", "1", "2", "nan"])}
    sets = maybe(choice(["v", "vtilde", "wtilde", "aset"], ["bogus"]))
    pattern = maybe(choice(["1,2", "2,1,1", "1"], ["0", "x", "", "1,-1"]))
    modes = maybe(choice(["exact", "float"], ["bogus"]))
    commands = {
        "verify": flags(
            p=ints(2, 5), seed=maybe(ints(0, 9)), **{"max-rank": ints(0, 2)}, **cap,
            tolerance=maybe(choice(["1e-9", "0.5"], ["-1", "0", "nan", "1e30"]))),
        "sharpness": flags(p=ints(2, 7), d=ints(1, 3), **cap),
        "khinchin": flags(
            p=ints(2, 5), d=maybe(ints(1, 3)), s=maybe(ints(1, 3)), set=sets, pattern=pattern,
            q=maybe(choice(["1", "1.5", "2", "3", "4", "6", "2000.5"],
                           ["-1", "0", "nan", "1e30", "inf"])),
            N=maybe(ints(1, 200)), trials=ints(1, 3, ("-1", "0", "nan")), seed=maybe(ints(0, 9)),
            optimizer=maybe(choice(["ascent", "random"], ["bogus"])), mode=modes, **cap,
        ).flatmap(lambda argv: st.sampled_from([argv, argv + ["--l1"]])),
        "transform": flags(
            p=ints(2, 5), direction=maybe(choice(["forward", "inverse"], ["bogus"])),
            mode=modes, **cap),
        "index": flags(
            p=ints(2, 5), d=maybe(ints(1, 3)), s=maybe(ints(1, 3)), set=sets, pattern=pattern,
            max=ints(1, 500), **cap),
    }
    return st.one_of(*(argv.map(lambda a, c=name: [c, *a]) for name, argv in commands.items()))


def arrays(hostile):
    """(re, im) entries of a transform input whose length is often a power of p."""
    number = st.integers(-9, 9).map(str)
    if hostile:
        number = st.one_of(number, st.sampled_from(["0.5", "1e308", "nan", "inf", "x", ""]))
    entry = st.tuples(number, st.one_of(st.just("0"), number))
    lengths = st.sampled_from([0, 1, 2, 3, 4, 8, 9, 16, 25, 27])
    return lengths.flatmap(lambda n: st.lists(entry, min_size=n, max_size=n))


@given(
    case=st.booleans().flatmap(lambda hostile: st.tuples(argvs(hostile), arrays(hostile))),
    as_json=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_every_command_keeps_the_exit_code_contract(case, as_json):
    argv, entries = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "transform":
            source = os.path.join(tmp, "in.json" if as_json else "in.txt")
            with open(source, "w") as fh:
                if as_json:
                    fh.write("[" + ", ".join(f"[{re}, {im}]" for re, im in entries) + "]")
                else:
                    fh.write("".join(f"{re} {im}\n" for re, im in entries))
            argv = [*argv, "--input", source, "--output", os.path.join(tmp, "out.txt")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if argv[0] in ("verify", "sharpness", "khinchin") and out.getvalue():
        json.loads(out.getvalue(), parse_constant=reject_constant)
