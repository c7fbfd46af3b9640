"""The CLI's boundary as a standing property: whatever numbers reach it,
``main()`` runs or refuses them by name, and never raises.

Sizes stay tiny (one trial, n <= 200, d <= 5), so no example allocates much
or runs long.  Values go as ``--flag=value``, so that argparse hands a
negative number to the program instead of reading it as a flag.
"""

import contextlib
import io
import json
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmtreg.cli import EXIT_OK, EXIT_USAGE, main

TINY, HUGE, MAX = 5e-324, 1e308, 1.7976931348623157e308

# what an error message may call each flag's value
NAMES = {
    "--d": r"\bd\b",
    "--n-priv": r"n_priv|n-priv",
    "--n-pub": r"n_pub|n-pub",
    "--rho": r"rho",
    "--eta": r"eta",
    "--mu-scale": r"mu_scale|mu-scale|synthetic second moment|synthetic design",
    "--psi-spec": r"psi-spec|synthetic second moment|synthetic design",
    "--seed": r"seed",
    "--reference": r"reference|TRUE_BETA",
}

_NUMBER = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([TINY, 2.2e-308, 1e-300, 1e154, 1e300, HUGE, MAX]),
)


def _numbers(values) -> str:
    return ",".join(map(repr, values))


@st.composite
def _argv(draw):
    d = draw(st.integers(0, 5))
    if draw(st.integers(0, 3)) == 0:
        argv = ["diagnose", f"--d={d}"]
        if draw(st.booleans()):
            argv.append(f"--n-pub={draw(st.integers(-1, 200))}")
    else:
        argv = [
            "synth", f"--d={d}", f"--n-priv={draw(st.integers(-1, 200))}",
            f"--n-pub={draw(st.integers(-1, 200))}",
        ]
        if draw(st.booleans()):
            argv.append(f"--rho={_numbers(draw(st.lists(_NUMBER, min_size=1, max_size=2)))}")
        if draw(st.booleans()):
            psi = draw(st.lists(_NUMBER, min_size=d, max_size=d))
            argv.append(f"--psi-spec={_numbers(psi)}")
        if draw(st.booleans()):
            argv.append(f"--seed={draw(st.integers(-(10**23), 10**23))}")
        if draw(st.booleans()):
            argv.append("--reference=nonprivate_olse")
    for flag in ("--eta", "--mu-scale"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(_NUMBER)!r}")
    return argv


def _synth(*flags, d=3, n_priv=200, n_pub=20):
    return ["synth", f"--d={d}", f"--n-priv={n_priv}", f"--n-pub={n_pub}", *flags]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_argv())
@example(argv=_synth(f"--rho={TINY!r}"))
@example(argv=_synth(f"--rho={HUGE!r}"))
@example(argv=_synth(f"--rho={MAX!r}"))
@example(argv=_synth("--rho=nan"))
@example(argv=_synth("--rho=-1.0"))
@example(argv=_synth(f"--eta={TINY!r}"))
@example(argv=_synth(f"--eta={HUGE!r}"))
@example(argv=_synth(f"--mu-scale={TINY!r}"))
@example(argv=_synth(f"--mu-scale={HUGE!r}"))
@example(argv=_synth("--mu-scale=1e+154"))
@example(argv=_synth("--mu-scale=1e+150"))
@example(argv=_synth(f"--psi-spec={TINY!r},1,1"))
@example(argv=_synth(f"--psi-spec={HUGE!r},1,1"))
@example(argv=_synth("--psi-spec=1e+299,1e+299,1e+299", "--rho=1e-30"))
@example(argv=_synth("--psi-spec=1e+200,1,1"))
@example(argv=_synth("--psi-spec=-1.0,1,1"))
@example(argv=_synth("--psi-spec=0,0,0", "--mu-scale=0"))
@example(argv=_synth(d=0))
@example(argv=_synth(d=1, n_priv=2, n_pub=2))
@example(argv=_synth(n_priv=4))
@example(argv=_synth(n_pub=4))
@example(argv=_synth(n_priv=3))
@example(argv=_synth(n_pub=3))
@example(argv=_synth("--reference=nonprivate_olse", d=5, n_priv=6, n_pub=6))
@example(argv=_synth("--seed=-1"))
@example(argv=_synth(f"--seed={10**23}"))
@example(argv=["diagnose", "--n-pub=11"])
@example(argv=["diagnose", "--d=0"])
@example(argv=["diagnose", "--d=1", "--n-pub=2"])
@example(argv=["diagnose", "--d=3", "--n-pub=3"])
@example(argv=["diagnose", f"--eta={TINY!r}"])
@example(argv=["diagnose", f"--mu-scale={HUGE!r}"])
def test_cli_runs_or_refuses_by_name_and_never_raises(argv, tmp_path_factory):
    if argv[0] == "synth":
        out = tmp_path_factory.getbasetemp() / "boundary.csv"
        argv = argv + ["--trials=1", f"--out={out}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE), (argv, code, stderr.getvalue())
    if code == EXIT_USAGE:
        given_flags = [arg.split("=")[0] for arg in argv[1:]]
        pattern = "|".join(NAMES[flag] for flag in given_flags if flag in NAMES)
        assert re.search(pattern, stderr.getvalue()), (argv, stderr.getvalue())
    elif argv[0] == "diagnose":  # standard JSON: no Infinity or NaN
        json.loads(stdout.getvalue(), parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise AssertionError(f"diagnose printed {name}")
