"""Command-line interface: synthetic sweeps, real-data sweeps, diagnostics.

Exit codes: 0 success, 1 runtime failure, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from enum import Enum
from pathlib import Path

import numpy as np

from .data import SplitMode, default_synthetic, ingest_csv, normalize
from .estimators import Method
from .harness import (
    DatasetSource,
    ExperimentGrid,
    Reference,
    emit_csv,
    run_grid,
)
from .spectra import diagnostics, theory_bracket

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _comma_list(text: str, kind: type) -> list:
    try:
        return [kind(v) for v in text.split(",") if v != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"cannot parse {text!r} as a comma list of {noun}") from None


def _methods(text: str) -> tuple[Method, ...]:
    out = []
    for name in text.split(","):
        name = name.strip()
        try:
            out.append(Method(name))
        except ValueError:
            raise ValueError(
                f"unknown method {name!r}; choose from {', '.join(_values(Method))}"
            ) from None
    return tuple(out)


def _values(vocabulary: type[Enum]) -> list[str]:
    return [member.value for member in vocabulary]


def _sweep_args(parser, n_priv: str, n_pub: str, rho: str) -> None:
    """The grid flags both sweeps share; each passes its own size defaults."""
    parser.add_argument("--n-priv", default=n_priv, help="comma list")
    parser.add_argument("--n-pub", default=n_pub, help="comma list")
    parser.add_argument("--rho", default=rho, help="comma list")
    parser.add_argument("--eta", type=float, default=0.05)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--methods", default=",".join(_values(Method)))
    parser.add_argument("--out", required=True)


def _csv_args(parser, required: bool) -> None:
    parser.add_argument("--data", required=required)
    parser.add_argument("--delimiter", default=";")
    parser.add_argument("--response", default="quality")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmtreg",
        description="DP least squares with public second-moment preconditioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthetic-data sweep")
    synth.add_argument("--d", type=int, default=10)
    _sweep_args(synth, n_priv="3000", n_pub="20", rho="2")
    synth.add_argument(
        "--reference", choices=_values(Reference), default=Reference.TRUE_BETA.value
    )
    synth.add_argument("--mu-scale", type=float, default=2.0)
    synth.add_argument(
        "--psi-spec", default=None, help="comma list of covariance eigenvalues (length d)"
    )

    real = sub.add_parser("real", help="real-dataset sweep")
    _csv_args(real, required=True)
    _sweep_args(real, n_priv="4649", n_pub="249", rho="5")
    real.add_argument(
        "--split",
        choices=_values(SplitMode),
        default=SplitMode.RANDOM_WITHOUT_REPLACEMENT.value,
    )

    diag = sub.add_parser(
        "diagnose", help="print spectral diagnostics and theory bounds as JSON"
    )
    _csv_args(diag, required=False)
    diag.add_argument("--d", type=int, default=10, help="synthetic dimension")
    diag.add_argument("--mu-scale", type=float, default=2.0)
    diag.add_argument("--eta", type=float, default=0.05)
    diag.add_argument("--n-pub", type=int, default=None)

    return parser


def _grid(args, reference: Reference) -> ExperimentGrid:
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ValueError(f"--out must name a file in an existing directory, got {out}")
    return ExperimentGrid(
        methods=_methods(args.methods),
        rho_values=tuple(_comma_list(args.rho, float)),
        n_priv_values=tuple(_comma_list(args.n_priv, int)),
        n_pub_values=tuple(_comma_list(args.n_pub, int)),
        eta=args.eta,
        trials=args.trials,
        seed=args.seed,
        reference=reference,
    )


def _load(args):
    """The normalized dataset named by --data, --delimiter and --response."""
    path = Path(args.data)
    if not path.is_file():
        raise ValueError(f"data file not found: {path}")
    dataset = ingest_csv(path, delimiter=args.delimiter, response_column=args.response)
    return normalize(dataset)


def _cmd_synth(args) -> int:
    psi = None if args.psi_spec is None else _comma_list(args.psi_spec, float)
    if psi is not None and len(psi) != args.d:
        raise ValueError(f"--psi-spec needs {args.d} values, got {len(psi)}")
    spec = default_synthetic(args.d, args.mu_scale, psi)
    grid = _grid(args, Reference(args.reference))
    emit_csv(run_grid(grid, spec), args.out)
    return EXIT_OK


def _cmd_real(args) -> int:
    dataset = _load(args)
    grid = _grid(args, Reference.NONPRIVATE_OLSE)
    emit_csv(run_grid(grid, DatasetSource(dataset, SplitMode(args.split))), args.out)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    if args.data is not None:
        dataset = _load(args)
        matrix, d, n_pub = dataset.second_moment, dataset.d, dataset.n
    else:
        spec = default_synthetic(d=args.d, mu_scale=args.mu_scale)
        matrix, d, n_pub = spec.second_moment(), spec.d, 4 * spec.d
    n_pub = args.n_pub if args.n_pub is not None else n_pub
    payload = diagnostics(matrix).as_dict()
    payload["L"], payload["U"] = theory_bracket(d, n_pub, args.eta)
    payload = {name: _json_number(value) for name, value in payload.items()}
    json.dump(payload, sys.stdout, indent=2, allow_nan=False)
    sys.stdout.write("\n")
    return EXIT_OK


def _json_number(value):
    """``value``, or each number of a list, with a non-finite number (an
    unbounded U, or cond where lambda_min <= 0) as None: standard JSON's null."""
    if isinstance(value, list):
        return [_json_number(v) for v in value]
    return value if math.isfinite(value) else None


def _c_function(library: str | None, name: str):
    """The function ``name`` of the C library at path ``library`` (None: the
    process's own symbols), or None where it cannot be loaded."""
    try:
        return getattr(ctypes.CDLL(library), name)
    except (AttributeError, OSError, TypeError):  # no such function, library or handle
        return None


def _keep_freed_heap() -> None:
    """Keep freed heap pages in the process instead of returning them.

    By default glibc hands a freed heap top back to the kernel and serves
    each large array from a fresh mapping, so every trial of a sweep faults
    the same pages in again.  Setting the trim threshold alone would fix the
    mmap threshold at its 128 KiB default and map every larger array afresh,
    so both are set.  A C library without ``mallopt`` is left as it is.
    """
    mallopt = _c_function(None, "mallopt")
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's largest allowed on 64-bit
        mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD: never trim


def _openblas(name: str):
    """The function ``scipy_openblas_<name>`` of the OpenBLAS that numpy's
    wheel bundles, or None where no such library or function is found."""
    package = Path(np.__file__).parent  # Linux and Windows wheels, then macOS ones
    found = [
        *package.parent.glob("numpy.libs/*scipy_openblas*"),
        *package.glob(".dylibs/*scipy_openblas*"),
    ]
    if not found:
        return None
    suffix = "64_" if "openblas64" in found[0].name else ""  # the ILP64 build's symbols
    # numpy loaded the library already, so this is the same library
    return _c_function(str(found[0]), f"scipy_openblas_{name}{suffix}")


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread.

    A trial's BLAS calls are small, and a synthetic sweep's draw worker needs
    the second core.  Where no such library is found, as with a numpy built
    on another BLAS, BLAS is left as it is.
    """
    set_threads = _openblas("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        set_threads(1)


def main(argv=None) -> int:
    """Run one ``pmtreg`` command and return its exit code.

    It first makes two settings of the process: glibc keeps freed heap
    pages (:func:`_keep_freed_heap`), and numpy's OpenBLAS runs one thread
    (:func:`_one_blas_thread`).  Neither is restored: both persist after
    ``main`` returns, and neither changes an output byte.
    """
    _keep_freed_heap()
    _one_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "real":
            return _cmd_real(args)
        return _cmd_diagnose(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"runtime-error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # such as a grid whose largest draw cannot be held
        print(f"runtime-error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
