"""One ``pmtreg`` CLI process, as the benchmark spawns it.

    python3 bench/child.py SRC TIMING_JSON [--spans SPANS_JSON] -- CLI_ARGS...

Imports ``pmtreg.cli`` from the ``SRC`` directory, notes the monotonic clock
(comparable with the parent's, which noted it just before the spawn), runs
``pmtreg.cli.main(CLI_ARGS)`` exactly as the ``pmtreg`` entry point does, and
writes the times to ``TIMING_JSON``.

With ``--spans`` the process is the traced run: before ``main()`` it puts a
timing wrapper on each binding through which one layer calls another, keeps
one span per call (name, start, end, parent, note) in memory, and writes them
to ``SPANS_JSON`` when ``main()`` returns.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, span name).  The modules bind with ``from .x import y``,
# so a wrapper goes on the name the caller looks up, not on the definition.
# ``spectra.eig_sym`` is looked up as a module global by every spectral
# helper, so that one wrapper sees every eigendecomposition.
TRACED = (
    ("pmtreg.cli", "ingest_csv", "data.ingest_csv"),
    ("pmtreg.cli", "normalize", "data.normalize"),
    ("pmtreg.cli", "run_grid", "harness.run_grid"),
    ("pmtreg.cli", "emit_csv", "harness.emit_csv"),
    ("pmtreg.harness", "_run_trial", "harness.trial"),
    ("pmtreg.harness", "generate", "data.generate"),
    ("pmtreg.harness", "split", "data.split"),
    ("pmtreg.harness", "public_moments", "data.public_moments"),
    ("pmtreg.harness", "olse", "estimators.olse"),
    ("pmtreg.harness", "dp_pmtolse", "estimators.dp_pmtolse"),
    ("pmtreg.harness", "dp_olse_baseline", "estimators.dp_olse_baseline"),
    ("pmtreg.pmt", "transform", "pmt.transform"),
    ("pmtreg.pmt", "clip_rows", "pmt.clip_rows"),
    ("pmtreg.estimators", "inv_sqrt_clamped", "spectra.inv_sqrt_clamped"),
    ("pmtreg.estimators", "diagnostics", "spectra.diagnostics"),
    ("pmtreg.estimators", "sample_symmetric_gaussian", "privacy.sample_symmetric_gaussian"),
    ("pmtreg.estimators", "sample_gaussian_vector", "privacy.sample_gaussian_vector"),
    ("pmtreg.data", "sqrt_sym", "spectra.sqrt_sym"),
    ("pmtreg.spectra", "eig_sym", "spectra.eig_sym"),
    ("scipy.linalg", "solve", "estimators.solve"),
)


def _clip_note(result):
    # clip_rows returns (rows, report); "noop" marks a call that clipped
    # nothing but still copied every row.
    return "noop" if result[1].truncated == 0 else "clipped"


NOTES = {"pmt.clip_rows": _clip_note}


class Tracer:
    """Spans kept in memory; ``spans[i] = [name, start_ns, end_ns, parent, note]``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, note_of = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note_of is not None:
                span[4] = note_of(result)
            return result

        return traced

    def install(self):
        import importlib

        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))


def main(argv):
    src, timing_path = argv[0], argv[1]
    rest = argv[2:]
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: child.py SRC TIMING_JSON [--spans SPANS_JSON] -- CLI_ARGS...")
    cli_args = rest[1:]

    sys.path.insert(0, src)
    import pmtreg.cli

    imported_at = time.monotonic()
    if not pmtreg.cli.__file__.startswith(src):
        raise SystemExit(f"pmtreg imported from {pmtreg.cli.__file__}, not from {src}")

    tracer = None
    run = pmtreg.cli.main
    if spans_path is not None:
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", run)
    start = time.perf_counter_ns()
    code = run(cli_args)
    main_ns = time.perf_counter_ns() - start

    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"imported_at": imported_at, "main_ns": main_ns, "exit": code}, fh)
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
