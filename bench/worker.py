"""Process that runs rsmaxwell CLI commands in-process for the benchmark.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports
``rsmaxwell.cli`` once (timed), then reads JSON requests from stdin and
answers each with one JSON line on stdout:

* ``{"commands": [argv, ...], "mode": "plain" | "trace" | "memory"}`` runs
  the commands through ``rsmaxwell.cli.main`` and answers with per-command
  exit codes, raw and normalised times, plus per-layer self times and
  field-function calls (``trace``) or the peak allocation of
  ``solve_null_space`` (``memory``);
* ``{"finish": true, "spans": path}`` answers with the process's peak RSS,
  writes any recorded spans to ``path`` and exits.

Normalisation: the interpreter kernel runs after every command (and once
before the first), and the LAPACK kernel twice before and twice after the
list.  A command's time inside ``numpy.linalg`` decompositions is scaled by
the LAPACK kernel's nominal over its median, the rest by the interpreter
kernel's nominal over the mean of the two runs around the command.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import refkernel
from tracing import Tracer

#: numpy.linalg calls whose time counts as LAPACK time.
_LINALG = ("svd", "qr", "lstsq", "eigh", "pinv")


class LinalgClock:
    """Accumulates the wall time spent inside numpy.linalg decompositions."""

    def __init__(self) -> None:
        self.seconds = 0.0
        for name in _LINALG:
            setattr(np.linalg, name, self._timed(getattr(np.linalg, name)))

    def _timed(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        return timed


def _run_commands(cli, commands: list[list[str]], tracer: Tracer, clock: LinalgClock,
                  mode: str) -> dict:
    results = []
    lapack_s = [refkernel.lapack(), refkernel.lapack()]
    interpreter_s = [refkernel.interpreter()]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        error = None
        tracer.reset_counts()
        if mode == "trace":
            tracer.install()
        elif mode == "memory":
            tracer.install_memory()
        clock.seconds = 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line by exiting
            rc = exc.code
        except Exception:  # a crash is one failed operation, not the end of the run
            rc, error = None, traceback.format_exc(limit=4)
        raw_s = time.perf_counter() - t0
        tracer.uninstall()
        interpreter_s.append(refkernel.interpreter())
        result = {"rc": rc, "error": error or err.getvalue()[-2000:], "raw_s": raw_s,
                  "linalg_s": clock.seconds, "stdout": out.getvalue()[-2000:]}
        if mode == "trace":
            result["layers"] = {n: [tracer.calls[n], tracer.self_s[n]] for n in tracer.calls}
            result["field_calls"] = tracer.field_calls
        elif mode == "memory":
            result["solve_peak_bytes"] = tracer.peak_bytes
        results.append(result)
    lapack_s += [refkernel.lapack(), refkernel.lapack()]
    lapack_factor = refkernel.NOMINAL_LAPACK_S / statistics.median(lapack_s)
    for i, result in enumerate(results):
        factor = refkernel.NOMINAL_INTERPRETER_S / (0.5 * (interpreter_s[i] + interpreter_s[i + 1]))
        norm_s = (result["raw_s"] - result["linalg_s"]) * factor + result["linalg_s"] * lapack_factor
        result["norm_s"] = norm_s
        for layer in result.get("layers", {}).values():
            layer[1] *= norm_s / result["raw_s"]
    return {"results": results, "interpreter_s": interpreter_s, "lapack_s": lapack_s}


def main() -> int:
    proto = sys.stdout
    t0 = time.perf_counter()
    import rsmaxwell.cli as cli
    import_s = time.perf_counter() - t0
    # warm both kernels before they are used as yardsticks
    refkernel.interpreter()
    refkernel.lapack()
    tracer = Tracer()
    clock = LinalgClock()
    proto.write(json.dumps({"ready": True, "import_s": import_s, "cli": cli.__file__}) + "\n")
    proto.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("finish"):
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            spans = tracer.write_spans(request["spans"]) if tracer.spans else 0
            proto.write(json.dumps({"peak_rss_mb": peak_kib / 1024.0, "spans": spans}) + "\n")
            proto.flush()
            return 0
        reply = _run_commands(cli, request["commands"], tracer, clock, request["mode"])
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 1


if __name__ == "__main__":
    sys.exit(main())
