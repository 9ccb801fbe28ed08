"""End-to-end and per-layer benchmark of the rsmaxwell CLI.

Usage (from the repository root):

    python3 bench/run.py --workload sample-grid --seed 1 --seconds 20 --trace 0

It times the start-up of fresh interpreters that import ``rsmaxwell.cli``,
then runs the workload's command list in rounds through
``rsmaxwell.cli.main`` in one worker process for about ``--seconds`` of
command time, and checks every command's outputs against the oracle in
``oracle.py``.  Every timing is scaled by the reference kernels measured next
to it (``refkernel.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it carries the unnormalised figures.  Exits 2 when the checkout has no
``src/rsmaxwell`` or the program cannot be started.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import refkernel
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

#: Interpreter launches timed for ``setup_s``; a reference launch precedes
#: the first and follows every second one.
SETUP_LAUNCHES = 4
#: The worker is killed after this many seconds, so a run always ends.
WORKER_DEADLINE_S = 160.0
#: No new round starts after this many seconds of wall time.
ROUND_CUTOFF_S = 110.0

#: per-layer metric -> (span name, denominator, scale, unit).  The denominator
#: is "call" (per traced call), "points" (per workload point of the commands
#: that reached the layer) or "grid" (per grid point those commands enumerate).
LAYER_METRICS = {
    "seeds.gradient_us": ("seeds.gradient", "call", 1e6, "us"),
    "seeds.hessian_us": ("seeds.hessian", "call", 1e6, "us"),
    "squaring.formal_solutions_us": ("squaring.formal_solutions", "call", 1e6, "us"),
    "squaring.combine_us": ("squaring.combine", "call", 1e6, "us"),
    "config.grid_points_us": ("config.grid_points", "grid", 1e6, "us"),
    "cli.sample_us": ("cli.sample", "points", 1e6, "us"),
    "cli.dual_us": ("cli.dual", "points", 1e6, "us"),
    "cli.read_table_us": ("cli.read_table", "points", 1e6, "us"),
    "dual.transform_us": ("dual.transform", "call", 1e6, "us"),
    "verify.residual_us": ("verify.residual", "call", 1e6, "us"),
    "verify.convergence_ms": ("verify.convergence", "call", 1e3, "ms"),
    "cli.verify_us": ("cli.verify", "points", 1e6, "us"),
    "physicality.sample_points_ms": ("physicality.sample_points", "call", 1e3, "ms"),
    "physicality.assemble_ms": ("physicality.assemble", "call", 1e3, "ms"),
    "physicality.solve_ms": ("physicality.solve", "call", 1e3, "ms"),
    "cli.solve_ms": ("cli.solve", "call", 1e3, "ms"),
}


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, dead worker)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Start-up times of fresh interpreters until ``rsmaxwell.cli`` is imported.

    Returns the program's raw launch times and the reference launch times
    taken before, between and after them.  Called after the worker has
    imported the CLI once, so a fresh checkout is already byte-compiled:
    users pay that once, not per call.
    """
    program, reference = [], [refkernel.interpreter_start()]
    for i in range(SETUP_LAUNCHES):
        try:
            program.append(refkernel.time_launch("import rsmaxwell.cli", env=env, cwd=ROOT))
        except RuntimeError as exc:
            raise BenchError(str(exc)) from exc
        if i % 2 == 1:
            reference.append(refkernel.interpreter_start())
    return program, reference


class Worker:
    """The process that imports rsmaxwell.cli once and runs the commands."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], env=env, cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(WORKER_DEADLINE_S, self.proc.kill)
        self.timer.start()
        try:
            self.hello = self._read()
            cli = Path(self.hello["cli"]).resolve()
            if cli != (ROOT / "src" / "rsmaxwell" / "cli.py").resolve():
                raise BenchError(f"rsmaxwell.cli imported from {cli}, not from this checkout")
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, cmd: workloads.Command, result: dict) -> None:
        self.attempted += 1
        try:
            cmd.check(result)
        except workloads.CheckError as exc:
            self.failed += 1
            print(f"FAILED {' '.join(cmd.argv[:1])}: {exc}", file=sys.stderr)
        except Exception:  # a malformed or missing output fails this operation only
            self.failed += 1
            print(f"FAILED {' '.join(cmd.argv)}:\n{traceback.format_exc()}", file=sys.stderr)


def _median_total(per_command: list[list[float]]) -> float:
    """Command-list time: the sum over commands of each command's median over rounds."""
    return sum(statistics.median(times) for times in per_command)


def _layer_metrics(commands, results) -> dict:
    """Per-layer values from traced results; layers the commands never reached are absent."""
    calls, self_s, points, grid = {}, {}, {}, {}
    field_calls = verify_points = 0
    for cmd, res in zip(commands, results):
        for name, (n, s) in res["layers"].items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
            points[name] = points.get(name, 0) + cmd.points
            grid[name] = grid.get(name, 0) + cmd.grid
        field_calls += res["field_calls"]
        if cmd.kind == "verify":
            verify_points += cmd.points
    out = {}
    for metric, (name, per, scale, unit) in LAYER_METRICS.items():
        count = {"call": calls, "points": points, "grid": grid}[per].get(name, 0)
        if calls.get(name) and count:
            out[metric] = {"value": self_s[name] / count * scale, "unit": unit}
    if verify_points:
        out["verify.field_calls_per_pt"] = {"value": field_calls / verify_points, "unit": "calls/pt"}
    return out


def run(args) -> dict:
    if not (ROOT / "src" / "rsmaxwell" / "cli.py").is_file():
        raise BenchError(f"no src/rsmaxwell/cli.py under {ROOT}")
    started = time.monotonic()
    env = _env()
    outdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.build(args.workload, args.seed, outdir)
        for path, text in plan.files.items():
            path.write_text(text)
        tally = Tally()
        n_cmd = len(plan.commands)
        norm = {False: [[] for _ in range(n_cmd)], True: [[] for _ in range(n_cmd)]}
        raw = [[] for _ in range(n_cmd)]
        traced_commands, traced_results = [], []
        kernels = {"interpreter_s": [], "lapack_s": []}
        worker = Worker(env)
        try:
            setup_raw, kernels["start_s"] = measure_setup(env)
            command_s, rounds, check_s = 0.0, 0, 0.0
            while True:
                traced = bool(args.trace) and rounds % 2 == 1
                reply = worker.request({"commands": [c.argv for c in plan.commands],
                                        "mode": "trace" if traced else "plain"})
                rounds += 1
                for name in ("interpreter_s", "lapack_s"):
                    kernels[name] += reply[name]
                t0 = time.monotonic()
                for i, (cmd, res) in enumerate(zip(plan.commands, reply["results"])):
                    tally.check(cmd, res)
                    command_s += res["raw_s"]
                    norm[traced][i].append(res["norm_s"])
                    if traced:
                        traced_commands.append(cmd)
                        traced_results.append(res)
                    else:
                        raw[i].append(res["raw_s"])
                check_s += time.monotonic() - t0
                # stop when one more round would overshoot --seconds by more than it
                # undershoots by stopping now; traced runs stop after whole pairs
                whole = not args.trace or rounds % 2 == 0
                more = command_s + 0.5 * command_s / rounds < args.seconds
                if whole and (not more or time.monotonic() - started > ROUND_CUTOFF_S):
                    break
            layers, probed = {}, []
            if args.trace:
                layers = _layer_metrics(traced_commands, traced_results)
                probed = [m for m in [*LAYER_METRICS, "verify.field_calls_per_pt"] if m not in layers]
                if probed:
                    reply = worker.request({"commands": [c.argv for c in plan.probe], "mode": "trace"})
                    for cmd, res in zip(plan.probe, reply["results"]):
                        tally.check(cmd, res)
                    from_probe = _layer_metrics(plan.probe, reply["results"])
                    layers.update({m: from_probe[m] for m in probed})
                solves = [c for c in plan.commands if c.kind == "solve"] or plan.probe[:1]
                reply = worker.request({"commands": [c.argv for c in solves], "mode": "memory"})
                for cmd, res in zip(solves, reply["results"]):
                    tally.check(cmd, res)
                peak = max(res["solve_peak_bytes"] for res in reply["results"])
                layers["physicality.solve_peak_mb"] = {"value": peak / 2 ** 20, "unit": "MB"}
            finish = worker.request({"finish": True, "spans": str(OUT / f"spans-{args.workload}.csv")})
        finally:
            worker.close()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    points = sum(c.points for c in plan.commands)
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "commands_per_round": n_cmd, "points_per_round": points,
        "import_s": worker.hello["import_s"], "check_s": check_s,
        "wall_s": time.monotonic() - started, "spans": finish["spans"],
        "kernel_median_s": {k: statistics.median(v) for k, v in kernels.items() if v},
        "raw": {"setup_s": statistics.median(setup_raw), "pts_per_s": points / _median_total(raw)},
    }
    if args.trace:
        untraced, traced_total = _median_total(norm[False]), _median_total(norm[True])
        layers["trace.overhead_pct"] = {"value": 100.0 * (traced_total / untraced - 1.0), "unit": "%"}
        detail["probed_layers"] = probed
        metrics = layers
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_raw) * refkernel.NOMINAL_START_S
                        / statistics.median(kernels["start_s"]), "unit": "s"},
            "pts_per_s": {"value": points / _median_total(norm[False]), "unit": "1/s"},
            "peak_rss_mb": {"value": finish["peak_rss_mb"], "unit": "MB"},
        }
    print("detail: " + json.dumps(detail, sort_keys=True))
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
