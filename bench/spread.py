"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --runs 10 --seconds 20 [--workload NAME ...] [--trace]

Runs ``bench/run.py`` once per seed (1..runs) and workload, one run at a
time, and prints for every end-to-end metric its median and its spread, the
distance between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median, both normalised and raw.  With ``--trace`` it also
runs each workload once traced and prints the per-layer metrics and the
tracing overhead.  This regenerates the reference figures in README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2].removeprefix("detail: ")), json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    for workload in args.workload or workloads.WORKLOADS:
        norm: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        shares = set()
        for seed in range(1, args.runs + 1):
            detail, result = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                norm.setdefault(name, []).append(m["value"])
            for name, v in detail["raw"].items():
                raw.setdefault(name, []).append(v)
            print(f"{workload} seed {seed}: rounds {detail['rounds']} wall {detail['wall_s']:.1f} s "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in sorted(result["metrics"].items())),
                  flush=True)
        print(f"== {workload}: {args.runs} runs, failed share {sorted(shares)}")
        for name, values in sorted(norm.items()):
            med, iqr = spread(values)
            line = f"   {name:12s} median {med:12.4f}  spread {100 * iqr:5.1f}%"
            if name in raw:
                rmed, riqr = spread(raw[name])
                line += f"   raw median {rmed:12.4f}  raw spread {100 * riqr:5.1f}%"
            print(line, flush=True)
        if args.trace:
            detail, result = run_once(workload, 1, args.seconds, 1)
            print(f"== {workload} traced (seed 1); from the probe: "
                  f"{', '.join(detail['probed_layers']) or 'none'}")
            for name, m in sorted(result["metrics"].items()):
                print(f"   {name:30s} {m['value']:12.4f} {m['unit']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
