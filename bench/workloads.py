"""Workload plans: the CLI commands each workload runs and the checks on their outputs.

Every input comes from the workload seed (``--seed``); the program only sees
the seed files and command lines generated here.  Every check compares an
output with ``oracle`` or with a property the method must have, and raises
``CheckError`` when it does not hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from oracle import Seed

WORKLOADS = ("sample-grid", "verify-grid", "solve-sweep")

_AXES = ("x0", "x1", "x2", "x3")
_FIELD_COLUMNS = ["x0", "x1", "x2", "x3", "E1", "E2", "E3", "cB1", "cB2", "cB3",
                  "E_dot_cB", "E2_minus_cB2"]
#: Relative agreement a sampled table must reach with the oracle.
TABLE_RTOL = 1e-10
#: |psi_0| and kernel fields must stay below this times the gradient scale.
ZERO_RTOL = 1e-8
#: Point counts of the solve sweep (``--points``).
SWEEP_POINTS = (32, 64, 128, 256, 512)


class CheckError(Exception):
    """An output disagrees with the oracle or with a required property."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Command:
    """One CLI invocation (one operation) and the check on its outputs."""

    argv: list[str]
    kind: str  # solve | sample | dual | verify
    points: int  # workload points it processes
    check: Callable[[dict], None]
    grid: int = 0  # grid points it enumerates
    expect_rc: int = 0


@dataclass
class Plan:
    commands: list[Command]
    probe: list[Command]
    files: dict[Path, str] = field(default_factory=dict)


# --------------------------------------------------------------------------
# inputs


def _plane_seed(kind: str, rng: np.random.Generator) -> Seed:
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    k0 = float(rng.uniform(0.8, 1.6))
    k = (k0, *(float(v) for v in k0 * n))
    # the program requires k0^2 = |k|^2 to 1e-12 relative; rounding keeps it near 1e-16
    return Seed(kind, float(rng.uniform(0.5, 2.0)), k=k)


def _cylindrical_seed(rng: np.random.Generator, m: int) -> Seed:
    freq = float(rng.uniform(0.8, 1.6))
    return Seed("Cylindrical", float(rng.uniform(0.5, 2.0)), freq=freq,
                kz=freq * float(rng.uniform(-0.8, 0.8)), m=m)


@dataclass(frozen=True)
class Grid:
    """A ``--grid``/``--fix`` pair and the points the program will enumerate."""

    ranges: dict  # axis -> (lo, hi, count)
    fixed: dict  # axis -> value

    def argv(self) -> list[str]:
        out = ["--grid", ",".join(f"{a}:{lo!r}:{hi!r}:{n}" for a, (lo, hi, n) in self.ranges.items())]
        if self.fixed:
            out += ["--fix", ",".join(f"{a}={v!r}" for a, v in self.fixed.items())]
        return out

    def points(self) -> np.ndarray:
        """(N, 4) points, row-major over (x0, x1, x2, x3)."""
        values = []
        for a in _AXES:
            if a in self.ranges:
                lo, hi, n = self.ranges[a]
                values.append(np.linspace(lo, hi, n))
            else:
                values.append(np.array([self.fixed.get(a, 0.0)]))
        mesh = np.meshgrid(*values, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def _grid(rng, seed: Seed, swept: tuple[str, str], count: int, axis: bool = False) -> Grid:
    """A square grid about one wavelength on a side; centred on the axis if asked."""
    half = 3.0 / seed.wavenumber()
    ranges = {}
    for a in swept:
        if axis:
            ranges[a] = (-half, half, count | 1)  # odd count puts a node on 0
        else:
            lo = float(rng.uniform(-half, 0.0))
            ranges[a] = (lo, lo + 2 * half, count)
    fixed = {a: round(float(rng.uniform(-1, 1)), 6) for a in _AXES if a not in swept}
    return Grid(ranges, fixed)


def _lambda_arg(lam: np.ndarray) -> str:
    return ",".join(repr(float(v)) for c in lam for v in (c.real, c.imag))


def _on_axis(x: np.ndarray) -> np.ndarray:
    return np.hypot(x[:, 1], x[:, 2]) <= oracle.RHO_MIN


def _stencil_on_axis(seed: Seed, x: np.ndarray, h: float) -> np.ndarray:
    """Points whose 8-point central-difference stencil touches the axis."""
    if seed.is_plane:
        return np.zeros(len(x), dtype=bool)
    hit = np.zeros(len(x), dtype=bool)
    for a in range(4):
        for sign in (1.0, -1.0):
            y = x.copy()
            y[:, a] += sign * h
            hit |= _on_axis(y)
    return hit


# --------------------------------------------------------------------------
# output readers and checks


def _read_table(path: Path) -> tuple[list[str], np.ndarray, int | None]:
    """(header, rows, skipped_axis_rows footer or None) of a csv or jsonl table."""
    text = path.read_text()
    lines = text.splitlines()
    if lines and lines[0].startswith("{"):
        records = [json.loads(ln) for ln in lines]
        footer = None
        if records and "skipped_axis_rows" in records[-1]:
            footer = records.pop()["skipped_axis_rows"]
        header = list(records[0]) if records else []
        header = [c for c in _FIELD_COLUMNS if c in header]
        rows = np.array([[r[c] for c in header] for r in records], dtype=float)
        return header, rows, footer
    header = lines[0].split(",")
    footer = None
    if lines[-1].startswith("# skipped_axis_rows="):
        footer = int(lines[-1].split("=", 1)[1])
    rows = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    return header, rows, footer


def _check_invariant_columns(rows: np.ndarray, where: str) -> None:
    e, cb = rows[:, 4:7], rows[:, 7:10]
    scale = np.sum(e * e, axis=1) + np.sum(cb * cb, axis=1) + 1e-300
    dot = np.sum(e * cb, axis=1)
    diff = np.sum(e * e, axis=1) - np.sum(cb * cb, axis=1)
    err = max(np.max(np.abs(rows[:, 10] - dot) / scale), np.max(np.abs(rows[:, 11] - diff) / scale))
    _require(err <= 1e-12, f"{where}: E_dot_cB / E2_minus_cB2 disagree with E, cB by {err:.2e}")


def _check_ok(result: dict, cmd: Command) -> None:
    _require(result["rc"] == cmd.expect_rc,
             f"{cmd.kind}: exit {result['rc']}, expected {cmd.expect_rc}: {result['error'].strip()}")


def _read_lambdas(solve_json: Path, key: str) -> list[np.ndarray]:
    payload = json.loads(solve_json.read_text())
    return [np.array([complex(re, im) for re, im in vec]) for vec in payload[key]]


def _check_admissible(seed: Seed, lam: np.ndarray, rng, where: str) -> float:
    """Oracle check that psi_0 vanishes at fresh points; returns max |psi| there."""
    x = oracle.fresh_points(seed, rng)
    psi = oracle.field(seed, lam, x)
    scale = oracle.gradient_scale(seed, x) * max(np.max(np.abs(lam)), 1e-300)
    psi0 = float(np.max(np.abs(psi[:, 0])))
    _require(psi0 <= ZERO_RTOL * scale, f"{where}: psi_0 = {psi0:.2e} at fresh points (scale {scale:.2e})")
    return float(np.max(np.abs(psi))) / scale


def check_solve(seed: Seed, out: Path, cmd: Command, rng) -> Callable[[dict], None]:
    def check(result: dict) -> None:
        _check_ok(result, cmd)
        payload = json.loads(out.read_text())
        _require(payload["field_space_dim"] == 2,
                 f"solve {seed}: field_space_dim {payload['field_space_dim']}, expected 2")
        basis, kernel = _read_lambdas(out, "basis"), _read_lambdas(out, "kernel")
        _require(basis, f"solve {seed}: empty physical basis")
        for lam in basis:
            size = _check_admissible(seed, lam, rng, f"solve basis {seed}")
            _require(size > 1e-6, f"solve {seed}: basis vector gives a zero field ({size:.2e})")
        for lam in kernel:
            size = _check_admissible(seed, lam, rng, f"solve kernel {seed}")
            _require(size <= ZERO_RTOL, f"solve {seed}: kernel vector gives a field of {size:.2e}")
        if seed.is_plane:
            n = np.array(seed.k[1:]) / seed.k[0]
            for lam in basis + kernel:
                a, b = lam.real, lam.imag
                err = max(abs(b[0] + a[1:] @ n), abs(a[0] - b[1:] @ n))
                _require(err <= 1e-9, f"solve {seed}: plane constraint violated by {err:.2e}")

    return check


def check_sample(seed: Seed, grid: Grid, out: Path, lam_of: Callable[[], np.ndarray],
                 cmd: Command, rng) -> Callable[[dict], None]:
    x_all = grid.points()
    keep = ~_on_axis(x_all) if not seed.is_plane else np.ones(len(x_all), dtype=bool)
    x_expected = x_all[keep]
    skipped = int(np.sum(~keep))

    def check(result: dict) -> None:
        _check_ok(result, cmd)
        header, rows, footer = _read_table(out)
        where = f"sample {out.name}"
        _require(header == _FIELD_COLUMNS, f"{where}: header {header}")
        _require((footer or 0) == skipped, f"{where}: footer says {footer} axis rows, expected {skipped}")
        _require(rows.shape == (len(x_expected), 12), f"{where}: {rows.shape[0]} rows, expected {len(x_expected)}")
        _require(np.array_equal(rows[:, :4], x_expected), f"{where}: coordinates differ from the grid")
        lam = lam_of()
        _check_admissible(seed, lam, rng, where)
        psi = oracle.field(seed, lam, x_expected)
        ref = np.concatenate([psi[:, 1:].real, psi[:, 1:].imag], axis=1)
        err = np.max(np.abs(rows[:, 4:10] - ref)) / max(np.max(np.abs(ref)), 1e-300)
        _require(err <= TABLE_RTOL, f"{where}: fields differ from the oracle by {err:.2e} relative")
        _check_invariant_columns(rows, where)

    return check


def check_dual(src: Path, out: Path, chi: float | None, cmd: Command) -> Callable[[dict], None]:
    def check(result: dict) -> None:
        _check_ok(result, cmd)
        _, before, _ = _read_table(src)
        header, after, _ = _read_table(out)
        where = f"dual {out.name}"
        _require(header == _FIELD_COLUMNS and after.shape == before.shape, f"{where}: shape {after.shape}")
        _require(np.array_equal(after[:, :4], before[:, :4]), f"{where}: coordinates changed")
        e, cb = before[:, 4:7], before[:, 7:10]
        if chi is None:
            _require(np.array_equal(after[:, 4:7], -cb) and np.array_equal(after[:, 7:10], e),
                     f"{where}: chi=pi/2 output is not exactly (-cB, E)")
        else:
            c, s = np.cos(chi), np.sin(chi)
            ref = np.concatenate([c * e - s * cb, s * e + c * cb], axis=1)
            scale = max(np.max(np.abs(before[:, 4:10])), 1e-300)
            err = np.max(np.abs(after[:, 4:10] - ref)) / scale
            _require(err <= 1e-12, f"{where}: rotation by chi={chi!r} off by {err:.2e}")
        n_before = np.sum(before[:, 4:10] ** 2, axis=1)
        n_after = np.sum(after[:, 4:10] ** 2, axis=1)
        err = np.max(np.abs(n_after - n_before) / (n_before + 1e-300))
        _require(err <= 1e-12, f"{where}: |E|^2+|cB|^2 changed by {err:.2e} relative")
        _check_invariant_columns(after, where)

    return check


def check_verify(seed: Seed, grid: Grid, out: Path, cmd: Command) -> Callable[[dict], None]:
    x_all = grid.points()
    h = 1e-4 * 2.0 * np.pi / seed.wavenumber()
    keep = ~_stencil_on_axis(seed, x_all, h)
    x_expected, skipped = x_all[keep], int(np.sum(~keep))
    control = cmd.expect_rc == 1

    def check(result: dict) -> None:
        _check_ok(result, cmd)
        records = [json.loads(ln) for ln in out.read_text().splitlines()]
        summary = records.pop()
        where = f"verify {out.name}"
        _require(summary.get("type") == "summary", f"{where}: no summary line")
        _require(summary["pass"] is not control and ("FAIL" if control else "PASS") in result["stdout"],
                 f"{where}: pass={summary['pass']} for a {'corrupted' if control else 'valid'} field")
        _require(summary["points"] == len(x_expected) and summary["skipped_axis_rows"] == skipped,
                 f"{where}: {summary['points']} points / {summary['skipped_axis_rows']} axis rows, "
                 f"expected {len(x_expected)} / {skipped}")
        xs = np.array([r["x"] for r in records])
        _require(np.array_equal(xs, x_expected), f"{where}: certified points differ from the grid")
        if not control:
            slope = summary["convergence_slope"]
            _require(summary["floor_limited"] or (slope is not None and abs(slope - 2.0) <= 0.2),
                     f"{where}: convergence slope {slope}")

    return check


# --------------------------------------------------------------------------
# plans


class _Builder:
    def __init__(self, outdir: Path, rng: np.random.Generator) -> None:
        self.outdir = outdir
        self.rng = rng
        self.files: dict[Path, str] = {}
        self.solved: dict[Path, Path] = {}

    def seed_file(self, name: str, seed: Seed) -> Path:
        path = self.outdir / f"{name}.seed"
        self.files[path] = seed.spec()
        return path

    def solve(self, seed: Seed, seed_path: Path, name: str, points: int = 32) -> Command:
        out = self.outdir / f"{name}.json"
        argv = ["solve", "--seed", str(seed_path), "--out", str(out)]
        if points != 32:
            argv += ["--points", str(points)]
        cmd = Command(argv, "solve", points, check=None)
        cmd.check = check_solve(seed, out, cmd, self.rng)
        self.solved[seed_path] = out
        return cmd

    def sample(self, seed: Seed, seed_path: Path, grid: Grid, out: Path, lam) -> Command:
        """``lam`` is an explicit weight vector or ``basis:0`` / ``solve``."""
        if isinstance(lam, str):
            solve_json = self.solved[seed_path]
            lam_arg, lam_of = lam, lambda: _read_lambdas(solve_json, "basis")[0]
        else:
            lam_arg, lam_of = _lambda_arg(lam), lambda: lam
        argv = ["sample", "--seed", str(seed_path), f"--lambda={lam_arg}", *grid.argv(), "--out", str(out)]
        if out.suffix == ".jsonl":
            argv += ["--format", "jsonl"]
        x = grid.points()
        rows = len(x) - (0 if seed.is_plane else int(np.sum(_on_axis(x))))
        cmd = Command(argv, "sample", rows, check=None, grid=len(x))
        cmd.check = check_sample(seed, grid, out, lam_of, cmd, self.rng)
        return cmd

    def dual(self, src: Path, rows: int, chi: float | None) -> Command:
        out = src.with_name(src.stem + "-dual" + src.suffix)
        argv = ["dual", "--in", str(src), "--out", str(out)]
        if chi is not None:
            argv.append(f"--chi={chi!r}")
        if src.suffix == ".jsonl":
            argv += ["--format", "jsonl"]
        cmd = Command(argv, "dual", rows, check=None)
        cmd.check = check_dual(src, out, chi, cmd)
        return cmd

    def verify(self, seed: Seed, seed_path: Path, grid: Grid, name: str, lam, corrupt=False) -> Command:
        out = self.outdir / f"{name}.jsonl"
        lam_arg = lam if isinstance(lam, str) else _lambda_arg(lam)
        argv = ["verify", "--seed", str(seed_path), f"--lambda={lam_arg}", *grid.argv(), "--out", str(out)]
        if corrupt:
            argv.append("--corrupt")
        x = grid.points()
        h = 1e-4 * 2.0 * np.pi / seed.wavenumber()
        points = len(x) - int(np.sum(_stencil_on_axis(seed, x, h)))
        cmd = Command(argv, "verify", points, check=None, grid=len(x), expect_rc=1 if corrupt else 0)
        cmd.check = check_verify(seed, grid, out, cmd)
        return cmd

    def probe(self, seed: Seed) -> list[Command]:
        """Small run of every CLI command, for layers the workload never reaches."""
        path = self.seed_file("probe", seed)
        solve = self.solve(seed, path, "probe-solve")
        table = self.outdir / "probe.csv"
        sample = self.sample(seed, path, _grid(self.rng, seed, ("x1", "x3"), 12), table, "basis:0")
        return [solve, sample, self.dual(table, sample.points, None),
                self.verify(seed, path, _grid(self.rng, seed, ("x1", "x3"), 6), "probe-verify", "basis:0")]


def build(workload: str, seed: int, outdir: Path) -> Plan:
    """The command list (one round) of ``workload`` for workload seed ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    b = _Builder(outdir, rng)
    cyl = _cylindrical_seed(rng, m=2)
    if workload == "sample-grid":
        real, cplx = _plane_seed("RealPlane", rng), _plane_seed("ComplexPlane", rng)
        p_real, p_cplx, p_cyl = (b.seed_file(n, s) for n, s in
                                 (("real", real), ("cplx", cplx), ("cyl", cyl)))
        t_real, t_cplx, t_cyl = (outdir / n for n in ("real.csv", "cplx.jsonl", "cyl.csv"))
        commands = [
            b.solve(cplx, p_cplx, "cplx-solve"),
            b.solve(cyl, p_cyl, "cyl-solve"),
            b.sample(real, p_real, _grid(rng, real, ("x1", "x3"), 120), t_real,
                     oracle.admissible_lambda(real, rng)),
            b.sample(cplx, p_cplx, _grid(rng, cplx, ("x0", "x2"), 100), t_cplx, "basis:0"),
            b.sample(cyl, p_cyl, _grid(rng, cyl, ("x1", "x2"), 121, axis=True), t_cyl, "solve"),
        ]
        commands += [b.dual(t_cyl, commands[4].points, None),
                     b.dual(t_cplx, commands[3].points, float(rng.uniform(0.2, 1.3)))]
    elif workload == "verify-grid":
        real, cplx = _plane_seed("RealPlane", rng), _plane_seed("ComplexPlane", rng)
        p_real, p_cplx, p_cyl = (b.seed_file(n, s) for n, s in
                                 (("real", real), ("cplx", cplx), ("cyl", cyl)))
        lam_real = oracle.admissible_lambda(real, rng)
        commands = [
            b.verify(real, p_real, _grid(rng, real, ("x1", "x3"), 32), "real-verify", lam_real),
            b.verify(cplx, p_cplx, _grid(rng, cplx, ("x0", "x2"), 30), "cplx-verify", "basis:0"),
            b.verify(cyl, p_cyl, _grid(rng, cyl, ("x1", "x2"), 33, axis=True), "cyl-verify", "solve"),
            b.verify(real, p_real, _grid(rng, real, ("x1", "x3"), 8), "real-corrupt", lam_real,
                     corrupt=True),
        ]
    elif workload == "solve-sweep":
        commands = []
        for i, points in enumerate(SWEEP_POINTS):
            for kind in ("RealPlane", "ComplexPlane", "Cylindrical"):
                seed_i = (_cylindrical_seed(rng, m=int(rng.integers(0, 5))) if kind == "Cylindrical"
                          else _plane_seed(kind, rng))
                name = f"sweep-{i}-{kind}"
                commands.append(b.solve(seed_i, b.seed_file(name, seed_i), name, points))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    probe = b.probe(cyl)
    return Plan(commands, probe, b.files)
