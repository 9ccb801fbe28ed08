"""Command-line front end.

Subcommands
-----------
solve       solve the physicality constraints for a seed; report the
            physical/kernel weight basis
sample      evaluate a weighted field on a grid and write a table
verify      finite-difference Maxwell certification over a grid (exit 1 on
            failure so CI can gate on it)
invariants  run the built-in invariant battery
dual        apply the dual/phase transformation to a sampled table

Common flags: ``--seed FILE`` (seed spec, see :mod:`rsmaxwell.config` for the
grammar), ``--lambda c0r,c0i,c1r,c1i,c2r,c2i,c3r,c3i | basis:N | solve``,
``--grid axis:min:max:count[,...]``, ``--fix axis=value[,...]``, ``--h STEP``,
``--tol REL``, ``--format csv|jsonl``, ``--out PATH``, ``--c SPEED`` (display
rescaling of the cB columns only).  A ``--config FILE`` of key=value lines
supplies defaults for any of these; explicit flags win.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import algebra, dual, physicality, seeds, squaring, verify, waves
from .config import GridSpec, RunConfig, parse_config_file, parse_fix, parse_grid
from .seeds import ComplexPlaneSeed, CylindricalSeed, RealPlaneSeed

__all__ = ["main"]

_CSV_HEADER = ["x0", "x1", "x2", "x3", "E1", "E2", "E3", "cB1", "cB2", "cB3",
               "E_dot_cB", "E2_minus_cB2"]
#: Keys of a verify point record, in the order cmd_verify fills them.
_VERIFY_KEYS = ("x", "div_E", "div_cB", "curl_E_plus_dt_cB", "curl_cB_minus_dt_E",
                "max_residual", "max_relative")
#: Grid points evaluated per array call by sample and verify.  Verify holds
#: eight stencil samples per point, so a chunk keeps the arrays near 2 MB.
CHUNK = 4096


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _default_h(seed) -> float:
    k = seeds.char_wavenumber(seed)
    return 1e-4 * 2.0 * np.pi / k


def _resolve_lambda(cfg: RunConfig, seed) -> squaring.Lambda:
    spec = (cfg.lam or "").strip()
    if not spec:
        raise ValueError("a weight selection is required (--lambda)")
    if spec == "solve" or spec.startswith("basis:"):
        cs = physicality.assemble_constraints(
            seed, physicality.default_sample_points(seed, n=cfg.n_points)
        )
        pb = physicality.solve_null_space(cs, tol_rank=cfg.tol_rank)
        if spec == "solve":
            if pb.dim_physical_complex != 1:
                raise ValueError(
                    f"--lambda solve needs exactly one complex physical dimension, "
                    f"found {pb.dim_physical_complex}; pick one with --lambda basis:N"
                )
            return pb.basis[0]
        idx = int(spec.split(":", 1)[1])
        if not 0 <= idx < len(pb.basis):
            raise ValueError(
                f"basis index {idx} out of range (physical basis has {len(pb.basis)} vectors)"
            )
        return pb.basis[idx]
    parts = [float(v) for v in spec.split(",")]
    if len(parts) != 8:
        raise ValueError(
            "--lambda needs 8 reals c0r,c0i,c1r,c1i,c2r,c2i,c3r,c3i "
            "(or 'solve' / 'basis:N')"
        )
    return squaring.Lambda(
        tuple(complex(parts[2 * i], parts[2 * i + 1]) for i in range(4))
    )


def _table(x: np.ndarray, e: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """(N, 12) table rows: coordinates, E, cB, E.cB and |E|^2 - |cB|^2."""
    with np.errstate(over="ignore", invalid="ignore"):
        e_dot_cb = algebra._row_dot(e, cb)
        e2_minus_cb2 = algebra._row_dot(e, e) - algebra._row_dot(cb, cb)
    return np.column_stack([x, e, cb, e_dot_cb, e2_minus_cb2])


def _write_table(path, table: np.ndarray, fmt: str, c_display: float, skipped: int) -> None:
    header = list(_CSV_HEADER)
    if c_display != 1.0:
        header[7:10] = ["B1", "B2", "B3"]
        table = table.copy()
        table[:, 7:10] /= c_display
    rows = table.tolist()
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in rows:
                writer.writerow([_fmt(v) for v in r])
            if skipped:
                fh.write(f"# skipped_axis_rows={skipped}\n")
        else:
            for r in rows:
                fh.write(json.dumps(dict(zip(header, r)), sort_keys=True) + "\n")
            if skipped:
                fh.write(json.dumps({"skipped_axis_rows": skipped}) + "\n")


def read_field_table(path) -> tuple[list[str], list[list[float]]]:
    """Read a sampled table (csv or jsonl); returns (header, rows)."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"empty table: {path}")
    if lines[0].lstrip().startswith("{"):
        records = [json.loads(ln) for ln in lines]
        records = [r for r in records if "E1" in r]
        if not records:
            raise ValueError(f"no field rows in {path}")
        header = [k for k in _CSV_HEADER if k in records[0]] + sorted(
            k for k in records[0] if k not in _CSV_HEADER
        )
        rows = [[float(r[k]) for k in header] for r in records]
        return header, rows
    reader = csv.reader(lines)
    header = next(reader)
    rows = [[float(v) for v in row] for row in reader]
    return header, rows


def cmd_solve(cfg: RunConfig) -> int:
    seed = cfg.require_seed()
    points = physicality.default_sample_points(seed, n=cfg.n_points)
    cs = physicality.assemble_constraints(seed, points)
    pb = physicality.solve_null_space(cs, tol_rank=cfg.tol_rank)

    print(f"seed: {seed}")
    print(f"constraint rows: {cs.rows.shape[0]}  sample points: {len(points)}")
    with np.printoptions(precision=6, suppress=True):
        print(f"singular values: {pb.singular_values}")
    print(f"nullity: {pb.nullity} real")
    print(f"dim_physical: {pb.dim_physical} real = {pb.dim_physical_complex} complex")
    print(f"field_space_dim: {pb.field_space_dim} real")
    print("basis (lambda_0..lambda_3):")
    for lam in pb.basis:
        print("  " + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in lam.values))
    print("kernel:")
    for lam in pb.kernel:
        print("  " + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in lam.values))
    if pb.warning:
        print(f"warning: {pb.warning}")

    if cfg.out:
        payload = {
            "seed": repr(seed),
            "nullity": pb.nullity,
            "dim_physical_real": pb.dim_physical,
            "dim_physical_complex": pb.dim_physical_complex,
            "field_space_dim": pb.field_space_dim,
            "singular_values": [float(s) for s in pb.singular_values],
            "basis": [[ [v.real, v.imag] for v in lam.values] for lam in pb.basis],
            "kernel": [[ [v.real, v.imag] for v in lam.values] for lam in pb.kernel],
            "warning": pb.warning,
        }
        Path(cfg.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _chunks(grid: GridSpec):
    """The grid's points as (N, 4) arrays of at most CHUNK consecutive rows.

    The grid is enumerated through ``GridSpec.points``, the grid layer that
    ``bench/tracing.py`` times, so that layer stays on the command path.
    """
    points = grid.points()
    for start in range(0, len(points), CHUNK):
        yield np.asarray(points[start:start + CHUNK], dtype=float)


def _off_axis(fn, x: np.ndarray) -> tuple[np.ndarray, object]:
    """``fn`` of the rows of x whose evaluation stays off the cylindrical axis.

    Returns the mask of rows kept and ``fn`` of those rows.  When ``fn``
    raises an AxisError, the rows it marks are dropped and the rest are
    evaluated once more.
    """
    try:
        return np.ones(len(x), dtype=bool), fn(x)
    except algebra.AxisError as err:
        if err.rows is None:
            raise
        keep = ~err.rows
        return keep, fn(x[keep])


def cmd_sample(cfg: RunConfig) -> int:
    seed = cfg.require_seed()
    lam = _resolve_lambda(cfg, seed)
    if not cfg.out:
        raise ValueError("sample needs an output path (--out)")
    tables = [np.empty((0, len(_CSV_HEADER)))]
    skipped = 0
    for x in _chunks(cfg.grid):
        keep, psi = _off_axis(lambda c: squaring.combine(seed, lam, c), x)
        skipped += int(np.sum(~keep))
        table = _table(x[keep], psi[:, 1:].real, psi[:, 1:].imag)
        bad = ~np.isfinite(table[:, 4:10]).all(axis=1)
        if bad.any():
            point = algebra.SpacetimePoint(*table[bad][0, :4])
            raise algebra.NonFiniteFieldError(f"non-finite field value at grid point {point}")
        tables.append(table)
    rows = np.concatenate(tables)
    _write_table(cfg.out, rows, cfg.fmt, cfg.c_display, skipped)
    print(f"wrote {len(rows)} rows to {cfg.out}" + (f" (skipped {skipped} axis rows)" if skipped else ""))
    return 0


#: Sign pattern over (E1, E2, E3, cB1, cB2, cB3) of the ``--corrupt`` control.
_FLIP_E2 = np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])


def _flip_e2(field_fn):
    """Negative control: ``field_fn`` with the sign of E2 flipped, at a point or on an array."""

    def flipped(p):
        f = field_fn(p)
        if isinstance(f, waves.FieldSample):
            return waves.FieldSample(f.e * _FLIP_E2[:3], f.cb, f.point)
        return f * _FLIP_E2

    return flipped


def cmd_verify(cfg: RunConfig) -> int:
    seed = cfg.require_seed()
    lam = _resolve_lambda(cfg, seed)
    h = cfg.h if cfg.h is not None else _default_h(seed)
    field_fn = squaring.em_field(seed, lam)
    if cfg.corrupt:
        field_fn = _flip_e2(field_fn)

    records = []
    skipped = 0
    relatives = []
    for x in _chunks(cfg.grid):
        keep, rep = _off_axis(lambda c: verify.maxwell_residuals(field_fn, c, h), x)
        skipped += int(np.sum(~keep))
        relatives.append(rep.max_relative)
        columns = (rep.div_e, rep.div_cb, rep.curl_e_plus_dt_cb, rep.curl_cb_minus_dt_e,
                   rep.max_residual, rep.max_relative)
        for xi, *values in zip(x[keep].tolist(), *(c.tolist() for c in columns)):
            records.append(dict(zip(_VERIFY_KEYS, [xi, *values]), type="point", h=h))
    if not records:
        raise ValueError("verification grid produced no usable points")
    relatives = np.concatenate(relatives)

    slope = None
    floor_limited = False
    try:
        first = records[0]["x"]
        co = verify.convergence_order(field_fn, first, [4 * h, 2 * h, h])
        slope, floor_limited = co.slope, co.floor_limited
    except algebra.AxisError:
        pass

    max_rel = float(np.max(relatives))
    passed = bool(max_rel < cfg.tol)
    summary = {
        "type": "summary",
        "points": len(records),
        "skipped_axis_rows": skipped,
        "h": h,
        "max_relative": max_rel,
        "median_relative": float(np.median(relatives)),
        "convergence_slope": slope,
        "floor_limited": floor_limited,
        "tol": cfg.tol,
        "pass": passed,
    }
    if cfg.out:
        with open(cfg.out, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.write(json.dumps(summary, sort_keys=True) + "\n")
    print(
        f"max relative residual {max_rel:.3e} (tol {cfg.tol:g}), "
        f"median {summary['median_relative']:.3e}, slope "
        + (f"{slope:.2f}" if slope is not None else "floor-limited")
    )
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def cmd_dual(cfg: RunConfig, in_path: str, chi: float) -> int:
    if not cfg.out:
        raise ValueError("dual needs an output path (--out)")
    header, rows = read_field_table(in_path)
    if header[:10] != _CSV_HEADER[:10]:
        raise ValueError(
            "dual needs a table with columns x0..x3,E1..E3,cB1..cB3 written at c=1"
        )
    exact_dual = chi == float(np.pi / 2)
    fields = []
    for r in rows:
        pt = algebra.SpacetimePoint(*r[:4])
        f = waves.FieldSample(np.array(r[4:7]), np.array(r[7:10]), pt)
        g = dual.dual_transform(f) if exact_dual else dual.phase_transform(f, chi)
        fields.append(np.concatenate([g.e, g.cb]))
    x = np.array([r[:4] for r in rows]).reshape(-1, 4)
    fields = np.array(fields).reshape(-1, 6)
    _write_table(cfg.out, _table(x, fields[:, :3], fields[:, 3:]), cfg.fmt, 1.0, 0)
    print(f"wrote {len(rows)} transformed rows to {cfg.out}")
    return 0


def _invariant_checks() -> list[tuple[str, bool, str]]:
    results = []

    def check(name: str, fn) -> None:
        try:
            fn()
            results.append((name, True, ""))
        except AssertionError as exc:
            results.append((name, False, str(exc)))

    rng = np.random.default_rng(2024)

    def alpha_table():
        i4 = np.eye(4, dtype=np.int64)
        a = algebra.ALPHA
        for j in range(3):
            assert np.array_equal(a[j] @ a[j], -i4)
        assert np.array_equal(a[0] @ a[1], a[2]) and np.array_equal(a[1] @ a[0], -a[2])
        assert np.array_equal(a[1] @ a[2], a[0]) and np.array_equal(a[2] @ a[1], -a[0])
        assert np.array_equal(a[2] @ a[0], a[1]) and np.array_equal(a[0] @ a[2], -a[1])

    check("alpha multiplication table (exact)", alpha_table)

    def squaring_columns():
        cases = [
            (RealPlaneSeed(1.0, (1.0, 0.36, 0.48, 0.8)), 1e-4, 1e-6, (0.7, 1.1, 0.9, 1.3)),
            (ComplexPlaneSeed(1.0, (1.25, 0.75, 0.5, np.sqrt(1.25 ** 2 - 0.75 ** 2 - 0.25))),
             1e-4, 1e-6, (0.7, 1.1, 0.9, 1.3)),
            (CylindricalSeed(1.0, 1.3, 0.5, 2), 1e-5, 1e-5, (0.4, 1.2, 0.8, 0.6)),
        ]
        for seed, h, tol, x in cases:
            for col in range(4):
                fn = lambda p, c=col, s=seed: algebra.RSVector(squaring.formal_solutions(s, p)[:, c])
                r = algebra.maxwell_operator_apply(fn, np.array(x), h)
                assert r.norm() < tol, f"{seed} column {col}: {r.norm():.2e}"

    check("formal columns solve the matrix equation", squaring_columns)

    def plane_null_space():
        seed = RealPlaneSeed(1.0, (1.0, 0.0, 0.0, 1.0))
        cs = physicality.assemble_constraints(seed, physicality.default_sample_points(seed))
        pb = physicality.solve_null_space(cs)
        assert pb.nullity == 6 and pb.dim_physical == 4 and len(pb.kernel) == 2

    check("z-plane seed: 2 complex physical + kernel ray", plane_null_space)

    def cylindrical_ray():
        seed = CylindricalSeed(1.0, 1.3, 0.5, 2)
        cs = physicality.assemble_constraints(seed, physicality.default_sample_points(seed))
        pb = physicality.solve_null_space(cs)
        assert pb.nullity == 2 and pb.dim_physical == 2 and len(pb.kernel) == 0

    check("cylindrical seed: single admissible ray", cylindrical_ray)

    def det_identity():
        for _ in range(200):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            a = rng.uniform(-2, 2, 3)
            b = rng.uniform(-2, 2, 3)
            d = physicality.check_linear_dependence_3x3(n, a, b)
            assert abs(d) < 1e-12 * (np.linalg.norm(a) + np.linalg.norm(b) + 1) ** 3

    check("3x3 dependence determinant vanishes", det_identity)

    def lc_identities():
        for _ in range(200):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            a = rng.uniform(-2, 2, 3)
            b = rng.uniform(-2, 2, 3)
            fr = waves.lc_frame(n, a, b)
            scale = a @ a + b @ b + 1e-30
            assert abs(fr.l @ fr.c) < 1e-12 * scale
            assert abs(fr.l @ n) < 1e-12 * scale and abs(fr.c @ n) < 1e-12 * scale
            l2 = a @ a + b @ b - (n @ a) ** 2 - (n @ b) ** 2 + 2 * n @ np.cross(a, b)
            assert abs(fr.l @ fr.l - l2) < 1e-12 * scale

    check("L/C frame identities", lc_identities)

    def poynting():
        f1 = waves.plane_wave_z("I", 1.0, 1.0, np.zeros(4))
        rep = waves.polarization_report(f1)
        assert rep.direction_defined and np.allclose(rep.poynting_direction, [0, 0, 1])
        f2 = waves.plane_wave_z("II", 1.0, 1.0, np.zeros(4))
        assert abs(f1.e @ f2.e) < 1e-15 and abs(f1.cb @ f2.cb) < 1e-15

    check("plane waves along z: Poynting and orthogonality", poynting)

    def dual_phase():
        f = waves.plane_wave_z("I", 1.0, 1.0, np.array([0.3, 0, 0, 0.1]))
        fd = dual.dual_transform(f)
        fp = dual.phase_transform(f, np.pi / 2)
        assert np.allclose(fd.e, fp.e, atol=1e-15) and np.allclose(fd.cb, fp.cb, atol=1e-15)
        fdd = dual.dual_transform(fd)
        assert np.allclose(fdd.e, -f.e) and np.allclose(fdd.cb, -f.cb)

    check("dual transform group behaviour", dual_phase)

    def convergence():
        fr = waves.lc_frame(np.array([0.0, 0.6, 0.8]), np.array([1.0, 0, 0]), np.array([0, 0.5, -0.5]))
        fn = lambda p: waves.plane_wave_lc(fr, 1.0, 1.0, p)
        co = verify.convergence_order(fn, np.array([0.2, 0.3, 0.5, 0.7]), [1e-2, 5e-3, 2.5e-3])
        assert co.slope is not None and abs(co.slope - 2.0) < 0.1

    check("finite-difference verifier converges at order 2", convergence)

    def matrix_component():
        seed = RealPlaneSeed(1.0, (1.0, 0, 0, 1.0))
        lam = squaring.Lambda((0, 1, 0, 0))
        emf = squaring.em_field(seed, lam)
        rsf = lambda p: waves.rs_of_sample(emf(p))
        x, h = np.array([0.35, 0.6, 0.8, 0.9]), 1e-3
        mr = algebra.maxwell_operator_apply(rsf, x, h).components
        rep = verify.maxwell_residual(emf, x, h)
        assert np.max(np.abs(mr[1:].real - rep.faraday_vector)) < 1e-12
        assert np.max(np.abs(mr[1:].imag - rep.ampere_vector)) < 1e-12

    check("matrix and component residuals agree", matrix_component)

    return results


def cmd_invariants() -> int:
    results = _invariant_checks()
    failed = 0
    for name, ok, msg in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({msg})" if msg and not ok else ""))
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} invariant checks passed")
    return 0 if failed == 0 else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsmaxwell", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, need_lambda: bool = False) -> None:
        p.add_argument("--config", help="key=value config file supplying defaults")
        p.add_argument("--seed", help="seed spec file")
        if need_lambda:
            p.add_argument("--lambda", dest="lam",
                           help="c0r,c0i,c1r,c1i,c2r,c2i,c3r,c3i | basis:N | solve")
            p.add_argument("--grid", help="axis:min:max:count[,...]")
            p.add_argument("--fix", help="axis=value[,...]")
        p.add_argument("--h", type=float, help="finite-difference step")
        p.add_argument("--tol", type=float, help="relative residual threshold")
        p.add_argument("--tol-rank", type=float, help="relative rank tolerance for the SVD")
        p.add_argument("--points", type=int, help="number of constraint sample points")
        p.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), help="output format")
        p.add_argument("--out", help="output file path")
        p.add_argument("--c", type=float, help="speed of light for display rescaling only")

    p_solve = sub.add_parser("solve", help="solve the physicality constraints")
    common(p_solve)

    p_sample = sub.add_parser("sample", help="sample a weighted field on a grid")
    common(p_sample, need_lambda=True)

    p_verify = sub.add_parser("verify", help="certify a field against the Maxwell equations")
    common(p_verify, need_lambda=True)
    p_verify.add_argument("--corrupt", action="store_true",
                          help="flip the sign of E2 (negative control; must fail)")

    sub.add_parser("invariants", help="run the built-in invariant battery")

    p_dual = sub.add_parser("dual", help="apply the dual/phase transform to a sampled table")
    p_dual.add_argument("--in", dest="in_path", required=True, help="input table (csv or jsonl)")
    p_dual.add_argument("--chi", type=float, default=np.pi / 2,
                        help="phase angle; the default pi/2 is the dual transform")
    p_dual.add_argument("--format", dest="fmt", choices=("csv", "jsonl"))
    p_dual.add_argument("--out", help="output file path")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_kv: dict[str, str] = {}
    if getattr(args, "config", None):
        file_kv = parse_config_file(args.config)

    def pick(flag: str, key: str, default=None):
        v = getattr(args, flag, None)
        if v is not None:
            return v
        return file_kv.get(key, default)

    grid_spec = pick("grid", "grid", "") or ""
    fix_spec = pick("fix", "fix", "") or ""
    grid = GridSpec(parse_grid(grid_spec), parse_fix(fix_spec))
    return RunConfig(
        seed_path=pick("seed", "seed"),
        lam=pick("lam", "lambda"),
        grid=grid,
        h=None if pick("h", "h") is None else float(pick("h", "h")),
        tol=float(pick("tol", "tol", 1e-6)),
        tol_rank=float(pick("tol_rank", "tol-rank", physicality.TOL_RANK)),
        n_points=int(pick("points", "points", 32)),
        fmt=pick("fmt", "format", "csv"),
        out=pick("out", "out"),
        c_display=float(pick("c", "c", 1.0)),
        corrupt=bool(getattr(args, "corrupt", False)),
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "invariants":
            return cmd_invariants()
        cfg = _config_from_args(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sample":
            return cmd_sample(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "dual":
            return cmd_dual(cfg, args.in_path, args.chi)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, KeyError, algebra.NonFiniteFieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
