import json
import warnings

import numpy as np
import pytest

from rsmaxwell.cli import main, read_field_table

Z_SEED = """
kind = RealPlane
A = 1.0
k0 = 1.0
k3 = 1.0
"""

CYL_SEED = """
kind = Cylindrical
E = 1.0
k = 0.5
m = 1
"""


@pytest.fixture
def z_seed_file(tmp_path):
    p = tmp_path / "seed_z.txt"
    p.write_text(Z_SEED)
    return str(p)


@pytest.fixture
def cyl_seed_file(tmp_path):
    p = tmp_path / "seed_cyl.txt"
    p.write_text(CYL_SEED)
    return str(p)


def test_solve_z_seed_reports_counts(z_seed_file, tmp_path, capsys):
    out = tmp_path / "solve.json"
    assert main(["solve", "--seed", z_seed_file, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "dim_physical: 4 real = 2 complex" in text
    payload = json.loads(out.read_text())
    assert payload["nullity"] == 6
    assert payload["dim_physical_complex"] == 2
    assert len(payload["kernel"]) == 2
    # kernel rays obey lambda_3 = i lambda_0
    for vec in payload["kernel"]:
        lam = [complex(re, im) for re, im in vec]
        assert abs(lam[3] - 1j * lam[0]) < 1e-10
        assert abs(lam[1]) < 1e-12 and abs(lam[2]) < 1e-12


def test_solve_cylindrical_reports_ray(cyl_seed_file, tmp_path):
    out = tmp_path / "solve.json"
    assert main(["solve", "--seed", cyl_seed_file, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["dim_physical_complex"] == 1
    assert payload["kernel"] == []
    for vec in payload["basis"]:
        lam = [complex(re, im) for re, im in vec]
        assert abs(lam[1]) < 1e-12 and abs(lam[2]) < 1e-12
        # -i lambda_0 E - lambda_3 k = 0 with E = 1, k = 0.5
        assert abs(-1j * lam[0] * 1.0 - lam[3] * 0.5) < 1e-10


def test_missing_seed_file_usage_error(tmp_path, capsys):
    assert main(["solve", "--seed", str(tmp_path / "nope.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_seed_spec_usage_error(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("kind = Spherical\n")
    assert main(["solve", "--seed", str(p)]) == 2


def test_sample_single_point_matches_wave_one(z_seed_file, tmp_path):
    out = tmp_path / "row.csv"
    rc = main(
        ["sample", "--seed", z_seed_file, "--lambda", "0,0,1,0,0,0,0,0",
         "--grid", "x3:0:0:1", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_field_table(out)
    assert header[:10] == ["x0", "x1", "x2", "x3", "E1", "E2", "E3", "cB1", "cB2", "cB3"]
    assert rows[0][:10] == [0, 0, 0, 0, 0, -1, 0, 1, 0, 0]


def test_sample_empty_grid_header_only(z_seed_file, tmp_path):
    out = tmp_path / "empty.csv"
    rc = main(
        ["sample", "--seed", z_seed_file, "--lambda", "0,0,1,0,0,0,0,0",
         "--grid", "x3:0:1:0", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("x0,")


def test_sample_round_trip_bit_exact(z_seed_file, tmp_path):
    from rsmaxwell import Lambda, RealPlaneSeed, combine

    out = tmp_path / "table.csv"
    rc = main(
        ["sample", "--seed", z_seed_file, "--lambda", "0.3,-0.2,1,0.5,0,0.25,0,0",
         "--grid", "x3:0:6.283:7,x0:0:1:3", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_field_table(out)
    seed = RealPlaneSeed(1.0, (1.0, 0.0, 0.0, 1.0))
    lam = Lambda((0.3 - 0.2j, 1 + 0.5j, 0.25j, 0))
    assert len(rows) == 21
    for row in rows:
        psi = combine(seed, lam, row[:4])
        for got, want in zip(row[4:10], np.concatenate([psi.e, psi.cb])):
            assert got == want  # 17 significant digits round-trip exactly


def test_sample_deterministic_output(cyl_seed_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--seed", cyl_seed_file, "--lambda", "solve",
            "--grid", "x1:0.5:2:4,x2:0.5:2:4", "--fix", "x0=0.3,x3=0.1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_skips_axis_rows(cyl_seed_file, tmp_path):
    out = tmp_path / "axis.csv"
    rc = main(
        ["sample", "--seed", cyl_seed_file, "--lambda", "solve",
         "--grid", "x1:-1:1:3,x2:0:1:2", "--out", str(out)]
    )
    assert rc == 0
    text = out.read_text()
    assert "# skipped_axis_rows=1" in text
    _, rows = read_field_table(out)
    assert len(rows) == 5


def test_sample_jsonl_format(z_seed_file, tmp_path):
    out = tmp_path / "table.jsonl"
    rc = main(
        ["sample", "--seed", z_seed_file, "--lambda", "0,0,1,0,0,0,0,0",
         "--grid", "x3:0:1:3", "--format", "jsonl", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert rec["E2"] == -1.0 and rec["cB1"] == 1.0


def test_sample_display_rescaling(z_seed_file, tmp_path):
    out = tmp_path / "si.csv"
    c = 299792458.0
    rc = main(
        ["sample", "--seed", z_seed_file, "--lambda", "0,0,1,0,0,0,0,0",
         "--grid", "x3:0:0:1", "--c", str(c), "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_field_table(out)
    assert header[7:10] == ["B1", "B2", "B3"]
    assert rows[0][7] == 1.0 / c


def test_verify_pass_and_corrupt_fail(z_seed_file, tmp_path):
    args = ["verify", "--seed", z_seed_file, "--lambda", "0,0,1,0,0,0,0,0",
            "--grid", "x3:0:5:5", "--fix", "x0=0.2", "--tol", "1e-6"]
    out = tmp_path / "rep.jsonl"
    assert main(args + ["--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    summary = records[-1]
    assert summary["type"] == "summary" and summary["pass"] is True
    assert summary["max_relative"] < 1e-6
    assert main(args + ["--corrupt"]) == 1


def test_verify_reports_slope(tmp_path):
    # general-direction seed so truncation is visible (z-aligned waves cancel);
    # weights (n1, i, 0, 0) give the first physical polarization
    seed = tmp_path / "seed_gen.txt"
    seed.write_text("kind = RealPlane\nk0=1.0\nk1=0.36\nk2=0.48\nk3=0.8\n")
    out = tmp_path / "rep.jsonl"
    rc = main(
        ["verify", "--seed", str(seed), "--lambda", "0.36,0,0,1,0,0,0,0",
         "--grid", "x1:0.3:1:2", "--h", "0.005", "--tol", "1e-4", "--out", str(out)]
    )
    assert rc == 0
    summary = json.loads(out.read_text().splitlines()[-1])
    assert abs(summary["convergence_slope"] - 2.0) < 0.1


def test_dual_command_round_trip(z_seed_file, tmp_path):
    table = tmp_path / "t.csv"
    assert main(
        ["sample", "--seed", z_seed_file, "--lambda", "0,0,1,0,0,0,0,0",
         "--grid", "x3:0:3:4", "--out", str(table)]
    ) == 0
    once = tmp_path / "d1.csv"
    twice = tmp_path / "d2.csv"
    assert main(["dual", "--in", str(table), "--out", str(once)]) == 0
    assert main(["dual", "--in", str(once), "--out", str(twice)]) == 0
    _, rows = read_field_table(table)
    _, rows1 = read_field_table(once)
    _, rows2 = read_field_table(twice)
    for r, r1, r2 in zip(rows, rows1, rows2):
        e, cb = np.array(r[4:7]), np.array(r[7:10])
        np.testing.assert_allclose(r1[4:7], -cb, atol=1e-15)
        np.testing.assert_allclose(r1[7:10], e, atol=1e-15)
        np.testing.assert_allclose(r2[4:7], -e, atol=1e-15)  # dual^2 = -id
        np.testing.assert_allclose(r2[7:10], -cb, atol=1e-15)


def test_config_file_with_cli_override(z_seed_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"seed = {z_seed_file}\nlambda = 0,0,1,0,0,0,0,0\ngrid = x3:0:1:2\nout = {tmp_path/'a.csv'}\n"
    )
    assert main(["sample", "--config", str(cfg)]) == 0
    assert (tmp_path / "a.csv").exists()
    # CLI flag wins over the config value
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
    _, rows = read_field_table(tmp_path / "b.csv")
    assert len(rows) == 2


def test_lambda_solve_requires_unique_ray(z_seed_file):
    # the plane seed has two complex physical dimensions: refuse to guess
    rc = main(["sample", "--seed", z_seed_file, "--lambda", "solve",
               "--grid", "x3:0:0:1", "--out", "/dev/null"])
    assert rc == 2


def test_lambda_basis_selection(z_seed_file, tmp_path):
    out = tmp_path / "b.csv"
    rc = main(["sample", "--seed", z_seed_file, "--lambda", "basis:1",
               "--grid", "x3:0:0:1", "--out", str(out)])
    assert rc == 0
    rc = main(["sample", "--seed", z_seed_file, "--lambda", "basis:9",
               "--grid", "x3:0:0:1", "--out", str(out)])
    assert rc == 2


def test_verify_skips_axis_points(cyl_seed_file, tmp_path):
    # stencil points that would cross the excluded axis are skipped and counted
    out = tmp_path / "rep.jsonl"
    rc = main(
        ["verify", "--seed", cyl_seed_file, "--lambda", "solve",
         "--grid", "x1:0:2:3", "--fix", "x0=0.3,x2=0,x3=0.1",
         "--tol", "1e-5", "--out", str(out)]
    )
    assert rc == 0
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["skipped_axis_rows"] == 1
    assert summary["points"] == 2


def test_sample_default_grid_is_origin(z_seed_file, tmp_path):
    out = tmp_path / "origin.csv"
    assert main(["sample", "--seed", z_seed_file, "--lambda", "0,0,1,0,0,0,0,0",
                 "--out", str(out)]) == 0
    _, rows = read_field_table(out)
    assert len(rows) == 1 and rows[0][:4] == [0, 0, 0, 0]


def test_invariants_command(capsys):
    assert main(["invariants"]) == 0
    out = capsys.readouterr().out
    assert "10/10" in out and "FAIL" not in out


def test_large_grid_smoke(z_seed_file, tmp_path):
    out = tmp_path / "big.csv"
    rc = main(
        ["sample", "--seed", z_seed_file, "--lambda", "0,0,1,0,0,0,0,0",
         "--grid", "x0:0:1:10,x1:0:1:10,x2:0:1:10,x3:0:1:10", "--out", str(out)]
    )
    assert rc == 0
    _, rows = read_field_table(out)
    assert len(rows) == 10_000
    assert np.all(np.isfinite(np.asarray(rows)))


OVERFLOW_SEED = "kind = RealPlane\nA = 1e308\nk0 = 1e10\nk3 = 1e10\n"


@pytest.mark.parametrize(
    "command, message",
    [
        (["solve"], "constraint rows must be finite"),
        (["sample", "--lambda", "0,0,1,0,0,0,0,0", "--grid", "x3:0:1:3"],
         "non-finite field value at grid point SpacetimePoint(x0=0.0, x1=0.0, x2=0.0, x3=0.0)"),
        (["verify", "--lambda", "0,0,1,0,0,0,0,0", "--grid", "x3:0:1:3"],
         "non-finite field sample at stencil point"),
    ],
    ids=["solve", "sample", "verify"],
)
def test_overflowing_seed_fails_with_one_error_line(tmp_path, capsys, command, message):
    # the seed overflows to inf: exit 2 with the reason, no numpy warning, no table
    seed = tmp_path / "huge.txt"
    seed.write_text(OVERFLOW_SEED)
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*command, "--seed", str(seed), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


def test_sample_keeps_finite_field_whose_invariants_overflow(tmp_path, capsys):
    # fields near 1e160 are finite, but E.cB and |E|^2 - |cB|^2 overflow: the rows are still written
    seed = tmp_path / "large.txt"
    seed.write_text("kind = RealPlane\nA = 1e160\nk0 = 1\nk3 = 1\n")
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sample", "--seed", str(seed), "--lambda", "0,0,1,0,0,0,0,0",
                   "--grid", "x3:0.1:1:3", "--out", str(out)])
    assert rc == 0 and capsys.readouterr().err == ""
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (3, 12)
    assert np.all(np.isfinite(rows[:, :10])) and np.abs(rows[:, 4:10]).max() > 1e159
    assert not np.all(np.isfinite(rows[:, 10:]))


def test_main_runs_different_subcommands_back_to_back(z_seed_file, tmp_path):
    # the parser is built once per process; options of one call must not leak into the next
    table = tmp_path / "t.jsonl"
    assert main(["sample", "--seed", z_seed_file, "--lambda", "0,0,1,0,0,0,0,0",
                 "--grid", "x3:0:1:3", "--format", "jsonl", "--out", str(table)]) == 0
    dual_out = tmp_path / "d.csv"
    assert main(["dual", "--in", str(table), "--out", str(dual_out)]) == 0
    assert dual_out.read_text().startswith("x0,x1,x2,x3,")
    assert main(["verify", "--seed", z_seed_file, "--lambda", "0,0,1,0,0,0,0,0",
                 "--grid", "x3:0:5:5", "--fix", "x0=0.2"]) == 0
