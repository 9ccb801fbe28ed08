import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rsmaxwell
from oracles import max_principal_angle, span_columns
from rsmaxwell import (
    ComplexPlaneSeed,
    CylindricalSeed,
    Lambda,
    RealPlaneSeed,
    assemble_complex_seed_constraints,
    assemble_constraints,
    assemble_real_seed_constraints,
    check_linear_dependence_3x3,
    combine,
    default_sample_points,
    em_field,
    maxwell_residual,
    plane_wave_constraints,
    solve_null_space,
)


def algebraic_null_basis(n):
    rows = plane_wave_constraints(n)
    _, _, vt = np.linalg.svd(rows)
    return vt[2:].T


def test_z_seed_rows_span_the_two_relations(z_seed):
    # every nonzero row is a multiple of b0 k0 + a3 k3 = 0 or a0 k0 - b3 k3 = 0
    cs = assemble_real_seed_constraints(z_seed, default_sample_points(z_seed))
    r1 = np.array([0, 0, 0, 1, 1, 0, 0, 0]) / np.sqrt(2)  # b0 + a3
    r2 = np.array([1, 0, 0, 0, 0, 0, 0, -1]) / np.sqrt(2)  # a0 - b3
    for row in cs.rows:
        norm = np.linalg.norm(row)
        if norm < 1e-14:
            continue
        u = row / norm
        p = abs(u @ r1), abs(u @ r2)
        assert max(p) > 1 - 1e-12
    assert cs.rows.shape == (8 * 32, 8)
    assert len(cs.tags) == cs.rows.shape[0]


def test_general_seed_null_space_matches_algebraic(general_real_seed):
    n = np.array(general_real_seed.k[1:]) / general_real_seed.k[0]
    cs = assemble_real_seed_constraints(general_real_seed, default_sample_points(general_real_seed))
    pb = solve_null_space(cs)
    sampled = span_columns(list(pb.basis) + list(pb.kernel))
    assert max_principal_angle(sampled, algebraic_null_basis(n)) < 1e-8


def test_complex_plane_seed_recovers_same_relations(complex_seed):
    # the complex-seed route lands on b0 = -(a.n), a0 = +(b.n) as well
    n = np.array(complex_seed.k[1:]) / complex_seed.k[0]
    cs = assemble_complex_seed_constraints(complex_seed, default_sample_points(complex_seed))
    pb = solve_null_space(cs)
    assert pb.nullity == 6
    sampled = span_columns(list(pb.basis) + list(pb.kernel))
    assert max_principal_angle(sampled, algebraic_null_basis(n)) < 1e-8


def test_zero_seed_all_zero_rows():
    s = RealPlaneSeed(0.0, (1.0, 0.0, 0.0, 1.0))
    cs = assemble_real_seed_constraints(s, default_sample_points(s))
    assert np.all(cs.rows == 0)
    pb = solve_null_space(cs)
    assert pb.nullity == 8
    assert len(pb.basis) == 8 and len(pb.kernel) == 0
    assert pb.warning is not None


def test_z_seed_split_counts(z_seed):
    cs = assemble_real_seed_constraints(z_seed, default_sample_points(z_seed))
    pb = solve_null_space(cs)
    assert pb.nullity == 6
    assert pb.dim_physical == 4
    assert pb.dim_physical_complex == 2
    assert len(pb.kernel) == 2
    # the kernel is the ray lambda = (l0, 0, 0, i l0)
    kref = np.array([[1, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, -1, 1, 0, 0, 0]], float).T
    assert max_principal_angle(span_columns(pb.kernel), kref) < 1e-10
    # the two polarizations with complex coefficients
    for lam in pb.basis:
        arr = lam.as_array()
        assert abs(arr[0]) < 1e-12 and abs(arr[3]) < 1e-12


def test_z_seed_field_space_dimension(z_seed):
    # complex multiples of one polarization reproduce the other: the sampled
    # fields span only 2 real dimensions although 4 weight directions remain
    cs = assemble_real_seed_constraints(z_seed, default_sample_points(z_seed))
    pb = solve_null_space(cs)
    assert pb.field_space_dim == 2


def test_kernel_combination_is_zero_field(z_seed, rng):
    cs = assemble_real_seed_constraints(z_seed, default_sample_points(z_seed))
    pb = solve_null_space(cs)
    for lam in pb.kernel:
        for _ in range(100):
            x = rng.uniform(-3, 3, 4)
            assert combine(z_seed, lam, x).norm() < 1e-10


def test_basis_zeroth_component_vanishes_at_fresh_points(
    general_real_seed, complex_seed, cyl_seed, rng
):
    for seed in (general_real_seed, complex_seed, cyl_seed):
        cs = assemble_constraints(seed, default_sample_points(seed))
        pb = solve_null_space(cs)
        low = 0.4 if seed is cyl_seed else -2.0  # stay off the axis
        for lam in pb.basis:
            for _ in range(100):
                x = rng.uniform(low, 2, 4)
                psi = combine(seed, lam, x)
                scale = max(np.max(np.abs(psi.components)), 1e-30)
                assert abs(psi.components[0]) < 1e-10 * scale


def test_basis_fields_pass_maxwell_verifier(general_real_seed, complex_seed, cyl_seed):
    for seed, h, tol, x in (
        (general_real_seed, 1e-4, 1e-6, (0.3, 0.9, 1.2, 0.5)),
        (complex_seed, 1e-4, 1e-6, (0.3, 0.9, 1.2, 0.5)),
        (cyl_seed, 1e-4, 1e-5, (0.3, 0.9, 1.2, 0.5)),
    ):
        cs = assemble_constraints(seed, default_sample_points(seed))
        pb = solve_null_space(cs)
        for lam in pb.basis:
            rep = maxwell_residual(em_field(seed, lam), x, h)
            assert rep.max_relative < tol


def test_basis_satisfies_constraint_rows(general_real_seed):
    cs = assemble_real_seed_constraints(general_real_seed, default_sample_points(general_real_seed))
    pb = solve_null_space(cs)
    scale = np.max(np.abs(cs.rows))
    for lam in list(pb.basis) + list(pb.kernel):
        assert np.max(np.abs(cs.rows @ lam.as_real_vector())) < 1e-10 * scale


def test_cylindrical_ray(rng):
    # 20 random draws with freq^2 > kz^2: exactly the one-complex-parameter ray
    for _ in range(20):
        freq = rng.uniform(0.5, 2.0)
        kz = rng.uniform(-0.95, 0.95) * freq
        m = int(rng.integers(-3, 4))
        seed = CylindricalSeed(1.0, freq, kz, m)
        cs = assemble_complex_seed_constraints(seed, default_sample_points(seed))
        pb = solve_null_space(cs)
        assert pb.nullity == 2
        assert pb.dim_physical == 2 and len(pb.kernel) == 0
        ray = np.array(
            [[0, 0, 0, 1, kz / freq, 0, 0, 0], [-kz / freq, 0, 0, 0, 0, 0, 0, 1]], float
        ).T
        assert max_principal_angle(span_columns(pb.basis), ray) < 1e-8
        # spectral gap: all retained singular values well above the cut
        sv = pb.singular_values
        assert sv[5] > 1e3 * 1e-9 * sv[0]


def test_cylindrical_transverse_weights_excluded(cyl_seed):
    # forcing lambda_1 or lambda_2 nonzero violates the constraints
    cs = assemble_complex_seed_constraints(cyl_seed, default_sample_points(cyl_seed))
    scale = np.max(np.abs(cs.rows))
    for bad in (Lambda((0, 1, 0, 0)), Lambda((0, 0, 1j, 0)), Lambda((0, 0.3, 0.4j, 0))):
        residual = np.max(np.abs(cs.rows @ bad.as_real_vector()))
        assert residual > 1e-3 * scale


def test_assemblers_validate_input(z_seed, complex_seed):
    with pytest.raises(ValueError):
        assemble_real_seed_constraints(z_seed, [])
    with pytest.raises(ValueError):
        assemble_complex_seed_constraints(complex_seed, [])
    with pytest.raises(ValueError):
        assemble_real_seed_constraints(complex_seed, default_sample_points(complex_seed))
    with pytest.raises(ValueError):
        assemble_complex_seed_constraints(z_seed, default_sample_points(z_seed))


def test_x_axis_seed_kernel_ray(rng):
    # nothing is special about z: an x-axis seed yields the (1, i, 0, 0) ray
    seed = RealPlaneSeed(1.0, (1.0, 1.0, 0.0, 0.0))
    pb = solve_null_space(assemble_real_seed_constraints(seed, default_sample_points(seed)))
    assert pb.dim_physical == 4 and len(pb.kernel) == 2
    kref = np.array([[1, 0, 0, 0, 0, 1, 0, 0], [0, -1, 0, 0, 1, 0, 0, 0]], float).T
    assert max_principal_angle(span_columns(pb.kernel), kref) < 1e-8
    for lam in pb.kernel:
        assert combine(seed, lam, rng.uniform(-2, 2, 4)).norm() < 1e-12


def test_point_independence_for_plane_seeds(z_seed, rng):
    # plane-seed rows are point-independent up to scale: one extra user point
    # changes nothing about the null space
    pts = default_sample_points(z_seed, extra=[rng.uniform(-1, 1, 4)])
    pb = solve_null_space(assemble_real_seed_constraints(z_seed, pts))
    assert pb.nullity == 6


def test_rank_ambiguity_warning(z_seed):
    # a singular value sitting just above the cut is reported, not silently kept
    from rsmaxwell import ConstraintSystem

    rows = np.zeros((2, 8))
    rows[0, 0] = 1.0
    rows[1, 1] = 5e-9
    cs = ConstraintSystem(rows, ("r0", "r1"), z_seed, default_sample_points(z_seed))
    pb = solve_null_space(cs, tol_rank=1e-9)
    assert pb.warning is not None and "ambiguity" in pb.warning
    assert pb.nullity == 6


def test_determinant_identity_examples():
    assert check_linear_dependence_3x3((0, 0, 1), (1, 0, 0), (0, 0, 0)) == 0.0
    assert check_linear_dependence_3x3((0, 1, 0), (0, 0, 0), (0, 0, 0)) == 0.0


def test_determinant_identity_random(rng):
    for _ in range(1000):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        a = rng.uniform(-3, 3, 3)
        b = rng.uniform(-3, 3, 3)
        scale = np.linalg.norm(a) + np.linalg.norm(b) + 1.0
        assert abs(check_linear_dependence_3x3(n, a, b)) < 1e-12 * scale**3


def test_determinant_requires_unit_n():
    with pytest.raises(ValueError):
        check_linear_dependence_3x3((0, 0, 2.0), (1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize("n", [1, 32, 512, 1024])
def test_sample_points_are_scipy_halton_bit_for_bit(n, z_seed):
    # scipy is only the reference here; the package computes Halton itself
    from scipy.stats import qmc

    sampler = qmc.Halton(d=4, scramble=False)
    sampler.fast_forward(1)
    ref = -1.25 + sampler.random(n) * (2.15 - -1.25)
    got = np.array([p.as_array() for p in default_sample_points(z_seed, n)])
    np.testing.assert_array_equal(got, ref)


def test_cli_import_leaves_out_scipy_stats():
    src = str(Path(rsmaxwell.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, rsmaxwell.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_solve_null_space_memory_stays_small(z_seed):
    cs = assemble_constraints(z_seed, default_sample_points(z_seed, 512))
    tracemalloc.start()
    try:
        solve_null_space(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_cylindrical_solve_evaluates_one_ladder_per_pass(monkeypatch):
    # one array ladder over all points for the Hessians in assembly, one for
    # the gradients of the formal matrices
    seed = CylindricalSeed(1.3, 1.3, 0.5, 2)
    ladder = CylindricalSeed._ladder
    calls = []

    def counted(self, rho, phi):
        calls.append(len(rho))
        return ladder(self, rho, phi)

    monkeypatch.setattr(CylindricalSeed, "_ladder", counted)
    solve_null_space(assemble_constraints(seed, default_sample_points(seed, 32)))
    assert calls == [32, 32]
