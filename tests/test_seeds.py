import numpy as np
import pytest

from oracles import besselj, fd_gradient, fd_hessian
from rsmaxwell import (
    RHO_MIN,
    AxisError,
    ComplexPlaneSeed,
    CylindricalSeed,
    RealPlaneSeed,
    kfg_residual,
)

# frozen from the mpmath series oracle (tests/oracles.py)
J0_AT_1 = 0.7651976865579666


def test_real_plane_value_at_zero_phase():
    s = RealPlaneSeed(1.0, (1.0, 0.0, 0.0, 1.0))
    assert s.value((0, 0, 0, 0)) == 0.0  # sin(0)


def test_complex_plane_value_at_zero_phase():
    s = ComplexPlaneSeed(1.0, (1.0, 0.0, 0.0, 1.0))
    assert s.value((0, 0, 0, 0)) == 1.0 + 0.0j


def test_cylindrical_value_is_bessel():
    s = CylindricalSeed(1.0, 1.0, 0.0, 0)
    v = s.value((0.0, 1.0, 0.0, 0.0))
    assert abs(v.imag) < 1e-15
    assert abs(v.real - J0_AT_1) < 1e-14
    assert abs(J0_AT_1 - besselj(0, 1.0)) < 1e-16


def test_real_plane_gradient_signs():
    # F0 = k0 A cos(phase), Fj = -kj A cos(phase)
    s = RealPlaneSeed(2.0, (1.0, 0.36, 0.48, 0.8))
    f = s.gradient((0, 0, 0, 0))
    np.testing.assert_allclose(f.real, [2.0, -0.72, -0.96, -1.6], rtol=1e-15)
    assert np.all(f.imag == 0)
    # quarter phase kills the gradient of the sine seed
    sz = RealPlaneSeed(1.0, (1.0, 0.0, 0.0, 1.0))
    f = sz.gradient((np.pi / 2, 0, 0, 0))
    assert np.max(np.abs(f)) < 1e-12


def test_complex_plane_gradient_is_i_k_lowered_phi():
    s = ComplexPlaneSeed(0.9, (1.25, 0.75, 0.5, np.sqrt(1.25**2 - 0.75**2 - 0.5**2)))
    x = (0.3, -0.2, 0.7, 0.4)
    f = s.gradient(x)
    np.testing.assert_allclose(f, 1j * s.k_lowered * s.value(x), rtol=1e-14)


def test_cylindrical_gradient_axial_term():
    # F3 = i k Phi, so it vanishes for k = 0
    s = CylindricalSeed(1.0, 1.0, 0.0, 0)
    f = s.gradient((0.2, 0.8, 0.5, 0.3))
    assert f[3] == 0


@pytest.mark.parametrize(
    "seed",
    [
        RealPlaneSeed(1.3, (1.0, 0.36, 0.48, 0.8)),
        ComplexPlaneSeed(0.7, (1.0, 0.6, 0.0, 0.8)),
        CylindricalSeed(1.1, 1.3, 0.5, 2),
        CylindricalSeed(1.0, 1.0, -0.4, -1),
        CylindricalSeed(0.8, 0.9, 0.0, 0),
    ],
)
def test_gradient_matches_finite_differences(seed, rng):
    for _ in range(4):
        x = rng.uniform(0.5, 2.0, 4)
        f = seed.gradient(x)
        ref = fd_gradient(seed.value, x)
        np.testing.assert_allclose(f, ref, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize(
    "seed",
    [
        RealPlaneSeed(1.3, (1.0, 0.36, 0.48, 0.8)),
        ComplexPlaneSeed(0.7, (1.0, 0.6, 0.0, 0.8)),
        CylindricalSeed(1.1, 1.3, 0.5, 2),
        CylindricalSeed(1.0, 1.0, -0.4, -1),
    ],
)
def test_hessian_matches_finite_differences(seed, rng):
    for _ in range(3):
        x = rng.uniform(0.5, 2.0, 4)
        h = seed.hessian(x)
        ref = fd_hessian(seed.value, x)
        np.testing.assert_allclose(h, ref, rtol=2e-5, atol=1e-6)
        np.testing.assert_allclose(h, h.T, rtol=1e-13, atol=1e-15)


def test_kfg_residual_small_for_valid_seeds(rng):
    for seed in (
        RealPlaneSeed(1.0, (1.0, 0.36, 0.48, 0.8)),
        ComplexPlaneSeed(1.0, (1.0, 0.6, 0.0, 0.8)),
    ):
        x = rng.uniform(0.6, 1.8, 4)
        assert kfg_residual(seed, x, 1e-3) < 1e-6
    # cylindrical derivatives grow toward the axis; keep a looser generic bound
    cyl = CylindricalSeed(1.0, 1.0, 0.5, 1)
    x = rng.uniform(0.6, 1.8, 4)
    assert kfg_residual(cyl, x, 1e-3) < 1e-4


def test_kfg_residual_second_order(rng):
    # generic-direction seeds: residual drops ~4x per halving of h
    for seed in (
        RealPlaneSeed(1.0, (1.0, 0.36, 0.48, 0.8)),
        CylindricalSeed(1.0, 1.3, 0.5, 2),
    ):
        x = rng.uniform(0.6, 1.8, 4)
        r = [kfg_residual(seed, x, h) for h in (4e-3, 2e-3, 1e-3)]
        assert 3.5 < r[0] / r[1] < 4.5
        assert 3.5 < r[1] / r[2] < 4.5


def test_kfg_residual_flags_non_null_plane():
    # a scalar with k0=1, |k|=0.5 is not a wave-equation solution:
    # the residual approaches |k0^2 - |k|^2| |Phi| = 0.75 |Phi|
    class NonNullPlane:
        def value(self, p):
            x = np.asarray(p, dtype=float)
            return np.sin(x[0] - 0.5 * x[3])

    bad = NonNullPlane()
    x = np.array([0.9, 0.0, 0.0, 0.4])
    expected = 0.75 * abs(bad.value(x))
    r = kfg_residual(bad, x, 1e-3)
    assert r > 0.1
    assert abs(r - expected) < 1e-4


def test_cylindrical_kfg_at_rho_2():
    s = CylindricalSeed(1.0, 1.0, 0.5, 1)
    assert kfg_residual(s, (0.3, 2.0, 0.0, 0.7), 1e-3) < 1e-5


def test_plane_seed_rejects_non_null_k():
    with pytest.raises(ValueError, match="null"):
        RealPlaneSeed(1.0, (1.0, 0.0, 0.0, 0.5))
    with pytest.raises(ValueError, match="null"):
        ComplexPlaneSeed(1.0, (1.0, 1.0, 0.0, 0.5))


def test_cylindrical_rejects_evanescent():
    with pytest.raises(ValueError, match="freq"):
        CylindricalSeed(1.0, 0.5, 1.0, 0)


def test_cylindrical_axis_exclusion():
    s = CylindricalSeed(1.0, 1.0, 0.5, 1)
    with pytest.raises(AxisError) as err:
        s.value((0.0, 0.0, 0.0, 0.0))
    assert str(RHO_MIN) in str(err.value)
    with pytest.raises(AxisError):
        s.gradient((0.0, 1e-10, 0.0, 0.0))


def test_degenerate_transverse_wavenumber():
    # kz = +-freq: J_m(0 rho) collapses to the m=0 constant
    s0 = CylindricalSeed(1.0, 1.0, 1.0, 0)
    v = s0.value((0.0, 1.0, 0.5, 0.0))
    assert abs(abs(v) - 1.0) < 1e-15  # |exp(i...)| * J_0(0)
    s1 = CylindricalSeed(1.0, 1.0, -1.0, 3)
    assert s1.value((0.0, 1.0, 0.5, 0.0)) == 0.0
