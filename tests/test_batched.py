"""Array evaluation core: batched calls equal row-by-row N = 1 calls bit for bit.

Seeds, formal solutions, field functions and residuals take an (N, 4) array
of points; the single-point call is the N = 1 case of the same body, so the
two must agree to the last bit whatever N is.  The CLI evaluates grids in
chunks of ``cli.CHUNK`` points; a grid larger than one chunk must report the
same point and axis counts as a point-by-point count.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from rsmaxwell import (
    RHO_MIN,
    AxisError,
    ComplexPlaneSeed,
    CylindricalSeed,
    FieldSample,
    Lambda,
    RealPlaneSeed,
    em_field,
    formal_solutions,
    maxwell_residual,
)
from rsmaxwell.cli import CHUNK, main
from rsmaxwell.verify import maxwell_residuals

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def bits(a) -> bytes:
    """Exact bit pattern of an array, signed zeros included."""
    a = np.asarray(a)
    return a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()


@st.composite
def seeds(draw):
    amplitude = draw(st.floats(0.1, 3.0))
    kind = draw(st.sampled_from(["RealPlane", "ComplexPlane", "Cylindrical"]))
    if kind == "Cylindrical":
        freq = draw(st.floats(0.3, 3.0))
        return CylindricalSeed(amplitude, freq, freq * draw(st.floats(-1.0, 1.0)), draw(st.integers(0, 6)))
    n = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    assume(np.linalg.norm(n) > 0.1)
    k0 = draw(st.floats(0.3, 3.0))
    k = (k0, *(float(v) for v in k0 * n / np.linalg.norm(n)))
    cls = RealPlaneSeed if kind == "RealPlane" else ComplexPlaneSeed
    return cls(amplitude, k)


def points(n):
    return arrays(np.float64, (n, 4), elements=st.floats(-4.0, 4.0, width=64))


weights = st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
                   min_size=4, max_size=4).map(lambda v: Lambda(tuple(v)))


def on_axis(seed, x):
    if not isinstance(seed, CylindricalSeed):
        return np.zeros(len(x), dtype=bool)
    return np.hypot(x[:, 1], x[:, 2]) <= RHO_MIN


def methods(seed, lam):
    field = em_field(seed, lam)

    def field_values(p):
        # (N, 6) for an array; a FieldSample for one point
        f = field(p)
        return np.concatenate([f.e, f.cb]) if isinstance(f, FieldSample) else f

    return {
        "value": seed.value,
        "gradient": seed.gradient,
        "hessian": seed.hessian,
        "formal_solutions": lambda p: formal_solutions(seed, p),
        "field": field_values,
    }


@SETTINGS
@given(seed=seeds(), lam=weights, x=st.integers(1, 40).flatmap(points))
def test_batched_calls_equal_single_point_calls_bit_for_bit(seed, lam, x):
    axis = on_axis(seed, x)
    for name, fn in methods(seed, lam).items():
        if axis.any():
            with pytest.raises(AxisError) as err:
                fn(x)
            assert np.array_equal(err.value.rows, axis), name
            continue
        batch = fn(x)
        for i in range(len(x)):
            assert bits(batch[i]) == bits(fn(x[i])), (name, i)


def scalar_cylindrical(seed, x):
    """Value, gradient and Hessian at one point in scalar complex arithmetic, term by term."""
    m, q, freq, kz = seed.m, seed.q, seed.freq, seed.kz
    rho, phi = float(np.hypot(x[1], x[2])), float(np.arctan2(x[2], x[1]))
    t = np.exp(1j * (freq * x[0] + kz * x[3]))
    value = complex(seed.amplitude * t * special.jv(m, q * rho) * np.exp(1j * m * phi))
    t = seed.amplitude * t
    orders = np.arange(m - 2, m + 3)
    w = {int(n): complex(v) for n, v in zip(orders, special.jv(orders, q * rho) * np.exp(1j * orders * phi))}
    f = np.array([
        1j * freq * (t * w[m]),
        t * q * (w[m - 1] - w[m + 1]) / 2.0,
        t * 1j * q * (w[m + 1] + w[m - 1]) / 2.0,
        1j * kz * (t * w[m]),
    ])
    h = np.empty((4, 4), dtype=complex)
    h[0, :], h[3, :] = 1j * freq * f, 1j * kz * f
    h[:, 0], h[:, 3] = h[0, :], h[3, :]
    h[1, 1] = t * q * q * (w[m - 2] - 2 * w[m] + w[m + 2]) / 4.0
    h[1, 2] = h[2, 1] = t * 1j * q * q * (w[m - 2] - w[m + 2]) / 4.0
    h[2, 2] = -t * q * q * (w[m + 2] + 2 * w[m] + w[m - 2]) / 4.0
    return value, f, h


@SETTINGS
@given(seed=seeds().filter(lambda s: isinstance(s, CylindricalSeed)),
       x=st.integers(1, 20).flatmap(points))
def test_cylindrical_batches_round_like_scalar_arithmetic(seed, x):
    # array complex products can round differently from scalar ones; the kernel must not
    assume(not on_axis(seed, x).any())
    values, grads, hessians = seed.value(x), seed.gradient(x), seed.hessian(x)
    for i in range(len(x)):
        value, f, h = scalar_cylindrical(seed, x[i])
        assert bits(values[i]) == bits(np.complex128(value))
        assert bits(grads[i]) == bits(f) and bits(hessians[i]) == bits(h), i


@settings(max_examples=6, deadline=None)
@given(seed=seeds(), size=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1]), data=st.data())
def test_chunk_straddling_batches_split_anywhere(seed, size, data):
    # a batch of about one chunk equals its pieces, whatever the cut, and its single rows
    x = np.random.default_rng(size).uniform(0.2, 3.0, (size, 4))
    cut = data.draw(st.integers(1, size - 1))
    rows = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=5))
    for name, fn in methods(seed, Lambda((0.3, 1j, -0.5, 0.25 + 0.5j))).items():
        batch = fn(x)
        assert bits(batch) == bits(np.concatenate([fn(x[:cut]), fn(x[cut:])])), name
        for i in rows:
            assert bits(batch[i]) == bits(fn(x[i])), (name, i)


@SETTINGS
@given(seed=seeds(), lam=weights, x=st.integers(1, 12).flatmap(points),
       h=st.sampled_from([1e-2, 1e-3, 1e-4]))
def test_batched_residuals_equal_maxwell_residual_per_point(seed, lam, x, h):
    if isinstance(seed, CylindricalSeed):
        assume(np.all(np.hypot(x[:, 1], x[:, 2]) > 2 * h))
    field = em_field(seed, lam)
    batch = maxwell_residuals(field, x, h)
    assert batch.h == h and np.array_equal(batch.point, x)
    for i in range(len(x)):
        one = maxwell_residual(field, x[i], h)
        assert np.array_equal(one.point.as_array(), x[i])
        for name, value in vars(one).items():
            if name not in ("h", "point"):
                assert bits(value) == bits(getattr(batch, name)[i]), (name, i)


def _stencil_touches_axis(x, h):
    hit = np.zeros(len(x), dtype=bool)
    for axis, sign in itertools.product(range(4), (1.0, -1.0)):
        y = x.copy()
        y[:, axis] += sign * h
        hit |= np.hypot(y[:, 1], y[:, 2]) <= RHO_MIN
    return hit


@settings(max_examples=4, deadline=None)
@given(n1=st.integers(2, 15).map(lambda k: 2 * k + 1), n2=st.integers(2, 15).map(lambda k: 2 * k + 1),
       extra=st.integers(1, 2))
def test_grid_larger_than_a_chunk_counts_points_like_a_point_by_point_count(tmp_path_factory, n1, n2, extra):
    # (x1, x2) planes through the axis, stacked along x0 until an axis point
    # lands past the first chunk; the axis sits at row `middle` of each plane
    middle = (n1 // 2) * n2 + n2 // 2
    n0 = (CHUNK - middle) // (n1 * n2) + 1 + extra
    grid = f"x0:0:1:{n0},x1:-2:2:{n1},x2:-2:2:{n2}"
    x = np.array(list(itertools.product(
        np.linspace(0, 1, n0), np.linspace(-2, 2, n1), np.linspace(-2, 2, n2), [0.1])))
    assert len(x) > CHUNK
    h = 1e-4 * 2.0 * np.pi / 1.3
    skip = _stencil_touches_axis(x, h)
    assert skip[:CHUNK].any() and skip[CHUNK:].any()

    tmp = tmp_path_factory.mktemp("grid")
    seed = tmp / "cyl.seed"
    seed.write_text("kind = Cylindrical\nE = 1.3\nk = 0.5\nm = 2\n")
    lam = f"0,{0.5 / 1.3!r},0,0,0,0,1,0"
    out = tmp / "verify.jsonl"
    assert main(["verify", "--seed", str(seed), f"--lambda={lam}", "--grid", grid,
                 "--fix", "x3=0.1", "--tol", "1e-5", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    summary = records.pop()
    assert summary["points"] == int(np.sum(~skip)) and summary["skipped_axis_rows"] == int(np.sum(skip))
    assert np.array_equal(np.array([r["x"] for r in records]), x[~skip])

    table = tmp / "sample.csv"
    assert main(["sample", "--seed", str(seed), f"--lambda={lam}", "--grid", grid,
                 "--fix", "x3=0.1", "--out", str(table)]) == 0
    rows = np.loadtxt(table, delimiter=",", skiprows=1, comments="#", ndmin=2)
    axis = np.hypot(x[:, 1], x[:, 2]) <= RHO_MIN
    assert np.array_equal(rows[:, :4], x[~axis])
    assert f"# skipped_axis_rows={int(np.sum(axis))}" in table.read_text()
