"""Real 4x4 generator matrices and the first-order matrix form of Maxwell's equations.

The vacuum Maxwell equations for the Riemann-Silberstein column
``Psi = (0, E1 + i*cB1, E2 + i*cB2, E3 + i*cB3)`` take the first-order form

    (-i d_0 + alpha^1 d_1 + alpha^2 d_2 + alpha^3 d_3) Psi = 0,

where the ``alpha^j`` are three real 4x4 matrices with integer entries
satisfying ``(alpha^j)^2 = -I`` and the cyclic products
``alpha^1 alpha^2 = -alpha^2 alpha^1 = alpha^3`` (and permutations).

Units: the speed of light is 1 throughout, so fields are carried as the
pair ``(E, cB)`` and the time coordinate is ``x0 = c*t``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "ALPHA",
    "AxisError",
    "NonFiniteFieldError",
    "RSVector",
    "SpacetimePoint",
    "alpha",
    "as_point_array",
    "central_differences",
    "maxwell_operator_apply",
]


class NonFiniteFieldError(ArithmeticError):
    """A field sample came back NaN/inf at some stencil point."""


class AxisError(ValueError):
    """Evaluation requested inside the excluded cylindrical-axis region.

    ``rows`` is a boolean mask over the inputs of the call that raised it,
    True where an input is on the axis, or None when that is not known.  A
    caller can drop the marked inputs and evaluate the rest.
    """

    def __init__(self, message: str, rows: np.ndarray | None = None) -> None:
        super().__init__(message)
        self.rows = rows


def _alpha_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a1 = np.array(
        [
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, 0],
        ],
        dtype=np.int64,
    )
    a2 = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=np.int64,
    )
    a3 = np.array(
        [
            [0, 0, 0, 1],
            [0, 0, -1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ],
        dtype=np.int64,
    )
    for m in (a1, a2, a3):
        m.setflags(write=False)
    return a1, a2, a3


#: The three generators, indexed 0..2 for axes 1..3.
ALPHA = _alpha_matrices()


def alpha(j: int) -> np.ndarray:
    """Return the generator matrix for spatial axis ``j`` (1, 2 or 3).

    The returned array has exact integer entries and is read-only.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"alpha index must be 1, 2 or 3, got {j!r}")
    return ALPHA[j - 1]


@dataclass(frozen=True)
class SpacetimePoint:
    """A point (x0, x1, x2, x3) with x0 = c*t; all coordinates finite."""

    x0: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        for name in ("x0", "x1", "x2", "x3"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate {name}={v!r}")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3], dtype=float)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # lets numpy stack a sequence of points into an (N, 4) array
        return self.as_array().astype(dtype or float, copy=False)


PointLike = Union[SpacetimePoint, Sequence[float], np.ndarray]


def as_point_array(p: PointLike) -> np.ndarray:
    """Coerce a SpacetimePoint or length-4 sequence to a float array."""
    if isinstance(p, SpacetimePoint):
        return p.as_array()
    arr = np.asarray(p, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"expected 4 spacetime coordinates, got shape {arr.shape}")
    return arr


def as_point(p: PointLike) -> SpacetimePoint:
    if isinstance(p, SpacetimePoint):
        return p
    return SpacetimePoint(*as_point_array(p))


def _along_points(fn: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """Let ``fn(*args, x)``, written for (N, 4) coordinates x, also take a single point.

    ``fn`` returns arrays along the leading axis; for one point the wrapper
    passes x as a (1, 4) array and returns row 0, so the scalar call is the
    N = 1 case of the same body.  Overflow and invalid operations inside
    ``fn`` raise no warning: they show as inf or nan, which the consumers of
    seed values check and report.
    """

    @functools.wraps(fn)
    def wrapper(*args):
        *head, p = args
        x = np.asarray(p, dtype=float)
        single = x.shape == (4,)
        if single:
            x = x[None]
        elif x.ndim != 2 or x.shape[1] != 4:
            raise ValueError(f"expected 4 spacetime coordinates or an (N, 4) array, got shape {x.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(*head, x)
        return out[0] if single else out

    return wrapper


def _pointwise(
    fn: Callable[[SpacetimePoint], object], values: Callable[[object], np.ndarray]
) -> Callable[[np.ndarray], np.ndarray]:
    """Array function (M, 4) -> (M, k) from a per-point function.

    Row i is ``values(fn(SpacetimePoint(*x[i])))``: this is how a function of
    one point, such as one returning an RSVector, feeds the array stencil.
    An AxisError from ``fn`` leaves without a row mask, since only the first
    offending row is known.
    """

    def sample(x: np.ndarray) -> np.ndarray:
        try:
            return np.array([values(fn(SpacetimePoint(*row))) for row in x])
        except AxisError as err:
            raise AxisError(str(err)) from err

    return sample


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two real (N, k) arrays.

    Entry i is rounded exactly as the 1-D ``a[i] @ b[i]``: both go through
    numpy's dot kernel, where a sum of elementwise products can round
    differently.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class RSVector:
    """Riemann-Silberstein 4-column: (psi0, E + i*cB).

    A physical field has vanishing zeroth component; then the spatial
    components carry E in their real parts and cB in their imaginary parts.
    """

    components: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.components, dtype=complex)
        if arr.shape != (4,):
            raise ValueError(f"RSVector needs 4 components, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    @property
    def e(self) -> np.ndarray:
        """Electric part (real spatial components)."""
        return self.components[1:].real

    @property
    def cb(self) -> np.ndarray:
        """Magnetic part times c (imaginary spatial components)."""
        return self.components[1:].imag

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))

    def is_physical(self, tol_zero: float = 1e-10) -> bool:
        """True when |psi0| is below ``tol_zero`` relative to the largest component."""
        scale = float(np.max(np.abs(self.components)))
        if scale == 0.0:
            return True
        return abs(self.components[0]) < tol_zero * scale


RSFieldFunction = Callable[[SpacetimePoint], RSVector]


def central_differences(
    sample: Callable[[np.ndarray], np.ndarray], points: np.ndarray, h: float
) -> np.ndarray:
    """Central differences of step h of a vector-valued sample at N points, as a (4, N, k) array.

    ``sample`` maps (M, 4) coordinates to (M, k) values; it is called once,
    on all 8N shifted points.  Entry ``[a, i]`` is
    ``(sample(x_i + h e_a) - sample(x_i - h e_a)) / 2h``, second-order
    accurate.  Raises :class:`NonFiniteFieldError` naming the first
    non-finite stencil point of the first centre that has one.  An
    :class:`AxisError` carrying a row mask is raised again with the mask
    moved onto the centres whose stencil touches the axis.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    x = np.asarray(points, dtype=float)
    n = len(x)
    # stencil row 2a is x + h e_a, row 2a + 1 is x - h e_a
    shifted = np.repeat(x[None], 8, axis=0)
    for axis in range(4):
        shifted[2 * axis, :, axis] += h
        shifted[2 * axis + 1, :, axis] -= h
    shifted = shifted.reshape(8 * n, 4)
    try:
        values = np.asarray(sample(shifted))
    except AxisError as err:
        if err.rows is None:
            raise
        raise AxisError(str(err), rows=err.rows.reshape(8, n).any(axis=0)) from err
    values = values.reshape(8, n, values.shape[-1])
    bad = ~np.isfinite(values).all(axis=2)
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        row = int(np.argmax(bad[:, i])) * n + i
        raise NonFiniteFieldError(
            f"non-finite field sample at stencil point {SpacetimePoint(*shifted[row])}"
        )
    return (values[0::2] - values[1::2]) / (2.0 * h)


def maxwell_operator_apply(
    field_fn: RSFieldFunction, p: PointLike, h: float
) -> RSVector:
    """Apply the first-order Maxwell operator (-i d_0 + alpha^j d_j) by central differences.

    For an exact solution the result is zero up to the O(h^2) truncation of
    the second-order stencil.  Raises :class:`NonFiniteFieldError` if any of
    the eight stencil samples is not finite.
    """

    def components(value) -> np.ndarray:
        arr = value.components if isinstance(value, RSVector) else np.asarray(value, dtype=complex)
        if arr.shape != (4,):
            raise ValueError(f"field function must return 4 components, got shape {arr.shape}")
        return arr

    d = central_differences(_pointwise(field_fn, components), as_point_array(p)[None], h)[:, 0]
    out = -1j * d[0]
    for j in range(3):
        out = out + ALPHA[j] @ d[j + 1]
    return RSVector(out)
