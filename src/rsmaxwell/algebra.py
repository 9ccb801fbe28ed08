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
    """Evaluation requested inside the excluded cylindrical-axis region."""


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
            if not np.isfinite(v):
                raise ValueError(f"non-finite coordinate {name}={v!r}")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3], dtype=float)

    def shifted(self, axis: int, delta: float) -> "SpacetimePoint":
        c = [self.x0, self.x1, self.x2, self.x3]
        c[axis] += delta
        return SpacetimePoint(*c)


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


def _finite_sample(sample: Callable[[SpacetimePoint], np.ndarray], q: SpacetimePoint) -> np.ndarray:
    value = sample(q)
    if not np.all(np.isfinite(value)):
        raise NonFiniteFieldError(f"non-finite field sample at stencil point {q}")
    return value


def central_differences(
    sample: Callable[[SpacetimePoint], np.ndarray], p: PointLike, h: float
) -> np.ndarray:
    """Central differences of step h of a vector-valued sample at p, as a (4, k) array.

    Row ``a`` is ``(sample(p + h e_a) - sample(p - h e_a)) / 2h``, second-order
    accurate.  Raises :class:`NonFiniteFieldError`, naming the stencil point,
    if any of the eight samples is not finite.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    pt = as_point(p)
    rows = []
    for axis in range(4):
        plus = _finite_sample(sample, pt.shifted(axis, +h))
        minus = _finite_sample(sample, pt.shifted(axis, -h))
        rows.append((plus - minus) / (2.0 * h))
    return np.array(rows)


def maxwell_operator_apply(
    field_fn: RSFieldFunction, p: PointLike, h: float
) -> RSVector:
    """Apply the first-order Maxwell operator (-i d_0 + alpha^j d_j) by central differences.

    For an exact solution the result is zero up to the O(h^2) truncation of
    the second-order stencil.  Raises :class:`NonFiniteFieldError` if any of
    the eight stencil samples is not finite.
    """

    def sample(q: SpacetimePoint) -> np.ndarray:
        value = field_fn(q)
        arr = value.components if isinstance(value, RSVector) else np.asarray(value, dtype=complex)
        if arr.shape != (4,):
            raise ValueError(f"field function must return 4 components, got shape {arr.shape}")
        return arr

    d = central_differences(sample, p, h)
    out = -1j * d[0]
    for j in range(3):
        out = out + ALPHA[j] @ d[j + 1]
    return RSVector(out)
