"""Scalar wave seeds: massless Klein-Fock-Gordon solutions with analytic derivatives.

Three families are provided, each solving ``(-d0^2 + d1^2 + d2^2 + d3^2) Phi = 0``:

* ``RealPlaneSeed``      Phi = A sin(k0 x0 - k.x), null 4-vector k
* ``ComplexPlaneSeed``   Phi = A exp(i (k0 x0 - k.x)), null 4-vector k
* ``CylindricalSeed``    Phi = A exp(i(freq x0 + kz z + m phi)) J_m(q rho),
                         q = sqrt(freq^2 - kz^2)

Each seed exposes its value, analytic 4-gradient F_a = d_a Phi and analytic
Hessian d_a d_c Phi; downstream construction never differentiates numerically.
Each takes one point or an (N, 4) array of points and returns a scalar, (4,)
and (4, 4) or the (N,), (N, 4) and (N, 4, 4) arrays; one point is the N = 1
case of the same code.
The cylindrical radial profile is the regular Bessel function J_m, the only
bounded choice compatible with the wave equation; its derivatives are taken
through the recurrence ladder J_{m+-1}, never by finite differences.

The azimuthal basis is singular on the axis rho = 0 for m != 0, so cylindrical
evaluation is restricted to rho > RHO_MIN; an AxisError marks the offending
points in its ``rows`` mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

from .algebra import AxisError, PointLike, _along_points, as_point_array

__all__ = [
    "RHO_MIN",
    "ComplexPlaneSeed",
    "CylindricalSeed",
    "RealPlaneSeed",
    "ScalarSeed",
    "char_wavenumber",
    "kfg_residual",
]

#: Axis exclusion radius for cylindrical seeds.
RHO_MIN = 1e-9

_NULL_TOL = 1e-12


def _check_null(k: np.ndarray) -> None:
    k0sq = k[0] ** 2
    ksq = float(k[1] ** 2 + k[2] ** 2 + k[3] ** 2)
    scale = max(k0sq, ksq, 1e-300)
    if abs(k0sq - ksq) > _NULL_TOL * scale:
        raise ValueError(
            f"wave 4-vector must be null: k0^2 - |k|^2 = {k0sq - ksq:.3e} "
            f"(relative {abs(k0sq - ksq) / scale:.3e} > {_NULL_TOL})"
        )


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex product a * b from real products, one rounding per real operation.

    numpy's array loop for complex multiplication may fuse a multiply with
    the following add, so its last bit can depend on the code path; written
    out like this the product matches a scalar complex product bit for bit,
    whatever the batch size.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True)
class _PlaneSeed:
    """Amplitude and null 4-vector k shared by the two plane seeds."""

    amplitude: float
    k: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        k = np.asarray(self.k, dtype=float)
        if k.shape != (4,):
            raise ValueError("k must have 4 components")
        _check_null(k)
        object.__setattr__(self, "k", tuple(float(v) for v in k))

    @property
    def k_lowered(self) -> np.ndarray:
        """Spatially lowered wave vector (k0, -k1, -k2, -k3)."""
        k = self.k
        return np.array([k[0], -k[1], -k[2], -k[3]], dtype=float)

    @_along_points
    def phase(self, x: np.ndarray) -> np.ndarray:
        k = self.k
        return k[0] * x[:, 0] - k[1] * x[:, 1] - k[2] * x[:, 2] - k[3] * x[:, 3]


@dataclass(frozen=True)
class RealPlaneSeed(_PlaneSeed):
    """Phi = A sin(k0 x0 - k1 x1 - k2 x2 - k3 x3) with a null 4-vector k."""

    @_along_points
    def value(self, x: np.ndarray) -> np.ndarray:
        return (self.amplitude * np.sin(self.phase(x))).astype(complex)

    @_along_points
    def gradient(self, x: np.ndarray) -> np.ndarray:
        # F0 = k0 A cos(phase), Fj = -kj A cos(phase)
        c = self.amplitude * np.cos(self.phase(x))
        return (c[:, None] * self.k_lowered).astype(complex)

    @_along_points
    def hessian(self, x: np.ndarray) -> np.ndarray:
        kl = self.k_lowered
        s = -self.amplitude * np.sin(self.phase(x))
        return (s[:, None, None] * np.outer(kl, kl)).astype(complex)


@dataclass(frozen=True)
class ComplexPlaneSeed(_PlaneSeed):
    """Phi = A exp(i (k0 x0 - k.x)) with a null 4-vector k."""

    @_along_points
    def value(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(1j * self.phase(x))

    @_along_points
    def gradient(self, x: np.ndarray) -> np.ndarray:
        # F_a = i * k_lowered_a * Phi
        return 1j * self.k_lowered * self.value(x)[:, None]

    @_along_points
    def hessian(self, x: np.ndarray) -> np.ndarray:
        kl = self.k_lowered
        return -np.outer(kl, kl) * self.value(x)[:, None, None]


@dataclass(frozen=True)
class CylindricalSeed:
    """Phi = A exp(i(freq x0 + kz x3 + m phi)) J_m(q rho), q^2 = freq^2 - kz^2."""

    amplitude: float
    freq: float
    kz: float
    m: int

    def __post_init__(self) -> None:
        if self.freq ** 2 < self.kz ** 2:
            raise ValueError(
                f"needs freq^2 >= kz^2 for a real transverse wavenumber, "
                f"got freq={self.freq}, kz={self.kz}"
            )
        if self.m != int(self.m):
            raise ValueError(f"azimuthal index must be an integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))

    @property
    def q(self) -> float:
        """Transverse wavenumber."""
        return float(np.sqrt(max(self.freq ** 2 - self.kz ** 2, 0.0)))

    def _polar(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """rho and the azimuth phi of each row; AxisError marks the rows on the axis."""
        rho = np.hypot(x[:, 1], x[:, 2])
        on_axis = rho <= RHO_MIN
        if on_axis.any():
            raise AxisError(
                f"cylindrical seed evaluated at rho={rho[on_axis][0]:.3e}; "
                f"the axis region rho <= {RHO_MIN} is excluded",
                rows=on_axis,
            )
        return rho, np.arctan2(x[:, 2], x[:, 1])

    def _ladder(self, rho: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """W_n = J_n(q rho) exp(i n phi) for n = m-2 .. m+2, as rows 0..4 of a (5, N) array."""
        orders = np.arange(self.m - 2, self.m + 3)[:, None]
        return special.jv(orders, self.q * rho) * np.exp(1j * orders * phi)

    @_along_points
    def value(self, x: np.ndarray) -> np.ndarray:
        rho, phi = self._polar(x)
        t = np.exp(1j * (self.freq * x[:, 0] + self.kz * x[:, 3]))
        return _cmul(self.amplitude * t * special.jv(self.m, self.q * rho), np.exp(1j * self.m * phi))

    def _jet(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Axial-temporal factor A exp(i(freq x0 + kz x3)) and the ladder of each row."""
        rho, phi = self._polar(x)
        t = self.amplitude * np.exp(1j * (self.freq * x[:, 0] + self.kz * x[:, 3]))
        return t, self._ladder(rho, phi)

    def _gradient(self, t: np.ndarray, w: np.ndarray) -> np.ndarray:
        q = self.q
        down, up = w[1], w[3]  # W_{m-1}, W_{m+1}
        phi_val = _cmul(t, w[2])
        f = np.empty((len(t), 4), dtype=complex)
        f[:, 0] = 1j * self.freq * phi_val
        f[:, 1] = _cmul(t * q, down - up) / 2.0
        f[:, 2] = _cmul(t * 1j * q, up + down) / 2.0
        f[:, 3] = 1j * self.kz * phi_val
        return f

    @_along_points
    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._gradient(*self._jet(x))

    @_along_points
    def hessian(self, x: np.ndarray) -> np.ndarray:
        t, w = self._jet(x)
        q = self.q
        f = self._gradient(t, w)
        h = np.empty((len(t), 4, 4), dtype=complex)
        h[:, 0, :] = 1j * self.freq * f
        h[:, 3, :] = 1j * self.kz * f
        h[:, :, 0] = h[:, 0, :]
        h[:, :, 3] = h[:, 3, :]
        # transverse block from the ladder: d1 W_m = q (W_{m-1} - W_{m+1}) / 2, etc.
        h[:, 1, 1] = _cmul(t * q * q, w[0] - 2 * w[2] + w[4]) / 4.0
        h[:, 1, 2] = _cmul(t * 1j * q * q, w[0] - w[4]) / 4.0
        h[:, 2, 1] = h[:, 1, 2]
        h[:, 2, 2] = _cmul(-t * q * q, w[4] + 2 * w[2] + w[0]) / 4.0
        return h


ScalarSeed = Union[RealPlaneSeed, ComplexPlaneSeed, CylindricalSeed]


def char_wavenumber(seed: ScalarSeed) -> float:
    """Dominant wavenumber of a seed; 1 for degenerate (constant) seeds."""
    if isinstance(seed, _PlaneSeed):
        scale = abs(seed.k[0])
    else:
        scale = max(abs(seed.freq), abs(seed.kz))
    return scale if scale > 0 else 1.0


def kfg_residual(seed: ScalarSeed, p: PointLike, h: float) -> float:
    """|(-d0^2 + d1^2 + d2^2 + d3^2) Phi| by central differences of step h.

    O(h^2)-small for a valid seed; O(1) for a scalar that does not solve the
    wave equation.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    x = as_point_array(p)
    center = seed.value(x)
    total = 0.0 + 0.0j
    signs = (-1.0, 1.0, 1.0, 1.0)
    for axis in range(4):
        e = np.zeros(4)
        e[axis] = h
        second = (seed.value(x + e) - 2.0 * center + seed.value(x - e)) / (h * h)
        total += signs[axis] * second
    return abs(total)
