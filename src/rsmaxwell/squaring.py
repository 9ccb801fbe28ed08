"""Squaring construction: four formal Maxwell solutions from one scalar seed.

The d'Alembert operator factors into two first-order matrix operators,

    (-i d0 + alpha^j d_j)(i d0 + alpha^j d_j) = d0^2 - (d1^2 + d2^2 + d3^2),

so applying ``(i d0 + alpha^j d_j)`` to any scalar wave solution yields a 4x4
matrix whose columns are annihilated by the Maxwell operator.  With
``F_a = d_a Phi`` the matrix is

    | i F0   F1    F2    F3  |
    | -F1   i F0  -F3    F2  |
    | -F2    F3   i F0  -F1  |
    | -F3   -F2    F1   i F0 |

and columns 0..3 are the formal solutions.  Generic columns carry a nonzero
zeroth component and are not yet field configurations; physical fields are
recovered from weighted combinations (see :mod:`rsmaxwell.physicality`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import ALPHA, PointLike, RSVector, as_point
from .seeds import ScalarSeed

__all__ = ["Lambda", "combine", "formal_solutions"]

_I4 = np.eye(4)


@dataclass(frozen=True)
class Lambda:
    """Four complex weights for combining the formal solutions."""

    values: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        vals = tuple(complex(v) for v in np.asarray(self.values).ravel())
        if len(vals) != 4:
            raise ValueError("Lambda needs exactly 4 complex weights")
        if not all(np.isfinite([v.real, v.imag]).all() for v in vals):
            raise ValueError("Lambda weights must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_real_imag(cls, a: Sequence[float], b: Sequence[float]) -> "Lambda":
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return cls(tuple(a + 1j * b))

    @classmethod
    def from_real_vector(cls, v: Sequence[float]) -> "Lambda":
        """Build from the 8 real unknowns (a0..a3, b0..b3)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (8,):
            raise ValueError("expected 8 real components (a0..a3, b0..b3)")
        return cls.from_real_imag(v[:4], v[4:])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=complex)

    def as_real_vector(self) -> np.ndarray:
        arr = self.as_array()
        return np.concatenate([arr.real, arr.imag])

    @property
    def a(self) -> np.ndarray:
        return self.as_array().real

    @property
    def b(self) -> np.ndarray:
        return self.as_array().imag


def formal_solutions(seed: ScalarSeed, p: PointLike) -> np.ndarray:
    """4x4 complex matrix whose columns are the four formal solutions at p.

    Equals ``i F0 I + F1 alpha^1 + F2 alpha^2 + F3 alpha^3`` evaluated from
    the seed's analytic gradient; no numerical differentiation is involved.
    """
    f = seed.gradient(p)
    m = 1j * f[0] * _I4 + f[1] * ALPHA[0] + f[2] * ALPHA[1] + f[3] * ALPHA[2]
    return m


def combine(seed: ScalarSeed, lam: Lambda, p: PointLike) -> RSVector:
    """Weighted combination lambda_c Psi^c of the formal solutions at p."""
    return RSVector(formal_solutions(seed, p) @ lam.as_array())


def em_field(seed: ScalarSeed, lam: Lambda):
    """Field function p -> FieldSample reading (E, cB) off the combination.

    Only meaningful for admissible weights (vanishing zeroth component); the
    zeroth component is dropped, so feed the result to the verifier to
    certify it.
    """
    from .waves import FieldSample

    def field(p: PointLike) -> "FieldSample":
        pt = as_point(p)
        psi = combine(seed, lam, pt)
        return FieldSample(psi.e, psi.cb, pt)

    return field
