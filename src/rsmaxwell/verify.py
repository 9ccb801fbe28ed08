"""Independent finite-difference certification of (E, cB) fields.

This is the artifact's ground truth: any field function can be checked
against the component Maxwell equations

    div E = rho_e         curl E + d0 cB = j_m
    div cB = rho_m        curl cB - d0 E = j_e

(vacuum: zero right-hand sides; eps0 = 1) using second-order central
differences that know nothing about how the field was constructed.  Exact
solutions show O(h^2) residuals; the convergence slope over a geometric
ladder of steps separates true solutions (slope ~ 2) from broken fields
(slope ~ 0) and from the floating-point floor.

The array verifier :func:`maxwell_residuals` takes a field function that
maps (N, 4) coordinates ``(x0, x1, x2, x3)`` to (N, 6) values
``(E1, E2, E3, cB1, cB2, cB3)`` and nothing else: no seed, no weights, no
derivatives.  It evaluates the whole 8N-point stencil in one call.  Because
values are all it sees, a field built by squaring a seed is checked exactly
like a closed-form wave or a table read from disk, so a mistake in the
construction cannot also hide in the check.  :func:`maxwell_residual` and
:func:`convergence_order` take a function of one point returning a
:class:`~rsmaxwell.waves.FieldSample` and run the same code with N = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import PointLike, SpacetimePoint, as_point, central_differences, _pointwise, _row_dot
from .dual import SourceTuple
from .waves import FieldSample

__all__ = [
    "ConvergenceResult",
    "ResidualReport",
    "convergence_order",
    "maxwell_residual",
    "maxwell_residuals",
]

FieldFunction = Callable[[SpacetimePoint], FieldSample]
ArrayFieldFunction = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ResidualReport:
    """Maxwell residuals, absolute and relative to the local gradient scale.

    From :func:`maxwell_residual` every field describes one point.  From
    :func:`maxwell_residuals` every field except ``h`` holds one entry per
    point along its leading axis, and ``point`` holds the (N, 4) coordinates.
    """

    div_e: float
    div_cb: float
    curl_e_plus_dt_cb: float
    curl_cb_minus_dt_e: float
    max_residual: float
    h: float
    point: SpacetimePoint
    gradient_scale: float
    max_relative: float
    faraday_vector: np.ndarray
    ampere_vector: np.ndarray
    gauss_e_value: float
    gauss_b_value: float


def _div_curl(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divergence (N,) and curl (N, 3) from g[j, n, k] = d_j F_k at N points."""
    div = g[0, :, 0] + g[1, :, 1] + g[2, :, 2]
    curl = np.stack(
        [g[1, :, 2] - g[2, :, 1], g[2, :, 0] - g[0, :, 2], g[0, :, 1] - g[1, :, 0]], axis=1
    )
    return div, curl


def maxwell_residuals(
    field_fn: ArrayFieldFunction,
    points: np.ndarray,
    h: float,
    sources: SourceTuple | None = None,
) -> ResidualReport:
    """Evaluate all four Maxwell expressions at N points by central differences of step h.

    ``field_fn`` maps (M, 4) coordinates to (M, 6) values (E, cB) and is
    called once, on the 8N stencil points.  With ``sources`` given,
    residuals are taken against the sourced right-hand sides; otherwise
    against zero.  The relative residual is normalized by the largest
    first-derivative magnitude on each point's stencil, which is the natural
    local scale k * max(|E|, |cB|) for wave fields.  Raises
    :class:`~rsmaxwell.algebra.NonFiniteFieldError` on a non-finite value.
    """
    x = np.asarray(points, dtype=float)
    d = central_differences(field_fn, x, h)
    de, dcb = d[:, :, :3], d[:, :, 3:]
    div_e, curl_e = _div_curl(de[1:])
    div_cb, curl_cb = _div_curl(dcb[1:])

    src = sources if sources is not None else SourceTuple()
    gauss_e = div_e - src.rho_e
    gauss_b = div_cb - src.rho_m
    faraday = curl_e + dcb[0] - np.asarray(src.j_m)
    ampere = curl_cb - de[0] - np.asarray(src.j_e)

    scale = np.max(np.abs(d), axis=(0, 2))
    residuals = np.stack(
        [
            np.abs(gauss_e),
            np.abs(gauss_b),
            np.sqrt(_row_dot(faraday, faraday)),
            np.sqrt(_row_dot(ampere, ampere)),
        ]
    )
    max_residual = np.max(residuals, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        max_relative = np.where(
            scale > 0, max_residual / scale, np.where(max_residual == 0, 0.0, np.inf)
        )
    return ResidualReport(
        div_e=residuals[0],
        div_cb=residuals[1],
        curl_e_plus_dt_cb=residuals[2],
        curl_cb_minus_dt_e=residuals[3],
        max_residual=max_residual,
        h=h,
        point=x,
        gradient_scale=scale,
        max_relative=max_relative,
        faraday_vector=faraday,
        ampere_vector=ampere,
        gauss_e_value=gauss_e,
        gauss_b_value=gauss_b,
    )


def _field_values(f: FieldSample) -> np.ndarray:
    return np.concatenate([np.asarray(f.e, dtype=float), np.asarray(f.cb, dtype=float)])


def maxwell_residual(
    field_fn: FieldFunction,
    p: PointLike,
    h: float,
    sources: SourceTuple | None = None,
) -> ResidualReport:
    """Maxwell residuals at one point: :func:`maxwell_residuals` with N = 1.

    ``field_fn`` takes a SpacetimePoint and returns a FieldSample; it is
    called on each of the eight stencil points.
    """
    pt = as_point(p)
    batch = maxwell_residuals(_pointwise(field_fn, _field_values), pt.as_array()[None], h, sources)
    row = {
        name: float(value[0]) if value.ndim == 1 else value[0]
        for name, value in vars(batch).items()
        if name not in ("h", "point")
    }
    return ResidualReport(h=h, point=pt, **row)


@dataclass(frozen=True)
class ConvergenceResult:
    """Least-squares slope of log(residual) vs log(h), or a floor flag."""

    slope: float | None
    floor_limited: bool
    steps: tuple[float, ...]
    residuals: tuple[float, ...]


def convergence_order(
    field_fn: FieldFunction,
    p: PointLike,
    steps: Sequence[float],
    sources: SourceTuple | None = None,
    floor: float = 1e-12,
) -> ConvergenceResult:
    """Fit the convergence order of the Maxwell residual over a step ladder.

    ``steps`` must be at least three values in geometric progression.  When
    any step lands at the floating-point floor (relative residual below
    ``floor``, or a zero-gradient field), the slope is meaningless and the
    result is flagged floor-limited instead.
    """
    steps = [float(s) for s in steps]
    if len(steps) < 3:
        raise ValueError("need at least 3 steps")
    ratios = [steps[i + 1] / steps[i] for i in range(len(steps) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 * abs(ratios[0]) for r in ratios):
        raise ValueError(f"steps must be in geometric progression, got {steps}")
    reports = [maxwell_residual(field_fn, p, h, sources=sources) for h in steps]
    residuals = tuple(r.max_residual for r in reports)
    at_floor = any(
        r.gradient_scale == 0.0 or r.max_residual == 0.0 or r.max_relative < floor
        for r in reports
    )
    if at_floor:
        return ConvergenceResult(None, True, tuple(steps), residuals)
    slope = float(np.polyfit(np.log(steps), np.log(residuals), 1)[0])
    return ConvergenceResult(slope, False, tuple(steps), residuals)
