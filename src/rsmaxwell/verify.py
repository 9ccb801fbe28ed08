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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import PointLike, SpacetimePoint, as_point, central_differences
from .dual import SourceTuple
from .waves import FieldSample

__all__ = ["ConvergenceResult", "ResidualReport", "convergence_order", "maxwell_residual"]

FieldFunction = Callable[[SpacetimePoint], FieldSample]


@dataclass(frozen=True)
class ResidualReport:
    """Maxwell residuals at one point, absolute and relative to the local gradient scale."""

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


def maxwell_residual(
    field_fn: FieldFunction,
    p: PointLike,
    h: float,
    sources: SourceTuple | None = None,
) -> ResidualReport:
    """Evaluate all four Maxwell expressions by central differences of step h.

    With ``sources`` given, residuals are taken against the sourced
    right-hand sides; otherwise against zero.  The relative residual is
    normalized by the largest first-derivative magnitude on the stencil,
    which is the natural local scale k * max(|E|, |cB|) for wave fields.
    """
    pt = as_point(p)

    def sample(q: SpacetimePoint) -> np.ndarray:
        f = field_fn(q)
        return np.concatenate([np.asarray(f.e, dtype=float), np.asarray(f.cb, dtype=float)])

    d = central_differences(sample, pt, h)
    de, dcb = d[:, :3], d[:, 3:]

    div_e = de[1][0] + de[2][1] + de[3][2]
    div_cb = dcb[1][0] + dcb[2][1] + dcb[3][2]
    curl_e = np.array(
        [de[2][2] - de[3][1], de[3][0] - de[1][2], de[1][1] - de[2][0]]
    )
    curl_cb = np.array(
        [dcb[2][2] - dcb[3][1], dcb[3][0] - dcb[1][2], dcb[1][1] - dcb[2][0]]
    )

    src = sources if sources is not None else SourceTuple()
    gauss_e = div_e - src.rho_e
    gauss_b = div_cb - src.rho_m
    faraday = curl_e + dcb[0] - np.asarray(src.j_m)
    ampere = curl_cb - de[0] - np.asarray(src.j_e)

    scale = float(max(np.max(np.abs(de)), np.max(np.abs(dcb))))
    residuals = (
        abs(gauss_e),
        abs(gauss_b),
        float(np.linalg.norm(faraday)),
        float(np.linalg.norm(ampere)),
    )
    max_residual = max(residuals)
    max_relative = max_residual / scale if scale > 0 else (0.0 if max_residual == 0 else np.inf)
    return ResidualReport(
        div_e=residuals[0],
        div_cb=residuals[1],
        curl_e_plus_dt_cb=residuals[2],
        curl_cb_minus_dt_e=residuals[3],
        max_residual=max_residual,
        h=h,
        point=pt,
        gradient_scale=scale,
        max_relative=max_relative,
        faraday_vector=faraday,
        ampere_vector=ampere,
        gauss_e_value=float(gauss_e),
        gauss_b_value=float(gauss_b),
    )


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
