"""Run configuration: seed files, grid specs, weight selection, key=value configs.

Seed file grammar (key = value lines, ``#`` comments and blank lines ignored):

    kind = RealPlane | ComplexPlane | Cylindrical   (case-insensitive)
    A    = <float>          amplitude, default 1.0
    k0, k1, k2, k3 = <float>   plane kinds; k must be a null 4-vector
    E = <float>  k = <float>  m = <int>              cylindrical kind

Grid syntax: ``--grid x1:MIN:MAX:COUNT[,...]`` for swept axes plus
``--fix x0=VALUE[,...]`` for pinned ones; unmentioned axes sit at 0.
Weight selection: 8 comma-separated reals ``c0r,c0i,c1r,c1i,c2r,c2i,c3r,c3i``
(real and imaginary parts of the four weights in order), ``basis:N`` for the
N-th physical basis vector of the solved seed, or ``solve`` when the physical
space is one complex dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import SpacetimePoint
from .seeds import ComplexPlaneSeed, CylindricalSeed, RealPlaneSeed, ScalarSeed

__all__ = [
    "GridSpec",
    "RunConfig",
    "load_seed",
    "parse_config_file",
    "parse_fix",
    "parse_grid",
    "parse_key_values",
    "parse_seed_text",
]

_AXES = ("x0", "x1", "x2", "x3")


def parse_key_values(text: str, where: str = "config") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{where}: line {lineno} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_seed_text(text: str) -> ScalarSeed:
    kv = parse_key_values(text, where="seed spec")
    kind = kv.pop("kind", "").replace("_", "").replace("-", "").lower()
    if not kind:
        raise ValueError("seed spec: missing 'kind'")
    amp = float(kv.pop("A", "1.0"))
    if kind in ("realplane", "complexplane"):
        k = tuple(float(kv.pop(f"k{i}", "0.0")) for i in range(4))
        if kv:
            raise ValueError(f"seed spec: unknown keys {sorted(kv)}")
        cls = RealPlaneSeed if kind == "realplane" else ComplexPlaneSeed
        return cls(amp, k)
    if kind == "cylindrical":
        freq = float(kv.pop("E", "0.0"))
        kz = float(kv.pop("k", "0.0"))
        m = int(kv.pop("m", "0"))
        if kv:
            raise ValueError(f"seed spec: unknown keys {sorted(kv)}")
        return CylindricalSeed(amp, freq, kz, m)
    raise ValueError(
        f"seed spec: unknown kind {kind!r} (expected RealPlane, ComplexPlane or Cylindrical)"
    )


def load_seed(path: str | Path) -> ScalarSeed:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"seed file not found: {p}")
    return parse_seed_text(p.read_text())


@dataclass(frozen=True)
class GridSpec:
    """Swept axis ranges plus fixed values for the remaining coordinates."""

    ranges: dict[str, tuple[float, float, int]] = field(default_factory=dict)
    fixed: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis in list(self.ranges) + list(self.fixed):
            if axis not in _AXES:
                raise ValueError(f"unknown grid axis {axis!r}")
        overlap = set(self.ranges) & set(self.fixed)
        if overlap:
            raise ValueError(f"axes both swept and fixed: {sorted(overlap)}")
        for axis, (lo, hi, count) in self.ranges.items():
            if count < 0:
                raise ValueError(f"{axis}: count must be >= 0, got {count}")
            if lo > hi:
                raise ValueError(f"{axis}: min {lo} > max {hi}")

    def axis_values(self, axis: str) -> np.ndarray:
        if axis in self.ranges:
            lo, hi, count = self.ranges[axis]
            if count == 0:
                return np.array([])
            if count == 1:
                return np.array([lo])
            return np.linspace(lo, hi, count)
        return np.array([self.fixed.get(axis, 0.0)])

    def coordinates(self) -> np.ndarray:
        """(N, 4) coordinates of the grid points, row-major over (x0, x1, x2, x3)."""
        values = [self.axis_values(axis) for axis in _AXES]
        x = np.stack(np.meshgrid(*values, indexing="ij"), axis=-1).reshape(-1, 4)
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite grid point {x[bad][0].tolist()}")
        return x

    def points(self) -> list[SpacetimePoint]:
        """The grid points of :meth:`coordinates` as SpacetimePoint objects."""
        return [SpacetimePoint(*row) for row in self.coordinates().tolist()]

    @property
    def size(self) -> int:
        n = 1
        for axis in _AXES:
            n *= len(self.axis_values(axis))
        return n


def parse_grid(spec: str) -> dict[str, tuple[float, float, int]]:
    """Parse ``axis:min:max:count[,axis:min:max:count...]``."""
    out: dict[str, tuple[float, float, int]] = {}
    if not spec.strip():
        return out
    for part in spec.split(","):
        fields = part.strip().split(":")
        if len(fields) != 4:
            raise ValueError(f"grid entry must be axis:min:max:count, got {part!r}")
        axis, lo, hi, count = fields
        out[axis.strip()] = (float(lo), float(hi), int(count))
    return out


def parse_fix(spec: str) -> dict[str, float]:
    """Parse ``axis=value[,axis=value...]``."""
    out: dict[str, float] = {}
    if not spec.strip():
        return out
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"fix entry must be axis=value, got {part!r}")
        axis, value = part.split("=", 1)
        out[axis.strip()] = float(value)
    return out


@dataclass
class RunConfig:
    """Resolved options for one CLI invocation."""

    seed_path: str | None = None
    lam: str | None = None
    grid: GridSpec = field(default_factory=GridSpec)
    h: float | None = None
    tol: float = 1e-6
    tol_rank: float = 1e-9
    n_points: int = 32
    fmt: str = "csv"
    out: str | None = None
    c_display: float = 1.0
    corrupt: bool = False

    def require_seed(self) -> ScalarSeed:
        if not self.seed_path:
            raise ValueError("a seed file is required (--seed)")
        return load_seed(self.seed_path)


def parse_config_file(path: str | Path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    return parse_key_values(p.read_text(), where=str(p))
