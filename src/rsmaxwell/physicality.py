"""Separation of physical fields inside the span of the four formal solutions.

A combination ``sum_c lambda_c Psi^c`` with ``lambda_c = a_c + i b_c`` is an
honest (E, cB) Maxwell field only if the eight real weights satisfy a set of
linear PDE constraints on the seed gradient ``F_c = d_c Phi``:

* real-valued seeds:

      [b0 d0 - (a1 d1 + a2 d2 + a3 d3)] F_c = 0
      [a0 d0 + (b1 d1 + b2 d2 + b3 d3)] F_c = 0        (c = 0..3)

* complex-valued seeds (plane or cylindrical):

      [-lambda_0 d0 + i lambda_j d_j] F_c = 0          (c = 0..3)

The constraints are enforced at a batch of quasi-random sample points (the
unscrambled Halton sequence in bases 2, 3, 5, 7, first point skipped; J. H.
Halton, Numer. Math. 2, 84-90, 1960), which turns them into a real linear
system over (a0..a3, b0..b3); its SVD null space is the admissible weight
space.  Null directions whose combination is
identically zero (the kernel) are split from the genuinely physical ones by
evaluating the combined field at the sample points.

For plane seeds the closed-form constraint pair

    b0 = -(a . n),   a0 = +(b . n),      n = k / k0

is available as an independent cross-check route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import PointLike, SpacetimePoint, as_point
from .seeds import (
    ComplexPlaneSeed,
    CylindricalSeed,
    RealPlaneSeed,
    ScalarSeed,
    char_wavenumber,
)
from .squaring import Lambda, formal_solutions

__all__ = [
    "ConstraintSystem",
    "PhysicalBasis",
    "assemble_constraints",
    "assemble_complex_seed_constraints",
    "assemble_real_seed_constraints",
    "check_linear_dependence_3x3",
    "default_sample_points",
    "plane_wave_constraints",
    "solve_null_space",
]

#: Default relative rank tolerance for the null-space SVD.
TOL_RANK = 1e-9
#: Field-norm threshold (times the seed gradient scale) below which a null
#: direction counts as a kernel direction.
TOL_KERNEL = 1e-10

# Priority order of the real unknowns for deterministic basis output:
# a1, b1, a2, b2, a3, b3, a0, b0 in the (a0..a3, b0..b3) storage layout.
_AXIS_PRIORITY = (1, 5, 2, 6, 3, 7, 0, 4)


@dataclass(frozen=True)
class ConstraintSystem:
    """Sampled linear constraints over the 8 real weights (a0..a3, b0..b3)."""

    rows: np.ndarray
    tags: tuple[str, ...]
    seed: ScalarSeed
    points: tuple[SpacetimePoint, ...]

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 8:
            raise ValueError(f"rows must be (m, 8), got {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("constraint rows must be finite")
        rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(self, "points", tuple(as_point(p) for p in self.points))


@dataclass(frozen=True)
class PhysicalBasis:
    """Admissible weight directions split into physical ones and the kernel.

    The admissible null space is presented in a canonical basis (reduced
    echelon form over the priority axes a1, b1, a2, b2, a3, b3, a0, b0, each
    vector unit-normalized).  Directions whose combination evaluates to the
    identically-zero field are listed in ``kernel``; the rest are ``basis``
    and ``dim_physical`` counts them (real dimensions; the admissible space
    is closed under multiplication by i, so complex counts are half).

    Physical directions can still overlap as field configurations: for plane
    seeds the formal-solution matrix has complex rank 2, so complex multiples
    of one polarization reproduce the other.  ``field_space_dim`` reports the
    real dimension of the span of the sampled fields themselves, which is
    therefore allowed to be smaller than ``dim_physical``.
    """

    basis: tuple[Lambda, ...]
    kernel: tuple[Lambda, ...]
    dim_physical: int
    singular_values: np.ndarray
    field_space_dim: int = 0
    warning: str | None = None

    @property
    def nullity(self) -> int:
        return len(self.basis) + len(self.kernel)

    @property
    def dim_physical_complex(self) -> int:
        return self.dim_physical // 2


def default_sample_points(
    seed: ScalarSeed, n: int = 32, extra: tuple[PointLike, ...] = ()
) -> tuple[SpacetimePoint, ...]:
    """Deterministic quasi-random sample points sized to the seed's wavelength.

    The points are the unscrambled Halton sequence in bases 2, 3, 5, 7
    (J. H. Halton, Numer. Math. 2, 84-90, 1960) with its first point, the
    origin, skipped, mapped affinely onto a box a few wavelengths wide.
    Cylindrical seeds get transverse coordinates bounded away from the axis.
    User-supplied ``extra`` points are appended verbatim.
    """
    u = np.empty((n, 4))
    for col, base in enumerate((2, 3, 5, 7)):
        for row in range(n):
            # radical inverse of the index row + 1 in this base
            i, f, r = row + 1, 1.0, 0.0
            while i:
                f /= base
                i, d = divmod(i, base)
                r += f * d
            u[row, col] = r
    scale = 1.0 / char_wavenumber(seed)
    if isinstance(seed, CylindricalSeed):
        low = np.array([-1.25, 0.35, 0.35, -1.25]) * scale
        high = np.array([2.15, 2.45, 2.45, 2.15]) * scale
    else:
        low = np.full(4, -1.25) * scale
        high = np.full(4, 2.15) * scale
    pts = low + u * (high - low)
    out = [SpacetimePoint(*row) for row in pts]
    out.extend(as_point(p) for p in extra)
    return tuple(out)


def assemble_real_seed_constraints(
    seed: ScalarSeed, points: tuple[PointLike, ...] | list[PointLike]
) -> ConstraintSystem:
    """Constraint rows for a real-valued seed, from its analytic Hessian.

    Two operator families per gradient component: 8 rows per sample point.
    """
    if not isinstance(seed, RealPlaneSeed):
        raise ValueError("real-seed constraints need a real-valued seed (RealPlaneSeed)")
    if len(points) == 0:
        raise ValueError("need at least one sample point")
    rows = []
    tags = []
    for i, p in enumerate(points):
        h = seed.hessian(p)
        hr = h.real  # real seed: Hessian is real
        for c in range(4):
            # [b0 d0 - a_j d_j] F_c = 0
            row = np.zeros(8)
            row[4] = hr[0, c]
            row[1:4] = -hr[1:4, c]
            rows.append(row)
            tags.append(f"point={i};c={c};family=magnetic")
            # [a0 d0 + b_j d_j] F_c = 0
            row = np.zeros(8)
            row[0] = hr[0, c]
            row[5:8] = hr[1:4, c]
            rows.append(row)
            tags.append(f"point={i};c={c};family=electric")
    return ConstraintSystem(np.array(rows), tuple(tags), seed, tuple(points))


def assemble_complex_seed_constraints(
    seed: ScalarSeed, points: tuple[PointLike, ...] | list[PointLike]
) -> ConstraintSystem:
    """Constraint rows for a complex-valued seed, from its analytic Hessian.

    Real and imaginary parts of ``[-lambda_0 d0 + i lambda_j d_j] F_c = 0``
    give 8 real rows per sample point.
    """
    if not isinstance(seed, (ComplexPlaneSeed, CylindricalSeed)):
        raise ValueError(
            "complex-seed constraints need a ComplexPlaneSeed or CylindricalSeed"
        )
    if len(points) == 0:
        raise ValueError("need at least one sample point")
    rows = []
    tags = []
    for i, p in enumerate(points):
        h = seed.hessian(p)
        for c in range(4):
            coef = np.empty(4, dtype=complex)
            coef[0] = -h[0, c]
            coef[1:] = 1j * h[1:4, c]
            re_row = np.concatenate([coef.real, -coef.imag])
            im_row = np.concatenate([coef.imag, coef.real])
            rows.append(re_row)
            tags.append(f"point={i};c={c};part=re")
            rows.append(im_row)
            tags.append(f"point={i};c={c};part=im")
    return ConstraintSystem(np.array(rows), tuple(tags), seed, tuple(points))


def assemble_constraints(
    seed: ScalarSeed, points: tuple[PointLike, ...] | list[PointLike]
) -> ConstraintSystem:
    """Dispatch to the real- or complex-seed assembler by seed kind."""
    if isinstance(seed, RealPlaneSeed):
        return assemble_real_seed_constraints(seed, points)
    return assemble_complex_seed_constraints(seed, points)


def plane_wave_constraints(n: np.ndarray | list[float]) -> np.ndarray:
    """The closed-form plane-seed constraint rows b0 + a.n = 0, a0 - b.n = 0.

    Independent algebraic route used to cross-check the sampled assembly;
    returns a (2, 8) matrix over (a0..a3, b0..b3).
    """
    n = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise ValueError("propagation direction must be a unit vector")
    return np.array(
        [
            [0.0, n[0], n[1], n[2], 1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, -n[0], -n[1], -n[2]],
        ]
    )


def _canonical_basis(null_vecs: np.ndarray) -> np.ndarray:
    """Unique reduced-echelon basis of span(null_vecs) over the priority axes.

    Gauss-Jordan elimination with the columns visited in priority order
    produces a basis that does not depend on how the SVD happened to rotate
    the null space: each vector is led by a distinct axis, leading entry
    positive, unit 2-norm.  This is what makes solver output reproducible.
    """
    m = null_vecs[:, list(_AXIS_PRIORITY)].copy()
    nu = m.shape[0]
    tol = 1e-10 * max(np.max(np.abs(m)), 1e-300)
    r = 0
    for c in range(8):
        if r == nu:
            break
        pivot = r + int(np.argmax(np.abs(m[r:, c])))
        if abs(m[pivot, c]) <= tol:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        m[r] = m[r] / m[r, c]
        for i in range(nu):
            if i != r and m[i, c] != 0.0:
                m[i] = m[i] - m[i, c] * m[r]
        r += 1
    inv = np.argsort(_AXIS_PRIORITY)
    out = m[:r][:, inv]
    norms = np.linalg.norm(out, axis=1)
    return out / norms[:, None]


def solve_null_space(
    cs: ConstraintSystem,
    tol_rank: float = TOL_RANK,
    tol_kernel: float = TOL_KERNEL,
) -> PhysicalBasis:
    """SVD null space of the sampled constraints, split kernel/physical.

    Singular values below ``tol_rank`` times the largest one count as zero.
    The null space is re-expressed in the canonical echelon basis; each basis
    direction whose combined field stays below ``tol_kernel`` times the seed
    gradient scale at every sample point is certified as a kernel direction.
    """
    rows = cs.rows
    warning = None
    if not np.any(rows):
        # every weight is admissible; the kernel partition is meaningless here
        basis = _canonical_basis(np.eye(8))
        return PhysicalBasis(
            basis=tuple(Lambda.from_real_vector(v) for v in basis),
            kernel=(),
            dim_physical=8,
            singular_values=np.zeros(min(rows.shape[0], 8)),
            field_space_dim=0,
            warning="all-zero constraint system: every weight vector is admissible",
        )

    # U is never used; the full V is needed only when there are fewer rows
    # than the 8 unknowns, where the thin V would drop null directions.
    _, s, vt = np.linalg.svd(rows, full_matrices=rows.shape[0] < 8)
    sigma_max = s[0]
    rank = int(np.sum(s > tol_rank * sigma_max))
    ambiguous = np.sum((s > tol_rank * sigma_max) & (s < 10 * tol_rank * sigma_max))
    if ambiguous:
        warning = (
            f"rank ambiguity: {int(ambiguous)} singular value(s) within 10x of "
            f"tol_rank={tol_rank:g} relative"
        )
    null_vecs = vt[rank:]  # (nu, 8), orthonormal
    if null_vecs.shape[0] == 0:
        return PhysicalBasis((), (), 0, s, 0, warning)
    canon = _canonical_basis(null_vecs)

    # Field evaluation at the sample points decides which directions are
    # trivial: combine each candidate with the precomputed formal matrices.
    mats = np.stack([formal_solutions(cs.seed, p) for p in cs.points])  # (N,4,4)
    # every entry of a formal matrix is +-F_a or i F0, so this is max |F_a|
    grad_scale = float(np.max(np.abs(mats)))
    thr = tol_kernel * max(grad_scale, 1e-300)
    physical = []
    kernel = []
    value_rows = []
    for v in canon:
        lam = v[:4] + 1j * v[4:]
        values = mats @ lam  # (N, 4) complex
        value_rows.append(np.concatenate([values.real.ravel(), values.imag.ravel()]))
        if np.max(np.abs(values)) <= thr:
            kernel.append(v)
        else:
            physical.append(v)
    t = np.stack(value_rows, axis=0)
    st = np.linalg.svd(t, compute_uv=False)
    field_space_dim = int(np.sum(st > thr * np.sqrt(len(cs.points))))

    return PhysicalBasis(
        basis=tuple(Lambda.from_real_vector(v) for v in physical),
        kernel=tuple(Lambda.from_real_vector(v) for v in kernel),
        dim_physical=len(physical),
        singular_values=s,
        field_space_dim=field_space_dim,
        warning=warning,
    )


def check_linear_dependence_3x3(
    n: np.ndarray | list[float],
    a: np.ndarray | list[float],
    b: np.ndarray | list[float],
) -> float:
    """Determinant of the 3x3 matrix of elementary electric-field columns.

    The three columns are built from a unit propagation direction ``n`` and
    weight parts ``a``, ``b``; the determinant vanishes identically, which is
    what forces any third plane-wave polarization to be a combination of the
    first two.  Returned so callers can assert it is numerically zero.
    """
    n = np.asarray(n, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise ValueError("n must be a unit vector")
    col1 = np.array(
        [
            b[0] * n[0] * n[0] - b[0],
            b[0] * n[0] * n[1] - a[0] * n[2],
            b[0] * n[0] * n[2] + a[0] * n[1],
        ]
    )
    col2 = np.array(
        [
            b[1] * n[1] * n[0] + a[1] * n[2],
            b[1] * n[1] * n[1] - b[1],
            b[1] * n[1] * n[2] - a[1] * n[0],
        ]
    )
    col3 = np.array(
        [
            b[2] * n[2] * n[0] - a[2] * n[1],
            b[2] * n[2] * n[1] + a[2] * n[0],
            b[2] * n[2] * n[2] - b[2],
        ]
    )
    return float(np.linalg.det(np.column_stack([col1, col2, col3])))
