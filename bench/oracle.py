"""Independent reference fields for checking rsmaxwell outputs.

Nothing here imports rsmaxwell.  The formal-solution matrix is written out
from its definition,

    M(F) = | i F0   F1    F2    F3  |
           | -F1   i F0  -F3    F2  |
           | -F2    F3   i F0  -F1  |
           | -F3   -F2    F1   i F0 |,      F_a = d_a Phi,

and a weighted field is psi = M(F) lambda, with E = Re psi[1:] and
cB = Im psi[1:].  A weight vector is admissible when psi[0] vanishes
identically.

* Plane seeds (sin and exp of theta = k0 x0 - k.x) have F = s(theta) kl with
  kl = (k0, -k1, -k2, -k3), so psi is the constant column M(kl) lambda times
  the scalar profile s: A cos(theta) for sin, i A exp(i theta) for exp.
* The cylindrical seed Phi = A exp(i(freq x0 + kz x3 + m phi)) J_m(q rho) is
  differentiated with scipy.special.jvp and the chain rule in (rho, phi),
  not through the J_{m-1}, J_{m+1} recurrence the program uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

#: Axis exclusion radius of cylindrical seeds (points with rho <= RHO_MIN are
#: skipped by the program).
RHO_MIN = 1e-9


@dataclass(frozen=True)
class Seed:
    """A seed as the benchmark writes it to a seed file."""

    kind: str  # "RealPlane" | "ComplexPlane" | "Cylindrical"
    amplitude: float
    k: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    freq: float = 0.0
    kz: float = 0.0
    m: int = 0

    @property
    def is_plane(self) -> bool:
        return self.kind != "Cylindrical"

    def spec(self) -> str:
        if self.is_plane:
            k0, k1, k2, k3 = (repr(v) for v in self.k)
            return (f"kind = {self.kind}\nA = {self.amplitude!r}\n"
                    f"k0 = {k0}\nk1 = {k1}\nk2 = {k2}\nk3 = {k3}\n")
        return (f"kind = Cylindrical\nA = {self.amplitude!r}\n"
                f"E = {self.freq!r}\nk = {self.kz!r}\nm = {self.m}\n")

    def wavenumber(self) -> float:
        """The program's characteristic wavenumber (sets the default FD step)."""
        scale = abs(self.k[0]) if self.is_plane else max(abs(self.freq), abs(self.kz))
        return scale if scale > 0 else 1.0


def rs_matrix(f: np.ndarray) -> np.ndarray:
    """(N, 4) gradients -> (N, 4, 4) formal-solution matrices M(F)."""
    f0, f1, f2, f3 = (f[:, a] for a in range(4))
    i0 = 1j * f0
    return np.stack(
        [
            np.stack([i0, f1, f2, f3], axis=-1),
            np.stack([-f1, i0, -f3, f2], axis=-1),
            np.stack([-f2, f3, i0, -f1], axis=-1),
            np.stack([-f3, -f2, f1, i0], axis=-1),
        ],
        axis=1,
    )


def plane_profile(seed: Seed, x: np.ndarray) -> np.ndarray:
    """Scalar factor s(theta) with F = s(theta) kl for a plane seed."""
    k0, k1, k2, k3 = seed.k
    theta = k0 * x[:, 0] - k1 * x[:, 1] - k2 * x[:, 2] - k3 * x[:, 3]
    if seed.kind == "RealPlane":
        return seed.amplitude * np.cos(theta) + 0j
    return 1j * seed.amplitude * np.exp(1j * theta)


def cylindrical_gradient(seed: Seed, x: np.ndarray) -> np.ndarray:
    """(N, 4) gradient of the cylindrical seed by the chain rule in (rho, phi)."""
    rho = np.hypot(x[:, 1], x[:, 2])
    phi = np.arctan2(x[:, 2], x[:, 1])
    q = np.sqrt(max(seed.freq ** 2 - seed.kz ** 2, 0.0))
    t = seed.amplitude * np.exp(1j * (seed.freq * x[:, 0] + seed.kz * x[:, 3] + seed.m * phi))
    val = t * special.jv(seed.m, q * rho)
    d_rho = t * q * special.jvp(seed.m, q * rho)
    d_phi = 1j * seed.m * val
    c, s = np.cos(phi), np.sin(phi)
    return np.stack(
        [1j * seed.freq * val, c * d_rho - s * d_phi / rho, s * d_rho + c * d_phi / rho,
         1j * seed.kz * val],
        axis=-1,
    )


def gradient(seed: Seed, x: np.ndarray) -> np.ndarray:
    """(N, 4) seed gradient F_a = d_a Phi at the rows of x."""
    if seed.is_plane:
        kl = np.array([seed.k[0], -seed.k[1], -seed.k[2], -seed.k[3]])
        return plane_profile(seed, x)[:, None] * kl[None, :]
    return cylindrical_gradient(seed, x)


def field(seed: Seed, lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(N, 4) complex column psi = M(F) lambda at the rows of x."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=complex)
    if seed.is_plane:
        kl = np.array([[seed.k[0], -seed.k[1], -seed.k[2], -seed.k[3]]])
        column = rs_matrix(kl)[0] @ lam
        return plane_profile(seed, x)[:, None] * column[None, :]
    return rs_matrix(cylindrical_gradient(seed, x)) @ lam


def admissible_lambda(seed: Seed, rng: np.random.Generator) -> np.ndarray:
    """A weight vector with psi[0] = 0 identically, derived in closed form.

    Plane seeds: psi[0] is proportional to i k0 l0 - k1 l1 - k2 l2 - k3 l3,
    so random l1..l3 fix l0.  Cylindrical seed: psi[0] = Phi (-freq l0 +
    i kz l3) + F1 l1 + F2 l2, which vanishes for the ray (i kz, 0, 0, freq).
    """
    if seed.is_plane:
        rest = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        k0, k1, k2, k3 = seed.k
        lam0 = (k1 * rest[0] + k2 * rest[1] + k3 * rest[2]) / (1j * k0)
        return np.concatenate([[lam0], rest])
    return np.array([1j * seed.kz, 0.0, 0.0, seed.freq], dtype=complex)


def fresh_points(seed: Seed, rng: np.random.Generator, n: int = 64) -> np.ndarray:
    """Random points over a few wavelengths, kept off the cylindrical axis."""
    scale = 1.0 / seed.wavenumber()
    x = rng.uniform(-3.0, 3.0, (n, 4)) * scale
    if not seed.is_plane:
        rho = np.hypot(x[:, 1], x[:, 2])
        x[:, 1:3] *= (np.maximum(rho, 0.2 * scale) / rho)[:, None]
    return x


def gradient_scale(seed: Seed, x: np.ndarray) -> float:
    """Largest |F_a| over the rows of x (the program's scale for kernel tests)."""
    return float(np.max(np.abs(gradient(seed, x))))
