"""Body specifications, field samples, and the auxiliary geometric quantities
shared by the closed-form potentials and the brute-force oracles.

Units: 4*pi*eps0 = 1 throughout, so [phi] = charge/length and [psi] = charge.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError


@dataclass(frozen=True)
class CylinderSpec:
    """Uniformly charged solid cylinder: radius R, half-height Z, volume
    density rho0."""

    R: float
    Z: float
    rho0: float

    def __post_init__(self):
        _check_body(self.R, self.Z, self.rho0)

    @property
    def total_charge(self):
        return 2.0 * math.pi * self.R ** 2 * self.Z * self.rho0


@dataclass(frozen=True)
class TubeSpec:
    """Uniformly charged tube (cylindrical shell of negligible thickness):
    radius R, half-height Z, surface density sigma0."""

    R: float
    Z: float
    sigma0: float

    def __post_init__(self):
        _check_body(self.R, self.Z, self.sigma0)

    @property
    def total_charge(self):
        return 4.0 * math.pi * self.R * self.Z * self.sigma0


@dataclass(frozen=True)
class DiskSpec:
    """Uniformly charged disk in the z = 0 plane: radius R, surface density
    sigma."""

    R: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise DomainError("DiskSpec.R must be finite and positive")
        _check_density(self.sigma)

    @property
    def total_charge(self):
        return math.pi * self.R ** 2 * self.sigma


def _check_body(R, Z, density):
    if not (math.isfinite(R) and R > 0.0 and math.isfinite(Z) and Z > 0.0):
        raise DomainError("body radius and half-height must be finite and positive")
    _check_density(density)


def _check_density(density):
    if not math.isfinite(density):
        raise DomainError(f"charge density must be finite (got {density})")


@dataclass(frozen=True)
class FieldSample:
    """One field evaluation, as a grid row reports it: phi and psi. A
    quantity that was not requested, is excluded (a singular set) or is
    undefined (psi inside the closed charged region, where the field-line
    potential has no formula, and on the disk body) is None."""

    phi: float | None
    psi: float | None


class AuxGeometry(NamedTuple):
    """Derived quantities for a (source radius r, axial offset z; observation
    radius r0) triple, in the slot convention of the indefinite integrals:

        L0 = sqrt((r+r0)^2 + z^2),  m = 4 r r0 / L0^2,  A = z / L0,
        one_minus_m = ((r - r0)^2 + z^2) / L0^2   (= 1 - m),
        gap = ((r - r0) / L0)^2   (= 1 - m - A^2).

    1 - m vanishes on the rim (r = r0, z = 0) and 1 - m - A^2 on the charged
    surface r = r0; formed from the rounded m and A they would lose their
    digits there, so they are formed here, exactly, for every route to read.

    The characteristic pair, which only module indefinite (the general-theta
    integrals and the identity check) and the disk's takahashi form in
    fields read, is computed on read:

        rho = sqrt(r0^2 + z^2),  n_pm = 2 r0 / (r0 +- rho),
        s_plus = sgn(rho - r)   (the minus sign is always +1).

    n_minus is computed as -2 r0 (r0 + rho)/z/z (exact rearrangement), which
    survives the z -> 0 cancellation; it is -inf at z = 0 and where it
    overflows (|z| below about 1e-154 r0), and never divides by an
    underflowed z^2.
    """

    r: float
    z: float
    r0: float
    L0: float
    m: float
    A: float
    one_minus_m: float
    gap: float

    @property
    def n_plus(self):
        return 2.0 * self.r0 / (self.r0 + math.hypot(self.r0, self.z)) if self.r0 > 0.0 else 0.0

    @property
    def n_minus(self):
        z = self.z
        return -2.0 * self.r0 * (self.r0 + math.hypot(self.r0, z)) / z / z if z else -math.inf

    @property
    def s_plus(self):
        d = math.hypot(self.r0, self.z) - self.r
        return math.copysign(1.0, d) if d != 0.0 else 0.0

    def L(self, theta):
        """Distance kernel sqrt(r^2 + r0^2 + 2 r r0 cos(theta) + z^2)."""
        return math.sqrt(self.r ** 2 + self.r0 ** 2
                         + 2.0 * self.r * self.r0 * math.cos(theta) + self.z ** 2)

    def bracket(self, sign):
        """1 - (n/2)(1 + r/r0) for n = n_plus (sign=+1) or n_minus (sign=-1),
        in the cancellation-free form (+-rho - r)/(r0 +- rho)."""
        rho = math.hypot(self.r0, self.z)
        if sign > 0:
            return (rho - self.r) / (self.r0 + rho)
        if self.z == 0.0:
            raise DomainError("bracket(-1) is undefined at z = 0")
        # (-(rho) - r)/(r0 - rho) = (rho + r)(rho + r0)/z^2; dividing by z
        # twice overflows to +inf, the z -> 0 limit, where z * z underflows
        return (rho + self.r) * (rho + self.r0) / self.z / self.z

    def bracket_alt(self, sign):
        """The same bracket via (L0/(2 r0)) s_pm sqrt(n_pm (n_pm - m)).
        n_plus - m is formed as 2 r0 (rho - r)^2 / ((r0 + rho) L0^2), exact
        since L0^2 - 2 r (r0 + rho) = (rho - r)^2; the difference of the
        rounded values loses its digits at r = r0, z -> 0."""
        n, s = (self.n_plus, self.s_plus) if sign > 0 else (self.n_minus, 1.0)
        rho = math.hypot(self.r0, self.z)
        gap = (2.0 * self.r0 * (rho - self.r) ** 2 / ((self.r0 + rho) * self.L0 ** 2)
               if sign > 0 else n - self.m)
        return self.L0 / (2.0 * self.r0) * s * math.sqrt(n * gap)


def aux(r, z, r0):
    """Auxiliary geometry for slots (r, z; r0); see AuxGeometry."""
    if r < 0.0 or r0 < 0.0:
        raise DomainError("aux requires nonnegative radii")
    if r == 0.0 and r0 == 0.0 and z == 0.0:
        raise DomainError("aux: degenerate geometry r = r0 = z = 0")
    L0 = math.sqrt((r + r0) ** 2 + z * z)
    return AuxGeometry(r, z, r0, L0, 4.0 * r * r0 / (L0 * L0), z / L0,
                       ((r - r0) ** 2 + z * z) / (L0 * L0), ((r - r0) / L0) ** 2)
