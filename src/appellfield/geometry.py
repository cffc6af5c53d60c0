"""Body specifications, field samples, and the auxiliary geometric quantities
shared by the closed-form potentials and the brute-force oracles.

Units: 4*pi*eps0 = 1 throughout, so [phi] = charge/length and [psi] = charge.

The package's immutable records (the body specs and FieldSample here,
oracle.QuadratureSpec, cli.GridSpec and verify.CheckResult) derive from
Record: a class with ``__slots__`` that names its fields in ``_fields`` and
sets them in its own ``__init__`` through ``object.__setattr__``, past
Record's ``__setattr__``, which refuses assignment. Record compares and hashes
by type and fields, prints as ``CylinderSpec(R=1.0, Z=0.7, rho0=1.0)`` and
pickles by calling the class with its fields again. It stands in for frozen
dataclasses, whose import (``dataclasses`` and ``inspect``) cost most of the
package's import time.
"""

import collections
import math

from .errors import DomainError

# object.__setattr__ as a module global: FieldSample, built once per grid
# point, sets its slots an eighth faster through it
_set = object.__setattr__


class Record:
    """Base of the immutable records; see the module docstring."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return type(self), self._values()


class CylinderSpec(Record):
    """Uniformly charged solid cylinder: radius R, half-height Z, volume
    density rho0."""

    __slots__ = _fields = ("R", "Z", "rho0")

    def __init__(self, R, Z, rho0):
        _check_body(R, Z, rho0)
        _set(self, "R", R)
        _set(self, "Z", Z)
        _set(self, "rho0", rho0)

    @property
    def total_charge(self):
        return 2.0 * math.pi * self.R ** 2 * self.Z * self.rho0


class TubeSpec(Record):
    """Uniformly charged tube (cylindrical shell of negligible thickness):
    radius R, half-height Z, surface density sigma0."""

    __slots__ = _fields = ("R", "Z", "sigma0")

    def __init__(self, R, Z, sigma0):
        _check_body(R, Z, sigma0)
        _set(self, "R", R)
        _set(self, "Z", Z)
        _set(self, "sigma0", sigma0)

    @property
    def total_charge(self):
        return 4.0 * math.pi * self.R * self.Z * self.sigma0


class DiskSpec(Record):
    """Uniformly charged disk in the z = 0 plane: radius R, surface density
    sigma."""

    __slots__ = _fields = ("R", "sigma")

    def __init__(self, R, sigma):
        if not (math.isfinite(R) and R > 0.0):
            raise DomainError("DiskSpec.R must be finite and positive")
        _check_density(sigma)
        _set(self, "R", R)
        _set(self, "sigma", sigma)

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


class FieldSample(Record):
    """One field evaluation, as a grid row reports it: phi and psi. A
    quantity that was not requested, is excluded (a singular set) or is
    undefined (psi inside the closed charged region, where the field-line
    potential has no formula, and on the disk body) is None."""

    __slots__ = _fields = ("phi", "psi")

    def __init__(self, phi, psi):
        _set(self, "phi", phi)
        _set(self, "psi", psi)


class AuxGeometry(collections.namedtuple("AuxGeometry", "r z r0 L0 m A one_minus_m gap")):
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

    __slots__ = ()

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
    """Auxiliary geometry for slots (r, z; r0); see AuxGeometry. DomainError
    where L0^2 under- or overflows, for lengths outside about 1e-154 to
    1e154."""
    if r < 0.0 or r0 < 0.0:
        raise DomainError("aux requires nonnegative radii")
    if r == 0.0 and r0 == 0.0 and z == 0.0:
        raise DomainError("aux: degenerate geometry r = r0 = z = 0")
    try:
        L0 = math.sqrt((r + r0) ** 2 + z * z)
    except OverflowError:  # float ** raises where float * gives inf
        L0 = math.inf
    L0sq = L0 * L0
    if not 0.0 < L0sq < math.inf:
        raise DomainError(f"aux: lengths must stay between about 1e-154 and 1e154, where L0^2 = "
                          f"(r + r0)^2 + z^2 under- or overflows (slots r = {r!r}, z = {z!r}, "
                          f"r0 = {r0!r})")
    return AuxGeometry(r, z, r0, L0, 4.0 * r * r0 / L0sq, z / L0,
                       ((r - r0) ** 2 + z * z) / L0sq, ((r - r0) / L0) ** 2)
