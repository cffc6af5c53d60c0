"""Body specifications and the auxiliary geometric quantities shared by the
closed-form potentials and the brute-force oracles.

Units: 4*pi*eps0 = 1 throughout, so [phi] = charge/length and [psi] = charge.

The package's immutable records (the body specs here, cli.GridSpec and
verify.CheckResult) derive from Record: a class with
``__slots__`` that names its fields in ``_fields`` and sets them in its own
``__init__`` through ``object.__setattr__``, past Record's ``__setattr__``,
which refuses assignment. Record compares and hashes
by type and fields, prints as ``CylinderSpec(R=1.0, Z=0.7, rho0=1.0)`` and
pickles by calling the class with its fields again. It stands in for frozen
dataclasses, whose import (``dataclasses`` and ``inspect``) cost most of the
package's import time.
"""

import collections
import math

from .errors import DomainError


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
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "rho0", rho0)

    @property
    def total_charge(self):
        return 2.0 * math.pi * self.R ** 2 * self.Z * self.rho0


class TubeSpec(Record):
    """Uniformly charged tube (cylindrical shell of negligible thickness):
    radius R, half-height Z, surface density sigma0."""

    __slots__ = _fields = ("R", "Z", "sigma0")

    def __init__(self, R, Z, sigma0):
        _check_body(R, Z, sigma0)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "sigma0", sigma0)

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
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "sigma", sigma)

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


# the record aux returns, one field per quantity it derives
AuxGeometry = collections.namedtuple("AuxGeometry", "r z r0 L0 m A one_minus_m gap")


def aux(r, z, r0):
    """The AuxGeometry of a (source radius r, axial offset z; observation
    radius r0) triple, in the slot convention of the indefinite integrals:

        L0 = sqrt((r+r0)^2 + z^2),  m = 4 r r0 / L0^2,  A = z / L0,
        one_minus_m = ((r - r0)^2 + z^2) / L0^2   (= 1 - m),
        gap = ((r - r0) / L0)^2   (= 1 - m - A^2).

    1 - m vanishes on the rim (r = r0, z = 0) and 1 - m - A^2 on the charged
    surface r = r0; formed from the rounded m and A they would lose their
    digits there, so they are formed here, exactly, for every route to read.
    DomainError where L0^2 under- or overflows, for lengths outside about
    1e-154 to 1e154."""
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
