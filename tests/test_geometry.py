"""The immutable records (geometry.Record and its subclasses) and aux's
typed error where L0^2 under- or overflows."""

import math
import pickle

import pytest

from appellfield import fields
from appellfield.cli import GridSpec
from appellfield.errors import AppellFieldError, DomainError
from appellfield.geometry import AuxGeometry, CylinderSpec, DiskSpec, TubeSpec, aux
from appellfield.verify import CheckResult

RECORDS = [
    CylinderSpec(1.0, 0.7, 1.0),
    TubeSpec(1.0, 0.7, 2.0),
    DiskSpec(1.0, -1.0),
    GridSpec(0.0, 2.0, -1.0, 1.0, 3, 5, "tube", 1.0, 0.7, 1.0, "both", (-1, 0, 1)),
    CheckResult("C01", "name", True, 0.5, "detail", 0.25),
]


def test_positional_keyword_and_default_construction():
    assert CylinderSpec(1.0, 0.7, 2.0) == CylinderSpec(rho0=2.0, Z=0.7, R=1.0)
    assert TubeSpec(1.0, 0.7, 2.0) == TubeSpec(R=1.0, Z=0.7, sigma0=2.0)
    assert DiskSpec(1.0, 2.0) == DiskSpec(sigma=2.0, R=1.0)
    result = CheckResult("C01", "name", True, worst=0.5, detail="detail", seconds=0.25)
    assert (result.worst, result.seconds) == (0.5, 0.25)
    assert CheckResult(seconds=0.25, detail="detail", worst=0.5, passed=True, name="name",
                       ident="C01") == result
    with pytest.raises(TypeError):
        CylinderSpec(1.0, 0.7)


def test_validation_raises_domain_error():
    for bad in [(0.0, 0.7, 1.0), (1.0, -0.7, 1.0), (math.inf, 0.7, 1.0), (1.0, 0.7, math.nan)]:
        for cls in (CylinderSpec, TubeSpec):
            with pytest.raises(DomainError):
                cls(*bad)
    for bad in [(0.0, 1.0), (math.nan, 1.0), (1.0, math.inf)]:
        with pytest.raises(DomainError):
            DiskSpec(*bad)
    with pytest.raises(TypeError):
        DiskSpec(1.0, 1.0, 1.0)
    with pytest.raises(AppellFieldError, match="nr >= 2"):
        GridSpec(0.0, 2.0, -1.0, 1.0, 1, 5, "cyl", 1.0, 0.7, 1.0, "both", (0,))


def test_equality_and_hash_by_type_and_fields():
    assert CylinderSpec(1.0, 0.7, 1.0) == CylinderSpec(1.0, 0.7, 1.0)
    assert CylinderSpec(1.0, 0.7, 1.0) != CylinderSpec(1.0, 0.7, 2.0)
    # equal fields, different bodies
    assert CylinderSpec(1.0, 0.7, 1.0) != TubeSpec(1.0, 0.7, 1.0)
    assert CylinderSpec(1.0, 0.7, 1.0) != (1.0, 0.7, 1.0)
    assert hash(CylinderSpec(1.0, 0.7, 1.0)) == hash(CylinderSpec(1.0, 0.7, 1.0))
    assert len({CylinderSpec(1.0, 0.7, 1.0), CylinderSpec(1.0, 0.7, 1.0),
                TubeSpec(1.0, 0.7, 1.0)}) == 2
    for record in RECORDS:
        assert record == record and hash(record) == hash(record)


def test_assignment_raises_attribute_error():
    for record in RECORDS:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.no_such_field = 1.0
    assert CylinderSpec(1.0, 0.7, 1.0).R == 1.0


def test_repr_is_dataclass_style():
    assert repr(CylinderSpec(1.0, 0.7, 1.0)) == "CylinderSpec(R=1.0, Z=0.7, rho0=1.0)"
    assert repr(DiskSpec(1.0, -1e-12)) == "DiskSpec(R=1.0, sigma=-1e-12)"


def test_every_record_pickles():
    for record in RECORDS + [aux(0.5, 0.3, 1.5)]:
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record and repr(copy) == repr(record)


def test_aux_geometry_is_a_named_tuple():
    a = aux(0.5, 0.3, 1.5)
    assert type(a) is AuxGeometry and AuxGeometry.__bases__ == (tuple,)
    assert AuxGeometry._fields == ("r", "z", "r0", "L0", "m", "A", "one_minus_m", "gap")
    assert (a.r, a.z, a.r0) == (0.5, 0.3, 1.5)
    assert a.L0 == math.sqrt(4.0 + 0.09)
    with pytest.raises(AttributeError):
        a.m = 0.0


@pytest.mark.parametrize("slots", [(1e300, 0.0, 1.0), (1.0, 0.0, 1e300), (1.0, -1e160, 1e160),
                                   (1e154, 1e154, 0.0), (0.0, 1e300, 0.5), (1.0, math.inf, 1.0),
                                   (math.inf, 0.0, 1.0), (1e-200, 1e-200, 3e-201),
                                   (0.0, 1e-170, 0.0)])
def test_aux_raises_a_domain_error_where_l0_squared_leaves_the_range(slots):
    # (r + r0)**2 raised an untyped OverflowError from r + r0 = 1.3e154 on,
    # and dividing by an underflowed L0^2 a ZeroDivisionError
    with pytest.raises(DomainError, match="between about 1e-154 and 1e154"):
        aux(*slots)


def test_aux_values_below_the_overflow_are_unchanged():
    r, z, r0 = 9e153, 1e153, 1e153
    L0 = math.sqrt((r + r0) ** 2 + z * z)
    assert aux(r, z, r0) == (r, z, r0, L0, 4.0 * r * r0 / (L0 * L0), z / L0,
                             ((r - r0) ** 2 + z * z) / (L0 * L0), ((r - r0) / L0) ** 2)


@pytest.mark.parametrize("scale, point", [(1.0, (1e300, 0.0)), (1.0, (1e160, 1e160)),
                                          (1e-200, (3e-200, 3e-201))])
def test_potentials_raise_a_domain_error_beyond_the_length_range(scale, point):
    cyl, tube = CylinderSpec(scale, 0.7 * scale, 1.0), TubeSpec(scale, 0.7 * scale, 1.0)
    disk = DiskSpec(scale, 1.0)
    for fn, body in [(fields.phi_cyl, cyl), (fields.psi_cyl, cyl), (fields.phi_tube, tube),
                     (fields.psi_tube, tube), (fields.phi_disk, disk)]:
        with pytest.raises(DomainError):
            fn(point, body)
