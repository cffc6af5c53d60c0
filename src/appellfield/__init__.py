"""appellfield: closed-form electrostatic and field-line potentials for
uniformly charged cylinders, tubes and disks, together with the underlying
special-function stack (Bulirsch's complete and Carlson's symmetric
elliptic integrals, Jacobi elliptic/zeta/theta functions,
Gauss/Appell/generalized hypergeometric series) and brute-force
verification oracles."""

from . import elliptic, errors, fields, geometry, hypergeom, indefinite, jacobi, oracle
from .geometry import AuxGeometry, CylinderSpec, DiskSpec, TubeSpec, aux

__all__ = [
    "AuxGeometry", "CylinderSpec", "DiskSpec", "TubeSpec", "aux",
    "elliptic", "errors", "fields", "geometry", "hypergeom", "indefinite",
    "jacobi", "oracle", "verify",
]
__version__ = "0.1.0"


def __getattr__(name):
    # verify, which imports numpy, loads on its first access: importing the
    # package and evaluating the scalar potentials load no numpy
    if name == "verify":
        import importlib
        return importlib.import_module(f"{__name__}.verify")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
