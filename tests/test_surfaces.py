"""Potentials at and next to the charged surfaces, where the closed forms
run up to the boundary m + A^2 = 1 of the hypergeometric integral and to the
singular characteristic n* = 1 of the elliptic Pi.

Every reference is an mpmath quadrature of a defining integral written out
here, independent of appellfield: the source integral in z' (and, for the
cylinder, in the radial distance) is done exactly, leaving one angle.
"""

import math

import pytest

from appellfield import fields as fl
from appellfield import hypergeom as hg
from appellfield.errors import DomainError
from appellfield.geometry import CylinderSpec, TubeSpec

mp = pytest.importorskip("mpmath")

R, Z = 1.0, 0.7
TUBE = TubeSpec(R=R, Z=Z, sigma0=1.0)
CYL = CylinderSpec(R=R, Z=Z, rho0=1.0)
Z_OBS = 0.3
OFFSETS = (1e-4, 3e-5, 1e-6, 1e-9, 1e-12)
CONTRACT = 2e-11


def _quad(f, intervals):
    return mp.quad(f, intervals, maxdegree=10)


def ref_phi_tube(r, z):
    # phi = 2 sigma R int_0^pi [asinh((z+Z)/D) - asinh((z-Z)/D)] dtheta,
    # D^2 = (r-R)^2 + 4 r R sin^2(theta/2)
    with mp.workdps(30):
        r, z = mp.mpf(r), mp.mpf(z)

        def f(th):
            D = mp.sqrt((r - R) ** 2 + 4 * r * R * mp.sin(th / 2) ** 2)
            return mp.asinh((z + Z) / D) - mp.asinh((z - Z) / D)

        return float(2 * TUBE.sigma0 * R * _quad(f, [0, mp.pi]))


def ref_psi_tube(r, z):
    # branch 0, off the sheet: psi = sgn(z) [Q + r int_|z|^inf phi_r dz'],
    # the z' integral done exactly, leaving the angle
    with mp.workdps(30):
        r, z = mp.mpf(r), mp.mpf(z)
        az = abs(z)
        Q = 4 * mp.pi * R * Z * TUBE.sigma0

        def root_minus(D, c):
            # sqrt(D^2 + c^2) - c without cancellation
            root = mp.sqrt(D * D + c * c)
            return D * D / (root + c) if c > 0 else root - c

        def f(th):
            s2 = mp.sin(th / 2) ** 2
            D = mp.sqrt((r - R) ** 2 + 4 * r * R * s2)
            B = 2 * Z - (root_minus(D, az + Z) + az + Z) + (root_minus(D, az - Z) + az - Z)
            return ((r - R) + 2 * R * s2) / (D * D) * B

        P = -2 * TUBE.sigma0 * R * _quad(f, [0, mp.pi])
        return float(mp.sign(z) * (Q + r * P))


def ref_phi_cyl(r, z):
    # polar coordinates about the foot of the observation point: the z' and
    # radial integrals are elementary, W(D) = H(D, z+Z) - H(D, z-Z) with
    # H(D, c) = int asinh(c/D) D dD, leaving the ray angle alpha
    with mp.workdps(30):
        r, z = mp.mpf(r), mp.mpf(z)

        def H(D, c):
            if D == 0:
                return c * abs(c) / 2
            return D * D / 2 * mp.asinh(c / D) + c / 2 * mp.sqrt(D * D + c * c)

        def W(D):
            return H(D, z + Z) - H(D, z - Z)

        if r < R:
            def f(al):
                c = mp.cos(al)
                return W(-r * c + mp.sqrt((R - r) * (R + r) + r * r * c * c)) - W(0)
            intervals = [0, mp.pi / 2, mp.pi]
        else:
            def f(al):
                c = mp.cos(al)
                q = mp.sqrt(max((R - r) * (R + r) + r * r * c * c, 0))
                return W(-r * c + q) - W(-r * c - q)
            intervals = [mp.pi - mp.asin(R / r), mp.pi]
        return float(2 * CYL.rho0 * _quad(f, intervals))


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


@pytest.mark.parametrize("side", (-1.0, 1.0), ids=("inside", "outside"))
@pytest.mark.parametrize("delta", OFFSETS)
def test_phi_tube_next_to_the_sheet(delta, side):
    r = R + side * delta
    assert _rel(fl.phi_tube((r, Z_OBS), TUBE), ref_phi_tube(r, Z_OBS)) <= CONTRACT


def test_phi_tube_on_the_sheet():
    assert _rel(fl.phi_tube((R, Z_OBS), TUBE), ref_phi_tube(R, Z_OBS)) <= CONTRACT


@pytest.mark.parametrize("side", (-1.0, 1.0), ids=("inside", "outside"))
@pytest.mark.parametrize("delta", OFFSETS)
def test_phi_cyl_next_to_the_side(delta, side):
    r = R + side * delta
    assert _rel(fl.phi_cyl((r, Z_OBS), CYL), ref_phi_cyl(r, Z_OBS)) <= CONTRACT


@pytest.mark.parametrize("side", (-1.0, 1.0), ids=("inside", "outside"))
@pytest.mark.parametrize("delta", (1e-6, 1e-9))
def test_psi_tube_next_to_the_sheet(delta, side):
    r = R + side * delta
    base = ref_psi_tube(r, -Z_OBS)
    jump = fl.tube_branch_jump(TUBE)
    for branch in (-1, 0, 1):
        value = fl.psi_tube((r, -Z_OBS), TUBE, branch=branch)
        assert _rel(value, base + branch * jump) <= CONTRACT


# near the rim (r, |z|) = (R, Z), where m -> 1 as well as m + A^2 -> 1
RIM_OFFSETS = ((1e-6, -1e-6), (-1e-6, 1e-6), (1e-8, 1e-7), (0.0, -1e-8), (2e-5, -1e-5))


@pytest.mark.parametrize("dr, dz", RIM_OFFSETS)
def test_potentials_next_to_the_rim(dr, dz):
    r, z = R + dr, Z + dz
    assert _rel(fl.phi_tube((r, z), TUBE), ref_phi_tube(r, z)) <= CONTRACT
    assert _rel(fl.phi_cyl((r, z), CYL), ref_phi_cyl(r, z)) <= CONTRACT
    if dr != 0.0:
        assert _rel(fl.psi_tube((r, -z), TUBE), ref_psi_tube(r, -z)) <= CONTRACT


@pytest.mark.parametrize("m", (0.05, 0.3, 0.62, 0.9, 0.999))
def test_i_hyg_pi_on_the_boundary_is_the_surface_value(m):
    A = math.sqrt(1.0 - m)
    assert hg.i_hyg_pi(m, A) == pytest.approx(hg.i_hyg_surface(m), rel=1e-12)
    assert hg.i_hyg_pi(m, -A, gap=0.0) == pytest.approx(-hg.i_hyg_surface(m), rel=1e-12)


def test_i_hyg_pi_beyond_the_boundary_raises():
    with pytest.raises(DomainError):
        hg.i_hyg_pi(0.5, 0.7072)
