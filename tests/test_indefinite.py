"""Exact checks of the general-theta indefinite integrals (appellfield.indefinite).

Twin: at theta = pi each form is an end term of fields, computed there by
other kernels (cel and I(m, A; pi)) than here (Carlson's incomplete
integrals, the characteristic pair n_pm and i_hyg's series). The two must
agree to 1e-13.

Box: each form is an antiderivative of the paper's integrand, so its
inclusion-exclusion sum over the corners of an (r, theta, z) box is the
integral over the box. The reference integrates the elementary inner
integral in z by numpy's Gauss-Legendre rule, with no package code.
"""

import itertools
import math

import numpy as np
import pytest

from appellfield import fields as fl
from appellfield import indefinite as ind
from appellfield.errors import AppellFieldError

R = 1.0  # source radius of the twin slots (r, zeta): observation radius r, offset zeta


def _twin_slots(n=400, seed=0):
    """n seeded slots with r in [0, 3], zeta in [-3, 3], |r - R| >= 0.1 and
    |zeta| >= 0.1, then axis slots. Nearer the surfaces Carlson's ellip_pi
    rejects n* within 1e-12 of 1 and the twin loses digits; C08, C14 and
    the probe references cover the hot path there."""
    rng = np.random.default_rng(seed)
    slots = []
    while len(slots) < n:
        r, zeta = rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0)
        if abs(r - R) >= 0.1 and abs(zeta) >= 0.1:
            slots.append((float(r), float(zeta)))
    return slots + [(0.0, s * zeta) for zeta in (0.1, 0.5, 1.0, 3.0) for s in (1.0, -1.0)]


TWIN_SLOTS = _twin_slots()
TWINS = {
    "cylinder phi, elliptic part": (
        fl._cyl_ell_end, lambda r, zeta: ind.i_cyl_ell(R, math.pi, zeta, r)),
    "cylinder psi": (
        fl._psi_cyl_end, lambda r, zeta: (ind.j_cyl_ell(R, math.pi, zeta, r)
                                          + ind.j_cyl_trig(R, math.pi, zeta, r))),
    "tube psi": (fl._psi_tube_end, lambda r, zeta: ind.j_tube(R, math.pi, zeta, r)),
    "tube phi": (fl._hyg_end, lambda r, zeta: ind.i_tube(R, math.pi, zeta, r)),
}


@pytest.mark.parametrize("name", TWINS)
def test_end_terms_equal_their_general_theta_twins(name):
    end, twin = TWINS[name]
    worst = 0.0
    for r, zeta in TWIN_SLOTS:
        value = end(R, r, zeta)
        worst = max(worst, abs(twin(r, zeta) - value) / max(abs(value), 1.0))
    assert worst <= 1e-13


def _boxes(n=6, seed=0):
    """n seeded boxes (r0, r range, theta range, z range), the first reaching
    theta = pi. Each lies in one piece of the forms: r + r0 cos(theta) and z
    keep their signs, as the forms' atan terms jump where z (r + r0 cos(theta))
    changes sign. The r range keeps 0.3 from r0, and |z| <= 2 |r - r0|: nearer m + A^2 = 1,
    hypergeom.i_hyg, under i_tube and i_cyl_hyg, misses 1e-11 or fails."""
    rng = np.random.default_rng(seed)
    boxes = []
    while len(boxes) < n:
        r0 = rng.uniform(0.0, 3.0)
        lo, hi = (0.0, r0 - 0.3) if rng.uniform() < 0.5 else (r0 + 0.3, 3.0)
        if hi - lo < 0.1:
            continue
        r1, r2 = sorted(rng.uniform(lo, hi, 2))
        t1, t2 = sorted(rng.uniform(0.5, math.pi, 2))
        if not boxes:
            t2 = math.pi
        d = min(abs(r1 - r0), abs(r2 - r0))
        z1, z2 = sorted(rng.uniform(0.1, 2.0 * d, 2) * rng.choice((-1.0, 1.0)))
        u = [r + r0 * math.cos(t) for r in (r1, r2) for t in (t1, t2)]
        if min(u) < 0.0 < max(u):
            continue
        boxes.append((float(r0), (float(r1), float(r2)), (float(t1), float(t2)),
                      (float(z1), float(z2))))
    return boxes


BOXES = _boxes()
_X, _W = np.polynomial.legendre.leggauss(40)


def _nodes(a, b):
    return (b - a) / 2.0 * _X + (a + b) / 2.0, (b - a) / 2.0 * _W


# the integrands of I (1/L) and J (-r0 z (r0 + r cos t)/(L rho^2)), each
# integrated in z from z1 to z2; rho^2 = L^2 - z^2
def _inner_i(r, t, z1, z2, r0):
    rho = np.sqrt(r * r + r0 * r0 + 2.0 * r * r0 * np.cos(t))
    return np.arcsinh(z2 / rho) - np.arcsinh(z1 / rho)


def _inner_j(r, t, z1, z2, r0):
    rho2 = r * r + r0 * r0 + 2.0 * r * r0 * np.cos(t)
    return -r0 * (r0 + r * np.cos(t)) / rho2 * (np.sqrt(rho2 + z2 * z2) - np.sqrt(rho2 + z1 * z1))


def _corner_sum(f, *ranges):
    """sum over the box's corners of f, with sign -1 per lower end."""
    total = 0.0
    for corner in itertools.product(*(((hi, 1.0), (lo, -1.0)) for lo, hi in ranges)):
        total += math.prod(s for _, s in corner) * f(*(x for x, _ in corner))
    return total


def _cylinder(form, inner):
    # the cylinder integrands carry a factor r, integrated over the r range too
    def check(r0, rr, tt, zz):
        r, wr = _nodes(*rr)
        t, wt = _nodes(*tt)
        rg, tg = np.meshgrid(r, t, indexing="ij")
        ref = float(wr @ (rg * inner(rg, tg, *zz, r0)) @ wt)
        return _corner_sum(lambda r, t, z: form(r, t, z, r0), rr, tt, zz), ref
    return check


def _tube(form, inner):
    # the tube at source radius r2, the box's outer radius
    def check(r0, rr, tt, zz):
        r = rr[1]
        t, wt = _nodes(*tt)
        ref = float(wt @ inner(r, t, *zz, r0))
        return _corner_sum(lambda t, z: form(r, t, z, r0), tt, zz), ref
    return check


BOX_FORMS = {
    "cylinder I": _cylinder(lambda r, t, z, r0: (ind.i_cyl_trig(r, t, z, r0)
                                                 + ind.i_cyl_ell(r, t, z, r0)
                                                 + ind.i_cyl_hyg(r, t, z, r0)), _inner_i),
    "cylinder J": _cylinder(lambda r, t, z, r0: (ind.j_cyl_trig(r, t, z, r0)
                                                 + ind.j_cyl_ell(r, t, z, r0)), _inner_j),
    "tube I": _tube(ind.i_tube, _inner_i),
    "tube J": _tube(ind.j_tube, _inner_j),
}


@pytest.mark.parametrize("name", BOX_FORMS)
@pytest.mark.parametrize("box", range(len(BOXES)))
def test_general_theta_forms_integrate_over_a_box(name, box):
    value, ref = BOX_FORMS[name](*BOXES[box])
    assert abs(value - ref) <= 1e-11 * max(abs(ref), 1.0)


FORMS = (ind.i_cyl_trig, ind.i_cyl_ell, ind.i_cyl_hyg, ind.j_cyl_trig, ind.j_cyl_ell,
         ind.i_tube, ind.j_tube)


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("theta", [math.pi, 2.0])
@pytest.mark.parametrize("r, r0", [(1.0, 0.5), (0.5, 1.0), (1.0, 1.0)])
def test_forms_at_z0_return_a_float_or_a_typed_error(form, theta, r, r0):
    # at z = 0 and theta = pi the atanh arguments reach +-1 and, at r = r0,
    # L vanishes; the terms there take their limit 0
    try:
        value = form(r, theta, 0.0, r0)
    except AppellFieldError:
        return
    assert isinstance(value, float) and math.isfinite(value)
