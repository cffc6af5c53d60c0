"""Exact checks of the general-theta indefinite integrals (appellfield.indefinite).

Twin: at theta = pi each form is an end term of fields, computed there by
other kernels (cel and I(m, A; pi)) than here (Carlson's incomplete
integrals, the characteristic pair n_pm and i_hyg's series). The two must
agree to 1e-13. Nearer the surfaces than the twin's slots, three forms are
checked against 50-digit mpmath at their own float theta instead.

Box: each form is an antiderivative of the paper's integrand, so its
inclusion-exclusion sum over the corners of an (r, theta, z) box is the
integral over the box. The reference integrates the elementary inner
integral in z by numpy's Gauss-Legendre rule, with no package code.

Pair: the characteristic pair n_pm and its brackets, against their
defining forms.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from appellfield import elliptic as el
from appellfield import fields as fl
from appellfield import indefinite as ind
from appellfield.errors import AppellFieldError
from appellfield.geometry import DiskSpec, aux

R = 1.0  # source radius of the twin slots (r, zeta): observation radius r, offset zeta


def _twin_slots(n=400, seed=0):
    """n seeded slots with r in [0, 3], zeta in [-3, 3], |r - R| >= 0.1 and
    |zeta| >= 0.1, then axis slots. Nearer the surfaces the twin at the
    float theta = pi differs from the end term, at theta = pi exactly, by
    about 6e-17/|r - R| relative, because cos(float(pi)/2) is not 0: that
    is the float argument, not a defect (the twin matches mpmath at its
    own theta there, test_twins_match_mpmath_near_the_surfaces). C08, C14
    and the probe references cover the hot path there."""
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


# slots (r, z; r0) 1e-3 to 1e-9 from the sheet r0 = r and from the end
# plane z = 0, where n* and n_plus near 1, and 1e-4 to 1e-8 from the rim
# r0 = r, z = 0, where m nears 1 too and, at theta = pi, so does the
# amplitude's sine: 1 - m s^2 must come from the exact 1 - m there
NEAR_SLOTS = [(1.0, z, 1.0 + s * d) for d in (1e-3, 1e-6, 1e-9) for z in (0.5, -0.3)
              for s in (1.0, -1.0)] + \
    [(1.0, s * d, r0) for d in (1e-3, 1e-6, 1e-9) for r0 in (1.5, 0.4) for s in (1.0, -1.0)] + \
    [(1.0, d, 1.0 + d) for d in (1e-4, 1e-6, 1e-8)]


def _mp_forms(r, theta, z, r0):
    """(j_tube, i_cyl_ell, j_cyl_ell) at 50 digits, at the float theta."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r, z, r0, phi = (mpmath.mpf(v) for v in (r, z, r0, theta / 2.0))
        L0 = mpmath.sqrt((r + r0) ** 2 + z * z)
        m, rho = 4 * r * r0 / L0 ** 2, mpmath.sqrt(r0 * r0 + z * z)
        F, E = mpmath.ellipf(phi, m), mpmath.ellipe(phi, m)
        p = (r - r0) / (r + r0) * mpmath.ellippi(4 * r * r0 / (r + r0) ** 2, phi, m)
        nsum = sum((1 - n / 2 * (1 + r / r0)) * mpmath.ellippi(n, phi, m)
                   for n in (2 * r0 / (r0 + rho), 2 * r0 / (r0 - rho)))
        return tuple(float(v) for v in (
            (r * r - r0 * r0) / L0 * F - L0 * E + z * z / L0 * p,
            -3 * z * (r0 * r0 + z * z) / (4 * L0) * F + 3 * z * L0 / 4 * E
            + z * r * r / (4 * L0) * p + z * (2 * z * z - r0 * r0) / (4 * L0) * nsum,
            L0 * (z * z - 2 * (r * r + r0 * r0)) / 6 * E
            + (2 * (r * r - r0 * r0) ** 2 + z * z * (r0 * r0 - 2 * r * r - z * z)) / (6 * L0) * F
            + z * z * r * r / (2 * L0) * p - r0 * r0 * z * z / (2 * L0) * nsum))


@pytest.mark.parametrize("theta", [math.pi, -math.pi, 2.5])
def test_twins_match_mpmath_near_the_surfaces(theta):
    # F, E and Pi(n*), Pi(n_plus) and Pi(n_minus) from their exact
    # complements, the n_plus bracket from r0 - r, and float(pi)/2 continued
    # with k = 0
    for r, z, r0 in NEAR_SLOTS:
        want = _mp_forms(r, theta, z, r0)
        got = (ind.j_tube(r, theta, z, r0), ind.i_cyl_ell(r, theta, z, r0),
               ind.j_cyl_ell(r, theta, z, r0))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * max(abs(w), 1.0), (r, theta, z, r0)


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


def _s_plus(a):
    """sgn(rho - r), rho = sqrt(r0^2 + z^2): the sign of the n_plus bracket."""
    d = math.hypot(a.r0, a.z) - a.r
    return math.copysign(1.0, d) if d != 0.0 else 0.0


def _bracket_alt(a, sign):
    """The bracket via (L0/(2 r0)) s_pm sqrt(n_pm (n_pm - m)), s_minus = +1.
    n_plus - m is formed as 2 r0 (rho - r)^2 / ((r0 + rho) L0^2), exact
    since L0^2 - 2 r (r0 + rho) = (rho - r)^2; the difference of the
    rounded values loses its digits at r = r0, z -> 0."""
    n, s = (ind._n_plus(a), _s_plus(a)) if sign > 0 else (ind._n_minus(a), 1.0)
    rho = math.hypot(a.r0, a.z)
    gap = (2.0 * a.r0 * (rho - a.r) ** 2 / ((a.r0 + rho) * a.L0 ** 2)
           if sign > 0 else n - a.m)
    return a.L0 / (2.0 * a.r0) * s * math.sqrt(n * gap)


def test_aux_plugin_arithmetic():
    a = aux(0.0, 1.0, 1.0)
    assert a.m == 0.0
    assert a.A == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert ind._n_plus(a) == pytest.approx(2.0 / (1.0 + math.sqrt(2.0)), rel=1e-15)
    assert ind._n_minus(a) == pytest.approx(-2.0 * (1.0 + math.sqrt(2.0)), rel=1e-15)


def test_aux_boundary_at_equal_radii():
    a = aux(1.0, 0.7, 1.0)
    assert a.m + a.A ** 2 == pytest.approx(1.0, abs=1e-15)
    assert 0.0 < ind._n_plus(a) < 1.0


@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
@example(r=1.0, r0=1.0, z=0.00390625)
def test_alternate_prefactor_identity(r, r0, z):
    if abs(z) < 1e-3:
        z = 0.5
    a = aux(r, z, r0)
    for sign in (+1, -1):
        assert ind._bracket(a, sign) == pytest.approx(_bracket_alt(a, sign),
                                                      rel=1e-12, abs=1e-12)
    # _bracket_alt(+1) forms n_plus - m exactly; check aux's rounded m against it
    rho = math.hypot(r0, z)
    exact_gap = 2.0 * r0 * (rho - r) ** 2 / ((r0 + rho) * ((r + r0) ** 2 + z * z))
    assert ind._n_plus(a) - a.m == pytest.approx(exact_gap, rel=0, abs=1e-12)


def test_aux_tiny_z_overflows_to_the_z0_limit():
    # z * z underflows below |z| ~ 1.5e-162; dividing by z twice instead
    # overflows to the z = 0 limit
    for z in (1e-160, 1e-200, 5e-324, -1e-300):
        a = aux(1.0, z, 0.5)
        assert ind._n_minus(a) == -math.inf
        assert ind._bracket(a, -1) == math.inf
    assert ind._n_minus(aux(1.0, 0.0, 0.5)) == -math.inf


def test_takahashi_n_minus_is_the_pairs_bit_for_bit(monkeypatch):
    # phi_disk(form="takahashi") forms n_minus inline, in slots (R, z; r);
    # it reaches elliptic.cel_pair as 1 - n_minus, which the branch calls
    # only where n_minus is finite
    seen, cel_pair = [], el.cel_pair

    def spy(*args):
        seen.append(args[4])
        return cel_pair(*args)

    monkeypatch.setattr(el, "cel_pair", spy)
    disk = DiskSpec(1.0, 1.0)
    rng = np.random.default_rng(0)
    points = [(0.5, 0.0), (0.0, 0.0), (1.5, 0.0), (0.5, 1e-160), (2.0, -1e-160)]
    points += [(float(r), float(z)) for r, z in zip(rng.uniform(0.0, 3.0, 200),
                                                    rng.uniform(-3.0, 3.0, 200))]
    for r, z in points:
        seen.clear()
        fl.phi_disk((r, z), disk, "takahashi")
        n_minus = ind._n_minus(aux(disk.R, z, r))
        if abs(z) <= 1e-160:
            assert n_minus == -math.inf
        assert seen == ([] if n_minus == -math.inf else [1.0 - n_minus])
