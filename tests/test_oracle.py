import math

import numpy as np
import pytest

from appellfield import oracle as oc, verify
from appellfield.errors import ConvergenceError, DomainError
from appellfield.geometry import CylinderSpec, DiskSpec, TubeSpec

TUBE = TubeSpec(1.0, 0.7, 1.0)
CYL = CylinderSpec(1.0, 0.7, 1.0)
TOLS = (1e-12, 1e-10)  # quad_1d's abs_tol and rel_tol


def test_quad_1d_basic():
    v, e = oc.quad_1d(math.sin, 0.0, math.pi, *TOLS)
    assert v == pytest.approx(2.0, rel=1e-12)
    assert abs(v - 2.0) <= e


def test_quad_1d_endpoint_singularity():
    # an integrable endpoint singularity is the caller's to take out: here
    # x = u^2 makes 1/sqrt(x) dx the constant 2 du
    v, _ = oc.quad_1d(lambda u: 1.0 / math.sqrt(u * u) * 2.0 * u, 0.0, 1.0, *TOLS)
    assert v == pytest.approx(2.0, rel=1e-9)


def test_quad_1d_oscillatory_analytic():
    b = 40.0
    v, _ = oc.quad_1d(lambda x: math.exp(x) * math.sin(b * x), 0.0, 3.0, 1e-12, 1e-11)
    exact = (math.exp(3.0) * (math.sin(3 * b) - b * math.cos(3 * b)) + b) / (1 + b * b)
    assert v == pytest.approx(exact, rel=1e-10)


def test_quad_1d_reversed_and_empty():
    v, _ = oc.quad_1d(math.cos, 1.0, 0.0, *TOLS)
    assert v == pytest.approx(-math.sin(1.0), rel=1e-10)
    assert oc.quad_1d(math.cos, 2.0, 2.0, *TOLS) == (0.0, 0.0)


def test_kronrod_rule_exact():
    # weights summing to 2 integrate constants exactly
    assert math.fsum(oc._KRONROD_WEIGHTS) == 2.0
    assert math.fsum(oc._GAUSS_WEIGHTS) == 2.0
    assert oc.quad_1d(lambda x: 1.0, 0.0, 1.0, *TOLS)[0] == 1.0


def test_error_estimate_tracks_requested_tolerance():
    # quartering rel_tol must shrink the reported estimate by >= 4x
    f = lambda x: math.exp(x) * math.sin(7.0 * x)
    prev = None
    for rel in (1e-4, 2.5e-5, 6.25e-6):
        _, est = oc.quad_1d(f, 0.0, 2.0, 1e-15, rel)
        if prev is not None:
            assert prev / est >= 4.0 * 0.999
        prev = est


def test_quad_1d_nonintegrable_raises():
    with pytest.raises(ConvergenceError):
        oc.quad_1d(lambda x: 1.0 / x, 0.0, 1.0, *TOLS)


def test_fd_operators_trivial():
    # f_rr + f_r/r + f_zz and f_rr - f_r/r + f_zz of r^2 are 4 and 0
    laplacian, psi_operator = oc.fd_cyl_operators(lambda r, z: r * r, 1.3, 0.2, 1e-3)
    assert laplacian == pytest.approx(4.0, abs=1e-6)
    assert psi_operator == pytest.approx(0.0, abs=1e-6)
    assert oc.fd_cyl_operators(lambda r, z: z, 1.3, 0.2, 1e-3) == pytest.approx(
        (0.0, 0.0), abs=1e-9)
    with pytest.raises(DomainError):
        oc.fd_cyl_operators(lambda r, z: r, 0.01, 0.0, 0.05)


def test_fd_operators_evaluate_the_stencil_once():
    calls = []

    def f(r, z):
        calls.append((r, z))
        return r ** 3 + z * z

    laplacian, psi_operator = oc.fd_cyl_operators(f, 1.3, 0.2, 1e-3)
    assert len(calls) == len(set(calls)) == 5
    # 9 r + 2 and 3 r + 2
    assert laplacian == pytest.approx(9.0 * 1.3 + 2.0, abs=1e-5)
    assert psi_operator == pytest.approx(3.0 * 1.3 + 2.0, abs=1e-5)


def test_fd_operator_convergence_order():
    f = lambda r, z: math.sin(r) * math.exp(z) + r ** 3 * z * z
    exact = (-math.sin(1.3) + math.cos(1.3) / 1.3 + math.sin(1.3)) * math.exp(0.4) \
        + (6 * 1.3 + 3 * 1.3) * 0.4 ** 2 + 2 * 1.3 ** 3
    e1 = abs(oc.fd_cyl_operators(f, 1.3, 0.4, 0.1)[0] - exact)
    e2 = abs(oc.fd_cyl_operators(f, 1.3, 0.4, 0.05)[0] - exact)
    order = math.log2(e1 / e2)
    assert 1.8 <= order <= 2.2


RECTANGLE = [(0.3, -1.05), (2.0, -1.05), (2.0, 1.05), (0.3, 1.05)]
# the square of side 0.8 about (1.5, 0.2), counterclockwise
SQUARE = [(1.1, -0.2), (1.9, -0.2), (1.9, 0.6), (1.1, 0.6)]


def _along(vector):
    """The loop_integral field of vector(r, z) = (f_r, f_z): its component
    f_r dr + f_z dz along the side (dr, dz)."""
    def field(r, z, dr, dz):
        fr, fz = vector(r, z)
        return fr * dr + fz * dz
    return field


def test_loop_rules_integrate_an_exact_gradient_to_zero():
    # the gradient of r^2 z, and the rotational field (-z, r), whose
    # circulation is twice the enclosed area
    grad = _along(lambda r, z: (2.0 * r * z, r * r))
    swirl = _along(lambda r, z: (-z, r))
    assert abs(oc.loop_integral(grad, RECTANGLE)) <= 1e-13
    assert abs(oc.loop_integral(grad, SQUARE)) <= 1e-13
    assert oc.loop_integral(swirl, RECTANGLE) == pytest.approx(2.0 * 1.7 * 2.1, abs=1e-13)
    assert oc.loop_integral(swirl, SQUARE) == pytest.approx(2.0 * 0.64, abs=1e-13)
    # clockwise, the circulation changes sign
    assert oc.loop_integral(swirl, SQUARE[::-1]) == pytest.approx(-2.0 * 0.64, abs=1e-13)


def test_loop_integral_takes_a_step_by_its_trapezoid():
    # the rectangle with its r = 0.3 side split at z = +-0.1, the short
    # side between them a step: exact for a field linear along the step
    split = RECTANGLE + [(0.3, 0.1), (0.3, -0.1)]
    grad = _along(lambda r, z: (2.0 * r * z, r * r))
    assert abs(oc.loop_integral(grad, split, steps=(4,))) <= 1e-13
    # a field quadratic along the step: its trapezoid misses by h^3 f''/12
    bump = _along(lambda r, z: (0.0, z * z))
    assert oc.loop_integral(bump, split, steps=(4,)) == pytest.approx(
        -(0.2 ** 3) * 2.0 / 12.0, abs=1e-13)
    with pytest.raises(DomainError):
        oc.loop_integral(grad, RECTANGLE[:2])


def test_loop_rules_of_a_single_valued_function_vanish():
    f = lambda r, z: r * r * z + math.sin(z)
    grad = _along(lambda r, z: oc.fd_gradient(f, r, z, 1e-4))
    assert abs(oc.loop_integral(grad, RECTANGLE)) < 1e-9
    assert abs(oc.loop_integral(grad, [(1.1, -0.4), (1.9, -0.4), (1.9, 0.4), (1.1, 0.4)])) < 1e-9


def test_gauss_legendre_rule():
    # exact to degree 2n - 1
    assert oc.gauss_legendre(lambda x: x ** 15, -1.0, 2.0, 8) == pytest.approx(
        (2.0 ** 16 - 1.0) / 16.0, rel=1e-14)
    assert oc.gauss_legendre(math.exp, 0.0, 1.0, 8) == pytest.approx(math.e - 1.0, rel=1e-15)


# three integrands analytic about [0, 40] but for singularities at least h
# from 0, with their antiderivatives
_GRADED_INTEGRANDS = [(lambda x: 1.0 / (x * x + 0.04), lambda x: 5.0 * math.atan(5.0 * x), 0.2),
                      (lambda x: math.log(x + 0.3), lambda x: (x + 0.3) * math.log(x + 0.3) - x,
                       0.3),
                      (lambda x: 1.0 / (1.0 + x) ** 2, lambda x: -1.0 / (1.0 + x), 1.0)]


@pytest.mark.parametrize("f,F,h", _GRADED_INTEGRANDS)
@pytest.mark.parametrize("lo,hi", [(0.0, 3.0), (0.05, 3.0), (0.7, 40.0), (0.0, 1e-3)])
def test_graded_rule_matches_the_antiderivative(f, F, h, lo, hi):
    # within 8 ulps of the integral of |f|, and the rounding of F(hi) - F(lo)
    scale = oc.graded_gauss_legendre(lambda x: abs(f(x)), h, lo, hi)
    exact = F(hi) - F(lo)
    tol = 8.0 * math.ulp(scale) + 2.0 * math.ulp(max(abs(F(hi)), abs(F(lo))))
    assert abs(oc.graded_gauss_legendre(f, h, lo, hi) - exact) <= tol


def test_graded_rule_is_exact_to_degree_31_on_each_panel():
    # h = 0.25 over [0, 3]: the panels [0, 0.25], [0.25, 0.5], [0.5, 1],
    # [1, 2] and [2, 4] clipped to [2, 3], each taken alone as [lo, hi]
    for a, b in ((0.0, 0.25), (0.25, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.0)):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for k in range(33):
            def f(x, k=k):
                return ((x - mid) / half) ** k
            err = oc.graded_gauss_legendre(f, 0.25, a, b) - half * (
                2.0 / (k + 1) if k % 2 == 0 else 0.0)
            if k <= 31:
                assert abs(err) <= 4.0 * math.ulp(2.0 * half), (a, b, k)
            else:
                assert abs(err) > 1e-10 * half
    assert oc.graded_gauss_legendre(math.cos, 0.25, 2.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        oc.graded_gauss_legendre(math.cos, 0.0, 0.0, 1.0)


def test_graded_rule_each_is_the_scalar_rule_bit_for_bit():
    # seeded (h, lo, hi) of 0 to about 40 panels, mixed in one call, with
    # lo == hi among them; the integrand uses + - * / only, which numpy
    # rounds as Python does
    rng = np.random.default_rng(23)
    n = 60
    h = 10.0 ** rng.uniform(-12.0, 0.0, n)
    hi = rng.uniform(0.0, 3.0, n)
    lo = np.where(rng.uniform(size=n) < 0.5, 0.0, hi * rng.uniform(size=n))
    # lo == hi: at 0 and at a panel end (no panel), and inside a panel (one
    # of zero width)
    hi[:2], hi[2:4] = 0.0, 4.0 * h[2:4]
    lo[:6] = hi[:6]
    shift = rng.uniform(0.1, 2.0, n)

    def f(u, i):
        return u / (shift[i] + u * u)

    counts = [len(oc._graded_panels(*args)) for args in zip(h, lo, hi)]
    assert min(counts) == 0 and max(counts) >= 35 and len(set(counts)) > 10
    got = oc.graded_gauss_legendre_each(f, h, lo, hi)
    want = [oc.graded_gauss_legendre(lambda u, i=i: f(u, i), *args)
            for i, args in enumerate(zip(h.tolist(), lo.tolist(), hi.tolist()))]
    assert [repr(float(v)) for v in got] == [repr(float(v)) for v in want]


def test_graded_references_refuse_a_non_finite_integrand(monkeypatch):
    # a nan reference would pass a check silently, since max(0.0, nan) is 0.0
    from appellfield import hypergeom
    assert math.isfinite(hypergeom._i_hyg_defining(0.5, 0.3, 1.0))
    monkeypatch.setattr(oc, "_asinh_gap", lambda *args: math.nan)
    monkeypatch.setattr(oc, "_inv_root_plus", lambda *args: math.nan)
    # the defining integral's integrand ends in math.log1p
    monkeypatch.setattr(math, "log1p", lambda x: math.nan)
    for body in (TUBE, CYL):
        for fn in (oc.coulomb_phi, oc.coulomb_psi):
            with pytest.raises(DomainError, match="not finite"):
                fn((1.5, 0.3), body)
    for theta in (1.0, -3.0):
        with pytest.raises(DomainError, match="not finite"):
            hypergeom._i_hyg_defining(0.5, 0.3, theta)


@pytest.mark.parametrize("n", [1, 2, 8, 24, 40])
def test_legendre_rule_matches_numpy(n):
    # numpy's leggauss weights are themselves up to 7e-13 off at n = 40
    nodes, weights = np.polynomial.legendre.leggauss(n)
    rule = sorted(oc._legendre_rule(n))
    assert np.allclose([x for x, _ in rule], nodes, rtol=0.0, atol=2e-16)
    assert np.allclose([w for _, w in rule], weights, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("body", [TUBE, CYL], ids=["tube", "cyl"])
def test_coulomb_psi_mirror_antisymmetry(body):
    up = oc.coulomb_psi((1.4, 0.6), body)
    assert up > 0.0
    assert oc.coulomb_psi((1.4, -0.6), body) == -up


def _tube_axis_phi(z):
    R, Z = TUBE.R, TUBE.Z
    return 2.0 * math.pi * TUBE.sigma0 * R * (math.asinh((z + Z) / R) - math.asinh((z - Z) / R))


def _cyl_axis_phi(z):
    # 2 pi rho int_0^R r' dr' int_-Z^Z dz' / sqrt(r'^2 + (z - z')^2)
    R, Z = CYL.R, CYL.Z

    def h(c):
        return R * R / 2.0 * math.asinh(c / R) + c / 2.0 * math.hypot(R, c) - c * abs(c) / 2.0

    return 2.0 * math.pi * CYL.rho0 * (h(z + Z) - h(z - Z))


@pytest.mark.parametrize("z", [0.0, 0.35, -0.7, 0.7 + 1e-9, 2.0, -5.0, 10.0])
def test_coulomb_on_axis_exact(z):
    # on the axis each angular integrand is constant; the formulas' own float
    # rounding reaches 4.3e-14 at z = 10
    assert oc.coulomb_phi((0.0, z), TUBE) == pytest.approx(_tube_axis_phi(z), rel=1e-13)
    assert oc.coulomb_phi((0.0, z), CYL) == pytest.approx(_cyl_axis_phi(z), rel=1e-13)
    if z != 0.0:
        assert oc.coulomb_psi((0.0, z), TUBE) == math.copysign(TUBE.total_charge, z)
    if abs(z) > CYL.Z:
        assert oc.coulomb_psi((0.0, z), CYL) == math.copysign(CYL.total_charge, z)


def _mp_tube(mp, r, z):
    """(phi, psi) of TUBE by mpmath quadrature over theta of the ring kernel
    with its z' integral done exactly."""
    R, Z, sigma = (mp.mpf(v) for v in (TUBE.R, TUBE.Z, TUBE.sigma0))
    r, z = mp.mpf(r), mp.mpf(z)

    def dist(th):
        return mp.sqrt((r - R) ** 2 + 4 * r * R * mp.sin(th / 2) ** 2)

    def phi_f(th):
        D = dist(th)
        return mp.asinh((z + Z) / D) - mp.asinh((z - Z) / D)

    def psi_f(th):
        D = dist(th)
        a, b = abs(z) + Z, abs(z) - Z
        return (r - R * mp.cos(th)) / D ** 2 * (2 * Z - mp.hypot(D, a) + mp.hypot(D, b))

    phi = 2 * sigma * R * mp.quad(phi_f, [0, mp.pi])
    psi = mp.sign(z) * (4 * mp.pi * R * Z * sigma - 2 * sigma * R * r * mp.quad(psi_f, [0, mp.pi]))
    return phi, psi


def _mp_cyl(mp, r, z):
    """(phi, psi) of CYL by mpmath quadrature over the angle of a polar frame
    centred on the point, the radial and z' integrals done exactly."""
    R, Z, rho = (mp.mpf(v) for v in (CYL.R, CYL.Z, CYL.rho0))
    r, z = mp.mpf(r), mp.mpf(z)
    a, b = abs(z) + Z, abs(z) - Z

    def W(D):  # int_0^D t dt int_-Z^Z dz' / sqrt(t^2 + (z - z')^2)
        def H(c):
            return D * D / 2 * mp.asinh(c / D) + c / 2 * mp.hypot(D, c) if D else c * abs(c) / 2
        return H(z + Z) - H(z - Z)

    def N(D):  # int_0^D [2Z - sqrt(t^2 + a^2) + sqrt(t^2 + b^2)] dt
        def M(c):
            return (D * mp.hypot(D, c) + c * c * mp.asinh(D / abs(c))) / 2
        return 2 * Z * D - M(a) + M(b)

    def chord(al):  # ray lengths (in, out) through the disk r' < R
        c = mp.cos(al)
        q = mp.sqrt(max(R * R - r * r * mp.sin(al) ** 2, 0))
        return (mp.mpf(0) if r < R else -r * c - q), -r * c + q

    # r < R: the chord length has a kink-like turn at pi/2 as r -> R
    span = [0, mp.pi / 2, mp.pi] if r < R else [mp.pi - mp.asin(R / r), mp.pi]
    phi = 2 * rho * mp.quad(lambda al: W(chord(al)[1]) - W(chord(al)[0]), span)
    if r <= R and abs(z) <= Z:
        return phi, None
    flux = mp.quad(lambda al: mp.cos(al) * (N(chord(al)[1]) - N(chord(al)[0])), span)
    return phi, mp.sign(z) * (2 * mp.pi * R * R * Z * rho + 2 * rho * r * flux)


_MPMATH_POINTS = [
    ("tube", 1.5, 0.3), ("tube", 0.5, 1.2), ("tube", 1.0 + 1e-9, -0.3), ("tube", 1.0, 0.3),
    ("cyl", 0.5, 0.3), ("cyl", 1.5, -0.3), ("cyl", 0.5, 1.2), ("cyl", 1.0 - 1e-9, 0.3),
    ("cyl", 2.0, 0.7 + 1e-9),
]
# every point at which C08 (phi) or C14 (psi) takes a reference, in the fast
# and the full suite, for both bodies: 1e-9 from each charged surface and end
# plane, on the axis, and off the bodies down to (1.05, -0.56)
_VERIFY_POINTS = sorted(set(verify._cyl_exterior_points(20)) | set(verify._surface_axis_points())
                        | set(verify._PSI_TUBE_POINTS) | set(verify._PSI_CYL_POINTS))


@pytest.mark.parametrize("body,r,z", _MPMATH_POINTS + [
    (body, r, z) for body in ("tube", "cyl") for (r, z) in _VERIFY_POINTS
    if (body, r, z) not in _MPMATH_POINTS])
def test_coulomb_matches_mpmath(body, r, z):
    mp = pytest.importorskip("mpmath")
    spec, ref = (TUBE, _mp_tube) if body == "tube" else (CYL, _mp_cyl)
    with mp.workdps(30):
        phi, psi = ref(mp, r, z)
    assert oc.coulomb_phi((r, z), spec) == pytest.approx(float(phi), rel=1e-13)
    if psi is not None and not (body == "tube" and r == TUBE.R and abs(z) < TUBE.Z):
        assert oc.coulomb_psi((r, z), spec) == pytest.approx(float(psi), rel=1e-13)


def test_coulomb_refuses_points_beyond_its_validated_range():
    # past 1e2 max(R, Z) from the origin the cylinder's chord differences
    # cancel; both references raise there, for both bodies
    for spec in (TUBE, CYL):
        for fn in (oc.coulomb_phi, oc.coulomb_psi):
            for point in ((100.0, 1.0), (0.0, -100.5), (3.0, math.inf), (0.0, math.nan)):
                with pytest.raises(DomainError, match="beyond"):
                    fn(point, spec)
            # as in fields, a point has r >= 0
            for point in ((-0.5, 1.3), (math.nan, 0.0)):
                with pytest.raises(DomainError, match="non-negative"):
                    fn(point, spec)
        # hypot(60, 80) is 100 exactly, on the edge of the range
        assert math.isfinite(oc.coulomb_phi((60.0, 80.0), spec))
        assert math.isfinite(oc.coulomb_psi((60.0, 80.0), spec))
    # the range scales with the larger of R and Z
    assert math.isfinite(oc.coulomb_phi((0.0, 250.0), TubeSpec(1.0, 3.0, 1.0)))
    with pytest.raises(DomainError, match="beyond"):
        oc.coulomb_phi((0.0, 301.0), CylinderSpec(1.0, 3.0, 1.0))


def test_coulomb_excluded_points():
    with pytest.raises(DomainError):
        oc.coulomb_psi((1.0, 0.3), TUBE)
    with pytest.raises(DomainError):
        oc.coulomb_psi((0.5, 0.3), CYL)
    with pytest.raises(DomainError):
        oc.coulomb_phi((1.0, 0.3), DiskSpec(1.0, 1.0))


def test_quad_1d_checks_its_tolerances():
    for tols in ((0.0, 1e-10), (1e-12, -1e-10), (math.nan, 1e-10)):
        with pytest.raises(DomainError, match="positive"):
            oc.quad_1d(math.cos, 0.0, 1.0, *tols)
    with pytest.raises(TypeError):
        oc.quad_1d(math.cos, 0.0, 1.0, 1e-12, 1e-10, True)
