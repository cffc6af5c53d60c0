import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from appellfield import elliptic as el
from appellfield import fields as fl
from appellfield import indefinite
from appellfield import oracle as oc
from appellfield.errors import ConvergenceError, DomainError, SingularityError
from appellfield.geometry import CylinderSpec, DiskSpec, TubeSpec, aux

CYL = CylinderSpec(R=1.0, Z=0.7, rho0=1.0)
TUBE = TubeSpec(R=1.0, Z=0.7, sigma0=1.0)
DISK = DiskSpec(R=1.0, sigma=1.0)

# brute-force Coulomb/kernel integrals, frozen
PHI_CYL_15_03 = 2.911761508333128
PHI_CYL_06_02 = 5.632388647431276
PSI_CYL_05_12 = 4.121993274197439
PHI_TUBE_15_03 = 6.086693309552363
PSI_TUBE_15_03 = 1.9884147301598052
PHI_DISK_13_04 = 2.425062662470501


def test_aux_plugin_arithmetic():
    a = aux(0.0, 1.0, 1.0)
    assert a.m == 0.0
    assert a.A == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert a.n_plus == pytest.approx(2.0 / (1.0 + math.sqrt(2.0)), rel=1e-15)
    assert a.n_minus == pytest.approx(-2.0 * (1.0 + math.sqrt(2.0)), rel=1e-15)


def test_aux_boundary_at_equal_radii():
    a = aux(1.0, 0.7, 1.0)
    assert a.m + a.A ** 2 == pytest.approx(1.0, abs=1e-15)
    assert 0.0 < a.n_plus < 1.0


@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
@example(r=1.0, r0=1.0, z=0.00390625)
def test_alternate_prefactor_identity(r, r0, z):
    if abs(z) < 1e-3:
        z = 0.5
    a = aux(r, z, r0)
    for sign in (+1, -1):
        assert a.bracket(sign) == pytest.approx(a.bracket_alt(sign),
                                                rel=1e-12, abs=1e-12)
    # bracket_alt(+1) forms n_plus - m exactly; check aux's rounded m against it
    rho = math.hypot(r0, z)
    exact_gap = 2.0 * r0 * (rho - r) ** 2 / ((r0 + rho) * ((r + r0) ** 2 + z * z))
    assert a.n_plus - a.m == pytest.approx(exact_gap, rel=0, abs=1e-12)


def test_aux_tiny_z_overflows_to_the_z0_limit():
    # z * z underflows below |z| ~ 1.5e-162; dividing by z twice instead
    # overflows to the z = 0 limit
    for z in (1e-160, 1e-200, 5e-324, -1e-300):
        a = aux(1.0, z, 0.5)
        assert a.n_minus == -math.inf
        assert a.bracket(-1) == math.inf
    assert aux(1.0, 0.0, 0.5).n_minus == -math.inf


@pytest.mark.parametrize("z", [10.0, 1e2, 1e3, -1e3, 1e4])
def test_phi_tube_on_the_axis_far_out(z):
    # exact on-axis form 2 pi R sigma [asinh((z+Z)/R) - asinh((z-Z)/R)]; the
    # theta = pi integral is pi atanh(A) there, read from the exact 1 - A^2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        R, Z, zz = TUBE.R, mpmath.mpf(TUBE.Z), mpmath.mpf(z)
        ref = float(2 * mpmath.pi * R * TUBE.sigma0
                    * (mpmath.asinh((zz + Z) / R) - mpmath.asinh((zz - Z) / R)))
    assert fl.phi_tube((0.0, z), TUBE) == pytest.approx(ref, rel=2e-11, abs=0.0)


@pytest.mark.parametrize("z", [1e2, 1e3, 1e4])
def test_phi_tube_on_the_r_equals_R_column_far_out(z):
    # the ring integral sigma R int_{-Z}^{Z} 4 K(m)/L0 dz' with
    # L0^2 = 4 R^2 + (z - z')^2 and m = 4 R^2/L0^2: here the end terms take
    # the surface value at m = 4/(4 + (z -+ Z)^2), on its 4F3 series route
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        R, Z, zz = mpmath.mpf(TUBE.R), mpmath.mpf(TUBE.Z), mpmath.mpf(z)

        def ring(zp):
            L2 = 4 * R * R + (zz - zp) ** 2
            return 4 * mpmath.ellipk(4 * R * R / L2) / mpmath.sqrt(L2)

        ref = float(TUBE.sigma0 * R * mpmath.quad(ring, [-Z, 0, Z]))
    assert fl.phi_tube((1.0, z), TUBE) == pytest.approx(ref, rel=2e-11, abs=0.0)


def _phi_disk_takahashi(point, spec):
    return fl.phi_disk(point, spec, "takahashi")


def _ray45(d):
    # the point at distance d from the centre on the 45-degree ray
    return d / 2 ** 0.5, d / 2 ** 0.5


@pytest.mark.parametrize("phi, spec, point", [
    (fl.phi_cyl, CYL, (1.0, 1e4)), (fl.phi_cyl, CYL, (1.0, 1e6)), (fl.phi_cyl, CYL, (0.0, 1e6)),
    (fl.phi_tube, TUBE, (1.0, 1e9)), (fl.phi_tube, TUBE, (1.0, 1e20)),
    (fl.phi_tube, TUBE, (0.0, 1e100)),
    (fl.phi_disk, DISK, (3.0, 1e20)), (fl.phi_disk, DISK, (3.0, 1e100)),
    (fl.phi_disk, DISK, (0.0, 1e8)), (_phi_disk_takahashi, DISK, (3.0, 1e20)),
    (_phi_disk_takahashi, DISK, (3.0, 1e100)), (_phi_disk_takahashi, DISK, (0.0, 1e8)),
    (fl.psi_cyl, CYL, _ray45(1e4)), (fl.psi_cyl, CYL, _ray45(1e6)),
    (fl.psi_tube, TUBE, _ray45(1e12)), (fl.psi_tube, TUBE, _ray45(1e20))])
def test_phi_raises_where_its_end_terms_cancel(phi, spec, point):
    # phi is a small difference of large end terms there: their rounding
    # exceeds 1e-6 of phi. Unguarded, the tube's r = R column reads 3e-4
    # off at z = 1e11 and 0.0 from 1e15, and its axis 0.0 at 1e100; the
    # disk read -32768 at (3, 1e20), 0.0 at (3, 1e100) and 3.8 Q/d at (0, 1e8).
    # psi too, relative to max(|psi|, 1e-3 Q): unguarded, psi_cyl on the
    # 45-degree ray read 7.1e-5 off at d = 1e4 and -55 Q cos t at 1e6, and
    # psi_tube -2.1e-4 Q cos t off at 1e12 and 0.0 at 1e20
    with pytest.raises(ConvergenceError, match="cancel"):
        phi(point, spec)


def test_cancellation_guard_spares_the_figure_window():
    # the z >= 0 half of the 61 x 121 figure grid (the end terms at -z are
    # those at z, exchanged and negated, so the guard reads the same); the
    # cylinder's largest rounding estimate there is 1.6e-14 of phi. Both
    # bodies share their I(m, A; pi) end terms, and so one table per column
    rs, zs = np.linspace(0.0, 3.0, 61).tolist(), np.linspace(0.0, 3.0, 61).tolist()
    for r, ends in zip(rs, fl.phi_end_tables(CYL, rs, zs)):
        for z in zs:
            fl.phi_tube((r, z), TUBE, ends=ends)
            try:
                fl.phi_cyl((r, z), CYL, ends=ends)
                fl.psi_cyl((r, z), CYL, ends=ends)
            except SingularityError:
                assert (r, z) == pytest.approx((CYL.R, CYL.Z))
            try:
                fl.psi_tube((r, z), TUBE, ends=ends)
            except SingularityError:
                assert r == TUBE.R and z < TUBE.Z
    # psi is exactly 0.0 on the plane z = 0: its two even end terms are one
    # value at |zeta| = Z, so they cancel exactly, however large they are
    for r in (1.5, 3.0, 1e3, 1e8, 1e100):
        assert repr(fl.psi_cyl((r, 0.0), CYL)) == repr(fl.psi_tube((r, 0.0), TUBE)) == "0.0"
    # the 45-degree ray keeps its values short of the onsets (2.0e3 and 2.2e9)
    assert fl.psi_cyl(_ray45(1e3), CYL) == pytest.approx(CYL.total_charge / 2 ** 0.5, rel=1e-6)
    assert fl.psi_tube(_ray45(1e6), TUBE) == pytest.approx(TUBE.total_charge / 2 ** 0.5,
                                                           rel=1e-6)


@pytest.mark.parametrize("form", ["lass_blitzer", "takahashi"])
def test_cancellation_guard_spares_the_disk_over_the_figure_window(form):
    # the 61 x 121 figure window; only the disk edge (R, 0) raises
    for r in np.linspace(0.0, 3.0, 61).tolist():
        for z in np.linspace(-3.0, 3.0, 121).tolist():
            try:
                fl.phi_disk((r, z), DISK, form)
            except SingularityError:
                assert (r, z) == (DISK.R, 0.0)


def _pi_star_by_cel(a):
    # (r - r0)(Pi(n* | m) - K(m)) by its own cel call, 0 at r = r0
    r, r0 = a.r, a.r0
    if r == r0:
        return 0.0
    dr, s = r - r0, r + r0
    return el.cel(math.sqrt(a.one_minus_m), (dr / s) ** 2, 0.0, dr * 4.0 * r * r0 / (s * s))


def test_ke_sum_and_pi_star_is_the_two_cel_calls():
    # bit for bit, at seeded slots and at the rim, r = r0, z = 0 and the axis
    rng = np.random.default_rng(19)
    slots = [(1.0, 0.0, 1.0), (1.0, 0.4, 1.0), (1.0, -2.5, 1.0), (0.5, 0.0, 1.0),
             (2.0, 0.0, 1.0), (1.0, 0.3, 0.0), (1.0, 0.0, 1.0 + 1e-15)]
    slots += [(1.0, float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.0, 3.0)))
              for _ in range(300)]
    for R, zeta, r in slots:
        a = aux(R, zeta, r)
        ca, cb = rng.normal(size=2).tolist()
        want = (fl._ke_sum(a, ca, cb), _pi_star_by_cel(a))
        assert repr(fl._ke_sum_and_pi_star(a, ca, cb)) == repr(want), (R, zeta, r)


def test_aux_degenerate():
    with pytest.raises(DomainError):
        aux(0.0, 0.0, 0.0)


@pytest.mark.parametrize("density", [math.nan, math.inf, -math.inf])
def test_body_specs_reject_nonfinite_density(density):
    for make in (lambda: CylinderSpec(1.0, 0.7, density), lambda: TubeSpec(1.0, 0.7, density),
                 lambda: DiskSpec(1.0, density)):
        with pytest.raises(DomainError, match="density"):
            make()


def test_phi_cyl_frozen_points():
    assert fl.phi_cyl((1.5, 0.3), CYL) == pytest.approx(PHI_CYL_15_03, rel=1e-9)
    assert fl.phi_cyl((0.6, 0.2), CYL) == pytest.approx(PHI_CYL_06_02, rel=1e-9)


def test_phi_cyl_on_axis_elementary():
    def phi_axis(z, R=CYL.R, Z=CYL.Z, rho0=CYL.rho0):
        def G(u):
            return (u * math.hypot(R, u) + R * R * math.asinh(u / R)) / 2 - u * abs(u) / 2
        return 2 * math.pi * rho0 * (G(Z - z) - G(-Z - z))

    for z in (2.0, 0.3, -1.1, 0.0):
        assert fl.phi_cyl((0.0, z), CYL) == pytest.approx(phi_axis(z), rel=1e-10)


def test_phi_cyl_far_field():
    d = 100.0
    val = fl.phi_cyl((d / math.sqrt(2), d / math.sqrt(2)), CYL)
    assert val * d / CYL.total_charge == pytest.approx(1.0, abs=1e-3)


def test_far_field_error_decays_monotonically():
    # |phi sqrt(r^2+z^2)/Q - 1| must fall off along a radial ray
    direction = (0.6, 0.8)
    errs = []
    for d in (8.0, 16.0, 32.0, 64.0, 128.0):
        r, z = d * direction[0], d * direction[1]
        errs.append(abs(fl.phi_cyl((r, z), CYL) * d / CYL.total_charge - 1.0))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    # quadrupole-type decay: quartering with each doubling, within slack
    assert errs[-1] < errs[0] / 100.0


def test_phi_cyl_continuity_and_smoothness_across_surface():
    eps = 1e-6
    # C0 across r = R and across z = Z
    assert fl.phi_cyl((1.0 - eps, 0.3), CYL) == pytest.approx(
        fl.phi_cyl((1.0 + eps, 0.3), CYL), abs=1e-4)
    assert fl.phi_cyl((0.5, 0.7 - eps), CYL) == pytest.approx(
        fl.phi_cyl((0.5, 0.7 + eps), CYL), abs=1e-4)
    # C1 in z across z = Z: one-sided slopes agree
    h = 1e-4
    s_in = (fl.phi_cyl((0.5, 0.7 - h), CYL) - fl.phi_cyl((0.5, 0.7 - 3 * h), CYL)) / (2 * h)
    s_out = (fl.phi_cyl((0.5, 0.7 + 3 * h), CYL) - fl.phi_cyl((0.5, 0.7 + h), CYL)) / (2 * h)
    assert s_in == pytest.approx(s_out, abs=5e-3)


def test_phi_cyl_edge_circle_excluded():
    with pytest.raises(SingularityError):
        fl.phi_cyl((1.0, 0.7), CYL)


def test_psi_cyl_marker_and_values():
    assert fl.psi_cyl((0.5, 0.2), CYL) is None
    assert fl.psi_cyl((1.0, 0.3), CYL) is None  # closed-region boundary
    s = fl.psi_cyl((0.5, 1.2), CYL)
    assert s == pytest.approx(PSI_CYL_05_12, rel=1e-8)


def test_psi_cyl_odd_in_z():
    up = fl.psi_cyl((1.5, 0.9), CYL)
    down = fl.psi_cyl((1.5, -0.9), CYL)
    assert up == pytest.approx(-down, rel=1e-12)


def test_psi_cyl_far_field():
    r, z = 40.0, 60.0
    d = math.hypot(r, z)
    assert fl.psi_cyl((r, z), CYL) == pytest.approx(
        CYL.total_charge * z / d, rel=1e-3)


@pytest.mark.parametrize("z", [1.5, -1e2, 3e4, -1e6])
def test_psi_on_the_axis_is_exact(z):
    # psi is constant along the axis outside the charge and tends to
    # Q z/d at infinity, so it is sgn(z) Q there. The assemblies form it
    # without cancelling K against E; computed as that difference, psi_cyl
    # is 5e-4 off at |z| = 3e4 and has no correct digit at 1e6
    assert fl.psi_cyl((0.0, z), CYL) == pytest.approx(
        math.copysign(CYL.total_charge, z), rel=1e-15)
    assert fl.psi_tube((0.0, z), TUBE) == pytest.approx(
        math.copysign(TUBE.total_charge, z), rel=1e-15)


def test_phi_tube_values_and_surface():
    assert fl.phi_tube((1.5, 0.3), TUBE) == pytest.approx(PHI_TUBE_15_03, rel=1e-9)
    # on the charged sheet phi is finite and continuous
    inner = fl.phi_tube((1.0 - 1e-7, 0.3), TUBE)
    on = fl.phi_tube((1.0, 0.3), TUBE)
    outer = fl.phi_tube((1.0 + 1e-7, 0.3), TUBE)
    assert min(inner, outer) - 1e-3 < on < max(inner, outer) + 1e-3


def test_phi_tube_surface_against_quadrature():
    # z' integrated in closed form, theta by quadrature (the on-surface kernel
    # leaves an integrable log endpoint at theta = pi)
    z_obs = 0.3

    def integrand(th):
        a = 2.0 * np.abs(np.cos(th / 2.0))
        return np.arcsinh((z_obs + TUBE.Z) / a) - np.arcsinh((z_obs - TUBE.Z) / a)

    spec = oc.QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9,
                             singular_endpoints=(False, True))
    val, _ = oc.quad_1d(integrand, 0.0, math.pi, spec, vectorized=True)
    ref = 2.0 * TUBE.sigma0 * TUBE.R * val
    assert fl.phi_tube((1.0, z_obs), TUBE) == pytest.approx(ref, rel=1e-8)


def test_psi_tube_branches_and_jump():
    base = fl.psi_tube((1.5, 0.3), TUBE)
    assert base == pytest.approx(PSI_TUBE_15_03, rel=1e-9)
    jump = fl.tube_branch_jump(TUBE)
    assert jump == pytest.approx(8.0 * math.pi * 0.7, rel=1e-15)
    assert jump == pytest.approx(17.593, abs=1e-3)
    shifted = fl.psi_tube((1.5, 0.3), TUBE, branch=1)
    assert shifted == pytest.approx(base + jump, rel=1e-12)
    # odd symmetry on branch 0 outside
    assert fl.psi_tube((1.5, -0.3), TUBE) == pytest.approx(-base, rel=1e-12)


def test_psi_tube_surface_excluded():
    with pytest.raises(SingularityError):
        fl.psi_tube((1.0, 0.3), TUBE)
    # but defined on r = R beyond the sheet
    assert fl.psi_tube((1.0, 1.1), TUBE) is not None


def test_disk_forms_and_axis():
    R, sigma = 1.0, 1.0
    lb = fl.phi_disk((1.3, 0.4), DISK, "lass_blitzer")
    tk = fl.phi_disk((1.3, 0.4), DISK, "takahashi")
    assert lb == pytest.approx(PHI_DISK_13_04, rel=1e-10)
    assert lb == pytest.approx(tk, rel=1e-12)
    for z in (0.5, -1.2):
        exact = 2 * math.pi * sigma * (math.hypot(R, z) - abs(z))
        assert fl.phi_disk((0.0, z), DISK) == pytest.approx(exact, rel=1e-12)
    with pytest.raises(SingularityError):
        fl.phi_disk((1.0, 0.0), DISK)
    with pytest.raises(DomainError):
        fl.phi_disk((0.5, 0.5), DISK, "unknown")


@pytest.mark.parametrize("form", ["lass_blitzer", "takahashi"])
def test_disk_tiny_z_is_the_z0_value(form):
    for r in (0.0, 0.5, 1.5, 3.0):
        at_zero = fl.phi_disk((r, 0.0), DISK, form)
        for z in (1e-100, 1e-160, 1e-200, 1e-300, 5e-324, -1e-200):
            assert fl.phi_disk((r, z), DISK, form) == pytest.approx(at_zero, rel=1e-15)


def test_disk_far_field_multipole():
    R, sigma = 1.0, 1.0
    r, z = 60.0, 80.0
    d = math.hypot(r, z)
    assert fl.phi_disk((r, z), DISK) == pytest.approx(
        math.pi * R * R * sigma / d, rel=1e-3)


@given(st.floats(0.05, 2.5), st.floats(-2.0, 2.0))
@settings(max_examples=50, deadline=None)
def test_disk_forms_agree_everywhere(r, z):
    if abs(r - 1.0) < 0.02 and abs(z) < 0.02:
        return  # edge neighborhood excluded
    if abs(z) < 1e-6:
        z = 0.0  # exercise the exact z = 0 limit path
    lb = fl.phi_disk((r, z), DISK, "lass_blitzer")
    tk = fl.phi_disk((r, z), DISK, "takahashi")
    assert lb == pytest.approx(tk, rel=1e-10)


def test_tube_and_disk_exterior_laplace_residual():
    # five-point Laplacian -> 0 at O(h^2) away from the charge
    cases = [
        (lambda r, z: fl.phi_tube((r, z), TUBE), [(1.6, 0.4), (0.5, 1.3), (2.2, -0.8)]),
        (lambda r, z: fl.phi_disk((r, z), DISK), [(1.6, 0.4), (0.5, 0.9), (2.0, -1.1)]),
    ]
    for f, pts in cases:
        for (r, z) in pts:
            e1 = abs(oc.fd_laplacian_cyl(f, r, z, 0.02))
            e2 = abs(oc.fd_laplacian_cyl(f, r, z, 0.01))
            assert e2 < 1e-2  # residual is pure truncation, O(h^2)
            if e2 > 1e-8:
                assert math.log2(e1 / e2) > 1.7


def test_psi_point():
    assert fl.psi_point((0.0, 1.0), 1.0) == 1.0
    assert fl.psi_point((1.0, 0.0), 1.0) == 0.0
    # superposition of two charges at z = +-a
    r, z, a = 0.8, 0.4, 0.6
    total = fl.psi_point((r, z), 2.0, a) + fl.psi_point((r, z), -1.0, -a)
    expect = 2.0 * (z - a) / math.hypot(r, z - a) - (z + a) / math.hypot(r, z + a)
    assert total == pytest.approx(expect, rel=1e-15)
    with pytest.raises(SingularityError):
        fl.psi_point((0.0, 0.5), 1.0, 0.5)


def test_pi_identity_residual():
    assert indefinite.pi_identity_residual(2.0, 1.0, 0.5) < 1e-9
    assert indefinite.pi_identity_residual(1.0, 2.0, 0.5) < 1e-9
    with pytest.raises(DomainError):
        indefinite.pi_identity_residual(1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        indefinite.pi_identity_residual(2.0, 1.0, 0.0)


def test_tube_psi_reconstructed_from_phi():
    # integrate psi_r = r * phi_z radially at fixed z, outside the charge
    z = 1.1
    r1, r2 = 0.4, 1.8
    h = 1e-4

    def integrand(r):
        return r * (fl.phi_tube((r, z + h), TUBE)
                    - fl.phi_tube((r, z - h), TUBE)) / (2.0 * h)

    spec = oc.QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7)
    delta, _ = oc.quad_1d(integrand, r1, r2, spec)
    expect = fl.psi_tube((r2, z), TUBE) - fl.psi_tube((r1, z), TUBE)
    assert delta == pytest.approx(expect, abs=1e-6)


@given(st.floats(0.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.2, 2.0))
@settings(max_examples=40, deadline=None)
@example(1.0, 0.35, 0.7)  # r = R: offsets 0.35 and -1.05, then 1.05 and -0.35
@example(1.0, 0.7, 0.7)   # the cylinder's edge circle; the tube at offset 0
@example(0.0, 0.0, 0.7)   # the axis
def test_end_term_table_gives_the_plain_values(r, z, Z):
    # a table of end terms shared by calls at z and -z, as on a grid column,
    # returns what the calls without it return, bit for bit: every end term
    # is exactly odd or exactly even in its offset
    cyl, tube = CylinderSpec(R=1.0, Z=Z, rho0=1.0), TubeSpec(R=1.0, Z=Z, sigma0=1.0)
    calls = (lambda p, **kw: fl.phi_cyl_terms(p, cyl, **kw),
             lambda p, **kw: fl.psi_cyl(p, cyl, **kw),
             lambda p, **kw: fl.phi_tube(p, tube, **kw),
             lambda p, **kw: fl.psi_tube(p, tube, **kw))
    ends = {}
    for zz in (z, -z, z):
        for call in calls:
            try:
                plain = call((r, zz))
            except SingularityError:
                with pytest.raises(SingularityError):
                    call((r, zz), ends=ends)
                continue
            assert repr(call((r, zz), ends=ends)) == repr(plain)
        # phi_cyl is its terms summed left to right: not sum(), which
        # compensates its float sums from Python 3.12 on
        try:
            hyg, ell, corr = fl.phi_cyl_terms((r, zz), cyl)
        except SingularityError:
            continue
        assert repr(fl.phi_cyl((r, zz), cyl)) == repr(hyg + ell + corr)


def test_phi_end_tables_hold_the_plain_end_terms():
    # one table per column, in order, each holding I(m, A; pi) end terms
    # bit for bit as the calls compute them. The batch leaves the column
    # r = R (gap = 0: the boundary route) and the offset 0 (A = 0) to the calls
    rs, zs = [0.0, 0.5, 1.0, 2.5], [-1.5, -0.7, 0.0, 0.35, 1.2]
    for spec in (CylinderSpec(R=1.0, Z=0.7, rho0=1.0), TubeSpec(R=1.0, Z=0.7, sigma0=1.0)):
        tables = list(fl.phi_end_tables(spec, rs, zs))
        assert len(tables) == len(rs)
        for r, table in zip(rs, tables):
            zetas = {abs(b * spec.Z - z) for z in zs for b in (1.0, -1.0)} - {0.0}
            assert {key[:3] for key in table} <= {(fl._hyg_end, spec.R, r)}
            assert {key[3] for key in table} == (set() if r == spec.R else zetas)
            for (end, R, rr, zeta), value in table.items():
                assert value == end(R, rr, zeta)


def test_nonfinite_results_raise():
    # finite arguments whose potential overflows: a typed error, not inf/nan
    cases = ((fl.phi_cyl, CylinderSpec(1.0, 0.7, 1e308), (0.5, 0.2)),
             (fl.phi_cyl_terms, CylinderSpec(1.0, 0.7, 1e308), (0.5, 0.2)),
             (fl.psi_cyl, CylinderSpec(1.0, 0.7, 1e308), (2.0, 1.0)),
             (fl.phi_tube, TubeSpec(1.0, 0.7, 1e308), (0.5, 0.2)),
             (fl.psi_tube, TubeSpec(1.0, 0.7, 1e308), (2.0, 1.0)),
             (fl.phi_disk, DiskSpec(1.0, 1e308), (0.5, 0.2)))
    for fn, spec, point in cases:
        with pytest.raises(DomainError, match="not finite"):
            fn(point, spec)
    # sheet 1 of a finite sheet-0 psi
    tube = TubeSpec(1.0, 0.7, 1e307)
    assert math.isfinite(fl.psi_tube((0.5, 1.0), tube))
    with pytest.raises(DomainError, match="not finite"):
        fl.psi_tube((0.5, 1.0), tube, branch=1)
    with pytest.raises(DomainError, match="not finite"):
        fl.psi_point((0.0, 1e308), 1.0, z_offset=-1e308)
