import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from appellfield import elliptic, jacobi as jc, oracle
from appellfield.errors import DomainError, SingularityError

SC_1_085 = 1.2235495251841479
ZETA_07_085 = 0.28269006353134067
THETA4_0_05 = 0.91357913815611682
THETA4_06_07 = 0.90809774063580783
INTZSC_15_085 = 0.4037322023824837
# continuous integral of Z*sc from 0 to 3.0 at m = 0.85 (crosses u = K)
INTZSC_30_085_CONT = 1.59384783341518


@given(st.floats(-8.0, 8.0), st.floats(0.0, 0.99))
@settings(max_examples=80, deadline=None)
def test_jacobi_identities(u, m):
    sn, cn, dn = jc.jacobi_sn(u, m), jc.jacobi_cn(u, m), jc.jacobi_dn(u, m)
    assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)
    assert dn * dn + m * sn * sn == pytest.approx(1.0, abs=1e-12)


def test_degenerate_parameter():
    assert jc.jacobi_sn(1.3, 0.0) == math.sin(1.3)
    assert jc.jacobi_dn(0.0, 0.77) == 1.0
    assert jc.jacobi_am(0.9, 0.0) == 0.9


def test_amplitude_quasi_periodicity():
    m = 0.6
    K = elliptic.comp_k(m)
    assert jc.jacobi_am(0.8 + 2 * K, m) == pytest.approx(
        jc.jacobi_am(0.8, m) + math.pi, abs=1e-12)


def test_sc_value_and_pole():
    assert jc.jacobi_sc(1.0, 0.85) == pytest.approx(SC_1_085, rel=1e-13)
    K = elliptic.comp_k(0.85)
    with pytest.raises(SingularityError):
        jc.jacobi_sc(K, 0.85)
    with pytest.raises(SingularityError):
        jc.jacobi_sc(3.0 * K + 1e-14, 0.85)


def test_zeta_zeros_and_value():
    m = 0.85
    assert jc.jacobi_zeta(0.0, m) == 0.0
    assert jc.jacobi_zeta(elliptic.comp_k(m), m) == pytest.approx(0.0, abs=1e-13)
    assert jc.jacobi_zeta(0.7, m) == pytest.approx(ZETA_07_085, rel=1e-12)


def test_zeta_against_quadrature():
    m, u = 0.85, 0.7
    ratio = elliptic.comp_e(m) / elliptic.comp_k(m)
    tols = (1e-13, 1e-12)
    ref, _ = oracle.quad_1d(lambda t: jc.jacobi_dn(t, m) ** 2 - ratio, 0.0, u, *tols)
    assert jc.jacobi_zeta(u, m) == pytest.approx(ref, rel=1e-11)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_zeta_addition_formula(u, v, m):
    sn, cn, dn = jc.jacobi_sn(u, m), jc.jacobi_cn(u, m), jc.jacobi_dn(u, m)
    snv = jc.jacobi_sn(v, m)
    lhs = (jc.jacobi_zeta(u + v, m) + jc.jacobi_zeta(u - v, m)
           - 2.0 * jc.jacobi_zeta(u, m))
    rhs = -2.0 * m * sn * cn * dn * snv * snv / (1.0 - m * sn * sn * snv * snv)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@given(st.floats(-3.0, 3.0), st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_zeta_quasi_periodicity(v, m):
    K = elliptic.comp_k(m)
    assert jc.jacobi_zeta(v + 2 * K, m) == pytest.approx(
        jc.jacobi_zeta(v, m), abs=1e-10)
    shift = -m * jc.jacobi_sn(v, m) * jc.jacobi_cn(v, m) / jc.jacobi_dn(v, m)
    assert jc.jacobi_zeta(v + K, m) == pytest.approx(
        jc.jacobi_zeta(v, m) + shift, abs=1e-10)


def test_theta_values():
    assert jc.theta(1, 0.0, 0.4) == 0.0
    assert jc.theta(4, 0.0, 0.5) == pytest.approx(THETA4_0_05, rel=1e-13)
    assert jc.theta(4, 0.6, 0.7) == pytest.approx(THETA4_06_07, rel=1e-13)
    with pytest.raises(DomainError):
        jc.theta(5, 0.1, 0.5)


def test_zeta_equals_log_theta4_derivative():
    u, m = 0.5, 0.5
    h = 1e-5
    fd = (math.log(jc.theta(4, u + h, m)) - math.log(jc.theta(4, u - h, m))) / (2 * h)
    assert jc.jacobi_zeta(u, m) == pytest.approx(fd, abs=1e-9)


def test_int_z_sc_values():
    assert jc.int_z_sc(0.0, 0.85) == 0.0
    assert jc.int_z_sc(1.5, 0.85) == pytest.approx(INTZSC_15_085, rel=1e-10)
    assert jc.int_z_sc(-1.5, 0.85) == pytest.approx(-INTZSC_15_085, rel=1e-10)


def test_int_z_sc_against_quadrature():
    m = 0.5
    tols = (1e-13, 1e-11)
    for u in (0.4, 1.1, -0.8):
        ref, _ = oracle.quad_1d(
            lambda t: jc.jacobi_zeta(t, m) * jc.jacobi_sc(t, m), 0.0, u, *tols)
        assert jc.int_z_sc(u, m) == pytest.approx(ref, abs=1e-10)


def test_int_z_sc_near_m_one_matches_mpmath():
    # the F2 at y = (m - 1) sc^2 < 0 as Gauss sums of cel: its inner-2F1 sum
    # at ratio m was 8.9e-12 off at m = 0.99, u = 1, and from m = 0.999 on
    # needed more than MAX_TERMS terms. The reference integrates Z sc, which
    # is analytic on [0, K], at 30 digits outward over [0, 0.5], [0.5, 1],
    # [1, K - 0.05] by Gauss-Legendre rules up to mpmath's degree 4 (within
    # 3.5e-24 of its tanh-sinh quadrature over [0, u/2, u], at a sixth of
    # the cost)
    mpmath = pytest.importorskip("mpmath")
    for m in (0.99, 0.999, 0.9999):
        K = elliptic.comp_k(m)
        with mpmath.workdps(30):
            mm = mpmath.mpf(m)
            ek = mpmath.ellipe(mm) / mpmath.ellipk(mm)

            def zsc(t):
                # |t| < K: am = asin(sn), cn = sqrt(1 - sn^2)
                sn = mpmath.ellipfun("sn", t, m=mm)
                return (mpmath.ellipe(mpmath.asin(sn), mm) - t * ek) * sn / mpmath.sqrt(1 - sn * sn)

            ref, prev = 0, 0
            for u in (0.5, 1.0, K - 0.05):
                ref += mpmath.quad(zsc, [prev, u], method="gauss-legendre", maxdegree=4)
                prev = u
                assert jc.int_z_sc(u, m) == pytest.approx(float(ref), rel=1e-12, abs=0.0), (m, u)


def test_int_z_sc_jump_and_branches():
    m = 0.85
    K = elliptic.comp_k(m)
    delta = 1e-8
    measured = jc.int_z_sc(K - delta, m) - jc.int_z_sc(K + delta, m)
    assert measured == pytest.approx(5.33, rel=5e-3)
    assert measured == pytest.approx(jc.zsc_branch_jump(m), rel=1e-6)
    # branch 1 continues the integral across u = K
    assert jc.int_z_sc(3.0, m, branch=1) == pytest.approx(
        INTZSC_30_085_CONT, rel=1e-9)
    with pytest.raises(SingularityError):
        jc.int_z_sc(K, m)


def test_euler_transformed_closed_form_identity():
    # sc * F2(1/2;1/2,1;1,3/2; m, (m-1)sc^2)
    #   == sc*|cd| * F2(1/2;1/2,1/2;1,3/2; m cd^2, (1-m) sd^2),
    # both sides by the plain anti-diagonal sum where it converges
    from appellfield import hypergeom as hg
    for (u, m) in ((0.3, 0.4), (0.5, 0.2), (-0.4, 0.6)):
        sn, cn, dn = jc.jacobi_sn(u, m), jc.jacobi_cn(u, m), jc.jacobi_dn(u, m)
        sc, cd, sd = sn / cn, cn / dn, sn / dn
        lhs = sc * hg._appell_f2_direct(0.5, 0.5, 1.0, 1.0, 1.5,
                                        m, (m - 1.0) * sc * sc)
        rhs = sc * abs(cd) * hg._appell_f2_direct(0.5, 0.5, 0.5, 1.0, 1.5,
                                                  m * cd * cd, (1.0 - m) * sd * sd)
        assert lhs == pytest.approx(rhs, rel=1e-10)


# u enters every function below; theta takes its index first
_U_FUNCTIONS = [(name, getattr(jc, name)) for name in (
    "jacobi_am", "jacobi_sn", "jacobi_cn", "jacobi_dn", "jacobi_sc", "jacobi_zeta",
    "int_z_sc")] + [(f"theta{i}", lambda u, m, i=i: jc.theta(i, u, m)) for i in (1, 2, 3, 4)]


@pytest.mark.parametrize("fn", [fn for _, fn in _U_FUNCTIONS],
                         ids=[name for name, _ in _U_FUNCTIONS])
@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_nonfinite_u_rejected(fn, u):
    # as in elliptic: DomainError, not ValueError from math, a ConvergenceError
    # from the theta series or a nan from the amplitude; m = 0 takes its own
    # branch in the amplitude and zeta
    for m in (0.5, 0.0):
        with pytest.raises(DomainError):
            fn(u, m)


@pytest.mark.parametrize("fn", [fn for name, fn in _U_FUNCTIONS if not name.startswith("theta")],
                         ids=[name for name, _ in _U_FUNCTIONS if not name.startswith("theta")])
def test_overflowing_amplitude_is_a_domain_error(fn):
    for u in (1e300, -1e300, 1.7e308):
        with pytest.raises(DomainError):
            fn(u, 0.5)


def test_theta_argument_overflow_is_a_domain_error():
    # pi u/(2K) overflows before u does
    assert math.isfinite(jc.theta(4, 1e300, 0.5))
    with pytest.raises(DomainError):
        jc.theta(4, 1.7e308, 0.5)


def test_cli_special_reports_an_overflowing_amplitude_as_an_error(capsys):
    from appellfield import cli
    assert cli.main(["special", "--fn", "jacobi_sn", "1e300", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: jacobi_am: no digit of u mod 2K is left")


def test_amplitude_raises_where_no_digit_of_u_mod_2k_is_left():
    # the amplitude carries the rounding of a_N u, about |u| 2^-52: below
    # the edge, where that reaches K, sn, cn and dn stay within it of
    # 60-digit mpmath; from the edge on they raise, as jacobi_zeta does.
    # Unguarded, sn(1e16) read -0.4379 where mpmath gives 0.6931
    mpmath = pytest.importorskip("mpmath")
    m = 0.5
    edge = elliptic.comp_k(m) * 2.0 ** 52  # 8.35e15
    fns = {"sn": jc.jacobi_sn, "cn": jc.jacobi_cn, "dn": jc.jacobi_dn}
    with mpmath.workdps(60):
        for u in (1e6, 1e13, 1e15, math.nextafter(edge, 0.0)):
            for name, fn in fns.items():
                ref = float(mpmath.ellipfun(name, mpmath.mpf(u), m=mpmath.mpf(m)))
                assert abs(fn(u, m) - ref) <= u * 2.0 ** -52
    for u in (edge, -edge, 1e16, 1e200):
        for fn in (jc.jacobi_am, jc.jacobi_sc, jc.int_z_sc, *fns.values()):
            with pytest.raises(DomainError, match="no digit of u mod 2K"):
                fn(u, m)
    # m = 0 has no period to lose: am(u | 0) = u
    assert jc.jacobi_am(1e300, 0.0) == 1e300


def _zeta_mpmath(u, m):
    # 30-digit Z(u | m) = E(am(u) | m) - u E(m)/K(m) for |am(u)| < pi,
    # am(u) = atan2(sn(u), cn(u))
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        u, m = mpmath.mpf(u), mpmath.mpf(m)
        am = mpmath.atan2(mpmath.ellipfun("sn", u, m=m), mpmath.ellipfun("cn", u, m=m))
        return float(mpmath.ellipe(am, m) - u * mpmath.ellipe(m) / mpmath.ellipk(m))


def test_zeta_reduced_by_whole_periods():
    m = 0.5
    K = elliptic.comp_k(m)
    # inside one period, the 30-digit value; at u = 0.01 K, m = 0.05
    # E(am) and u E/K nearly cancel
    for u, mm in ((0.7, m), (-1.2, m), (0.01 * elliptic.comp_k(0.05), 0.05)):
        assert jc.jacobi_zeta(u, mm) == pytest.approx(_zeta_mpmath(u, mm), rel=1e-13, abs=0.0)
    # at the rounded K, a few ulps off the zero of Z at K
    for u in (K, -K):
        assert jc.jacobi_zeta(u, m) == pytest.approx(_zeta_mpmath(u, m), rel=0.0, abs=1e-16)
    # odd and 2K-periodic, to the rounding of u and 2K (about |u| 2^-52)
    z07 = jc.jacobi_zeta(0.7, m)
    for n in (1, 7, 10 ** 6, 10 ** 12):
        u = 0.7 + 2.0 * n * K
        assert jc.jacobi_zeta(u, m) == pytest.approx(z07, abs=4.0 * u * 2.0 ** -52)
        assert jc.jacobi_zeta(-u, m) == -jc.jacobi_zeta(u, m)
    # a whole number of periods that u - r holds exactly changes nothing:
    # r = u - 2^j 2K is exact (Sterbenz) for u = fl(0.7 + 2^j 2K)
    for j in (1, 10, 30, 50):
        u = 0.7 + 2.0 ** j * (2.0 * K)
        r = u - 2.0 ** j * (2.0 * K)
        assert jc.jacobi_zeta(u, m) == jc.jacobi_zeta(r, m)
    # Z is bounded (|Z| < 0.15 at m = 0.5); unreduced, Z(1e200) was -8.5e183
    assert abs(jc.jacobi_zeta(8e15, m)) < 0.15


@pytest.mark.parametrize("u", [1e-8, 1e-4, 0.016])
def test_zeta_at_small_m_matches_mpmath(u):
    # the AGM chain's c_1 = (1 - sqrt(1 - m))/2 cancels at small m, and Z
    # carried that 8e-15 error; c_{k+1} = c_k^2/(4 a_{k+1}) does not cancel
    assert jc.jacobi_zeta(u, 0.05) == pytest.approx(_zeta_mpmath(u, 0.05), rel=1e-15, abs=0.0)


def test_zeta_raises_where_no_digit_of_u_mod_2k_is_left():
    m = 0.5
    edge = elliptic.comp_k(m) * 2.0 ** 52  # 8.35e15: |u| 2^-52 reaches K
    for u in (edge, -edge, 1e16, 1e200, -1e300):
        with pytest.raises(DomainError):
            jc.jacobi_zeta(u, m)
    assert math.isfinite(jc.jacobi_zeta(math.nextafter(edge, 0.0), m))


def test_agm_chain_stops_within_a_rounding_of_its_mean():
    # the chain stops where c is a rounding of a: at most 8 steps from m = 0
    # to 1 - 1e-12 (at m = 0.5, c stalled at half an ulp and the chain ran
    # its 64-step cap); its last mean still gives K = pi/(2 a_N)
    ms = [k / 200 for k in range(200)] + [1.0 - 10.0 ** -k for k in range(3, 13)]
    for m in ms:
        chain = jc._agm_chain(m)
        assert len(chain) - 1 <= 8, m
        assert math.pi / (2.0 * chain[-1][0]) == pytest.approx(elliptic.comp_k(m), rel=1e-15)


def test_sc_poles_at_m_zero_are_the_odd_multiples_of_half_pi():
    # K(0) = pi/2 exactly, so m = 0 takes the general pole rule
    assert elliptic.comp_k(0.0) == math.pi / 2
    for k in range(-9, 10, 2):
        for off in (0.0, 5e-13, -5e-13):
            with pytest.raises(SingularityError):
                jc.jacobi_sc(k * math.pi / 2 + off, 0.0)
        u = k * math.pi / 2 + 2e-12
        assert jc.jacobi_sc(u, 0.0) == math.tan(u)
    for k in range(-8, 9, 2):
        assert jc.jacobi_sc(k * math.pi / 2, 0.0) == math.tan(k * math.pi / 2)


def test_theta_matches_mpmath_jtheta():
    # 300 seeded (i, u, m): relative error, absolute below |theta| = 1e-8.
    # 3.73e-14 measured, as when theta summed the series by its own loops:
    # the error comes from K and z, not from the series
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(0)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(300):
            i, u, m = rng.randint(1, 4), rng.uniform(-10.0, 10.0), rng.uniform(0.01, 0.99)
            K = mpmath.ellipk(m)
            q = mpmath.exp(-mpmath.pi * mpmath.ellipk(1 - mpmath.mpf(m)) / K)
            ref = mpmath.jtheta(i, mpmath.pi * mpmath.mpf(u) / (2 * K), q)
            err = float(abs(jc.theta(i, u, m) - ref))
            worst = max(worst, err / float(abs(ref)) if abs(ref) > 1e-8 else err)
    assert worst <= 3.75e-14
