import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from appellfield import elliptic as el
from appellfield import oracle
from appellfield.errors import DomainError, SingularityError

# reference values from adaptive quadrature of the defining integrals
RF_0_015_1 = 2.38901648632558
RD_0_2_1 = 1.7972103521033883
RJ_2_3_4_5 = 0.14297579667156754
E_HALFPI_085 = 1.1433957918831658
PI_M03_05 = 1.6079424516254558
F_12_085 = 1.5239116022141502
PI_05_07_03 = 0.77872203404749359


def test_rf_equal_arguments():
    assert el.carlson_rf(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert el.carlson_rf(0.0, 1.0, 1.0) == pytest.approx(math.pi / 2, rel=1e-15)


def test_rf_frozen_quadrature_value():
    assert el.carlson_rf(0.0, 0.15, 1.0) == pytest.approx(RF_0_015_1, rel=1e-14)


def test_rf_against_defining_integral():
    x, y, z = 0.3, 1.7, 4.2

    def integrand(u):
        t = u / (1.0 - u)
        val = 0.5 / (np.sqrt(t + x) * np.sqrt(t + y) * np.sqrt(t + z))
        return val / (1.0 - u) ** 2

    # u = 1 - v^2 takes out the u -> 1 end
    tols = (1e-13, 1e-12)
    ref, _ = oracle.quad_1d(lambda v: integrand(1.0 - v * v) * 2.0 * v, 0.0, 1.0, *tols)
    assert el.carlson_rf(x, y, z) == pytest.approx(ref, rel=1e-10)


def test_rf_accuracy_against_mpmath():
    # 2000 arguments drawn uniformly from [1e-6, 10]^3, seed 0: measured worst
    # 1.5e-14 relative to 30-digit mpmath, pinned at twice that
    mpmath = pytest.importorskip("mpmath")
    args = np.random.default_rng(0).uniform(1e-6, 10.0, (2000, 3))
    worst = 0.0
    with mpmath.workdps(30):
        for x, y, z in args.tolist():
            ref = mpmath.elliprf(x, y, z)
            worst = max(worst, float(abs((el.carlson_rf(x, y, z) - ref) / ref)))
    assert worst <= 3e-14


def test_rd_rc_rj_values():
    assert el.carlson_rc(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert el.carlson_rd(0.0, 2.0, 1.0) == pytest.approx(RD_0_2_1, rel=1e-14)
    assert el.carlson_rj(2.0, 3.0, 4.0, 5.0) == pytest.approx(RJ_2_3_4_5, rel=1e-14)


def test_rd_is_rj_at_p_equal_z_and_matches_mpmath():
    # 400 arguments log-uniform in [1e-6, 10]^3, seed 0: measured worst
    # 6.3e-16 relative to 30-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    args = np.exp(np.random.default_rng(0).uniform(math.log(1e-6), math.log(10.0), (400, 3)))
    worst = 0.0
    with mpmath.workdps(30):
        for x, y, z in args.tolist():
            assert el.carlson_rd(x, y, z) == el.carlson_rj(x, y, z, z)
            ref = mpmath.elliprd(x, y, z)
            worst = max(worst, float(abs((el.carlson_rd(x, y, z) - ref) / ref)))
    assert worst <= 2e-15


def test_rc_closed_form_matches_mpmath():
    # 2004 seeded pairs log-uniform in [1e-6, 10], 30% of them within 1e-2
    # relative of x = y and 10% with y < 0 (the principal value): measured
    # worst 4.6e-16 relative to 30-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    n = 2000
    x, y = np.exp(rng.uniform(math.log(1e-6), math.log(10.0), (2, n)))
    near = rng.random(n) < 0.3
    y[near] = x[near] * (1.0 + rng.choice([-1.0, 1.0], near.sum())
                         * 10.0 ** rng.uniform(-15.0, -2.0, near.sum()))
    negative = rng.random(n) < 0.1
    y[negative] = -y[negative]
    pairs = list(zip(x.tolist(), y.tolist())) + [(0.0, 1.0), (1.0, 1.0), (0.5, -1.0), (2.0, 2.0)]
    worst = 0.0
    with mpmath.workdps(30):
        for a, b in pairs:
            ref = mpmath.elliprc(a, b)
            worst = max(worst, float(abs((el.carlson_rc(a, b) - ref) / ref)))
    assert worst <= 5e-16


def test_rf_and_rj_are_exactly_homogeneous_down_to_the_subnormal_range():
    # R_F(4^-k a) = 2^k R_F(a) and R_J(4^-k a) = 2^(3k) R_J(a), bit for bit:
    # the duplication commutes with a power-of-four scale in the normal
    # range, and below 2^-300 the arguments are scaled back up exactly
    # (at 4^-200 the duplication's products would otherwise be subnormal;
    # R_J at 1e-108 was 3e-4 off)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(0.1, 10.0, 4).tolist()
        for k in (100, 200, 400, 505):
            tiny = [v * 4.0 ** -k for v in a]
            assert el.carlson_rf(*tiny[:3]) == el.carlson_rf(*a[:3]) * 2.0 ** k
            if k <= 200:
                assert el.carlson_rj(*tiny) == el.carlson_rj(*a) * 2.0 ** (3 * k)
    # subnormal arguments, where R_F returned nan
    mpmath = pytest.importorskip("mpmath")
    for x, y, z in ((5e-324, 5e-324, 5e-324), (7.7e-320, 2e-319, 6.5e-319), (0.0, 1e-320, 3e-310)):
        with mpmath.workdps(30):
            ref = mpmath.elliprf(x, y, z)
        assert el.carlson_rf(x, y, z) == pytest.approx(float(ref), rel=1e-14)


def test_rj_negative_p_principal_value():
    # symmetric exclusion of the pole at t = -p
    x, y, z, p = 1.0, 2.0, 3.0, -0.5
    t0 = -p
    delta = 1e-6

    def integrand(t):
        return 1.5 / ((t + p) * np.sqrt(t + x) * np.sqrt(t + y) * np.sqrt(t + z))

    tols = (1e-12, 1e-10)
    left, _ = oracle.quad_1d(integrand, 0.0, t0 - delta, *tols)
    mid, _ = oracle.quad_1d(integrand, t0 + delta, 50.0, *tols)

    def tail(u):
        t = 50.0 + u / (1.0 - u)
        return integrand(t) / (1.0 - u) ** 2

    # u = 1 - v^2 takes out the u -> 1 end
    far, _ = oracle.quad_1d(lambda v: tail(1.0 - v * v) * 2.0 * v, 0.0, 1.0, *tols)
    assert el.carlson_rj(x, y, z, p) == pytest.approx(left + mid + far, abs=1e-4)


def test_carlson_domain_errors():
    with pytest.raises(DomainError):
        el.carlson_rf(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        el.carlson_rf(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        el.carlson_rj(1.0, 2.0, 3.0, 0.0)
    with pytest.raises(DomainError):
        el.carlson_rc(1.0, 0.0)


def test_incomplete_trivial_cases():
    for phi in (0.2, 0.9, 1.5):
        assert el.ellip_f(phi, 0.0) == phi
        assert el.ellip_pi(0.0, phi, 0.3) == el.ellip_f(phi, 0.3)
    assert el.ellip_e(math.pi / 2, 0.85) == pytest.approx(E_HALFPI_085, rel=1e-14)
    assert el.ellip_f(1.2, 0.85) == pytest.approx(F_12_085, rel=1e-14)
    assert el.ellip_pi(0.5, 0.7, 0.3) == pytest.approx(PI_05_07_03, rel=1e-14)


def test_complete_values():
    assert el.comp_k(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert el.comp_k(0.85) == pytest.approx(2.39, abs=0.005)
    assert el.comp_pi(-0.3, 0.5) == pytest.approx(PI_M03_05, rel=1e-14)
    assert el.comp_pi(0.0, 0.6) == el.comp_k(0.6)


def test_incomplete_against_quadrature_grid():
    tols = (1e-14, 1e-12)
    for m in (0.1, 0.5, 0.9):
        for phi in (0.3, 0.8, 1.4):
            for n in (-2.0, -0.3, 0.4):
                f_ref, _ = oracle.quad_1d(
                    lambda t: 1.0 / np.sqrt(1.0 - m * np.sin(t) ** 2),
                    0.0, phi, *tols)
                pi_ref, _ = oracle.quad_1d(
                    lambda t: 1.0 / ((1.0 - n * np.sin(t) ** 2)
                                     * np.sqrt(1.0 - m * np.sin(t) ** 2)),
                    0.0, phi, *tols)
                assert el.ellip_f(phi, m) == pytest.approx(f_ref, rel=1e-10)
                assert el.ellip_pi(n, phi, m) == pytest.approx(pi_ref, rel=1e-10)


@pytest.mark.parametrize("n", [-1.5, -30.0, -196.4, -1e4, -1e6])
def test_ellip_pi_at_large_negative_characteristic(n):
    # Carlson's form sa R_F + (n/3) sa^3 R_J cancels as n -> -inf; the
    # form was 1.5e-12 off at n = -1e4 and 1.6e-11 at -1e6 (phi = pi/2,
    # m = 0.991); for n < -1 ellip_pi takes DLMF 19.7.9 instead
    mpmath = pytest.importorskip("mpmath")
    for phi, m in ((math.pi / 2, 0.991), (1.0, 0.5), (2.6, 0.2), (0.3, 0.0)):
        with mpmath.workdps(30):
            ref = float(mpmath.ellippi(n, phi, m))
        assert el.ellip_pi(n, phi, m) == pytest.approx(ref, rel=4e-15)


def test_oddness_is_bit_identical():
    for (phi, m) in ((0.7, 0.4), (1.2, 0.85), (2.6, 0.2)):
        assert el.ellip_f(-phi, m) == -el.ellip_f(phi, m)
        assert el.ellip_e(-phi, m) == -el.ellip_e(phi, m)
        assert el.ellip_pi(-0.4, -phi, m) == -el.ellip_pi(-0.4, phi, m)


@given(st.floats(0.05, 0.95), st.integers(-3, 3), st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_amplitude_quasi_periodicity(m, k, phi):
    full = el.ellip_f(phi + k * math.pi, m)
    assert full == pytest.approx(2 * k * el.comp_k(m) + el.ellip_f(phi, m),
                                 rel=1e-12, abs=1e-12)


@given(st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_legendre_relation(m):
    res = (el.comp_e(m) * el.comp_k(1 - m) + el.comp_e(1 - m) * el.comp_k(m)
           - el.comp_k(m) * el.comp_k(1 - m))
    assert res == pytest.approx(math.pi / 2, abs=1e-12)


@given(st.floats(0.01, 0.99))
@settings(max_examples=40, deadline=None)
def test_modular_identity(m):
    assert el.comp_k(m / (m - 1.0)) == pytest.approx(
        math.sqrt(1.0 - m) * el.comp_k(m), rel=1e-10)


def test_singular_configurations_rejected():
    with pytest.raises(SingularityError):
        el.ellip_pi(1.2, 1.2, 0.5)  # n sin^2(phi) > 1
    with pytest.raises(SingularityError):
        el.comp_pi(1.0 - 1e-13, 0.5)
    with pytest.raises(DomainError):
        el.comp_k(1.0)
    with pytest.raises(DomainError):
        el.ellip_f(1.5, 1.2)  # m sin^2 > 1


# ---------------------------------------------------------------------------
# Bulirsch's cel and the complete integrals built on it

def test_cel_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    worst = 0.0
    with mp.workdps(40):
        for _ in range(60):
            kc2 = 10.0 ** rng.uniform(-14.0, 0.0)
            p = 10.0 ** rng.uniform(-14.0, math.log10(2.0))
            kc = math.sqrt(kc2)
            m = 1 - mp.mpf(kc) ** 2  # the parameter cel sees, exactly
            K, E = mp.ellipk(m), mp.ellipe(m)
            P = mp.ellippi(1 - mp.mpf(p), m)
            # cel(kc, 1, 1, b) = K - (1 - b) (K - E)/m, which is E at b = 1 - m
            b = kc * kc
            for got, ref in ((el.cel(kc, 1.0, 1.0, 1.0), K),
                             (el.cel(kc, 1.0, 1.0, b), K - (1 - mp.mpf(b)) * (K - E) / m),
                             (el.cel(kc, p, 1.0, 1.0), P),
                             (el.cel(kc, p, 2.0 + 0.37, 2.0 * p + 0.37),
                              2 * K + mp.mpf(0.37) * P)):
                worst = max(worst, float(abs(got - ref) / abs(ref)))
    assert worst <= 2e-15


def test_cel_domain_errors():
    # non-finite arguments: test_nonfinite_arguments_rejected
    for args in ((0.0, 1.0, 1.0, 1.0), (-0.5, 1.0, 1.0, 1.0), (1e151, 1.0, 1.0, 1.0),
                 (0.5, 0.0, 1.0, 1.0), (0.5, -0.5, 1.0, 1.0)):
        with pytest.raises(DomainError):
            el.cel(*args)


# cel's domain, 0 < kc <= 1e150, p > 0 and finite a, b, and values off it
_KC, _P = st.floats(1e-8, 1e150), st.floats(0.0, 2.0, exclude_min=True)
_AB = st.floats(allow_nan=False, allow_infinity=False)
_OFF_KC = st.sampled_from([0.0, -0.5, 1e151, math.nan, math.inf])
_OFF_P = st.sampled_from([0.0, -0.5, math.inf, math.nan])
_OFF_AB = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(st.tuples(_KC, _P, _AB, _AB, _P, _AB, _AB), st.one_of(st.just(None), st.integers(0, 6)),
       st.data())
def test_cel_pair_is_two_cel_calls(args, off, data):
    # bit for bit, and DomainError wherever either call raises it; ``off``
    # is the one argument, if any, drawn off the domain
    args = list(args)
    if off is not None:
        args[off] = data.draw({0: _OFF_KC, 1: _OFF_P, 4: _OFF_P}.get(off, _OFF_AB))
    kc, p1, a1, b1, p2, a2, b2 = args
    try:
        want = (el.cel(kc, p1, a1, b1), el.cel(kc, p2, a2, b2))
    except DomainError:
        with pytest.raises(DomainError):
            el.cel_pair(*args)
        return
    assert repr(el.cel_pair(*args)) == repr(want)


def test_cel_array_is_the_scalar_calls():
    # bit for bit at seeded arguments across cel's domain, kc from 1e-300
    # to 1e150, p from 1e-30 to 1e30, a and b of either sign and any size,
    # and nan wherever the scalar call raises
    rng = np.random.default_rng(35)
    n = 3000
    kc = 10.0 ** rng.uniform(-300.0, math.log10(el._KC_MAX), n)
    p = 10.0 ** rng.uniform(-30.0, 30.0, n)
    a, b = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-100.0, 100.0, (2, n))
    kc[:4] = (1.0, el._KC_MAX, 1e-300, 0.5)
    kc[4:8], p[8:12] = (0.0, -0.5, 1e151, math.nan), (0.0, -0.5, math.inf, math.nan)
    a[12:14], b[14:16] = (math.inf, math.nan), (-math.inf, math.nan)
    values = el.cel_array(kc, p, a, b)
    assert values.shape == (n,)
    for value, args in zip(values.tolist(), zip(kc.tolist(), p.tolist(), a.tolist(), b.tolist())):
        try:
            want = el.cel(*args)
        except DomainError:
            assert math.isnan(value), args
            continue
        assert repr(value) == repr(want), args
    # broadcast: two integrals at each kc, as cel_pair takes them
    kc, p, a, b = (v[-50:] for v in (kc, p, a, b))
    pair = el.cel_array(kc, np.stack((np.ones(50), p)), 1.0, np.stack((a, b)))
    assert pair.shape == (2, 50)
    for i in range(50):
        assert pair[:, i].tolist() == list(el.cel_pair(kc[i], 1.0, 1.0, a[i], p[i], 1.0, b[i]))


@pytest.mark.parametrize("name, nargs", [
    ("cel", 4), ("cel_pair", 7), ("carlson_rf", 3), ("carlson_rc", 2), ("carlson_rd", 3),
    ("carlson_rj", 4), ("ellip_f", 2), ("ellip_e", 2), ("ellip_pi", 3),
    ("comp_k", 1), ("comp_e", 1), ("comp_pi", 2)])
def test_nonfinite_arguments_rejected(name, nargs):
    fn = getattr(el, name)
    for i in range(nargs):
        for bad in (math.nan, math.inf, -math.inf):
            args = [0.5] * nargs
            args[i] = bad
            with pytest.raises(DomainError):
                fn(*args)


def test_complete_integrals_against_carlson_route():
    # cel and Carlson's duplication are independent routes to K, E and Pi.
    # (ellip_* at the float pi/2 would not serve: that amplitude lies 6e-17
    # below pi/2, which moves F by 6e-17/sqrt(1-m), 4e-12 relative at
    # 1 - m = 1e-12.) The tolerance is Carlson's own error: E = R_F -
    # (m/3) R_D is up to 1.3e-13 off mpmath near 1 - m = 1e-12, where cel is
    # within 1e-15 (test_comp_e_pinned_where_carlson_drifts).
    for omm in np.logspace(-12.0, 0.0, 49):
        m = 1.0 - omm
        omm = 1.0 - m  # exact
        k_carlson = el.carlson_rf(0.0, omm, 1.0)
        e_carlson = k_carlson - m / 3.0 * el.carlson_rd(0.0, omm, 1.0)
        assert el.comp_k(m) == pytest.approx(k_carlson, rel=2e-13)
        assert el.comp_e(m) == pytest.approx(e_carlson, rel=2e-13)
        for n in (-5.0, -0.5, 0.3, 0.9, 1.0 - 1e-9):
            pi_carlson = k_carlson + n / 3.0 * el.carlson_rj(0.0, omm, 1.0, 1.0 - n)
            assert el.comp_pi(n, m) == pytest.approx(pi_carlson, rel=2e-13)
        assert el.comp_pi(0.0, m) == el.comp_k(m)


def test_comp_e_pinned_where_carlson_drifts():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for omm in np.linspace(8e-13, 9.5e-13, 16):
            m = 1.0 - omm
            ref = mp.ellipe(mp.mpf(m))
            assert float(abs(el.comp_e(m) - ref) / ref) <= 1e-14


# ---------------------------------------------------------------------------
# The amplitude continuation F, E and Pi share

# amplitudes over +-3 periods: phi = k pi + phi_r, phi_r = 0 and pi/2 included
_AMPLITUDES = [k * math.pi + phi_r for k in range(-3, 4)
               for phi_r in (0.0, 0.4, -1.1, 1.5, math.pi / 2)]


def test_incomplete_integrals_over_several_periods_match_mpmath():
    # measured within 8e-15 of 30-digit mpmath, at m = 0 and m < 0 too, and
    # at n < -1, where ellip_pi takes DLMF 19.7.9
    mpmath = pytest.importorskip("mpmath")

    def close(value, ref):
        return abs(value - ref) <= 2e-14 * abs(ref) if ref else value == 0.0

    with mpmath.workdps(30):
        for phi in _AMPLITUDES:
            for m in (0.0, 0.3, 0.9, -0.5, -3.0):
                assert close(el.ellip_f(phi, m), float(mpmath.ellipf(phi, m))), (phi, m)
                assert close(el.ellip_e(phi, m), float(mpmath.ellipe(phi, m))), (phi, m)
                for n in (0.5, -0.7, -2.5, -30.0):
                    assert close(el.ellip_pi(n, phi, m),
                                 float(mpmath.ellippi(n, phi, m))), (n, phi, m)


def test_whole_periods_are_exact_multiples_of_the_complete_integrals():
    for k in (-3, -1, 1, 3):
        assert el.ellip_f(k * math.pi, 0.7) == 2.0 * k * el.comp_k(0.7)
        assert el.ellip_e(k * math.pi, 0.7) == 2.0 * k * el.comp_e(0.7)
        assert el.ellip_pi(-2.5, k * math.pi, 0.7) == 2.0 * k * el.comp_pi(-2.5, 0.7)
    for fn in (el.ellip_f, el.ellip_e):
        assert repr(fn(-0.0, 0.0)) == repr(fn(-0.0, 0.5)) == "0.0"
    assert repr(el.ellip_pi(0.5, -0.0, 0.5)) == "0.0"


def _expected_error(phi, m, n):
    # the continuation's order of checks: m sin^2(phi_r) > 1, then Pi's
    # singular characteristic on the path, then the complete integral's m
    if phi == 0.0:
        return None
    k = math.floor(abs(phi) / math.pi + 0.5)
    s2 = math.sin(abs(phi) - k * math.pi) ** 2
    if m * s2 > 1.0:
        return DomainError
    if n is not None and n * (1.0 if k else s2) >= 1.0 - 1e-12:
        return SingularityError
    return DomainError if k and m >= 1.0 else None


def test_error_types_and_their_order_are_pinned():
    # a singular characteristic where m sin^2(phi) > 1 too is a DomainError
    with pytest.raises(DomainError):
        el.ellip_pi(1.5, 1.2, 2.0)
    with pytest.raises(SingularityError):
        el.ellip_pi(1.5, 1.2, 0.5)
    # short of pi/2 neither n > 1 nor m > 1 needs to be singular; past it
    # Pi(n | m) needs n < 1, and then m < 1
    assert math.isfinite(el.ellip_pi(1.5, 0.1, 3.0))
    with pytest.raises(SingularityError):
        el.ellip_pi(1.5, math.pi + 0.1, 3.0)
    with pytest.raises(DomainError):
        el.ellip_pi(-0.5, math.pi + 0.1, 3.0)
    rng = np.random.default_rng(7)
    for _ in range(3000):
        phi, m, n = rng.uniform(-12.0, 12.0), rng.uniform(-3.0, 3.0), rng.uniform(-30.0, 3.0)
        for fn, args, char in ((el.ellip_f, (phi, m), None), (el.ellip_e, (phi, m), None),
                               (el.ellip_pi, (n, phi, m), n)):
            want = _expected_error(phi, m, char)
            if want is None:
                assert math.isfinite(fn(*args))
            else:
                with pytest.raises(want):
                    fn(*args)
