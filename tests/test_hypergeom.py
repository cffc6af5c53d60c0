import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from appellfield import elliptic, hypergeom as hg, oracle
from appellfield.errors import AppellFieldError, ConvergenceError, DomainError

# reference values from independent quadrature / high-precision summation
F2_03_04 = 1.3487116403196524
IHYG_05_03_20 = 0.67478453667702185
IHYGPI_06_025 = 1.0111503687904275
ISUR_05 = 4.670500533648862
ISUR_085 = 2.714838089542354
F43_025 = 1.0798487509062733
TF1_05_05_1_07 = 1.3212172067699616
DIA_05_03_20 = 2.4269694517147239
DIM_05_03_20 = 0.14036218456687088


def quad_ihyg(m, A, theta):
    tols = (1e-14, 1e-12)
    val, _ = oracle.quad_1d(
        lambda t: np.arctanh(A / np.sqrt(1.0 - m * np.sin(t / 2.0) ** 2)),
        0.0, theta, *tols)
    return val


def test_pochhammer():
    assert hg.pochhammer(0.3, 0) == 1.0
    assert hg.pochhammer(1.0, 5) == 120.0
    assert hg.pochhammer(0.5, 3) == pytest.approx(15.0 / 8.0, rel=1e-15)
    with pytest.raises(DomainError):
        hg.pochhammer(1.0, -1)


def _rising_loop(x, k):
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


def test_pochhammer_stops_once_the_product_overflows():
    # the product loop ran all k steps: 1e300 of them here
    t0 = time.perf_counter()
    assert hg.pochhammer(0.5, 1e300) == math.inf
    assert time.perf_counter() - t0 < 1.0
    # 201 negative factors, then 10**6 - 201 positive ones
    assert hg.pochhammer(-200.5, 10 ** 6) == -math.inf
    assert hg.pochhammer(-math.inf, 3) == -math.inf and hg.pochhammer(math.inf, 2) == math.inf
    assert math.isnan(hg.pochhammer(math.nan, 1e300))


def test_pochhammer_is_zero_where_a_factor_is():
    # the loop overflowed to inf before the factor 0 and returned inf * 0 = nan
    assert hg.pochhammer(-200.0, 300) == 0.0
    assert hg.pochhammer(-1e300, 1e301) == 0.0


def test_pochhammer_equals_the_product_loop():
    # bit for bit, signed zeros included, wherever the loop is not nan
    for x in [i / 4.0 for i in range(-40, 41)] + [-170.5, 171.0, 1e-300, -1e15 - 0.5]:
        for k in list(range(25)) + [169, 170, 171, 172, 300, 301, 1000]:
            want = _rising_loop(x, k)
            if not math.isnan(want):
                assert repr(hg.pochhammer(x, k)) == repr(want), (x, k)


def test_gauss_2f1_basic():
    assert hg.gauss_2f1(0.7, 1.3, 2.1, 0.0) == 1.0
    x = 0.6
    assert hg.gauss_2f1(0.5, 1.0, 1.5, x * x) == pytest.approx(
        math.atanh(x) / x, rel=1e-13)
    assert hg.gauss_2f1(0.5, 0.5, 1.0, 0.7) == pytest.approx(TF1_05_05_1_07, rel=1e-12)
    assert hg.gauss_2f1(0.5, 0.5, 1.0, 0.7) == pytest.approx(
        2.0 / math.pi * elliptic.comp_k(0.7), rel=1e-12)


@pytest.mark.parametrize("a", [200.5, 1000.5, 1100.5])
def test_gauss_2f1_at_negative_x_transforms_the_smaller_parameter(a):
    # Pfaff's transformation on a gives 2F1(a, a + 1/2; a + 1; 0.4987...),
    # whose terms grow as 1.995^a: 2.5e-14 and 1.2e-13 off at a = 200.5 and
    # 1000.5 and not finite at 1100.5; on b it is 2F1(1, 1/2; a + 1; ...)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.hyp2f1(a, 0.5, a + 1.0, -0.995))
    assert hg.gauss_2f1(a, 0.5, a + 1.0, -0.995) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_gauss_2f1_euler_integral_cross_check():
    # 2F1(a,b;c;x) = B(b, c-b)^(-1) int_0^1 t^(b-1) (1-t)^(c-b-1) (1-xt)^(-a) dt
    a, b, c, x = 0.8, 0.6, 2.2, -3.5
    front = math.gamma(c) / (math.gamma(b) * math.gamma(c - b))
    tols = (1e-13, 1e-12)

    def euler(t):
        return t ** (b - 1.0) * (1.0 - t) ** (c - b - 1.0) * (1.0 - x * t) ** (-a)

    # t = u^2 takes out the t^(b - 1) singularity at t = 0
    ref, _ = oracle.quad_1d(lambda u: euler(0.0 + u * u) * 2.0 * u, 0.0, 1.0, *tols)
    assert hg.gauss_2f1(a, b, c, x) == pytest.approx(front * ref, rel=1e-10)


def test_gauss_2f1_near_one_log_case():
    # c = a + b: logarithmic connection formula region; reference via the
    # Euler integral split at 1/2, each half substituted, t = a + u^2 or
    # b - u^2, at its singular end (t = 0, and the t = 1 boundary layer)
    x = 0.9999
    val = hg.gauss_2f1(1.5, 0.5, 2.0, x)
    front = math.gamma(2.0) / (math.gamma(0.5) * math.gamma(1.5))

    def euler(t):
        return t ** (-0.5) * (1.0 - t) ** 0.5 * (1.0 - x * t) ** (-1.5)

    tols = (0.5e-12, 1e-11)
    ref = 0.0
    for halfway in (lambda u: euler(0.0 + u * u) * 2.0 * u,
                    lambda u: euler(1.0 - u * u) * 2.0 * u):
        ref += oracle.quad_1d(halfway, 0.0, math.sqrt(0.5), *tols)[0]
    assert val == pytest.approx(front * ref, rel=1e-8)


def test_series_sum_finite_series_is_summed_exactly():
    assert hg._series_sum(iter([1.0, 0.5, 0.25]), hg.REL_TOL, "finite") == 1.75


def test_series_sum_small_terms_must_be_consecutive():
    # one or two small terms followed by a large one do not stop the sum;
    # the third consecutive small term does
    terms = [1.0, 0.0, 2.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 100.0]
    assert hg._series_sum(iter(terms), hg.REL_TOL, "gaps") == 7.0


def test_series_sum_term_cap():
    ones = [1.0] * (hg.MAX_TERMS + 1)
    assert hg._series_sum(iter(ones), hg.REL_TOL, "capped") == hg.MAX_TERMS + 1
    with pytest.raises(ConvergenceError, match="endless ones"):
        hg._series_sum(itertools.repeat(1.0), hg.REL_TOL, "endless ones")


def test_max_terms_caps_each_series(monkeypatch):
    # each call needs more than 64 terms of the series its error names: the
    # 2F1 series at x = 0.94, the inner-2F1 and K/E-seeded single-index F2
    # sums (at ratio 0.9375, below SERIES_RATIO_MAX), the F1 sum over x (its
    # inner 2F1 series at y = 0.1 need fewer) and the i_hyg_alt series
    calls = [((hg.gauss_2f1, 0.5, 0.5, 1.0, 0.94), "gauss_2f1 series"),
             ((hg.appell_f2, 0.5, 0.5, 1, 1, 1.5, 0.3, 0.68), "appell_f2 inner-2F1 series"),
             ((hg.appell_f2, 0.5, 0.5, 1, 1, 1.5, 0.68, 0.3), "appell_f2 K/E-seeded series"),
             ((hg.appell_f1, 0.5, 0.5, 0.5, 1.5, 0.9, 0.1), "appell_f1 series"),
             ((hg.i_hyg_alt, 3, 0.45, 0.6, 0.95), "i_hyg_alt variant 3")]
    values = [fn(*args) for (fn, *args), _ in calls]
    assert all(map(math.isfinite, values))
    assert values[0] == pytest.approx(1.7957468, rel=1e-7)
    monkeypatch.setattr(hg, "MAX_TERMS", 64)
    for (fn, *args), name in calls:
        with pytest.raises(ConvergenceError, match=f"^{name} did not converge within 64 terms$"):
            fn(*args)


def test_a_sum_that_is_not_finite_raises():
    # the terms of 2F1(400, 400; 1; 1/2) overflow: the sum was inf, and the
    # CLI printed it with exit code 0
    with pytest.raises(ConvergenceError, match="^gauss_2f1 series is not finite"):
        hg.gauss_2f1(400.0, 400.0, 1.0, 0.5)
    with pytest.raises(ConvergenceError, match="^big is not finite"):
        hg._series_sum(iter([1e308, 1e308, 0.0, 0.0, 0.0]), hg.REL_TOL, "big")


def test_gauss_2f1_divergence():
    with pytest.raises(ConvergenceError):
        hg.gauss_2f1(0.5, 0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        hg.gauss_2f1(0.5, 0.5, -2.0, 0.3)


def test_pfq_4f3():
    assert hg.pfq_4f3((1, 1, 1.5, 1.5), (2, 2, 2), 0.0) == 1.0
    assert hg.pfq_4f3((1, 1, 1.5, 1.5), (2, 2, 2), 0.25) == pytest.approx(
        F43_025, rel=1e-13)
    with pytest.raises(ConvergenceError):
        hg.pfq_4f3((1, 1, 1.5, 1.5), (2, 2, 2), 1.5)
    with pytest.raises(DomainError):
        hg.pfq_4f3((1, 1, 1.5), (2, 2, 2), 0.1)
    # at x = -1 the terms fall as k^-(1 + sum(b) - sum(a)): at 3 the sum
    # stops within MAX_TERMS terms, at 1 (the surface-value parameters) it
    # does not; 2 sum (-1)^k/((k+1)^3 (k+2)) = 3 zeta(3)/2 - pi^2/6 + 4 ln 2 - 2
    zeta3 = 1.2020569031595942
    assert hg.pfq_4f3((1, 1, 1, 1), (2, 2, 3), -1.0) == pytest.approx(
        1.5 * zeta3 - math.pi ** 2 / 6.0 + 4.0 * math.log(2.0) - 2.0, rel=1e-12)
    with pytest.raises(ConvergenceError):
        hg.pfq_4f3((1, 1, 1.5, 1.5), (2, 2, 2), -1.0)
    with pytest.raises(ConvergenceError):
        hg.pfq_4f3((1, 1, 1, 1), (1, 1, 2), -1.0)  # sum(b) <= sum(a)


def test_appell_f2_values():
    assert hg.appell_f2(0.5, 0.5, 1.0, 1.0, 1.5, 0.0, 0.0) == 1.0
    assert hg.appell_f2(0.5, 0.5, 1.0, 1.0, 1.5, 0.3, 0.4) == pytest.approx(
        F2_03_04, rel=1e-12)


def test_appell_f2_collapses_to_2f1():
    for (a, b, g, x) in ((0.5, 0.5, 1.0, 0.44), (0.9, 1.4, 2.0, 0.8)):
        assert hg.appell_f2(a, b, 1.0, g, 1.5, x, 0.0) == pytest.approx(
            hg.gauss_2f1(a, b, g, x), rel=1e-12)


def test_appell_f2_ending_at_j0_takes_one_2f1(monkeypatch):
    # at y = 0 the sum over the inner 2F1 swaps to x = 0 and ends at j = 0:
    # it forms the j = 0 seed, 2F1(alpha, beta; gamma; x), and not the one at
    # alpha + 1; values as read when both seeds were formed
    gauss_2f1, calls = hg.gauss_2f1, []
    monkeypatch.setattr(hg, "gauss_2f1", lambda *a: calls.append(a) or gauss_2f1(*a))
    for args, value in (((0.7, 1.2, 1.0, 1.4, 1.5, 0.6, 0.0), "1.7149262917370038"),
                        ((1.3, 0.4, 1.0, 1.9, 1.5, 0.05, 0.0), "1.0140774212251844"),
                        ((0.25, 1.5, 1.0, 1.0, 1.5, 0.8, 0.0), "2.028887907978472")):
        calls.clear()
        assert repr(hg.appell_f2(*args)) == value
        al, b1, _, g1, _, x, _ = args
        assert calls == [(al, b1, g1, x)]


@given(st.floats(0.0, 0.45), st.floats(0.0, 0.45))
@settings(max_examples=40, deadline=None)
def test_appell_f2_swap_symmetry(x, y):
    a = hg.appell_f2(0.7, 0.4, 1.1, 1.3, 1.8, x, y)
    b = hg.appell_f2(0.7, 1.1, 0.4, 1.8, 1.3, y, x)
    assert a == pytest.approx(b, rel=1e-12)


def test_appell_f2_negative_argument_routes_agree():
    # F2(1/2; beta, 1; gamma, 3/2; x, y) at y < 0, by the Euler map
    # y -> y/(y - 1) and the direct sum there, against the direct sum at y
    # itself, over seeded (beta, gamma, x, y) with |x| + |y| < 0.85
    direct = hg._appell_f2_direct
    rng = np.random.default_rng(16)
    points = [(0.5, 1.0, 0.2, -0.3)]
    for _ in range(300):
        beta, gamma = rng.uniform(0.2, 2.0, 2).tolist()
        x = float(rng.uniform(0.0, 0.84))
        points.append((beta, gamma, x, -float(rng.uniform(1e-6, 0.85 - x))))
    for beta, gamma, x, y in points:
        args = (0.5, beta, 1.0, gamma, 1.5, x, y)
        assert hg.appell_f2(*args) == pytest.approx(direct(*args), rel=1e-13, abs=0.0), args


def test_appell_f2_family_at_negative_y_matches_the_integral():
    # F2(1/2; 1/2, 1; 1, 3/2; x, y) at y < 0, int_z_sc's F2, against
    # int_0^pi atan(B/sqrt(1 - x sin^2(t/2))) dt/(pi B), B = sqrt(-y): the
    # inner-2F1 sum at ratio x it replaces was 1.7e-12 off at x = 0.99 and
    # did not converge from x = 0.999 on
    mpmath = pytest.importorskip("mpmath")
    for x in (0.0, 0.3, 0.85, 0.99, 0.999, 0.9999):
        for y in (-1e-6, -0.01, -0.5, -3.0, -1e3, -1e6, -1e12):
            with mpmath.workdps(30):
                mx, b = mpmath.mpf(x), mpmath.sqrt(-mpmath.mpf(y))
                ref = float(mpmath.quad(
                    lambda t: mpmath.atan(b / mpmath.sqrt(1 - mx * mpmath.sin(t / 2) ** 2)),
                    [0, mpmath.pi / 2, mpmath.pi]) / (mpmath.pi * b))
            assert hg.appell_f2(0.5, 0.5, 1.0, 1.0, 1.5, x, y) == pytest.approx(
                ref, rel=1e-13, abs=0.0), (x, y)


def test_appell_f2_family_takes_single_index_route(monkeypatch):
    # the potentials' family F2(1/2; 1/2, 1; 1, 3/2; m, A^2) away from the
    # |x|+|y| = 1 boundary: the single-index sums against the anti-diagonal sum
    direct = hg._appell_f2_direct
    calls = []
    monkeypatch.setattr(hg, "_appell_f2_direct",
                        lambda *a: calls.append(a) or direct(*a))
    for m in np.linspace(0.0, 0.84, 15):
        for y in np.linspace(0.0, 0.84, 15):
            if m + y >= 0.85 or m == y == 0.0:
                continue
            fast = hg.appell_f2(0.5, 0.5, 1.0, 1.0, 1.5, m, y)
            assert fast == pytest.approx(
                direct(0.5, 0.5, 1.0, 1.0, 1.5, m, y), rel=1e-13, abs=0.0)
    assert calls == []


def test_appell_f2_family_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for m, y in ((0.1, 0.2), (0.4, 0.4), (0.8, 0.04), (0.02, 0.8), (0.6, 0.2)):
            ref = float(mpmath.appellf2(0.5, 0.5, 1.0, 1.0, 1.5, m, y))
            assert hg.appell_f2(0.5, 0.5, 1.0, 1.0, 1.5, m, y) == pytest.approx(
                ref, rel=1e-13, abs=0.0)


def _f2_family_by_quadrature(m, y):
    # F2(1/2; 1/2, 1; 1, 3/2; m, y) = I(m, sqrt(y); pi)/(pi sqrt(y)) from
    # the defining integral at 30 digits, written cancellation-free with
    # t = pi - u: D = 1 - m sin^2(t/2) = (1 - m) + m sin^2(u/2) and
    # atanh(A/sqrt(D)) = ln(sqrt(D) + A) - ln(D - A^2)/2, D - A^2 =
    # (1 - m - y) + m sin^2(u/2), whose logarithm is singular at u = 0
    # on the boundary
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        m, y = mpmath.mpf(m), mpmath.mpf(y)
        A, gap = mpmath.sqrt(y), 1 - m - y

        def f(u):
            s2 = mpmath.sin(u / 2) ** 2
            return mpmath.log(mpmath.sqrt((1 - m) + m * s2) + A) - mpmath.log(gap + m * s2) / 2

        nodes = [0] + [mpmath.mpf(10) ** k for k in range(-12, 1)] + [mpmath.pi]
        return float(mpmath.quad(f, nodes) / (mpmath.pi * A))


@pytest.mark.parametrize("m, y", [(0.3, 0.69), (0.4, 0.595), (0.55, 0.447)])
def test_appell_f2_family_above_the_series_ratio_matches_its_defining_integral(m, y):
    # the smaller single-index ratio 0.968, 0.988 and 0.993: the integral of
    # dI/dA up from A = 0. The sums there were 5.2e-13, 1.4e-12 and 2.7e-12
    # off, the stopping rule's tail beyond ratio 0.95
    assert hg._i_hyg_pi_route(m, y, None)[0] == "integral"
    assert hg.appell_f2(0.5, 0.5, 1, 1, 1.5, m, y) == pytest.approx(
        _f2_family_by_quadrature(m, y), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m, y", [(0.5, 0.4976), (0.5, 0.4999), (0.9, 0.0999), (0.1, 0.8999),
                                  (0.3, 0.7), (1e-13, 1.0 - 1e-13)])
def test_appell_f2_family_near_the_boundary_matches_its_defining_integral(m, y):
    # both single-index ratios above 0.995: the integral in from the surface
    # value, as in i_hyg_pi; the sums raised ConvergenceError at three of the
    # first four points and were 3.8e-12 off at the first. The last two lie
    # on m + y = 1 in floating point, where the gap is formed exactly
    assert hg.appell_f2(0.5, 0.5, 1, 1, 1.5, m, y) == pytest.approx(
        _f2_family_by_quadrature(m, y), rel=1e-13, abs=0.0)


def test_appell_f2_family_takes_the_route_of_i_hyg_pi(monkeypatch):
    # over seeded (m, A), a third of them within 1e-3 of m + A^2 = 1, the
    # family F2 at (m, A^2) takes the route that i_hyg_pi takes at (m, A):
    # one rule decides both
    taken = []
    for name, tag in (("_f2_ke_sum", "ke"), ("_f2_inner_sum", "inner"),
                      ("_i_hyg_pi_integral", "integral"), ("_i_hyg_pi_from_boundary", "boundary"),
                      ("_appell_f2_direct", "direct")):
        def record(*args, _tag=tag, _fn=getattr(hg, name)):
            taken.append(_tag)
            return _fn(*args)
        monkeypatch.setattr(hg, name, record)
    rng = np.random.default_rng(23)
    tags = []
    for i in range(240):
        m = float(rng.uniform(0.0, 1.0))
        frac = 10.0 ** rng.uniform(-12.0, -3.0) if i % 3 == 0 else float(rng.uniform(0.0, 1.0))
        A = math.sqrt((1.0 - m) * (1.0 - frac))
        taken.clear()
        hg.i_hyg_pi(m, A)
        hg.appell_f2(0.5, 0.5, 1.0, 1.0, 1.5, m, A * A)
        assert len(taken) == 2 and taken[0] == taken[1], (m, A, taken)
        tags.append(taken[0])
    assert set(tags) == {"ke", "inner", "integral", "boundary"}


def test_appell_f2_inner_route_for_i_hyg_alt_first_term():
    # F2(1/2; 1/2, 1; 3/2, 3/2; x, y), the idx = 0 term of i_hyg_alt variant
    # 3, at y < x inside C06's range x = m s^2 <= 1/8, y = A^2 <= 1/4, where
    # the inner-2F1 series runs at ratio x/(1-y)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for x, y in ((0.3 * 0.16, 0.2 * 0.2), (0.125, 0.1), (0.1, 0.002), (0.05, 0.01)):
            ref = float(mpmath.appellf2(0.5, 0.5, 1.0, 1.5, 1.5, x, y))
            assert hg.appell_f2(0.5, 0.5, 1.0, 1.5, 1.5, x, y) == pytest.approx(
                ref, rel=1e-13, abs=0.0)


def test_appell_f2_general_parameters_take_direct_sum(monkeypatch):
    # the swap and y = 0 collapse cases of the special-function unit layer
    # have parameters outside the accelerated families
    direct = hg._appell_f2_direct
    calls = []
    monkeypatch.setattr(hg, "_appell_f2_direct",
                        lambda *a: calls.append(a) or direct(*a))
    for name in ("_f2_inner_sum", "_f2_ke_sum"):
        monkeypatch.setattr(hg, name, lambda *a: pytest.fail("accelerated route taken"))
    rng = np.random.default_rng(15)
    for _ in range(10):
        al, b1, b2 = rng.uniform(0.2, 1.5, 3)
        g1, g2 = rng.uniform(1.0, 2.0, 2)
        x, y = rng.uniform(0.0, 0.45, 2)
        hg.appell_f2(al, b1, b2, g1, g2, x, y)
        hg.appell_f2(al, b1, 1.0, g1, 1.5, rng.uniform(0.0, 0.8), 0.0)
    assert len(calls) == 20


@pytest.mark.parametrize("params, x, y", [
    ((0.5, 0.5, 1.0, 1.0, 1.5), -0.5, -0.3),
    ((0.7, 0.3, 1.2, 1.4, 1.6), -0.4, 0.2),
    ((0.7, 0.3, 1.2, 1.4, 1.6), 0.3, -0.6),
    ((0.7, 0.3, 1.2, 1.4, 1.6), -0.8, -0.9)])
def test_appell_f2_euler_transformations_match_mpmath(params, x, y):
    # the y < 0 and x < 0 Euler-type maps into |x| + |y| < 1, then the
    # anti-diagonal sum; measured within 1e-14 of 30-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.appellf2(*params, x, y))
    assert hg.appell_f2(*params, x, y) == pytest.approx(ref, rel=1e-13, abs=0.0)


def _f2_by_euler_integral(alpha, beta, beta2, gamma, gamma2, x, y):
    # F2 = Gamma(g)/(Gamma(b) Gamma(g-b)) int_0^1 t^(b-1) (1-t)^(g-b-1)
    #   (1-xt)^(-a) 2F1(a, b'; g'; y/(1-xt)) dt, g > b > 0, at 30 digits,
    # with t = v^(1/b) on [0, 1/2] and 1 - t = w^(1/(g-b)) on [1/2, 1] so
    # that no endpoint is singular; mpmath.appellf2 does not converge near
    # x + y = 1
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, b2, g, g2, x, y = map(mpmath.mpf, (alpha, beta, beta2, gamma, gamma2, x, y))
        c, half = g - b, mpmath.mpf(0.5)

        def h(t):
            return (1 - x * t) ** (-a) * mpmath.hyp2f1(a, b2, g2, y / (1 - x * t))

        lo = mpmath.quad(lambda v: (1 - v ** (1 / b)) ** (c - 1) * h(v ** (1 / b)) / b,
                         [0, half ** b])
        hi = mpmath.quad(lambda w: (1 - w ** (1 / c)) ** (b - 1) * h(1 - w ** (1 / c)) / c,
                         [0, half ** c])
        return float(mpmath.gamma(g) / (mpmath.gamma(b) * mpmath.gamma(c)) * (lo + hi))


def test_appell_f2_single_sum_matches_the_euler_integral_up_to_x_plus_y_near_one():
    # the sum over one index, at the smaller of x/(1-y) and y/(1-x), on
    # seeded general parameters with x + y in [0.5, 0.99]: within 1e-12 of
    # the integral or a typed error, never a non-finite value. The
    # anti-diagonal double sum it replaced lost its edge terms to underflow:
    # 2.1e-10 off at (0.3, 0.69), a value 53% off at (0.3, 0.6999) and inf
    # at (0.5, 0.499), where the single sum needs more than MAX_TERMS terms
    item19 = (1.5, 1.5, 1.0, 2.0, 1.5)
    assert hg.appell_f2(*item19, 0.3, 0.69) == pytest.approx(
        _f2_by_euler_integral(*item19, 0.3, 0.69), rel=1e-12, abs=0.0)
    for x, y in ((0.3, 0.6999), (0.5, 0.499)):
        with pytest.raises(ConvergenceError, match="^appell_f2 series did not converge"):
            hg.appell_f2(*item19, x, y)
    rng = np.random.default_rng(7)
    summed = 0
    for _ in range(24):
        a, b2 = rng.uniform(0.2, 2.5, 2).tolist()
        b = float(rng.uniform(0.2, 1.5))
        g, g2 = b + float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.5, 2.5))
        total = float(rng.uniform(0.5, 0.99))
        x = total * float(rng.uniform(0.0, 1.0))
        args = (a, b, b2, g, g2, x, total - x)
        try:
            value = hg.appell_f2(*args)
        except AppellFieldError:
            continue
        assert value == pytest.approx(_f2_by_euler_integral(*args), rel=1e-12, abs=0.0), args
        summed += 1
    assert summed >= 20


def test_appell_f2_terminating_series_ends_before_its_zero_divisor():
    # alpha = -2: the coefficients vanish from j = 3 on, where the
    # contiguous relation in the inner 2F1's first parameter divides by
    # alpha + 2 = 0
    mpmath = pytest.importorskip("mpmath")
    for args in ((-2.0, 0.5, 0.7, 1.3, 1.6, 0.3, 0.4), (-2.0, 0.5, 0.7, 1.3, 1.6, 0.4, 0.3),
                 (0.8, -1.0, 0.7, 1.3, 1.6, 0.3, 0.4)):
        with mpmath.workdps(30):
            ref = float(mpmath.appellf2(*args))
        assert hg.appell_f2(*args) == pytest.approx(ref, rel=1e-13, abs=0.0), args


def test_appell_f1_at_negative_arguments_matches_mpmath():
    # x < 0 and y < 0 are mapped to x/(x-1), y/(y-1) in (0, 1/2) by the Euler
    # transformation; summed where they are, the terms alternate, and the
    # first two points were 9.3e-12 and 4.8e-12 off
    mpmath = pytest.importorskip("mpmath")
    points = [(2.0058940597182793, 2.208170544139358, 1.0166175339664234, 1.1434324220144751,
               -0.939117659179741, -0.5100409508794435),
              (2.2187, 1.4036, 2.3060, 0.3073, -0.9116, -0.4697)]
    rng = np.random.default_rng(29)
    for _ in range(32):
        points.append((*rng.uniform(0.2, 2.5, 4).tolist(), *(-rng.uniform(0.0, 0.95, 2)).tolist()))
    for args in points:
        with mpmath.workdps(30):
            ref = float(mpmath.appellf1(*args))
        assert hg.appell_f1(*args) == pytest.approx(ref, rel=1e-12, abs=0.0), args


@pytest.mark.parametrize("gamma", [1e-6, 1e-10, 1e-13, 1e-15, 1e-17])
def test_appell_f1_keeps_its_digits_as_gamma_goes_to_0(gamma):
    # the backward recurrence forms c - 1 as gamma + j: as (gamma + j + 1) - 1
    # it rounded gamma away at j = 0, 3.3e-2 off at gamma = 1e-15
    mpmath = pytest.importorskip("mpmath")
    args = (0.5, 0.5, 0.5, gamma, 0.3, 0.2)
    with mpmath.workdps(30):
        ref = float(mpmath.appellf1(*args))
    assert hg.appell_f1(*args) == pytest.approx(ref, rel=1e-13, abs=0.0)


def _f1_euler_integral(alpha, beta, beta2, gamma, x, y):
    # 30-digit F1 by its Euler integral, gamma > alpha > 0:
    # Gamma(gamma)/(Gamma(alpha) Gamma(gamma - alpha)) int_0^1 t^(alpha-1)
    # (1-t)^(gamma-alpha-1) (1-xt)^(-beta) (1-yt)^(-beta2) dt, with the
    # endpoint powers taken out by t = v^(1/alpha) on [0, 1/2] and
    # 1 - t = w^(1/(gamma-alpha)) on [1/2, 1]
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, b2, g, x, y = map(mpmath.mpf, (alpha, beta, beta2, gamma, x, y))
        d = g - a

        def rest(t):
            return (1 - x * t) ** (-b) * (1 - y * t) ** (-b2)

        half = mpmath.mpf(0.5)
        lo = mpmath.quad(lambda v: (1 - v ** (1 / a)) ** (d - 1) * rest(v ** (1 / a)) / a,
                         [0, half ** a])
        hi = mpmath.quad(lambda w: (1 - w ** (1 / d)) ** (a - 1) * rest(1 - w ** (1 / d)) / d,
                         [0, half ** d])
        return float(mpmath.gamma(g) / (mpmath.gamma(a) * mpmath.gamma(d)) * (lo + hi))


def test_appell_f1_matches_the_euler_integral_up_to_0995():
    # |x|, |y| up to 0.995: one gauss_2f1 call per outer term took 11.7 s
    # at the first point; near 0.995 the stopping rule's tail leaves about
    # 4e-12
    points = [(0.5, 0.5, 0.5, 1.5, 0.995, 0.995), (0.5, 0.5, 0.5, 1.5, 0.99, -0.995),
              (0.5, 0.5, 0.5, 1.5, -0.995, 0.99)]
    rng = np.random.default_rng(32)
    for _ in range(30):
        alpha, beta, beta2 = rng.uniform(0.2, 2.5, 3).tolist()
        gamma = alpha + float(rng.uniform(0.2, 2.0))
        points.append((alpha, beta, beta2, gamma, *rng.uniform(-0.995, 0.995, 2).tolist()))
    seconds = 0.0
    for args in points:
        start = time.perf_counter()
        value = hg.appell_f1(*args)
        seconds += time.perf_counter() - start
        assert value == pytest.approx(_f1_euler_integral(*args), rel=1e-11, abs=0.0), args
    assert seconds < 5.0


_SERIES_FUNCTIONS = [
    ("gauss_2f1", hg.gauss_2f1, 4),
    ("pfq_4f3", lambda *a: hg.pfq_4f3(a[0:4], a[4:7], a[7]), 8),
    ("appell_f1", hg.appell_f1, 6),
    ("appell_f2", hg.appell_f2, 7)]


@pytest.mark.parametrize("fn, nargs", [(fn, n) for _, fn, n in _SERIES_FUNCTIONS],
                         ids=[name for name, _, _ in _SERIES_FUNCTIONS])
def test_series_functions_reject_nonfinite_arguments_at_once(fn, nargs):
    # DomainError before any series runs: summed, a nan term runs to the
    # term cap (0.36 s for appell_f1) and a misleading ConvergenceError
    for i in range(nargs):
        for bad in (math.nan, math.inf, -math.inf):
            args = [0.5] * nargs
            args[i] = bad
            start = time.perf_counter()
            with pytest.raises(DomainError):
                fn(*args)
            assert time.perf_counter() - start < 0.05


def test_appell_f2_nonconvergence():
    with pytest.raises(ConvergenceError):
        hg.appell_f2(0.7, 0.4, 1.1, 1.3, 1.8, 0.6, 0.6)


def test_ihyg_args_validation():
    with pytest.raises(DomainError):
        hg.i_hyg(1.2, 0.1, 1.0)
    with pytest.raises(DomainError):
        hg.i_hyg(0.5, 0.9, 1.0)  # A^2 > 1 - m
    with pytest.raises(DomainError):
        hg.i_hyg(0.5, 0.1, 4.0)  # theta beyond pi
    with pytest.raises(DomainError):
        hg.i_hyg(0.5, math.nan, 1.0)
    with pytest.raises(DomainError):
        hg.i_hyg(1.0, 0.0, math.pi)  # m sin^2(theta/2) = 1


def test_i_hyg_trivial_and_frozen():
    assert hg.i_hyg(0.5, 0.0, 2.0) == 0.0
    assert hg.i_hyg(0.3, 0.4, 0.0) == 0.0
    A, th = 0.35, 1.7
    assert hg.i_hyg(0.0, A, th) == pytest.approx(
        th * math.atanh(A), rel=1e-11)
    assert hg.i_hyg(0.5, 0.3, 2.0) == pytest.approx(IHYG_05_03_20, rel=1e-10)


def test_i_hyg_matches_quadrature_including_small_theta():
    for (m, A, th) in ((0.8, 0.35, 0.08), (0.6, -0.4, 2.8), (0.2, 0.15, 0.5)):
        assert hg.i_hyg(m, A, th) == pytest.approx(
            quad_ihyg(m, A, th), rel=1e-9, abs=1e-12)


def test_i_hyg_near_the_boundary_matches_quadrature():
    # seeded (m, A, theta) with 1 - m - A^2 down to 10^-8.5 (1 - m), inside
    # i_hyg's domain m + A^2 < 1 - 1e-9: every value finite. Up to ratio
    # m/(1 - A^2) = SERIES_RATIO_MAX = 0.95, the limit of the stopping
    # rule's tail bound, the single sum is within 1e-11 of the defining
    # integral; beyond it i_hyg takes the integral (with the single sum on
    # (0.95, 0.995] that band was 2.2e-11 off). The double sum this replaced
    # returned +-inf, raised or was off at 355 of 396 such points
    rng = np.random.default_rng(31)
    worst = {"series": 0.0, "quadrature": 0.0}
    for _ in range(396):
        m = float(rng.uniform(0.05, 0.95))
        frac = 10.0 ** rng.uniform(max(-8.5, math.log10(2e-9 / (1.0 - m))), -1.0)
        A, th = math.sqrt((1.0 - m) * (1.0 - frac)), float(rng.uniform(0.2, math.pi))
        value, ratio = hg.i_hyg(m, A, th), m / (1.0 - A * A)
        band = "series" if ratio <= hg.SERIES_RATIO_MAX else "quadrature"
        ref = quad_ihyg(m, A, th)
        assert math.isfinite(value), (m, A, th)
        worst[band] = max(worst[band], abs(value - ref) / abs(ref))
    assert all(worst.values()), worst  # every band is drawn
    assert worst["series"] <= 1e-11 and worst["quadrature"] <= 1e-11, worst


def test_i_hyg_odd_in_both_arguments():
    base = hg.i_hyg(0.4, 0.3, 1.3)
    assert hg.i_hyg(0.4, -0.3, 1.3) == pytest.approx(-base, rel=1e-12)
    assert hg.i_hyg(0.4, 0.3, -1.3) == pytest.approx(-base, rel=1e-12)


def test_i_hyg_boundary_guard():
    with pytest.raises(DomainError):
        hg.i_hyg(0.5, math.sqrt(0.5) - 1e-12, 2.0)


@pytest.mark.parametrize("m", [0.05, 0.5, 0.9, 1.0 - 1e-6])
def test_i_hyg_at_plus_minus_pi_is_i_hyg_pi_up_to_the_boundary(m):
    # within 1e-12 of m + A^2 = 1, where the general-theta routes raise
    # DomainError, theta = +-pi reads i_hyg_pi, bit for bit
    for d in (1e-12, 1e-14):
        A = math.sqrt(1.0 - m) - d
        assert 0.0 < 1.0 - m - A * A < 1e-11
        value = hg.i_hyg_pi(m, A)
        for sa, st in itertools.product((1.0, -1.0), repeat=2):
            assert repr(hg.i_hyg(m, sa * A, st * math.pi)) == repr(sa * st * value)


def test_i_hyg_at_plus_minus_pi_takes_the_rounding_allowance_of_i_hyg_pi():
    # on the boundary A = sqrt(1 - m), m = k/2000, the rounded A^2 exceeds
    # the rounded 1 - m by an ulp at 455 points; there theta = +-pi reads
    # +-i_hyg_pi, bit for bit, where i_hyg raised DomainError
    count = 0
    for k in range(1, 2000):
        m = k / 2000.0
        A = math.sqrt(1.0 - m)
        if not A * A > 1.0 - m:
            continue
        count += 1
        sa, st = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))[k % 4]
        assert repr(hg.i_hyg(m, sa * A, st * math.pi)) == repr(sa * st * hg.i_hyg_pi(m, A))
    assert count == 455
    assert hg.i_hyg(0.001, math.sqrt(0.999), math.pi) == 15.20467019853874
    # beyond the allowance theta = +-pi raises as before
    with pytest.raises(DomainError):
        hg.i_hyg(0.5, math.sqrt(0.5) + 1e-12, -math.pi)


def test_i_hyg_pi():
    assert hg.i_hyg_pi(0.3, 0.0) == 0.0
    assert hg.i_hyg_pi(0.0, 0.4) == pytest.approx(math.pi * math.atanh(0.4), rel=1e-12)
    assert hg.i_hyg_pi(0.6, 0.25) == pytest.approx(IHYGPI_06_025, rel=1e-10)
    assert hg.i_hyg_pi(0.6, -0.25) == -hg.i_hyg_pi(0.6, 0.25)
    # exact agreement with the general form at theta = pi
    for (m, A) in ((0.5, 0.3), (0.85, 0.2), (0.1, -0.7)):
        assert hg.i_hyg(m, A, math.pi) == hg.i_hyg_pi(m, A)


def test_i_hyg_pi_near_boundary_band():
    # both series ratios close to 1: the derivative-integral route
    m = 0.62
    A = math.sqrt(1.0 - m - 2e-5)
    assert hg.i_hyg_pi(m, A) == pytest.approx(quad_ihyg(m, A, math.pi), rel=1e-9)


def _i_hyg_pi_at_slot(R, zeta, r):
    # I(m, A; pi) at slot (R, zeta; r) in 30-digit mpmath, m and A formed
    # there from the exact geometry, by the defining integral written with
    # t = pi - u: 1 - m sin^2(t/2) = sin^2(u/2) + (1 - m) cos^2(u/2)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        R, z, r0 = mpmath.mpf(R), mpmath.mpf(zeta), mpmath.mpf(r)
        L2 = (R + r0) ** 2 + z * z
        A, omm = z / mpmath.sqrt(L2), ((R - r0) ** 2 + z * z) / L2

        def f(u):
            return mpmath.atanh(A / mpmath.sqrt(mpmath.sin(u / 2) ** 2
                                                + omm * mpmath.cos(u / 2) ** 2))

        nodes = [0] + [mpmath.mpf(10) ** k for k in range(-9, 1)] + [mpmath.pi]
        return float(mpmath.quad(f, nodes))


def test_i_hyg_pi_next_to_the_rim_takes_a_single_index_sum(monkeypatch):
    # slots (1, 1e-6; 1 + 1e-6), next to the rim of the tube: 1 - m = 5e-13
    # and gap/(1 - m) = 0.5. With the exact complements from aux the
    # K/E-seeded sum runs at ratio 0.5; the reference integrates the
    # defining integral with 1 - m sin^2(t/2) written through the exact 1 - m
    from appellfield.geometry import aux
    a = aux(1.0, 1e-6, 1.0 + 1e-6)
    assert a.one_minus_m == pytest.approx(5e-13, rel=1e-5)
    assert a.gap / a.one_minus_m == pytest.approx(0.5, rel=1e-9)
    monkeypatch.setattr(hg, "_i_hyg_pi_from_boundary",
                        lambda *args: pytest.fail("boundary route taken"))
    value = hg.i_hyg_pi(a.m, a.A, a.gap)
    assert value == pytest.approx(_i_hyg_pi_at_slot(1.0, 1e-6, 1.0 + 1e-6), rel=1e-13, abs=0.0)


def test_i_hyg_pi_above_the_series_ratio_matches_mpmath():
    # seeded slots (R = 1, zeta; r) whose smaller single-index ratio lies in
    # (0.95, 0.995], the integral route: half of them near the r = R column
    # far up it, m down to 4e-5, where the graded panels are most; the
    # single-index sums there were up to 3.4e-12 off
    from appellfield.geometry import aux
    rng = np.random.default_rng(33)
    slots = []
    for i in range(240):
        if i % 2:
            r, zeta = 1.0 + float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5)), \
                float(10.0 ** rng.uniform(1.0, 2.5))
        else:
            r, zeta = float(rng.uniform(0.0, 3.0)), float(10.0 ** rng.uniform(-1.0, 1.0))
        a = aux(1.0, zeta, r)
        y = a.A * a.A
        if 0.95 < min(y / (y + a.gap), a.m / (a.m + a.gap)) <= 0.995 and len(slots) < 24:
            slots.append((zeta, r, a))
    assert len(slots) == 24 and min(a.m for _, _, a in slots) < 1e-4
    for zeta, r, a in slots:
        assert hg._i_hyg_pi_route(a.m, a.A * a.A, a.gap)[0] == "integral", (zeta, r)
        assert hg.i_hyg_pi(a.m, a.A, a.gap) == pytest.approx(
            _i_hyg_pi_at_slot(1.0, zeta, r), rel=1e-14, abs=0.0), (zeta, r)


def test_i_hyg_pi_integrates_di_da_down_to_the_normal_float_range():
    # at m = 1e-300, gap = 1e-303 the boundary route's integral in from the
    # surface value equals the 360-digit mpmath value of the defining
    # integral; below the normal float range the nodes' u^2 lose their
    # digits, and both integrals of dI/dA raise one typed error naming
    # i_hyg_pi, while the surface value itself (gap = 0) stays finite
    m, gap = 1e-300, 1e-303
    assert hg._i_hyg_pi_route(m, 1.0 - m - gap, gap)[0] == "boundary"
    assert hg.i_hyg_pi(m, math.sqrt(1.0 - m - gap), gap) == pytest.approx(
        1089.3235047104695, rel=1e-14, abs=0.0)
    for m, gap, route in ((1e-322, 5e-324, "integral"), (1e-320, 1e-323, "boundary")):
        A = math.sqrt(1.0 - m - gap)
        assert hg._i_hyg_pi_route(m, A * A, gap)[0] == route
        with pytest.raises(ConvergenceError, match="i_hyg_pi"):
            hg.i_hyg_pi(m, A, gap)
        assert math.isnan(hg.i_hyg_pi_batch([m], [A], [gap])[0])
    assert math.isfinite(hg.i_hyg_pi(1e-322, 1.0, 0.0))


@pytest.mark.parametrize("A", [1.0, -1.0])
def test_i_hyg_pi_diverges_at_m_zero_and_unit_a(A):
    # I(0, A; pi) = pi atanh(A)
    with pytest.raises(AppellFieldError):
        hg.i_hyg_pi(0.0, A)
    with pytest.raises(AppellFieldError):
        hg.i_hyg_pi(0.0, A, gap=0.0)


@pytest.mark.parametrize("m, A", [(math.nan, 0.3), (0.3, math.nan), (math.inf, 0.3),
                                  (0.3, math.inf), (0.3, -math.inf)])
def test_i_hyg_pi_rejects_nonfinite_arguments(m, A):
    with pytest.raises(DomainError):
        hg.i_hyg_pi(m, A)


@pytest.mark.parametrize("gap", [1e-300, 0.9, 0.25 + 2e-14, math.nan, math.inf])
def test_i_hyg_pi_rejects_a_gap_that_is_not_one_minus_m_minus_a_squared(gap):
    # at m = A = 1/2 the gap is 1/4; another gap, read as the exact
    # complements, would give a wrong value (3.352 at 1e-300 and 1.644 at
    # 0.9, against 2.154)
    with pytest.raises(DomainError, match=r"is not 1 - m - A\^2"):
        hg.i_hyg_pi(0.5, 0.5, gap)
    assert hg.i_hyg_pi(0.5, 0.5, 0.25) == hg.i_hyg_pi(0.5, 0.5) == pytest.approx(2.154, abs=5e-4)
    # a gap off by rounding is taken
    assert hg.i_hyg_pi(0.5, 0.5, 0.25 + 4e-16) == pytest.approx(2.154, abs=5e-4)


def _gaps_around_ratio(num, target):
    # {side: gap}: gaps with num/(num + gap) just above (1), at (0) and just
    # below (-1) target, from the complements num + gap within 64 ulps of
    # num/target; each gap is exact, so num + gap is the complement itself
    comps = [num / target]
    for _ in range(64):
        comps = [math.nextafter(comps[0], 0.0), *comps, math.nextafter(comps[-1], math.inf)]
    sides = {1: [c for c in comps if num / c > target][-1:],
             0: [c for c in comps if num / c == target][:1],
             -1: [c for c in comps if num / c < target][:1]}
    assert all(sides.values()), (num, target)
    gaps = {side: found[0] - num for side, found in sides.items()}
    assert all(num + gap == sides[side][0] for side, gap in gaps.items())
    return gaps


@pytest.mark.parametrize("side", [-1, 0, 1])
@pytest.mark.parametrize("threshold, above", [(0.95, "integral"), (0.995, "boundary")])
@pytest.mark.parametrize("m, A, series", [(0.6, 0.45, "ke"), (0.45 * 0.45, 0.75, "inner")])
def test_i_hyg_pi_route_at_the_ratio_thresholds(m, A, series, threshold, above, side):
    # the smaller ratio just below, at and just above each threshold, the
    # larger one above it: the single-index sums run up to 0.95
    # (SERIES_RATIO_MAX), the integral of dI/dA up from A = 0 beyond it and
    # up to 0.995, and the integral in from the surface value beyond that.
    # The smaller ratio's numerator (A^2 on the K/E-seeded route, m on the
    # inner-2F1 one) and the gap fix the triple: the other argument is
    # replaced by the one that m + A^2 + gap = 1 gives
    below = series if threshold == hg.SERIES_RATIO_MAX else "integral"
    if series == "ke":
        gap = _gaps_around_ratio(A * A, threshold)[side]
        m = 1.0 - A * A - gap
    else:
        gap = _gaps_around_ratio(m, threshold)[side]
        A = math.sqrt(1.0 - m - gap)
    tag, omm, omy = hg._i_hyg_pi_route(m, A * A, gap)
    assert (omm, omy) == (A * A + gap, m + gap)
    smaller, larger = sorted((A * A / omm, m / omy))
    assert {1: smaller > threshold, 0: smaller == threshold, -1: smaller < threshold}[side]
    assert larger > threshold
    assert tag == (above if side == 1 else below)


@pytest.mark.parametrize("threshold", [0.95, 0.995])
@pytest.mark.parametrize("m, A", [(0.6, 0.45), (0.45 * 0.45, 0.75)])
def test_i_hyg_pi_is_continuous_across_the_ratio_thresholds(m, A, threshold):
    # the values just below and just above each threshold, on either
    # single-index route, agree to the accuracy of the route below: the
    # sums' tolerance at 0.95, the rounding of the integrals at 0.995
    values = []
    for side in (-1, 1):
        if m > A * A:
            gap = _gaps_around_ratio(A * A, threshold)[side]
            triple = (1.0 - A * A - gap, A, gap)
        else:
            gap = _gaps_around_ratio(m, threshold)[side]
            triple = (m, math.sqrt(1.0 - m - gap), gap)
        values.append(hg.i_hyg_pi(*triple))
    tol = hg.REL_TOL if threshold == hg.SERIES_RATIO_MAX else 1e-14
    assert values[0] == pytest.approx(values[1], rel=tol, abs=0.0)


def test_i_hyg_pi_route_tags():
    # the rule takes (m, y = A^2, gap)
    route = hg._i_hyg_pi_route
    # the tie y/(1 - m) = m/(1 - y) goes to the inner-2F1 sum, with and
    # without gap
    assert route(0.25, 0.25, 0.5)[0] == route(0.25, 0.25, None)[0] == "inner"
    assert route(0.0625, 0.0625, 0.875)[0] == "inner"
    # on the axis m = 0 the inner-2F1 sum is atanh: ratio 0
    assert route(0.0, 0.25, 0.75)[0] == route(0.0, 0.25, None)[0] == "inner"
    assert route(0.6, 0.0625, None)[0] == "ke"
    # y = 0 is summed at ratio 0; i_hyg_pi itself returns 0 for A = 0
    assert route(0.3, 0.0, 0.7)[0] == route(0.3, 0.0, None)[0] == "ke"
    assert repr(hg.i_hyg_pi(0.3, 0.0, 0.7)) == repr(hg.i_hyg_pi(0.3, -0.0)) == "0.0"
    # the rim 1 - m = 0 gives 0 early
    assert route(1.0, 1e-18, None)[0] == "zero"
    from appellfield.geometry import aux
    a = aux(1.0, 0.0, 1.0)
    assert route(a.m, a.A * a.A, a.gap)[0] == "zero"
    # on the boundary gap = 0 both ratios are 1
    assert route(0.5, math.sqrt(0.5) ** 2, 0.0)[0] == "boundary"
    with pytest.raises(DomainError):
        route(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        route(0.5, 0.5625, None)


def _batch_arguments(rng, n):
    # (m, A, gap = 1 - m - A^2) over both single-index routes, their ratios
    # up to 0.995, the axis m = 0, A^2 down to 1e-30 and gap from 0 to 1 - m,
    # the grids' arguments, and integral, boundary, zero and out-of-domain
    # elements for the batch to leave
    out = []
    for _ in range(n):
        m = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        sign = math.copysign(1.0, rng.uniform(-1.0, 1.0))
        if rng.uniform() < 0.5:
            A = sign * math.sqrt((1.0 - m) * 10.0 ** rng.uniform(-30.0, 0.0))
            gap = (1.0 - m) - A * A
        else:
            gap = (1.0 - m) * float(rng.choice([0.0, 10.0 ** rng.uniform(-12.0, 0.0),
                                                rng.uniform(0.0, 1.0)]))
            A = sign * math.sqrt((1.0 - m) - gap)
        out.append((m, A, gap))
    for q in np.linspace(0.9, 0.995, 12).tolist():
        # smaller ratio q on either route, the other ratio above it
        y = float(rng.uniform(0.05, 0.45))
        gap = y * (1.0 - q) / q
        m = 1.0 - y - gap
        out += [(m, math.sqrt(y), gap), (y, -math.sqrt(m), gap)]
    from appellfield.geometry import aux
    for _ in range(n):
        # the grids' arguments: slots (R = 1, zeta; r)
        a = aux(1.0, float(rng.uniform(-4.0, 4.0)), float(rng.uniform(0.0, 3.0)))
        out.append((a.m, a.A, a.gap))
    out += [(0.3, 0.0, 0.7), (0.5, math.sqrt(0.5), 0.0), (0.0, 1.0, 0.0), (-0.1, 0.5, 0.5),
            (0.5, 0.75, 0.1), (math.nan, 0.5, 0.5), (0.5, 0.5, math.nan),
            (0.5, 0.5, 1e301)]  # a gap that is not 1 - m - A^2
    assert {_route_or_error(*a) for a in out} == {"zero", "integral", "boundary", "ke", "inner",
                                                  "error"}
    return out


def _assert_batch_matches_scalar(args):
    # every value the batch returns is the scalar one, on the single-index
    # routes and the integral up from A = 0; it leaves (nan) only the
    # boundary route, the zeros and the elements whose scalar call raises
    m, A, gap = (list(v) for v in zip(*args))
    batch = hg.i_hyg_pi_batch(m, A, gap)
    assert batch.shape == (len(args),)
    for value, (mi, ai, gi) in zip(batch.tolist(), args):
        route = _route_or_error(mi, ai, gi)
        try:
            scalar = hg.i_hyg_pi(mi, ai, gi)
        except (DomainError, ConvergenceError):
            scalar = None
        if route in ("ke", "inner", "integral") and scalar is not None:
            assert value == scalar, (mi, ai, gi)
        else:
            assert math.isnan(value), (mi, ai, gi)


def test_i_hyg_pi_batch_equals_the_scalar_calls():
    args = _batch_arguments(np.random.default_rng(15), 300)
    _assert_batch_matches_scalar(args)


def _route_or_error(m, A, gap):
    # i_hyg_pi's route: the rule's, and "zero" for A = 0
    try:
        tag = hg._i_hyg_pi_route(m, A * A, gap)[0]
    except DomainError:
        return "error"
    return "zero" if A == 0.0 else tag


def _aux_triple(zeta, r):
    from appellfield.geometry import aux
    a = aux(1.0, zeta, r)
    return a.m, a.A, a.gap


# (m, A, gap = 1 - m - A^2): from geometry.aux at slots (R = 1, zeta; r),
# whose gap ((r - r0)/L0)^2 is 0 or above 1e-32, or from drawn m and A
_triple = st.one_of(
    st.builds(_aux_triple, st.floats(-4.0, 4.0), st.floats(0.0, 3.0)),
    st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0))
    .map(lambda t: (t[0], t[1], (1.0 - t[0]) - t[1] * t[1])).filter(lambda t: t[2] >= 0.0))


@settings(max_examples=40, deadline=None)
@given(st.lists(_triple, min_size=1, max_size=12))
@example([(2.2250738585072014e-308, 1.0, 0.0)])  # the tiny-m rim: a surface value
def test_i_hyg_pi_batch_equals_the_scalar_calls_hypothesis(args):
    _assert_batch_matches_scalar(args)


def test_series_sums_stop_each_series_by_the_scalar_rule():
    # per element: the sum stops at its third consecutive small term, as
    # _series_sum does, and a sum still running past MAX_TERMS is nan
    rows = [[1.0, 0.0, 2.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 100.0],
            [1.0, 0.5, 0.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0, 0.0]]
    # past the rows: ones
    terms = itertools.chain(np.array(rows).T, itertools.repeat(np.ones(len(rows))))
    sums = hg._series_sums(terms, len(rows), hg.REL_TOL)
    assert sums.tolist() == [hg._series_sum(iter(row), hg.REL_TOL, "row") for row in rows]
    endless = itertools.repeat(np.ones(2))
    assert all(math.isnan(v) for v in hg._series_sums(endless, 2, hg.REL_TOL))


def _series_sums_of_rows(rows):
    # (_series_sums, _series_sum per row) of the series whose terms are the
    # rows, each continued by ones; a scalar sum that raises
    # ConvergenceError is nan
    width = max(map(len, rows))
    columns = np.ones((width, len(rows)))
    for i, row in enumerate(rows):
        columns[:len(row), i] = row
    terms = itertools.chain(columns, itertools.repeat(np.ones(len(rows))))

    def scalar(row):
        try:
            return hg._series_sum(itertools.chain(row, itertools.repeat(1.0)), hg.REL_TOL, "row")
        except ConvergenceError:
            return math.nan

    return hg._series_sums(terms, len(rows), hg.REL_TOL).tolist(), [scalar(r) for r in rows]


def _large(rng, n):
    # n terms that are not small against their running sum
    return rng.uniform(0.5, 1.5, n).tolist()


def test_series_sums_stop_by_the_scalar_rule_at_each_position():
    rng = np.random.default_rng(19)
    rows = [_large(rng, 5) + [0.0] * 3, _large(rng, 30) + [0.0] * 3,
            _large(rng, 31) + [0.0] * 3,
            # two small terms, then a large one
            _large(rng, 30) + [0.0] * 2 + _large(rng, 1) + [0.0] * 3,
            # stops while the last row runs on
            _large(rng, 35) + [0.0] * 3, _large(rng, 41) + [0.0] * 3,
            _large(rng, 103) + [0.0] * 3]
    got, want = _series_sums_of_rows(rows)
    assert repr(got) == repr(want)
    assert all(map(math.isfinite, got))


def test_series_sums_cap_at_max_terms():
    # MAX_TERMS + 1 terms are summed
    rng = np.random.default_rng(20)
    rows = [_large(rng, hg.MAX_TERMS - 2) + [0.0] * 3,  # its third small term is the last summed
            _large(rng, hg.MAX_TERMS - 1) + [0.0] * 3,  # one term past it
            [1.0]]                                       # never stops
    got, want = _series_sums_of_rows(rows)
    assert repr(got) == repr(want)
    assert math.isfinite(got[0]) and math.isnan(got[1]) and math.isnan(got[2])


def test_i_hyg_surface():
    assert hg.i_hyg_surface(0.5) == pytest.approx(ISUR_05, rel=1e-10)
    assert hg.i_hyg_surface(0.85) == pytest.approx(ISUR_085, rel=1e-10)
    assert abs(hg.i_hyg_surface(1.0 - 1e-6) - 0.0185881063) < 1e-8
    with pytest.raises(DomainError):
        hg.i_hyg_surface(0.0)
    with pytest.raises(DomainError):
        hg.i_hyg_surface(1.0)


@pytest.mark.parametrize("b0", [1e-3, 1e-5, 1e-6, 1e-7])
def test_i_hyg_surface_near_one_matches_mpmath(b0):
    # I = 2b(ln(4/b) + 1) + int_0^b [2K(1-v^2)/(1-v^2) - 2 ln(4/v)] dv at the
    # b = sqrt(1-m) the code forms from the float m; below v = 1e-8 the
    # integrand is its leading term 2v^2((5/4) ln(4/v) - 1/4), because there
    # mpmath's ellipk(1 - v^2) lands on its pole at 30 digits
    mpmath = pytest.importorskip("mpmath")
    m = 1.0 - b0 * b0
    with mpmath.workdps(30):
        b = mpmath.mpf(math.sqrt(1.0 - m))
        cut = mpmath.mpf("1e-8")

        def f(v):
            if v < cut:
                return 2 * v * v * (mpmath.mpf(5) / 4 * mpmath.log(4 / v) - mpmath.mpf(1) / 4)
            return 2 * mpmath.ellipk(1 - v * v) / (1 - v * v) - 2 * mpmath.log(4 / v)

        ref = float(2 * b * (mpmath.log(4 / b) + 1) + mpmath.quad(f, [0, cut, b]))
    assert hg.i_hyg_surface(m) == pytest.approx(ref, rel=1e-12)


def _surface_integral(m):
    # the defining integral int_m^1 K(t) dt / (t sqrt(1-t)) at 30 digits,
    # split at m 10^(10 k): at tiny m the integrand is about (pi/2)/t over
    # hundreds of decades, which one interval does not resolve
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        nodes = [mpmath.mpf(m)]
        while nodes[-1] * 1e10 < 0.5:
            nodes.append(nodes[-1] * 10 ** 10)
        nodes.append(mpmath.mpf(1))
        return float(mpmath.quad(lambda t: mpmath.ellipk(t) / (t * mpmath.sqrt(1 - t)), nodes))


@pytest.mark.parametrize("m", [1e-300, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 0.01, 0.1, 0.2, 1.0 / 3.0])
def test_i_hyg_surface_below_one_third_matches_its_defining_integral(m):
    # the 4F3 series route; the quadrature route raises ConvergenceError
    # below m = 3.7e-10 and is 6.6e-10 off at m = 1e-8
    assert hg.i_hyg_surface(m) == pytest.approx(_surface_integral(m), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m", [0.34, 0.5, 0.7, 0.9, 0.99, 0.999])
def test_i_hyg_surface_above_one_third_matches_its_defining_integral(m):
    # the quadrature route; check C03 compares it with the integral of dI/dA
    assert hg.i_hyg_surface(m) == pytest.approx(_surface_integral(m), rel=1e-14, abs=0.0)


def test_i_hyg_pi_at_the_tiny_m_rim():
    # m = 2.2e-308 and A = 1.0 = sqrt(1 - m) on the boundary (gap = 0), where
    # the quadrature route raises DomainError. K(t)/sqrt(1-t) =
    # (pi/2)(1 + 3t/4 + O(t^2)) gives I = (pi/2) ln(16/m) - (3 pi/8) m + O(m^2)
    mpmath = pytest.importorskip("mpmath")
    m = 2.2250738585072014e-308
    with mpmath.workdps(40):
        mm = mpmath.mpf(m)
        ref = float(mpmath.pi / 2 * mpmath.log(16 / mm) - 3 * mpmath.pi / 8 * mm)
    assert hg.i_hyg_pi(m, 1.0, 0.0) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("m", [1e-300, 1e-12, 5e-10, 2e-9, 0.2, 1.0 / 3.0, 0.34, 0.5, 0.85,
                               1.0 - 1e-6])
def test_i_hyg_surface_is_the_boundary_value_of_i_hyg_pi(m):
    assert hg.i_hyg_surface(m) == hg.i_hyg_pi(m, math.sqrt(1.0 - m), gap=0.0)


def test_surface_value_takes_the_4f3_series_up_to_one_third(monkeypatch):
    # one route per side of m = 1/3: the 4F3 series up to its range
    # (_surface_by_series), the quadrature above
    calls = []
    for name in ("_i_hyg_surface_quad", "_i_hyg_surface_f43"):
        def record(*args, _name=name, _fn=getattr(hg, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(hg, name, record)
    for m, route in ((1e-300, "_i_hyg_surface_f43"), (1.0 / 3.0, "_i_hyg_surface_f43"),
                     (0.34, "_i_hyg_surface_quad"), (0.9, "_i_hyg_surface_quad")):
        calls.clear()
        hg.i_hyg_pi(m, math.sqrt(1.0 - m), 0.0)
        assert calls == [route], m


def test_i_hyg_surface_matches_boundary_series_extrapolation():
    # pi sqrt(1-m) F2(1/2;1/2,1;1,3/2; m, 1-m) sits exactly on the convergence
    # boundary, where anti-diagonal sums decay like N^(-3/2); two Richardson
    # levels in 1/sqrt(N) recover the limit, independently of the library's
    # own evaluation routes
    m = 0.3
    x, y = m, 1.0 - m
    # F2 = sum_j (1/2)_j (1/2)_j /((1)_j j!) x^j 2F1(1/2+j, 1; 3/2; y); at the
    # boundary the summand decays like j^(-3/2): partial sums at J, 2J, 4J
    u = 1.0 - y
    marks = (4096, 8192, 16384)
    partials = []
    fhat = math.atanh(math.sqrt(y)) / math.sqrt(y)  # 2F1(1/2,1;3/2;y) * u^0
    coef = 1.0
    upow = 1.0
    total = fhat
    for j in range(marks[-1]):
        a = 0.5 + j
        fhat = ((2.0 * a - 1.0) * fhat + upow) / (2.0 * a)
        upow *= u
        coef *= (0.5 + j) ** 2 / ((1.0 + j) * (j + 1.0)) * (x / u)
        total += coef * fhat
        if j + 2 in marks:
            partials.append(total)
    s1, s2, s3 = partials
    r = 1.0 / math.sqrt(2.0)
    e1 = (s2 - r * s1) / (1.0 - r)
    e2 = (s3 - r * s2) / (1.0 - r)
    r2 = r ** 3
    limit = (e2 - r2 * e1) / (1.0 - r2)
    boundary = math.pi * math.sqrt(1.0 - m) * limit
    assert boundary == pytest.approx(hg.i_hyg_surface(m), abs=1e-6)


def test_parameter_derivatives():
    assert hg.di_hyg_dA(0.5, 0.3, 2.0) == pytest.approx(DIA_05_03_20, rel=1e-12)
    assert hg.di_hyg_dm(0.5, 0.3, 2.0) == pytest.approx(DIM_05_03_20, rel=1e-12)
    th = 1.1
    assert hg.di_hyg_dA(0.7, 0.0, th) == pytest.approx(
        2.0 * elliptic.ellip_f(th / 2.0, 0.7), rel=1e-14)


@pytest.mark.parametrize("m", [1e-300, 1e-14, 1e-12, 1e-10, 1e-6, 1e-3, 0.3, 0.9])
def test_di_hyg_dm_keeps_its_digits_as_m_goes_to_0(m):
    # (A/m)(Pi - F) as the difference of Pi and F was 5.3e-6 off at
    # m = 1e-10 and 100% at 1e-300; as Pi - F's R_J term it needs neither
    # the difference nor the division by m. The reference is 40-digit
    # quadrature of the m-derivative of the integrand,
    # A sin^2(t/2) / (2 sqrt(q) (q - A^2)), q = 1 - m sin^2(t/2)
    mpmath = pytest.importorskip("mpmath")
    for A, theta in ((0.5, 1.0), (0.3, -2.0), (0.5, math.pi), (0.95 * math.sqrt(1.0 - m), 1.0),
                     (-0.7, 4.0)):
        if m / (1.0 - A * A) >= 1.0 and abs(theta) >= math.pi:
            continue  # the characteristic is singular on the path
        with mpmath.workdps(40):
            mm, aa = mpmath.mpf(m), mpmath.mpf(A)

            def f(t):
                q = 1 - mm * mpmath.sin(t / 2) ** 2
                return aa * mpmath.sin(t / 2) ** 2 / (2 * mpmath.sqrt(q) * (q - aa ** 2))

            th = mpmath.mpf(theta)
            ref = mpmath.quad(f, [0, th] if abs(theta) <= math.pi else [0, mpmath.pi, th])
        assert hg.di_hyg_dm(m, A, theta) == pytest.approx(float(ref), rel=1e-13), (A, theta)


def test_surface_value_at_a_subnormal_m():
    # ln(-mu/16) at mu = -5e-324: -mu/16 underflows to 0, and the log took
    # it. Reference: the closed form -(pi mu/8) 4F3 - (pi/2) ln(-mu/16) at
    # 40 digits
    for value in (hg.i_hyg_pi(5e-324, 1.0), hg.i_hyg_surface(5e-324)):
        assert value == pytest.approx(1173.7189026736417, rel=1e-15)
    assert hg.i_hyg_surface(1e-310) == pytest.approx(1125.5917561050043, rel=1e-15)


def test_triple_sum_and_alternatives_match():
    m, A, s = 0.3, 0.2, 0.4
    th = 2.0 * math.asin(s)
    base = hg.i_hyg(m, A, th)
    assert hg.lauricella_f11_triple(m, A, s) == pytest.approx(base, abs=1e-10)
    for v in (1, 2, 3):
        assert hg.i_hyg_alt(v, m, A, s) == pytest.approx(base, abs=1e-10)
    assert hg.lauricella_f11_triple(m, A, 0.0) == 0.0
    assert hg.i_hyg_alt(2, m, 0.0, s) == 0.0
