"""The verify checks catch a defect of the closed form they test, the
checks whose stencils share their points read what they read when each
stencil evaluated every point itself, two passes read the same, and the
defining-integral, Z sc and Coulomb references are fixed rules, the first
matching mpmath."""

import math

import numpy as np
import pytest

from appellfield import fields, hypergeom, jacobi, oracle, verify
from appellfield.errors import DomainError


def _scaled(monkeypatch, module, name, factor=1.0 + 1e-6):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: factor * original(*args, **kw))


def test_c12_catches_a_scaled_psi_tube(monkeypatch):
    assert verify.run_check("C12", seed=0, full=False).passed
    _scaled(monkeypatch, fields, "psi_tube")
    result = verify.run_check("C12", seed=0, full=False)
    assert not result.passed, result.detail
    assert result.worst > 5.0


@pytest.mark.parametrize("name", ["di_hyg_dA", "di_hyg_dm"])
def test_c05_catches_a_scaled_derivative(monkeypatch, name):
    assert verify.run_check("C05", seed=0, full=False).passed
    _scaled(monkeypatch, hypergeom, name)
    result = verify.run_check("C05", seed=0, full=False)
    assert not result.passed, result.detail
    assert result.worst > 5.0


@pytest.mark.parametrize("full", [False, True])
def test_c04_catches_int_z_sc_off_by_1e_9(monkeypatch, full):
    assert verify.run_check("C04", seed=0, full=full).passed
    _scaled(monkeypatch, jacobi, "int_z_sc", factor=1.0 + 1e-9)
    result = verify.run_check("C04", seed=0, full=full)
    assert not result.passed, result.detail
    assert result.worst > 1.0


@pytest.mark.parametrize("name", ["_i_hyg_surface_quad", "_i_hyg_surface_f43"])
def test_c03_catches_a_surface_route_off_by_1e_12(monkeypatch, name):
    # C03 draws no random numbers: every seed and suite reads the same
    assert verify.run_check("C03", seed=0, full=False).passed
    _scaled(monkeypatch, hypergeom, name, factor=1.0 + 1e-12)
    result = verify.run_check("C03", seed=0, full=False)
    assert not result.passed, result.detail
    assert result.worst > 1.0


def test_c03_catches_the_quadrature_off_by_1e_12_toward_m_1(monkeypatch):
    # only where b = sqrt(1 - m) < 1e-2, at m = 1 - 1e-6, where 1e-12 of the
    # value 0.0186 is 1.9e-14 absolute
    original = hypergeom._i_hyg_surface_quad
    monkeypatch.setattr(hypergeom, "_i_hyg_surface_quad",
                        lambda b: original(b) * (1.0 + 1e-12 if b < 1e-2 else 1.0))
    result = verify.run_check("C03", seed=0, full=False)
    assert not result.passed, result.detail
    assert result.worst > 1.0


def test_c03_runs_each_surface_route_only_where_the_package_runs_it(monkeypatch):
    # the 4F3 series at C03's m <= 1/3 (0.1, 0.2, 0.3), the quadrature at its
    # m > 1/3 (0.4 to 0.9, 1 - 1e-6, and 0.99 for the decreasing value)
    seen = {"_i_hyg_surface_quad": [], "_i_hyg_surface_f43": []}
    for name, calls in seen.items():
        original = getattr(hypergeom, name)
        monkeypatch.setattr(hypergeom, name,
                            lambda *a, _f=original, _c=calls: _c.append(a) or _f(*a))
    assert verify.run_check("C03", seed=0, full=False).passed
    assert len(seen["_i_hyg_surface_f43"]) == 3
    assert all(m <= 1.0 / 3.0 for m, _ in seen["_i_hyg_surface_f43"])
    assert len(seen["_i_hyg_surface_quad"]) == 8
    assert all(1.0 - b * b > 1.0 / 3.0 for (b,) in seen["_i_hyg_surface_quad"])


def test_c12_differences_psi_only_along_each_side(monkeypatch):
    # 2 psi_tube values per node or step end: 24 nodes on each of the
    # rectangle's 5 sides and the square's 4, 2 ends of the step
    psi_tube, calls = fields.psi_tube, []
    monkeypatch.setattr(fields, "psi_tube", lambda *a, **kw: calls.append(a) or psi_tube(*a, **kw))
    assert verify.run_check("C12", seed=0, full=False).passed
    assert len(calls) == 2 * (24 * 9 + 2) == 436


def test_c11_tube_points_are_distinct_and_clear_of_the_tube():
    # each five-point stencil (h = 0.01) at least 0.1 from the sheet
    # {r = 1, |z| <= 0.7}, its end edges among it, and from the branch-0 cut
    # {z = 0, r <= 1}; the fast suite keeps its first 8
    pts = verify._CONJUGACY_TUBE_POINTS
    assert len(set(pts)) == len(pts) == 20
    assert pts[:8] == ((2.0, 0.4), (1.5, -0.9), (0.5, 0.35), (0.4, -0.4), (2.5, 1.5),
                       (0.2, 0.5), (1.8, 0.1), (0.6, -0.3))
    R, Z, h = verify.FIG_TUBE.R, verify.FIG_TUBE.Z, 0.01
    for r, z in pts:
        assert r >= 0.15
        for sr, sz in ((r, z), (r + h, z), (r - h, z), (r, z + h), (r, z - h)):
            sheet = math.hypot(sr - R, max(abs(sz) - Z, 0.0))
            cut = math.hypot(max(sr - R, 0.0), sz)
            assert min(sheet, cut) >= 0.1 - 1e-12, (r, z)
    assert "2 bodies x 20 points" in verify.run_check("C11", seed=0, full=True).detail


# worst residual ratios of the fast suite, as read when each stencil
# evaluated all its points itself, and C12's as read when its field
# differenced psi across each side too
@pytest.mark.parametrize("ident,seed,worst", [
    ("C10", 0, "0.9000144414586894"),
    ("C10", 42, "0.9000637111612076"),
    ("C11", 0, "0.9000138249038667"),
    ("C11", 42, "0.9000138249038667"),
    ("C12", 0, "0.013651544493380942"),
    ("C12", 42, "0.013651544493380942"),
])
def test_shared_stencil_points_keep_the_result(ident, seed, worst):
    result = verify.run_check(ident, seed=seed, full=False)
    assert result.passed
    assert repr(result.worst) == worst


def test_a_negative_seed_raises_before_any_check_runs(monkeypatch):
    # the seed reached np.random.default_rng, whose ValueError was untyped
    monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("a check ran"))
    with pytest.raises(DomainError, match="non-negative"):
        verify.run_suite("fast", seed=-1)
    with pytest.raises(DomainError, match="non-negative"):
        verify.run_check("C09", seed=-1, full=False)


def test_two_passes_of_the_special_function_checks_read_the_same():
    # the benchmark requires every pass of a run to give the same results,
    # so nothing a check computes may carry over to the next pass
    idents = {"C01", "C02", "C03", "C04", "C05", "C06", "C08", "C14", "C15"}
    passes = [[(r.ident, r.passed, repr(r.worst)) for r in verify.run_suite("fast", 0, idents)]
              for _ in range(2)]
    assert passes[0] == passes[1]
    assert len(passes[0]) == 9 and all(passed for _, passed, _ in passes[0])


@pytest.mark.parametrize("full", [False, True])
def test_c01_checks_the_series_at_every_point(monkeypatch, full):
    # C01 takes i_hyg's single sum at every point, also at its largest
    # ratio m/(1 - A^2), 0.954, past SERIES_RATIO_MAX, where i_hyg itself
    # takes the defining integral: the closed form it compares with the
    # defining integral is never i_hyg's route, which may be that integral
    monkeypatch.setattr(hypergeom, "i_hyg", lambda *args: pytest.fail("C01 ran i_hyg"))
    assert verify.run_check("C01", seed=0, full=full).passed


@pytest.mark.parametrize("ident", ["C01", "C02", "C04", "C14"])
@pytest.mark.parametrize("full", [False, True])
def test_the_series_and_coulomb_checks_take_no_adaptive_quadrature(monkeypatch, ident, full):
    # their references, the defining integral, the integral of Z sc and the
    # Coulomb angular integrals, are fixed graded Gauss-Legendre sums, and
    # so is whatever their closed forms integrate
    monkeypatch.setattr(oracle, "quad_1d", lambda *args, **kw: pytest.fail("quad_1d ran"))
    result = verify.run_check(ident, seed=0, full=full)
    assert result.passed, result.detail


def test_defining_integral_reference_matches_mpmath():
    # the defining integral of C01 and C02, which i_hyg takes too, at seeded
    # (m, A, theta): |theta| from 1e-8 to pi, m + A^2 up to 1 - 1e-9 (the
    # distance to 1 log-uniform, and uniform), against 40-digit mpmath
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    cases = [(0.3, 0.4, 1e-6), (0.3, 0.4, math.pi), (0.5, -0.6, -0.5 * math.pi),
             (0.5, 0.6, math.nextafter(0.5 * math.pi, 4.0)), (0.0, 0.9, 2.0),
             (0.99, -math.sqrt(0.01 - 1e-9), math.pi), (1e-6, math.sqrt(1.0 - 2e-6), -1e-4)]
    for k in range(40):
        m = rng.uniform(0.0, 1.0)
        gap = 10.0 ** rng.uniform(-9.0, 0.0) * (1.0 - m) if k % 2 else rng.uniform(0.0, 1.0 - m)
        A = rng.choice([-1.0, 1.0]) * math.sqrt(max(1.0 - m - max(gap, 1e-9), 0.0))
        th = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, math.log10(math.pi))
        cases.append((m, A, th))
    for m, A, th in cases:
        assert m + A * A <= 1.0 - 1e-9
        with mp.workdps(40):
            ref = mp.quad(lambda t: mp.atanh(A / mp.sqrt(1 - m * mp.sin(t / 2) ** 2)),
                          mp.linspace(0, th, 9))
        value = hypergeom._i_hyg_defining(m, A, th)
        assert abs(value - ref) <= 2e-15 * abs(ref), (m, A, th)
