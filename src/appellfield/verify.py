"""Acceptance battery: every contract criterion as a runnable check.

Each check returns a CheckResult with a pass verdict and its worst residual
normalized to the criterion tolerance (so values <= 1 pass). The battery
backs both ``appellfield verify`` and the acceptance test module; the checks
compare closed forms against independent brute-force routes only. Those
routes are fixed rules: C01 and C02 take hypergeom's one implementation of
the defining integral of I(m, A; theta), C03 the integral of dI/dA up to
the surface value, C04 the graded rule on Z sc
toward the pole of sc, and C08 and C14 the Coulomb references of oracle.
Adaptive quadrature (oracle.quad_1d) is no check's reference: it runs only
inside the surface value above m = 1/3, and a part of the potentials near
r = R. C03 compares the surface value's route at each of its m with the
integral of dI/dA, each route only where the package runs it: the 4F3
series up to m = 1/3, the quadrature above.
"""

import functools
import math
import time

import numpy as np

from . import elliptic, fields, hypergeom, indefinite, jacobi, oracle
from .errors import DomainError
from .geometry import CylinderSpec, DiskSpec, Record, TubeSpec

FIG_CYLINDER = CylinderSpec(R=1.0, Z=0.7, rho0=1.0)
FIG_TUBE = TubeSpec(R=1.0, Z=0.7, sigma0=1.0)


class CheckResult(Record):
    __slots__ = _fields = ("ident", "name", "passed", "worst", "detail", "seconds")

    def __init__(self, ident, name, passed, worst, detail, seconds):
        object.__setattr__(self, "ident", ident)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "worst", worst)  # worst residual / tolerance; <= 1 passes
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "seconds", seconds)


def _crit01_ihyg_identity(rng, full):
    n = 10 if full else 4
    ms = np.linspace(0.05, 0.945, n)
    As = np.linspace(-0.89, 0.89, n)
    thetas = np.linspace(0.12, math.pi, n)
    tol = 1e-8
    worst = 0.0
    count = 0
    t0 = time.perf_counter()
    for m in ms:
        for A in As:
            if m + A * A >= 0.98:
                continue
            for th in thetas:
                # the closed form at every point: i_hyg_pi's value minus the
                # single sum (just the former at theta = pi), also at the full
                # grid's m = 0.945, |A| = 0.099, whose ratio m/(1 - A^2) =
                # 0.954 is past SERIES_RATIO_MAX, where i_hyg itself takes
                # the defining integral
                closed = hypergeom._i_hyg_series(m, A, math.sin(th / 2.0))
                ref = hypergeom._i_hyg_defining(m, A, th)
                worst = max(worst, abs(closed - ref) / max(abs(ref), 1e-3))
                count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < tol and elapsed < 60.0
    return ok, worst / tol, f"{count} grid points, worst rel {worst:.2e}, {elapsed:.1f} s (< 60 s)"


def _crit02_definite_reduction(rng, full):
    tol = 1e-12
    worst = 0.0
    n = 100 if full else 40
    for _ in range(n):
        m = rng.uniform(0.0, 0.95)
        amax = math.sqrt(max(0.979 - m, 1e-4))
        A = rng.uniform(-amax, amax)
        a = hypergeom._i_hyg_defining(m, A, math.pi)
        b = hypergeom.i_hyg_pi(m, A)
        worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    return worst < tol, worst / tol, f"{n} random points, worst {worst:.2e}"


def _crit03_surface_value(rng, full):
    # the surface value's route at each m, where the package runs it: the
    # 4F3 series up to m = 1/3 and the quadrature above, against the
    # integral of dI/dA from A = 0 to the boundary, which the integral route
    # of i_hyg_pi runs and which is within 5.1e-16 of 30-digit mpmath at
    # these m. The routes read within 7.5e-16 of it; a 1e-12 relative error
    # in either fails, at m = 1 - 1e-6 too, where the value is 0.0186
    tol = 1e-13
    worst = 0.0
    for m in np.arange(0.1, 0.95, 0.1).tolist() + [1.0 - 1e-6]:
        omm = 1.0 - m
        A0 = math.sqrt(omm)
        ref = hypergeom._di_da_integral(m, A0, 0.0, math.sqrt(A0))
        if hypergeom._surface_by_series(m, omm):
            value = hypergeom._i_hyg_surface_f43(m, omm)
        else:
            value = hypergeom._i_hyg_surface_quad(A0)
        worst = max(worst, abs(value - ref) / ref)
    # toward m -> 1 the value decays like sqrt(1-m) ln(1/(1-m)): the last
    # quadrature value, at m = 1 - 1e-6, is small and below the one at 0.99
    ok = worst < tol and 0.0 < value < hypergeom._i_hyg_surface_quad(math.sqrt(1.0 - 0.99)) < 1.0
    return ok, worst / tol, (
        f"10 m-values up to 1-1e-6, worst rel {worst:.2e}; value at m=1-1e-6 "
        f"{value:.6f}, decreasing toward 0")


def _crit04_zsc_formula(rng, full):
    # the graded reference is within 3.2e-15 of int_z_sc, whose values reach
    # 5.0 (at m = 0.99); a 1e-9 relative error in int_z_sc fails
    tol_resid = 1e-12
    worst = 0.0
    npts = 41 if full else 11
    details = []
    for m in (0.3, 0.6, 0.85, 0.99):
        K = elliptic.comp_k(m)

        def zsc(u, _m=m):
            # Z(u) sc(u) = Z tan(am(u)) from one descent, which for
            # |u| < K is jacobi_zeta(u) * jacobi_sc(u)
            am, zeta = jacobi._descent(u, _m)
            return zeta * math.tan(am)

        # the reference integral from 0, accumulated outward over the
        # intervals between consecutive u of (0, K - 0.05], in x = K - u:
        # Z sc is even, with poles at u = +-K, so the reference at u serves
        # -u too, and the graded rule with h = K - u, the interval's
        # distance from the pole at x = 0, keeps each panel [a, b] within
        # b <= 2a, clear of it
        us = np.linspace(0.0, K - 0.05, npts // 2 + 1)[1:].tolist()
        ref, prev = 0.0, 0.0
        for u in us:
            ref += oracle.graded_gauss_legendre(lambda x: zsc(K - x), K - u, K - u, K - prev)
            prev = u
            worst = max(worst, abs(jacobi.int_z_sc(u, m) - ref),
                        abs(jacobi.int_z_sc(-u, m) + ref))
        delta = 1e-7
        measured = jacobi.int_z_sc(K - delta, m) - jacobi.int_z_sc(K + delta, m)
        formula = jacobi.zsc_branch_jump(m)
        jump_rel = abs(measured - formula) / formula
        if m == 0.85:
            jump_rel = max(jump_rel, abs(measured - 5.33) / 5.33)
            details.append(f"jump(0.85)={measured:.4f} (vs 5.33)")
        if jump_rel > 0.005:
            return False, jump_rel / 0.005, f"jump mismatch at m={m}: {measured} vs {formula}"
    ok = worst < tol_resid
    return ok, worst / tol_resid, (
        f"residual worst {worst:.2e} over 4 m-values x {npts - 1} u; " + "; ".join(details))


def _fd_order(err_h, err_h2, floor):
    if err_h2 <= floor:
        return 2.0  # converged to the noise floor; order unmeasurable but consistent
    return math.log2(max(err_h, 1e-300) / err_h2)


def _crit05_parameter_derivatives(rng, full):
    # the closed-form derivative, integrated over [x - h, x + h] by an 8-node
    # Gauss-Legendre rule, against the difference of i_hyg across it
    n = 50 if full else 15
    tol = 1e-11
    h = 5e-3
    worst = 0.0
    for _ in range(n):
        m = rng.uniform(0.1, 0.8)
        amax = math.sqrt(max(0.9 - m, 0.02))
        A = rng.uniform(-amax, amax)
        th = rng.uniform(0.3, 2.9)
        cases = (
            (lambda a: hypergeom.di_hyg_dA(m, a, th), lambda a: hypergeom.i_hyg(m, a, th), A),
            (lambda mm: hypergeom.di_hyg_dm(mm, A, th), lambda mm: hypergeom.i_hyg(mm, A, th), m),
        )
        for deriv, fun, x0 in cases:
            hi, lo = fun(x0 + h), fun(x0 - h)
            integral = oracle.gauss_legendre(deriv, x0 - h, x0 + h, 8)
            worst = max(worst, abs(hi - lo - integral) / max(abs(hi), abs(lo), 1.0))
    return worst < tol, worst / tol, f"{n} points x 2 derivatives, worst {worst:.2e}"


def _crit06_alternative_series(rng, full):
    tol = 1e-8
    worst = 0.0
    n = 20 if full else 8
    for _ in range(n):
        m = rng.uniform(0.05, 0.5)
        A = rng.uniform(-0.5, 0.5)
        s = rng.uniform(0.05, 0.5)
        th = 2.0 * math.asin(s)
        base = hypergeom.i_hyg(m, A, th)
        vals = [hypergeom.lauricella_f11_triple(m, A, s)]
        vals += [hypergeom.i_hyg_alt(v, m, A, s) for v in (1, 2, 3)]
        for v in vals:
            worst = max(worst, abs(v - base) / max(abs(base), 1.0))
    return worst < tol, worst / tol, f"{n} points x 4 series, worst {worst:.2e}"


def _crit07_pi_identity(rng, full):
    tol = 1e-9
    worst = 0.0
    n = 20 if full else 8
    vals = np.linspace(0.2, 3.0, n)
    count = 0
    for z in (0.3, 1.0, 4.0):
        for r in vals:
            for r0 in vals:
                if r == r0:
                    continue
                res = indefinite.pi_identity_residual(float(r), float(r0), z)
                lhs_scale = max(1.0, abs(elliptic.comp_k(4 * r * r0 / ((r + r0) ** 2 + z * z))))
                worst = max(worst, res / lhs_scale)
                count += 1
    return worst < tol, worst / tol, f"{count} grid points (both H branches), worst {worst:.2e}"


def _cyl_exterior_points(n):
    R, Z = FIG_CYLINDER.R, FIG_CYLINDER.Z
    pts = []
    clearances = [0.05, 0.2, 0.7, 1.5]
    side_z = np.linspace(-0.8 * Z, 0.8 * Z, 8)
    for i, z in enumerate(side_z):
        pts.append((R + clearances[i % 4] * R, float(z)))
    top_r = np.linspace(0.0, 1.2 * R, 6)
    for i, r in enumerate(top_r):
        c = clearances[i % 4]
        pts.append((float(r), Z + c * R))
        pts.append((float(r), -(Z + clearances[(i + 1) % 4] * R)))
    return pts[:n]


def _surface_axis_points():
    """Points 1e-9 from each charged surface and end plane of the figure
    bodies (which share R and Z), and on the axis up to |z| = 10. The
    cylinder's psi is undefined at the ones inside its closed body."""
    R, Z, e = FIG_CYLINDER.R, FIG_CYLINDER.Z, 1e-9
    return [(R - e, 0.3), (R + e, -0.3), (R + e, 1.2), (0.5, Z + e), (0.5, -(Z - e)),
            (1.5, Z - e), (0.0, 0.35), (0.0, -2.0), (0.0, 10.0)]


def _crit08_phi_coulomb(rng, full):
    tol = 1e-10
    pts = _cyl_exterior_points(20 if full else 4) + _surface_axis_points()
    worst = 0.0
    t0 = time.perf_counter()
    for (r, z) in pts:
        # the figure bodies share R and Z: the tube's end terms are the
        # cylinder's I(m, A; pi) terms, computed once in the shared table
        ends = {}
        for closed, body in ((fields.phi_cyl, FIG_CYLINDER), (fields.phi_tube, FIG_TUBE)):
            ref = oracle.coulomb_phi((r, z), body)
            worst = max(worst, abs(closed((r, z), body, ends=ends) - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    ok = worst < tol and elapsed < 300.0
    return ok, worst / tol, (f"2 bodies x {len(pts)} points, worst rel {worst:.2e}, "
                             f"{elapsed:.1f} s (< 300 s)")


def _crit09_far_field(rng, full):
    lo, hi = 0.999, 1.001
    worst = 0.0
    d = 100.0 * max(FIG_CYLINDER.R, FIG_CYLINDER.Z)
    for alpha in np.linspace(0.15, math.pi - 0.15, 8):
        r, z = d * math.sin(alpha), d * math.cos(alpha)
        ratio_c = fields.phi_cyl((r, z), FIG_CYLINDER) * d / FIG_CYLINDER.total_charge
        ratio_t = fields.phi_tube((r, z), FIG_TUBE) * d / FIG_TUBE.total_charge
        for ratio in (ratio_c, ratio_t):
            worst = max(worst, abs(ratio - 1.0))
    return worst < hi - 1.0, worst / (hi - 1.0), f"8 rays x 2 bodies at d={d:g}, worst |ratio-1| {worst:.2e}"


def _once(f, body):
    """f((r, z), body) as a function of r and z that evaluates each point
    once, so the stencils of a check share their points."""
    return functools.cache(lambda r, z: f((r, z), body))


def _crit10_pde_residuals(rng, full):
    spec = FIG_CYLINDER
    rho0 = spec.rho0
    h = 0.02
    n = 10 if full else 5
    min_order = math.inf
    worst_corr = 0.0
    interior = [(rng.uniform(0.15, 0.8) * spec.R, rng.uniform(-0.6, 0.6) * spec.Z)
                for _ in range(n)]
    exterior = [(spec.R + rng.uniform(0.2, 1.5), rng.uniform(-0.5, 0.5)) for _ in range(n // 2)]
    exterior += [(rng.uniform(0.2, 0.8), spec.Z + rng.uniform(0.2, 1.5)) for _ in range(n - n // 2)]

    terms = _once(fields.phi_cyl_terms, spec)

    def phi(r, z):
        # phi_cyl is the left-to-right sum of its terms
        hyg, ell, corr = terms(r, z)
        return hyg + ell + corr

    # full potential: exterior Laplace -> 0, interior Poisson -> -4 pi rho0
    for pts, target in ((exterior, 0.0), (interior, -4.0 * math.pi * rho0)):
        for (r, z) in pts:
            e1 = abs(oracle.fd_cyl_operators(phi, r, z, h)[0] - target)
            e2 = abs(oracle.fd_cyl_operators(phi, r, z, h / 2.0)[0] - target)
            min_order = min(min_order, _fd_order(e1, e2, 5e-7))
    # term-by-term decomposition
    for (r, z) in interior + exterior:
        hyg = lambda rr, zz: terms(rr, zz)[0]
        ell = lambda rr, zz: terms(rr, zz)[1]
        corr = lambda rr, zz: terms(rr, zz)[2]
        src = -4.0 * math.pi * rho0 if (r < spec.R and abs(z) < spec.Z) else 0.0
        worst_corr = max(worst_corr, abs(oracle.fd_cyl_operators(corr, r, z, h)[0] - src))
        for part in (hyg, ell):
            e1 = abs(oracle.fd_cyl_operators(part, r, z, h)[0])
            e2 = abs(oracle.fd_cyl_operators(part, r, z, h / 2.0)[0])
            min_order = min(min_order, _fd_order(e1, e2, 5e-7))
    ok = min_order >= 1.8 and worst_corr < 1e-8
    worst = max(1.8 / max(min_order, 1e-9), worst_corr / 1e-8)
    return ok, worst, (
        f"min order {min_order:.2f} (>= 1.8) over Laplace/Poisson/decomposition; "
        f"corr-term source residual {worst_corr:.2e}")


# C11's tube points, the fast suite taking the first 8: r >= 0.15, and each
# stencil at least 0.1 from the sheet, its end edges and the branch-0 cut
_CONJUGACY_TUBE_POINTS = (
    (2.0, 0.4), (1.5, -0.9), (0.5, 0.35), (0.4, -0.4), (2.5, 1.5),
    (0.2, 0.5), (1.8, 0.1), (0.6, -0.3), (3.0, -2.0), (1.3, 1.2),
    (0.3, 0.2), (0.75, -0.55), (1.2, 0.3), (1.25, -0.5), (0.8, 0.9),
    (0.15, -0.25), (2.2, -0.6), (1.0, 1.0), (0.9, -1.1), (1.6, 0.8))


def _crit11_conjugacy(rng, full):
    n = 20 if full else 8
    h = 0.01
    min_order = math.inf
    # FD stencils need clearance from the axis
    cyl_pts = [(max(r, 0.15), z) for (r, z) in _cyl_exterior_points(n)]
    bodies = ((_once(fields.phi_cyl, FIG_CYLINDER), _once(fields.psi_cyl, FIG_CYLINDER), cyl_pts),
              (_once(fields.phi_tube, FIG_TUBE), _once(fields.psi_tube, FIG_TUBE),
               _CONJUGACY_TUBE_POINTS[:n]))
    for phi, psi, pts in bodies:
        for (r, z) in pts:
            for hh in (h, h / 2.0):
                pr, pz = oracle.fd_gradient(phi, r, z, hh)
                sr, sz = oracle.fd_gradient(psi, r, z, hh)
                res = max(abs(sr - r * pz), abs(sz + r * pr),
                          abs(oracle.fd_cyl_operators(psi, r, z, hh)[1]))
                if hh == h:
                    e1 = res
                else:
                    min_order = min(min_order, _fd_order(e1, res, 2e-7))
    ok = min_order >= 1.8
    return ok, 1.8 / max(min_order, 1e-9), f"2 bodies x {n} points, min order {min_order:.2f} (>= 1.8)"


def _crit12_topological_charge(rng, full):
    h = 1e-4
    tol = 1e-7

    def psi(r, z):
        return fields.psi_tube((r, z), FIG_TUBE)

    def along(r, z, dr, dz):
        # psi's central difference along the side (dr, dz) only, times its
        # length: on the loops' axis-parallel sides, the gradient's
        # component along the side bit for bit, without the difference
        # across the side that it multiplied by 0
        length = math.hypot(dr, dz)
        er, ez = h * (dr / length), h * (dz / length)
        return (psi(r + er, z + ez) - psi(r - er, z - ez)) / (2.0 * h) * length

    # a rectangle threading the tube's cross-section; its r < R side steps
    # across the branch-0 cut z = 0 between z = +-6h, so no stencil
    # straddles the cut
    R, Z = FIG_TUBE.R, FIG_TUBE.Z
    r_in, r_out, z_lo, z_hi, gap = 0.3 * R, 2.0 * R, -1.5 * Z, 1.5 * Z, 6.0 * h
    rectangle = [(r_in, z_lo), (r_out, z_lo), (r_out, z_hi), (r_in, z_hi),
                 (r_in, gap), (r_in, -gap)]
    threading = oracle.loop_integral(along, rectangle, steps=(4,))
    expected = fields.tube_branch_jump(FIG_TUBE)
    rel = abs(abs(threading) - expected) / expected
    # a square about (2.6, 0), not threading the tube
    nonthreading = abs(oracle.loop_integral(along, [(2.3, -0.3), (2.9, -0.3), (2.9, 0.3), (2.3, 0.3)]))
    ok = rel < tol and nonthreading < tol * expected
    worst = max(rel, nonthreading / expected) / tol
    return ok, worst, (
        f"threading loop: {abs(threading):.9f} vs {expected:.9f} (rel {rel:.2e}); "
        f"non-threading: {nonthreading:.2e} (both < {tol:g} of the jump)")


def _crit13_disk_forms(rng, full):
    tol = 1e-10
    disk = DiskSpec(R=1.0, sigma=1.0)
    R, sigma = disk.R, disk.sigma
    worst = 0.0
    count = 0
    for r in np.linspace(0.1, 2.5, 12):
        if abs(r - R) < 0.05:
            continue
        for z in (-1.5, -0.35, 0.1, 0.4, 0.9, 2.0):
            a = fields.phi_disk((float(r), z), disk, "lass_blitzer")
            b = fields.phi_disk((float(r), z), disk, "takahashi")
            worst = max(worst, abs(a - b) / max(abs(a), 1.0))
            count += 1
    worst_axis = 0.0
    for z in (0.2, 0.7, -1.3, 3.0):
        exact = 2.0 * math.pi * sigma * (math.sqrt(R * R + z * z) - abs(z))
        for form in ("lass_blitzer", "takahashi"):
            worst_axis = max(worst_axis, abs(fields.phi_disk((0.0, z), disk, form) - exact))
    ok = worst < tol and worst_axis < 1e-12
    return ok, max(worst / tol, worst_axis / 1e-12), (
        f"{count} grid points, forms agree to {worst:.2e}; on-axis residual {worst_axis:.2e}")


# C14's points off the surfaces, the fast suite taking the first 3 of each
_PSI_TUBE_POINTS = ((1.5, 0.3), (0.5, 1.2), (2.0, -1.0), (0.5, 0.2), (1.3, -0.4),
                    (0.8, 1.5), (2.5, 2.0), (0.2, -0.3), (1.1, 0.9), (3.0, 0.5))
_PSI_CYL_POINTS = ((1.5, 0.3), (0.5, 1.2), (2.0, -1.0), (1.2, 0.5), (0.3, -1.0),
                   (1.8, 1.1), (0.9, 2.0), (2.5, -0.2), (1.06, 0.6), (0.1, 0.9))


def _crit14_psi_coulomb(rng, full):
    tol = 1e-10
    n = 10 if full else 3
    tube_pts = list(_PSI_TUBE_POINTS[:n])
    cyl_pts = list(_PSI_CYL_POINTS[:n])
    cyl_pts += [(r, z) for (r, z) in _surface_axis_points()
                if r > FIG_CYLINDER.R or abs(z) > FIG_CYLINDER.Z]
    worst = 0.0
    count = 0
    for closed, body, pts in ((fields.psi_tube, FIG_TUBE, tube_pts + _surface_axis_points()),
                              (fields.psi_cyl, FIG_CYLINDER, cyl_pts)):
        for (r, z) in pts:
            ref = oracle.coulomb_psi((r, z), body)
            worst = max(worst, abs(closed((r, z), body) - ref) / max(abs(ref), 1e-3))
            count += 1
    return worst < tol, worst / tol, f"{count} points, worst rel {worst:.2e}"


def _crit15_unit_layer(rng, full):
    t0 = time.perf_counter()
    worst = 0.0
    # Legendre relation, tol 1e-12
    for m in np.arange(0.1, 0.95, 0.1):
        res = abs(elliptic.comp_e(m) * elliptic.comp_k(1.0 - m)
                  + elliptic.comp_e(1.0 - m) * elliptic.comp_k(m)
                  - elliptic.comp_k(m) * elliptic.comp_k(1.0 - m) - math.pi / 2.0)
        worst = max(worst, res / 1e-12)
    # modular K identity, rel tol 1e-10
    for m in np.linspace(0.05, 0.95, 10):
        lhs = elliptic.comp_k(m / (m - 1.0))
        rhs = math.sqrt(1.0 - m) * elliptic.comp_k(float(m))
        worst = max(worst, abs(lhs - rhs) / abs(rhs) / 1e-10)
    # F2 swap symmetry, and the exact reduction
    # F2(alpha; beta, beta2; beta, beta2; x, y) = (1 - x - y)^(-alpha), 1e-12
    for _ in range(20):
        al, b1, b2 = rng.uniform(0.2, 1.5, 3)
        g1, g2 = rng.uniform(1.0, 2.0, 2)
        x, y = rng.uniform(0.0, 0.45, 2)
        a = hypergeom.appell_f2(al, b1, b2, g1, g2, x, y)
        b = hypergeom.appell_f2(al, b2, b1, g2, g1, y, x)
        worst = max(worst, abs(a - b) / max(abs(a), 1.0) / 1e-12)
        exact = (1.0 - x - y) ** -al
        worst = max(worst, abs(hypergeom.appell_f2(al, b1, b2, b1, b2, x, y) - exact) / exact / 1e-12)
    # F2 -> 2F1 collapse at y = 0
    for _ in range(20):
        al, b1 = rng.uniform(0.2, 1.5, 2)
        g1 = rng.uniform(1.0, 2.0)
        x = rng.uniform(0.0, 0.8)
        a = hypergeom.appell_f2(al, b1, 1.0, g1, 1.5, x, 0.0)
        b = hypergeom.gauss_2f1(al, b1, g1, x)
        worst = max(worst, abs(a - b) / max(abs(b), 1.0) / 1e-12)
    # Jacobi sn^2 + cn^2 = 1 and dn^2 + m sn^2 = 1, 1e-12
    for _ in range(50):
        u = rng.uniform(-8.0, 8.0)
        m = rng.uniform(0.0, 0.99)
        sn, cn, dn = jacobi.jacobi_sn(u, m), jacobi.jacobi_cn(u, m), jacobi.jacobi_dn(u, m)
        worst = max(worst, abs(sn * sn + cn * cn - 1.0) / 1e-12,
                    abs(dn * dn + m * sn * sn - 1.0) / 1e-12)
    # zeta addition formula and quasi-periodicity, 1e-10
    for _ in range(30):
        u = rng.uniform(-3.0, 3.0)
        v = rng.uniform(-3.0, 3.0)
        m = rng.uniform(0.05, 0.95)
        sn, cn, dn = jacobi.jacobi_sn(u, m), jacobi.jacobi_cn(u, m), jacobi.jacobi_dn(u, m)
        snv = jacobi.jacobi_sn(v, m)
        lhs = (jacobi.jacobi_zeta(u + v, m) + jacobi.jacobi_zeta(u - v, m)
               - 2.0 * jacobi.jacobi_zeta(u, m))
        rhs = -2.0 * m * sn * cn * dn * snv * snv / (1.0 - m * sn * sn * snv * snv)
        worst = max(worst, abs(lhs - rhs) / 1e-10)
        K = elliptic.comp_k(m)
        zv = jacobi.jacobi_zeta(v, m)
        worst = max(worst, abs(jacobi.jacobi_zeta(v + 2.0 * K, m) - zv) / 1e-10)
        cnv, dnv = jacobi.jacobi_cn(v, m), jacobi.jacobi_dn(v, m)
        worst = max(worst, abs(jacobi.jacobi_zeta(v + K, m) - zv + m * snv * cnv / dnv) / 1e-10)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 10.0
    return ok, worst, f"all identities within tolerance (worst ratio {worst:.2e}), {elapsed:.1f} s (< 10 s)"


CHECKS = [
    ("C01", "hypergeometric integral: closed form vs defining integral", _crit01_ihyg_identity),
    ("C02", "definite-integral reduction at theta = pi", _crit02_definite_reduction),
    ("C03", "surface value: 4F3 and quadrature routes vs the integral of dI/dA", _crit03_surface_value),
    ("C04", "integral of Z*sc: closed form, jumps, branch increment", _crit04_zsc_formula),
    ("C05", "integrated parameter derivatives vs differences of i_hyg",
     _crit05_parameter_derivatives),
    ("C06", "triple-sum and alternative series agreement", _crit06_alternative_series),
    ("C07", "characteristic-pair identity residual", _crit07_pi_identity),
    ("C08", "cylinder and tube potentials vs 1-D Coulomb quadrature", _crit08_phi_coulomb),
    ("C09", "far-field charge normalization", _crit09_far_field),
    ("C10", "Laplace/Poisson residuals and term decomposition", _crit10_pde_residuals),
    ("C11", "conjugacy relations and psi equation", _crit11_conjugacy),
    ("C12", "tube topological charge", _crit12_topological_charge),
    ("C13", "disk closed forms", _crit13_disk_forms),
    ("C14", "cylinder and tube field-line potentials vs 1-D Coulomb quadrature",
     _crit14_psi_coulomb),
    ("C15", "special-function unit layer", _crit15_unit_layer),
]


def _run(cid, name, fn, seed, full):
    # a crashed check is a failed check, whichever entry point ran it
    rng = np.random.default_rng([seed, int(cid[1:])])
    t0 = time.perf_counter()
    try:
        passed, worst, detail = fn(rng, full)
    except Exception as exc:
        passed, worst, detail = False, math.inf, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(cid, name, passed, worst, detail, time.perf_counter() - t0)


def run_check(ident, seed=42, full=True):
    """Run one named check; returns a CheckResult."""
    for result in run_suite("full" if full else "fast", seed, {ident}):
        return result
    raise KeyError(f"unknown check {ident!r}")


def run_suite(suite="fast", seed=42, idents=None):
    """Run the acceptance battery; suite is 'fast' or 'full'. DomainError,
    before any check runs, for a negative seed."""
    if seed < 0:
        raise DomainError(f"verify: the seed must be a non-negative integer (got {seed})")
    full = suite == "full"
    return [_run(cid, name, fn, seed, full) for cid, name, fn in CHECKS
            if idents is None or cid in idents]
