"""Independent brute-force references: adaptive Gauss-Kronrod quadrature in
1-D/2-D/3-D, finite-difference differential operators in cylindrical
coordinates, and polyline loop integrals of finite-difference gradients.

These are deliberately kept free of any closed-form machinery from the rest
of the package so that every acceptance test compares two independent routes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# 7-point Gauss / 15-point Kronrod nodes and weights on [-1, 1]
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_SLICE = slice(1, 15, 2)

# Reported error estimates are floored at this fraction of the requested
# tolerance: the raw Kronrod-Gauss difference collapses to noise after one
# refinement, and a tolerance-proportional floor keeps the estimate both
# conservative and responsive to the request.
_ESTIMATE_FLOOR = 0.05


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 4000
    singular_endpoints: tuple = (False, False)

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise DomainError("QuadratureSpec tolerances must be positive")
        if self.max_subdivisions < 32:
            raise DomainError("QuadratureSpec.max_subdivisions must be >= 32")


DEFAULT_QUADRATURE = QuadratureSpec()


def _eval_panel(f, a, b, vectorized):
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * _KRONROD_NODES
    if vectorized:
        fx = np.asarray(f(xs), dtype=float)
        if fx.ndim == 0:
            fx = np.full_like(xs, float(fx))
    else:
        fx = np.array([float(f(x)) for x in xs])
    if not np.all(np.isfinite(fx)):
        raise DomainError(f"integrand not finite on [{a}, {b}]")
    k15 = half * float(_KRONROD_WEIGHTS @ fx)
    g7 = half * float(_GAUSS_WEIGHTS @ fx[_GAUSS_SLICE])
    # QUADPACK-style estimate: scale the Kronrod-Gauss difference by the
    # integrand variation so resolved panels report rounding noise, not noise
    # amplified across thousands of subdivisions
    resabs = half * float(_KRONROD_WEIGHTS @ np.abs(fx))
    mean = k15 / (b - a)
    resasc = half * float(_KRONROD_WEIGHTS @ np.abs(fx - mean))
    diff = abs(k15 - g7)
    if resasc > 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    floor = 5e-16 * resabs  # rounding-noise level of this panel
    return k15, max(err, floor), floor


def quad_1d(f, a, b, spec=None, vectorized=False):
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    Returns (value, error_estimate). Refinement continues until the summed
    Kronrod-Gauss differences fall below a small fraction of
    max(abs_tol, rel_tol*|value|); the returned estimate is that bound (it is
    conservative for smooth integrands and shrinks proportionally with the
    requested tolerance). ``singular_endpoints`` flags integrable endpoint
    singularities, handled by a quadratic substitution. With
    ``vectorized=True``, f must map an ndarray of nodes to an ndarray.
    """
    spec = spec or DEFAULT_QUADRATURE
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("quad_1d requires finite endpoints")
    if a == b:
        return 0.0, 0.0
    if a > b:
        v, e = quad_1d(f, b, a, spec, vectorized)
        return -v, e
    left_sing, right_sing = spec.singular_endpoints
    if left_sing or right_sing:
        inner = QuadratureSpec(spec.abs_tol, spec.rel_tol, spec.max_subdivisions)
        if left_sing and right_sing:
            mid = 0.5 * (a + b)
            v1, e1 = quad_1d(f, a, mid, QuadratureSpec(
                spec.abs_tol / 2, spec.rel_tol, spec.max_subdivisions, (True, False)),
                vectorized)
            v2, e2 = quad_1d(f, mid, b, QuadratureSpec(
                spec.abs_tol / 2, spec.rel_tol, spec.max_subdivisions, (False, True)),
                vectorized)
            return v1 + v2, e1 + e2
        width = b - a
        if left_sing:
            def g(u):
                return f(a + u * u) * 2.0 * u
        else:
            def g(u):
                return f(b - u * u) * 2.0 * u
        return quad_1d(g, 0.0, math.sqrt(width), inner, vectorized)

    v, e, fl = _eval_panel(f, a, b, vectorized)
    panels = [(e, fl, a, b, v)]
    min_width = (b - a) * 1e-14
    for _ in range(spec.max_subdivisions):
        total = sum(p[4] for p in panels)
        err = sum(p[0] for p in panels)
        noise = sum(p[1] for p in panels)  # summed rounding floors
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        # stop at the request, or once further splitting can only shuffle
        # rounding noise between panels
        if err <= max(_ESTIMATE_FLOOR * tol, 2.0 * noise):
            return total, max(err, _ESTIMATE_FLOOR * tol)
        i_worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, _, pa, pb, _ = panels.pop(i_worst)
        if pb - pa < min_width:
            raise ConvergenceError(
                f"quad_1d: interval [{pa}, {pb}] below resolution limit "
                "(non-integrable singularity?)")
        pm = 0.5 * (pa + pb)
        v1, e1, f1 = _eval_panel(f, pa, pm, vectorized)
        v2, e2, f2 = _eval_panel(f, pm, pb, vectorized)
        panels.append((e1, f1, pa, pm, v1))
        panels.append((e2, f2, pm, pb, v2))
    raise ConvergenceError("quad_1d: subdivision budget exhausted")


def _tighter(spec, factor=50.0):
    return QuadratureSpec(spec.abs_tol / factor, spec.rel_tol / factor,
                          spec.max_subdivisions)


def quad_2d(f, domain, spec=None, vectorized_inner=False):
    """Iterated adaptive integral of f(x, y) over domain ((ax,bx),(ay,by)).

    The inner integral runs at a 50x tighter tolerance than the outer one.
    With ``vectorized_inner=True``, f(x, y_array) must broadcast over its
    second argument.
    """
    spec = spec or DEFAULT_QUADRATURE
    (ax, bx), (ay, by) = domain
    inner_spec = _tighter(spec)

    def g(x):
        val, _ = quad_1d(lambda yy: f(x, yy), ay, by, inner_spec,
                         vectorized=vectorized_inner)
        return val

    val, _ = quad_1d(g, ax, bx, spec)
    return val


def quad_3d(f, domain, spec=None, vectorized_inner=False):
    """Iterated adaptive integral of f(x, y, z) over a box domain.

    With ``vectorized_inner=True``, f(x, y, z_array) must broadcast over its
    last argument.
    """
    spec = spec or DEFAULT_QUADRATURE
    (ax, bx), inner_domain = domain[0], (domain[1], domain[2])
    outer_inner = _tighter(spec, 20.0)

    def g(x):
        return quad_2d(lambda yy, zz: f(x, yy, zz), inner_domain, outer_inner,
                       vectorized_inner=vectorized_inner)

    val, _ = quad_1d(g, ax, bx, spec)
    return val


def brute_psi(point, body, spec=None):
    """Field-line potential by direct quadrature of the defining kernel.

    ``body`` is a CylinderSpec, TubeSpec, or PointCharges record from
    :mod:`appellfield.geometry`. The kernel integral alone fixes each source
    ring's additive constant in the ring's own plane, which places its branch
    cut on the vertical line through the ring; the sgn(z)-odd correction
    equal to the charge at source radii beyond the observation radius
    restores the physical normalization (it reduces to matching
    psi -> Q z/sqrt(r^2+z^2) on the axis).
    """
    from .geometry import CylinderSpec, PointCharges, TubeSpec

    spec = spec or QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
    r, z = point

    def kernel(rp, zp, th):
        # D2 = r^2 + rp^2 + 2 r rp cos(th), written cancellation-free
        c2 = np.cos(th / 2.0) ** 2
        D2 = (r - rp) ** 2 + 4.0 * r * rp * c2
        L = np.sqrt(D2 + (z - zp) ** 2)
        num = (r - rp) + 2.0 * rp * c2  # = r + rp cos(th)
        return r * (z - zp) * num / (L * D2)

    if isinstance(body, PointCharges):
        total = 0.0
        for q, z0 in body.charges:
            d = math.hypot(r, z - z0)
            if d == 0.0:
                raise DomainError("brute_psi: observation point coincides with a charge")
            total += q * (z - z0) / d
        return total
    if isinstance(body, TubeSpec):
        if r == body.R:
            raise DomainError("brute_psi: tube kernel is singular at r = R")
        raw = 2.0 * body.sigma0 * body.R * quad_2d(
            lambda zp, th: kernel(body.R, zp, th),
            ((-body.Z, body.Z), (0.0, math.pi)), spec, vectorized_inner=True)
        # at r = R exactly the kernel integral takes the symmetric mean of its
        # one-sided limits, so half the shell charge restores continuity
        if r < body.R:
            outside_charge = body.total_charge
        elif r == body.R:
            outside_charge = 0.5 * body.total_charge
        else:
            outside_charge = 0.0
    elif isinstance(body, CylinderSpec):
        # the kernel has an integrable ridge along rp = r (where the theta
        # integral develops a |rp - r| kink), so the radial integral is split
        # there with endpoint-singularity handling
        inner_spec = _tighter(spec, 100.0)
        mid_spec = _tighter(spec, 10.0)

        def theta_int(rp, zp):
            val, _ = quad_1d(lambda th: rp * kernel(rp, zp, th), 0.0, math.pi,
                             inner_spec, vectorized=True)
            return val

        def radial_int(zp):
            if 0.0 < r < body.R:
                lo = QuadratureSpec(mid_spec.abs_tol / 2.0, mid_spec.rel_tol,
                                    mid_spec.max_subdivisions, (False, True))
                hi = QuadratureSpec(mid_spec.abs_tol / 2.0, mid_spec.rel_tol,
                                    mid_spec.max_subdivisions, (True, False))
                v1, _ = quad_1d(lambda rp: theta_int(rp, zp), 0.0, r, lo)
                v2, _ = quad_1d(lambda rp: theta_int(rp, zp), r, body.R, hi)
                return v1 + v2
            val, _ = quad_1d(lambda rp: theta_int(rp, zp), 0.0, body.R, mid_spec)
            return val

        val, _ = quad_1d(radial_int, -body.Z, body.Z, spec)
        raw = 2.0 * body.rho0 * val
        rr = min(r, body.R)
        outside_charge = 2.0 * math.pi * body.rho0 * body.Z * (body.R ** 2 - rr * rr)
    else:
        raise DomainError(f"brute_psi: unsupported body {type(body).__name__}")
    return raw + math.copysign(outside_charge, z) if z != 0.0 else raw


def fd_laplacian_cyl(f, r, z, h):
    """Five-point O(h^2) stencil for f_rr + f_r/r + f_zz at (r, z)."""
    if r - h <= 0.0:
        raise DomainError("fd_laplacian_cyl: stencil crosses the axis r = 0")
    frp, frm = f(r + h, z), f(r - h, z)
    fzp, fzm = f(r, z + h), f(r, z - h)
    f0 = f(r, z)
    return (frp - 2.0 * f0 + frm) / h ** 2 + (frp - frm) / (2.0 * r * h) \
        + (fzp - 2.0 * f0 + fzm) / h ** 2


def fd_psi_operator(f, r, z, h):
    """Five-point O(h^2) stencil for f_rr - f_r/r + f_zz at (r, z)."""
    if r - h <= 0.0:
        raise DomainError("fd_psi_operator: stencil crosses the axis r = 0")
    frp, frm = f(r + h, z), f(r - h, z)
    fzp, fzm = f(r, z + h), f(r, z - h)
    f0 = f(r, z)
    return (frp - 2.0 * f0 + frm) / h ** 2 - (frp - frm) / (2.0 * r * h) \
        + (fzp - 2.0 * f0 + fzm) / h ** 2


def fd_gradient(f, r, z, h):
    """Central-difference gradient (f_r, f_z) at (r, z)."""
    return ((f(r + h, z) - f(r - h, z)) / (2.0 * h),
            (f(r, z + h) - f(r, z - h)) / (2.0 * h))


def loop_integral_grad(f, loop, h):
    """Circulation of the finite-difference gradient of f along a closed polyline.

    ``loop`` is a sequence of (r, z) vertices sampled densely enough for
    trapezoidal accumulation; the loop is closed automatically. Every vertex
    must keep a clearance of more than h from any singularity or jump set of
    f, or gradient stencils will straddle it.
    """
    pts = [tuple(p) for p in loop]
    if len(pts) < 3:
        raise DomainError("loop_integral_grad needs at least 3 vertices")
    if pts[0] != pts[-1]:
        pts.append(pts[0])
    grads = [fd_gradient(f, r, z, h) for (r, z) in pts]
    total = 0.0
    for i in range(len(pts) - 1):
        (r0, z0), (r1, z1) = pts[i], pts[i + 1]
        (gr0, gz0), (gr1, gz1) = grads[i], grads[i + 1]
        total += 0.5 * ((gr0 + gr1) * (r1 - r0) + (gz0 + gz1) * (z1 - z0))
    return total
