"""Independent brute-force references: adaptive Gauss-Kronrod quadrature in
1-D (the package's only quadrature), the Coulomb references ``coulomb_phi``
and ``coulomb_psi`` for cylinders and tubes, finite-difference differential
operators in cylindrical coordinates, and polyline loop integrals of
finite-difference gradients.

``quad_1d`` applies QUADPACK's 7-point Gauss / 15-point Kronrod rule, its
constants exact to double precision, and splits the worst panel up to 4000
times. Every caller passes a ``QuadratureSpec``: an absolute and a relative
tolerance, and at most one singular endpoint. Callers with a fixed request
build their spec once, as a module constant.

Importing this module loads no numpy, so hypergeom, which builds its specs
at import, stays free of it too: the rule's tables are literal tuples, made
numpy arrays once, on the first panel, and the quadrature and the Coulomb
integrands import numpy where they run.

The Coulomb references integrate Coulomb's law with every inner integral
done exactly, so one ``quad_1d`` of an elementary integrand remains. At
points within distance 1e2 of the origin they agree with 30-digit mpmath
quadrature of the same reductions to within 8e-15 for phi and 6.1e-14 for
psi (2.1e-13 next to the tube sheet). Further out the cylinder's ray
differences cancel: the error grows (4.5e-11 for phi at |z| = 5e5 on the
axis) and quad_1d can exhaust its subdivision budget.

These are deliberately kept free of any closed-form machinery from the rest
of the package so that every acceptance test compares two independent routes.
"""

import functools
import math

from .errors import ConvergenceError, DomainError
from .geometry import CylinderSpec, Record, TubeSpec

# 7-point Gauss / 15-point Kronrod rule on [-1, 1]: QUADPACK qk15's
# nonnegative nodes and weights as printed, mirrored
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_KRONROD_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_KRONROD_WEIGHTS = _WGK + _WGK[-2::-1]
_GAUSS_WEIGHTS = _WG + _WG[-2::-1]
_GAUSS_SLICE = slice(1, 15, 2)


@functools.cache
def _rule_arrays():
    # the rule's nodes, Kronrod weights and Gauss weights as numpy arrays,
    # formed on the first panel
    import numpy as np
    return np.array(_KRONROD_NODES), np.array(_KRONROD_WEIGHTS), np.array(_GAUSS_WEIGHTS)


# Reported error estimates are floored at this fraction of the requested
# tolerance: the raw Kronrod-Gauss difference collapses to noise after one
# refinement, and a tolerance-proportional floor keeps the estimate both
# conservative and responsive to the request.
_ESTIMATE_FLOOR = 0.05
# panel splits before quad_1d gives up
_MAX_SUBDIVISIONS = 4000


class QuadratureSpec(Record):
    __slots__ = _fields = ("abs_tol", "rel_tol", "singular_endpoints")

    def __init__(self, abs_tol, rel_tol, singular_endpoints=(False, False)):
        if abs_tol <= 0.0 or rel_tol <= 0.0:
            raise DomainError("QuadratureSpec tolerances must be positive")
        if all(singular_endpoints):
            raise DomainError("QuadratureSpec: at most one endpoint may be singular")
        object.__setattr__(self, "abs_tol", abs_tol)
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "singular_endpoints", singular_endpoints)


def _eval_panel(f, a, b, vectorized):
    import numpy as np
    nodes, kronrod_weights, gauss_weights = _rule_arrays()
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * nodes
    if vectorized:
        fx = np.asarray(f(xs), dtype=float)
        if fx.ndim == 0:
            fx = np.full_like(xs, float(fx))
    else:
        fx = np.array([float(f(x)) for x in xs])
    if not np.all(np.isfinite(fx)):
        raise DomainError(f"integrand not finite on [{a}, {b}]")
    k15 = half * float(kronrod_weights @ fx)
    g7 = half * float(gauss_weights @ fx[_GAUSS_SLICE])
    # QUADPACK-style estimate: scale the Kronrod-Gauss difference by the
    # integrand variation so resolved panels report rounding noise, not noise
    # amplified across thousands of subdivisions
    resabs = half * float(kronrod_weights @ np.abs(fx))
    mean = k15 / (b - a)
    resasc = half * float(kronrod_weights @ np.abs(fx - mean))
    diff = abs(k15 - g7)
    if resasc > 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    floor = 5e-16 * resabs  # rounding-noise level of this panel
    return k15, max(err, floor), floor


def quad_1d(f, a, b, spec, vectorized=False):
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    Returns (value, error_estimate). Refinement continues until the summed
    Kronrod-Gauss differences fall below a small fraction of
    max(abs_tol, rel_tol*|value|); the returned estimate is that bound (it is
    conservative for smooth integrands and shrinks proportionally with the
    requested tolerance). ``singular_endpoints`` flags an integrable
    singularity at one endpoint, handled by a quadratic substitution. With
    ``vectorized=True``, f must map an ndarray of nodes to an ndarray.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("quad_1d requires finite endpoints")
    if a == b:
        return 0.0, 0.0
    if a > b:
        v, e = quad_1d(f, b, a, spec, vectorized)
        return -v, e
    left_sing, right_sing = spec.singular_endpoints
    if left_sing or right_sing:
        if left_sing:
            def g(u):
                return f(a + u * u) * 2.0 * u
        else:
            def g(u):
                return f(b - u * u) * 2.0 * u
        return quad_1d(g, 0.0, math.sqrt(b - a),
                       QuadratureSpec(spec.abs_tol, spec.rel_tol), vectorized)

    v, e, fl = _eval_panel(f, a, b, vectorized)
    panels = [(e, fl, a, b, v)]
    min_width = (b - a) * 1e-14
    for _ in range(_MAX_SUBDIVISIONS):
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


# The Coulomb references reduce each potential to one integral over an angle:
# the z' integral over the source is done exactly and, for the cylinder, so is
# the radial integral along each ray of a polar frame centred on the point.
# What is left is elementary, and the differences that would cancel next to
# the surfaces are rearranged, so one adaptive 1-D quadrature at this
# tolerance lands within about 1e-14 of the result (see the module docstring).
# The ring's theta = 0 end and the chord's upper end are flagged singular.
_RING_QUADRATURE = QuadratureSpec(1e-15, 1e-13, singular_endpoints=(True, False))
_CHORD_QUADRATURE = QuadratureSpec(1e-15, 1e-13, singular_endpoints=(False, True))


def _inv_root_plus(D, c):
    """1/(sqrt(D^2 + c^2) + c) = (sqrt(D^2 + c^2) - c)/D^2 for c >= 0."""
    import numpy as np
    return 1.0 / (np.sqrt(D * D + c * c) + c)


def _asinh_gap(D, a, b):
    """asinh(a/D) - asinh(b/D) for a > |b|, without cancellation."""
    import numpy as np
    if b <= 0.0:
        return np.arcsinh(a / D) + np.arcsinh(-b / D)
    # asinh x - asinh y = asinh((x^2 - y^2)/(x sqrt(1 + y^2) + y sqrt(1 + x^2)))
    return np.arcsinh((a - b) * (a + b) / (a * np.hypot(D, b) + b * np.hypot(D, a)))


def _root_minus_integral(D, c):
    """int_0^D (sqrt(t^2 + c^2) - c) dt for c >= 0."""
    import numpy as np
    if c == 0.0:
        return 0.5 * D * D
    return 0.5 * (D ** 3 * _inv_root_plus(D, c) - c * (D - c * np.arcsinh(D / c)))


def _ring_integral(g, r, R):
    """int_0^pi g(D^2, r - R cos theta) dtheta over the ring of radius R seen
    from radius r, D^2 = (r-R)^2 + 4 r R sin^2(theta/2) being its squared
    distance in the plane; theta = 0 is flagged singular (a log singularity
    on r = R)."""
    import numpy as np

    def f(th):
        s2 = np.sin(th / 2.0) ** 2
        return g((r - R) ** 2 + 4.0 * r * R * s2, (r - R) + 2.0 * R * s2)

    return quad_1d(f, 0.0, math.pi, _RING_QUADRATURE, vectorized=True)[0]


def _chord_integral(g, r, R):
    """Integral over the angle t of a polar frame centred on the point at
    radius r, across the disk of radius R, of g(cos t, D1, D2, sign). D1 is
    the far end of the chord at angle t; D2 is, for r < R, the far end of the
    ray at pi - t (sign +1; t in [0, pi/2]) and, for r >= R, the near end of
    the chord (sign -1; t up to asin(R/r), a square-root singularity for
    r > R). D2 = 0 on r = R."""
    import numpy as np

    def f(t):
        c = np.cos(t)
        d1 = r * c + np.sqrt(np.maximum(R * R - (r * np.sin(t)) ** 2, 0.0))
        return g(c, d1, abs(R - r) * (R + r) / d1, 1.0 if r < R else -1.0)

    upper = math.pi / 2.0 if r < R else math.asin(R / r)
    return quad_1d(f, 0.0, upper, _CHORD_QUADRATURE, vectorized=True)[0]


def _coulomb_args(point, body, name):
    if not isinstance(body, (CylinderSpec, TubeSpec)):
        raise DomainError(f"{name}: unsupported body {type(body).__name__}")
    r, z = float(point[0]), float(point[1])
    # the far and near vertical offsets of the source; both potentials are
    # even in z
    return r, z, abs(z) + body.Z, abs(z) - body.Z


def coulomb_phi(point, body):
    """Electric potential of a CylinderSpec or TubeSpec body at (r, z) by
    quadrature of Coulomb's law, reduced to one angular integral of an
    elementary integrand:

    * tube: 2 sigma R int_0^pi [asinh((z+Z)/D) - asinh((z-Z)/D)] dtheta;
    * cylinder: 2 rho int [W(D_hi) - W(D_lo)] over the polar angle, with
      W(D) = int_0^D t dt int_-Z^Z dz' / sqrt(t^2 + (z-z')^2)."""
    import numpy as np
    r, z, a, b = _coulomb_args(point, body, "coulomb_phi")
    if isinstance(body, TubeSpec):
        return 2.0 * body.sigma0 * body.R * _ring_integral(
            lambda D2, _: _asinh_gap(np.sqrt(D2), a, b), r, body.R)

    def V(D):  # W(D) - W(0)
        return 0.5 * D * D * (_asinh_gap(D, a, b) + a * _inv_root_plus(D, a)
                              - b * _inv_root_plus(D, abs(b)))

    return 2.0 * body.rho0 * _chord_integral(
        lambda c, d1, d2, sign: V(d1) + sign * V(d2) if r != body.R else V(d1),
        r, body.R)


def coulomb_psi(point, body):
    """Field-line potential of a CylinderSpec or TubeSpec body at (r, z) on
    branch 0: psi = sgn(z) [Q + r int_|z|^inf phi_r(r, z') dz'], the vertical
    path from (r, |z|) upward meeting no charge. The z' integral is done
    exactly, leaving one angular integral as in coulomb_phi. Raises
    DomainError on the tube sheet {r = R, |z| < Z} and inside the closed
    cylinder, where psi is not defined. Near z = 0 outside the body psi is
    the small difference Q + r * flux, so its relative error grows as psi
    shrinks."""
    import numpy as np
    r, z, a, b = _coulomb_args(point, body, "coulomb_psi")
    R, Z = body.R, body.Z
    if isinstance(body, TubeSpec):
        if r == R and abs(z) < Z:
            raise DomainError("coulomb_psi: point on the charged tube sheet")

        # the ring's z' integral: (r - R cos theta)/D^2 [2Z - sqrt(D^2 + a^2)
        # + sqrt(D^2 + b^2)], with 2Z - a + |b| = |b| - b
        def g(D2, num):
            D = np.sqrt(D2)
            return num * ((abs(b) - b) / D2 + _inv_root_plus(D, abs(b)) - _inv_root_plus(D, a))

        flux = -2.0 * body.sigma0 * R * _ring_integral(g, r, R)
    else:
        if r <= R and abs(z) <= Z:
            raise DomainError("coulomb_psi: point inside the charged cylinder")

        def N(D):  # int_0^D [2Z - sqrt(t^2 + a^2) + sqrt(t^2 + b^2)] dt
            return ((abs(b) - b) * D + _root_minus_integral(D, abs(b))
                    - _root_minus_integral(D, a))

        flux = 2.0 * body.rho0 * _chord_integral(
            lambda c, d1, d2, _: -c * (N(d1) - N(d2)), r, R)
    return math.copysign(body.total_charge + r * flux, z) if z != 0.0 else 0.0


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
