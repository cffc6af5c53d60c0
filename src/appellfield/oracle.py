"""Independent brute-force references: adaptive Gauss-Kronrod quadrature in
1-D (the package's only adaptive quadrature), the package's one graded
Gauss-Legendre rule, the Coulomb references ``coulomb_phi`` and
``coulomb_psi`` for cylinders and tubes,
one five-point finite-difference stencil for the two cylindrical operators,
the central-difference gradient, fixed Gauss-Legendre rules, and the
circulation of a vector field (such as a finite-difference gradient) around
a polygon, by a Gauss-Legendre rule on each side.

``quad_1d(f, a, b, abs_tol, rel_tol)`` applies QUADPACK's 7-point Gauss /
15-point Kronrod rule, its constants exact to double precision, and splits
the worst panel up to 4000 times. Its one caller in the package is
hypergeom's surface value above m = 1/3 (_i_hyg_surface_quad).

``graded_gauss_legendre(f, h, lo, hi)`` is a fixed rule instead: 16-node
Gauss-Legendre panels [0, h], [h, 2h], [2h, 4h], ... clipped to [lo, hi],
for an integrand whose nearest singularity lies at distance h from 0, taken
one panel at a time by ``gauss_legendre``. It serves hypergeom's integrals
of cel and K and its defining integral of I(m, A; theta), verify's
reference for the integral of Z sc, and the Coulomb references;
``graded_gauss_legendre_each`` is its array form, many integrals at once,
for hypergeom's batch.

Importing this module loads no numpy: quad_1d's tables are literal tuples,
made numpy arrays once, on its first panel, and the graded rule and the
Coulomb integrands run on floats. The fixed Gauss-Legendre rules are formed
by Newton's iteration on first use.

The Coulomb references integrate Coulomb's law with every inner integral
done exactly, so one integral of an elementary integrand over an angle
remains, which graded_gauss_legendre takes toward its singular end: the
ring's theta = 0, where D vanishes on r = R, and the chord's upper end.
At 140 seeded points per body (polar, and 1e-12 to 1e-2 from the side and
the end planes) they agree with 30-digit mpmath quadrature of the same
reductions to within 1.1e-15 for phi and 3.7e-15 for psi where the point
lies within 10 max(R, Z) of the origin, and 1.8e-14 for phi and 4.2e-14
for psi out to 1e2 max(R, Z). Further out the cylinder's chord differences
cancel (phi was 4.5e-11 off at |z| = 5e5 on the axis), so both raise
DomainError beyond that range.

These are deliberately kept free of any closed-form machinery from the rest
of the package so that every acceptance test compares two independent routes.
"""

import functools
import math

from .errors import ConvergenceError, DomainError
from .geometry import CylinderSpec, TubeSpec

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


def _eval_panel(f, a, b):
    import numpy as np
    nodes, kronrod_weights, gauss_weights = _rule_arrays()
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * nodes
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


def quad_1d(f, a, b, abs_tol, rel_tol):
    """Adaptive Gauss-Kronrod integral of the scalar function f over [a, b].

    Returns (value, error_estimate). Refinement continues until the summed
    Kronrod-Gauss differences fall below a small fraction of
    max(abs_tol, rel_tol*|value|); the returned estimate is that bound (it is
    conservative for smooth integrands and shrinks proportionally with the
    requested tolerance). An integrable singularity at an endpoint is the
    caller's to take out, by a substitution such as x = a + u^2. DomainError
    for a tolerance that is not positive, an infinite endpoint or an
    integrand that is not finite at a node.
    """
    if not (abs_tol > 0.0 and rel_tol > 0.0):
        raise DomainError(f"quad_1d tolerances must be positive (got {abs_tol}, {rel_tol})")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("quad_1d requires finite endpoints")
    if a == b:
        return 0.0, 0.0
    if a > b:
        v, e = quad_1d(f, b, a, abs_tol, rel_tol)
        return -v, e
    v, e, fl = _eval_panel(f, a, b)
    panels = [(e, fl, a, b, v)]
    min_width = (b - a) * 1e-14
    for _ in range(_MAX_SUBDIVISIONS):
        total = sum(p[4] for p in panels)
        err = sum(p[0] for p in panels)
        noise = sum(p[1] for p in panels)  # summed rounding floors
        tol = max(abs_tol, rel_tol * abs(total))
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
        v1, e1, f1 = _eval_panel(f, pa, pm)
        v2, e2, f2 = _eval_panel(f, pm, pb)
        panels.append((e1, f1, pa, pm, v1))
        panels.append((e2, f2, pm, pb, v2))
    raise ConvergenceError("quad_1d: subdivision budget exhausted")


# The Coulomb references reduce each potential to one integral over an angle:
# the z' integral over the source is done exactly and, for the cylinder, so is
# the radial integral along each ray of a polar frame centred on the point.
# What is left is elementary, and the differences that would cancel next to
# the surfaces are rearranged, so graded_gauss_legendre, its panels sized by
# the integrand's nearest singularity and its first panel no smaller than
# this (for a singularity on the end of the interval), lands within about
# 1e-15 of the result (see the module docstring).
_INNERMOST = 2.0 ** -60
# the references raise DomainError beyond this many times max(R, Z) from
# the origin
_COULOMB_RANGE = 1e2


def _inv_root_plus(D, c):
    """1/(sqrt(D^2 + c^2) + c) = (sqrt(D^2 + c^2) - c)/D^2 for c >= 0."""
    return 1.0 / (math.sqrt(D * D + c * c) + c)


def _asinh_gap(D, a, b):
    """asinh(a/D) - asinh(b/D) for a > |b|, without cancellation."""
    if b <= 0.0:
        return math.asinh(a / D) + math.asinh(-b / D)
    # asinh x - asinh y = asinh((x^2 - y^2)/(x sqrt(1 + y^2) + y sqrt(1 + x^2)))
    return math.asinh((a - b) * (a + b) / (a * math.hypot(D, b) + b * math.hypot(D, a)))


def _root_minus_integral(D, c):
    """int_0^D (sqrt(t^2 + c^2) - c) dt for c >= 0."""
    if c == 0.0:
        return 0.5 * D * D
    return 0.5 * (D ** 3 * _inv_root_plus(D, c) - c * (D - c * math.asinh(D / c)))


def _ring_integral(g, r, R):
    """int_0^pi g(D^2, r - R cos theta) dtheta over the ring of radius R seen
    from radius r, D^2 = (r-R)^2 + 4 r R sin^2(theta/2) being its squared
    distance in the plane, graded from theta = 0, where D is smallest (a log
    singularity on r = R)."""
    def f(th):
        s2 = math.sin(th / 2.0) ** 2
        return g((r - R) ** 2 + 4.0 * r * R * s2, (r - R) + 2.0 * R * s2)

    # D^2 vanishes at theta = +-i 2 asinh(|r - R|/(2 sqrt(r R))), about
    # |r - R|/sqrt(r R) from 0 near r = R; on r = R the panels reach in to
    # 2^-60
    h = 2.0 * math.asinh(0.5 * abs(r - R) / (math.sqrt(r) * math.sqrt(R))) if r > 0.0 else math.pi
    return graded_gauss_legendre(f, max(h, _INNERMOST), 0.0, math.pi)


def _chord_integral(g, r, R):
    """Integral over the angle t of a polar frame centred on the point at
    radius r, across the disk of radius R, of g(cos t, D1, D2, sign). D1 is
    the far end of the chord at angle t; D2 is, for r < R, the far end of the
    ray at pi - t (sign +1; t in [0, pi/2]) and, for r >= R, the near end of
    the chord (sign -1; t up to asin(R/r), a square-root singularity for
    r > R). D2 = 0 on r = R."""
    def f(t):
        c = math.cos(t)
        d1 = r * c + math.sqrt(max(R * R - (r * math.sin(t)) ** 2, 0.0))
        return g(c, d1, abs(R - r) * (R + r) / d1, 1.0 if r < R else -1.0)

    if r < R:
        # graded in s = pi/2 - t, toward the square root's branch points at
        # s = +-i acosh(R/r)
        h = math.acosh(R / r) if r > 0.0 else math.pi
        return graded_gauss_legendre(lambda s: f(math.pi / 2.0 - s), max(h, _INNERMOST),
                                     0.0, math.pi / 2.0)
    # t = upper - s^2 takes out the square root at the upper end. In s the
    # nearest singularity is then the zero of d1 near -sqrt(cot(upper)/2),
    # or the square root's other zero, t = -upper, at s = sqrt(2 upper),
    # which at least two panels keep clear of the last one
    upper = math.asin(R / r)
    h = min(math.sqrt(math.sqrt((r - R) * (r + R)) / (2.0 * R)), 0.5 * math.sqrt(upper))
    return graded_gauss_legendre(lambda s: 2.0 * s * f(upper - s * s), max(h, _INNERMOST),
                                 0.0, math.sqrt(upper))


def _coulomb_args(point, body, name):
    if not isinstance(body, (CylinderSpec, TubeSpec)):
        raise DomainError(f"{name}: unsupported body {type(body).__name__}")
    r, z = float(point[0]), float(point[1])
    if not r >= 0.0:
        raise DomainError(f"{name}: the radius must be non-negative (got r = {r})")
    if not math.hypot(r, z) <= _COULOMB_RANGE * max(body.R, body.Z):
        # further out the cylinder's chord differences cancel
        raise DomainError(f"{name}: ({r}, {z}) lies beyond {_COULOMB_RANGE:g} max(R, Z) "
                          "of the origin, where the reference is not validated")
    # the far and near vertical offsets of the source; both potentials are
    # even in z
    return r, z, abs(z) + body.Z, abs(z) - body.Z


def coulomb_phi(point, body):
    """Electric potential of a CylinderSpec or TubeSpec body at (r, z) by
    quadrature of Coulomb's law, reduced to one angular integral of an
    elementary integrand:

    * tube: 2 sigma R int_0^pi [asinh((z+Z)/D) - asinh((z-Z)/D)] dtheta;
    * cylinder: 2 rho int [W(D_hi) - W(D_lo)] over the polar angle, with
      W(D) = int_0^D t dt int_-Z^Z dz' / sqrt(t^2 + (z-z')^2).

    Raises DomainError beyond 1e2 max(R, Z) of the origin, where it is not
    validated."""
    r, z, a, b = _coulomb_args(point, body, "coulomb_phi")
    if isinstance(body, TubeSpec):
        return 2.0 * body.sigma0 * body.R * _ring_integral(
            lambda D2, _: _asinh_gap(math.sqrt(D2), a, b), r, body.R)

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
    cylinder, where psi is not defined, and, as coulomb_phi, beyond
    1e2 max(R, Z) of the origin. Near z = 0 outside the body psi is the
    small difference Q + r * flux, so its relative error grows as psi
    shrinks."""
    r, z, a, b = _coulomb_args(point, body, "coulomb_psi")
    R, Z = body.R, body.Z
    if isinstance(body, TubeSpec):
        if r == R and abs(z) < Z:
            raise DomainError("coulomb_psi: point on the charged tube sheet")

        # the ring's z' integral: (r - R cos theta)/D^2 [2Z - sqrt(D^2 + a^2)
        # + sqrt(D^2 + b^2)], with 2Z - a + |b| = |b| - b
        def g(D2, num):
            D = math.sqrt(D2)
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


def fd_cyl_operators(f, r, z, h):
    """The five-point O(h^2) stencils for f_rr + f_r/r + f_zz (the
    cylindrical Laplacian) and f_rr - f_r/r + f_zz (the operator that
    annihilates a field-line potential) at (r, z), from the same five
    values of f."""
    if r - h <= 0.0:
        raise DomainError("fd_cyl_operators: stencil crosses the axis r = 0")
    frp, frm = f(r + h, z), f(r - h, z)
    fzp, fzm = f(r, z + h), f(r, z - h)
    f0 = f(r, z)
    f_rr, f_r_over_r = (frp - 2.0 * f0 + frm) / h ** 2, (frp - frm) / (2.0 * r * h)
    f_zz = (fzp - 2.0 * f0 + fzm) / h ** 2
    return f_rr + f_r_over_r + f_zz, f_rr - f_r_over_r + f_zz


def fd_gradient(f, r, z, h):
    """Central-difference gradient (f_r, f_z) at (r, z)."""
    return ((f(r + h, z) - f(r - h, z)) / (2.0 * h),
            (f(r, z + h) - f(r, z - h)) / (2.0 * h))


def _legendre(n, x):
    """P_n(x) and P_n'(x), by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.cache
def _legendre_rule(n):
    # the n-node Gauss-Legendre (node, weight) pairs on [-1, 1], formed on
    # first use: Newton's iteration on P_n from the guess
    # cos(pi (i + 3/4)/(n + 1/2)) for its i-th largest root, and the weight
    # from P_n' at the converged root
    rule = []
    for i in range(n):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre(n, x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-15:
                break
        dp = _legendre(n, x)[1]
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(rule)


def gauss_legendre(f, a, b, nodes):
    """The fixed ``nodes``-point Gauss-Legendre rule for the integral of the
    scalar function f over [a, b]: exact for a polynomial of degree
    2 nodes - 1, and geometrically convergent for f analytic about [a, b].
    The weighted values are summed left to right from 0.0 (not by sum(),
    which compensates float sums from Python 3.12 on), so an array
    evaluation that adds the nodes in this order has the same bits."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    total = 0.0
    for x, w in _legendre_rule(nodes):
        total += w * f(mid + half * x)
    return half * total


def _graded_panels(h, lo, hi):
    """The panels (a, b) of graded_gauss_legendre, in order: [0, h],
    [h, 2h], [2h, 4h], ... clipped to [lo, hi]."""
    if not h > 0.0:
        raise DomainError(f"graded_gauss_legendre requires h > 0 (got {h})")
    ends, a, b = [], 0.0, h
    while a < hi:
        if b > lo:
            ends.append((max(a, lo), min(b, hi)))
        a, b = b, 2.0 * b
    return ends


def graded_gauss_legendre(f, h, lo, hi):
    """The integral of the scalar function f over [lo, hi], 0 <= lo <= hi,
    by 16-node Gauss-Legendre rules on the panels [0, h], [h, 2h], [2h, 4h],
    ... clipped to [lo, hi], for h > 0 (_graded_panels).

    Where f is analytic but for singularities at distance h or more from 0,
    on the negative or the imaginary axis (an integrable singularity at 0
    itself included, for a small enough h), each panel lies within a
    Bernstein ellipse of parameter >= 4.6 clear of them. The panels are
    taken one at a time by ``gauss_legendre`` and added in order from 0.0.
    DomainError where the sum is not finite, as it is for an integrand that
    is nan or infinite at a node.
    """
    total = 0.0
    for a, b in _graded_panels(h, lo, hi):
        total += gauss_legendre(f, a, b, 16)
    if not math.isfinite(total):
        raise DomainError(f"graded_gauss_legendre: integrand not finite on [{lo}, {hi}]")
    return total


def graded_gauss_legendre_each(f, h, lo, hi):
    """graded_gauss_legendre(lambda u: f(u, i), h[i], lo[i], hi[i]) for
    every i of the float arrays h, lo and hi, as an array, bit for bit
    the scalar form, for f(u, idx) that maps an ndarray of nodes u, each
    of element idx[k], to an ndarray, elementwise as f(u, i) on floats
    rounds. Every element's panels are taken at once, one node at a time
    in gauss_legendre's order, so the arrays stay at the panel count, and
    np.add.at, which adds in index order, adds each element's panels in
    order from 0.0."""
    import numpy as np
    owner, ends = [], []
    for i, args in enumerate(zip(h.tolist(), lo.tolist(), hi.tolist())):
        panels = _graded_panels(*args)
        owner += [i] * len(panels)
        ends += panels
    total = np.zeros(len(h))
    if not ends:
        return total
    owner = np.array(owner)
    a, b = np.array(ends).T
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    sums = np.zeros(len(owner))
    for x, w in _legendre_rule(16):
        sums += w * f(mid + half * x, owner)
    np.add.at(total, owner, half * sums)
    return total


# nodes of the Gauss-Legendre rule on each straight side of a loop: the
# field of the tube check is analytic within about a fifth of a side of it,
# and this many nodes resolve it to about 1e-9 of its circulation
_SIDE_NODES = 24


def loop_integral(field, vertices, steps=()):
    """Circulation of a vector field (f_r, f_z) around the closed polygon
    through ``vertices`` (closed automatically). field(r, z, dr, dz) is the
    field's component along the side (dr, dz), f_r dr + f_z dz, so a
    finite-difference field need only difference along the side.

    Side i runs from vertex i to vertex i + 1. Each side takes a fixed
    24-node Gauss-Legendre rule. A side whose index is in ``steps`` takes
    instead the trapezoid of the field at its two ends: a short step across
    a line where the potential jumps by a constant, so that a
    finite-difference field never straddles the jump. Every node and step
    end must keep that field's stencil clear of the potential's
    singularities and jump sets.
    """
    pts = [tuple(p) for p in vertices]
    if len(pts) < 3:
        raise DomainError("loop_integral needs at least 3 vertices")
    total = 0.0
    for i, (r0, z0) in enumerate(pts):
        r1, z1 = pts[(i + 1) % len(pts)]
        dr, dz = r1 - r0, z1 - z0

        def along(t):
            return field(r0 + t * dr, z0 + t * dz, dr, dz)

        if i in steps:
            total += 0.5 * (along(0.0) + along(1.0))
        else:
            total += gauss_legendre(along, 0.0, 1.0, _SIDE_NODES)
    return total
