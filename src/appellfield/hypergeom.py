"""Pochhammer symbol, Gauss 2F1, generalized 4F3, Appell F1/F2 double series,
and the hypergeometric integral

    I(m, A; theta) = int_0^theta atanh( A / sqrt(1 - m sin^2(t/2)) ) dt

in all its closed forms, with parameter derivatives.

Series conventions: every series is a generator of its terms, summed by
_series_sum. The sum stops after three consecutive terms within 0.02 tol of
the running sum, tol = REL_TOL (gauss_2f1, pfq_4f3: PFQ_REL_TOL), and raises
ConvergenceError naming the series past term MAX_TERMS = 6000, a cap per
series, or where the sum is not finite. For terms falling geometrically at
ratio q the neglected tail is then below 0.02 tol/(1-q) of the sum, which
is within tol for q <= 0.95 only. The single-index sums of I(m, A; pi)
run up to q = SERIES_RATIO_MAX = 0.95; the gauss_2f1 series runs up to
x < 1, where the truncation error can exceed tol:
gauss_2f1(0.5, 0.5, 2, 0.99) is 1.7e-13 off.

Appell F2 with alpha = 1/2, beta2 = 1, gamma2 = 3/2 and 0 <= x, y < 1 is
one single-index series, over the inner 2F1(1/2 + j, 1; 3/2; y) or, for
the potentials' family beta = 1/2, gamma = 1, over the K/E-seeded
2F1(1/2 + l, 1/2; 1; x); that family, for 0 <= x, y and x + y <= 1,
takes its route by i_hyg_pi's rule (see appell_f2). Every other F2 is
mapped into the convergence region |x|+|y| < 1 by the Euler-type
transformation
F2(a; b, b'; g, g'; x, y) = (1-x)^(-a) F2(a; g-b, b'; g, g'; x/(x-1), y/(1-x))
(and its y-counterpart) and summed over one index, the inner
2F1(a + j, b'; g'; y) run forward by Gauss's contiguous relation in its
first parameter (_appell_f2_direct). The family at y < 0, which int_z_sc
takes, is an integral of cel instead, summed by fixed Gauss-Legendre
panels (_f2_family_at_negative_y). appell_f1 and the general-theta i_hyg
are single sums over an inner 2F1 too, appell_f1's run backward by the
contiguous relation in c: no series of the module has two indices.

i_hyg_pi(m, A, gap), the theta = pi value pi A F2(1/2; 1/2, 1; 1, 3/2;
m, A^2) that the potentials assemble, takes its route by one rule,
_i_hyg_pi_route(m, A^2, gap), the only code that compares the two
single-index ratios; appell_f2 on that family reads it too. It forms the
complements 1 - m and 1 - A^2 once (exactly, as A^2 + gap and m + gap,
when the caller passes gap = 1 - m - A^2) and hands them to the sums:
the K/E-seeded sum where A^2/(1-m) < m/(1-A^2), the inner-2F1 sum
otherwise, both up to ratio 0.95. Beyond it the value is an integral of
dI/dA' = 2K(m) + c Pi(n | m) = 2 cel(sqrt(1-m), 1-n, 1, 1-m)/(1 - A'^2),
one cel call per node, by oracle.graded_gauss_legendre in one helper
(_di_da_integral): over 0 <= A' <= A where the smaller ratio is at most
0.995 (_i_hyg_pi_integral),
and in from the surface value I(m, sqrt(1-m); pi) beyond, which is the
4F3 series of its closed form up to m = 1/3 and a quadrature above
(_i_hyg_pi_from_boundary, _surface_by_series); check C03 compares each,
where it runs, with the integral of dI/dA from A = 0 to the boundary. The
general-theta i_hyg takes its theta = pi term, and its whole value at
theta = +-pi, from it, and i_hyg_surface(m) is its value on the boundary.
i_hyg_pi_batch takes many arguments at once by the same rule and leaves
only the integral in from the surface value to i_hyg_pi; the grids use it. Each single-index
sum has one recurrence, _f2_ke_terms or _f2_inner_terms, a generator run
on floats by _series_sum and over arrays by _series_sums, and the
integral up from A = 0 one integrand, _di_da_node, run on floats with
elliptic.cel and over arrays with elliptic.cel_array, its nodes and panels
added in the scalar rule's order (oracle.graded_gauss_legendre_each), so
the batch is bit for bit what i_hyg_pi returns. _series_sums runs every
series of the batch to the last one's stop, each term over the whole
width, and records each sum by the scalar rule at its own stop; the terms
past it are computed and dropped.

gauss_2f1, pfq_4f3, appell_f1 and appell_f2 raise DomainError for a
non-finite argument, as every public function of elliptic and jacobi does;
pochhammer(nan, k) is nan. gauss_2f1, appell_f1 and appell_f2 raise
ConvergenceError where a float power on their way overflows or a divisor
underflows to 0 (errors.typed_float_errors). i_hyg(m, A, theta) takes plain
arguments and checks their domain itself. Its m-derivative di_hyg_dm is
Pi - F's Carlson term, A s^3 R_J(c^2, 1 - m s^2, 1, 1 - n s^2)/(3 (1 - A^2))
at n = m/(1 - A^2), with neither a difference of Pi and F nor a division
by m.
One integral runs oracle.quad_1d, the adaptive rule: the surface value
above m = 1/3 (_i_hyg_surface_quad). Every other integral of the module is
oracle.graded_gauss_legendre, the package's one graded 16-node
Gauss-Legendre rule: i_hyg's defining integral (small theta, and a ratio
m/(1 - A^2) beyond SERIES_RATIO_MAX; _i_hyg_defining, also the reference
of checks C01 and C02), and, of cel, _di_da_integral and
_f2_family_at_negative_y; i_hyg_pi_batch takes _di_da_integral over
arrays.

The module imports no numpy: the functions that build arrays
(i_hyg_pi_batch, _series_sums, lauricella_f11_triple) and quad_1d import it
where they run, so the scalar sums, the defining integral, and the
potentials built on them, run without it.
"""

import itertools
import math
import sys

from . import elliptic, oracle
from .errors import ConvergenceError, DomainError, typed_float_errors

# Below this |sin(theta/2)| the Eq-series route for i_hyg loses accuracy to
# cancellation, and direct quadrature of the defining integral takes over.
SMALL_S_THRESHOLD = 0.05

# i_hyg_pi accepts m + A^2 up to 1 plus this, and a gap off 1 - m - A^2 by
# up to this: the rounding of m, A and gap formed from an exact geometry
# (geometry.aux's triples have |m + A^2 + gap - 1| <= 8.9e-16)
_BOUNDARY_ROUNDING = 1e-14

# relative tolerance of the infinite series; the 2F1 and 4F3 series run at
# the tighter PFQ_REL_TOL, which the 4F3 route of the surface value needs
REL_TOL = 1e-12
PFQ_REL_TOL = 1e-13

# term cap of each series _series_sum sums
MAX_TERMS = 6000

# the largest ratio at which a single-index sum of I(m, A; theta) runs, the
# largest at which the stopping rule bounds its tail: beyond it i_hyg_pi
# integrates dI/dA and the general-theta i_hyg takes its defining integral
SERIES_RATIO_MAX = 0.95

# beyond this ratio i_hyg_pi integrates dI/dA in from the surface value
# rather than up from A = 0
_BOUNDARY_RATIO = 0.995


def pochhammer(x, k):
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1. Where a
    factor is 0 (x a non-positive integer, k > -x) it is 0, signed as the
    product of the factors before it; once the product overflows, +-inf with
    the sign of all k factors."""
    if not (k >= 0 and float(k).is_integer()):
        raise DomainError("pochhammer requires a nonnegative integer k")
    k = int(k)
    if x <= 0.0 and float(x).is_integer() and k > -x:
        return -0.0 if int(-x) % 2 else 0.0
    out = 1.0
    for i in range(k):
        out *= x + i
        if math.isinf(out):
            # the factors x + j < 0 are those with j < -x
            negative = 0 if x > 0.0 else (k if x == -math.inf else min(k, math.ceil(-x)))
            return -math.inf if negative % 2 else math.inf
        if math.isnan(out):
            return out
    return out


def _digamma(x):
    # recurrence up to x >= 8, then the standard asymptotic expansion
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - inv2 * (
        1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)))


def _series_sum(terms, tol, name):
    # the sum of the terms the iterable yields: stops after three consecutive
    # terms within 0.02 tol of the running sum, or where a finite series
    # ends, and raises ConvergenceError past term MAX_TERMS or for a sum
    # that is not finite
    eps = 0.02 * tol
    total, small = 0.0, 0
    for k, term in enumerate(terms):
        if k > MAX_TERMS:
            raise ConvergenceError(f"{name} did not converge within {MAX_TERMS} terms")
        total += term
        if abs(term) <= eps * abs(total):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    if not math.isfinite(total):
        raise ConvergenceError(f"{name} is not finite (sum {total})")
    return total


def _series_sums(terms, n, tol):
    # _series_sum of n series at once, in lockstep: ``terms`` yields the
    # term arrays of all n series, and each total adds its term. Each sum
    # is recorded at its third consecutive small term, by the scalar rule,
    # and its later terms, computed for the whole width, are dropped. A sum
    # still running past term MAX_TERMS is nan.
    import numpy as np
    eps = 0.02 * tol
    out, total = np.full(n, np.nan), np.zeros(n)
    small, running = np.zeros(n, dtype=int), np.ones(n, dtype=bool)
    for term in itertools.islice(terms, MAX_TERMS + 1):
        total += term
        small = np.where(abs(term) <= eps * abs(total), small + 1, 0)
        done = running & (small >= 3)
        if done.any():
            out[done] = total[done]
            running &= ~done
            if not running.any():
                break
    return out


def _ratio_terms(ratio):
    # t_0 = 1, t_{k+1} = t_k ratio(k)
    term = 1.0
    yield term
    for k in itertools.count():
        term *= ratio(k)
        yield term


def _gauss_2f1_log_near_one(a, b, c, x):
    # connection formula for c = a + b (logarithmic case), valid for 0 < 1-x < 1
    u = 1.0 - x
    front = math.gamma(c) / (math.gamma(a) * math.gamma(b))
    lg = -math.log(u)

    def terms():
        coef = 1.0
        for n in itertools.count():
            yield coef * (2.0 * _digamma(n + 1.0) - _digamma(a + n) - _digamma(b + n) + lg)
            coef *= (a + n) * (b + n) / ((n + 1.0) ** 2) * u

    return front * _series_sum(terms(), PFQ_REL_TOL, "gauss_2f1 connection series")


@typed_float_errors
def gauss_2f1(a, b, c, x):
    """Gauss hypergeometric series 2F1(a, b; c; x).

    Direct series for 0 <= x < 1, Pfaff transformation for x < 0 (on
    whichever of a, b leaves the smaller numerator parameters: on a,
    (1-x)^(-a) 2F1(a, c-b; c; x/(x-1)), whose terms grow as (1-x)^a where
    c - b is about a), and the logarithmic z -> 1-z connection formula when
    c = a + b and x > 0.95.
    Raises ConvergenceError for x >= 1. For c != a + b the direct series
    is the only route up to x = 1, and there it fails: it needs more than
    MAX_TERMS terms and raises ConvergenceError close to 1
    (gauss_2f1(0.5, 0.5, 2, x) for x >= 0.998), and where it does converge
    it can be about 5e-13 off (gauss_2f1(0.5, 1, 1.5, 0.99), and
    (0.5, 0.5, 2) at x = 0.997), beyond PFQ_REL_TOL. The general
    z -> 1-z connection formulas (ROADMAP item 6) would cover that range.
    """
    elliptic._check_finite("gauss_2f1", a, b, c, x)
    if c <= 0.0 and c == int(c):
        raise DomainError("gauss_2f1: c must not be a nonpositive integer")
    if x == 0.0:
        return 1.0
    if x >= 1.0:
        raise ConvergenceError(f"gauss_2f1 series diverges at x >= 1 (got {x})")
    if x < 0.0:
        if abs(c - a) + abs(b) < abs(a) + abs(c - b):
            a, b = b, a
        return (1.0 - x) ** (-a) * gauss_2f1(a, c - b, c, x / (x - 1.0))
    if x > 0.95 and abs(c - a - b) < 1e-12 and a > 0 and b > 0:
        return _gauss_2f1_log_near_one(a, b, c, x)
    return _series_sum(_ratio_terms(lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x),
                       PFQ_REL_TOL, "gauss_2f1 series")


def pfq_4f3(a, b, x):
    """Generalized hypergeometric series 4F3(a1..a4; b1..b3; x).

    ``a`` and ``b`` are sequences of length 4 and 3. Converges for |x| < 1.
    At x = -1 the terms fall only as k^-(1 + sum(b) - sum(a)): the series
    raises ConvergenceError where sum(b) <= sum(a), and it stops within
    MAX_TERMS terms only where sum(b) - sum(a) is about 3 or more
    ((1, 1, 1, 1; 2, 2, 3; -1) does; (1, 1, 1.5, 1.5; 2, 2, 2; -1) raises
    ConvergenceError).
    """
    a = tuple(float(v) for v in a)
    b = tuple(float(v) for v in b)
    if len(a) != 4 or len(b) != 3:
        raise DomainError("pfq_4f3 expects 4 numerator and 3 denominator parameters")
    elliptic._check_finite("pfq_4f3", *a, *b, x)
    for bv in b:
        if bv <= 0.0 and bv == int(bv):
            raise DomainError("pfq_4f3: denominator parameters must not be nonpositive integers")
    if x == 0.0:
        return 1.0
    if abs(x) > 1.0 or x == 1.0:
        raise ConvergenceError(f"pfq_4f3 series diverges at x = {x}")
    if x == -1.0 and sum(b) - sum(a) <= 0.0:
        raise ConvergenceError("pfq_4f3 series diverges at x = -1 for these parameters")
    (a1, a2, a3, a4), (b1, b2, b3) = a, b
    return _series_sum(_ratio_terms(lambda k: (a1 + k) * (a2 + k) * (a3 + k) * (a4 + k)
                                    / ((b1 + k) * (b2 + k) * (b3 + k) * (k + 1.0)) * x),
                       PFQ_REL_TOL, "pfq_4f3 series")


def _appell_f2_direct(alpha, beta, beta2, gamma, gamma2, x, y):
    # valid for |x| + |y| < 1: F2 = sum_j (alpha)_j (beta)_j/((gamma)_j j!)
    #   x^j 2F1(alpha + j, beta2; gamma2; y),
    # or its mirror image under (beta, gamma, x) <-> (beta2, gamma2, y),
    # whichever runs at the smaller ratio |x|/(1 - max(y, 0)). The inner
    # 2F1 is scaled by u^j, u = 1 - y, and run forward from two gauss_2f1
    # seeds by Gauss's contiguous relation in its first parameter (DLMF
    # 15.5.11), in which it is the dominant solution for y < 1:
    #   g_{j+1} = ((gamma2 - a) u g_{j-1} + (a + beta2 - gamma2 + (a - beta2) u) g_j)/a,
    # a = alpha + j. The sum ends where its coefficient vanishes (alpha or
    # beta a nonpositive integer, or x = 0), before the relation divides by
    # a = 0; the second seed is formed only for a sum that reaches j = 1.
    def ratio(x, y):
        return abs(x) / (1.0 - max(y, 0.0))

    if ratio(y, x) < ratio(x, y):
        beta, beta2, gamma, gamma2, x, y = beta2, beta, gamma2, gamma, y, x
    u = 1.0 - y

    def terms():
        g_prev = gauss_2f1(alpha, beta2, gamma2, y)
        yield g_prev
        coef = 1.0
        for j in itertools.count():
            a = alpha + j
            coef *= a * (beta + j) / ((gamma + j) * (j + 1.0)) * (x / u)
            if coef == 0.0:
                return
            if j:
                g_prev, g = g, ((gamma2 - a) * u * g_prev
                                + (a + beta2 - gamma2 + (a - beta2) * u) * g) / a
            else:
                g = u * gauss_2f1(alpha + 1.0, beta2, gamma2, y)
            yield coef * g

    return _series_sum(terms(), REL_TOL, "appell_f2 series")


@typed_float_errors
def appell_f2(alpha, beta, beta2, gamma, gamma2, x, y):
    """Appell double hypergeometric series F2(alpha; beta, beta2; gamma, gamma2; x, y).

    Symmetric under (beta, gamma, x) <-> (beta2, gamma2, y). The
    potentials' family F2(1/2; 1/2, 1; 1, 3/2; x, y) =
    I(x, sqrt(y); pi)/(pi sqrt(y)), on 0 <= x, y < 1 and x + y <= 1,
    takes its route by i_hyg_pi's rule (_i_hyg_pi_route): the sum over
    the K/E-seeded 2F1(1/2 + l, 1/2; 1; x) at ratio y/(1-x) or the sum
    over the inner 2F1(1/2 + j, 1; 3/2; y) at ratio x/(1-y), whichever
    ratio is smaller, up to 0.95, and beyond it i_hyg_pi's integral of
    dI/dA, up from A = 0 or, where both ratios exceed 0.995, in from the
    surface value. At y < 0 and 0 <= x < 1 that family is
    J/(pi sqrt(-y)), J = 2 int_0^atan(sqrt(-y)) cel(sqrt(1-x),
    1 - x cos^2 t, 1, 1-x) dt, by 16-node Gauss-Legendre panels. Other F2
    with alpha = 1/2, beta2 = 1, gamma2 = 3/2, 0 <= x, 0 <= y and
    x/(1-y) < 1 - 1e-12 are the inner-2F1 sum, at ratio x/(1-y).
    Other arguments, y < 0 among them, are mapped into |x|+|y| < 1 by
    the Euler-type transformations, then summed over one index at the
    smaller of the ratios x/(1-y) and y/(1-x), over the inner
    2F1(alpha + j, beta2; gamma2; y) or its mirror image. Raises
    ConvergenceError when no implemented transformation reaches a
    convergent regime, and where that ratio is too close to 1 for the sum
    to stop within MAX_TERMS terms.
    """
    elliptic._check_finite("appell_f2", alpha, beta, beta2, gamma, gamma2, x, y)
    for g in (gamma, gamma2):
        if g <= 0.0 and g == int(g):
            raise DomainError("appell_f2: gamma parameters must not be nonpositive integers")
    if x == 0.0 and y == 0.0:
        return 1.0
    if alpha == 0.5 and beta2 == 1.0 and gamma2 == 1.5:
        if beta == 0.5 and gamma == 1.0 and y < 0.0 and 0.0 <= x < 1.0:
            return _f2_family_at_negative_y(x, y)
        if beta == 0.5 and gamma == 1.0 and y >= 0.0:
            if 0.0 <= x < 1.0 and y < 1.0 and x + y <= 1.0:
                route, omm, omy = _i_hyg_pi_route(x, y, None)
                if route in ("integral", "boundary"):
                    # the gap 1 - x - y correctly rounded: I has a
                    # square-root branch at x + y = 1, so a gap formed from
                    # the rounded 1 - x and sqrt(y) would cost up to 1e-8
                    sq, gap = math.sqrt(y), math.fsum((1.0, -x, -y))
                    by_derivative = (_i_hyg_pi_integral if route == "integral"
                                     else _i_hyg_pi_from_boundary)
                    return by_derivative(x, sq, omm, gap) / (math.pi * sq)
                if route == "ke":
                    return _f2_ke_sum(x, y, omm)
                return _f2_inner_sum(beta, gamma, x, y, omy)
        elif 0.0 <= x and 0.0 <= y < 1.0 - 1e-12 and x / (1.0 - y) < 1.0 - 1e-12:
            return _f2_inner_sum(beta, gamma, x, y, 1.0 - y)
    if y < 0.0:
        return (1.0 - y) ** (-alpha) * appell_f2(
            alpha, beta, gamma2 - beta2, gamma, gamma2, x / (1.0 - y), y / (y - 1.0))
    if x < 0.0:
        return (1.0 - x) ** (-alpha) * appell_f2(
            alpha, gamma - beta, beta2, gamma, gamma2, x / (x - 1.0), y / (1.0 - x))
    if x + y >= 1.0 - 1e-12:
        raise ConvergenceError(f"appell_f2 does not converge at |x|+|y| = {x + y}")
    return _appell_f2_direct(alpha, beta, beta2, gamma, gamma2, x, y)


def _f2_family_at_negative_y(x, y):
    # F2(1/2; 1/2, 1; 1, 3/2; x, y) for 0 <= x < 1 and y < 0: with B = sqrt(-y),
    # pi B F2 = int_0^pi atan(B/sqrt(1 - x sin^2(t/2))) dt
    #   = 2 int_0^atan(B) cel(sqrt(1-x), 1 - x cos^2 t, 1, 1-x) dt
    # (atan(B/s) = int_0^atan(B) s dt/(s^2 cos^2 t + sin^2 t)). The integrand
    # is analytic but for the zeros of 1 - x cos^2 t, the nearest at
    # t = +-i acosh(1/sqrt(x)), at least sqrt(1-x) from 0: the panels of
    # oracle.graded_gauss_legendre with h = min(atan(B), sqrt(1-x)) stay
    # clear of them. The characteristic is formed as 1 - x + x sin^2 t,
    # without cancellation.
    b = math.sqrt(-y)
    end = math.atan(b)
    omx = 1.0 - x
    kc = math.sqrt(omx)

    def f(t):
        s = math.sin(t)
        return elliptic.cel(kc, omx + x * s * s, 1.0, omx)

    return 2.0 * oracle.graded_gauss_legendre(f, min(end, kc), 0.0, end) / (math.pi * b)


def _f2_ke_seeds(u):
    # (2/pi) K(x) and (2/pi) E(x) at kc = sqrt(u), u = 1 - x: the first two
    # inner functions of _f2_ke_terms
    k, e = elliptic.cel_pair(math.sqrt(u), 1.0, 1.0, 1.0, 1.0, 1.0, u)
    return 2.0 / math.pi * k, 2.0 / math.pi * e


def _f2_ke_sum(x, y, u):
    return _series_sum(_f2_ke_terms(x, y, u, *_f2_ke_seeds(u)), REL_TOL,
                       "appell_f2 K/E-seeded series")


def _f2_inner_seed(y, u):
    # 2F1(1/2, 1; 3/2; y), the first inner function of _f2_inner_terms, for
    # 0 <= y < 1: atanh(sqrt y)/sqrt y formed as
    # log1p(2 sqrt(y) (1 + sqrt(y))/u)/(2 sqrt(y)), which reads u = 1 - y and
    # not 1 - sqrt(y)
    if y > 0.0:
        sq = math.sqrt(y)
        return math.log1p(2.0 * sq * (1.0 + sq) / u) / (2.0 * sq)
    return 1.0


def _f2_inner_sum(beta, gamma, x, y, u):
    return _series_sum(_f2_inner_terms(beta, gamma, x, u, _f2_inner_seed(y, u)),
                       REL_TOL, "appell_f2 inner-2F1 series")


# The two single-index recurrences, each defined once: generators of the
# terms, floats when _series_sum drives them and, from i_hyg_pi_batch,
# arrays over all the batch's series when _series_sums does. They use only
# + - * /, which numpy rounds as Python does, so a sum over arrays is bit
# for bit the scalar sum.

def _f2_ke_terms(x, y, u, h_prev, h_cur):
    # F2(1/2; 1/2, 1; 1, 3/2; x, y) = sum_l (1/2)_l/(3/2)_l y^l
    #   * 2F1(1/2 + l, 1/2; 1; x),
    # with the inner function scaled by u^l, u = 1 - x from the caller:
    # seeds h_prev, h_cur = (2/pi) K(x), (2/pi) E(x) (_f2_ke_seeds), then
    # hhat_{l+1} = ((1/2 - l) u hhat_{l-1} + l (2 - x) hhat_l)/(1/2 + l).
    # Converges at ratio y/u.
    ratio = y / u
    coef = 1.0
    yield h_prev
    for l in itertools.count(1):
        coef *= (l - 0.5) / (l + 0.5) * ratio
        yield coef * h_cur
        h_next = ((0.5 - l) * u * h_prev + l * (2.0 - x) * h_cur) / (0.5 + l)
        h_prev, h_cur = h_cur, h_next


def _f2_inner_terms(beta, gamma, x, u, fhat):
    # F2(1/2; beta, 1; gamma, 3/2; x, y) = sum_j (1/2)_j (beta)_j
    #   /((gamma)_j j!) x^j 2F1(1/2+j, 1; 3/2; y), 0 <= y < 1,
    # the inner 2F1 scaled by u^j, u = 1 - y from the caller, by a two-term
    # recurrence in its first parameter from the seed fhat =
    # _f2_inner_seed(y, u); the series runs at ratio x/u.
    ratio = x / u
    coef = 1.0
    upow = 1.0  # u^j
    yield fhat
    for j in itertools.count():
        a = 0.5 + j
        # Fhat_{j+1} = ((2a-1) Fhat_j + u^j) / (2a)
        fhat = ((2.0 * a - 1.0) * fhat + upow) / (2.0 * a)
        upow = upow * u
        coef *= (0.5 + j) * (beta + j) / ((gamma + j) * (j + 1.0)) * ratio
        yield coef * fhat


@typed_float_errors
def appell_f1(alpha, beta, beta2, gamma, x, y):
    """Appell double hypergeometric series F1(alpha; beta, beta2; gamma; x, y),
    convergent for |x| < 1 and |y| < 1.

    Summed over one index as sum_j (alpha)_j (beta)_j/((gamma)_j j!) x^j
    h_j, h_j = 2F1(alpha + j, beta2; gamma + j; y), at ratio |x|. By Pfaff's
    transformation h_j = (1-y)^(-beta2) 2F1(beta2, gamma - alpha; gamma + j;
    y/(y-1)), so the h_j satisfy the contiguous relation in c (DLMF
    15.5.18), of which they are the minimal solution for -1 < y < 1: they
    are run backward by it over blocks of j, [0, 32), [32, 64), [64, 128),
    ..., each from two gauss_2f1 seeds at its upper end, until the sum
    stops. Where x < 0 and y < 0, the Euler transformation
    F1(alpha; beta, beta2; gamma; x, y) = (1-x)^(-beta) (1-y)^(-beta2)
    F1(gamma - alpha; beta, beta2; gamma; x/(x-1), y/(y-1)) first maps both
    arguments into (0, 1/2), where the terms do not alternate."""
    elliptic._check_finite("appell_f1", alpha, beta, beta2, gamma, x, y)
    if gamma <= 0.0 and gamma == int(gamma):
        raise DomainError("appell_f1: gamma must not be a nonpositive integer")
    if abs(x) >= 1.0 or abs(y) >= 1.0:
        raise ConvergenceError("appell_f1 requires |x| < 1 and |y| < 1")
    if x == 0.0 and y == 0.0:
        return 1.0
    if x < 0.0 and y < 0.0:
        return (1.0 - x) ** (-beta) * (1.0 - y) ** (-beta2) * appell_f1(
            gamma - alpha, beta, beta2, gamma, x / (x - 1.0), y / (y - 1.0))

    def seed(j):
        # h_j; where y < 0 in its Pfaff form: gauss_2f1's own Pfaff step
        # keeps alpha + j as the first parameter, and its series then grows
        # as (1 - y)^j, past the float range from j = 1024 on near y = -1
        if y < 0.0:
            return (1.0 - y) ** -beta2 * gauss_2f1(beta2, gamma - alpha, gamma + j, y / (y - 1.0))
        return gauss_2f1(alpha + j, beta2, gamma + j, y)

    def inner(lo, hi):
        # h_lo, ..., h_{hi-1} from the seeds h_hi, h_{hi+1} by
        # c (c - 1) h_j = c ((c - 1) + (alpha + j + 1 - beta2) y) h_{j+1}
        #   - (c - beta2) (alpha + j + 1) y h_{j+2},  c = gamma + j + 1,
        # with c - 1 formed as gamma + j, which keeps gamma's digits as gamma -> 0
        h_next, h = seed(hi + 1.0), seed(hi)
        block = []
        for j in range(hi - 1, lo - 1, -1):
            c, c1 = gamma + j + 1.0, gamma + j
            h, h_next = (c * (c1 + (alpha + j + 1.0 - beta2) * y) * h
                         - (c - beta2) * (alpha + j + 1.0) * y * h_next) / (c * c1), h
            block.append(h)
        return reversed(block)

    def terms():
        coef, lo, hi = 1.0, 0, 32
        while True:
            for j, h in enumerate(inner(lo, hi), lo):
                yield coef * h
                coef *= (alpha + j) * (beta + j) / ((gamma + j) * (j + 1.0)) * x
                if coef == 0.0:
                    return
            lo, hi = hi, 2 * hi

    return _series_sum(terms(), REL_TOL, "appell_f1 series")


def _i_hyg_series(m, A, s):
    # Eq-series route: sgn(s) i_hyg_pi(m, A) minus the k-sum, the latter
    # collapsed analytically to
    # 2As sqrt(1-s^2) sum_j (1/2)_j m^j phi_j 2F1(1/2 + j, 1; 3/2; A^2)/j!
    # where phi_j = s^(2j) 2F1(j+1, 1; 3/2; 1-s^2) stays bounded: the terms
    # of F2(1/2; 1, 1; 1, 3/2; m, A^2) over the inner 2F1 (_f2_inner_terms),
    # at ratio m/(1 - A^2), times phi_j, from
    # phi_0 = asin(sqrt(w))/(sqrt(w) |s|) by
    # phi_{j+1} = ((2j + 1) phi_j + s^(2j))/(2j + 2), w = 1 - s^2.
    y = A * A
    term1 = math.copysign(1.0, s) * i_hyg_pi(m, A)
    s2 = s * s
    w = 1.0 - s2
    if w <= 0.0:
        return term1
    sw = math.sqrt(w)
    u = 1.0 - y

    def terms():
        phi, spow = math.asin(sw) / (sw * abs(s)), 1.0
        for j, term in enumerate(_f2_inner_terms(1.0, 1.0, m, u, _f2_inner_seed(y, u))):
            yield term * phi
            phi = ((2.0 * j + 1.0) * phi + spow) / (2.0 * (j + 1.0))
            spow *= s2

    return term1 - 2.0 * A * s * sw * _series_sum(terms(), REL_TOL, "i_hyg series")


def i_hyg(m, A, theta):
    """The integral int_0^theta atanh(A / sqrt(1 - m sin^2(t/2))) dt.

    Odd in both A and theta. Requires finite m in [0, 1], |theta| <= pi
    and A^2 <= 1 - m (DomainError otherwise). At |theta| = pi the value is
    +-i_hyg_pi(m, A), on i_hyg_pi's domain: up to the boundary m + A^2 = 1,
    with its allowance for the rounding of m and A; elsewhere it requires
    strictly interior arguments m + A^2 < 1 - 1e-9. Elsewhere the value
    is i_hyg_pi's minus a single sum over the inner 2F1(1/2 + j, 1; 3/2; A^2)
    at ratio m/(1 - A^2). Below |sin(theta/2)| = SMALL_S_THRESHOLD, where
    that series loses accuracy to cancellation, and where its ratio exceeds
    SERIES_RATIO_MAX = 0.95, beyond which the stopping rule no longer
    bounds its tail, the value is the defining integral instead, by fixed
    16-node Gauss-Legendre panels (the one the verify checks C01 and C02
    take as their reference).
    """
    if not (math.isfinite(m) and math.isfinite(A) and math.isfinite(theta)):
        raise DomainError("i_hyg requires finite arguments")
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"i_hyg: m must lie in [0, 1] (got {m})")
    if abs(theta) > math.pi + 1e-12:
        raise DomainError("i_hyg: theta is restricted to [-pi, pi]")
    if m * math.sin(theta / 2.0) ** 2 >= 1.0:
        raise DomainError("i_hyg: m*sin^2(theta/2) must stay below 1")
    # worst case of the path condition A^2 < 1 - m*sin^2(t/2), at t = pi;
    # at |theta| = pi, i_hyg_pi checks it with its allowance for rounding
    at_pi = abs(theta) == math.pi
    if A * A > 1.0 - m and not at_pi:
        raise DomainError("i_hyg: A^2 must not exceed 1 - m")
    if theta == 0.0 or A == 0.0:
        return 0.0
    if at_pi:
        return math.copysign(1.0, theta) * i_hyg_pi(m, A)
    if m + A * A > 1.0 - 1e-9:
        raise DomainError(
            "i_hyg: m + A^2 within 1e-9 of the convergence boundary; "
            "use i_hyg_surface for the boundary value")
    s = math.sin(theta / 2.0)
    if abs(s) < SMALL_S_THRESHOLD or m / (1.0 - A * A) > SERIES_RATIO_MAX:
        return _i_hyg_defining(m, A, theta)
    return _i_hyg_series(m, A, s)


def _i_hyg_defining(m, A, theta):
    # the defining integral int_0^theta atanh(A/sqrt(1 - m sin^2(t/2))) dt,
    # odd in A and theta, for m + A^2 < 1. With a = |A|, q = 1 - m sin^2(t/2)
    # and d = q - a^2 = gap + m cos^2(t/2), gap = 1 - m - a^2 to one rounding
    # (a^2 = p + e exactly, by Veltkamp's split of a), the integrand is
    # atanh(a/sqrt(q)) = log1p(2a (sqrt(q) + a)/d)/2, which keeps its digits
    # where the atanh argument nears 1. It is analytic but where d = 0, at
    # cos^2(t/2) = -gap/m: at t = pi, or off the real axis beyond it. Up to
    # |theta| = pi/2 that is at least pi/2 from [0, |theta|], which one
    # 16-node panel in t takes (the graded rule with h = pi/2). Beyond, the
    # integral runs in s = pi - t over [pi - |theta|, pi], where
    # d = gap + m sin^2(s/2) vanishes at s = +-2i asinh(sqrt(gap/m)), by the
    # graded rule from s = 0.
    a = abs(A)
    p, top = a * a, 134217729.0 * a
    top -= top - a  # a's upper 26 bits, and a - top its lower 27
    e = ((top * top - p) + 2.0 * top * (a - top)) + (a - top) * (a - top)
    gap = math.fsum((1.0, -m, -p, -e))
    th = abs(theta)
    if th <= 0.5 * math.pi:
        trig, h, lo, hi = math.cos, 0.5 * math.pi, 0.0, th
    else:
        trig, lo, hi = math.sin, math.pi - th, math.pi
        h = 2.0 * math.asinh(math.sqrt(gap / m)) if m > 0.0 else math.pi

    def f(x):  # cos^2(t/2) = trig(x/2)^2, x being t or s
        d = gap + m * trig(0.5 * x) ** 2
        return 0.5 * math.log1p(2.0 * a * (math.sqrt(p + d) + a) / d)

    value = oracle.graded_gauss_legendre(f, h, lo, hi)
    return math.copysign(1.0, A) * math.copysign(1.0, theta) * value


def i_hyg_pi(m, A, gap=None):
    """Definite integral i_hyg(m, A, pi) = pi A F2(1/2; 1/2, 1; 1, 3/2; m, A^2)
    on the closed domain m + A^2 <= 1. Odd in A.

    ``gap`` is 1 - m - A^2 formed exactly by the caller (geometry.aux gives
    it as ((r - r0)/L0)^2). I has a square-root branch at the boundary
    m + A^2 = 1, so a distance to the boundary formed from the rounded m
    and A turns their 1e-16 error into about 1e-8 in I. With ``gap`` the
    complements 1 - m = A^2 + gap, 1 - A^2 = m + gap and sqrt(1-m) - |A|
    are exact, and the value stays accurate up to the boundary, the rim
    m = 1 and the axis m = 0; without it they are formed from m and A.

    One rule, _i_hyg_pi_route, chooses the route from the two single-index
    ratios A^2/(1 - m) and m/(1 - A^2). Where the smaller is at most
    SERIES_RATIO_MAX = 0.95, F2 is summed at it, K/E-seeded (_f2_ke_sum)
    where the first is smaller and over the inner 2F1 (_f2_inner_sum)
    where it is not. Beyond, the A-derivative 2K(m) + c Pi(n | m) is
    integrated by fixed 16-node Gauss-Legendre panels (_di_da_integral):
    up from A' = 0 where the smaller ratio is at most 0.995, and in from
    the surface value I(m, sqrt(1-m); pi) where both exceed it, which is
    the 4F3 series of its closed form where m <= 1/3 (at mu = -m/(1-m),
    |mu| <= 1/2, from the exact 1 - m) and the quadrature of
    int_m^1 K(t) dt/(t sqrt(1-t)) above. On the boundary
    (gap = 0, or m + A^2 = 1 without gap) the value is the surface value;
    at the rim and at A = 0 it is 0. A negative m, an m + A^2 beyond 1 by
    more than rounding, a gap that is not 1 - m - A^2 up to rounding, a
    non-finite m, A or gap, and m = 0 with |A| = 1, where I diverges, raise
    DomainError; an integral of dI/dA at an m below the normal float range
    raises ConvergenceError.
    """
    y = A * A
    route, omm, omy = _i_hyg_pi_route(m, y, gap)
    if route == "zero" or A == 0.0:
        return 0.0
    if route == "integral":
        return math.copysign(1.0, A) * _i_hyg_pi_integral(m, abs(A), omm, gap)
    if route == "boundary":
        return math.copysign(1.0, A) * _i_hyg_pi_from_boundary(m, abs(A), omm, gap)
    if route == "ke":
        return math.pi * A * _f2_ke_sum(m, y, omm)
    return math.pi * A * _f2_inner_sum(0.5, 1.0, m, y, omy)


def _i_hyg_pi_route(m, y, gap):
    """(route, 1 - m, 1 - y): the one rule that routes
    F2(1/2; 1/2, 1; 1, 3/2; m, y) = I(m, sqrt(y); pi)/(pi sqrt(y)), for
    i_hyg_pi and its batch (y = A^2) and for appell_f2. It alone compares
    the two single-index ratios y/(1 - m) and m/(1 - y). The route is
    "zero" at the rim 1 - m = 0 (where I is 0), "boundary" (the integral
    in from the surface value) where both ratios exceed 0.995, "integral"
    (the integral up from A = 0) where both exceed SERIES_RATIO_MAX, and
    else "ke" (the K/E-seeded sum) where the first is smaller and "inner"
    (the inner-2F1 sum) otherwise. With ``gap`` the complements are
    y + gap and m + gap. DomainError outside the domain."""
    if not (m >= 0.0 and m + y <= 1.0 + _BOUNDARY_ROUNDING):
        raise DomainError(f"i_hyg_pi requires m >= 0 and m + A^2 <= 1 (got m = {m}, A^2 = {y})")
    if gap is not None and not abs(m + y + gap - 1.0) <= _BOUNDARY_ROUNDING:
        raise DomainError(f"i_hyg_pi: gap = {gap} is not 1 - m - A^2 (m = {m}, A^2 = {y})")
    omm, omy = (1.0 - m, 1.0 - y) if gap is None else (y + gap, m + gap)
    if omm <= 0.0:
        return "zero", omm, omy
    if omy <= 0.0 and m == 0.0:
        raise DomainError(f"i_hyg_pi diverges at m = 0, |A| = 1 (got A^2 = {y})")
    ratio_ke, ratio_inner = y / omm, (m / omy if omy > 0.0 else math.inf)
    ratio = min(ratio_ke, ratio_inner)
    if ratio > _BOUNDARY_RATIO:
        return "boundary", omm, omy
    if ratio > SERIES_RATIO_MAX:
        return "integral", omm, omy
    return ("ke" if ratio_ke < ratio_inner else "inner"), omm, omy


def i_hyg_pi_batch(m, A, gap):
    """i_hyg_pi(m[i], A[i], gap[i]) for every i, as a float array, where
    the value comes from a single-index sum, at a ratio of at most
    SERIES_RATIO_MAX, or from the integral of dI/dA up from A = 0; nan
    elsewhere: on the boundary route, where i_hyg_pi returns 0 early or
    raises DomainError, and where it raises ConvergenceError (a sum that
    does not stop within MAX_TERMS terms, an integral at an m below the
    normal float range). The caller takes those values, or their errors,
    from i_hyg_pi itself.

    Each element takes its route from i_hyg_pi's rule. The sums of each
    route then run in lockstep through the one recurrence i_hyg_pi sums
    (_f2_ke_terms, _f2_inner_terms), over arrays of the route's whole
    width, each stopped by the scalar rule (_series_sums), from K/E seeds
    by elliptic.cel_array. The integrals
    take _di_da_integral's integrand and panels, all elements' at once
    (oracle.graded_gauss_legendre_each). So every value is bit for bit
    what i_hyg_pi returns. The terms a series computes past its stop may
    overflow; that is silent and they are dropped.
    """
    import numpy as np
    m, A, gap = (np.asarray(v, dtype=float) for v in (m, A, gap))
    # 1: K/E-seeded, 2: inner-2F1, 3: the integral up from A = 0
    route = np.zeros(len(m), dtype=np.int8)
    u, seed = np.zeros(len(m)), np.zeros(len(m))
    for i, (mi, ai, gi) in enumerate(zip(m.tolist(), A.tolist(), gap.tolist())):
        try:
            tag, omm, omy = _i_hyg_pi_route(mi, ai * ai, gi)
        except DomainError:
            continue  # left to i_hyg_pi, which raises it
        if ai == 0.0:
            continue  # left to i_hyg_pi, which returns 0
        if tag == "ke":
            route[i], u[i] = 1, omm
        elif tag == "inner":
            route[i], u[i], seed[i] = 2, omy, _f2_inner_seed(ai * ai, omy)
        elif tag == "integral" and mi >= sys.float_info.min:
            route[i], u[i] = 3, omm
    out = np.full(len(m), np.nan)
    ke, inner, integral = (route == k for k in (1, 2, 3))
    # an overflow is silent, as in Python floats: that sum does not stop,
    # and i_hyg_pi reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if ke.any():
            uk = u[ke]
            # _f2_ke_seeds: (2/pi) K and (2/pi) E at kc = sqrt(1 - m)
            k, e = 2.0 / math.pi * elliptic.cel_array(np.sqrt(uk), 1.0, 1.0,
                                                      np.stack((np.ones(uk.size), uk)))
            terms = _f2_ke_terms(m[ke], A[ke] * A[ke], uk, k, e)
            out[ke] = _series_sums(terms, np.count_nonzero(ke), REL_TOL)
        if inner.any():
            terms = _f2_inner_terms(0.5, 1.0, m[inner], u[inner], seed[inner])
            out[inner] = _series_sums(terms, np.count_nonzero(inner), REL_TOL)
        out = math.pi * A * out
        if integral.any():
            # _i_hyg_pi_integral with the exact span gap/(A0 + |A|)
            m_int, A0 = m[integral], np.sqrt(u[integral])
            span = gap[integral] / (A0 + np.abs(A[integral]))
            values = oracle.graded_gauss_legendre_each(
                lambda x, i: _di_da_node(x, m_int[i], A0[i], elliptic.cel_array),
                np.sqrt(m_int / (1.0 + A0)), np.sqrt(span), np.sqrt(A0))
            out[integral] = np.copysign(1.0, A[integral]) * values
    return out


def _di_da_integral(m, A0, lo, hi):
    # int_lo^hi of dI/dA' (2u du), A' = A0 - u^2, A0 = sqrt(1 - m): the
    # integral of dI/dA' over A0 - hi^2 <= A' <= A0 - lo^2. The integrand
    # dI/dA' = 2K(m) + c Pi(n | m), c = 2 A'^2/(1 - A'^2), n = m/(1 - A'^2),
    # is cel(A0, 1 - n, 2 + c, 2(1 - n) + c), which is linear in its last
    # two arguments; times (1 - A'^2)/2 they are 1 and A0^2, so it is
    # 2 cel(A0, 1 - n, 1, A0^2)/(1 - A'^2), one cel call with 1 - n formed
    # exactly and no overflow where 1 - A'^2 is small. The integrable
    # 1/sqrt singularity of Pi at n = 1 (u = 0) disappears in the
    # substitution. It is analytic in u but for the zeros of 1 - A'^2, the
    # nearest at u = +-i sqrt(1 - A0), so the panels of
    # oracle.graded_gauss_legendre with h = sqrt(1 - A0) = sqrt(m/(1 + A0))
    # stay clear of them. Everything is cancellation-free in u.
    if m < sys.float_info.min:
        # the nodes' u^2, about m or less, would lose their digits
        raise ConvergenceError(f"i_hyg_pi: the integral of dI/dA needs a normal float m "
                               f"(got m = {m})")
    return oracle.graded_gauss_legendre(lambda u: _di_da_node(u, m, A0, elliptic.cel),
                                        math.sqrt(m / (1.0 + A0)), lo, hi)


def _di_da_node(u, m, A0, cel):
    # the integrand of _di_da_integral, dI/dA' (2u) at A' = A0 - u^2, on
    # floats with elliptic.cel and on arrays with elliptic.cel_array
    d = u * u * (2.0 * A0 - u * u)
    oma2 = m + d  # 1 - A'^2, exactly
    return cel(A0, d / oma2, 1.0, A0 * A0) * (4.0 * u / oma2)


def _a0_span(A_abs, omm, gap):
    # A0 = sqrt(1 - m) and the span A0 - |A|, exact with gap
    A0 = math.sqrt(omm)
    return A0, (A0 - A_abs if gap is None else gap / (A0 + A_abs))


def _i_hyg_pi_integral(m, A_abs, omm, gap):
    # I(m, A) = int_0^A dI/dA' dA', over u from sqrt(A0 - A) to sqrt(A0)
    A0, span = _a0_span(A_abs, omm, gap)
    return _di_da_integral(m, A0, math.sqrt(span), math.sqrt(A0))


def _i_hyg_pi_from_boundary(m, A_abs, omm, gap):
    # I(m, A) = I(m, A0) - int_A^A0 dI/dA' dA', over u from 0 to sqrt(A0 - A)
    A0, span = _a0_span(A_abs, omm, gap)
    surf = _i_hyg_surface_f43(m, omm) if _surface_by_series(m, omm) else _i_hyg_surface_quad(A0)
    if span <= 0.0:
        return surf
    return surf - _di_da_integral(m, A0, 0.0, math.sqrt(span))


def i_hyg_surface(m):
    """Boundary value i_hyg(m, sqrt(1-m), pi) for m in (0, 1):
    i_hyg_pi(m, sqrt(1-m), gap=0.0), by its rule.

    Up to m = 1/3 (|mu| <= 1/2, mu = -m/(1-m)) the value is the 4F3 series
    of the closed form -(pi mu/8) 4F3(1,1,3/2,3/2; 2,2,2; mu)
    - (pi/2) ln(-mu/16); above, it is the quadrature of
    int_m^1 K(t) dt / (t sqrt(1-t)). Check C03 compares each route where
    it runs, the series up to m = 1/3 and the quadrature above, with the
    integral of dI/dA from A = 0 to the boundary.
    """
    if not 0.0 < m < 1.0:
        raise DomainError(f"i_hyg_surface requires m in (0, 1) (got {m})")
    return i_hyg_pi(m, math.sqrt(1.0 - m), 0.0)


def _k_minus_log(v):
    # K(1 - v^2) - ln(4/v) by the near-one logarithmic series
    #   sum_{n>=1} ((1/2)_n/n!)^2 v^(2n) (ln(4/v) - b_n),
    # b_n = sum_{j<=n} 2/((2j-1) 2j); cancellation-free for v^2 < 1.
    L = math.log(4.0 / v)
    v2 = v * v
    total = 0.0
    coef = 1.0
    bn = 0.0
    for n in range(1, 64):
        coef *= ((n - 0.5) / n) ** 2 * v2
        bn += 2.0 / ((2.0 * n - 1.0) * 2.0 * n)
        term = coef * (L - bn)
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-30):
            break
    return total


def _i_hyg_surface_quad(b):
    # quadrature route of the surface value i_hyg(m, b, pi) at b = sqrt(1-m):
    # substitute t = 1 - v^2 in int_m^1 K(t) dt / (t sqrt(1-t)) and split off
    # the K(1-v^2) ~ ln(4/v) endpoint:
    # I = 2 b (ln(4/b) + 1) + int_0^b [2K(1-v^2)/(1-v^2) - 2 ln(4/v)] dv
    def remainder(v):
        if v == 0.0:
            return 0.0
        L = math.log(4.0 / v)
        if v < 0.35:
            # 2 [ (K - L) + L v^2 ] / (1 - v^2), with K - L from the log series
            return 2.0 * (_k_minus_log(v) + L * v * v) / (1.0 - v * v)
        # K(1 - v^2) with the complementary modulus kc = v exact
        return 2.0 * elliptic.cel(v, 1.0, 1.0, 1.0) / (1.0 - v * v) - 2.0 * L

    rem, _ = oracle.quad_1d(remainder, 0.0, b, 1e-12, 1e-11)
    return 2.0 * b * (math.log(4.0 / b) + 1.0) + rem


def _surface_by_series(m, omm):
    # |mu| = m/(1 - m) <= 1/2, i.e. m <= 1/3, with omm = 1 - m: the 4F3
    # series of the surface value converges at ratio <= 1/2 there; the one
    # test of the route and of _i_hyg_surface_f43, so both always agree
    return m <= 0.5 * omm


def _i_hyg_surface_f43(m, omm):
    # the 4F3-log closed form of the surface value at mu = -m/(1 - m), from
    # the complement omm = 1 - m the caller forms, by the 4F3 series: where
    # _surface_by_series holds
    mu = -m / omm
    f43 = pfq_4f3((1.0, 1.0, 1.5, 1.5), (2.0, 2.0, 2.0), mu)
    # ln(-mu/16); below -mu = 2^-1018, -mu/16 is below the normal range (it
    # is 0 at a subnormal m), and ln 16 is taken apart
    log_q = math.log(-mu / 16.0) if -mu >= 2.0 ** -1018 else math.log(-mu) - math.log(16.0)
    return -math.pi * mu / 8.0 * f43 - math.pi / 2.0 * log_q


def di_hyg_dA(m, A, theta):
    """Closed-form derivative of i_hyg with respect to A:
    2 F(theta/2 | m) + (2A^2/(1-A^2)) Pi(m/(1-A^2); theta/2 | m)."""
    if A * A >= 1.0:
        raise DomainError("di_hyg_dA requires A^2 < 1")
    F = elliptic.ellip_f(theta / 2.0, m)
    if A == 0.0:
        return 2.0 * F
    n = m / (1.0 - A * A)
    return 2.0 * F + (2.0 * A * A / (1.0 - A * A)) * elliptic.ellip_pi(n, theta / 2.0, m)


def di_hyg_dm(m, A, theta):
    """Closed-form derivative of i_hyg with respect to m:
    (A/m) [Pi(n; theta/2 | m) - F(theta/2 | m)], n = m/(1-A^2), taken as
    Pi - F's Carlson term (DLMF 19.25.14): at an amplitude of sine s and
    cosine c in [-pi/2, pi/2] it is A s^3 R_J(c^2, 1 - m s^2, 1, 1 - n s^2)
    / (3 (1 - A^2)), without the cancellation of Pi against F or the
    division by m, and beyond it is continued as elliptic._continued
    continues Pi, by the complete term A R_J(0, 1 - m, 1, 1 - n)/(3 (1 - A^2))."""
    if not (0.0 < m < 1.0 and A * A < 1.0 and math.isfinite(theta)):
        raise DomainError("di_hyg_dm requires m in (0, 1), A^2 < 1 and a finite theta")
    if A == 0.0:
        return 0.0
    n, rj = m / (1.0 - A * A), elliptic.carlson_rj
    return A / (3.0 * (1.0 - A * A)) * elliptic._continued(
        theta / 2.0, m, lambda: rj(0.0, 1.0 - m, 1.0, 1.0 - n),
        lambda s, c: s ** 3 * rj(c * c, 1.0 - m * s * s, 1.0, 1.0 - n * s * s), n)


def lauricella_f11_triple(m, A, s):
    """Truncated triple series for i_hyg in powers of (m s^2, A^2, s^2);
    an oracle for small arguments."""
    x, y, w = m * s * s, A * A, s * s
    for arg, nm in ((x, "m*s^2"), (y, "A^2"), (w, "s^2")):
        if not 0.0 <= arg < 1.0:
            raise ConvergenceError(f"lauricella_f11_triple requires 0 <= {nm} < 1")

    def cap(arg):
        if arg == 0.0:
            return 1
        n = int(math.log(1e-18) / math.log(arg)) + 8 if arg > 1e-18 else 2
        return min(max(n, 8), 600)

    nl, nj, nk = cap(x), cap(y), cap(w)
    if max(nl, nj, nk) >= 600:
        raise ConvergenceError("lauricella_f11_triple: arguments too close to 1")
    import numpy as np
    half = 0.5
    idx = np.arange(nl + max(nj, nk) + 1, dtype=float)
    poch_half = np.cumprod(np.concatenate(([1.0], half + idx[:-1])))  # (1/2)_n
    poch_ratio = poch_half / np.cumprod(np.concatenate(([1.0], 1.5 + idx[:-1])))  # (1/2)_n/(3/2)_n
    l_idx = np.arange(nl, dtype=float)
    j_idx = np.arange(nj, dtype=float)
    k_idx = np.arange(nk, dtype=float)
    # a_j = (1)_j A^(2j) / ((3/2)_j j!) = A^(2j) / (3/2)_j
    a = y ** j_idx / np.cumprod(np.concatenate(([1.0], 1.5 + j_idx[:-1])))
    # b_k = (1/2)_k s^(2k) / k!
    b = poch_half[:nk] * w ** k_idx / np.cumprod(np.concatenate(([1.0], 1.0 + k_idx[:-1])))
    # c_l = (m s^2)^l / l!
    c = x ** l_idx / np.cumprod(np.concatenate(([1.0], 1.0 + l_idx[:-1])))
    P = np.array([np.dot(a, poch_half[l:l + nj]) for l in range(nl)])
    Qv = np.array([np.dot(b, poch_ratio[l:l + nk]) for l in range(nl)])
    return 2.0 * A * s * float(np.dot(c, P * Qv))


def i_hyg_alt(variant, m, A, s):
    """Alternative single-index series for i_hyg obtained by performing two of
    the three summations; used for cross-validation on interior arguments.

    variant 1: series in (m s^2)^l of 2F1 x 2F1 products;
    variant 2: series in (A^2)^j of Appell F1 values;
    variant 3: series in (s^2)^k of Appell F2 values.
    """
    if variant not in (1, 2, 3):
        raise DomainError("i_hyg_alt variant must be 1, 2 or 3")
    if A == 0.0 or s == 0.0:
        return 0.0
    x, y, w = m * s * s, A * A, s * s

    def terms():
        coef = 1.0
        for idx in itertools.count():
            if variant == 1:
                yield coef / (2.0 * idx + 1.0) * gauss_2f1(1.0, 0.5 + idx, 1.5, y) \
                    * gauss_2f1(0.5, 0.5 + idx, 1.5 + idx, w)
                coef *= (0.5 + idx) / (idx + 1.0) * x
            elif variant == 2:
                yield coef * appell_f1(0.5, 0.5 + idx, 0.5, 1.5, x, w)
                coef *= (0.5 + idx) / (1.5 + idx) * y
            else:
                yield coef * appell_f2(0.5, 0.5 + idx, 1.0, 1.5 + idx, 1.5, x, y)
                coef *= (0.5 + idx) ** 2 / ((1.5 + idx) * (idx + 1.0)) * w

    return 2.0 * A * s * _series_sum(terms(), REL_TOL, f"i_hyg_alt variant {variant}")
