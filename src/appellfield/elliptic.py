"""Legendre elliptic integrals in the *parameter* convention.

Complete integrals K, E and Pi are computed with Bulirsch's general complete
integral `cel`, one AGM-type loop (`cel_pair`: two integrals at one kc from
one loop; `cel_array`: the loop over arrays, which imports numpy where it
runs); incomplete integrals are built on Carlson
symmetric forms (`carlson_rf` and `carlson_rj` by duplication, `carlson_rd`,
which is R_J at p = z, and `carlson_rc` in closed form: an arctangent below
x = y and a logarithm above).

All Legendre functions take the parameter ``m`` (= k**2), never the modulus
k; `cel` takes the complementary modulus kc = sqrt(1 - m), so callers that
form 1 - m exactly keep its digits. Incomplete integrals accept any finite
real amplitude; amplitudes beyond |phi| = pi/2 are reduced with the additive
quasi-periodicity F(phi + k*pi | m) = 2k*K(m) + F(phi | m) and its
analogues, using exact integer multiples of the complete integrals. Every
public function raises DomainError for a non-finite argument. R_F and R_J
are homogeneous, and below a largest argument of 2^-300 they are taken at
the arguments times an exact power of four; carlson_rj raises
ConvergenceError where its value or a step on its way leaves the float
range.
"""

import math

from .errors import ConvergenceError, DomainError, SingularityError, typed_float_errors

# Duplication stops once the scaled argument spread is below this. For this
# stop Carlson's bound on the relative error of the truncated series is the
# tolerance itself, not 1 ulp; measured, carlson_rf is up to 1.7e-14 off
# 30-digit mpmath over 2000 arguments drawn uniformly from [1e-6, 10]^3
# (seeds 0-4; 1.5e-14 on seed 0, which a Tier-1 test pins at 3e-14).
_RF_TOL = 2.5e-13
_MAX_DUPLICATIONS = 200
# Below this largest argument carlson_rf and carlson_rj take their arguments
# times an exact power of four, 4^j, where the duplication's products stay in
# the normal range, and their value times 2^j and 2^(3j): R_F is homogeneous
# of degree -1/2 and R_J of degree -3/2
_SCALE_BELOW = 2.0 ** -300

# Characteristics inside [1 - this, 1] are rejected rather than regularized;
# the theta = pi assemblies in `fields` take those terms by cel instead.
_PI_SINGULAR_BAND = 1e-12

# cel's AGM stops once |a_n - b_n| <= a_n * this; it converges
# quadratically, so the result is then accurate to about its square.
_CEL_TOL = 1e-8
# Any 0 < kc <= _KC_MAX needs at most ~15 AGM steps; the cap only guards
# the loop. Beyond _KC_MAX (m < -1e300) the AGM's products overflow.
_MAX_AGM_STEPS = 64
_KC_MAX = 1e150


def _check_finite(name, *args):
    if not all(map(math.isfinite, args)):
        raise DomainError(f"{name} requires finite arguments (got {args})")


def cel(kc, p, a, b):
    """Bulirsch's general complete elliptic integral

        cel(kc, p, a, b) = int_0^{pi/2} (a cos^2 t + b sin^2 t)
            / ((cos^2 t + p sin^2 t) sqrt(cos^2 t + kc^2 sin^2 t)) dt

    for 0 < kc <= 1e150 and p > 0 (R. Bulirsch, Numer. Math. 13, 305
    (1969), in the Numerical Recipes form). With kc = sqrt(1 - m):
    K(m) = cel(kc, 1, 1, 1), E(m) = cel(kc, 1, 1, kc^2) and
    Pi(n | m) = cel(kc, 1 - n, 1, 1). cel is linear in (a, b), so
    a K + b E = cel(kc, 1, a + b, a + b kc^2) and
    a K + b Pi(n) = cel(kc, p, a + b, a p + b) with p = 1 - n.
    """
    if not (0.0 < kc <= _KC_MAX and 0.0 < p < math.inf
            and -math.inf < a < math.inf and -math.inf < b < math.inf):
        raise DomainError(
            f"cel requires 0 < kc <= {_KC_MAX:g}, finite p > 0 and finite a, b "
            f"(got {kc}, {p}, {a}, {b})")
    qc = e = kc
    em = 1.0
    p = math.sqrt(p)
    b /= p
    for _ in range(_MAX_AGM_STEPS):
        f = a
        a += b / p
        g = e / p
        b = 2.0 * (b + f * g)
        p += g
        g = em
        em += qc
        if abs(g - qc) <= g * _CEL_TOL:
            return math.pi / 2.0 * (b + a * em) / (em * (em + p))
        qc = 2.0 * math.sqrt(e)
        e = qc * em
    raise ConvergenceError("cel: AGM failed to converge")


def cel_pair(kc, p1, a1, b1, p2, a2, b2):
    """(cel(kc, p1, a1, b1), cel(kc, p2, a2, b2)) from one run of the AGM
    in kc. The AGM (qc, e, em) and its stop test do not depend on p, a or
    b, so each value takes the steps and operations of its own cel call
    and is bit for bit that value. DomainError wherever either call raises
    it.
    """
    if not (0.0 < kc <= _KC_MAX and 0.0 < p1 < math.inf and 0.0 < p2 < math.inf
            and -math.inf < a1 < math.inf and -math.inf < b1 < math.inf
            and -math.inf < a2 < math.inf and -math.inf < b2 < math.inf):
        raise DomainError(
            f"cel_pair requires 0 < kc <= {_KC_MAX:g}, finite p1, p2 > 0 and finite a, b "
            f"(got {kc}, {p1}, {a1}, {b1}, {p2}, {a2}, {b2})")
    qc = e = kc
    em = 1.0
    p1 = math.sqrt(p1)
    b1 /= p1
    p2 = math.sqrt(p2)
    b2 /= p2
    for _ in range(_MAX_AGM_STEPS):
        f = a1
        a1 += b1 / p1
        g = e / p1
        b1 = 2.0 * (b1 + f * g)
        p1 += g
        f = a2
        a2 += b2 / p2
        g = e / p2
        b2 = 2.0 * (b2 + f * g)
        p2 += g
        g = em
        em += qc
        if abs(g - qc) <= g * _CEL_TOL:
            return (math.pi / 2.0 * (b1 + a1 * em) / (em * (em + p1)),
                    math.pi / 2.0 * (b2 + a2 * em) / (em * (em + p2)))
        qc = 2.0 * math.sqrt(e)
        e = qc * em
    raise ConvergenceError("cel_pair: AGM failed to converge")


def cel_array(kc, p, a, b):
    """cel over arrays: cel(kc, p, a, b) elementwise over the broadcast
    arguments, as a float array, bit for bit each scalar call, and nan where
    that call raises. The AGM runs in lockstep over the elements, and each
    stops at its own step: the AGM (qc, e, em) and its stop test depend on
    kc alone, and the steps use only + - * / and sqrt, which numpy rounds as
    Python does. The point API keeps the scalar cel and cel_pair; the grids'
    end terms take this one."""
    import numpy as np
    kc, p, a, b = (np.asarray(v, dtype=float) for v in np.broadcast_arrays(kc, p, a, b))
    out = np.full(kc.shape, np.nan)
    # the elements still running, by flat index into out
    live = np.flatnonzero((0.0 < kc) & (kc <= _KC_MAX) & (0.0 < p) & (p < math.inf)
                          & np.isfinite(a) & np.isfinite(b))
    flat = out.reshape(-1)
    qc = e = kc.reshape(-1)[live]
    em = np.ones(live.size)
    p = np.sqrt(p.reshape(-1)[live])
    a = a.reshape(-1)[live]
    b = b.reshape(-1)[live] / p
    # a value that overflows is silent, as in Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_AGM_STEPS):
            if not live.size:
                break
            f = a
            a = a + b / p
            g = e / p
            b = 2.0 * (b + f * g)
            p = p + g
            g = em
            em = em + qc
            done = abs(g - qc) <= g * _CEL_TOL
            if done.any():
                ed = em[done]
                flat[live[done]] = math.pi / 2.0 * (b[done] + a[done] * ed) / (ed * (ed + p[done]))
                keep = ~done
                live, a, b, p, em, e = (v[keep] for v in (live, a, b, p, em, e))
            qc = 2.0 * np.sqrt(e)
            e = qc * em
    return out


def carlson_rf(x, y, z):
    """Symmetric integral R_F(x,y,z) = 1/2 * int_0^inf dt / sqrt((t+x)(t+y)(t+z)).

    Requires x, y, z >= 0 with at most one of them zero.
    """
    _check_finite("carlson_rf", x, y, z)
    if x < 0.0 or y < 0.0 or z < 0.0:
        raise DomainError("carlson_rf requires nonnegative arguments")
    if (x == 0.0) + (y == 0.0) + (z == 0.0) >= 2:
        raise DomainError("carlson_rf: at most one argument may be zero")
    if max(x, y, z) < _SCALE_BELOW:
        j = -(math.frexp(max(x, y, z))[1] // 2)
        return math.ldexp(carlson_rf(*(math.ldexp(v, 2 * j) for v in (x, y, z))), j)
    xm, ym, zm = float(x), float(y), float(z)
    A0 = Am = (xm + ym + zm) / 3.0
    Q = (3.0 * _RF_TOL) ** (-1.0 / 6.0) * max(abs(A0 - xm), abs(A0 - ym), abs(A0 - zm))
    pow4 = 1.0
    for _ in range(_MAX_DUPLICATIONS):
        if pow4 * Q < abs(Am):
            break
        sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
        lam = sx * sy + sx * sz + sy * sz
        xm = (xm + lam) * 0.25
        ym = (ym + lam) * 0.25
        zm = (zm + lam) * 0.25
        Am = (Am + lam) * 0.25
        pow4 *= 0.25
    else:
        raise ConvergenceError("carlson_rf: duplication failed to converge")
    t = pow4 / Am
    X = (A0 - x) * t
    Y = (A0 - y) * t
    Z = -X - Y
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    return (9240.0 - 924.0 * E2 + 385.0 * E2 * E2 + 660.0 * E3 - 630.0 * E2 * E3) / (
        9240.0 * math.sqrt(Am)
    )


def carlson_rc(x, y):
    """Degenerate integral R_C(x,y) = R_F(x,y,y), in closed form (DLMF
    19.2.17-19.2.19).

    x >= 0 and y != 0; the Cauchy principal value is returned for y < 0.
    """
    _check_finite("carlson_rc", x, y)
    if x < 0.0:
        raise DomainError("carlson_rc requires x >= 0")
    if y == 0.0:
        raise DomainError("carlson_rc requires y != 0")
    if y < 0.0:
        # principal value (DLMF 19.2.20)
        return math.sqrt(x / (x - y)) * carlson_rc(x - y, -y)
    if x == y:
        return 1.0 / math.sqrt(x)
    sd = math.sqrt(abs(x - y))
    if x < y:
        # acos(sqrt(x/y))/sqrt(y - x)
        return math.atan2(sd, math.sqrt(x)) / sd
    # acosh(sqrt(x/y))/sqrt(x - y) = ln((sqrt(x) + sd)/sqrt(y))/sd, its
    # argument taken as 1 + t/sqrt(y) with t = sqrt(x) + sd - sqrt(y) formed
    # without cancellation; t/sqrt(y) overflows only at a subnormal y
    sy = math.sqrt(y)
    t = sd + (x - y) / (math.sqrt(x) + sy)
    q = t / sy
    return (math.log1p(q) if q < math.inf else math.log(t) - math.log(sy)) / sd


def carlson_rd(x, y, z):
    """Degenerate integral R_D(x,y,z) = R_J(x,y,z,z) (DLMF 19.16.5), taken
    as that R_J; z > 0, at most one of x,y zero."""
    _check_finite("carlson_rd", x, y, z)
    if x < 0.0 or y < 0.0 or z <= 0.0 or x == y == 0.0:
        raise DomainError("carlson_rd requires x, y >= 0, not both zero, and z > 0")
    return carlson_rj(x, y, z, z)


@typed_float_errors
def carlson_rj(x, y, z, p):
    """Symmetric integral R_J(x,y,z,p) = 3/2 * int_0^inf dt / ((t+p) sqrt((t+x)(t+y)(t+z))).

    x, y, z >= 0 with at most one zero; p != 0. For p < 0 the Cauchy
    principal value is computed through the standard reduction to R_C.
    ConvergenceError where the value, or a step on its way, leaves the
    float range.
    """
    _check_finite("carlson_rj", x, y, z, p)
    if x < 0.0 or y < 0.0 or z < 0.0:
        raise DomainError("carlson_rj requires nonnegative x, y, z")
    if (x == 0.0) + (y == 0.0) + (z == 0.0) >= 2:
        raise DomainError("carlson_rj: at most one of x, y, z may be zero")
    if p == 0.0:
        raise DomainError("carlson_rj requires p != 0")
    if p < 0.0:
        # principal value via DLMF 19.20.14 / Carlson (1995) eq. 4.6
        x, y, z = sorted((float(x), float(y), float(z)))
        q = -float(p)
        gamma = y + (z - y) * (y - x) / (y + q)
        num = (
            (gamma - y) * carlson_rj(x, y, z, gamma)
            - 3.0 * carlson_rf(x, y, z)
            + 3.0 * carlson_rc(x * z / y, p * gamma / y)
        )
        return num / (y + q)
    if max(x, y, z, p) < _SCALE_BELOW:
        j = -(math.frexp(max(x, y, z, p))[1] // 2)
        return math.ldexp(carlson_rj(*(math.ldexp(v, 2 * j) for v in (x, y, z, p))), 3 * j)
    xm, ym, zm, pm = float(x), float(y), float(z), float(p)
    A0 = Am = (xm + ym + zm + 2.0 * pm) / 5.0
    delta = (pm - xm) * (pm - ym) * (pm - zm)
    Q = (0.25 * _RF_TOL) ** (-1.0 / 6.0) * max(
        abs(A0 - xm), abs(A0 - ym), abs(A0 - zm), abs(A0 - pm)
    )
    pow4 = 1.0
    acc = 0.0
    for _ in range(_MAX_DUPLICATIONS):
        if pow4 * Q < abs(Am):
            break
        sx, sy, sz, sp = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm), math.sqrt(pm)
        lam = sx * sy + sx * sz + sy * sz
        dm = (sp + sx) * (sp + sy) * (sp + sz)
        em = delta / dm * pow4 ** 3 / dm
        acc += carlson_rc(1.0, 1.0 + em) * pow4 / dm
        xm = (xm + lam) * 0.25
        ym = (ym + lam) * 0.25
        zm = (zm + lam) * 0.25
        pm = (pm + lam) * 0.25
        Am = (Am + lam) * 0.25
        pow4 *= 0.25
    else:
        raise ConvergenceError("carlson_rj: duplication failed to converge")
    t = pow4 / Am
    X = (A0 - x) * t
    Y = (A0 - y) * t
    Z = (A0 - z) * t
    P = (-X - Y - Z) / 2.0
    PP = P * P
    E2 = X * Y + X * Z + Y * Z - 3.0 * PP
    E3 = X * Y * Z + 2.0 * E2 * P + 4.0 * PP * P
    E4 = (2.0 * X * Y * Z + E2 * P + 3.0 * PP * P) * P
    E5 = X * Y * Z * PP
    series = (
        24024.0
        - 5148.0 * E2
        + 2457.0 * E2 * E2
        + 4004.0 * E3
        - 4158.0 * E2 * E3
        - 3276.0 * E4
        + 2772.0 * E5
    ) / 24024.0
    value = pow4 * series / (Am * math.sqrt(Am)) + 6.0 * acc
    if not math.isfinite(value):
        raise ConvergenceError(f"carlson_rj: the value leaves the float range (got {value})")
    return value


def _continued(phi, m, complete, reduced, n=0.0):
    """The continuation shared by F, E and Pi (and hypergeom.di_hyg_dm's
    Pi - F) from their value
    reduced(s, c) at an amplitude phi_r in [-pi/2, pi/2] of sine s and
    cosine c: odd in phi, and f(k*pi + phi_r) = 2k * complete() + f(phi_r),
    with the smaller k where phi is a tie (phi = float(pi)/2 has k = 0).
    DomainError where m*sin^2(phi_r) > 1; then, for Pi's characteristic n,
    SingularityError where n*sin^2 reaches within 1e-12 of 1 on the path.
    """
    if phi == 0.0:
        return 0.0
    if phi < 0.0:
        return -_continued(-phi, m, complete, reduced, n)
    k = math.ceil(phi / math.pi - 0.5)
    phi_r = phi - k * math.pi
    s = math.sin(phi_r)
    if m * s * s > 1.0:
        raise DomainError(f"parameter m = {m} gives m*sin^2(phi) > 1")
    if n * (1.0 if k else s ** 2) >= 1.0 - _PI_SINGULAR_BAND:
        raise SingularityError(f"ellip_pi: characteristic n = {n} is singular on the path")
    shift = 2.0 * k * complete() if k else 0.0
    if phi_r == 0.0:
        return shift
    return shift + reduced(s, math.cos(phi_r))


def ellip_f(phi, m):
    """Incomplete elliptic integral of the first kind F(phi | m); odd in phi."""
    _check_finite("ellip_f", phi, m)
    if m == 0.0 and phi != 0.0:  # at phi = -0.0, _continued returns 0.0
        return float(phi)
    return _continued(phi, m, lambda: comp_k(m),
                      lambda s, c: s * carlson_rf(c * c, 1.0 - m * s * s, 1.0))


def ellip_e(phi, m):
    """Incomplete elliptic integral of the second kind E(phi | m); odd in phi."""
    _check_finite("ellip_e", phi, m)
    if m == 0.0 and phi != 0.0:  # at phi = -0.0, _continued returns 0.0
        return float(phi)

    def reduced(s, c):
        y = 1.0 - m * s * s
        return s * carlson_rf(c * c, y, 1.0) - (m / 3.0) * s ** 3 * carlson_rd(c * c, y, 1.0)

    return _continued(phi, m, lambda: comp_e(m), reduced)


def ellip_pi(n, phi, m):
    """Incomplete elliptic integral of the third kind Pi(n; phi | m); odd in phi.

    Rejects singular characteristics n*sin^2(phi) within 1e-12 of (or past) 1.
    """
    _check_finite("ellip_pi", n, phi, m)
    if n == 0.0:
        return ellip_f(phi, m)

    def reduced(s, c):
        s2 = s * s
        if n < -1.0 and 0.0 <= m <= 1.0:
            # Pi(n) + Pi(q) = F + R_C term, q = m/n (DLMF 19.7.9), with
            # Pi(q) - F in Carlson's form: the form below cancels s R_F against
            # (n/3) s^3 R_J as n -> -inf (1.5e-12 off at n = -1e4, m = 0.991)
            q = m / n
            return (s * carlson_rc(c * c * (1.0 - m * s2), (1.0 - n * s2) * (1.0 - q * s2))
                    - (q / 3.0) * s ** 3 * carlson_rj(c * c, 1.0 - m * s2, 1.0, 1.0 - q * s2))
        return s * carlson_rf(c * c, 1.0 - m * s2, 1.0) + (n / 3.0) * s ** 3 * carlson_rj(
            c * c, 1.0 - m * s2, 1.0, 1.0 - n * s2)

    return _continued(phi, m, lambda: comp_pi(n, m), reduced, n)


def comp_k(m):
    """Complete elliptic integral of the first kind K(m); diverges as m -> 1."""
    if m >= 1.0:
        raise DomainError(f"comp_k diverges for m >= 1 (got m = {m})")
    return cel(math.sqrt(1.0 - m), 1.0, 1.0, 1.0)


def comp_e(m):
    """Complete elliptic integral of the second kind E(m), for m <= 1."""
    if m > 1.0:
        raise DomainError(f"comp_e requires m <= 1 (got m = {m})")
    if m == 1.0:
        return 1.0
    omm = 1.0 - m
    return cel(math.sqrt(omm), 1.0, 1.0, omm)


def comp_pi(n, m):
    """Complete elliptic integral of the third kind Pi(n | m); n < 1, m < 1."""
    if m >= 1.0:
        raise DomainError(f"comp_pi diverges for m >= 1 (got m = {m})")
    if n >= 1.0 - _PI_SINGULAR_BAND:
        raise SingularityError(f"comp_pi diverges as n -> 1 (got n = {n})")
    return cel(math.sqrt(1.0 - m), 1.0 - n, 1.0, 1.0)
