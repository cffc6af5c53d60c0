"""The paper's general-theta indefinite integrals, the characteristic pair
n_pm they carry, and the characteristic-pair identity its theta = pi
assemblies use.

The cylinder's triple integral I(r, theta, z) of r/L and its field-line
integral J of -r0 z (r0 + r cos(theta)) r/(L (L^2 - z^2)), and the tube's
double integrals in (theta, z) of 1/L and of the field-line integrand, with
L = sqrt(r^2 + r0^2 + 2 r r0 cos(theta) + z^2); slots (r, z; r0) as in
geometry.aux. The potentials in fields are these integrals at theta = pi,
computed there by cel; here they take any theta, through Carlson's
incomplete integrals, the characteristic pair n_pm and i_hyg. So they are an
independent second route to every end term of fields. No module on the
potentials' path imports this one; verify and the tests do.

The characteristic pair lives here, as functions of an AuxGeometry a with
slots (r, z; r0), since no theta = pi assembly reads it:

    rho = sqrt(r0^2 + z^2),  n_pm = 2 r0 / (r0 +- rho).

n_minus is computed as -2 r0 (r0 + rho)/z/z (exact rearrangement), which
survives the z -> 0 cancellation; it is -inf at z = 0 and where it
overflows (|z| below about 1e-154 r0), and never divides by an underflowed
z^2. The disk's takahashi form in fields forms the same n_minus inline.
"""

import math

from . import elliptic, hypergeom
from .errors import DomainError
from .geometry import aux


def _n_plus(a):
    return 2.0 * a.r0 / (a.r0 + math.hypot(a.r0, a.z)) if a.r0 > 0.0 else 0.0


def _n_minus(a):
    z = a.z
    return -2.0 * a.r0 * (a.r0 + math.hypot(a.r0, z)) / z / z if z else -math.inf


def _bracket(a, sign):
    """1 - (n/2)(1 + r/r0) for n = n_plus (sign=+1) or n_minus (sign=-1),
    in the cancellation-free form (+-rho - r)/(r0 +- rho)."""
    rho = math.hypot(a.r0, a.z)
    if sign > 0:
        # rho - r = (rho^2 - r^2)/(rho + r), rho^2 - r^2 formed from r0 - r:
        # the difference of the rounded rho and r is off by rho's rounding,
        # about 1e-16 rho, which near the rim, rho - r about |z|, is
        # 1e-16/|z| of it
        return ((a.r0 - a.r) * (a.r0 + a.r) + a.z * a.z) / ((rho + a.r) * (a.r0 + rho))
    if a.z == 0.0:
        raise DomainError("bracket(-1) is undefined at z = 0")
    # (-(rho) - r)/(r0 - rho) = (rho + r)(rho + r0)/z^2; dividing by z
    # twice overflows to +inf, the z -> 0 limit, where z * z underflows
    return (rho + a.r) * (rho + a.r0) / a.z / a.z


def _L(a, theta):
    """Distance kernel sqrt(r^2 + r0^2 + 2 r r0 cos(theta) + z^2)."""
    return math.sqrt(a.r ** 2 + a.r0 ** 2 + 2.0 * a.r * a.r0 * math.cos(theta) + a.z ** 2)


def _atan(num, den):
    """atan(num/den), its limit +-pi/2 (or 0) where den = 0."""
    if den != 0.0:
        return math.atan(num / den)
    return math.copysign(math.pi / 2.0, num) if num != 0.0 else 0.0


def _atanh(u, L):
    """atanh(u/L), |u| <= L; 0 where |u| reaches L. L^2 - u^2 vanishes only
    where r0 sin(theta) = 0 and z = 0 (u = r + r0 cos(theta)) or
    r + r0 cos(theta) = 0 (u = z); L = 0 too at r = r0, theta = pi, z = 0.
    Every coefficient of an atanh term carries r0 sin(theta), which vanishes
    there faster than atanh grows, so 0 is the term's limit."""
    return math.atanh(u / L) if abs(u) < L else 0.0


def _incomplete(phi, a, p, b, reduced):
    """An incomplete integral at amplitude phi and parameter a.m:
    reduced(s, c^2, y) at the reduced amplitude of sine s and cosine c,
    y = (1 - m) + m c^2 = 1 - m s^2 from a.one_minus_m, continued by
    elliptic._continued with the complete term cel(kc, p, 1, b),
    kc = sqrt(1 - m). Near the rim (r = r0, z = 0), where m nears 1 and,
    at theta = pi, s too, y keeps the digits that 1 - m s^2 formed from
    the rounded m loses."""
    m, omm = a.m, a.one_minus_m

    def at(s, c):
        c2 = c * c
        return reduced(s, c2, omm + m * c2)

    return elliptic._continued(phi, m, lambda: elliptic.cel(math.sqrt(omm), p, 1.0, b), at)


def _ellip_pi(n, omn, phi, a):
    """Pi(n; phi | a.m) from the exact complement omn = 1 - n, by
    _incomplete: s R_F(c^2, y, 1) + (n/3) s^3 R_J(c^2, y, 1, omn + n c^2).
    Where n nears 1, as n* does near the sheet r = r0 and n_plus near the
    end plane z = 0, the characteristic 1 - n s^2 keeps its digits. For
    n < -1, as n_minus is as z -> 0, elliptic.ellip_pi's DLMF 19.7.9 form,
    which does not cancel s R_F against the R_J term as n -> -inf."""
    m = a.m

    def reduced(s, c2, y):
        if n < -1.0:
            q = m / n
            omq = 1.0 - q * s * s
            return (s * elliptic.carlson_rc(c2 * y, (omn + n * c2) * omq)
                    - (q / 3.0) * s ** 3 * elliptic.carlson_rj(c2, y, 1.0, omq))
        return s * elliptic.carlson_rf(c2, y, 1.0) + (n / 3.0) * s ** 3 * elliptic.carlson_rj(
            c2, y, 1.0, omn + n * c2)

    return _incomplete(phi, a, omn, 1.0, reduced)


def _legendre(a, theta, pair=True):
    """(F, E, p, nsum) at amplitude theta/2 and parameter a.m: the Legendre
    F = s R_F(c^2, y, 1) and E = s R_F(c^2, y, 1) - (m/3) s^3 R_D(c^2, y, 1)
    by _incomplete,
    the n* term p = q Pi(n*), q = (r - r0)/(r + r0),
    n* = 4 r r0/(r+r0)^2 = 1 - q^2, and, if pair, the characteristic sum
    nsum = sum_pm bracket(pm) Pi(n_pm), where 1 - n_plus = (z/(r0 + rho))^2.
    At z = 0, where every coefficient of p and nsum vanishes, both are 0,
    and p is 0 at r = r0."""
    phi, m, r, r0, z = theta / 2.0, a.m, a.r, a.r0, a.z
    F = _incomplete(phi, a, 1.0, 1.0, lambda s, c2, y: s * elliptic.carlson_rf(c2, y, 1.0))
    E = _incomplete(phi, a, 1.0, a.one_minus_m, lambda s, c2, y: (
        s * elliptic.carlson_rf(c2, y, 1.0) - (m / 3.0) * s ** 3 * elliptic.carlson_rd(c2, y, 1.0)))
    if z == 0.0:
        return F, E, 0.0, 0.0
    q = (r - r0) / (r + r0)
    p = q * _ellip_pi(4.0 * r * r0 / (r + r0) ** 2, q * q, phi, a) if r != r0 else 0.0
    n_minus = _n_minus(a)
    nsum = _bracket(a, +1) * _ellip_pi(_n_plus(a), (z / (r0 + math.hypot(r0, z))) ** 2, phi, a) \
        + _bracket(a, -1) * _ellip_pi(n_minus, 1.0 - n_minus, phi, a) if pair else 0.0
    return F, E, p, nsum


def i_cyl_trig(r, theta, z, r0):
    """Elementary part of the cylinder triple indefinite integral."""
    L = _L(aux(r, z, r0), theta)
    st, ct = math.sin(theta), math.cos(theta)
    t1 = -(r0 * r0 * math.sin(2.0 * theta) / 4.0) * _atanh(z, L)
    t2 = -z * r0 * st * _atanh(r + r0 * ct, L)
    t3 = (r0 * r0 * math.cos(2.0 * theta) / 4.0) * _atan(L * r0 * st, z * (r + r0 * ct))
    return t1 + t2 + t3


def i_cyl_ell(r, theta, z, r0):
    """Elliptic part of the cylinder triple indefinite integral."""
    a = aux(r, z, r0)
    if z == 0.0:
        return 0.0
    F, E, p, nsum = _legendre(a, theta)
    t1 = -3.0 * z * (r0 * r0 + z * z) / (4.0 * a.L0) * F
    t2 = 3.0 * z * a.L0 / 4.0 * E
    t3 = z * r * r / (4.0 * a.L0) * p
    t4 = z * (2.0 * z * z - r0 * r0) / (4.0 * a.L0) * nsum
    return t1 + t2 + t3 + t4


def i_cyl_hyg(r, theta, z, r0):
    """Hypergeometric part (r^2/2) I(m, A; theta) of the cylinder integral."""
    return r * r / 2.0 * i_tube(r, theta, z, r0)


def j_cyl_trig(r, theta, z, r0):
    """Elementary part of the cylinder field-line indefinite integral."""
    L = _L(aux(r, z, r0), theta)
    st, ct = math.sin(theta), math.cos(theta)
    t1 = ((3.0 * r0 ** 3 - 4.0 * r0 * z * z) * st - r0 ** 3 * math.sin(3.0 * theta)) / 8.0 \
        * _atanh(r + r0 * ct, L)
    t2 = -(r0 * r0 * z * math.sin(2.0 * theta) / 2.0) * _atanh(z, L)
    t3 = (r0 * r0 * z * math.cos(2.0 * theta) / 2.0) * _atan(L * r0 * st, z * (r + r0 * ct))
    t4 = L * r0 * st * (-r + 3.0 * r0 * ct) / 6.0
    return t1 + t2 + t3 + t4


def j_cyl_ell(r, theta, z, r0):
    """Elliptic part of the cylinder field-line indefinite integral."""
    a = aux(r, z, r0)
    F, E, p, nsum = _legendre(a, theta)
    t1 = a.L0 * (z * z - 2.0 * (r * r + r0 * r0)) / 6.0 * E
    t2 = (2.0 * (r * r - r0 * r0) ** 2 + z * z * (r0 * r0 - 2.0 * r * r - z * z)) \
        / (6.0 * a.L0) * F
    t3 = z * z * r * r / (2.0 * a.L0) * p
    t4 = -r0 * r0 * z * z / (2.0 * a.L0) * nsum
    return t1 + t2 + t3 + t4


def i_tube(r, theta, z, r0):
    """Tube double indefinite integral: I(m, A; theta)."""
    a = aux(r, z, r0)
    if a.A == 0.0:
        return 0.0
    return hypergeom.i_hyg(a.m, a.A, theta)


def j_tube(r, theta, z, r0):
    """Tube field-line indefinite integral."""
    a = aux(r, z, r0)
    F, E, p, _ = _legendre(a, theta, pair=False)
    return (r * r - r0 * r0) / a.L0 * F - a.L0 * E + z * z / a.L0 * p


def pi_identity_residual(r, r0, z):
    """Absolute residual of the complete-integral characteristic identity

        sum_a [1 - (n_a/2)(1 + r/r0)] Pi(n_a | m)
            = K(m) + ((r-r0)/(r+r0)) Pi(4 r r0/(r+r0)^2 | m)
              + (pi L0/|z|) H(r0 - r),

    with both sides evaluated independently. Requires z != 0 and r != r0."""
    if z == 0.0:
        raise DomainError("pi_identity_residual requires z != 0")
    if r == r0:
        raise DomainError("pi_identity_residual requires r != r0")
    a = aux(r, z, r0)
    lhs = _bracket(a, +1) * elliptic.comp_pi(_n_plus(a), a.m) \
        + _bracket(a, -1) * elliptic.comp_pi(_n_minus(a), a.m)
    rhs = elliptic.comp_k(a.m) \
        + (r - r0) / (r + r0) * elliptic.comp_pi(4.0 * r * r0 / (r + r0) ** 2, a.m) \
        + math.pi * a.L0 / abs(z) * (1.0 if r0 > r else 0.0)
    return abs(lhs - rhs)
