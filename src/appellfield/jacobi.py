"""Jacobi amplitude and elliptic functions (descending AGM), the Jacobi zeta
function, scaled theta functions (q-series), and the closed-form integral of
Z(u|m) sc(u|m).

The scaled theta functions are Theta_i(u|m) = theta_i(pi*u/(2K(m)), q) with
nome q = exp(-pi K(1-m)/K(m)); in this scaling Z(u|m) = d/du ln Theta_4(u|m).

As in elliptic, every public function raises DomainError for a non-finite
argument; so do jacobi_zeta and those built on the amplitude where |u|
leaves no digit of u mod 2K.
"""

import math

from . import elliptic, hypergeom
from .errors import ConvergenceError, DomainError, SingularityError

_POLE_GUARD = 1e-12


def _check_m(m, allow_zero=True):
    lo_ok = (m >= 0.0) if allow_zero else (m > 0.0)
    if not (lo_ok and m < 1.0):
        raise DomainError(f"parameter m = {m} outside the supported range")


def _check_u(name, u):
    if not math.isfinite(u):
        raise DomainError(f"{name} requires a finite u (got {u})")


def _agm_chain(m):
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    chain = []
    for _ in range(64):
        chain.append((a, c))
        # c is half the difference of a and b; once it is within a rounding
        # of a (at m = 0.5 it stalls at half an ulp, never reaching 1e-17 a)
        # the next step changes a by no more than that
        if abs(c) <= 2.0 ** -53 * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
    return chain


def jacobi_am(u, m):
    """Jacobi amplitude am(u | m), continuous and increasing in u;
    am(u + 2K | m) = am(u | m) + pi.

    The amplitude is off by about |u| 2^-52, from the rounding of a_N u;
    DomainError where that reaches K = pi/(2 a_N), a_N the last mean of the
    AGM chain, so that no digit of u mod 2K is left (|u| >= 8.3e15 at
    m = 0.5), as in jacobi_zeta. sn, cn, dn, sc and int_z_sc inherit it.
    """
    _check_u("jacobi_am", u)
    _check_m(m)
    if m == 0.0:
        return float(u)
    chain = _agm_chain(m)
    n = len(chain) - 1
    if abs(u) * 2.0 ** -52 >= math.pi / (2.0 * chain[n][0]):
        raise DomainError(f"jacobi_am: no digit of u mod 2K is left at u = {u}")
    phi = math.ldexp(chain[n][0] * u, n)
    for k in range(n, 0, -1):
        a, c = chain[k]
        ratio = max(-1.0, min(1.0, c / a * math.sin(phi)))
        phi = 0.5 * (phi + math.asin(ratio))
    return phi


def jacobi_sn(u, m):
    """sn(u | m) = sin(am(u | m))."""
    return math.sin(jacobi_am(u, m))


def jacobi_cn(u, m):
    """cn(u | m) = cos(am(u | m))."""
    return math.cos(jacobi_am(u, m))


def jacobi_dn(u, m):
    """dn(u | m) = sqrt(1 - m sn^2); positive for real u and m in [0, 1)."""
    sn = jacobi_sn(u, m)
    return math.sqrt(1.0 - m * sn * sn)


def jacobi_sc(u, m):
    """sc(u | m) = sn/cn, with poles at odd multiples of K(m)."""
    _check_u("jacobi_sc", u)
    _check_m(m)
    if m > 0.0:
        K = elliptic.comp_k(m)
        k = math.floor(u / K + 0.5)
        if k % 2 != 0 and abs(u - k * K) < _POLE_GUARD:
            raise SingularityError(f"jacobi_sc: pole at u = {k}*K(m)")
    else:
        k = math.floor(u / math.pi + 0.5)
        if abs(u - (k + 0.5) * math.pi) < _POLE_GUARD or abs(u - (k - 0.5) * math.pi) < _POLE_GUARD:
            raise SingularityError("jacobi_sc: pole at odd multiple of pi/2")
    phi = jacobi_am(u, m)
    return math.tan(phi)


def jacobi_zeta(u, m):
    """Jacobi zeta function Z(u | m) = E(am(u) | m) - u E(m)/K(m);
    odd in u, periodic with period 2K(m).

    u is first reduced to [-K, K] by whole periods (math.remainder, exact
    for the rounded 2K). The reduced u is then off by about |u| 2^-52, from
    the rounding of u and of K; DomainError where that reaches K, so that
    no digit of u mod 2K is left (|u| >= 8.3e15 at m = 0.5).
    """
    _check_u("jacobi_zeta", u)
    _check_m(m)
    if m == 0.0:
        return 0.0
    if u == 0.0:
        return 0.0
    K = elliptic.comp_k(m)
    if abs(u) * 2.0 ** -52 >= K:
        raise DomainError(f"jacobi_zeta: no digit of u mod 2K is left at u = {u}")
    u = math.remainder(u, 2.0 * K)
    phi = jacobi_am(u, m)
    return elliptic.ellip_e(phi, m) - u * elliptic.comp_e(m) / K


def nome(m):
    """Elliptic nome q = exp(-pi K(1-m)/K(m)) for m in (0, 1)."""
    _check_m(m, allow_zero=False)
    return math.exp(-math.pi * elliptic.comp_k(1.0 - m) / elliptic.comp_k(m))


def theta(i, u, m):
    """Scaled Jacobi theta function Theta_i(u | m), i in 1..4.

    q-series evaluation, stopped once the terms fall below hypergeom.REL_TOL
    relative to the sum; raises ConvergenceError if hypergeom.MAX_TERMS
    terms do not get there.
    """
    if i not in (1, 2, 3, 4):
        raise DomainError("theta index must be 1, 2, 3 or 4")
    _check_m(m, allow_zero=False)
    q = nome(m)
    z = math.pi * u / (2.0 * elliptic.comp_k(m))
    if not math.isfinite(z):  # u is not, or pi u overflows
        raise DomainError(f"theta requires a finite pi u/(2K) (got u = {u})")
    if i in (1, 2):
        # 2 q^(1/4) sum q^(n(n+1)) {sin, cos}((2n+1) z), alternating for theta_1
        total = 0.0
        qpow = 1.0  # q^(n(n+1))
        for n in range(hypergeom.MAX_TERMS):
            trig = math.sin((2 * n + 1) * z) if i == 1 else math.cos((2 * n + 1) * z)
            sign = -1.0 if (i == 1 and n % 2 == 1) else 1.0
            total += sign * qpow * trig
            if qpow <= hypergeom.REL_TOL * max(abs(total), 1e-30) and n >= 1:
                return 2.0 * q ** 0.25 * total
            qpow *= q ** (2 * (n + 1))
        raise ConvergenceError("theta series did not converge (m too close to 1?)")
    total = 1.0
    for n in range(1, hypergeom.MAX_TERMS):
        qpow = q ** (n * n)
        sign = -1.0 if (i == 4 and n % 2 == 1) else 1.0
        total += 2.0 * sign * qpow * math.cos(2 * n * z)
        if qpow <= hypergeom.REL_TOL * max(abs(total), 1e-30) and n >= 2:
            return total
    raise ConvergenceError("theta series did not converge (m too close to 1?)")


def zsc_branch_jump(m):
    """Jump of the closed form of int Z sc across odd multiples of K(m):
    pi^2 / (2 K(m) sqrt(1-m))."""
    _check_m(m, allow_zero=False)
    return math.pi ** 2 / (2.0 * elliptic.comp_k(m) * math.sqrt(1.0 - m))


def int_z_sc(u, m, branch=0):
    """Closed form of int_0^u Z(t|m) sc(t|m) dt:

        -am(u|m) + (pi sc(u|m) / 2K(m)) F2(1/2; 1/2, 1; 1, 3/2; m, (m-1) sc^2(u|m))
        + branch * pi^2/(2 K(m) sqrt(1-m)).

    The branch-0 form equals the integral on -K < u < K and jumps by the
    branch increment across every odd multiple of K; branch n recovers the
    continuous integral on ((2n-1)K, (2n+1)K).
    """
    _check_m(m, allow_zero=False)
    if u == 0.0 and branch == 0:
        return 0.0
    sc = jacobi_sc(u, m)  # raises at poles
    am = jacobi_am(u, m)
    K = elliptic.comp_k(m)
    f2 = hypergeom.appell_f2(0.5, 0.5, 1.0, 1.0, 1.5, m, (m - 1.0) * sc * sc)
    val = -am + math.pi * sc / (2.0 * K) * f2
    if branch:
        val += branch * zsc_branch_jump(m)
    return val
