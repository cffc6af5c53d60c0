"""Jacobi amplitude and elliptic functions (descending AGM), the Jacobi zeta
function (summed over the same descent), scaled theta functions (q-series),
and the closed-form integral of Z(u|m) sc(u|m).

The scaled theta functions are Theta_i(u|m) = theta_i(pi*u/(2K(m)), q) with
nome q = exp(-pi K(1-m)/K(m)); in this scaling Z(u|m) = d/du ln Theta_4(u|m).

As in elliptic, every public function raises DomainError for a non-finite
argument; so do jacobi_zeta and those built on the amplitude where |u|
leaves no digit of u mod 2K.
"""

import itertools
import math

from . import elliptic, hypergeom
from .errors import DomainError, SingularityError

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
        # once c is within a rounding of a the next step changes a by no
        # more than that
        if abs(c) <= 2.0 ** -53 * a:
            break
        # c_{k+1} = (a_k - b_k)/2 = c_k^2/(4 a_{k+1}), formed without the
        # cancellation of a_k - b_k at small m
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = c * c / (4.0 * a)
    return chain


def _descent(u, m):
    # (am(u | m), sum_k c_k sin(phi_k)) for m > 0: the descent
    # phi_{k-1} = (phi_k + asin((c_k/a_k) sin(phi_k)))/2 from
    # phi_N = 2^N a_N u down the AGM chain (A&S 16.4), which ends at
    # phi_0 = am(u | m), and over the same phi_k the sum that is Z(u | m)
    # (A&S 17.6), added from the smallest c_k up
    chain = _agm_chain(m)
    n = len(chain) - 1
    if abs(u) * 2.0 ** -52 >= math.pi / (2.0 * chain[n][0]):
        raise DomainError(f"jacobi_am: no digit of u mod 2K is left at u = {u}")
    phi = math.ldexp(chain[n][0] * u, n)
    zeta = 0.0
    for k in range(n, 0, -1):
        a, c = chain[k]
        s = math.sin(phi)
        zeta += c * s
        ratio = max(-1.0, min(1.0, c / a * s))
        phi = 0.5 * (phi + math.asin(ratio))
    return phi, zeta


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
    return _descent(u, m)[0]


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


def _am_off_poles(u, m, K):
    # am(u | m), for finite u and m in [0, 1) with K = K(m); SingularityError
    # within _POLE_GUARD of an odd multiple of K, the poles of sc
    k = math.floor(u / K + 0.5)
    if k % 2 != 0 and abs(u - k * K) < _POLE_GUARD:
        raise SingularityError(f"jacobi_sc: pole at u = {k}*K(m)")
    return jacobi_am(u, m)


def jacobi_sc(u, m):
    """sc(u | m) = sn/cn, with poles at odd multiples of K(m)."""
    _check_u("jacobi_sc", u)
    _check_m(m)
    # K is pi/2 exactly at m = 0, where the poles are odd multiples of pi/2
    return math.tan(_am_off_poles(u, m, elliptic.comp_k(m)))


def jacobi_zeta(u, m):
    """Jacobi zeta function Z(u | m) = E(am(u) | m) - u E(m)/K(m);
    odd in u, periodic with period 2K(m).

    u is first reduced to [-K, K] by whole periods (math.remainder, exact
    for the rounded 2K). The reduced u is then off by about |u| 2^-52, from
    the rounding of u and of K; DomainError where that reaches K, so that
    no digit of u mod 2K is left (|u| >= 8.3e15 at m = 0.5). Z is then the
    sum c_1 sin(phi_1) + ... + c_N sin(phi_N) over the descent that gives
    am(u | m) (A&S 17.6), which has no cancellation near u = 0.
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
    return _descent(math.remainder(u, 2.0 * K), m)[1]


def nome(m):
    """Elliptic nome q = exp(-pi K(1-m)/K(m)) for m in (0, 1)."""
    _check_m(m, allow_zero=False)
    return math.exp(-math.pi * elliptic.comp_k(1.0 - m) / elliptic.comp_k(m))


def theta(i, u, m):
    """Scaled Jacobi theta function Theta_i(u | m), i in 1..4.

    q-series evaluation, summed by hypergeom's series rule at REL_TOL: it
    stops after three consecutive terms within 0.02 REL_TOL of the sum and
    raises ConvergenceError past MAX_TERMS terms.
    """
    if i not in (1, 2, 3, 4):
        raise DomainError("theta index must be 1, 2, 3 or 4")
    _check_m(m, allow_zero=False)
    q = nome(m)
    z = math.pi * u / (2.0 * elliptic.comp_k(m))
    if not math.isfinite(z):  # u is not, or pi u overflows
        raise DomainError(f"theta requires a finite pi u/(2K) (got u = {u})")
    sign = -1.0 if i in (1, 4) else 1.0  # the alternating series
    if i in (1, 2):
        # 2 q^(1/4) sum q^(n(n+1)) {sin, cos}((2n+1) z)
        trig = math.sin if i == 1 else math.cos
        terms = (sign ** n * q ** (n * (n + 1)) * trig((2 * n + 1) * z)
                 for n in itertools.count())
        return 2.0 * q ** 0.25 * hypergeom._series_sum(terms, hypergeom.REL_TOL, "theta series")
    # 1 + 2 sum q^(n^2) cos(2 n z)
    terms = itertools.chain((1.0,), (2.0 * sign ** n * q ** (n * n) * math.cos(2 * n * z)
                                     for n in itertools.count(1)))
    return hypergeom._series_sum(terms, hypergeom.REL_TOL, "theta series")


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
    continuous integral on ((2n-1)K, (2n+1)K). A branch that is not an
    integer raises DomainError. The F2, at the negative argument
    (m-1) sc^2, is appell_f2's Gauss sum of cel, accurate up to m -> 1.
    """
    if not float(branch).is_integer():
        raise DomainError(f"int_z_sc: branch must be an integer (got {branch})")
    _check_m(m, allow_zero=False)
    if u == 0.0 and branch == 0:
        return 0.0
    _check_u("int_z_sc", u)
    K = elliptic.comp_k(m)
    am = _am_off_poles(u, m, K)  # raises at the poles of sc
    sc = math.tan(am)
    f2 = hypergeom.appell_f2(0.5, 0.5, 1.0, 1.0, 1.5, m, (m - 1.0) * sc * sc)
    val = -am + math.pi * sc / (2.0 * K) * f2
    if branch:
        val += branch * zsc_branch_jump(m)
    return val
