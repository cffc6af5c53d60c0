"""Independent 30-digit references for phi and psi of the figure bodies.

Every value comes from mpmath quadrature of a defining integral, never from
appellfield's closed forms:

* tube phi: the ring kernel with its z' integral done exactly,
  phi = 2 sigma R int_0^pi [asinh((z+Z)/D) - asinh((z-Z)/D)] dtheta,
  D^2 = (r-R)^2 + 4 r R sin^2(theta/2). The same value as the ring-kernel
  quadrature int 4K(m)/L0 dz' (``ring_kernel_tube_phi``), at about a tenth
  of the cost.
* cylinder and disk phi: the volume (area) integral in polar coordinates
  centred on the observation point, where the z' and radial integrals are
  elementary, leaving one integral over the polar angle.
* psi: psi(r, z) = sgn(z) [Q + r int_|z|^inf phi_r(r, z') dz'], the vertical
  path from (r, |z|) to +infinity being free of charge at every valid point;
  the z' integrals are again exact, leaving one angular integral. This fixes
  the branch-0 convention psi -> Q z / sqrt(r^2+z^2).

On the axis the integrands are constant and the exact on-axis closed forms
fall out without quadrature. Run as a script, this module computes the
reference table for one seed and stores it in the cache.
"""

import argparse
import concurrent.futures
import json
import multiprocessing
import os
import sys

import mpmath as mp

import points

DPS = 30
# a quadrature whose own error estimate exceeds this share of its value is
# retried with more levels, and rejected if it stays above
QUAD_REL = 1e-16
WORKERS = 2  # the machine's cores; tables are computed before any timing


def _quad(f, intervals):
    for maxdegree in (8, 11):
        val, err = mp.quad(f, intervals, error=True, maxdegree=maxdegree)
        if err <= QUAD_REL * max(abs(val), mp.mpf(1e-30)):
            return val
    raise ArithmeticError(f"reference quadrature did not converge ({err} on {val})")


def _lminus(D, c):
    """sqrt(D^2 + c^2) - c without cancellation."""
    root = mp.sqrt(D * D + c * c)
    return D * D / (root + c) if c > 0 else root - c


def _polar_limits(r, R):
    """Ray limits (Dmin, Dmax) through the disk of radius R from the point at
    radius r, as a function of the ray angle, and the angle intervals (over
    [0, pi]; the other half is the mirror image) where the ray meets it."""
    if r < R:
        def lims(al):
            c = mp.cos(al)
            return mp.mpf(0), -r * c + mp.sqrt((R - r) * (R + r) + r * r * c * c)
        return lims, [0, mp.pi / 2, mp.pi]

    def lims(al):
        c = mp.cos(al)
        q = mp.sqrt(max((R - r) * (R + r) + r * r * c * c, 0))
        return -r * c - q, -r * c + q
    return lims, [mp.pi - mp.asin(R / r), mp.pi]


def tube(r, z, R, Z, sigma):
    """(phi, psi) of the tube at (r, z), psi on branch 0; psi is None on the
    open charged sheet."""
    r, z = mp.mpf(r), mp.mpf(z)
    R, Z, sigma = mp.mpf(R), mp.mpf(Z), mp.mpf(sigma)
    az = abs(z)
    Q = 4 * mp.pi * R * Z * sigma

    def G(D):
        return mp.asinh((z + Z) / D) - mp.asinh((z - Z) / D)

    def B(D):
        # 2Z - sqrt(D^2+(|z|+Z)^2) + sqrt(D^2+(|z|-Z)^2)
        return 2 * Z - (_lminus(D, az + Z) + az + Z) + (_lminus(D, az - Z) + az - Z)

    if r == 0:
        return 2 * mp.pi * sigma * R * G(R), mp.sign(z) * Q

    def dist(th):
        s = mp.sin(th / 2)
        return mp.sqrt((r - R) ** 2 + 4 * r * R * s * s), s

    def f_phi(th):
        return G(dist(th)[0])

    def f_psi(th):
        D, s = dist(th)
        return ((r - R) + 2 * R * s * s) / (D * D) * B(D)

    phi = 2 * sigma * R * _quad(f_phi, [0, mp.pi])
    if r == R and az < Z:
        return phi, None
    P = -2 * sigma * R * _quad(f_psi, [0, mp.pi])
    return phi, mp.sign(z) * (Q + r * P)


def cylinder(r, z, R, Z, rho):
    """(phi, psi) of the solid cylinder; psi is None inside the closed body."""
    r, z = mp.mpf(r), mp.mpf(z)
    R, Z, rho = mp.mpf(R), mp.mpf(Z), mp.mpf(rho)
    az = abs(z)
    Q = 2 * mp.pi * R * R * Z * rho

    def H(D, c):
        # int asinh(c/D) D dD
        if D == 0:
            return c * abs(c) / 2
        return D * D / 2 * mp.asinh(c / D) + c / 2 * mp.sqrt(D * D + c * c)

    def M(D, c):
        # int sqrt(D^2 + c^2) dD
        if c == 0:
            return D * D / 2
        return (D * mp.sqrt(D * D + c * c) + c * c * mp.asinh(D / abs(c))) / 2

    def W(D):
        return H(D, z + Z) - H(D, z - Z)

    def N(D):
        return 2 * Z * D - M(D, az + Z) + M(D, az - Z)

    inside = r <= R and az <= Z
    if r == 0:
        return 2 * mp.pi * rho * (W(R) - W(0)), None if inside else mp.sign(z) * Q
    lims, ivs = _polar_limits(r, R)

    def f_phi(al):
        lo, hi = lims(al)
        return W(hi) - W(lo)

    def f_psi(al):
        lo, hi = lims(al)
        return mp.cos(al) * (N(hi) - N(lo))

    phi = 2 * rho * _quad(f_phi, ivs)
    if inside:
        return phi, None
    return phi, mp.sign(z) * (Q + r * 2 * rho * _quad(f_psi, ivs))


def disk(r, z, R, sigma):
    """phi of the disk in the z = 0 plane."""
    r, z = mp.mpf(r), mp.mpf(z)
    R, sigma = mp.mpf(R), mp.mpf(sigma)

    def S(D):
        return mp.sqrt(D * D + z * z)

    if r == 0:
        return 2 * mp.pi * sigma * (S(R) - abs(z))
    lims, ivs = _polar_limits(r, R)

    def f(al):
        lo, hi = lims(al)
        return S(hi) - S(lo)

    return 2 * sigma * _quad(f, ivs)


def ring_kernel_tube_phi(r, z, R, Z, sigma):
    """Tube phi as the ring-kernel quadrature sigma R int 4K(m)/L0 dz', split
    at z' = z; a cross-check of ``tube`` (slow: 0.1-4 s per point)."""
    r, z = mp.mpf(r), mp.mpf(z)
    R, Z, sigma = mp.mpf(R), mp.mpf(Z), mp.mpf(sigma)

    def f(zp):
        u = z - zp
        L02 = (r + R) ** 2 + u * u
        return 4 * mp.elliprf(0, ((r - R) ** 2 + u * u) / L02, 1) / mp.sqrt(L02)

    cuts = [-Z, z, Z] if -Z < z < Z else [-Z, Z]
    return sigma * R * _quad(f, cuts)


def reference(body, r, z):
    """{"phi": float|None, "psi": float|None} for one figure body."""
    with mp.workdps(DPS):
        if body == "cyl":
            phi, psi = cylinder(r, z, points.R, points.Z, points.DENSITY)
        elif body == "tube":
            phi, psi = tube(r, z, points.R, points.Z, points.DENSITY)
        else:
            phi, psi = disk(r, z, points.R, points.DENSITY), None
    return {"phi": float(phi), "psi": None if psi is None else float(psi)}


KINDS = {"probe": lambda seed: [(b, r, z) for b, _, r, z in points.probe_points(seed)],
         "grid": points.grid_sample}


def table(kind, seed):
    """Reference values for the distinct points of one kind ('probe' or
    'grid') and seed, keyed by points.key(body, r, z)."""
    todo = {}
    for body, r, z in KINDS[kind](seed):
        if points.expect(body, r, z, "phi") != "singular":
            todo.setdefault(points.key(body, r, z), (body, r, z))
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(WORKERS, mp_context=ctx) as pool:
        values = list(pool.map(_reference_star, todo.values(), chunksize=4))
    return dict(zip(todo, values))


def _reference_star(args):
    return reference(*args)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--kind", choices=sorted(KINDS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    data = {"kind": args.kind, "seed": args.seed, "dps": DPS,
            "values": table(args.kind, args.seed)}
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(data, fh, sort_keys=True, indent=0)
        fh.write("\n")
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
