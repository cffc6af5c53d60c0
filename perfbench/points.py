"""Seeded inputs of the benchmark: probe points, the figure grids and the grid
rows checked against references, and the outcome each point must have.

Bodies are the figure bodies (R = 1, Z = 0.7, unit density). Probe points
come in fixed shares per regime and are drawn by Latin-hypercube sampling, so
the route mix, and with it the cost of a pass, changes little from seed to
seed while every point still moves.
"""

import math

import numpy as np

R = 1.0
Z = 0.7
DENSITY = 1.0
Q = {"cyl": 2.0 * math.pi * R * R * Z * DENSITY,
     "tube": 4.0 * math.pi * R * Z * DENSITY,
     "disk": math.pi * R * R * DENSITY}

# documented singular sets of appellfield.fields: the cylinder edge circle
# and the disk edge are excluded within 1e-9 R, the open tube sheet within
# 1e-12 R
EDGE_BAND = 1e-9
SHEET_BAND = 1e-12

# points per regime and body: figure window, near a charged surface, on the
# axis, far off the axis, on an excluded set
REGIMES = ("window", "surface", "axis", "far", "excluded")
COUNTS = {
    "cyl": (40, 40, 28, 16, 4),
    "tube": (48, 48, 40, 20, 4),
    "disk": (36, 36, 16, 12, 4),
}
DELTA_RANGE = (-12.0, -2.0)   # log10 of the distance to a charged surface
AXIS_RANGE = (-3.0, 6.0)      # log10 |z| on the axis
FAR_RANGE = (1.0, 4.0)        # log10 of the distance from the centre

# the ROADMAP figure grids at baseline size
GRID = {"r_min": 0.0, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0, "nr": 31, "nz": 61}
GRID_SHEETS = {"cyl": (0,), "tube": (-1, 0, 1)}
GRID_SAMPLE = 12  # (r, z) points per grid checked against references


def key(body, r, z):
    return f"{body}:{r!r}:{z!r}"


def expect(body, r, z, quantity):
    """'value', 'none' (psi inside the charge) or 'singular' (a typed
    SingularityError, or an empty grid cell)."""
    if body == "cyl":
        if abs(r - R) < EDGE_BAND * R and abs(abs(z) - Z) < EDGE_BAND * R:
            return "singular"
        if quantity == "psi" and r <= R and abs(z) <= Z:
            return "none"
        return "value"
    if body == "tube":
        if quantity == "psi" and abs(r - R) < SHEET_BAND * R and abs(z) < Z:
            return "singular"
        return "value"
    if math.hypot(r - R, z) < EDGE_BAND * R:
        return "singular"
    return "value"


def _lhs(rng, n, dims):
    """n Latin-hypercube samples in [0, 1)^dims; column 0 is in stratum order."""
    u = (np.arange(n)[:, None] + rng.random((n, dims))) / n
    for d in range(1, dims):
        u[:, d] = rng.permutation(u[:, d])
    return u


def _log_uniform(u, lo, hi):
    return 10.0 ** (lo + (hi - lo) * u)


def _alternating(n):
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def _surface_points(body, n, rng):
    # four equal groups, each Latin-hypercube stratified in delta on its own:
    # just inside and just outside the side r = R, and the end faces
    # |z| = Z (cylinder, tube) or z = 0 (disk) from either side
    out = []
    for k, (side, sign) in enumerate(((True, -1.0), (True, 1.0), (False, -1.0), (False, 1.0))):
        m = n // 4 + (k < n % 4)
        u = _lhs(rng, m, 2)
        delta = _log_uniform(u[:, 0], *DELTA_RANGE)
        if side:
            r = R + sign * delta
            z = (2.0 * u[:, 1] - 1.0) * Z
        elif body == "disk":
            r = 1.5 * R * u[:, 1]
            z = sign * delta
        else:
            r = 1.5 * R * u[:, 1]
            z = _alternating(m) * (Z + sign * delta)
        out += zip(r, z)
    return out


def _regime_points(body, regime, n, rng):
    if regime == "surface":
        pts = _surface_points(body, n, rng)
    else:
        u = _lhs(rng, n, 2)
        if regime == "window":
            r = GRID["r_max"] * u[:, 0]
            z = GRID["z_min"] + (GRID["z_max"] - GRID["z_min"]) * u[:, 1]
        elif regime == "axis":
            r = np.zeros(n)
            z = _alternating(n) * _log_uniform(u[:, 0], *AXIS_RANGE)
        elif regime == "far":
            dist = _log_uniform(u[:, 0], *FAR_RANGE)
            polar = math.pi * (0.05 + 0.9 * u[:, 1])
            r = dist * np.sin(polar)
            z = dist * np.cos(polar)
        elif body == "cyl":    # on the edge circle
            r, z = np.full(n, R), _alternating(n) * Z
        elif body == "tube":   # on the open sheet
            r, z = np.full(n, R), (2.0 * u[:, 1] - 1.0) * Z
        else:                  # on the disk edge
            r, z = np.full(n, R), np.zeros(n)
        pts = zip(r, z)
    return [(float(a), float(b)) for a, b in pts]


def probe_points(seed):
    """[(body, regime, r, z)] for the probe-points workload."""
    out = []
    for bi, body in enumerate(COUNTS):
        for ri, (regime, n) in enumerate(zip(REGIMES, COUNTS[body])):
            rng = np.random.default_rng([seed, bi, ri])
            out += [(body, regime, r, z) for r, z in _regime_points(body, regime, n, rng)]
    return out


def grid_axes():
    rs = np.linspace(GRID["r_min"], GRID["r_max"], GRID["nr"])
    zs = np.linspace(GRID["z_min"], GRID["z_max"], GRID["nz"])
    return [float(r) for r in rs], [float(z) for z in zs]


def grid_sample(seed):
    """[(body, r, z)]: the grid points of this seed checked against references."""
    rs, zs = grid_axes()
    out = []
    for bi, body in enumerate(GRID_SHEETS):
        rng = np.random.default_rng([seed, 100 + bi])
        for i in rng.choice(len(rs) * len(zs), size=GRID_SAMPLE, replace=False):
            out.append((body, rs[i // len(zs)], zs[i % len(zs)]))
    return out

