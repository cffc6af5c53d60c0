"""Closed-form electric potentials phi and field-line potentials psi for
uniformly charged cylinders, tubes, disks, and on-axis point charges.

Conventions: units with 4*pi*eps0 = 1; observation points are (r, z) in
cylindrical coordinates; Heaviside H(0) = 1/2 and sgn(0) = 0, the symmetric
choices matching the continuity of phi across the charged surfaces. The
field-line potential psi is conjugate to phi through psi_r = r phi_z,
psi_z = -r phi_r, is defined only outside charged regions, and for the tube
is multivalued with branch increment 8 pi R Z sigma0.

Every potential is a sum of end terms: the paper's general-theta indefinite
integrals (module indefinite) taken at theta = pi, where they reduce to
complete integrals, here computed by cel and I(m, A; pi).
"""

import itertools
import math

from . import elliptic, hypergeom
from .errors import ConvergenceError, DomainError, SingularityError
from .geometry import AuxGeometry, CylinderSpec, DiskSpec, TubeSpec, aux

_EDGE_BAND = 1e-9  # exclusion radius around the cylinder and disk edges, in units of R


def heaviside(x):
    """Heaviside step with the symmetric convention H(0) = 1/2."""
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return 0.0
    return 0.5


def _sgn(x):
    return math.copysign(1.0, x) if x != 0.0 else 0.0


# ---------------------------------------------------------------------------
# theta = pi building blocks (complete integrals, singular limits resolved)

def _cels(omm, ca, cb, p, b):
    """(cel(kc, 1, ca, cb), cel(kc, p, 0, b)) at kc = sqrt(omm), by one
    elliptic.cel_pair. The first is k K(m) + e E(m) for ca = k + e and
    cb = k + e (1 - m), the coefficients of cos^2 and sin^2 in its
    integrand; callers form ca and cb in closed form, so the cancellation
    of k K against e E (to 0 on the axis, where K = E) never happens in
    rounded arithmetic. Where p = 0 (r = r0, where b = 0 too) the second is
    0 and the first its own cel call, or, at the rim omm = 0, where K
    diverges, ca: cb, its coefficient, vanishes there for every caller."""
    if p == 0.0:
        return (ca if omm == 0.0 else elliptic.cel(math.sqrt(omm), 1.0, ca, cb)), 0.0
    return elliptic.cel_pair(math.sqrt(omm), 1.0, ca, cb, p, 0.0, b)


def _cels_arrays(omm, ca, cb, p, b):
    """_cels over arrays, by elliptic.cel_array, bit for bit."""
    import numpy as np
    ke, pk = elliptic.cel_array(np.sqrt(omm), np.stack((np.ones_like(p), p)),
                                np.stack((ca, np.zeros_like(ca))), np.stack((cb, b)))
    return np.where(omm == 0.0, ca, ke), np.where(p == 0.0, 0.0, pk)


def _ke_sum_and_pi_star(a: AuxGeometry, ca, cb, cels=_cels):
    """(k K(m) + e E(m), (r - r0) (Pi(n* | m) - K(m))), n* = 4 r r0/(r+r0)^2,
    both from one run of the AGM (elliptic.cel_pair), each bit for bit its
    own cel call. At r = r0 the second is 0 exactly (the symmetric mean of
    its one-sided limits sgn(r-r0) (pi/2)(r+r0) L0/|z|) and the first is
    its own cel call, or ca at the rim. Pi - K = cel(kc, 1 - n*, 0, n*),
    and cel, linear in its last two arguments, takes the factor r - r0
    there; both complements are exact: kc^2 = 1 - m from aux and
    1 - n* = ((r-r0)/(r+r0))^2 here. cel needs no special case for a small
    1 - n*, so the product is accurate all the way to r -> r0, where it
    tends to its limit.

    The arithmetic runs on the floats of one aux record, and on arrays for
    the grid's end tables: ``cels`` is _cels on floats and _cels_arrays on
    arrays, and it takes the limits r = r0 and 1 - m = 0."""
    r, r0 = a.r, a.r0
    dr, s = r - r0, r + r0
    return cels(a.one_minus_m, ca, cb, (dr / s) ** 2, dr * 4.0 * r * r0 / (s * s))


# Each assembly below is k K + e E + c (r - r0) Pi* + (elementary), with
# Pi* = Pi(n* | m). It is evaluated as k' K + e E + c (r - r0)(Pi* - K),
# k' = k + c (r - r0): one _ke_sum_and_pi_star, whose arguments k' + e
# and k' + e (1 - m) are reduced to closed forms with
# L0^2 = (r + r0)^2 + z^2, and which runs one AGM for both complete
# integrals. The cylinder forms have used the
# characteristic-sum identity of indefinite.pi_identity_residual on their
# n_pm pair; its (pi L0/|z|) H(r0 - r) piece is their elementary last term.
# Each equals its general-theta twin of module indefinite at theta = pi.
# Like _ke_sum_and_pi_star, each runs on floats and, given cels, on arrays;
# the factors sgn(z) and h = H(r0 - r) come from the caller.

def _i_cyl_ell_pi(a: AuxGeometry, sgn, h, cels=_cels):
    """Elliptic part of the cylinder's theta = pi integral:
    k = -z (4 r0^2 + z^2)/(4 L0), e = 3 z L0/4,
    c = z (r^2 - r0^2 + 2 z^2)/(4 L0 (r + r0)). It is 0 at z = 0, where
    the caller takes 0.0."""
    z, r, r0, L0 = a.z, a.r, a.r0, a.L0
    s = r + r0
    ke, pk = _ke_sum_and_pi_star(a, s * s + z * z, (r - 2.0 * r0) * s + z * z, cels)
    out = z * r / (L0 * s) * ke
    out += z * (r * r - r0 * r0 + 2.0 * z * z) / (4.0 * L0 * s) * pk
    out += sgn * math.pi * (2.0 * z * z - r0 * r0) / 4.0 * h
    return out


def _j_cyl_ell_pi(a: AuxGeometry, h, cels=_cels):
    """Elliptic part of the cylinder's field-line integral at theta = pi:
    k = (2 (r^2 - r0^2)^2 + z^2 (r0^2 - 2 r^2 - z^2))/(6 L0) - r0^2 z^2/(2 L0),
    e = L0 (z^2 - 2 (r^2 + r0^2))/6, c = z^2 (r - r0)/(2 L0). On the axis
    (r0 = 0) the value is exactly 0."""
    z, r, r0, L0 = a.z, a.r, a.r0, a.L0
    s = r + r0
    ke, pk = _ke_sum_and_pi_star(a, -(s * s + z * z), (r - r0) ** 2 - 2.0 * z * z, cels)
    out = 2.0 * r * r0 / (3.0 * L0) * ke
    out += z * z * (r - r0) / (2.0 * L0) * pk
    out -= math.pi * r0 * r0 * abs(z) / 2.0 * h
    return out


def _j_tube_pi(a: AuxGeometry, cels=_cels):
    """The tube's field-line integral at theta = pi: k = (r^2 - r0^2)/L0,
    e = -L0, c = z^2/(L0 (r + r0)). On the axis (r0 = 0) the value is
    exactly 0."""
    z, r, r0, L0 = a.z, a.r, a.r0, a.L0
    s = r + r0
    ke, pk = _ke_sum_and_pi_star(a, -(s * s + z * z), (r - r0) * s - z * z, cels)
    out = 2.0 * r0 / (s * L0) * ke
    out += z * z / (L0 * s) * pk
    return out


# ---------------------------------------------------------------------------
# potentials

def _check_point(point):
    r, z = float(point[0]), float(point[1])
    if not (math.isfinite(r) and math.isfinite(z)) or r < 0.0:
        raise DomainError(f"observation point must have finite r >= 0, z (got {point})")
    return r, z


def _check_cyl_point(point, spec: CylinderSpec):
    r, z = _check_point(point)
    R, Z = spec.R, spec.Z
    if abs(r - R) < _EDGE_BAND * R and abs(abs(z) - Z) < _EDGE_BAND * R:
        raise SingularityError("cylinder: edge circle (r, |z|) = (R, Z) is excluded")
    return r, z


# Each potential below is a difference of two end terms, taken at the
# offsets zeta = +-Z - z of the body's ends from the observation point. An
# end term depends on (R, r, zeta) alone, and it is exactly odd in zeta
# (_hyg_end, _cyl_ell_end: A = zeta/L0 changes sign, while m, gap and
# 1 - m do not) or exactly even (_psi_cyl_end, _psi_tube_end). Calls given a
# table ``ends`` read each end term from it, filling it where it lacks the
# value at |zeta|: on a grid column (fixed r) the offsets repeat, and every
# value stays what the call without the table returns. _hyg_end,
# I(m, A; pi), is the tube's phi end term and the hypergeometric part of the
# cylinder's; phi_end_tables fills every kind for a whole grid at once.

def _hyg_end(R, r, zeta):
    a = aux(R, zeta, r)
    return hypergeom.i_hyg_pi(a.m, a.A, a.gap)


def _cyl_ell_end(R, r, zeta):
    a = aux(R, zeta, r)
    return 0.0 if zeta == 0.0 else _i_cyl_ell_pi(a, _sgn(zeta), heaviside(r - R))


def _psi_cyl_end(R, r, zeta):
    return _j_cyl_ell_pi(aux(R, zeta, r), heaviside(r - R))


def _psi_tube_end(R, r, zeta):
    return _j_tube_pi(aux(R, zeta, r))


_ODD_ENDS = (_hyg_end, _cyl_ell_end)

# the end kinds each potential reads, by body and quantity
_END_KINDS = {(CylinderSpec, "phi"): (_hyg_end, _cyl_ell_end),
              (CylinderSpec, "psi"): (_psi_cyl_end,),
              (TubeSpec, "phi"): (_hyg_end,),
              (TubeSpec, "psi"): (_psi_tube_end,)}


def _end_from(ends, end, R, r, zeta):
    """end(R, r, zeta): without a table (ends is None) computed, else read
    from the table ends under (end, R, r, |zeta|) and written there on a
    miss."""
    if ends is None:
        return end(R, r, zeta)
    key = (end, R, r, abs(zeta))
    value = ends.get(key)
    if value is None:
        value = ends[key] = end(R, r, abs(zeta))
    return -value if zeta < 0.0 and end in _ODD_ENDS else value


def phi_end_tables(spec, rs, zs, quantity):
    """The end-term tables of a grid rs x zs over spec (a CylinderSpec or
    TubeSpec), one per column r of rs and in their order, for the ``ends``
    of its calls of ``quantity`` ('phi', 'psi' or 'both'). Each holds
    every end term of the kinds that quantity reads, at the column's
    offsets +-Z - z, all columns' computed before the first table is
    yielded, as arrays, bit for bit the scalar end terms: I(m, A; pi) by
    one hypergeom.i_hyg_pi_batch call, the elliptic end terms by one
    evaluation of their assembly over arrays (_cels_arrays). A term the
    arrays do not give is absent (the batch leaves the boundary route, the
    zeros and the errors to i_hyg_pi, and an end term whose scalar call
    raises or is not finite is left out), and the calls compute it on a
    miss as they would without a table."""
    R, Z = spec.R, spec.Z
    kinds = [end for q in ("phi", "psi") if quantity in (q, "both")
             for end in _END_KINDS[type(spec), q]]
    zetas = list(dict.fromkeys(zeta for z in zs for zeta in (abs(Z - z), abs(-Z - z))))
    values = [(end, column.reshape(len(rs), len(zetas)))
              for end, column in zip(kinds, _end_arrays(kinds, R, itertools.product(rs, zetas)))]
    for j, r in enumerate(rs):
        yield {(end, R, r, zeta): value for end, table in values
               for zeta, value in zip(zetas, table[j].tolist()) if math.isfinite(value)}


def _end_arrays(kinds, R, pairs):
    """For each end kind of ``kinds``, its values end(R, r, zeta) at the
    (r, zeta) pairs, as one array, bit for bit; nan where aux refuses the
    pair, and wherever the array form gives nan."""
    import numpy as np
    pairs = list(pairs)
    # the aux records of the pairs, as the fields of one AuxGeometry of
    # arrays; a pair aux refuses stays nan
    slots = np.full((7, len(pairs)), np.nan)
    for i, (r, zeta) in enumerate(pairs):
        try:
            slots[:, i] = aux(R, zeta, r)[1:]
        except DomainError:
            pass
    a = AuxGeometry(R, *slots)
    h = np.heaviside(a.r0 - R, 0.5)
    arrays = {
        _hyg_end: lambda: hypergeom.i_hyg_pi_batch(a.m, a.A, a.gap),
        _cyl_ell_end: lambda: np.where(a.z == 0.0, 0.0,
                                       _i_cyl_ell_pi(a, np.sign(a.z), h, _cels_arrays)),
        _psi_cyl_end: lambda: _j_cyl_ell_pi(a, h, _cels_arrays),
        _psi_tube_end: lambda: _j_tube_pi(a, _cels_arrays)}
    # an overflow is silent, as in Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        return [arrays[end]() for end in kinds]


def _finite(value, name):
    # a result that overflowed at finite arguments is an error, not a value
    if not math.isfinite(value):
        raise DomainError(f"{name}: the result is not finite ({value!r})")
    return value


def _pair(ends, end, R, r, z, Z, coef):
    """The part coef [end(Z - z) - end(-Z - z)] of an assembly, from the two
    ends of the body: (value, rounding), the rounding 2^-52 times each
    term's magnitude, scaled one at a time so that it stays finite where the
    value does. The value is summed from 0.0, so that it is never -0.0. An
    even end pair at z = 0 is one end term, at |zeta| = Z, taken twice: it
    cancels exactly, with rounding 0."""
    plus = coef * _end_from(ends, end, R, r, Z - z)
    minus = coef * _end_from(ends, end, R, r, -Z - z)
    value = 0.0 + plus - minus
    if z == 0.0 and end not in _ODD_ENDS:
        return value, 0.0
    return value, 2.0 ** -52 * abs(plus) + 2.0 ** -52 * abs(minus)


def _assemble(name, point, parts, density, psi_charge=None):
    """density times the sum, left to right, of the values of ``parts``, the
    unit-density parts of a potential, each a pair (value, rounding) as
    _pair gives them; 0.0 at density 0. DomainError where the result is not
    finite. ConvergenceError where the parts cancel so far that their
    rounding exceeds 1e-6 of the scale of the unit-density sum: |phi| for a
    phi, and max(|psi|, 1e-3 |Q|) for a psi, Q = psi_charge being the
    body's charge at unit density. So the guard decides at every density as
    at density 1, and at density 1 the value is the plain sum. Far from the
    body a potential is a small difference of large end terms (ROADMAP item
    1); psi tends to Q cos t there and is 0 on z = 0."""
    total = rounding = 0.0
    for value, err in parts:
        total += value
        rounding += err
    if density == 0.0:
        return 0.0
    if rounding > 1e-6 * abs(total) and (
            psi_charge is None or rounding > 1e-9 * abs(psi_charge)):
        raise ConvergenceError(f"{name}: the end terms cancel beyond 1e-6 of its scale at {point}")
    return _finite(density * total, name)


def _phi_cyl_parts(point, spec: CylinderSpec, ends):
    """The unit-density parts of phi_cyl for _assemble: the hyg pair, the
    ell pair and p_corr."""
    r, z = _check_cyl_point(point, spec)
    R, Z = spec.R, spec.Z
    corr = math.pi * (r * r * heaviside(r - R) - 2.0 * (z * z + Z * Z)) \
        * heaviside(Z - abs(z)) - 4.0 * math.pi * Z * abs(z) * heaviside(abs(z) - Z)
    return (_pair(ends, _hyg_end, R, r, z, Z, 2.0 * (R * R / 2.0)),
            _pair(ends, _cyl_ell_end, R, r, z, Z, 2.0), (corr, 2.0 ** -52 * abs(corr)))


def phi_cyl_terms(point, spec: CylinderSpec, *, ends=None):
    """The three parts (phi_hyg, phi_ell, phi_corr) of the cylinder potential,
    each the density times its unit-density part; each part separately
    satisfies a Laplace/Poisson equation away from the surfaces r = R,
    z = +-Z. Given ``ends``, a dict that calls may share,
    each end term is read from it, or computed and stored in it; the result
    is the same bit for bit. DomainError where their sum, phi_cyl, is not
    finite (it overflows at an extreme density). ConvergenceError where the
    end terms cancel so far that their rounding, 2^-52 times the sum of the
    magnitudes of the four end-term contributions and p_corr, exceeds
    1e-6 |phi_cyl|: for R = 1, Z = 0.7 from |z| = 1.5e3 on the axis and on
    the r = R column."""
    parts = _phi_cyl_parts(point, spec, ends)
    _assemble("phi_cyl", point, parts, spec.rho0)
    return tuple(spec.rho0 * value for value, _ in parts)


def phi_cyl(point, spec: CylinderSpec, *, ends=None):
    """Electric potential of the uniformly charged cylinder; C^1 across the
    surface, -> Q/sqrt(r^2+z^2) with Q = 2 pi R^2 Z rho0 at infinity. rho0
    times the left-to-right sum of the unit-density terms: at density 1 the
    left-to-right sum of phi_cyl_terms. ``ends``, DomainError and
    ConvergenceError as for phi_cyl_terms."""
    return _assemble("phi_cyl", point, _phi_cyl_parts(point, spec, ends), spec.rho0)


def psi_cyl(point, spec: CylinderSpec, *, ends=None):
    """Field-line potential psi of the cylinder, a float; None inside the
    closed body {r <= R, |z| <= Z}, where psi has no formula. The edge
    circle is excluded as for phi_cyl. psi -> Q z/sqrt(r^2+z^2) at infinity
    and is odd in z. No phi is computed. ``ends`` as for phi_cyl_terms.
    DomainError where the value is not finite. ConvergenceError where the
    end terms cancel so far that their rounding, 2^-52 times the sum of the
    magnitudes of the parts, exceeds 1e-6 max(|psi|, 1e-3 |Q|): for R = 1,
    Z = 0.7 from a distance of 2.0e3 on the 45-degree ray."""
    r, z = _check_cyl_point(point, spec)
    R, Z = spec.R, spec.Z
    if r <= R and abs(z) <= Z:
        return None
    side = -2.0 * math.pi * r * r * z * heaviside(Z - abs(z))
    cap = 2.0 * math.pi * Z * _sgn(z) * (-r * r + R * R * heaviside(R - r)) \
        * heaviside(abs(z) - Z)
    return _assemble("psi_cyl", point, (_pair(ends, _psi_cyl_end, R, r, z, Z, 2.0),
                                        (side, 2.0 ** -52 * abs(side)),
                                        (cap, 2.0 ** -52 * abs(cap))),
                     spec.rho0, 2.0 * math.pi * R ** 2 * Z)


def phi_tube(point, spec: TubeSpec, *, ends=None):
    """Electric potential of the charged tube; continuous everywhere, with a
    derivative corner across r = R for |z| < Z; -> Q/sqrt(r^2+z^2) with
    Q = 4 pi R Z sigma0 at infinity. ``ends`` as for phi_cyl_terms.
    DomainError where the value is not finite. ConvergenceError where the
    two end terms cancel so far that their rounding, 2^-52 times the sum of
    their magnitudes, exceeds 1e-6 |phi|: for R = 1, Z = 0.7 from
    |z| = 1.6e8 on the axis and on the r = R column."""
    r, z = _check_point(point)
    R = spec.R
    return _assemble("phi_tube", point, (_pair(ends, _hyg_end, R, r, z, spec.Z, R * 2.0),),
                     spec.sigma0)


def tube_branch_jump(spec: TubeSpec):
    """Branch increment of the multivalued tube psi: 8 pi R Z sigma0 = 2Q."""
    return 8.0 * math.pi * spec.R * spec.Z * spec.sigma0


def psi_tube(point, spec: TubeSpec, branch=0, *, ends=None):
    """Field-line potential psi of the tube on the requested branch, a
    float: the branch-0 value moved to the sheet by psi_tube_on_branch. The
    open charged sheet {r = R, |z| < Z} is excluded; the branch-0 cut lies
    on the disk {z = 0, r < R}. No phi is computed. ``ends`` as for
    phi_cyl_terms. DomainError where the value is not finite.
    ConvergenceError where the end terms cancel so far that their rounding,
    2^-52 times the sum of the magnitudes of the parts, exceeds
    1e-6 max(|psi|, 1e-3 |Q|) on branch 0: for R = 1, Z = 0.7 from a
    distance of 2.2e9 on the 45-degree ray."""
    r, z = _check_point(point)
    R, Z = spec.R, spec.Z
    if abs(r - R) < 1e-12 * R and abs(z) < Z:
        raise SingularityError("psi_tube: point on the charged tube surface")
    inner = 4.0 * math.pi * R * Z * _sgn(z) * heaviside(R - r)
    psi = _assemble("psi_tube", point, (_pair(ends, _psi_tube_end, R, r, z, Z, R * 2.0),
                                        (inner, 2.0 ** -52 * abs(inner))),
                    spec.sigma0, 4.0 * math.pi * R * Z)
    return psi_tube_on_branch(psi, spec, branch)


def psi_tube_on_branch(psi, spec: TubeSpec, branch):
    """The tube's psi on sheet ``branch`` from its branch-0 value psi:
    psi + branch * tube_branch_jump(spec), the offset added only for
    branch != 0. DomainError where the sum is not finite."""
    if not branch:
        return psi
    return _finite(psi + branch * tube_branch_jump(spec), "psi_tube")


def phi_disk(point, spec: DiskSpec, form="lass_blitzer"):
    """Electric potential of the uniformly charged disk of radius R in the
    z = 0 plane, in either of two equivalent closed forms.

    'lass_blitzer' is the compact shifted-coordinate expression;
    'takahashi' carries the characteristic pair n_pm = 2r/(r +- sqrt(r^2+z^2)).
    The disk edge (r, z) = (R, 0) is excluded. DomainError where the value
    is not finite. ConvergenceError where the form's parts cancel so far
    that their rounding, 2^-52 times the sum of their magnitudes, exceeds
    1e-6 |phi|: for R = 1 from |z| = 3.4e4 on the axis.
    """
    r, z = _check_point(point)
    R, sigma = spec.R, spec.sigma
    if math.hypot(r - R, z) < _EDGE_BAND * R:
        raise SingularityError("phi_disk: disk edge (r, z) = (R, 0) is excluded")
    a = aux(R, z, r)  # slots (source radius R, z; observation r)
    L0, s = a.L0, R + r
    if form == "lass_blitzer":
        # (2/L0) [L0^2 E + (R^2 - r^2) K + (z^2/(R + r)) (R - r) Pi*],
        # regrouped as the assemblies above are
        ke, pk = _ke_sum_and_pi_star(a, s * s + z * z, (R - r) * s + z * z)
        ell = 4.0 * R / (L0 * s) * ke
        pi_part = 2.0 * z * z / (L0 * s) * pk
        flat = 2.0 * math.pi * abs(z) * heaviside(R - r)
        parts = ((ell, 2.0 ** -52 * abs(ell)), (pi_part, 2.0 ** -52 * abs(pi_part)),
                 (-flat, 2.0 ** -52 * flat))
        return _assemble("phi_disk", point, parts, sigma)
    if form != "takahashi":
        raise DomainError(f"phi_disk: unknown form {form!r}")
    # (2/L0) [L0^2 E + (R^2 - r^2 - z^2) K, by _cels at p = 0, + the n_pm pair]:
    # the sum in [ ], scaled after it is summed, is one part of the assembly
    rho = math.hypot(r, z)
    n_minus = -2.0 * r * (r + rho) / z / z if z else -math.inf
    out = 2.0 * R * _cels(a.one_minus_m, s, R - r, 0.0, 0.0)[0]
    rounding = 2.0 ** -52 * abs(out)
    if not math.isinf(n_minus):
        # z^2 sum_pm c_pm Pi(n_pm | m), c_pm = 1 - (n_pm/2)(1 + R/r), one AGM
        # for both terms, with the complements formed exactly: 1 - n+ = t^2
        # with t = z/(r + rho) (n+ -> 1 as z -> 0), z^2 c_+ = t z (rho - R)
        # and z^2 c_- = (rho + R)(rho + r). Where n_- is -inf (z = 0, or |z|
        # so small that z^2/r^2 overflows it) the sum is O(|z|) and vanishes
        # in the limit.
        t = z / (r + rho)
        c_plus = t * z * (rho - R)
        c_minus = (rho + R) * (rho + r)
        plus, minus = elliptic.cel_pair(math.sqrt(a.one_minus_m), t * t, c_plus, c_plus,
                                        1.0 - n_minus, c_minus, c_minus)
        out += plus + minus
        rounding += 2.0 ** -52 * abs(plus) + 2.0 ** -52 * abs(minus)
    flat = 2.0 * math.pi * abs(z)
    parts = ((2.0 / L0 * out, 2.0 / L0 * rounding), (-flat, 2.0 ** -52 * flat))
    return _assemble("phi_disk", point, parts, sigma)

