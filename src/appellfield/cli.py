"""Command-line front end: point evaluation, grid data emission (CSV/JSON),
direct special-function access, and the verification battery.

Exit codes: 0 success; 1 verification failures, or grid points that failed
(written as nan/null, one stderr line each); 2 flag/domain/setup errors and
internal errors.
"""

import argparse
import math
import os
import re
import sys

from . import elliptic, fields, hypergeom, jacobi
from .errors import AppellFieldError, DomainError, SingularityError
from .geometry import CylinderSpec, DiskSpec, Record, TubeSpec


class GridSpec(Record):
    """Rectangular (r, z) sampling grid over one body (Z is None for the
    disk)."""

    __slots__ = _fields = ("r_min", "r_max", "z_min", "z_max", "nr", "nz", "body", "R", "Z",
                           "density", "quantity", "branches")

    def __init__(self, r_min, r_max, z_min, z_max, nr, nz, body, R, Z, density, quantity,
                 branches):
        if r_min < 0.0 or not all(map(math.isfinite, (r_min, r_max, z_min, z_max))):
            raise AppellFieldError("grid ranges must be finite with r_min >= 0")
        if nr < 2 or nz < 2:
            raise AppellFieldError("grid needs nr >= 2 and nz >= 2")
        for name, value in zip(self._fields, (r_min, r_max, z_min, z_max, nr, nz, body, R, Z,
                                              density, quantity, branches)):
            object.__setattr__(self, name, value)


def _build_body(name, R, Z, density):
    if name == "cyl":
        if Z is None:
            raise AppellFieldError("--Z is required for the cylinder body")
        return CylinderSpec(R=R, Z=Z, rho0=density)
    if name == "tube":
        if Z is None:
            raise AppellFieldError("--Z is required for the tube body")
        return TubeSpec(R=R, Z=Z, sigma0=density)
    if name == "disk":
        return DiskSpec(R=R, sigma=density)
    raise AppellFieldError(f"unknown body {name!r}")


def _phi(body, point, ends=None):
    if isinstance(body, CylinderSpec):
        return fields.phi_cyl(point, body, ends=ends)
    if isinstance(body, TubeSpec):
        return fields.phi_tube(point, body, ends=ends)
    return fields.phi_disk(point, body)


def _psi(body, point, branch=0, ends=None):
    if isinstance(body, CylinderSpec):
        return fields.psi_cyl(point, body, ends=ends)
    if isinstance(body, TubeSpec):
        return fields.psi_tube(point, body, branch=branch, ends=ends)
    return None  # the disk body provides phi only


def cmd_eval(args):
    body = _build_body(args.body, args.R, args.Z, args.density)
    if args.body != "tube" and args.branch != 0:
        raise AppellFieldError("--branch is meaningful only for the tube body")
    quantities = ("phi", "psi") if args.quantity == "both" else (args.quantity,)
    if args.body == "disk" and "psi" in quantities and args.quantity != "both":
        raise AppellFieldError("the field-line potential is not provided for the disk body")
    point = (args.r, args.z)
    for q in quantities:
        if q == "phi":
            try:
                phi = _phi(body, point)
            except SingularityError:
                raise AppellFieldError("phi is excluded at this point (singular set)") from None
            print(f"phi={phi!r} [charge/length] branch={args.branch}")
        elif args.body != "disk":
            try:
                psi = _psi(body, point, args.branch)
            except SingularityError:
                print("psi=excluded(singular-set)")
                continue
            print("psi=undefined(inside-charge)" if psi is None
                  else f"psi={psi!r} [charge] branch={args.branch}")
    return 0


def _grid_column(task):
    """((phi, psi) pairs, failures) of one grid column (body, r, zs,
    quantity, ends), evaluating only the requested quantity ('phi', 'psi' or
    'both'). A quantity not requested, undefined (psi inside the charge or
    on the disk body) or excluded (a singular set: the cylinder edge circle,
    the tube sheet for psi, the disk edge) is None; so is one whose evaluation
    raised an AppellFieldError, and the failure is reported as one line.
    The calls of the column share ends, the column's table of end terms
    (see fields), which the task fills further and which lives as long as
    the task."""
    body, r, zs, quantity, ends = task
    samples, failures = [], []
    for z in zs:
        values = []
        for q, fn in (("phi", _phi), ("psi", _psi)):
            value = None
            if quantity in (q, "both"):
                try:
                    value = fn(body, (r, z), ends=ends)
                except SingularityError:
                    pass
                except AppellFieldError as exc:
                    failures.append(f"{q} at (r, z) = ({r!r}, {z!r}): {exc}")
            values.append(value)
        samples.append(values)
    return samples, failures


def _grid_rows(spec: GridSpec, workers=1):
    """((r, z, phi, psi, branch) rows, failure lines): rows sheet by sheet,
    r-major within a sheet. Each column (fixed r) is one task, evaluated on
    sheet 0 with its table of end terms; on the cylinder and the tube,
    fields.phi_end_tables first fills every end term of all columns that
    the requested quantity reads, over arrays, so a cell computes only the
    terms the arrays leave (the boundary route of I(m, A; pi), and its
    zeros and errors). The tables travel with the column tasks to the
    worker processes. Tube sheet b != 0 moves the psi to its sheet as
    psi_tube does, and reports a psi that is not finite there as failed."""
    # imported here, where the grid needs them: eval and special run
    # without either
    import concurrent.futures

    import numpy as np

    body = _build_body(spec.body, spec.R, spec.Z, spec.density)
    rs = [float(r) for r in np.linspace(spec.r_min, spec.r_max, spec.nr)]
    zs = [float(z) for z in np.linspace(spec.z_min, spec.z_max, spec.nz)]
    if isinstance(body, DiskSpec):
        tables = ({} for _ in rs)
    else:
        tables = fields.phi_end_tables(body, rs, zs, spec.quantity)
    tasks = ((body, r, zs, spec.quantity, ends) for r, ends in zip(rs, tables))
    workers = min(workers, os.cpu_count() or 1, len(rs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            columns = list(pool.map(_grid_column, tasks))
    else:
        columns = [_grid_column(t) for t in tasks]
    failures = [line for _, failed in columns for line in failed]
    rows = []
    for b in spec.branches:
        for r, (samples, _) in zip(rs, columns):
            for z, (phi, psi) in zip(zs, samples):
                if b and psi is not None:
                    try:
                        psi = fields.psi_tube_on_branch(psi, body, b)
                    except DomainError as exc:
                        failures.append(f"psi at (r, z) = ({r!r}, {z!r}) on sheet {b}: {exc}")
                        psi = None
                rows.append((r, z, phi, psi, b))
    return rows, failures


def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return repr(x)


def cmd_grid(args):
    if args.workers < 1:
        raise AppellFieldError("--workers must be at least 1")
    branches = tuple(args.branch) if args.branch else (0,)
    if args.body != "tube" and any(b != 0 for b in branches):
        raise AppellFieldError("--branch is meaningful only for the tube body")
    spec = GridSpec(args.r_min, args.r_max, args.z_min, args.z_max, args.nr,
                    args.nz, args.body, args.R, args.Z, args.density,
                    args.quantity, branches)
    rows, failures = _grid_rows(spec, workers=args.workers)
    try:
        if args.format == "csv":
            with open(args.out, "w", encoding="ascii", newline="\n") as fh:
                fh.write("r,z,phi,psi,branch\n")
                for (r, z, phi, psi, b) in rows:
                    fh.write(f"{r!r},{z!r},{_fmt(phi)},{_fmt(psi)},{b}\n")
        else:
            import json

            meta = dict(zip(spec._fields, spec._values()))
            meta["branches"] = list(spec.branches)
            payload = {
                "meta": meta,
                "rows": [
                    {"r": r, "z": z, "phi": phi, "psi": psi, "branch": b}
                    for (r, z, phi, psi, b) in rows
                ],
            }
            text = json.dumps(payload, allow_nan=False)
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text + "\n")
    except OSError as exc:
        raise AppellFieldError(f"cannot write {args.out}: {exc}") from exc
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failures else 0


_SPECIAL_FNS = {
    "cel": (elliptic.cel, 4),
    "comp_k": (elliptic.comp_k, 1),
    "comp_e": (elliptic.comp_e, 1),
    "comp_pi": (elliptic.comp_pi, 2),
    "ellip_f": (elliptic.ellip_f, 2),
    "ellip_e": (elliptic.ellip_e, 2),
    "ellip_pi": (elliptic.ellip_pi, 3),
    "carlson_rf": (elliptic.carlson_rf, 3),
    "carlson_rc": (elliptic.carlson_rc, 2),
    "carlson_rd": (elliptic.carlson_rd, 3),
    "carlson_rj": (elliptic.carlson_rj, 4),
    "jacobi_am": (jacobi.jacobi_am, 2),
    "jacobi_sn": (jacobi.jacobi_sn, 2),
    "jacobi_cn": (jacobi.jacobi_cn, 2),
    "jacobi_dn": (jacobi.jacobi_dn, 2),
    "jacobi_sc": (jacobi.jacobi_sc, 2),
    "jacobi_zeta": (jacobi.jacobi_zeta, 2),
    "theta": (jacobi.theta, 3),
    "int_z_sc": (jacobi.int_z_sc, (2, 3)),
    "zsc_branch_jump": (jacobi.zsc_branch_jump, 1),
    "pochhammer": (hypergeom.pochhammer, 2),
    "gauss_2f1": (hypergeom.gauss_2f1, 4),
    "pfq_4f3": (lambda *a: hypergeom.pfq_4f3(a[0:4], a[4:7], a[7]), 8),
    "appell_f1": (hypergeom.appell_f1, 6),
    "appell_f2": (hypergeom.appell_f2, 7),
    "i_hyg": (hypergeom.i_hyg, 3),
    "i_hyg_pi": (hypergeom.i_hyg_pi, 2),
    "i_hyg_surface": (hypergeom.i_hyg_surface, 1),
    "di_hyg_dA": (hypergeom.di_hyg_dA, 3),
    "di_hyg_dm": (hypergeom.di_hyg_dm, 3),
    "lauricella_f11_triple": (hypergeom.lauricella_f11_triple, 3),
}


def cmd_special(args):
    if args.fn not in _SPECIAL_FNS:
        raise AppellFieldError(
            f"unknown function {args.fn!r}; available: {', '.join(sorted(_SPECIAL_FNS))}")
    fn, arity = _SPECIAL_FNS[args.fn]
    arities = arity if isinstance(arity, tuple) else (arity,)
    if len(args.args) not in arities:
        raise AppellFieldError(
            f"{args.fn} takes {' or '.join(map(str, arities))} arguments, "
            f"got {len(args.args)}")
    print(repr(fn(*args.args)))
    return 0


def cmd_verify(args):
    from . import verify

    idents = set(args.only) if args.only else None
    results = verify.run_suite(args.suite, seed=args.seed, idents=idents)
    if not results:
        raise AppellFieldError(f"no checks match {sorted(idents)}")
    width = max(len(r.name) for r in results)
    print(f"{'id':4s} {'status':6s} {'worst/tol':>10s} {'time':>7s}  name")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.ident:4s} {status:6s} {r.worst:10.3g} {r.seconds:6.1f}s  "
              f"{r.name:{width}s}  [{r.detail}]")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed "
          f"(suite={args.suite}, seed={args.seed})")
    return 1 if failed else 0


# argparse, through Python 3.12, reads -1 and -0.5 as numbers but -1e3,
# -inf and -nan as flags; no option here looks like a number, so every
# parser takes this pattern, which adds the exponent and, in any case as
# float() reads them, inf, infinity and nan
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf|infinity|nan)$",
                              re.IGNORECASE)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="appellfield",
        description="Closed-form potentials and field-line potentials for "
                    "uniformly charged cylinders, tubes and disks, with the "
                    "supporting special-function stack.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_body_flags(sp):
        sp.add_argument("--body", required=True, choices=("cyl", "tube", "disk"))
        sp.add_argument("--R", type=float, required=True, help="body radius")
        sp.add_argument("--Z", type=float, default=None,
                        help="half-height (cyl/tube)")
        sp.add_argument("--density", type=float, required=True,
                        help="volume density (cyl) or surface density (tube/disk)")

    pe = sub.add_parser("eval", help="evaluate phi/psi at one point")
    add_body_flags(pe)
    pe.add_argument("--r", type=float, required=True)
    pe.add_argument("--z", type=float, required=True)
    pe.add_argument("--branch", type=int, default=0)
    pe.add_argument("--quantity", choices=("phi", "psi", "both"), default="both")
    pe.set_defaults(func=cmd_eval)

    pg = sub.add_parser("grid", help="emit a sampling grid as CSV or JSON")
    add_body_flags(pg)
    pg.add_argument("--r-min", type=float, required=True)
    pg.add_argument("--r-max", type=float, required=True)
    pg.add_argument("--z-min", type=float, required=True)
    pg.add_argument("--z-max", type=float, required=True)
    pg.add_argument("--nr", type=int, required=True)
    pg.add_argument("--nz", type=int, required=True)
    pg.add_argument("--branch", type=int, nargs="+", default=None,
                    help="branch sheet(s), tube only (default: 0)")
    pg.add_argument("--quantity", choices=("phi", "psi", "both"), default="both")
    pg.add_argument("--format", choices=("csv", "json"), default="csv")
    pg.add_argument("--out", required=True)
    pg.add_argument("--workers", type=int, default=1,
                    help="parallel worker processes, each taking whole columns "
                         "(fixed r); at most one per CPU and per column (rows "
                         "stay in row-major order)")
    pg.set_defaults(func=cmd_grid)

    ps = sub.add_parser("special", help="evaluate a special function by name")
    ps.add_argument("--fn", required=True)
    ps.add_argument("args", type=float, nargs="*")
    ps.set_defaults(func=cmd_special)

    pv = sub.add_parser("verify", help="run the verification battery")
    pv.add_argument("--suite", choices=("fast", "full"), default="fast")
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--only", nargs="+", default=None, metavar="ID",
                    help="run only the named checks (e.g. C01 C04)")
    pv.set_defaults(func=cmd_verify)
    for parser in (p, *sub.choices.values()):
        parser._negative_number_matcher = _NEGATIVE_NUMBER
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except AppellFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:  # setup/internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
