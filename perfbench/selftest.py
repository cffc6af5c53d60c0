#!/usr/bin/env python3
"""Self-test of the benchmark's tracer and references.

    python3 perfbench/selftest.py

Tracer, on small versions of the three workloads:
  * traced output is identical to untraced output (grid CSV bytes, probe
    outcomes, verify verdicts);
  * per-function self times sum to no more than the traced wall time;
  * call counts repeat exactly between two traced runs;
  * a private entry point that is missing is reported as absent.
Speed probe: output under it is identical to output without it, and a
span's raw time leaves out the probes inside it.
References:
  * the ring-kernel quadrature and the exact-z' form of the tube phi agree;
  * the references agree with appellfield at regular points.
Exits 1 if any check fails.
"""

import sys
import time

import run
import tracer

GRID_ARGS = ["--R", "1", "--Z", "0.7", "--density", "1", "--r-min", "0", "--r-max", "3",
             "--z-min", "-3", "--z-max", "3", "--nr", "7", "--nz", "9", "--quantity", "both"]
VERIFY_SUBSET = {"C02", "C07", "C09", "C13"}
PROBE_OPS = 80


class Checks:
    def __init__(self):
        self.failed = 0

    def __call__(self, ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failed += 1


def traced(fn):
    """(output, tracer, wall) of fn() with tracing on."""
    tr = tracer.Tracer()
    with tr:
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
    return out, tr, wall


def check_probe(check, name, fn, same, plain):
    with run.SpeedProbe() as probe:
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
    raw, ref = probe.span(t0, t1)
    inside = sum(e - s for s, e in probe.probes if t0 <= s and e <= t1)
    check(same(plain, out), f"{name}: output under the speed probe equals plain output")
    check(0.0 < ref and abs(raw + inside - (t1 - t0)) <= 1e-6,
          f"{name}: span {t1 - t0:.4f} s = raw {raw:.4f} s + {len(probe.probes) - 2} "
          f"probes {inside:.4f} s")


def check_tracer(check, name, fn, same):
    plain = fn()
    check_probe(check, name, fn, same, plain)
    runs = [traced(fn) for _ in range(2)]
    check(all(same(plain, out) for out, _, _ in runs), f"{name}: traced output equals untraced")
    for i, (_, tr, wall) in enumerate(runs):
        total = sum(s.self_s for s in tr.module_totals().values())
        check(0.0 < total <= wall, f"{name}: run {i}: self times {total:.4f} s <= wall {wall:.4f} s")
    calls = [{k: s.calls for k, s in tr.stats.items()} for _, tr, _ in runs]
    check(calls[0] == calls[1] and calls[0],
          f"{name}: call counts repeat exactly ({sum(calls[0].values())} calls)")
    check(runs[0][1].integrand_evals == runs[1][1].integrand_evals,
          f"{name}: integrand evaluation counts repeat exactly")


def main():
    check = Checks()
    program = run.import_program()
    run.WORK.mkdir(exist_ok=True)

    def grids():
        out = []
        for body, extra in (("cyl", []), ("tube", ["--branch", "-1", "0", "1"])):
            path = run.WORK / f"selftest-{body}.csv"
            code = program.cli.main(["grid", "--body", body, *GRID_ARGS, *extra,
                                     "--out", str(path)])
            out.append((code, path.read_bytes()))
        return out

    check_tracer(check, "grid", grids, lambda a, b: a == b)

    probe = run.ProbePoints(program, 0)
    probe.ops = probe.ops[:PROBE_OPS]
    check_tracer(check, "probe", lambda: probe.run_pass()[2], probe.same)

    suite = run.VerifyFast(program, 0)
    check_tracer(check, "verify",
                 lambda: program.verify.run_suite("fast", 0, idents=VERIFY_SUBSET), suite.same)

    hg = program.hypergeom
    saved = hg._i_hyg_surface_f43
    del hg._i_hyg_surface_f43
    try:
        tr = tracer.Tracer().install()
        tr.restore()
        check(tr.absent == ["hypergeom._i_hyg_surface_f43"],
              f"a missing private entry point is reported as absent ({tr.absent})")
    finally:
        hg._i_hyg_surface_f43 = saved

    check_references(check, program)
    print(f"{check.failed} checks failed")
    return 1 if check.failed else 0


def check_references(check, program):
    import mpmath as mp

    import refs

    with mp.workdps(refs.DPS):
        for r, z in ((1.5, 0.3), (1.0 + 3e-5, 0.3)):
            a = refs.tube(r, z, 1, 0.7, 1)[0]
            b = refs.ring_kernel_tube_phi(r, z, 1, 0.7, 1)
            check(abs(a - b) <= 1e-20 * abs(a),
                  f"tube phi at ({r}, {z}): ring kernel and exact-z' form agree "
                  f"to {mp.nstr(abs(a - b) / abs(a), 3)}")
    f, g = program.fields, program.geometry
    bodies = {"cyl": g.CylinderSpec(1.0, 0.7, 1.0), "tube": g.TubeSpec(1.0, 0.7, 1.0)}
    disk = run._disk_caller(f, g.DiskSpec(1.0, 1.0))
    for r, z in ((0.5, 0.3), (1.5, -0.4), (2.5, 1.9), (0.0, 1.2), (0.4, -2.1)):
        for body, spec in bodies.items():
            ref = refs.reference(body, r, z)
            phi = getattr(f, f"phi_{body}")((r, z), spec)
            psi = run._psi(getattr(f, f"psi_{body}")((r, z), spec))
            errs = [run.rel_err(phi, ref["phi"], body, "phi")]
            if ref["psi"] is not None:
                errs.append(run.rel_err(psi, ref["psi"], body, "psi"))
            check(max(errs) <= 1e-12, f"{body} reference at ({r}, {z}) matches "
                  f"appellfield to {max(errs):.1e}")
        ref = refs.reference("disk", r, z)["phi"]
        err = run.rel_err(disk((r, z)), ref, "disk", "phi")
        check(err <= 1e-12, f"disk reference at ({r}, {z}) matches appellfield to {err:.1e}")


if __name__ == "__main__":
    sys.exit(main())
