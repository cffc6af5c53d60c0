#!/usr/bin/env python3
"""appellfield benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Workloads (one closed loop, a single caller, one process):

  figure-grids   the two ROADMAP figure grids (cylinder; tube with sheets
                 -1 0 1), 31 x 61 points, --quantity both, CSV, through
                 appellfield.cli.main
  probe-points   single-quantity calls to the public fields functions at
                 seeded points in fixed shares per regime (points.py)
  verify-fast    appellfield.verify.run_suite("fast", seed)

With --trace 0 the workload is repeated in whole passes until S seconds have
passed and the end-to-end metrics are reported: each timing is the median
over the run's passes (or set-up processes), at a fixed reference speed of
the machine measured by a speed probe that runs alongside (SpeedProbe). With
--trace 1 the same untraced passes run, then one pass with the public module
functions wrapped (tracer.py), and the per-layer metrics are reported. The last line of stdout
is the JSON result; a summary goes to stderr. Operations are checked against
independent references (refs.py) computed outside the timed region and cached
per seed. An operation that fails (raises at a valid point, raises an untyped
exception, misses the contract accuracy, or is a failing verify check) counts
in "failed"; the exit code is 0 unless the benchmark itself could not run.
"""

import argparse
import bisect
import csv
import inspect
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import points
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"      # grid CSVs and trace dumps
CACHE = BENCH / ".cache"    # reference tables computed at run time
STORED = BENCH / "refs"     # reference tables kept with the benchmark

CONTRACT_REL = 2e-11        # the ~1e-11 accuracy contract, relative to the reference
PSI_FLOOR = 1e-3            # psi errors are relative to max(|psi|, this * Q)
SETUP_SPAWNS = 11
PROBE_EVERY_S = 0.25        # time between two speed probes
PROBE_REF_S = 1.4e-3        # the speed probe's time on the baseline machine at its fast speed
REFS_TIMEOUT_S = 150

SETUP_SNIPPET = """
import sys
sys.path.insert(0, "src")
from appellfield import fields
from appellfield.geometry import CylinderSpec, DiskSpec, TubeSpec
bodies = (CylinderSpec(1.0, 0.7, 1.0), TubeSpec(1.0, 0.7, 1.0), DiskSpec(1.0, 1.0))
fields.phi_tube((1.5, 0.3), bodies[1])
"""


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_program():
    src = ROOT / "src"
    if not (src / "appellfield" / "__init__.py").is_file():
        raise BenchmarkError(f"no appellfield package under {src}")
    sys.path.insert(0, str(src))
    import appellfield
    import appellfield.cli  # not imported by the package itself
    if Path(appellfield.__file__).resolve().parent != (src / "appellfield").resolve():
        raise BenchmarkError(f"imported appellfield from {appellfield.__file__}")
    return appellfield


# ---------------------------------------------------------------------------
# references


def load_refs(kind, seed, needed):
    """The reference table of one kind and seed that holds every key in
    `needed`: the stored one, else the cached one, else a fresh one computed
    by refs.py in its own process and cached."""
    name = f"seed-{seed}-{kind}.json"
    for path in (STORED / name, CACHE / name):
        if path.is_file():
            with open(path, encoding="ascii") as fh:
                data = json.load(fh)
            if data.get("kind") == kind and data.get("seed") == seed \
                    and needed <= data["values"].keys():
                return data["values"]
    CACHE.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "refs.py"), "--kind", kind,
             "--seed", str(seed), "--out", str(CACHE / name)],
            cwd=ROOT, capture_output=True, text=True, timeout=REFS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"reference table {name} timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"reference table {name} failed:\n{proc.stderr}")
    log(f"computed {name} in {time.perf_counter() - t0:.1f} s")
    with open(CACHE / name, encoding="ascii") as fh:
        values = json.load(fh)["values"]
    if not needed <= values.keys():
        raise BenchmarkError(f"{name} lacks {len(needed - values.keys())} points")
    return values


def rel_err(value, ref, body, quantity):
    scale = abs(ref)
    if quantity == "psi":
        scale = max(scale, PSI_FLOOR * points.Q[body])
    return abs(value - ref) / scale if scale > 0.0 else abs(value - ref)


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.reasons = []

    def add(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 12:
                self.reasons.append(reason)

    def compare(self, value, ref, body, quantity, what):
        err = rel_err(value, ref, body, quantity)
        if math.isfinite(err):
            self.max_rel_err = max(self.max_rel_err, err)
        ok = err <= CONTRACT_REL
        return ok, f"{what}: rel err {err:.2e} (value {value!r}, ref {ref!r})"


# ---------------------------------------------------------------------------
# workloads


class FigureGrids:
    name = "figure-grids"

    def __init__(self, program, seed):
        self.cli = program.cli
        self.sample = {(b, r, z) for b, r, z in points.grid_sample(seed)}
        self.refs = load_refs("grid", seed, {points.key(*p) for p in self.sample
                                             if points.expect(*p, "phi") == "value"})
        WORK.mkdir(exist_ok=True)
        self.paths = {body: WORK / f"grid-{body}.csv" for body in points.GRID_SHEETS}
        rs, zs = points.grid_axes()
        self.ops_per_pass = sum(len(sh) * len(rs) * len(zs)
                                for sh in points.GRID_SHEETS.values())

    def argv(self, body):
        g = points.GRID
        args = ["grid", "--body", body, "--R", repr(points.R),
                "--Z", repr(points.Z), "--density", repr(points.DENSITY),
                "--r-min", repr(g["r_min"]), "--r-max", repr(g["r_max"]),
                "--z-min", repr(g["z_min"]), "--z-max", repr(g["z_max"]),
                "--nr", str(g["nr"]), "--nz", str(g["nz"]),
                "--quantity", "both", "--format", "csv"]
        sheets = points.GRID_SHEETS[body]
        if sheets != (0,):
            args += ["--branch", *map(str, sheets)]
        return args + ["--out", str(self.paths[body])]

    def run_pass(self):
        """((start, end) of the pass, (start, end) of each of its timed units,
        output) of one pass; the timed unit is the whole pass, both grids."""
        for path in self.paths.values():
            if path.exists():
                path.unlink()
        t0 = time.perf_counter()
        codes = {body: self.cli.main(self.argv(body)) for body in self.paths}
        span = (t0, time.perf_counter())
        out = {body: (codes[body], path.read_bytes() if path.exists() else b"")
               for body, path in self.paths.items()}
        return span, [span], out

    def check(self, out):
        rs, zs = points.grid_axes()
        tally = Tally()
        for body, (code, data) in out.items():
            expected = [(r, z, b) for b in points.GRID_SHEETS[body] for r in rs for z in zs]
            rows = list(csv.reader(data.decode("ascii").splitlines()))[1:] if code == 0 else []
            if len(rows) != len(expected):
                for r, z, b in expected:
                    tally.add(False, f"{body} grid exit code {code}, {len(rows)} rows")
                continue
            for (r, z, b), row in zip(expected, rows):
                tally.add(*self._check_row(body, r, z, b, row, tally))
        return tally

    def _check_row(self, body, r, z, b, row, tally):
        where = f"{body} ({r!r}, {z!r}) sheet {b}"
        if (float(row[0]), float(row[1]), int(row[4])) != (r, z, b):
            return False, f"{where}: row holds {row[:2]} sheet {row[4]}"
        ref = self.refs.get(points.key(body, r, z)) if (body, r, z) in self.sample else None
        for q, text in (("phi", row[2]), ("psi", row[3])):
            want = points.expect(body, r, z, q)
            value = float(text)
            if want == "value" and not math.isfinite(value):
                return False, f"{where}: {q} missing at a valid point"
            if want != "value" and text != "nan":
                return False, f"{where}: {q} = {text} where the point is excluded"
            if want == "value" and ref is not None:
                target = ref[q] + (b * 2.0 * points.Q[body] if q == "psi" else 0.0)
                ok, reason = tally.compare(value, target, body, q, f"{where} {q}")
                if not ok:
                    return False, reason
        return True, ""

    def same(self, a, b):
        return a == b

    def layer_values(self, out):
        return {"cli.bytes_out": sum(len(data) for _, data in out.values())}


class ProbePoints:
    name = "probe-points"

    def __init__(self, program, seed):
        import numpy as np
        self.errors = program.errors
        probe = points.probe_points(seed)
        self.refs = load_refs("probe", seed, {points.key(b, r, z) for b, _, r, z in probe
                                              if points.expect(b, r, z, "phi") == "value"})
        fields, geometry = program.fields, program.geometry
        cyl = geometry.CylinderSpec(points.R, points.Z, points.DENSITY)
        tube = geometry.TubeSpec(points.R, points.Z, points.DENSITY)
        disk = _disk_caller(fields, geometry.DiskSpec(points.R, points.DENSITY))
        ops = []
        for body, regime, r, z in probe:
            p = (r, z)
            if body == "cyl":
                ops.append((body, regime, p, "phi", 0, lambda p=p: fields.phi_cyl(p, cyl)))
                ops.append((body, regime, p, "psi", 0,
                            lambda p=p: _psi(fields.psi_cyl(p, cyl))))
            elif body == "tube":
                ops.append((body, regime, p, "phi", 0, lambda p=p: fields.phi_tube(p, tube)))
                for b in (-1, 0, 1):
                    ops.append((body, regime, p, "psi", b,
                                lambda p=p, b=b: _psi(fields.psi_tube(p, tube, branch=b))))
            else:
                ops.append((body, regime, p, "phi", 0, lambda p=p: disk(p)))
        order = np.random.default_rng([seed, 999]).permutation(len(ops))
        self.ops = [ops[i] for i in order]
        self.ops_per_pass = len(self.ops)

    def run_pass(self):
        clock = time.perf_counter
        spans, out = [], []
        t0 = clock()
        for op in self.ops:
            call = op[5]
            t = clock()
            try:
                v = call()
            except Exception as exc:  # the outcome is checked, not the pass
                v = exc
            spans.append((t, clock()))
            out.append(v)
        return (t0, clock()), spans, out

    def check(self, out):
        tally = Tally()
        for (body, regime, (r, z), q, b, _), v in zip(self.ops, out):
            where = f"{body} {regime} ({r!r}, {z!r}) {q}" + (f" branch {b}" if b else "")
            want = points.expect(body, r, z, q)
            if isinstance(v, Exception):
                typed = isinstance(v, self.errors.AppellFieldError)
                ok = typed and want == "singular" and isinstance(v, self.errors.SingularityError)
                tally.add(ok, f"{where}: raised {type(v).__name__}: {v}")
            elif v is None:
                tally.add(want == "none", f"{where}: None where {want} expected")
            elif want != "value":
                tally.add(False, f"{where}: value {v!r} where {want} expected")
            else:
                ref = self.refs[points.key(body, r, z)][q]
                target = ref + (b * 2.0 * points.Q[body] if q == "psi" else 0.0)
                tally.add(*tally.compare(v, target, body, q, where))
        return tally

    def same(self, a, b):
        def sig(v):
            return f"{type(v).__name__}: {v}" if isinstance(v, Exception) else repr(v)
        return [sig(v) for v in a] == [sig(v) for v in b]

    def layer_values(self, out):
        return {}


class VerifyFast:
    name = "verify-fast"

    def __init__(self, program, seed):
        self.verify = program.verify
        self.seed = seed
        self.ops_per_pass = len(program.verify.CHECKS)

    def run_pass(self):
        t0 = time.perf_counter()
        results = self.verify.run_suite("fast", self.seed)
        span = (t0, time.perf_counter())
        return span, [span], results

    def check(self, out):
        if not out:
            raise BenchmarkError("verify.run_suite returned no results")
        tally = Tally()
        for r in out:
            tally.add(bool(r.passed), f"{r.ident} failed: {r.detail}")
        return tally

    def same(self, a, b):
        return [(r.ident, bool(r.passed), repr(r.worst)) for r in a] == \
            [(r.ident, bool(r.passed), repr(r.worst)) for r in b]

    def layer_values(self, out):
        # CheckResult.seconds as the program measures it
        return {f"verify.{r.ident}.s": r.seconds for r in out}


WORKLOADS = {w.name: w for w in (FigureGrids, ProbePoints, VerifyFast)}


def _psi(sample):
    """psi from a FieldSample, or from a bare value once psi_* return it."""
    return sample.psi if hasattr(sample, "psi") else sample


def _disk_caller(fields, spec):
    """Calls fields.phi_disk(point, R, sigma), or phi_disk(point, spec) once it
    takes a DiskSpec like the other bodies. The function is looked up at call
    time, so a traced pass reaches the traced function."""
    import inspect
    params = list(inspect.signature(fields.phi_disk).parameters)
    if len(params) > 1 and params[1] == "R":
        return lambda p: fields.phi_disk(p, spec.R, spec.sigma)
    return lambda p: fields.phi_disk(p, spec)


# ---------------------------------------------------------------------------
# measurement


def probe_kernel():
    """The speed probe: fixed pure-Python float work, about 1.4 ms on the
    baseline machine at its fast speed."""
    acc = 0.0
    for i in range(1, 8000):
        x = i * 1e-3
        acc += math.sqrt(x) * math.log1p(x) / (1.0 + x * x)
    return acc


class SpeedProbe:
    """Timings at a fixed reference speed of the machine.

    Other jobs on a shared machine slow this process by up to about 2x,
    switching within seconds and drifting over minutes, and a fixed piece of
    pure-Python work slows by the same factor. While the context is open, that
    work (probe_kernel) runs every PROBE_EVERY_S from a SIGALRM handler, so it
    also samples the speed inside long calls such as a whole grid. span(a, b)
    gives the raw seconds of [a, b] without the probes inside it, and its
    reference seconds: each stretch between two probes scaled by PROBE_REF_S
    over the mean time of those two probes.
    """

    def __init__(self):
        self.probes = []  # (start, end) of each probe

    def _probe(self):
        t0 = time.perf_counter()
        probe_kernel()
        self.probes.append((t0, time.perf_counter()))

    def _tick(self, signum, frame):
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._probe()
        # the stretches between probes: start, end, scale, and the raw and
        # reference seconds before the stretch
        self._starts, self._gaps = [], []
        raw = ref = 0.0
        for (s0, e0), (s1, e1) in zip(self.probes, self.probes[1:]):
            scale = 2.0 * PROBE_REF_S / ((e0 - s0) + (e1 - s1))
            self._starts.append(e0)
            self._gaps.append((e0, s1, scale, raw, ref))
            raw += s1 - e0
            ref += (s1 - e0) * scale
        return False

    def _at(self, t):
        k = bisect.bisect_right(self._starts, t) - 1
        if k < 0:
            return 0.0, 0.0
        g0, g1, scale, raw, ref = self._gaps[k]
        d = min(t, g1) - g0
        return raw + d, ref + d * scale

    def span(self, a, b):
        """(raw seconds, reference seconds) of [a, b], probes left out."""
        (raw_a, ref_a), (raw_b, ref_b) = self._at(a), self._at(b)
        return raw_b - raw_a, ref_b - ref_a


def measure_setup():
    """Median time, at the reference speed, of a fresh process that imports
    appellfield, builds the bodies and makes one call, over SETUP_SPAWNS
    processes. Each process then runs the speed probe three times; their time
    is left out, and the median of the three scales the rest."""
    snippet = SETUP_SNIPPET + "import math, time\n" + inspect.getsource(probe_kernel) + """
times = []
for _ in range(3):
    t0 = time.perf_counter()
    probe_kernel()
    times.append(time.perf_counter() - t0)
print(*times)
"""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", snippet], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up process failed:\n{proc.stderr}")
        probes = [float(t) for t in proc.stdout.split()]
        times.append((wall - sum(probes)) * PROBE_REF_S / statistics.median(probes))
    return statistics.median(times)


def run_passes(work, seconds):
    """Untraced passes under the speed probe until `seconds` have passed (at
    least one): the (raw, reference) seconds of each pass, the reference
    seconds of each pass's timed units, and the outputs."""
    spans, units, outs = [], [], []
    with SpeedProbe() as probe:
        t_end = time.perf_counter() + seconds
        while True:
            span, unit_spans, out = work.run_pass()
            spans.append(span)
            units.append(unit_spans)
            outs.append(out)
            if time.perf_counter() >= t_end:
                break
    walls = [probe.span(*span) for span in spans]
    lats = [[probe.span(*u)[1] for u in unit_spans] for unit_spans in units]
    return walls, lats, outs


def percentile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(work, seconds):
    setup = measure_setup()
    walls, lats, outs = run_passes(work, seconds)
    if not all(work.same(outs[0], o) for o in outs[1:]):
        raise BenchmarkError("passes of one run gave different outputs")
    tally = work.check(outs[0])
    # the median over the passes, each timed at the reference speed
    wall = statistics.median(ref for _, ref in walls)

    def latency_us(q):
        return statistics.median(percentile(lat, q) for lat in lats) * 1e6

    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (work.ops_per_pass / wall, "1/s"),
        "latency_p50_us": (latency_us(0.50), "us"),
        "latency_p99_us": (latency_us(0.99), "us"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raws = [raw for raw, _ in walls]
    log(f"{work.name}: {len(walls)} passes of {min(raws):.3f} to {max(raws):.3f} s, "
        f"median {wall:.3f} s at the reference speed, {len(lats[0])} timed units per pass, "
        f"{work.ops_per_pass} operations per pass")
    return tally, metrics


def per_layer(work, seconds, names):
    walls, _, outs = run_passes(work, seconds)
    untraced = statistics.median(ref for _, ref in walls)
    tr = tracer.Tracer()
    # the probes inside the traced pass add about 1% to the self time of
    # whichever function they interrupt
    with SpeedProbe() as probe, tr:
        span, _, out = work.run_pass()
    traced = span[1] - span[0]
    traced_ref = probe.span(*span)[1]
    correct = True
    if not work.same(outs[0], out):
        log("tracer self-test: traced output differs from untraced output")
        correct = False
    tot = tr.module_totals()
    self_sum = sum(s.self_s for s in tot.values())
    if self_sum > traced:
        log(f"tracer self-test: self times sum to {self_sum} s > traced wall {traced} s")
        correct = False
    tally = work.check(out)
    special = {
        "trace_overhead_frac": traced_ref / untraced - 1.0,
        "max_rel_err": tally.max_rel_err,
        "fail_frac": tally.failed / tally.attempted,
        "trace.absent": len(tr.absent),
        "oracle.quad_1d.integrand_evals": tr.integrand_evals,
        "fields.phi_tube.calls_per_value":
            tr.stat("fields.phi_tube").calls / len(tr.tube_points) if tr.tube_points else 0.0,
        **work.layer_values(outs[0]),
    }
    metrics = {}
    for name, unit in names:
        if name in special:
            value = special[name]
        elif name.startswith(("verify.C", "cli.bytes_out")):
            value = 0  # a value the workload does not produce
        else:
            key, stat = name.rsplit(".", 1)
            value = getattr(tot[key] if key in tot else tr.stat(key), stat)
        metrics[name] = (value, unit)
    dump = {k: {"calls": s.calls, "self_s": s.self_s, "fail": s.fail}
            for k, s in sorted(tr.stats.items())}
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"trace-{work.name}.json", "w", encoding="ascii") as fh:
        json.dump({"absent": tr.absent, "wall_s": traced, "ref_s": traced_ref,
                   "untraced_ref_s": untraced, "functions": dump}, fh, indent=1)
    if tr.absent:
        log(f"absent: {', '.join(tr.absent)}")
    log(f"{work.name}: traced pass {traced:.3f} s ({traced_ref:.3f} s at the reference "
        f"speed, untraced {untraced:.3f} s), self times sum to {self_sum:.3f} s")
    return tally, metrics, correct


def main(argv=None):
    p = argparse.ArgumentParser(description="appellfield benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
            spec = json.load(fh)
        program = import_program()
        work = WORKLOADS[args.workload](program, args.seed)
        if args.trace:
            names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            tally, metrics, correct = per_layer(work, args.seconds, names)
        else:
            tally, metrics = end_to_end(work, args.seconds)
            correct = True
            missing = {m["name"] for m in spec["end_to_end"]} ^ set(metrics)
            if missing:
                raise BenchmarkError(f"end-to-end metrics differ from BENCHMARK.json: {missing}")
    except (BenchmarkError, OSError, KeyError, ValueError) as exc:
        log(f"benchmark error: {type(exc).__name__}: {exc}")
        return 2
    for reason in tally.reasons:
        log(f"failed: {reason}")
    log(f"{args.workload} seed {args.seed}: {tally.failed} of {tally.attempted} operations "
        f"failed, max rel err {tally.max_rel_err:.2e}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
