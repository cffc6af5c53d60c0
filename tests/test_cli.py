import concurrent.futures
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from appellfield import cli
from appellfield.errors import SingularityError


def run_cli(*argv):
    import io
    from contextlib import redirect_stderr, redirect_stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_eval_tube_both_quantities():
    code, out, _ = run_cli("eval", "--body", "tube", "--R", "1", "--Z", "0.7",
                           "--density", "1", "--r", "1.5", "--z", "0.3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("phi=") and "[charge/length]" in lines[0]
    assert lines[1].startswith("psi=") and "[charge]" in lines[1]
    phi = float(lines[0].split("=")[1].split()[0])
    assert phi == pytest.approx(6.086693309552363, rel=1e-9)


def test_eval_inside_charge_marker():
    code, out, _ = run_cli("eval", "--body", "cyl", "--R", "1", "--Z", "0.7",
                           "--density", "1", "--r", "0.5", "--z", "0",
                           "--quantity", "psi")
    assert code == 0
    assert out.strip() == "psi=undefined(inside-charge)"


def test_eval_tube_sheet_is_excluded_not_inside_charge():
    # psi_tube raises SingularityError on the open sheet {r = R, |z| < Z};
    # phi is continuous there
    code, out, _ = run_cli("eval", "--body", "tube", "--R", "1", "--Z", "0.7",
                           "--density", "1", "--r", "1", "--z", "0.3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("phi=")
    assert lines[1] == "psi=excluded(singular-set)"


def test_eval_branch_arithmetic():
    common = ("--body", "tube", "--R", "1", "--Z", "0.7", "--density", "1",
              "--r", "1.5", "--z", "0.3", "--quantity", "psi")
    _, out0, _ = run_cli("eval", *common)
    _, out1, _ = run_cli("eval", *common, "--branch", "1")
    psi0 = float(out0.split("=")[1].split()[0])
    psi1 = float(out1.split("=")[1].split()[0])
    assert psi1 - psi0 == pytest.approx(8 * math.pi * 0.7, rel=1e-12)


def test_eval_domain_errors_exit_2():
    code, _, err = run_cli("eval", "--body", "cyl", "--R", "1", "--Z", "0.7",
                           "--density", "1", "--r", "0.5", "--z", "0",
                           "--branch", "2")
    assert code == 2 and "branch" in err
    code, _, err = run_cli("eval", "--body", "disk", "--R", "1", "--density", "1",
                           "--r", "0.5", "--z", "0.2", "--quantity", "psi")
    assert code == 2
    code, _, err = run_cli("eval", "--body", "cyl", "--R", "1",
                           "--density", "1", "--r", "0.5", "--z", "0.0")
    assert code == 2 and "--Z" in err


def test_eval_beyond_the_length_range_is_a_domain_error():
    # L0^2 overflows: a typed error with its message, not an internal error
    code, out, err = run_cli("eval", "--body", "tube", "--R", "1", "--Z", "0.7",
                             "--density", "1", "--r", "1e300", "--z", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: aux: lengths must stay between about 1e-154 and 1e154")


def test_special_functions():
    code, out, _ = run_cli("special", "--fn", "comp_k", "0.85")
    assert code == 0
    assert float(out) == pytest.approx(2.3890164863255796, rel=1e-14)
    code, out, _ = run_cli("special", "--fn", "appell_f2",
                           "0.5", "0.5", "1", "1", "1.5", "0", "0")
    assert code == 0 and float(out) == 1.0
    code, out, _ = run_cli("special", "--fn", "i_hyg", "0.5", "0.3", "2.0")
    assert float(out) == pytest.approx(0.67478453667702185, rel=1e-10)
    code, _, err = run_cli("special", "--fn", "no_such_fn", "1.0")
    assert code == 2 and "unknown function" in err
    code, _, err = run_cli("special", "--fn", "comp_k")
    assert code == 2


def test_eval_disk_at_tiny_z():
    code, out, err = run_cli("eval", "--body", "disk", "--R", "1", "--density", "1",
                             "--r", "0.5", "--z", "1e-200", "--quantity", "phi")
    assert code == 0, err
    phi = float(out.split("=")[1].split()[0])
    assert phi == pytest.approx(5.86984883735771, rel=1e-14)


def test_special_cel_and_nonfinite_arguments():
    code, out, _ = run_cli("special", "--fn", "cel", "0.6", "1", "1", "1")
    assert code == 0
    assert float(out) == pytest.approx(1.99530277766473, rel=1e-14)  # K(0.64)
    for fn, args in (("ellip_f", ("nan", "0.5")), ("comp_k", ("nan",)),
                     ("cel", ("0.5", "inf", "1", "1"))):
        code, _, err = run_cli("special", "--fn", fn, *args)
        assert code == 2 and err.startswith("error:"), err


def grid_args(tmp_path, fmt, name, extra=()):
    out = tmp_path / name
    return out, ("grid", "--body", "tube", "--R", "1", "--Z", "0.7",
                 "--density", "1", "--r-min", "0", "--r-max", "2",
                 "--z-min", "-2", "--z-max", "2", "--nr", "3", "--nz", "3",
                 "--format", fmt, "--out", str(out), *extra)


def test_grid_csv_roundtrip_and_determinism(tmp_path):
    out1, args1 = grid_args(tmp_path, "csv", "a.csv")
    out2, args2 = grid_args(tmp_path, "csv", "b.csv")
    assert run_cli(*args1)[0] == 0
    assert run_cli(*args2)[0] == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "r,z,phi,psi,branch"
    assert len(lines) == 1 + 9
    # round-trip: parsed floats reproduce in-memory values exactly
    from appellfield import fields
    from appellfield.geometry import TubeSpec
    tube = TubeSpec(1.0, 0.7, 1.0)
    for row in lines[1:]:
        r, z, phi, psi, branch = row.split(",")
        rv, zv = float(r), float(z)
        assert float(phi) == fields.phi_tube((rv, zv), tube)
        if psi != "nan":
            assert float(psi) == fields.psi_tube((rv, zv), tube)


def test_grid_degenerate_2x2(tmp_path):
    out = tmp_path / "d.csv"
    code, _, _ = run_cli("grid", "--body", "cyl", "--R", "1", "--Z", "0.7",
                         "--density", "1", "--r-min", "0", "--r-max", "2",
                         "--z-min", "-1", "--z-max", "1", "--nr", "2", "--nz", "2",
                         "--format", "csv", "--out", str(out))
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 5


def test_grid_interior_psi_is_nan(tmp_path):
    out = tmp_path / "c.csv"
    code, _, _ = run_cli("grid", "--body", "cyl", "--R", "1", "--Z", "0.7",
                         "--density", "1", "--r-min", "0.2", "--r-max", "0.2",
                         "--z-min", "0", "--z-max", "0.1", "--nr", "2", "--nz", "2",
                         "--format", "csv", "--out", str(out))
    # nr = 2 with equal r bounds duplicates the column; psi must be nan inside
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.split(",")[3] == "nan" for row in rows)


def test_grid_branch_sheets(tmp_path):
    out, args = grid_args(tmp_path, "csv", "s.csv", ("--branch", "-1", "0", "1"))
    assert run_cli(*args)[0] == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 27
    branches = {row.split(",")[4] for row in lines[1:]}
    assert branches == {"-1", "0", "1"}
    # phi is the same on every sheet; psi on sheet b is psi_tube's bit for bit
    from appellfield import fields
    from appellfield.geometry import TubeSpec
    tube = TubeSpec(1.0, 0.7, 1.0)
    phis = {}
    for row in lines[1:]:
        r, z, phi, psi, b = row.split(",")
        phis.setdefault((r, z), set()).add(phi)
        if psi == "nan":
            with pytest.raises(SingularityError):
                fields.psi_tube((float(r), float(z)), tube, branch=int(b))
        else:
            assert psi == repr(fields.psi_tube((float(r), float(z)), tube, branch=int(b)))
    assert len(phis) == 9 and all(len(v) == 1 for v in phis.values())


def test_grid_json_schema(tmp_path):
    out, args = grid_args(tmp_path, "json", "g.json")
    assert run_cli(*args)[0] == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["body"] == "tube"
    assert payload["meta"]["nr"] == 3
    assert len(payload["rows"]) == 9
    row = payload["rows"][0]
    assert set(row) == {"r", "z", "phi", "psi", "branch"}


@pytest.mark.parametrize("density", ["nan", "inf", "-inf"])
def test_nonfinite_density_is_an_error(tmp_path, density):
    code, out, err = run_cli("eval", "--body", "tube", "--R", "1", "--Z", "0.7",
                             f"--density={density}", "--r", "1.5", "--z", "0.3")
    assert code == 2 and out == "" and err.startswith("error:")
    path, args = grid_args(tmp_path, "json", "g.json", (f"--density={density}",))
    code, _, err = run_cli(*args)
    assert code == 2 and err.startswith("error:") and not path.exists()


def test_grid_workers_match_sequential(tmp_path):
    sheets = ("--branch", "-1", "0", "1")
    out1, args1 = grid_args(tmp_path, "csv", "w1.csv", sheets)
    out2, args2 = grid_args(tmp_path, "csv", "w2.csv", (*sheets, "--workers", "2"))
    assert run_cli(*args1)[0] == 0
    assert run_cli(*args2)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_grid_workers_below_one_rejected(tmp_path, workers):
    out, args = grid_args(tmp_path, "csv", "w.csv", ("--workers", workers))
    code, _, err = run_cli(*args)
    assert code == 2 and "--workers" in err
    assert not out.exists()


@pytest.mark.parametrize("cpus, expected", [(2, 2), (64, 3), (None, 1)])
def test_grid_workers_capped(tmp_path, monkeypatch, cpus, expected):
    # a worker takes whole columns, so the pool is never wider than the CPUs
    # or the 3 grid columns; a recording executor stands in for the process
    # pool and maps in this process
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    out1, args1 = grid_args(tmp_path, "csv", "seq.csv")
    out2, args2 = grid_args(tmp_path, "csv", "capped.csv", ("--workers", "100000"))
    assert run_cli(*args1)[0] == 0 and sizes == []
    assert run_cli(*args2)[0] == 0
    assert sizes == ([] if expected == 1 else [expected])
    assert out1.read_bytes() == out2.read_bytes()


def _grid_cells(out, fmt):
    """(r, z, phi, psi, branch) of every row of a grid file, the values as
    written (CSV text; JSON numbers or None)."""
    if fmt == "csv":
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        return [(float(r), float(z), phi, psi, int(b)) for r, z, phi, psi, b in rows]
    return [(row["r"], row["z"], row["phi"], row["psi"], row["branch"])
            for row in json.loads(out.read_text())["rows"]]


def test_grid_injected_failures_are_reported(tmp_path, monkeypatch):
    # phi_tube raises ConvergenceError at two chosen cells of a 3-sheet grid:
    # those phi cells are empty on every sheet, each failure is one stderr
    # line (phi is computed once per cell), every other cell is what the
    # unpatched grid writes, and the exit code is 1
    from appellfield import fields
    from appellfield.errors import ConvergenceError

    bad = [(0.0, 2.0), (2.0, -2.0)]
    phi_tube = fields.phi_tube

    def failing(point, spec, **kwargs):
        if tuple(point) in bad:
            raise ConvergenceError("injected")
        return phi_tube(point, spec, **kwargs)

    sheets = ("--branch", "-1", "0", "1")
    for fmt in ("csv", "json"):
        out, args = grid_args(tmp_path, fmt, f"ref.{fmt}", sheets)
        assert run_cli(*args)[0] == 0
        expected = [(r, z, ("nan" if fmt == "csv" else None) if (r, z) in bad else phi, psi, b)
                    for r, z, phi, psi, b in _grid_cells(out, fmt)]
        with monkeypatch.context() as patch:
            patch.setattr(fields, "phi_tube", failing)
            out, args = grid_args(tmp_path, fmt, f"failed.{fmt}", sheets)
            code, _, err = run_cli(*args)
        assert code == 1
        assert sorted(err.splitlines()) == sorted(
            f"failed: phi at (r, z) = ({r!r}, {z!r}): injected" for r, z in bad)
        cells = _grid_cells(out, fmt)
        assert cells == expected
        assert sum(phi in ("nan", None) for _, _, phi, _, _ in cells) == 2 * 3


def test_grid_untyped_error_exits_2(tmp_path, monkeypatch):
    from appellfield import fields

    def broken(point, spec, **kwargs):
        raise ZeroDivisionError("broken")

    monkeypatch.setattr(fields, "phi_tube", broken)
    out, args = grid_args(tmp_path, "csv", "b.csv")
    code, _, err = run_cli(*args)
    assert code == 2 and err.startswith("internal error: ZeroDivisionError")
    assert not out.exists()


def _scalar_row(body, spec, r, z, quantity, branch):
    """The CSV cells phi, psi of one grid row, from scalar calls."""
    from appellfield import fields
    phi_fn = {"cyl": fields.phi_cyl, "tube": fields.phi_tube, "disk": fields.phi_disk}[body]
    psi_fn = {"cyl": fields.psi_cyl, "tube": lambda p, s: fields.psi_tube(p, s, branch=branch),
              "disk": lambda p, s: None}[body]
    cells = []
    for q, fn in (("phi", phi_fn), ("psi", psi_fn)):
        value = None
        if quantity in (q, "both"):
            try:
                value = fn((r, z), spec)
            except SingularityError:
                pass
        cells.append("nan" if value is None else repr(value))
    return cells


def _differential_windows():
    # the r = R column, the rows z = +-Z and z = 0, the edge circle and the
    # tube sheet lie on the fixed window; the seeded ones move everything
    rng = np.random.default_rng(14)
    windows = [(0.0, 2.0, -1.5, 1.5, 5, 9)]
    for _ in range(2):
        r_max = float(rng.uniform(0.5, 3.0))
        z_lo = float(rng.uniform(-3.0, 0.0))
        windows.append((0.0, r_max, z_lo, float(z_lo + rng.uniform(0.5, 4.0)), 4, 7))
    return windows


@pytest.mark.parametrize("quantity", ["phi", "psi", "both"])
@pytest.mark.parametrize("body", ["cyl", "tube", "disk"])
def test_grid_rows_equal_scalar_calls(tmp_path, body, quantity):
    from appellfield.geometry import CylinderSpec, DiskSpec, TubeSpec
    spec = {"cyl": CylinderSpec(1.0, 0.75, 1.0), "tube": TubeSpec(1.0, 0.75, 1.0),
            "disk": DiskSpec(1.0, 1.0)}[body]
    branches = ("-1", "0", "1") if body == "tube" else ("0",)
    for i, (r0, r1, z0, z1, nr, nz) in enumerate(_differential_windows()):
        out = tmp_path / f"{body}-{quantity}-{i}.csv"
        code, _, err = run_cli("grid", "--body", body, "--R", "1", "--Z", "0.75",
                               "--density", "1", "--r-min", repr(r0), "--r-max", repr(r1),
                               "--z-min", repr(z0), "--z-max", repr(z1), "--nr", str(nr),
                               "--nz", str(nz), "--quantity", quantity,
                               "--branch", *branches, "--out", str(out))
        assert code == 0, err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == len(branches) * nr * nz
        for r, z, phi, psi, b in rows:
            assert [phi, psi] == _scalar_row(body, spec, float(r), float(z),
                                             quantity, int(b)), (r, z, b)


# A grid in a subprocess with the term cap at 64: the sums the batch cannot
# finish within the cap fall to the scalar calls, which raise the same
# ConvergenceError, so cells and failure lines match the scalar calls'
_LOW_CAP_GRID = """
import contextlib, io, json, sys
from appellfield import cli, fields, hypergeom
from appellfield.errors import AppellFieldError, SingularityError
from appellfield.geometry import CylinderSpec, TubeSpec
hypergeom.MAX_TERMS = 64
body, out = sys.argv[1], sys.argv[2]
spec = {"cyl": CylinderSpec(1.0, 0.75, 1.0), "tube": TubeSpec(1.0, 0.75, 1.0)}[body]
branches = [-1, 0, 1] if body == "tube" else [0]
batch, left = hypergeom.i_hyg_pi_batch, []
hypergeom.i_hyg_pi_batch = lambda *a: left.append(batch(*a)) or left[-1]
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main(["grid", "--body", body, "--R", "1", "--Z", "0.75", "--density", "1",
                     "--r-min", "0", "--r-max", "2", "--z-min", "-1.5", "--z-max", "1.5",
                     "--nr", "5", "--nz", "9", "--branch", *map(str, branches),
                     "--out", out])
phi_fn = {"cyl": fields.phi_cyl, "tube": fields.phi_tube}[body]
psi_fn = {"cyl": lambda p, b: fields.psi_cyl(p, spec),
          "tube": lambda p, b: fields.psi_tube(p, spec, branch=b)}[body]
cells, failed = [], []
for b in branches:
    for r in (0.0, 0.5, 1.0, 1.5, 2.0):
        for z in (-1.5 + 0.375 * i for i in range(9)):
            row = []
            for q, fn in (("phi", lambda p: phi_fn(p, spec)), ("psi", lambda p: psi_fn(p, b))):
                value = None
                try:
                    value = fn((r, z))
                except SingularityError:
                    pass
                except AppellFieldError as exc:
                    if b == branches[0]:
                        failed.append(f"failed: {q} at (r, z) = ({r!r}, {z!r}): {exc}")
                row.append("nan" if value is None else repr(value))
            cells.append(row)
print(json.dumps({"code": code, "err": err.getvalue().splitlines(), "failed": failed,
                  "cells": cells, "nan_left": int(sum(v != v for v in left[0].tolist()))}))
"""


@pytest.mark.parametrize("body", ["cyl", "tube"])
def test_grid_under_a_low_term_cap_equals_the_scalar_calls(tmp_path, body):
    out = tmp_path / f"{body}.csv"
    res = subprocess.run([sys.executable, "-c", _LOW_CAP_GRID, body, str(out)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    rows = [line.split(",")[2:4] for line in out.read_text().splitlines()[1:]]
    assert rows == got["cells"]
    assert got["err"] == got["failed"] and got["code"] == 1
    # the cap makes sums fail, in the batch and in the scalar calls
    assert got["nan_left"] > 0 and any("within 64 terms" in line for line in got["failed"])


def test_grid_batches_only_phi_of_the_cylinder_and_tube(tmp_path, monkeypatch):
    from appellfield import hypergeom
    calls = count_calls(monkeypatch, hypergeom, ("i_hyg_pi_batch",))
    for body, quantity, batches in (("cyl", "psi", 0), ("tube", "psi", 0), ("disk", "phi", 0),
                                    ("disk", "both", 0), ("cyl", "phi", 1),
                                    ("tube", "both", 1)):
        before = calls["i_hyg_pi_batch"]
        out = tmp_path / f"{body}-{quantity}.csv"
        code, _, err = run_cli("grid", "--body", body, "--R", "1", "--Z", "0.7",
                               "--density", "1", "--r-min", "0", "--r-max", "2",
                               "--z-min", "-1", "--z-max", "1", "--nr", "3", "--nz", "3",
                               "--quantity", quantity, "--out", str(out))
        assert code == 0, err
        assert calls["i_hyg_pi_batch"] - before == batches, (body, quantity)


def test_nonfinite_result_is_a_typed_error(tmp_path):
    # at density 1e308 the tube's phi and psi overflow at valid points: the
    # grid reports every cell as failed and writes the whole file, CSV or
    # JSON, with exit code 1; eval exits 2 with an error
    grid = ("grid", "--body", "tube", "--R", "1", "--Z", "0.7", "--density", "1e308",
            "--r-min", "0.5", "--r-max", "2", "--z-min", "0", "--z-max", "1",
            "--nr", "2", "--nz", "2")
    for fmt in ("csv", "json"):
        out = tmp_path / f"dense.{fmt}"
        code, _, err = run_cli(*grid, "--format", fmt, "--out", str(out))
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 8 and all(line.startswith("failed: ") and "not finite" in line
                                       for line in lines)
        if fmt == "csv":
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert len(rows) == 4 and all(row[2:4] == ["nan", "nan"] for row in rows)
        else:
            rows = json.loads(out.read_text())["rows"]
            assert len(rows) == 4 and all(row["phi"] is row["psi"] is None for row in rows)
    code, out, err = run_cli("eval", "--body", "tube", "--R", "1", "--Z", "0.7",
                             "--density", "1e308", "--r", "0.5", "--z", "0")
    assert code == 2 and out == "" and "not finite" in err
    # at 1e307 sheet 0 is finite and the sheet-1 psi overflows at z = 1
    out = tmp_path / "sheets.csv"
    code, _, err = run_cli(*grid[:8], "1e307", *grid[9:], "--branch", "-1", "0", "1",
                           "--out", str(out))
    assert code == 1
    assert [line.split(":")[:2] for line in err.splitlines()] == [
        ["failed", " psi at (r, z) = (0.5, 1.0) on sheet 1"],
        ["failed", " psi at (r, z) = (2.0, 1.0) on sheet 1"]]
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[3] == "nan" for row in rows] == [False] * 9 + [True, False, True]


def test_verify_subset():
    code, out, _ = run_cli("verify", "--suite", "fast", "--seed", "42",
                           "--only", "C02", "C15")
    assert code == 0
    assert "C02" in out and "C15" in out and "2/2 checks passed" in out


def test_public_names_resolve():
    res = subprocess.run([sys.executable, "-c", "from appellfield import *"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_console_entry_point():
    res = subprocess.run([sys.executable, "-m", "appellfield", "special",
                          "--fn", "comp_k", "0.85"], capture_output=True, text=True)
    assert res.returncode == 0
    assert float(res.stdout) == pytest.approx(2.389, abs=1e-3)


# (r, z, phi, psi) of the R = 1, Z = 0.7, unit-density figure bodies on a
# 7 x 5 grid over r in [0, 3], z in [0, 3], as written by the anti-diagonal
# F2 route; None marks psi inside the cylinder and on the tube sheet
SEED_GRIDS = {
    "cyl": (
        (0.0, 0.0, 6.390787740701399, None),
        (0.0, 0.75, 4.777358210104294, 4.39822971502571),
        (0.0, 1.5, 2.7929782517780115, 4.3982297150257095),
        (0.0, 2.25, 1.916782110743398, 4.398229715025712),
        (0.0, 3.0, 1.4507865525603485, 4.398229715025709),
        (0.5, 0.0, 5.930744567230238, None),
        (0.5, 0.75, 4.473174525479232, 3.916570923590253),
        (0.5, 1.5, 2.6846038908764474, 4.200623384171153),
        (0.5, 2.25, 1.8759806084590913, 4.299379113256782),
        (0.5, 3.0, 1.432160110832644, 4.340240227630649),
        (1.0, 0.0, 4.432497544027597, None),
        (1.0, 0.75, 3.5712629020415783, 2.790140519613126),
        (1.0, 1.5, 2.4047444896546892, 3.7133401585828825),
        (1.0, 2.25, 1.7659637053578088, 4.035424929554027),
        (1.0, 3.0, 1.38006773983955, 4.178514555749626),
        (1.5, 0.0, 2.9687036588958, 0.0),
        (1.5, 0.75, 2.6460412347339517, 2.024245735916841),
        (1.5, 1.5, 2.066137624887098, 3.1575471872418106),
        (1.5, 2.25, 1.6162449686647413, 3.6813116096124716),
        (1.5, 3.0, 1.3040806626933303, 3.9436816578228218),
        (2.0, 0.0, 2.218578665772985, 0.0),
        (2.0, 0.75, 2.0718616563174326, 1.5758986551774399),
        (2.0, 1.5, 1.7597231896719343, 2.6734322027579474),
        (2.0, 2.25, 1.4567099719367143, 3.308896792694547),
        (2.0, 3.0, 1.2155200406505102, 3.671361257541818),
        (2.5, 0.0, 1.7701325741930791, 0.0),
        (2.5, 0.75, 1.6929437098077944, 1.2829421502908893),
        (2.5, 1.5, 1.5106815391179715, 2.2871758079110514),
        (2.5, 2.25, 1.3062683273898976, 2.961074912269396),
        (2.5, 3.0, 1.1239081810789457, 3.3909347118541078),
        (3.0, 0.0, 1.4726068831308865, 0.0),
        (3.0, 0.75, 1.4274217676743337, 1.0789899647759569),
        (3.0, 1.5, 1.3134877853901692, 1.9842258308003622),
        (3.0, 2.25, 1.1727510797269503, 2.6543926922637624),
        (3.0, 3.0, 1.035516704943678, 3.1213699224483236),
    ),
    "tube": (
        (0.0, 0.0, 8.201649956992016, 0.0),
        (0.0, 0.75, 7.016590996842119, 8.79645943005142),
        (0.0, 1.5, 5.0076499263031335, 8.79645943005142),
        (0.0, 2.25, 3.6463419532372674, 8.796459430051419),
        (0.0, 3.0, 2.8210378135150957, 8.79645943005142),
        (0.5, 0.0, 8.516441283779216, 0.0),
        (0.5, 0.75, 7.097244150232951, 8.426418773573797),
        (0.5, 1.5, 4.914518260506971, 8.508362800071911),
        (0.5, 2.25, 3.5881653715421944, 8.625849833744446),
        (0.5, 3.0, 2.7899661376396505, 8.689790256272017),
        (1.0, 0.0, 9.57219548063001, None),
        (1.0, 0.75, 7.126935788223514, 6.6540237974180245),
        (1.0, 1.5, 4.596437213877984, 7.682386274486253),
        (1.0, 2.25, 3.4208656985880967, 8.151054969088795),
        (1.0, 3.0, 2.701201954336467, 8.387912669098293),
        (1.5, 0.0, 6.231330101793334, 0.0),
        (1.5, 0.75, 5.403005937737787, 4.467101673520242),
        (1.5, 1.5, 4.072458117536653, 6.579084628915446),
        (1.5, 2.25, 3.1719101277552992, 7.477755989645441),
        (1.5, 3.0, 2.567294043588035, 7.939508938231356),
        (2.0, 0.0, 4.57047576669825, 0.0),
        (2.0, 0.75, 4.217001810964801, 3.3705356365375927),
        (2.0, 1.5, 3.5140729203938217, 5.551660509931363),
        (2.0, 2.25, 2.8858908079907204, 6.738235592217558),
        (2.0, 3.0, 2.405678640591363, 7.407595344121521),
        (2.5, 0.0, 3.609848951763954, 0.0),
        (2.5, 0.75, 3.43269497702365, 2.6920685241807334),
        (2.5, 1.5, 3.030742807293257, 4.721679620417126),
        (2.5, 2.25, 2.602578598427618, 6.030267877944304),
        (2.5, 3.0, 2.2335329866137243, 6.850007826630417),
        (3.0, 0.0, 2.9857433162020586, 0.0),
        (3.0, 0.75, 2.8855024213806755, 2.2362023828440734),
        (3.0, 1.5, 2.638734933517575, 4.073430525064403),
        (3.0, 2.25, 2.343837132537751, 5.399053097794283),
        (3.0, 3.0, 2.0638100523269296, 6.307596970725118),
    ),
}


@pytest.mark.parametrize("body", sorted(SEED_GRIDS))
def test_grid_matches_anti_diagonal_values(tmp_path, body):
    out = tmp_path / f"{body}.json"
    code, _, _ = run_cli("grid", "--body", body, "--R", "1", "--Z", "0.7",
                         "--density", "1", "--r-min", "0", "--r-max", "3",
                         "--z-min", "0", "--z-max", "3", "--nr", "7", "--nz", "5",
                         "--format", "json", "--out", str(out))
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == len(SEED_GRIDS[body])
    for row, (r, z, phi, psi) in zip(rows, SEED_GRIDS[body]):
        assert (row["r"], row["z"]) == (r, z)
        assert row["phi"] == pytest.approx(phi, rel=1e-12, abs=0.0)
        if psi is None:
            assert row["psi"] is None
        else:
            assert row["psi"] == pytest.approx(psi, rel=1e-12, abs=0.0)


def count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("quantity,skipped", [("phi", "psi"), ("psi", "phi")])
def test_grid_quantity_skips_the_other(tmp_path, monkeypatch, quantity, skipped):
    from appellfield import fields
    calls = count_calls(monkeypatch, fields,
                        ("phi_cyl", "psi_cyl", "phi_tube", "psi_tube"))
    for body in ("cyl", "tube"):
        for fmt in ("csv", "json"):
            out = tmp_path / f"{body}.{fmt}"
            code, _, _ = run_cli("grid", "--body", body, "--R", "1", "--Z", "0.7",
                                 "--density", "1", "--r-min", "0.5", "--r-max", "2",
                                 "--z-min", "0.8", "--z-max", "2", "--nr", "2",
                                 "--nz", "2", "--quantity", quantity,
                                 "--format", fmt, "--out", str(out))
            assert code == 0
            if fmt == "csv":
                lines = out.read_text().strip().splitlines()
                assert lines[0] == "r,z,phi,psi,branch"
                col = ("phi", "psi").index(skipped) + 2
                for line in lines[1:]:
                    cells = line.split(",")
                    assert cells[col] == "nan"
                    assert math.isfinite(float(cells[5 - col]))
            else:
                rows = json.loads(out.read_text())["rows"]
                assert all(set(row) == {"r", "z", "phi", "psi", "branch"} for row in rows)
                assert all(row[skipped] is None and row[quantity] is not None
                           for row in rows)
    assert calls[f"{skipped}_cyl"] == calls[f"{skipped}_tube"] == 0
    assert calls[f"{quantity}_cyl"] == calls[f"{quantity}_tube"] == 8


@pytest.mark.parametrize("quantity,skipped", [("phi", "psi"), ("psi", "phi")])
def test_eval_quantity_skips_the_other(monkeypatch, quantity, skipped):
    from appellfield import fields
    calls = count_calls(monkeypatch, fields, ("phi_tube", "psi_tube"))
    code, out, _ = run_cli("eval", "--body", "tube", "--R", "1", "--Z", "0.7",
                           "--density", "1", "--r", "1.5", "--z", "0.3",
                           "--quantity", quantity)
    assert code == 0
    assert out.startswith(f"{quantity}=") and len(out.strip().splitlines()) == 1
    assert calls == {f"{quantity}_tube": 1, f"{skipped}_tube": 0}
