"""A fresh interpreter (python -I) imports the package and evaluates the
scalar potentials without loading numpy, concurrent.futures, dataclasses,
inspect, typing or json; the code that builds arrays (the grid batch,
quadrature, verify) still works from a fresh process, where it loads numpy
on first use."""

import subprocess
import sys
from pathlib import Path

import appellfield
from appellfield import cli, fields, hypergeom
from appellfield.geometry import TubeSpec

SRC = str(Path(appellfield.__file__).resolve().parent.parent)

# window points off the bodies, inside the cylinder, and on the axis
POINTS = [(1.5, 0.3), (0.5, 1.2), (2.0, -1.0), (0.5, 0.0), (0.0, 0.35), (0.0, -2.0)]


def run_fresh(code, *flags):
    """stdout of ``code`` run in a fresh isolated interpreter (with the
    extra interpreter ``flags``) that imports the package under test; fails
    the test where the process fails."""
    proc = subprocess.run([sys.executable, "-I", *flags, "-c",
                           f"import sys\nsys.path.insert(0, {SRC!r})\n" + code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# every scalar entry point, run here and in a fresh process
SCALAR_CALLS = f"""
from appellfield import fields
from appellfield.geometry import CylinderSpec, DiskSpec, TubeSpec
CYL, TUBE, DISK = CylinderSpec(1.0, 0.7, 1.0), TubeSpec(1.0, 0.7, 1.0), DiskSpec(1.0, 1.0)
values = []
for p in {POINTS!r}:
    values += [fields.phi_cyl(p, CYL), fields.psi_cyl(p, CYL), fields.phi_tube(p, TUBE),
               fields.phi_disk(p, DISK), fields.phi_disk(p, DISK, "takahashi")]
    values += [fields.psi_tube(p, TUBE, branch=b) for b in (-1, 0, 1)]
"""


# kept out of the import and the scalar path: the records derive from
# geometry.Record, not frozen dataclasses, and the grid imports json only to
# write JSON
UNLOADED = ('numpy', 'concurrent.futures', 'appellfield.verify', 'dataclasses', 'inspect',
            'typing', 'json')


def test_scalar_path_loads_no_numpy():
    # -S: site's .pth files may preload typing, which would hide an import of it
    out = run_fresh(
        f"print([m for m in {UNLOADED!r} if m in sys.modules])\n"
        "import appellfield, appellfield.cli\n"
        + SCALAR_CALLS +
        "for body in ('cyl', 'tube', 'disk'):\n"
        "    assert appellfield.cli.main(['eval', '--body', body, '--R', '1', '--Z', '0.7',\n"
        "                                 '--density', '1', '--r', '1.5', '--z', '0.3',\n"
        "                                 '--quantity', 'phi']) == 0\n"
        "assert appellfield.cli.main(['eval', '--body', 'tube', '--R', '1', '--Z', '0.7',\n"
        "                             '--density', '1', '--r', '1.5', '--z', '0.3']) == 0\n"
        "print(repr(values))\n"
        f"print([m for m in {UNLOADED!r} if m in sys.modules])\n", "-S")
    here = {}
    exec(SCALAR_CALLS, here)
    lines = out.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"
    assert lines[-2] == repr(here["values"])


def test_package_attributes_resolve():
    out = run_fresh(
        "import appellfield\n"
        "print(appellfield.QuadratureSpec is appellfield.oracle.QuadratureSpec)\n"
        "print('numpy' in sys.modules)\n"
        "print(appellfield.verify.run_check('C09').passed)\n"
        "from appellfield import verify\n"
        "print(verify is appellfield.verify, 'numpy' in sys.modules)\n"
        "import appellfield.cli\n"
        "print(callable(appellfield.cli.main))\n")
    assert out.split() == ["True", "False", "True", "True", "True", "True"]
    assert not hasattr(appellfield, "no_such_module")


def test_array_paths_work_from_a_fresh_process(tmp_path):
    # the boundary route of a near-surface phi_tube runs quad_1d, which
    # loads numpy; the batch sums with numpy; the grid batches its end
    # terms; each gives what it gives in this process
    near = (1.0 + 1e-9, 0.3)
    m, A, gap = [0.3, 0.6, 0.1], [0.5, 0.2, 0.9], [1.0 - 0.3 - 0.25, 1.0 - 0.6 - 0.04, 0.0]
    grid = ["grid", "--body", "tube", "--R", "1", "--Z", "0.7", "--density", "1",
            "--r-min", "0", "--r-max", "2", "--z-min", "-1", "--z-max", "1",
            "--nr", "4", "--nz", "5", "--branch", "-1", "0", "1"]
    fresh_csv, here_csv = tmp_path / "fresh.csv", tmp_path / "here.csv"
    out = run_fresh(
        "from appellfield import fields, hypergeom\n"
        "from appellfield.geometry import TubeSpec\n"
        "print('numpy' in sys.modules)\n"
        f"print(repr(fields.phi_tube({near!r}, TubeSpec(1.0, 0.7, 1.0))))\n"
        "print('numpy' in sys.modules)\n"
        f"print(repr(hypergeom.i_hyg_pi_batch({m!r}, {A!r}, {gap!r}).tolist()))\n"
        "from appellfield import cli\n"
        f"assert cli.main({grid + ['--out', str(fresh_csv)]!r}) == 0\n")
    assert out.splitlines() == ["False", repr(fields.phi_tube(near, TubeSpec(1.0, 0.7, 1.0))),
                                "True", repr(hypergeom.i_hyg_pi_batch(m, A, gap).tolist())]
    assert cli.main(grid + ["--out", str(here_csv)]) == 0
    assert fresh_csv.read_bytes() == here_csv.read_bytes()


def test_grid_workers_take_a_process_pool_patched_before_the_grid(tmp_path):
    # cli imports concurrent.futures in the grid only; a ProcessPoolExecutor
    # patched on the module beforehand, as tests/test_cli.py patches it, is
    # the one the grid opens
    out = run_fresh(
        "import concurrent.futures, os\n"
        "from appellfield import cli\n"
        "sizes = []\n"
        "class Recorder:\n"
        "    def __init__(self, max_workers):\n"
        "        sizes.append(max_workers)\n"
        "    def __enter__(self):\n"
        "        return self\n"
        "    def __exit__(self, *exc):\n"
        "        return False\n"
        "    def map(self, fn, tasks, chunksize=1):\n"
        "        return map(fn, tasks)\n"
        "concurrent.futures.ProcessPoolExecutor = Recorder\n"
        "os.cpu_count = lambda: 2\n"
        "assert cli.main(['grid', '--body', 'cyl', '--R', '1', '--Z', '0.7', '--density', '1',\n"
        "                 '--r-min', '0', '--r-max', '2', '--z-min', '-1', '--z-max', '1',\n"
        "                 '--nr', '3', '--nz', '3', '--workers', '2',\n"
        f"                 '--out', {str(tmp_path / 'w.csv')!r}]) == 0\n"
        "print(sizes)\n")
    assert out.split() == ["[2]"]
