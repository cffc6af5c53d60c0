#!/usr/bin/env python3
"""Run every workload once and print every end-to-end metric by name with its
unit, then run the benchmark self-test.

    python3 perfbench/report.py

Each workload runs in a fresh process with --trace 0, seed 0 (the seed whose
reference tables are stored with the benchmark) and the run_seconds of
BENCHMARK.json. Exits 1 on a
benchmark error (a run that exits non-zero, prints no result or reports
correct = false, or a failing self-test); failed operations are reported,
not treated as errors.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 0


def main():
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    errors = 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
             "--seed", str(SEED), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None or not result["correct"]:
            errors += 1
            print(f"{w['name']}: benchmark error (exit {proc.returncode})\n{proc.stderr}")
            continue
        print(f"{w['name']} (seed {SEED}): {result['failed']} of "
              f"{result['attempted']} operations failed")
        for m in spec["end_to_end"]:
            v = result["metrics"][m["name"]]
            print(f"  {m['name']:16s} {v['value']:14.6g} {v['unit']}")
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=ROOT)
    errors += proc.returncode != 0
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
