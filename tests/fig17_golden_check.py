#!/usr/bin/env python3
"""Fig. 17 behaviour pin.

Runs the fig17 binary with --telemetry-out and compares the metrics
CSV it writes byte for byte against the committed golden file.  The
CSV holds only simulated values (event counts, node-seconds,
utilization, turnaround histograms of the four cluster legs, printed
at round-trip precision), so any change to what the scheduler
computes - a flipped tie-break, a moved RNG draw - shows up here,
while wall-clock figures (trace.json, the BENCH record) are ignored.

Usage:
  fig17_golden_check.py FIG17_BINARY GOLDEN_CSV SCRATCH_DIR
  fig17_golden_check.py FIG17_BINARY GOLDEN_CSV SCRATCH_DIR --regen

--regen rewrites GOLDEN_CSV from this build's output instead of
checking it; say in CHANGES.md why the pin moved.
"""

import difflib
import shutil
import subprocess
import sys
from pathlib import Path


def main(argv):
    regen = "--regen" in argv[1:]
    args = [a for a in argv[1:] if a != "--regen"]
    if len(args) != 3:
        print(f"usage: {argv[0]} FIG17_BINARY GOLDEN_CSV SCRATCH_DIR "
              "[--regen]", file=sys.stderr)
        return 2
    fig17, golden = args[0], Path(args[1])
    scratch = Path(args[2])
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)

    run = subprocess.run([fig17, f"--telemetry-out={scratch}"],
                         capture_output=True, text=True)
    if run.returncode != 0:
        print(run.stdout + run.stderr)
        print(f"FAIL: fig17 exited {run.returncode}")
        return 1
    produced = (scratch / "metrics.csv").read_bytes()

    if regen:
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_bytes(produced)
        print(f"wrote {golden} ({len(produced)} bytes)")
        return 0

    expected = golden.read_bytes()
    if produced == expected:
        print(f"ok: metrics.csv matches {golden} ({len(expected)} bytes)")
        return 0
    diff = difflib.unified_diff(
        expected.decode().splitlines(), produced.decode().splitlines(),
        fromfile=str(golden), tofile="this build", lineterm="")
    for line in list(diff)[:60]:
        print(line)
    print("FAIL: fig17 metrics differ from the golden pin")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
