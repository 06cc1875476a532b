#!/usr/bin/env python3
"""Print when each member of `ftflow repro FIGURE` ran, and in which process.

Usage: python3 scripts/sweep_timeline.py [fig1|fig2]

Runs `ftflow repro` into a temporary directory with `experiments.run`
wrapped to record each member's start and end (`time.perf_counter`, one
clock for every process on Linux) and process id.  Prints one line per
member in the order they ended, with times in seconds from the start of
`cli.main`, then the tail: from the end of the last member's `run` to the
return of `cli.main`, the CSV and summary writing left after the last
integration.  Imports ftflow from the `src/` of the checkout it sits in.
"""

import contextlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from ftflow import cli, experiments  # noqa: E402


def main() -> int:
    figure = sys.argv[1] if len(sys.argv) > 1 else "fig1"
    run = experiments.run
    with tempfile.TemporaryDirectory() as tmp:
        marks = Path(tmp) / "marks"

        def timed_run(member):
            start = time.perf_counter()
            result = run(member)
            line = f"{member.label} {os.getpid()} {start} {time.perf_counter()}\n"
            with open(marks, "a") as fh:  # one short append per member, from any process
                fh.write(line)
            return result

        experiments.run = timed_run
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["repro", figure, "--output-dir", str(Path(tmp) / "out")])
        t1 = time.perf_counter()
        with open(marks) as fh:
            rows = sorted(
                (float(end), float(start), label, pid) for label, pid, start, end in map(str.split, fh)
            )
    workers = {}
    for end, start, label, pid in rows:
        worker = workers.setdefault(pid, len(workers))
        print(f"{label:<24} process {worker}  start {start - t0:7.3f}  end {end - t0:7.3f}")
    print(f"tail {t1 - rows[-1][0]:.3f} s of {t1 - t0:.3f} s (exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
