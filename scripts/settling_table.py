#!/usr/bin/env python3
"""Print settling times and fitted certificates for the preset sweeps.

Usage: python3 scripts/settling_table.py

The sweep's member CSVs go to a temporary directory, removed on exit.
Exits 1 when a member failed; its error goes to stderr.
"""

import sys
import tempfile
from pathlib import Path

from ftflow.experiments import FIGURES, preset, sweep


def main() -> int:
    print(f"{'label':<24} {'settled_at':>12} {'cert c':>10} {'cert a':>8} {'t_bound':>10}")
    code = 0
    configs = [preset(name) for names in FIGURES.values() for name in names]
    with tempfile.TemporaryDirectory() as tmp:
        summaries = list(sweep(*configs, outdir=Path(tmp)))
    for summary in summaries:
        settled = f"{summary.settled_at:.6f}" if summary.settled_at is not None else "-"
        if summary.certificate is not None:
            c = f"{summary.certificate.c:.4f}"
            a = f"{summary.certificate.a:.4f}"
            bound = f"{summary.certificate.t_bound:.4f}"
        else:
            c = a = bound = "-"
        print(f"{summary.label:<24} {settled:>12} {c:>10} {a:>8} {bound:>10}")
        if summary.error is not None:
            print(f"{summary.label}: {summary.error}", file=sys.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
