#!/usr/bin/env python3
"""Run every reproduction preset and drop CSV/JSON artifacts in one place.

Usage: python3 scripts/reproduce_figures.py [--output-dir OUT]
"""

import argparse
import sys

from ftflow.cli import main as cli


def reproduce(output_dir: str) -> int:
    """Run fig1, fig2 and the conservative preset into output_dir; returns
    the first non-zero CLI exit code, else 0."""
    for argv in (
        ["repro", "fig1", "--output-dir", output_dir],
        ["repro", "fig2", "--output-dir", output_dir],
        ["run", "--preset", "conservative", "--output-dir", output_dir],
    ):
        code = cli(argv)
        if code != 0:
            return code
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="out", help="artifact directory")
    args = parser.parse_args()
    return reproduce(args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
