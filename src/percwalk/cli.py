"""Command-line entry point: run one experiment recipe and emit its report."""

from __future__ import annotations

import argparse
import sys

from percwalk.harness import ExperimentSpec, RECIPES, parse_config, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="percwalk",
        description="Random walks on percolation clusters: experiment recipes.")
    parser.add_argument("recipe", choices=sorted(RECIPES),
                        help="experiment recipe to run")
    parser.add_argument("--config", help="flat key=value parameter file")
    parser.add_argument("--out", help="directory for CSV/JSON artifacts")
    args = parser.parse_args(argv)

    try:
        params = parse_config(args.config) if args.config else {}
        report = run(ExperimentSpec(args.recipe, params, args.out))
    except ValueError as err:  # a malformed line, an unread param or a rejected value
        parser.error(str(err))
    report.write(sys.stdout)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
