"""Command line runner for scenario files."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional, Sequence

from .expr import ExprError
from . import scenario as _scenario
from .report import render

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistcheck",
        description="verify twisted Jacobi / contact / groupoid structures "
        "declared in scenario files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the checks declared in a scenario")
    check.add_argument("scenario", help="path to a scenario JSON file")
    check.add_argument("--json", dest="json_out", default=None,
                       help="write a JSON-lines machine report to this path")

    derive = sub.add_parser("derive", help="print a derived structure in scenario syntax")
    derive.add_argument("scenario", help="path to a scenario JSON file")
    derive.add_argument("object", help="structure name to derive from")
    derive.add_argument(
        "construction",
        help="one of: jacobi, poissonize, pair_groupoid, induced_base",
    )
    return parser


@contextlib.contextmanager
def _stdout_may_close():
    """Flush stdout after the block.  If its reader is gone, as with `| head`,
    the rest of the block is dropped and stdout goes to devnull, so that the
    flush at exit does not fail again (the recipe of the signal docs)."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_check(args) -> int:
    sc = _scenario.load(args.scenario)
    outcomes = _scenario.run(sc)
    total = len(outcomes)
    failed = sum(1 for o in outcomes if not o.passed)
    with _stdout_may_close():
        for outcome in outcomes:
            print(render(outcome.record))
        print(f"{total - failed}/{total} checks passed")
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            for outcome in outcomes:
                fh.write(json.dumps(outcome.record, sort_keys=True) + "\n")
    return 0 if failed == 0 else 1


def _cmd_derive(args) -> int:
    sc = _scenario.load(args.scenario)
    fragment = _scenario.derive(sc, args.object, args.construction)
    with _stdout_may_close():
        print(json.dumps(fragment, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_derive(args)
    except (ExprError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
