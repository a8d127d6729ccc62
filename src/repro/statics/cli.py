"""``python -m repro.statics`` — run the invariant lint.

Usage::

    python -m repro.statics src tests examples benchmarks
    python -m repro.statics --format json --output statics-report.json src
    python -m repro.statics --list-rules
    python -m repro.statics --write-baseline statics-baseline.json \
        --justification "grandfathered pending cleanup" src

Exit codes: 0 clean (every finding baselined or pragma-suppressed),
1 findings, 2 usage/baseline errors.  When ``statics-baseline.json``
exists in the working directory it is applied automatically; pass
``--no-baseline`` to see everything.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.statics.baseline import (
    DEFAULT_BASELINE_NAME, Baseline, BaselineError,
)
from repro.statics.checkers import all_checkers
from repro.statics.engine import scan_paths
from repro.statics.report import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.statics",
        description="Invariant lint engine for the attestation stack.")
    parser.add_argument("paths", nargs="*",
                        default=["src", "tests", "examples", "benchmarks"],
                        help="files/directories to scan "
                             "(default: src tests examples benchmarks)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--baseline", metavar="FILE",
                        help=f"baseline file (default: "
                             f"./{DEFAULT_BASELINE_NAME} when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write current findings to FILE as the new "
                             "baseline and exit 0")
    parser.add_argument("--justification", metavar="TEXT",
                        default="grandfathered pending cleanup",
                        help="justification recorded on entries written "
                             "by --write-baseline")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        checkers = all_checkers(
            args.select.split(",") if args.select else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.list_rules:
        for checker in checkers:
            print(f"{checker.rule}: {checker.description}")
            print(f"    invariant: {checker.invariant}")
        return 0

    baseline = None
    if not args.no_baseline and args.write_baseline is None:
        baseline_path = Path(args.baseline) if args.baseline \
            else Path(DEFAULT_BASELINE_NAME)
        if args.baseline or baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except BaselineError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2

    result = scan_paths([Path(path) for path in args.paths], checkers,
                        baseline=baseline)

    if args.write_baseline is not None:
        try:
            Baseline.from_findings(
                result.findings,
                args.justification).save(args.write_baseline)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(result.findings)} entr"
              f"{'y' if len(result.findings) == 1 else 'ies'} to "
              f"{args.write_baseline}")
        return 0

    rendered = render_json(result) if args.format == "json" \
        else render_text(result).encode("utf-8")
    if args.output:
        Path(args.output).write_bytes(rendered)
    else:
        sys.stdout.buffer.write(rendered)
        sys.stdout.buffer.flush()
    return 0 if result.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
