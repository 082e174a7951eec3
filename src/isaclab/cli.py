"""Command line front end for the experiment harness.

Exit codes: 0 success, 2 configuration/validation failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import errors, harness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="isaclab",
                                description="sensing/communication "
                                            "simulation harness")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="INI experiment config")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--workers", type=int, default=None,
                        help="override worker count")
        sp.add_argument("--format", choices=("csv", "summary", "both"),
                        default="csv", help="report format")

    common(sub.add_parser("simulate", help="Monte Carlo channel/estimator runs"))
    amb = sub.add_parser("ambiguity", help="waveform ambiguity surface")
    common(amb)
    amb.add_argument("--doppler-span", type=float, default=None)
    amb.add_argument("--doppler-bins", type=int, default=65)
    met = sub.add_parser("metrics", help="recompute metrics from stored reports")
    common(met)
    met.add_argument("--reports", required=True,
                     help="directory of stored trial reports")
    common(sub.add_parser("sync", help="network synchronization trials"))
    common(sub.add_parser("sweep", help="parameter sweep of simulate runs"))
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = harness.load_config(args.config)
    except errors.ValidationError as exc:
        print("configuration errors:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except errors.ParseError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.workers is not None:
        if args.workers < 1:
            print("configuration error: --workers must be >= 1",
                  file=sys.stderr)
            return EXIT_CONFIG
        cfg.workers = args.workers
    out_dir = Path(args.out) if args.out else cfg.base_dir / cfg.output_dir

    try:
        if args.command == "simulate":
            store = out_dir / "reports" if cfg.store_reports else None
            rows = harness.run_experiment(cfg, store_dir=store)
        elif args.command == "metrics":
            rows = harness.recompute_metrics(Path(args.reports), cfg)
        elif args.command == "sync":
            rows = harness.run_sync(cfg)
        elif args.command == "sweep":
            rows = harness.run_sweep(cfg)
        elif args.command == "ambiguity":
            if args.doppler_bins < 1:
                print("configuration error: --doppler-bins must be >= 1",
                      file=sys.stderr)
                return EXIT_CONFIG
            span = args.doppler_span
            if span is not None and not (math.isfinite(span) and span > 0):
                print("configuration error: --doppler-span must be finite "
                      "and > 0", file=sys.stderr)
                return EXIT_CONFIG
            lines = harness.ambiguity_rows(cfg, span, args.doppler_bins)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "ambiguity.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            print(path)
            return EXIT_OK
        else:                                    # pragma: no cover
            return EXIT_CONFIG
        for path in harness.emit_report(rows, args.format, out_dir):
            print(path)
    except errors.ValidationError as exc:
        print("validation errors:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except errors.ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (errors.ToolkitError, ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":                       # pragma: no cover
    sys.exit(main())
