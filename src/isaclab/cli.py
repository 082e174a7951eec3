"""Command line front end for the experiment harness.

Exit codes: 0 success, 2 configuration/validation failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
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
                        help="processes that run shares of the trials "
                             "(>= 1; forked, at most one per trial and per "
                             "available CPU); rows are the same at any value")
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
        cfg = harness.load_config(args.config, {"master_seed": args.seed,
                                                "workers": args.workers})
        out_dir = Path(args.out) if args.out else cfg.base_dir / cfg.output_dir
        if args.command == "ambiguity":
            lines = harness.ambiguity_rows(cfg, args.doppler_span,
                                           args.doppler_bins)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "ambiguity.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            print(path)
            return EXIT_OK
        if args.command in ("simulate", "sync"):
            store = out_dir / "reports" if cfg.store_reports else None
            run = (harness.run_experiment if args.command == "simulate"
                   else harness.run_sync)
            rows = run(cfg, store_dir=store)
        elif args.command == "metrics":
            rows = harness.recompute_metrics(Path(args.reports), cfg)
        else:
            rows = harness.run_sweep(cfg)
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
