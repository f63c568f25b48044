"""Command line interface.

    scenario-eval run  [--config FILE] [--out DIR] [--seed N]
    scenario-eval plot --in DIR [--out DIR]

Exit codes: 0 success; 2 configuration/input problems, which are every
package error except a numerical failure, plus any OSError while reading
or writing report files and a MemoryError from sizes too large for this
machine; 3 numerical failure (NumericalInstabilityError).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, NumericalInstabilityError, ScenarioEvalError
from .harness import REPORT_HEADER, resolve_out_dir, run
from .plots import plot_report_dir

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenario-eval",
        description="Simulated evaluation of counterfactual scenario projections")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment and write report CSVs")
    run_p.add_argument("--config", default=None, metavar="FILE",
                       help="key = value config file (defaults built in)")
    run_p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (or set SCENARIO_EVAL_OUT)")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")

    plot_p = sub.add_parser("plot", help="render SVG figures from a report directory")
    plot_p.add_argument("--in", dest="report_dir", required=True, metavar="DIR",
                        help="report directory produced by 'run'")
    plot_p.add_argument("--out", default=None, metavar="DIR",
                        help="where to write the SVGs (default: the report dir)")
    return parser


def _directory(value: str | None, flag: str) -> str | None:
    """``value`` of a directory flag; an empty one is an error rather than
    the current directory."""
    if value == "":
        raise ConfigError("must name a directory, got an empty string", flag)
    return value


def _cmd_run(args) -> int:
    out_dir = resolve_out_dir(_directory(args.out, "--out"))
    report = run(args.config, out_dir, seed=args.seed)
    n_rows = len(report.report_rows)
    print(f"wrote report to {out_dir} "
          f"(seed {report.settings.experiment.seed}, {n_rows} report rows)")
    for row in report.report_rows:
        r = dict(zip(REPORT_HEADER, row))
        mae_s = f"{r['mae_of_means']:.4f}" if r["mae_of_means"] != "" else "   n/a"
        ks_s = f"{r['ks_d']:.3f}" if r["ks_d"] != "" else "  n/a"
        print(f"  approach {r['approach']} {r['variant']:<13} model {r['model_id']:>2} "
              f"scenario {r['scenario_index']}: mae {mae_s}  ks_d {ks_s}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    written = plot_report_dir(_directory(args.report_dir, "--in"),
                              _directory(args.out, "--out"))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_plot(args)
    except NumericalInstabilityError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ScenarioEvalError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
