"""Command-line front end.

    candlecast <command> [--config FILE] [key=value ...]

Commands: ingest, prepare, train, backtest, run-all, report.  Settings are
layered defaults < config file < key=value overrides; values accept ints,
floats, fractions (1/3), true/false, and comma lists.  Exit codes: 0
success, 2 configuration error, 3 data or artifact error, 4 under-fitted
training verdict, 5 internal failure.
"""
from __future__ import annotations

import argparse
import sys
import warnings

from .errors import (ArtifactError, CandlecastError, ConfigError, DataError,
                     TrainingDiverged, UnderFitted)
from .pipeline import (DEFAULTS, _format_value, build_config, report_text, run_all,
                       stage_backtest, stage_ingest, stage_prepare, stage_train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_UNDER_FITTED = 4
EXIT_INTERNAL = 5

_COMMANDS = ("ingest", "prepare", "train", "backtest", "run-all", "report")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="candlecast",
        description="Candle forecasting and backtesting pipeline.",
        epilog="Configuration keys and defaults: "
               + " ".join(f"{k}={_format_value(v)}" for k, v in sorted(DEFAULTS.items())))
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} stage")
        cmd.add_argument("--config", default=None,
                         help="key=value configuration file")
        cmd.add_argument("overrides", nargs="*", metavar="key=value",
                         help="configuration overrides")
    return parser


def _advise(report) -> str:
    return (f"training verdict: {report.status} (sigma*={report.sigma_star:.4f} "
            f"after {report.epochs_run} epochs); predictions are close to "
            "coin flips, so treat any backtest with suspicion. Consider more "
            "epochs, a lower zeta, or richer features.")


def _dispatch(args) -> int:
    config = build_config(args.config, args.overrides)
    if args.command == "ingest":
        paths = stage_ingest(config)
        print(f"wrote {paths.market}")
        return EXIT_OK
    if args.command == "prepare":
        paths = stage_prepare(config)
        print(f"prepare artifacts in {paths.root}")
        return EXIT_OK
    if args.command == "train":
        paths, report = stage_train(config)
        print(f"trained in {report.epochs_run} epochs; sigma*="
              f"{report.sigma_star:.4f}; artifacts in {paths.root}")
        if not report.well_trained:
            raise UnderFitted(_advise(report))
        return EXIT_OK
    if args.command == "backtest":
        paths, reports = stage_backtest(config)
        for report in reports:
            print(f"theta={report.theta:.4g}: {report.trades} trades, "
                  f"accuracy {report.accuracy:.4f}, "
                  f"pnl saving {report.pnl_profit_saving:.4f}%, "
                  f"compounding {report.pnl_compounding:.4f}%")
        return EXIT_OK
    if args.command == "run-all":
        paths, train_report, _ = run_all(config)
        print(report_text(config))
        if not train_report.well_trained:
            raise UnderFitted(_advise(train_report))
        return EXIT_OK
    # "report": argparse admits no other command
    print(report_text(config))
    return EXIT_OK


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a printed warning reads like an error line, without a source location
    previous, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ArtifactError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except UnderFitted as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNDER_FITTED
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CandlecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports anything
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        warnings.formatwarning = previous


if __name__ == "__main__":
    sys.exit(main())
