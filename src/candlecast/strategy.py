"""Threshold trading rules, bet sizing, and a dual-accounting backtest.

A risk/reward ratio theta sets two sigmoid thresholds, Upper = 1/(1+theta)
and Lower = theta/(1+theta): probabilities at or above Upper open a long,
at or below Lower a short, and the band in between is left alone.  Bets
are sized by conviction, |sigma - 0.5| of the accessible margin.

Every position lives exactly one candle: enter at close_t, exit at
close_{t+1}.  The backtest folds both accounting conventions in a single
pass: the compounding account lets profits grow the margin base, while the
profit-saving account siphons every pnl into a side pot and keeps sizing
off the initial margin.  Fees are charged per side (open and close), so a
round trip costs 2 * fee_rate * margin.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError
from .framing import read_rows, write_json, write_rows

LONG = "Long"
SHORT = "Short"
NO_ACTION = "NoAction"


def thresholds(theta: float) -> tuple[float, float]:
    """(Upper, Lower) action bounds; they always sum to 1."""
    theta = float(theta)
    if not 0.0 < theta < np.inf:
        raise ConfigError(f"theta must be positive, got {theta}")
    return 1.0 / (1.0 + theta), theta / (1.0 + theta)


def signal(sigma: float, upper: float, lower: float) -> str:
    """Long at or above ``upper``, short at or below ``lower``.

    When the two bounds coincide (theta = 1) a dead-center sigma falls in
    both regions; long takes precedence.
    """
    if sigma >= upper:
        return LONG
    if sigma <= lower:
        return SHORT
    return NO_ACTION


def bet_size(sigma: float) -> float:
    """Fraction of the accessible margin to commit: |sigma - 0.5|."""
    return abs(float(sigma) - 0.5)


def risk_reward(entry: float, stop_loss: float, take_profit: float) -> float:
    """|entry - stop| over |target - entry|."""
    entry, stop_loss, take_profit = float(entry), float(stop_loss), float(take_profit)
    if take_profit == entry:
        raise DataError("take-profit equal to entry gives an undefined ratio")
    return abs(entry - stop_loss) / abs(take_profit - entry)


@dataclass(frozen=True)
class StrategyConfig:
    theta: float = 1.0 / 3.0
    fee_rate: float = 0.001          # per side; a round trip pays twice
    profit_saving: bool = True       # accounting mode shown in the ledger
    initial_margin: float = 1000.0

    def __post_init__(self):
        thresholds(self.theta)      # refuses NaN and infinity, as the checks below do
        if not 0.0 <= self.fee_rate < np.inf:
            raise ConfigError(f"fee rate cannot be negative, got {self.fee_rate}")
        if not 0.0 < self.initial_margin < np.inf:
            raise ConfigError(f"initial margin must be positive, got {self.initial_margin}")


@dataclass(frozen=True)
class Trade:
    """One ledger row; ``account`` is the balance after the trade settles."""
    t: int
    sigma: float
    direction: str
    margin: float
    entry: float
    exit: float
    pnl: float
    account: float


@dataclass
class BacktestReport:
    theta: float
    fee_rate: float
    initial_margin: float
    profit_saving: bool
    trades: int
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    pnl_compounding: float           # percent of the initial margin
    pnl_profit_saving: float         # percent of the initial margin
    final_compounding: float
    final_profit_saving: float
    ledger: list = field(default_factory=list)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_backtest(sigmas, closes, labels, config: StrategyConfig) -> BacktestReport:
    """Fold the probability stream into trades and score them.

    ``closes`` must carry one candle more than ``sigmas``: position t is
    entered at closes[t] and settled at closes[t+1].  The confusion matrix
    scores acted instances against ``labels`` with long as the positive
    class; skipped candles never count.
    """
    sigmas = np.asarray(sigmas, dtype=float).reshape(-1)
    closes = np.asarray(closes, dtype=float).reshape(-1)
    labels = np.asarray(labels, dtype=float).reshape(-1)
    n = sigmas.shape[0]
    if closes.shape[0] != n + 1:
        raise DataError(f"need {n + 1} closes for {n} probabilities, got {closes.shape[0]}")
    if labels.shape[0] != n:
        raise DataError(f"need {n} labels, got {labels.shape[0]}")
    if not np.all(np.isfinite(sigmas)) or not np.all(np.isfinite(closes)):
        raise DataError("probabilities and closes must be finite")
    if np.any((sigmas < 0.0) | (sigmas > 1.0)):
        raise DataError("probabilities must be in [0, 1]")
    if np.any(closes <= 0.0):
        raise DataError("closes must be positive")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise DataError("labels must be 0 or 1")

    upper, lower = thresholds(config.theta)
    initial = config.initial_margin
    account_c = initial
    saved = 0.0
    tp = fp = tn = fn = 0
    ledger: list[Trade] = []
    for t in range(n):
        sigma = float(sigmas[t])
        direction = signal(sigma, upper, lower)
        if direction == NO_ACTION:
            continue
        bet = bet_size(sigma)
        entry, exit_ = float(closes[t]), float(closes[t + 1])
        r = (exit_ - entry) / entry
        rho = r if direction == LONG else -r
        margin_c = bet * account_c
        margin_s = bet * initial
        pnl_c = margin_c * rho - 2.0 * config.fee_rate * margin_c
        pnl_s = margin_s * rho - 2.0 * config.fee_rate * margin_s
        account_c = account_c + pnl_c
        saved = saved + pnl_s
        went_up = bool(labels[t] == 1.0)
        if direction == LONG:
            tp, fp = tp + went_up, fp + (not went_up)
        else:
            tn, fn = tn + (not went_up), fn + went_up
        if config.profit_saving:
            row = Trade(t, sigma, direction, margin_s, entry, exit_, pnl_s,
                        initial + saved)
        else:
            row = Trade(t, sigma, direction, margin_c, entry, exit_, pnl_c,
                        account_c)
        ledger.append(row)

    trades = tp + fp + tn + fn
    return BacktestReport(
        theta=config.theta, fee_rate=config.fee_rate,
        initial_margin=initial, profit_saving=config.profit_saving,
        trades=trades, tp=tp, fp=fp, tn=tn, fn=fn,
        accuracy=_ratio(tp + tn, trades),
        precision=_ratio(tp, tp + fp),
        recall=_ratio(tp, tp + fn),
        f1=_ratio(2 * tp, 2 * tp + fp + fn),
        pnl_compounding=100.0 * (account_c - initial) / initial,
        pnl_profit_saving=100.0 * saved / initial,
        final_compounding=account_c,
        final_profit_saving=initial + saved,
        ledger=ledger,
    )


_REPORT_FIELDS = tuple(f.name for f in fields(BacktestReport) if f.name != "ledger")


def report_to_dict(report: BacktestReport, extra: dict | None = None) -> dict:
    """Flat summary without the per-trade ledger; ``extra`` rides along."""
    out = {name: getattr(report, name) for name in _REPORT_FIELDS}
    if extra:
        out.update(extra)
    return out


def write_report_json(report: BacktestReport, path, extra: dict | None = None) -> None:
    write_json(path, report_to_dict(report, extra))


def write_report_csv(report: BacktestReport, path, extra: dict | None = None) -> None:
    """The same summary as ``metric,value`` rows in a fixed order."""
    items = list(report_to_dict(report).items())
    if extra:
        items += sorted(extra.items())
    write_rows(path, "metric,value", items)


_LEDGER_HEADER = "t,sigma,direction,margin,entry,exit,pnl,account"


def write_ledger_csv(ledger, path) -> None:
    write_rows(path, _LEDGER_HEADER, map(astuple, ledger))


def _trade(fields) -> Trade:
    if fields[2] not in (LONG, SHORT):
        raise ValueError(f"unknown direction {fields[2]!r}")
    return Trade(int(fields[0]), float(fields[1]), fields[2], *map(float, fields[3:]))


def read_ledger_csv(path) -> list:
    return read_rows(path, _LEDGER_HEADER, "trade ledger", _trade)
