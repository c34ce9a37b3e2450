"""candlecast benchmark: pipeline workloads timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Every candlecast command runs in a fresh
process (``perfbench/shim.py``) with BLAS pinned to one thread, one command
at a time (a closed loop with one client).  The run repeats the workload's
timed operation until the next one would end more than half an operation
past ``--seconds`` (at least twice), checks every operation's outputs, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
run's operations.  With ``--trace 1`` operations alternate between untraced
and traced; the traced ones give the per-layer metrics (spans and counters
recorded around the pipeline's layer calls), the ``nn`` kernels are timed at
the run's own shapes, and a ``trace_summary`` line before the result gives
each layer's self time and share of the traced wall time.  A line with the
environment (Python, numpy, BLAS, threads, CPUs, source digest) precedes
the result in both modes.  ``--smoke`` runs each workload at a tiny size to
test the harness; its numbers are not benchmark results.

Exit status is 0 whenever a result was printed, 2 when the program's source
is missing or an argument is invalid.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import self_times, totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SHIM = HERE / "shim.py"
KERNELS = HERE / "kernels.py"

BLAS_THREADS = "1"
RUN_BUDGET_S = 165.0        # every process is killed past this point
MIN_OPS = 2                 # digests are compared across operations


@dataclass(frozen=True)
class Workload:
    kind: str                       # "run-all" or "staged"
    overrides: tuple                # candlecast key=value settings
    smoke: tuple                    # settings replacing them for --smoke
    sanity: bool = False            # criterion-10 thresholds apply


# smoke sizes follow the test suite's fast configuration
_SMOKE = ("synthetic_n=450", "indicator_windows=7,14", "top_k=26", "gbdt_rounds=8",
          "window=12", "ae_code_price=2", "ae_code_non_price=2", "ae_epochs=3",
          "ae_batch_size=96", "max_epochs=3", "batch_size=96", "theta_list=1/3,1",
          "clf_hidden=6", "clf_branch_channels=3")

WORKLOADS = {
    # the bundled synthetic market, shortened to fit a run.  Each seed does
    # the same work: top_k keeps all 26 columns of two indicator windows, so
    # the AE widths do not depend on which features the seed's GBDT ranks
    # first; AE early stop cannot fire below 20 epochs; and patience >
    # max_epochs switches off the classifier's plateau stop
    "sine_reference": Workload(
        kind="run-all",
        overrides=("synthetic_n=1000", "indicator_windows=7,14", "top_k=26",
                   "ae_epochs=8", "max_epochs=24", "patience=25"),
        smoke=_SMOKE, sanity=True),
    # ingest + prepare as set-up, then train, backtest and report as three
    # processes on the prepared run directory; the classifier runs a fixed
    # 16 epochs (patience > max_epochs)
    "staged_retrain": Workload(
        kind="staged",
        overrides=("synthetic_n=2000", "wavelet_mode=global", "ae_epochs=1",
                   "max_epochs=16", "patience=17"),
        smoke=_SMOKE + ("wavelet_mode=global",)),
}

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "sigma_star",
              "heldout_accuracy", "ok_frac")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "sigma_star": "1",
         "heldout_accuracy": "frac", "ok_frac": "frac"}

# span totals are "<span name>_s"; counters come from spans.py
PER_LAYER = {
    "pipeline.ingest_s": "s", "pipeline.prepare_s": "s", "pipeline.train_s": "s",
    "pipeline.backtest_s": "s", "pipeline.report_s": "s",
    "pipeline.artifact_bytes": "B",
    "market_data.load_csv_s": "s", "market_data.rows": "count",
    "indicators.generate_features_s": "s", "indicators.columns": "count",
    "denoise.denoise_features_s": "s", "denoise.cells": "count",
    "denoise.us_per_cell": "us",
    "feature_select.fit_gbdt_s": "s", "feature_select.trees": "count",
    "dataset.make_windows_s": "s", "dataset.save_windows_s": "s",
    "dataset.load_windows_s": "s", "dataset.bytes": "B",
    "autoencoder.train_s": "s", "autoencoder.epochs": "count",
    "autoencoder.ms_per_epoch": "ms", "autoencoder.improving_epochs_frac": "frac",
    "autoencoder.encode_s": "s",
    "trainer.train_classifier_s": "s", "trainer.epochs": "count",
    "trainer.ms_per_epoch": "ms", "classifier.predict_batch_s": "s",
    "strategy.run_backtest_s": "s", "strategy.trades": "count",
    "nn.conv1d_fwd_us.ae": "us", "nn.conv1d_bwd_us.ae": "us",
    "nn.conv1d_fwd_us.clf": "us", "nn.conv1d_bwd_us.clf": "us",
    "nn.maxpool1d_us": "us", "nn.upsample_us": "us", "nn.lstm_fwd_bwd_us": "us",
    "nn.adam_step_us": "us", "nn.conv1d_flops.ae": "flop", "nn.conv1d_bytes.ae": "B",
    "cli.process_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing source, bad arguments)."""


@dataclass
class Proc:
    args: tuple
    t_spawn: float
    t_exit: float
    exit: int
    rss_mb: float
    cpu_s: float
    record: dict | None
    output: str

    @property
    def t_ready(self) -> float:
        return self.record["t_ready"] if self.record else self.t_exit

    @property
    def wall(self) -> float:
        return self.t_exit - self.t_spawn

    def spans(self) -> list:
        """This process as a ``cli.process`` span with the child's spans
        re-parented under it."""
        out = [["cli.process", self.t_spawn, self.t_exit, -1]]
        for name, start, end, parent in (self.record or {}).get("spans", []):
            out.append([name, start, end, 0 if parent < 0 else parent + 1])
        return out


@dataclass
class Setup:
    out_dir: Path
    seconds: float
    procs: list
    problems: list


@dataclass
class Op:
    traced: bool
    wall: float
    window: tuple
    procs: list                       # the timed processes
    setup_procs: list = field(default_factory=list)
    check_procs: list = field(default_factory=list)
    run_dir: Path | None = None
    problems: list = field(default_factory=list)
    digest: str = ""
    artifact_bytes: int = 0
    train: dict | None = None
    backtest: dict | None = None


def blas_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "candlecast").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def host_probe_ms() -> float:
    """Median time of a fixed interpreter + BLAS loop.  The program does
    not run it; it shows how fast the host was during this run, so runs
    made at different host loads can be told apart."""
    import numpy as np
    a0 = np.random.default_rng(0).standard_normal((48, 48))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc, a = 0, a0
        for i in range(150_000):
            acc += i * i
        for _ in range(400):
            a = np.tanh(a @ a0 * 0.05)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment(workload: str, wl: Workload, smoke: bool) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": source_digest(),
            "host_probe_ms": host_probe_ms(), "workload": workload, "smoke": smoke,
            "settings": list(wl.smoke if smoke else wl.overrides)}


def dir_digest(path: Path) -> tuple:
    h = hashlib.sha256()
    size = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        size += len(data)
        h.update(str(f.relative_to(path)).encode() + b"\0" + data)
    return h.hexdigest(), size


class Runner:
    def __init__(self, wl: Workload, seed: int, seconds: int, trace: bool,
                 smoke: bool, work: Path):
        self.wl, self.seconds, self.trace, self.smoke = wl, seconds, trace, smoke
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = blas_env()
        self.n_procs = 0
        self.settings = list(wl.smoke if smoke else wl.overrides) + [f"seed={seed}"]
        self.setups: list[Setup] = []

    # -- processes ---------------------------------------------------------

    def spawn(self, command: str, out_dir: Path, traced: bool) -> Proc:
        self.n_procs += 1
        tag = f"p{self.n_procs}"
        record_path = self.work / f"{tag}.json"
        args = (command, *self.settings, f"out_dir={out_dir}")
        cmd = [sys.executable, str(SHIM), str(record_path), "1" if traced else "0",
               "--", *args]
        log_path = self.work / f"{tag}.log"
        with open(log_path, "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(self.deadline - t_spawn, 0.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = json.loads(record_path.read_text()) if record_path.exists() else None
        return Proc(args, t_spawn, t_exit, proc.returncode, usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime, record,
                    log_path.read_text(errors="replace"))

    def expect(self, proc: Proc, codes: tuple, problems: list) -> None:
        if proc.exit not in codes:
            tail = proc.output.strip().splitlines()[-1:] or [""]
            problems.append(f"{proc.args[0]} exited {proc.exit}, "
                            f"expected {' or '.join(map(str, codes))}: {tail[0]}")

    def verdict_exits(self) -> tuple:
        # at smoke size the classifier verdict may go either way (4: under-fitted)
        return (0, 4) if self.smoke else (0,)

    # -- operations --------------------------------------------------------

    def run_all_op(self, i: int, traced: bool) -> Op:
        out_dir = self.work / f"op{i}"
        proc = self.spawn("run-all", out_dir, traced)
        op = Op(traced, proc.t_exit - proc.t_ready, (proc.t_ready, proc.t_exit), [proc])
        self.expect(proc, self.verdict_exits(), op.problems)
        self.finish(op, out_dir, traced)
        return op

    def setup(self, j: int, traced: bool) -> None:
        out_dir = self.work / f"setup{j}"
        problems: list = []
        procs = []
        for command in ("ingest", "prepare"):
            proc = self.spawn(command, out_dir, traced)
            procs.append(proc)
            self.expect(proc, (0,), problems)
            if problems:
                break
        self.setups.append(Setup(out_dir, sum(p.wall for p in procs), procs, problems))

    def staged_op(self, i: int, traced: bool) -> Op:
        setup = self.setups[i % len(self.setups)]
        out_dir = setup.out_dir
        procs = []
        problems = list(setup.problems)
        for command, codes in (("train", self.verdict_exits()), ("backtest", (0,))):
            if problems:
                break
            proc = self.spawn(command, out_dir, traced)
            procs.append(proc)
            self.expect(proc, codes, problems)
        op = Op(traced, 0.0, (0.0, 0.0), procs, setup_procs=setup.procs,
                problems=problems)
        self.finish(op, out_dir, traced, report_is_timed=True)
        if op.procs:
            op.window = (op.procs[0].t_spawn, op.procs[-1].t_exit)
            op.wall = op.window[1] - op.window[0]
        return op

    def finish(self, op: Op, out_dir: Path, traced: bool,
               report_is_timed: bool = False) -> None:
        """`candlecast report` reads the run back through manifest
        verification; then the run directory is digested and checked."""
        if op.problems:
            return
        report = self.spawn("report", out_dir, traced)
        (op.procs if report_is_timed else op.check_procs).append(report)
        self.expect(report, (0,), op.problems)
        if "verdict:" not in report.output:
            op.problems.append("report printed no verdict")
        runs = [p for p in out_dir.iterdir() if p.is_dir()]
        if len(runs) != 1:
            op.problems.append(f"expected one run directory in {out_dir}, found {len(runs)}")
            return
        op.run_dir = runs[0]
        op.digest, op.artifact_bytes = dir_digest(op.run_dir)
        try:
            op.train = json.loads((op.run_dir / "train.json").read_text())
            op.backtest = json.loads((op.run_dir / "backtest.json").read_text())
        except (OSError, ValueError) as exc:
            op.problems.append(f"unreadable verdict files: {exc}")
            return
        if self.wl.sanity and not self.smoke:
            self.check_sanity(op)

    def check_sanity(self, op: Op) -> None:
        """The stock configuration's end-to-end thresholds (criterion 10)."""
        if op.train["status"] != "well_trained":
            op.problems.append(f"verdict {op.train['status']}, expected well_trained")
        by_theta = {round(r["theta"], 6): r for r in op.backtest["runs"]}
        at_one = by_theta.get(1.0)
        at_third = by_theta.get(round(1.0 / 3.0, 6))
        if at_one is None or not at_one["accuracy"] > 0.6:
            op.problems.append("held-out accuracy at theta=1 is not above 0.6")
        if at_third is None or not at_third["pnl_profit_saving"] > 0.0:
            op.problems.append("profit-saving PnL at theta=1/3 is not positive")

    # -- the measuring loop ------------------------------------------------

    def run(self) -> list:
        staged = self.wl.kind == "staged"
        if staged:
            # two prepared directories; timed operations alternate between them
            for j in range(2):
                self.setup(j, self.trace)
        ops: list = []
        start = time.monotonic()
        while True:
            traced = self.trace and len(ops) % 2 == 1
            op = self.staged_op(len(ops), traced) if staged \
                else self.run_all_op(len(ops), traced)
            ops.append(op)
            now = time.monotonic()
            typical = statistics.median(o.wall for o in ops)
            # stop at the operation boundary nearest to --seconds
            if len(ops) >= MIN_OPS and now + typical / 2 - start > self.seconds:
                break
            if now + 2.0 * typical > self.deadline - 10.0:
                break
        self.compare_digests(ops)
        return ops

    def compare_digests(self, ops: list) -> None:
        """Repeated runs of one seed must leave byte-identical run directories."""
        digests = [op.digest for op in ops if op.digest]
        if not digests:
            return
        reference = statistics.mode(digests)
        for op in ops:
            if op.digest and op.digest != reference:
                op.problems.append("run directory differs from the other runs of this seed")

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, ops: list, attempted: int, failed: int) -> dict:
        plain = [op for op in ops if not op.traced and not op.problems] or ops
        if self.wl.kind == "staged":
            setups = [s.seconds for s in self.setups]
        else:
            setups = [op.procs[0].t_ready - op.procs[0].t_spawn for op in plain]
        good = next((op for op in ops if op.train and op.backtest), None)
        accuracy = sigma = 0.0
        if good is not None:
            sigma = float(good.train["sigma_star"])
            at_one = [r for r in good.backtest["runs"] if abs(r["theta"] - 1.0) < 1e-9]
            accuracy = float(at_one[0]["accuracy"]) if at_one else 0.0
        values = {
            "wall_s": statistics.median(op.wall for op in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(max(p.rss_mb for p in op.procs)
                                             for op in plain),
            "sigma_star": sigma,
            "heldout_accuracy": accuracy,
            "ok_frac": (attempted - failed) / attempted,
        }
        return {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}

    def per_layer(self, ops: list) -> tuple:
        traced = [op for op in ops if op.traced] or ops
        plain = [op for op in ops if not op.traced] or ops
        rows, shares, selfs = [], [], []
        for op in traced:
            spans: list = []
            counts: dict = {}
            for proc in op.setup_procs + op.procs:
                offset = len(spans)
                spans += [[n, a, b, p + offset if p >= 0 else -1]
                          for n, a, b, p in proc.spans()]
                for key, v in (proc.record or {}).get("counts", {}).items():
                    counts[key] = counts.get(key, 0) + v
            row = {f"{name}_s": v for name, v in totals(spans).items()}
            row.update(counts)
            reports = [p for p in op.procs + op.check_procs if p.args[0] == "report"]
            row["cli.process_s"] = reports[-1].wall if reports else 0.0
            row["pipeline.artifact_bytes"] = op.artifact_bytes
            own = self_times(spans, op.window)
            attributed = sum(v for k, v in own.items() if k != "cli.process")
            row["trace.unattributed_s"] = op.wall - attributed
            by_layer: dict = {}
            for name, v in own.items():
                layer = name.split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + v
            selfs.append(by_layer)
            shares.append({k: v / op.wall for k, v in by_layer.items()})
            rows.append(row)

        def med(key):
            return statistics.median(r.get(key, 0.0) for r in rows)

        def per(num, den, scale):
            return scale * med(num) / max(med(den), 1)

        m = {key: med(key) for key in PER_LAYER if key in rows[0]}
        m["denoise.us_per_cell"] = per("denoise.denoise_features_s", "denoise.cells", 1e6)
        m["autoencoder.ms_per_epoch"] = per("autoencoder.train_s", "autoencoder.epochs", 1e3)
        m["autoencoder.improving_epochs_frac"] = per("autoencoder.improving_epochs",
                                                     "autoencoder.epochs", 1.0)
        m["trainer.ms_per_epoch"] = per("trainer.train_classifier_s", "trainer.epochs", 1e3)
        traced_wall = statistics.median(op.wall for op in traced)
        m["trace.wall_s"] = traced_wall
        m["trace.overhead_s"] = traced_wall - statistics.median(op.wall for op in plain)
        layers = sorted({k for s in shares for k in s})
        summary = {
            "wall_s": traced_wall,
            "self_s": {k: statistics.median(s.get(k, 0.0) for s in selfs) for k in layers},
            "share": {k: statistics.median(s.get(k, 0.0) for s in shares) for k in layers},
            "traced_ops": len(traced), "untraced_ops": len(plain),
        }
        return m, summary

    def kernels(self, ops: list, problems: list) -> dict:
        op = next((o for o in reversed(ops) if o.run_dir is not None), None)
        if op is None:
            return {}
        out = self.work / "kernels.json"
        cmd = [sys.executable, str(KERNELS), str(out), str(op.run_dir / "prepare.json"),
               "--", *self.settings]
        try:
            subprocess.run(cmd, env=self.env, cwd=ROOT, check=True, capture_output=True,
                           timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.SubprocessError as exc:
            problems.append(f"nn kernel timing failed: {exc}")
            return {}
        return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for testing the harness; not a result")
    args = parser.parse_args(argv)
    if not (SRC / "candlecast" / "__init__.py").exists():
        raise BenchError(f"candlecast source not found under {SRC}")

    import compileall
    compileall.compile_dir(str(SRC / "candlecast"), quiet=2)
    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(wl, args.seed, args.seconds, bool(args.trace), args.smoke, work)
        ops = runner.run()
        attempts = [op.problems for op in ops] + [s.problems for s in runner.setups]
        if args.trace:
            kernel_problems: list = []
            values, summary = runner.per_layer(ops)
            values.update(runner.kernels(ops, kernel_problems))
            attempts.append(kernel_problems)
        failed = sum(1 for problems in attempts if problems)
        attempted = len(attempts)
        for problem in (p for problems in attempts for p in problems):
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps({"environment": environment(args.workload, wl, args.smoke)}))
        print(json.dumps({"operations": [
            {"wall_s": round(op.wall, 4), "cpu_s": round(sum(p.cpu_s for p in op.procs), 4),
             "traced": op.traced, "ok": not op.problems}
            for op in ops], "setups_s": [round(s.seconds, 4) for s in runner.setups]}))
        if args.trace:
            print(json.dumps({"trace_summary": summary}, sort_keys=True))
            (WORK / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n")
            metrics = {k: {"value": values.get(k, 0.0), "unit": unit}
                       for k, unit in PER_LAYER.items()}
        else:
            metrics = runner.end_to_end(ops, attempted, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
