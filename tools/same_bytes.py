"""Digests of the run directories ``run-all`` leaves, for byte-for-byte
comparison of two checkouts.

    python3 tools/same_bytes.py

Runs ``candlecast run-all`` from this checkout's ``src/``, one process at a
time with one BLAS thread, into a temporary directory, at the settings of
perfbench's ``sine_reference`` workload (seeds 201 and 202, and 1234, which
no benchmark run uses), of its ``staged_retrain`` workload (seed 201) and at
the default config.  The settings are read from ``perfbench/run.py``'s
``WORKLOADS``.  Each run prints one line: its name, the exit code and a
sha256 over the run directory's sorted file names and bytes.

Run it in two checkouts and diff the outputs; no difference means every
run exited alike and left the same bytes.  The default config takes most
of the time (about a minute in all on a 2-core host).
"""
from __future__ import annotations

import hashlib
import importlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench():
    """``perfbench/run.py`` as a module (it imports its neighbours by name)."""
    sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module("run")


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def main() -> int:
    perfbench = _perfbench()
    workloads = perfbench.WORKLOADS
    runs = [(f"sine_reference seed={seed}", [*workloads["sine_reference"].overrides,
                                             f"seed={seed}"])
            for seed in (201, 202, 1234)]
    runs.append(("staged_retrain seed=201", [*workloads["staged_retrain"].overrides,
                                             "seed=201"]))
    runs.append(("default config", []))
    env = perfbench.blas_env()
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, settings) in enumerate(runs):
            out = Path(tmp) / f"run{i}"
            proc = subprocess.run([sys.executable, "-m", "candlecast.cli", "run-all",
                                   *settings, f"out_dir={out}"],
                                  env=env, cwd=tmp, capture_output=True)
            digest = _digest(out) if out.exists() else "-"
            print(f"{name:<26} exit {proc.returncode}  sha256 {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
