"""One candlecast command in a fresh process, timed from outside the program.

    python3 perfbench/shim.py RECORD.json TRACE -- <candlecast cli arguments>

Imports ``candlecast`` from ``src/``, runs ``candlecast.cli.main`` on the
arguments (what the ``candlecast`` console script does) and writes a JSON
record: when the interpreter reached this file, when the import finished,
when ``main`` returned, the exit code and, with TRACE=1, the spans and
counters recorded around the pipeline's layer calls.  Exits with the CLI's
exit code.
"""
import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    record_path, trace, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: shim.py RECORD.json TRACE -- <cli args>")
    sys.path.insert(0, str(ROOT / "src"))
    import candlecast.cli as cli
    import candlecast.pipeline as pipeline
    t_ready = time.monotonic()
    recorder = None
    if trace == "1":
        from spans import Recorder, instrument
        recorder = Recorder()
        recorder.spans.append(["cli.import", T_START, t_ready, -1])
        instrument(recorder, pipeline, cli)
        main_span = recorder.open("cli.main")
    code = cli.main(cli_args)
    if recorder is not None:
        recorder.close(main_span)
    t_done = time.monotonic()
    sys.stdout.flush()
    record = {"t_start": T_START, "t_ready": t_ready, "t_done": t_done,
              "exit": code,
              "spans": recorder.spans if recorder else [],
              "counts": recorder.counts if recorder else {}}
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
