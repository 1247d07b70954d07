"""Host process for the resident daemon under test: ``repro.cli serve``.

Usage::

    python3 perfbench/serve.py [--trace-file PATH] -- <repro.cli serve arguments>

Runs ``repro.cli.main(["serve", ...])`` in this process.  With
``--trace-file`` the layer wrappers of :mod:`perfbench.tracer` are installed
first and start enabled (so the warm-start load is traced); each SIGUSR1
flips them off or on, and the spans are written to PATH as JSON lines when
the daemon exits.  Without it the daemon runs exactly as the CLI would.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    trace_file = None
    if argv[:1] == ["--trace-file"]:
        trace_file, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro import cli

    tracer = None
    if trace_file is not None:
        from perfbench.tracer import Tracer, install_layer_wrappers

        tracer = Tracer()
        install_layer_wrappers(tracer)
        tracer.enabled = True

        def toggle(signum, frame) -> None:
            tracer.enabled = not tracer.enabled

        signal.signal(signal.SIGUSR1, toggle)
    try:
        return cli.main(["serve", *argv])
    finally:
        if tracer is not None:
            tracer.enabled = False
            with open(trace_file, "w", encoding="utf-8") as handle:
                for span in tracer.collect():
                    handle.write(span.to_json() + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
