"""Launcher for the traced server: wrappers first, then the ordinary CLI.

``python serve_traced.py SPANS.json serve --load ...`` installs the span
wrappers of :mod:`trace`, hands the remaining arguments to
``repro.cli.main`` (so the served process is ``dbk serve`` in every other
respect, with the program's own tracer left on) and writes the recorded
spans to ``SPANS.json`` once the server has drained.
"""

from __future__ import annotations

import sys

from trace import SpanLog


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, *cli_args = argv
    from repro.cli import main as dbk

    log = SpanLog("server")
    log.install()
    try:
        return dbk(cli_args)
    finally:
        log.uninstall()
        log.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
