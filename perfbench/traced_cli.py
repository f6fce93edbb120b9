"""Traced stand-in for ``python -m diracline.cli``.

Usage: ``python -m perfbench.traced_cli SPANS_JSON CLI_ARGS...``.  Installs
the tracer around the already imported package, runs ``diracline.cli.main``
exactly as the module's ``__main__`` block does, and writes this process's
spans to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys

from diracline import cli

from perfbench.tracer import Tracer


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    tracer.request = 0
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(path, "w") as fh:
            json.dump({"spans": tracer.spans, "pcf_d_repeats": len(tracer.repeat_ids)}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
