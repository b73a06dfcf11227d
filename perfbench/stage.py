"""Runs one `quantrange` CLI stage in this process, as the console script
does, from the `src/` tree of the checkout this file sits in.

    python3 perfbench/stage.py [--spans FILE] <quantrange arguments>

With `--spans FILE` the traced functions are wrapped first and their spans
are written to FILE as JSON when the stage ends, whether it succeeded or
not. The exit code is the CLI's.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from quantrange.cli import main  # noqa: E402


def run(argv: list[str]) -> int:
    if argv[:1] != ["--spans"]:
        return main(argv)
    import tracing

    spans_path, argv = argv[1], argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        return main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
