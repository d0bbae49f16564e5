"""``repro serve`` with the benchmark's span wrappers installed.

Usage (the traced ``service-mix`` run starts it this way)::

    PYTHONPATH=src python bench/serve_traced.py --spans SPANS.jsonl serve [serve options]

Installs the wrappers of ``bench/spans.py``, then calls
``repro.harness.cli.main`` with the remaining arguments.  When the
server exits (SIGINT), the spans it recorded are written to
``SPANS.jsonl``, one JSON object per line.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, metavar="SPANS.jsonl")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    recorder = spans.Recorder()
    recorder.enabled = True
    spans.install(recorder)
    from repro.harness.cli import main as cli_main

    try:
        return cli_main(args.cli_args)
    finally:
        spans.dump(recorder.spans, args.spans)


if __name__ == "__main__":
    sys.exit(main())
