"""Run the chromabraid CLI with spans installed.

Usage (src/ on PYTHONPATH):  python3 perfbench/traced_cli.py verify-paper --max-n 12

Standard output is the CLI's own, unchanged.  After the CLI's own standard
error, the last line of standard error is the tracer state as JSON, which
run.py merges into its per-layer figures.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer


def main(argv) -> int:
    from chromabraid import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(json.dumps(tracer.state()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
