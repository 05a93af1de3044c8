"""Run one cvbell CLI request with its layers wrapped.

    PERFBENCH_SPANS=spans.json python3 perfbench/cli_shim.py <cvbell arguments>

Behaves as ``python -m cvbell.cli``, then writes the spans and counts it
recorded to the file named by PERFBENCH_SPANS.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cvbell.cli  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return cvbell.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
