"""`python3 perfbench/cli_shim.py ARGS...` runs `k0 ARGS...` with the layer
wrappers installed, and writes the span aggregates to the file named by
PERFBENCH_TRACE_OUT when the command ends, whatever its exit code."""

from __future__ import annotations

import json
import os
import sys

import spans

import k0av.cli


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    try:
        return k0av.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
