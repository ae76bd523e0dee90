"""Traced stand-in for ``python -m healthmarkov.cli``.

Installs the layer wrappers from tracing.py, runs ``healthmarkov.cli.main``
with this process's arguments and writes the spans when main returns.  The
run id, the parent span and the span directory come from the environment
the benchmark sets.
"""

import os
import sys

import tracing


def main() -> int:
    tracer = tracing.Tracer.from_env()
    with tracer.span(tracing.IMPORT_METRIC):
        import healthmarkov.cli
    tracer.install()
    try:
        return healthmarkov.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ[tracing.SPAN_DIR_ENV])


if __name__ == "__main__":
    sys.exit(main())
