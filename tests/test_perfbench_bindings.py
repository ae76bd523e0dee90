"""The benchmark's tracer still finds every program name it binds to.

perfbench/tracing.py wraps functions by module and attribute name, and
perfbench/run.py writes ``kernels.backend()`` into every run record.  A
rename of either would otherwise surface only in the benchmark's own
smoke run.  This test reads perfbench and changes nothing in it.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)
        sys.modules.pop("tracing", None)


def test_tracer_binds_every_target_and_restores_them(tracing):
    import healthmarkov.cli as cli
    import healthmarkov.estimate as estimate
    import healthmarkov.kernels as kernels

    originals = (estimate.ar_regression, cli.ar_regression, dict(cli.REPORTS))
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        assert estimate.ar_regression is not originals[0]
    finally:
        tracer.uninstall()
    assert (estimate.ar_regression, cli.ar_regression, cli.REPORTS) == originals
    assert callable(kernels.backend)
