"""Report bytes do not depend on OpenBLAS's CPU kernel or thread count.

OpenBLAS picks a kernel per CPU (``OPENBLAS_CORETYPE`` forces one) and
splits long products over its threads, and each kernel and split sums in
its own order.  Every report that steps a distribution or fits a
regression (k12-k16, f02, f03) and the ``project`` output run here in one
subprocess per (core type, thread count), through ``cli.main``, on panels
the subprocess simulates from fixed seeds: 2,000 persons for the curves
and projections, 20,000 for the AR fits.  Every output byte must be equal
across the six runs.

A static check keeps BLAS from coming back: no module of the package may
use ``@`` or name numpy's BLAS and LAPACK entry points.  A second one keeps
one way to advance a distribution: outside ``lifted.py`` no module may name
the memoized loop or its stepper, or import a private name from ``lifted``;
they go through ``lifted.forward_distributions``.  A third one keeps one
count per panel: outside ``panel.py`` no module may name the counting
kernels; estimators read ``Panel.pair_tally`` and ``Panel.triple_tally``.
"""

import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Names through which numpy reaches BLAS or LAPACK.  ``einsum`` is one: it may
#: hand a contraction to BLAS, and its own SIMD loops sum in lanes whose width,
#: and so whose summation order, changes with the CPU.
BLAS_NAMES = frozenset({"dot", "linalg", "einsum", "matmul", "tensordot", "inner", "vdot"})

CORE_TYPES = ("Prescott", "Nehalem", "Haswell")
THREADS = ("1", "2")

CHILD = r"""
import sys

from healthmarkov import cli
from healthmarkov.config import RunConfig
from healthmarkov.panel import filter_cohort
from healthmarkov.synthetic import generate_panel, random_chain


def panel(n_persons, seed=7):
    cfg = RunConfig()
    truth = random_chain(seed=seed, entry_age=cfg.synth_entry_age, exit_age=cfg.synth_exit_age,
                         alpha=cfg.synth_alpha, attrition=cfg.synth_attrition,
                         cost_model=cfg.synth_cost_model, entry_year=cfg.synth_entry_year)
    return filter_cohort(generate_panel(truth, n_persons), age_min=cfg.age_min, age_max=cfg.age_max)


out, placeholder = sys.argv[1:3]
curves, fits = panel(2_000), panel(20_000)
jobs = [(curves, ["report", rid]) for rid in ("k12", "k13", "k14", "f02", "f03")]
jobs += [(fits, ["report", rid]) for rid in ("k15", "k16")] + [(curves, ["project"])]
for built, command in jobs:
    cli._load_panel = lambda cfg, built=built: built
    args = ["--output-dir", out, "--set", f"input.panel={placeholder}",
            "--set", "project.q5_values=[267000,500000,1000000]", *command]
    if cli.main(args) != 0:
        raise SystemExit(f"{command} failed")
"""


def _blas_name() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (KeyError, TypeError):  # an older numpy, or a build that does not say
        return "unknown"


def _skip_reason() -> str | None:
    machine = platform.machine()
    if machine.lower() not in ("x86_64", "amd64"):
        return f"OPENBLAS_CORETYPE names x86-64 kernels; this machine is {machine}"
    blas = _blas_name()
    if "openblas" not in blas.lower():
        return f"numpy's BLAS is {blas}, not OpenBLAS; OPENBLAS_CORETYPE and OPENBLAS_NUM_THREADS do not apply"
    return None


SKIP_REASON = _skip_reason()


@pytest.mark.skipif(SKIP_REASON is not None, reason=str(SKIP_REASON))
def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    placeholder = tmp_path / "panel.csv"  # the config check wants a file; the runs use built panels
    placeholder.write_text("")
    outputs = {}
    for core in CORE_TYPES:
        for threads in THREADS:
            out = tmp_path / f"{core}-{threads}"
            env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
            env.pop("HEALTHMARKOV_OUTPUT_DIR", None)
            done = subprocess.run([sys.executable, "-c", CHILD, str(out), str(placeholder)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs[core, threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    names = ["f02.csv", "f03.csv", "k12.csv", "k13.csv", "k14.csv", "k15.csv", "k16.csv", "projections.json"]
    first = (CORE_TYPES[0], THREADS[0])
    assert sorted(outputs[first]) == names
    differ = [f"{name}: {core} x {threads} threads" for (core, threads), files in outputs.items()
              for name in names if files.get(name) != outputs[first][name]]
    assert not differ, f"differs from {first[0]} x {first[1]} thread: " + "; ".join(differ)


def blas_uses(source: str) -> list[str]:
    """Line and spelling of every ``@``, ``@=`` and BLAS name in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            dotted += [alias.name for alias in node.names]
            if any(BLAS_NAMES.intersection(name.split(".")) for name in dotted):
                found.append(f"{node.lineno}: import {', '.join(dotted)}")
    return found


@pytest.mark.parametrize("source", [
    "y = a @ b", "a @= b", "y = w.dot(v)", "np.linalg.lstsq(X, y)", "import numpy.linalg",
    "from numpy import einsum", "from numpy.linalg import inv", "np.matmul(a, b)",
    "np.tensordot(a, b)", "np.inner(a, b)", "np.vdot(a, b)", "x = dot(a, b)",
])
def test_blas_check_sees_every_spelling(source):
    assert blas_uses(source)


def test_package_calls_no_blas():
    found = [f"{path.name}:{use}" for path in sorted((SRC / "healthmarkov").glob("*.py"))
             for use in blas_uses(path.read_text(encoding="utf-8"))]
    assert found == []


#: The forward loop and its stepper, which only lifted.py may name.
FORWARD_INTERNALS = frozenset({"_forward_pass", "_step"})


def forward_internals_used(source: str) -> list[str]:
    """Line and spelling of every use of ``FORWARD_INTERNALS`` and private import from ``lifted``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in FORWARD_INTERNALS:
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in FORWARD_INTERNALS:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "lifted":
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            if private:
                found.append(f"{node.lineno}: from {node.module} import {', '.join(private)}")
    return found


@pytest.mark.parametrize("source", [
    "from .lifted import _forward", "from healthmarkov.lifted import MASS_EPS, _operator",
    "passes = _forward_pass(window, 30, 5, 0)", "v = lifted._step(model, 31, v)",
])
def test_forward_check_sees_every_spelling(source):
    assert forward_internals_used(source)


def test_forward_check_lets_the_entry_through():
    assert forward_internals_used("from .lifted import SHOCK_STARTS, forward_distributions") == []


def test_package_advances_distributions_through_one_entry():
    found = [f"{path.name}:{use}" for path in sorted((SRC / "healthmarkov").glob("*.py"))
             if path.name != "lifted.py" for use in forward_internals_used(path.read_text(encoding="utf-8"))]
    assert found == []


#: The counting kernels, which only panel.py may name.
COUNTING_KERNELS = frozenset({"pair_counts", "triple_counts"})


def counting_kernels_named(source: str) -> list[str]:
    """Line and spelling of every name, attribute and import of ``COUNTING_KERNELS``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in COUNTING_KERNELS:
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in COUNTING_KERNELS:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            named = [alias.name for alias in node.names if alias.name in COUNTING_KERNELS]
            if named:
                found.append(f"{node.lineno}: from {node.module} import {', '.join(named)}")
    return found


@pytest.mark.parametrize("source", [
    "from .kernels import pair_counts", "from healthmarkov.kernels import N_LETTERS, triple_counts",
    "counts = kernels.pair_counts(panel.states)", "count = triple_counts",
])
def test_counting_check_sees_every_spelling(source):
    assert counting_kernels_named(source)


def test_counting_check_lets_the_tallies_through():
    assert counting_kernels_named("tally = panel.pair_tally if lag == 1 else panel.triple_tally") == []


def test_package_counts_only_through_the_panel():
    found = [f"{path.name}:{use}" for path in sorted((SRC / "healthmarkov").glob("*.py"))
             if path.name != "panel.py" for use in counting_kernels_named(path.read_text(encoding="utf-8"))]
    assert found == []
