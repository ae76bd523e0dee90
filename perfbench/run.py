"""Pipeline benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cli_pipeline --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the run sets up the workload's inputs several times
(``setup_s`` is their median), then repeats the timed pass while the last
pass says the next one ends inside ``--seconds``, at least once.
``wall_s`` and ``report_s`` are means over the passes and reports,
because the host's speed switches between regimes and a median flips
between them.  With ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics from the spans of the traced
set-up, pass and selftest.  The last stdout line is the result; the line
before it is the run record (versions, sizes, samples, digests).  Exit
code 2 means the program source (``src/healthmarkov``) is missing.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads
from workloads import ROOT, SRC

DIGESTS_PATH = os.path.join(workloads.HERE, "digests.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "report_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    **{m: "s" for m in tracing.TIME_METRICS},
    **{m: "count" for m in tracing.COUNT_METRICS},
    "cli.import_s": "s",
    "cli.output_bytes": "bytes",
    "ingest.rows_per_s": "1/s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "ingest_rows_per_s": "1/s",
    "selftest_s": "s",
}


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    """Digest of the program source, for runs outside a git checkout."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "healthmarkov")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _check_digests(w, ledger) -> str:
    """Compare the exact outputs with digests recorded at the benchmark's sizes."""
    if w.size_args != workloads.SIZES[w.name]:
        return "not recorded for these sizes"
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        want = json.load(fh).get(w.name, {}).get(str(w.seed))
    if not want:
        return "not recorded for this seed"
    for name, digest in want.items():
        ledger.check(f"{name} digest", w.digests.get(name) == digest)
    return "checked"


def _timed_pass(w, ledger):
    t0 = time.perf_counter()
    result = w.run_pass()
    w.digest_status = _check_digests(w, ledger)
    return time.perf_counter() - t0, result


def untraced_run(w, ledger, seconds) -> tuple[dict, dict]:
    setup_times = []
    for _ in range(workloads.SETUP_REPEATS):
        t0 = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - t0)
    w.reference()
    walls, latencies = [], []
    deadline = time.perf_counter() + seconds
    # start another pass only when the last one says it ends inside the window
    while not walls or time.perf_counter() + walls[-1] <= deadline:
        wall, result = _timed_pass(w, ledger)
        walls.append(wall)
        latencies.extend(result["report_latencies"])
    w.selftest()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(walls),
        "report_s": statistics.fmean(latencies),
        "peak_rss_mb": workloads.peak_rss_mb(),
    }
    return metrics, {"setup_s": setup_times, "wall_s": walls, "report_s": latencies}


def _descendants(spans, root_id) -> list[dict]:
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out, todo = [], [root_id]
    while todo:
        for s in children.get(todo.pop(), []):
            out.append(s)
            todo.append(s["id"])
    return out


@contextlib.contextmanager
def _tracing(w, tracer):
    """Route the workload's program calls through the tracer while the block runs."""
    w.tracer = tracer
    if w.in_process:
        tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        w.tracer = None


def traced_run(w, ledger) -> tuple[dict, dict]:
    import_s = workloads.import_seconds(w.workdir)
    tracer = tracing.Tracer(run_id=os.path.basename(w.workdir))
    w.span_dir = os.path.join(w.workdir, "spans")
    os.makedirs(w.span_dir)

    with _tracing(w, tracer), tracer.span("bench.setup"):
        w.setup()
    w.reference()
    plain_wall, plain = _timed_pass(w, ledger)
    with _tracing(w, tracer):
        with tracer.span("bench.pass") as root:
            traced_wall, traced_result = _timed_pass(w, ledger)
        with tracer.span("bench.selftest"):
            selftest_s = w.selftest() or 0.0
    root_id = root.id

    spans = tracer.records() + tracing.load_spans(w.span_dir)
    times, counts = tracing.layer_totals(spans)
    missing = [m for m in w.active if times[m] <= 0]
    if missing:
        raise RuntimeError(f"layer metrics missing from the trace: {', '.join(missing)}")
    _, pass_counts = tracing.layer_totals(_descendants(spans, root_id))
    mismatched = [k for k, v in plain["counts"].items()
                  if traced_result["counts"].get(k) != v
                  or (k in pass_counts and pass_counts[k] != v)]
    if mismatched:
        raise RuntimeError(f"counts differ between the traced and untraced passes: {mismatched}; "
                           f"untraced {plain['counts']}, traced outputs {traced_result['counts']}, "
                           f"spans {pass_counts}")
    bench_ids = {s["id"] for s in spans if s["metric"].startswith("bench.")
                 and (s["id"] == root_id or s["parent"] == root_id)}
    metrics = {**times, **counts}
    metrics.update({
        "cli.import_s": import_s,
        "cli.output_bytes": traced_result["counts"].get("cli.output_bytes", 0),
        "ingest.rows_per_s": counts["ingest.rows"] / times["ingest.parse_s"]
        if times["ingest.parse_s"] else 0.0,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.coverage": tracing.covered_seconds(spans, bench_ids) / traced_wall,
        "ingest_rows_per_s": plain.get("ingest_rows_per_s", 0.0),
        "selftest_s": selftest_s,
    })
    return metrics, {"wall_s": [plain_wall], "traced_wall_s": [traced_wall], "spans": len(spans)}


def run_workload(name, seed, seconds, trace, sizes=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    import healthmarkov
    import numpy

    sizes = sizes or workloads.SIZES[name]
    ledger = workloads.Ledger()
    workdir = os.path.join(WORK_ROOT, f"{name}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    w = workloads.WORKLOADS[name](seed, workdir, sizes, ledger)
    if trace:
        metrics, samples = traced_run(w, ledger)
        units = PER_LAYER_UNITS
    else:
        metrics, samples = untraced_run(w, ledger, seconds)
        units = END_TO_END_UNITS
    failed = len(ledger.errors)
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "sizes": {**sizes, **w.sizes},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernels_backend": healthmarkov.kernels.backend(),
        "failed_share": failed / ledger.attempted,
        "errors": ledger.errors[:20],
        "digests": w.digests,
        "digest_check": w.digest_status,
        "samples": samples,
        "units": units,
    }
    if not ledger.errors:
        shutil.rmtree(workdir, ignore_errors=True)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "healthmarkov", "__init__.py")):
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
