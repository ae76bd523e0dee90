"""Record reference SHA-256 digests of the exact outputs for some seeds.

    python3 perfbench/record_digests.py 0 21

Runs one untimed pass of each workload that has digests (cli_pipeline,
analysis_inmem) for every seed in the inclusive range and merges the
digests into digests.json.  Run it only on a commit whose outputs are
known to be right: later runs compare against what it writes.
"""

import json
import os
import shutil
import sys

import workloads
from run import DIGESTS_PATH

sys.path.insert(0, workloads.SRC)


def main(first: int, last: int) -> None:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    for name in ("cli_pipeline", "analysis_inmem"):
        for seed in range(first, last + 1):
            workdir = os.path.join(workloads.ROOT, ".bench_work", f"digests-{name}-{seed}")
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            ledger = workloads.Ledger()
            w = workloads.WORKLOADS[name](seed, workdir, workloads.SIZES[name], ledger)
            w.setup()
            w.reference()
            w.run_pass()
            if ledger.errors:
                raise SystemExit(f"{name} seed {seed}: {ledger.errors}")
            doc.setdefault(name, {})[str(seed)] = w.digests
            shutil.rmtree(workdir)
            print(name, seed, len(w.digests), flush=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
