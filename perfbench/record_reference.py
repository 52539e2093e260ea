"""Record the task loss per seed that the benchmark checks against.

From the repository root:

    python3 perfbench/record_reference.py --workload train-d64 --seeds 0 20
    python3 perfbench/record_reference.py --workload serve-4set-d512 --seeds 0 20

Runs seeds [first, last) with the workload's exact configuration and writes
their task loss (the final train loss, or the held-out serve loss) into
perfbench/reference.json. Re-record only for a change that is meant to alter
numerics, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import BLAS_THREADS, ROOT, THREAD_VARS


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/record_reference.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    args = p.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    losses = {}
    for seed in range(*args.seeds):
        losses[str(seed)] = workloads.reference_loss(wl, seed)
        print(wl.name, seed, losses[str(seed)], flush=True)
    with open(workloads.REFERENCE_PATH, encoding="utf-8") as f:
        reference = json.load(f)
    reference.setdefault(wl.name, {}).update(losses)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
