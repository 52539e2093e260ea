"""Print the benchmark's reference loss for every seed of every workload.

From the repository root:

    python3 tools/reference_losses.py > losses.json

Runs seeds 0-19 of every workload through ``perfbench/workloads.reference_loss``
with one BLAS thread, as ``perfbench/run.py`` does, and prints one JSON object
``{workload: {seed: repr(loss)}}``. ``repr`` keeps every bit, so running it on
two revisions and diffing the outputs shows whether a change moved any seed.
It reads ``perfbench/`` and writes nothing.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def main() -> int:
    sys.path[:0] = [PERFBENCH]
    from run import BLAS_THREADS, THREAD_VARS  # numpy is not imported yet

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    out = {}
    for name in sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        out[name] = {str(seed): repr(workloads.reference_loss(wl, seed)) for seed in range(20)}
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
