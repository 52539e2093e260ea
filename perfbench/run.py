"""Run one workload of the mixlora benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload train-d64 --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` makes a separate traced run that prints the per-layer metrics.
``--workload all`` runs every workload of BENCHMARK.json in its own process.

Standard output holds the run environment, one line per metric with its
unit and sample count, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

Exit codes: 0 all checks passed; 1 a correctness check failed (the JSON line
says which count); 2 the package source or BENCHMARK.json is missing, or the
metrics disagree with BENCHMARK.json (no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One BLAS thread: on a small shared machine a second thread adds more
# run-to-run spread than speed. Set before numpy is first imported.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(config_hash: str) -> dict:
    import numpy as np

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "config_hash": config_hash,
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run_all(args) -> int:
    """Each workload in its own process; exit non-zero if any of them fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    worst = 0
    for name in names:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mixlora", "__init__.py")):
        return _fail(f"package source not found under {src}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(workloads.WORKLOADS)}")
    config_hash = workloads.bench_mod.config_hash(wl.config(args.seed).model())
    print("env " + json.dumps(environment(config_hash), sort_keys=True), flush=True)

    workdir = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        result = workloads.run(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    if got != declared:
        return _fail(f"metrics differ from BENCHMARK.json: emitted {got}, declared {declared}")

    for name, (value, unit) in result["metrics"].items():
        n = result["samples"].get(name)
        print(f"  {name:28s} {value:>16.6g} {unit}" + (f"  (n={n})" if n else ""))
    for message in result["checks"].failures:
        print(f"CHECK FAILED: {message}")
    failed = min(len(result["checks"].failures), result["ops"])
    line = {
        "correct": failed == 0,
        "attempted": result["ops"],
        "failed": failed,
        "metrics": {name: {"value": value if isinstance(value, int) else float(value),
                           "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(line), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
