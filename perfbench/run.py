"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_mlp_wide --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` beside this directory, never from an installed copy.  With
``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it measures the per-layer metrics from a traced run (see
``tracing.py``).  The report lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with the environment stamp, every metric, the
checks, the raw timings and (traced runs) the spans is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DEFAULT_SEED = 1    # seed 2 is held out: a claimed gain must hold there too


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def import_workloads():
    """Import the workloads with ``src/`` of this checkout first on the path;
    exits with a non-zero status if the package is not there."""
    src = ROOT / "src"
    if not (src / "subzero" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'subzero'}")
    sys.path.insert(0, str(src))
    import workloads

    import subzero
    if Path(subzero.__file__).resolve().parent != (src / "subzero").resolve():
        sys.exit(f"perfbench: imported subzero from {subzero.__file__}, not {src}")
    return workloads


def write_result(args, env: dict, outcome, metric_units) -> Path:
    import numpy as np

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
        "checks": outcome.checks,
        "claims": {k: {"passed": ok, "detail": d} for k, (ok, d) in outcome.claims.items()},
        "attempted": outcome.attempted, "failed": outcome.failed,
        "samples": outcome.samples,
        "json_metrics": [name for name, _ in metric_units],
    }
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    if outcome.spans:
        names = outcome.spans.pop("names")
        np.savez_compressed(OUT_DIR / f"{stem}.spans.npz", names=np.asarray(names),
                            **outcome.spans)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    env = environment()
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        outcome = workloads.trace(workload, args.seed, args.seconds)
        metric_units = workloads.PER_LAYER
    else:
        outcome = workloads.measure(workload, args.seed, args.seconds)
        metric_units = workloads.END_TO_END
    path = write_result(args, env, outcome, metric_units)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({env['nproc']} cpus, load {env['loadavg_start'][0]:.2f}, "
          f"BLAS threads {env['blas_threads']})")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for name, ok in outcome.checks.items():
        print(f"  check {name:30s} {'pass' if ok else 'FAIL'}")
    for name, (ok, detail) in outcome.claims.items():
        print(f"  claim {name:30s} {'pass' if ok else 'FAIL'}  ({detail})")
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name][0], "unit": unit}
                    for name, unit in metric_units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
