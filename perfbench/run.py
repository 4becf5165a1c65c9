#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1_mesh --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified; ``--trace 1`` spends the first half of the window untraced
and the second half with the layer wrappers of :mod:`tracing` installed,
and prints the per-layer metrics plus the tracing overhead.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the run's environment goes to standard error and, with the
spans of a traced run, to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool before numpy loads: the load generator and
# the daemon must not oversubscribe the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"


def _environment(workload: str) -> dict:
    from repro.api.records import capture_environment

    env = capture_environment(backend="scipy", kernels="auto")
    env.pop("backend_capabilities", None)
    env.pop("kernel_capabilities", None)
    env["nproc"] = os.cpu_count()
    env["workload"] = workload
    env["threads"] = {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                  "OPENBLAS_NUM_THREADS")}
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    # Keep every file the run (and the daemon it starts) writes inside
    # the checkout: the artifact cache and the daemon's upload temp files.
    os.environ["REPRO_CACHE_DIR"] = str(OUT_DIR / "cache")
    os.environ["TMPDIR"] = str(OUT_DIR / "tmp")
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)

    import catalog
    import workloads
    from calibrate import Calibrator
    from service_load import service_mixed
    from tracing import Tracer

    runners = {
        "table1_mesh": workloads.table1_mesh,
        "hub_cluster": workloads.hub_cluster,
        "pg_transient": workloads.pg_transient,
        "service_mixed": service_mixed,
    }
    if args.workload not in runners:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(runners)}")
    env = _environment(args.workload)
    print(json.dumps({"environment": env}), file=sys.stderr)

    tracer = Tracer() if args.trace else None
    if args.workload != "service_mixed":
        # The cores of a shared host run at different speeds: keep the
        # pipeline and the calibration samples that scale it on one core.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), size=args.size, root=ROOT, out_dir=OUT_DIR,
        tracer=tracer,
        per_layer_names=tuple(n for n, _, _ in catalog.PER_LAYER),
        cal=Calibrator(),
    )
    outcome = runners[args.workload](ctx)

    if args.trace:
        names = [(n, u) for n, u, _ in catalog.PER_LAYER]
        values = outcome.per_layer
    else:
        names = [(n, u) for n, u, _, _ in catalog.END_TO_END]
        values = outcome.end_to_end
    missing = [n for n, _ in names if n not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    metrics = {n: {"value": float(values[n]), "unit": u} for n, u in names}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "notes": outcome.notes,
              "metrics": metrics, "attempted": outcome.attempted,
              "failed": outcome.failed}
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{tag}.json", **record)
    else:
        (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(record))
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
