"""Benchmark of record: run one named workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload esr_copies --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --write-golden

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``README.md`` in this directory).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in its own process and prefixes the metric names with the workload.

The library is imported from ``src/`` of the checkout this file sits in; the
script writes only under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

#: End-to-end metrics (``--trace 0``): name -> unit.  ``sim_s`` marks seconds
#: on the simulated clock, ``s`` seconds on the host clock; ``solve_s`` and
#: ``setup_s`` are rescaled to the reference host speed (``calibration.py``).
END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "iterations": "count",
    "sim_time_s": "sim_s",
    "sim_overhead_ratio": "ratio",
    "ok_share": "share",
    "within_slo_share": "share",
}


def per_layer_units():
    """Per-layer metrics (``--trace 1``): name -> unit."""
    from tracing import COUNTED_LAYERS, ROOT as ROOT_SPAN, TIMED_LAYERS
    from workloads import SIM_PHASES

    units = {}
    for name in TIMED_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTED_LAYERS:
        units[f"{name}.calls"] = "count"
    units[f"{ROOT_SPAN}.self_s"] = "s"
    for name in ("solve_wall_s", "setup_wall_s", "calibration.probe_s"):
        units[name] = "s"
    for name in ("latency_p90_s", "queue_wait_s", "batch_wait_s",
                 "batch_solve_s", "generator_late_max_s"):
        units[f"service.{name}"] = "s"
    units["service.batch_width_mean"] = "count"
    units["service.batches"] = "count"
    units["service.sim_time_per_request_s"] = "sim_s"
    for phase in SIM_PHASES:
        units[f"sim.{phase}_s"] = "sim_s"
    units["sim.messages"] = "count"
    units["sim.elements"] = "count"
    units["esr.extra_elements"] = "count"
    units["x_rel_err"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one core, BLAS single-threaded.

    Cores of a shared host change speed independently of each other.  The
    calibration probes (``calibration.py``) only cancel that when they run
    on the core the measured work runs on, and on ``service_open`` the
    generator and the service's scheduler are different threads.  The GIL
    lets only one of them run at a time anyway.  Must run before numpy is
    imported.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def golden_mismatches(name, exact, golden):
    """One line per deterministic metric that differs from the golden file."""
    expected = golden.get(name)
    if expected is None:
        return [f"no golden entry for {name}"]
    return [f"{key}: {exact.get(key)!r} != golden {value!r}"
            for key, value in expected.items() if exact.get(key) != value]


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload in this process; returns the result object."""
    import workloads as wl

    workload = wl.WORKLOADS[name]
    matrix = workload.build_matrix()
    run = wl.run_service if workload.service else wl.run_solves
    outcome, records = run(workload, matrix, seed, seconds, trace)

    # Exact gate on the deterministic simulated metrics (canonical case).
    canonical = (records[0] if seed == wl.GOLDEN_SEED and not workload.service
                 else wl.golden_case(workload, matrix))
    mismatches = golden_mismatches(name, canonical.exact, load_golden())
    outcome.count(not mismatches, mismatches, "golden")

    exact = wl.mean_exact(records[:wl.CHECK_INPUTS])
    if trace:
        units = per_layer_units()
        metrics = dict.fromkeys(units, 0.0)
        metrics.update(outcome.tracer.layer_metrics())
        metrics.update({k: v for k, v in exact.items() if k in units})
        metrics.update(outcome.per_layer)
        OUT.mkdir(exist_ok=True)
        outcome.tracer.write(OUT / f"trace-{name}.json.gz")
    else:
        metrics = dict(outcome.end_to_end)
        metrics.update({k: exact[k] for k in
                        ("iterations", "sim_time_s", "sim_overhead_ratio")})
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["ok_share"] = 1.0 - outcome.failed / outcome.attempted
        units = END_TO_END
    for problem in outcome.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so memory and caches stay apart."""
    import workloads as wl

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def write_golden() -> None:
    """Recompute the canonical deterministic metrics of every workload."""
    import workloads as wl

    golden = {}
    for name, workload in wl.WORKLOADS.items():
        golden[name] = wl.golden_case(workload, workload.build_matrix()).exact
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute golden.json (a deliberate cost-model "
                             "change) and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.write_golden:
        write_golden()
        return 0
    import workloads as wl

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in wl.WORKLOADS:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    else:
        parser.error(f"--workload must be 'all' or one of {sorted(wl.WORKLOADS)}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:48s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
