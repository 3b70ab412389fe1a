"""Benchmark: solver-service request coalescing vs one-at-a-time dispatch.

A seeded synthetic traffic burst (``repro.service.generate_traffic``) is
pushed through two dispatch paths against the same registered operator:

* **one-at-a-time** -- every request is its own ``repro.solve`` call, the
  way clients would dispatch without a service in front;
* **coalesced** -- the :class:`~repro.service.SolverService` groups pending
  requests sharing a ``(matrix_id, SolveSpec)`` key into ``(n, k)`` block
  solves (``k <= k_max``), amortizing the per-iteration allreduce latency
  and the per-call Python/NumPy dispatch overhead over the batch.

For every configuration the bench reports throughput (solves/sec) for both
paths, the coalescing speedup, wallclock latency percentiles (p50/p99) of
the coalesced path, and the per-request *bit-identity* contract: each
coalesced solution must equal its one-at-a-time reference exactly (the
block solver runs lock-step per-column recurrences, so riding in a batch
must not change a single bit).

Usage::

    python benchmarks/bench_solver_service.py                  # full sweep
    python benchmarks/bench_solver_service.py --smoke          # CI smoke run
    python benchmarks/bench_solver_service.py --json out.json  # machine-readable
    python benchmarks/bench_solver_service.py --smoke \\
        --require-coalescing-speedup 2.0                       # CI gate

Environment knobs (full mode): ``REPRO_BENCH_SVC_N`` (grid side, default
48), ``REPRO_BENCH_SVC_NODES`` (cluster size, default 8),
``REPRO_BENCH_SVC_REQUESTS`` (trace length, default 64),
``REPRO_BENCH_SVC_KMAX`` (comma-separated batch widths, default "1,4,8").
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover - uninstalled checkout
        sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.cluster import MachineModel  # noqa: E402
from repro.core import SolveSpec, distribute_problem, solve  # noqa: E402
from repro.matrices import poisson_2d  # noqa: E402
from repro.service import SolverService, TrafficSpec, generate_traffic  # noqa: E402

MATRIX_ID = "poisson2d"
TENANTS = ("tenant-a", "tenant-b", "tenant-c")


def _fresh_problem(matrix, n_nodes: int, spec: SolveSpec):
    """A distributed problem on its own jitter-free cluster, caches warm."""
    problem = distribute_problem(matrix, n_nodes=n_nodes, seed=0,
                                 machine=MachineModel(jitter_rel_std=0.0))
    problem.resolve_preconditioner(spec.preconditioner)
    return problem


def run_case(n_side: int, n_nodes: int, n_requests: int, k_max: int,
             rtol: float, seed: int = 0) -> Dict[str, object]:
    """Benchmark one configuration: coalesced service vs direct dispatch."""
    matrix = poisson_2d(n_side)
    n = matrix.shape[0]
    spec = SolveSpec(preconditioner="block_jacobi", rtol=rtol)
    traffic_spec = TrafficSpec(n_requests=n_requests,
                               matrix_ids=(MATRIX_ID,), tenants=TENANTS)
    trace = generate_traffic(traffic_spec, {MATRIX_ID: n}, seed=seed)

    # -- one-at-a-time dispatch: every request is its own repro.solve -------
    # Preconditioner factorization is warmed outside the timed region on
    # both paths, so the numbers compare dispatch + solver time only.
    problem = _fresh_problem(matrix, n_nodes, spec)
    solve(problem, trace[0].rhs, spec=spec)
    # Each timed window starts from a fresh garbage collection.  A full
    # collection walks every tracked object of the process (NumPy/SciPy
    # alone bring ~40k) and takes tens of milliseconds; left to the
    # allocation counters, it lands in whichever window happens to cross
    # the threshold and can add ~20% to the shorter coalesced window.
    gc.collect()
    start = time.perf_counter()
    references = [solve(problem, req.rhs, spec=spec) for req in trace]
    t_direct = time.perf_counter() - start

    # -- coalesced dispatch through the service -----------------------------
    service = SolverService(policy="greedy_width", k_max=k_max)
    service.register_matrix(
        MATRIX_ID, _fresh_problem(matrix, n_nodes, spec), default_spec=spec)
    service.solve_sync(MATRIX_ID, trace[0].rhs)
    gc.collect()
    start = time.perf_counter()
    handles = [service.submit(MATRIX_ID, req.rhs, tenant=req.tenant)
               for req in trace]
    service.drain()
    results = [handle.result() for handle in handles]
    t_service = time.perf_counter() - start
    stats = service.stats
    service.shutdown()

    bit_identical = all(
        np.array_equal(res.x, ref.x)
        and res.residual_norms == ref.residual_norms
        for res, ref in zip(results, references)
    )
    # The warm-up request rode through the same stats object; drop it from
    # the width/latency views by slicing to the timed batches only.
    widths = stats.batch_widths[1:]
    latency = stats.latency_summary()

    return {
        "matrix_id": MATRIX_ID,
        "n": int(n),
        "n_nodes": int(n_nodes),
        "n_requests": int(n_requests),
        "k_max": int(k_max),
        "rtol": rtol,
        "all_converged": bool(all(r.converged for r in results)),
        "bit_identical": bool(bit_identical),
        "n_batches": len(widths),
        "mean_batch_width": (float(sum(widths)) / len(widths)
                             if widths else 0.0),
        "wallclock_direct_s": t_direct,
        "wallclock_service_s": t_service,
        "throughput_direct_rps": (n_requests / t_direct
                                  if t_direct else 0.0),
        "throughput_service_rps": (n_requests / t_service
                                   if t_service else 0.0),
        "coalescing_speedup": (t_direct / t_service if t_service else 1.0),
        "latency_p50_s": latency["latency_p50_s"],
        "latency_p99_s": latency["latency_p99_s"],
        "sim_time_direct": float(sum(r.simulated_time for r in references)),
        "sim_time_service": float(stats.simulated_time),
    }


def run_sweep(n_side: int, n_nodes: int, n_requests: int, k_maxes: List[int],
              rtol: float) -> Dict[str, object]:
    rows = []
    for k_max in k_maxes:
        row = run_case(n_side, n_nodes, n_requests, k_max, rtol)
        rows.append(row)
        print(
            f"  n={row['n']:>6,}  N={row['n_nodes']:>3}  "
            f"k_max={row['k_max']:>2}  "
            f"width={row['mean_batch_width']:>4.1f}  "
            f"direct={row['throughput_direct_rps']:>6.1f}/s  "
            f"service={row['throughput_service_rps']:>6.1f}/s  "
            f"speedup={row['coalescing_speedup']:>5.2f}x  "
            f"p99={row['latency_p99_s'] * 1e3:>6.1f}ms  "
            f"identical={row['bit_identical']}"
        )
    return {
        "matrix_id": MATRIX_ID,
        "n_side": n_side,
        "n_nodes": n_nodes,
        "n_requests": n_requests,
        "k_maxes": k_maxes,
        "rtol": rtol,
        "headline": _headline(rows),
        "rows": rows,
    }


def _headline(rows: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """The widest configured batch (the coalescing showcase)."""
    if not rows:
        return None
    best = max(rows, key=lambda r: int(r["k_max"]))
    return {
        "matrix_id": best["matrix_id"],
        "n": best["n"],
        "n_nodes": best["n_nodes"],
        "k_max": best["k_max"],
        "mean_batch_width": best["mean_batch_width"],
        "throughput_direct_rps": best["throughput_direct_rps"],
        "throughput_service_rps": best["throughput_service_rps"],
        "coalescing_speedup": best["coalescing_speedup"],
        "latency_p50_s": best["latency_p50_s"],
        "latency_p99_s": best["latency_p99_s"],
        "bit_identical": best["bit_identical"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI configuration (small grid, short trace)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON to PATH")
    parser.add_argument("--require-coalescing-speedup", type=float,
                        default=None, metavar="X",
                        help="exit non-zero unless the headline coalescing "
                             "speedup is >= X and every request is "
                             "bit-identical to its direct dispatch")
    args = parser.parse_args(argv)

    if args.smoke:
        n_side = 24
        n_nodes = 4
        n_requests = 32
        k_maxes = [1, 4, 8]
        rtol = 1e-6
    else:
        n_side = int(os.environ.get("REPRO_BENCH_SVC_N", 48))
        n_nodes = int(os.environ.get("REPRO_BENCH_SVC_NODES", 8))
        n_requests = int(os.environ.get("REPRO_BENCH_SVC_REQUESTS", 64))
        k_maxes = [int(v) for v in
                   os.environ.get("REPRO_BENCH_SVC_KMAX", "1,4,8").split(",")]
        rtol = 1e-8

    print(f"Solver-service benchmark: {MATRIX_ID} n={n_side * n_side} "
          f"N={n_nodes} requests={n_requests} k_maxes={k_maxes} rtol={rtol}")
    results = run_sweep(n_side, n_nodes, n_requests, k_maxes, rtol)

    headline = results["headline"]
    if headline is not None:
        print(
            f"headline: k_max={headline['k_max']} coalesces "
            f"{headline['n_nodes']}-node solves at mean width "
            f"{headline['mean_batch_width']:.1f}: "
            f"{headline['throughput_service_rps']:.1f} solves/s vs "
            f"{headline['throughput_direct_rps']:.1f} one-at-a-time "
            f"({headline['coalescing_speedup']:.2f}x), p99 latency "
            f"{headline['latency_p99_s'] * 1e3:.1f} ms, bit-identical="
            f"{headline['bit_identical']}"
        )

    ok = all(r["bit_identical"] and r["all_converged"]
             for r in results["rows"])
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")
    if not ok:
        print("ERROR: coalesced solves are not bit-identical to one-at-a-"
              "time dispatch", file=sys.stderr)
        return 1
    if args.require_coalescing_speedup is not None:
        if headline is None or headline["coalescing_speedup"] \
                < args.require_coalescing_speedup:
            print(
                f"ERROR: headline coalescing speedup below required "
                f"{args.require_coalescing_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
