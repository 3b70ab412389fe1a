"""Wallclock benchmark: local-view SpMV engine vs. dense-gather reference.

For every configured (matrix, node count) pair this times ``distributed_spmv``
on three twin virtual clusters:

* **fused** -- the cached :class:`~repro.distributed.spmv_engine.SpmvEngine`
  on the matrix as ``DistributedMatrix.from_global`` builds it (row blocks
  carved from one CSR), so the product is one CSR kernel over all ranks;
* **per-rank** -- the same engine on a twin whose row blocks are separate
  copies, so it runs one compressed kernel per rank (the path every
  container with a failed, wiped or rebound rank takes);
* **reference** -- the dense-gather reference path (``engine=False``).

It verifies the three paths' equivalence contract:

* **bit-identical simulated-time charges** -- the per-phase ledger times,
  message and element counters of the three runs must compare equal with
  ``==`` (the cost model is unchanged by the engine);
* **bit-identical results** -- all three outputs must be exactly equal (the
  kernels preserve the CSR stored-entry order per row), reported as
  ``results_bit_identical`` next to the max-abs deviation of the fused
  output from the reference (``0.0``, far below the ``1e-12`` bound).

The headline number is the speedup on the largest suite matrix (M3 /
G3_circuit by original size) at the largest configured node count.

Usage::

    python benchmarks/bench_spmv_engine.py                  # full sweep
    python benchmarks/bench_spmv_engine.py --smoke          # CI smoke run
    python benchmarks/bench_spmv_engine.py --json out.json  # machine-readable

Environment knobs (full mode): ``REPRO_BENCH_SPMV_N`` (matrix size, default
16000), ``REPRO_BENCH_SPMV_REPS`` (timed calls per measurement, default 20).
"""

from __future__ import annotations

import argparse
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

from repro.cluster import MachineModel, VirtualCluster  # noqa: E402
from repro.distributed import (  # noqa: E402
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
    DistributedVector,
    distributed_spmv,
)
from repro.matrices import build_matrix  # noqa: E402
from repro.matrices.suite import get_record, matrix_ids  # noqa: E402

#: The matrix with the largest original problem size (Table 1): M3/G3_circuit.
LARGEST_MATRIX_ID = max(
    matrix_ids(), key=lambda mid: get_record(mid).original_n
)


def _timed_loop(fn, reps: int, repeats: int = 3) -> float:
    """Median over *repeats* of the mean per-call wallclock of *reps* calls."""
    fn()  # warmup: builds/caches the engine, touches all buffers
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return float(np.median(samples))


def run_case(matrix_id: str, n: int, n_nodes: int, reps: int,
             seed: int = 0) -> Dict[str, object]:
    """Benchmark one (matrix, node count) configuration on twin clusters."""
    matrix = build_matrix(matrix_id, n=n, seed=seed)
    n_actual = matrix.shape[0]
    partition = BlockRowPartition(n_actual, n_nodes)
    values = np.random.default_rng(seed).standard_normal(n_actual)

    sides = {}
    for label in ("fused", "per_rank", "reference"):
        cluster = VirtualCluster(n_nodes,
                                 machine=MachineModel(jitter_rel_std=0.0))
        dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
        if label == "per_rank":
            # Separate block copies are not carved from one CSR, so the
            # engine takes its per-rank plan path.
            for rank in range(n_nodes):
                dist._set_row_block(rank, dist.row_block(rank).copy())
        context = CommunicationContext.from_matrix(dist)
        x = DistributedVector.from_global(cluster, partition, "x", values)
        y = DistributedVector.zeros(cluster, partition, "y")
        sides[label] = (cluster, dist, context, x, y)

    def call(label: str, engine: bool):
        _, dist, context, x, y = sides[label]
        return lambda: distributed_spmv(dist, x, y, context, engine=engine)

    t_fused = _timed_loop(call("fused", True), reps)
    t_per_rank = _timed_loop(call("per_rank", True), reps)
    t_reference = _timed_loop(call("reference", False), reps)

    # Every side executed the same number of charged calls (warmup + timed),
    # so their ledgers must compare equal bit for bit.
    ledgers = [sides[label][0].ledger for label in sides]
    charges_identical = all(
        ledger.times == ledgers[0].times
        and ledger.messages == ledgers[0].messages
        and ledger.elements == ledgers[0].elements
        for ledger in ledgers[1:]
    )
    outputs = {label: side[4].to_global() for label, side in sides.items()}
    results_identical = (
        outputs["fused"].tobytes() == outputs["per_rank"].tobytes()
        == outputs["reference"].tobytes()
    )
    deviation = float(np.max(np.abs(outputs["fused"] - outputs["reference"])))

    return {
        "matrix_id": matrix_id,
        "n": int(n_actual),
        "nnz": int(matrix.nnz),
        "n_nodes": int(n_nodes),
        "scatter_messages": int(sides["fused"][2].total_messages()),
        "scatter_elements": int(sides["fused"][2].total_exchanged_elements()),
        "fused_us_per_call": t_fused * 1e6,
        "per_rank_us_per_call": t_per_rank * 1e6,
        "reference_us_per_call": t_reference * 1e6,
        "speedup": t_reference / t_fused,
        "charges_bit_identical": bool(charges_identical),
        "results_bit_identical": bool(results_identical),
        "max_abs_deviation": deviation,
    }


def run_sweep(matrices: List[str], node_counts: List[int], n: int,
              reps: int) -> Dict[str, object]:
    rows = []
    for matrix_id in matrices:
        for n_nodes in node_counts:
            row = run_case(matrix_id, n, n_nodes, reps)
            rows.append(row)
            print(
                f"  {row['matrix_id']:>3}  n={row['n']:>7,}  "
                f"N={row['n_nodes']:>3}  "
                f"reference={row['reference_us_per_call']:>9.1f} us  "
                f"per-rank={row['per_rank_us_per_call']:>9.1f} us  "
                f"fused={row['fused_us_per_call']:>9.1f} us  "
                f"speedup={row['speedup']:>6.2f}x  "
                f"dev={row['max_abs_deviation']:.2e}  "
                f"results={'ok' if row['results_bit_identical'] else 'DIFF'}  "
                f"charges={'ok' if row['charges_bit_identical'] else 'DIFF'}"
            )
    headline = _headline(rows)
    return {
        "target_n": n,
        "reps": reps,
        "largest_matrix_id": LARGEST_MATRIX_ID,
        "headline": headline,
        "rows": rows,
    }


def _headline(rows: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """Largest suite matrix at the largest node count >= 8 (if measured)."""
    candidates = [
        r for r in rows
        if r["matrix_id"] == LARGEST_MATRIX_ID and int(r["n_nodes"]) >= 8
    ]
    if not candidates:
        return None
    best = max(candidates, key=lambda r: int(r["n_nodes"]))
    return {
        "matrix_id": best["matrix_id"],
        "n_nodes": best["n_nodes"],
        "speedup": best["speedup"],
        "charges_bit_identical": best["charges_bit_identical"],
        "results_bit_identical": best["results_bit_identical"],
        "max_abs_deviation": best["max_abs_deviation"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI configuration (small sizes, M3 only)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON to PATH")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero unless the headline speedup "
                             "(largest matrix, largest node count) is >= X "
                             "and the equivalence contract holds")
    args = parser.parse_args(argv)

    if args.smoke:
        matrices = [LARGEST_MATRIX_ID]
        node_counts = [8, 16]
        n = 4000
        reps = 10
    else:
        matrices = matrix_ids()
        node_counts = [8, 16, 32]
        n = int(os.environ.get("REPRO_BENCH_SPMV_N", 16000))
        reps = int(os.environ.get("REPRO_BENCH_SPMV_REPS", 20))

    print(f"SpMV engine benchmark: matrices={','.join(matrices)} "
          f"nodes={node_counts} n~{n} reps={reps}")
    results = run_sweep(matrices, node_counts, n, reps)

    headline = results["headline"]
    if headline is not None:
        print(
            f"headline: {headline['matrix_id']} at N={headline['n_nodes']}: "
            f"{headline['speedup']:.2f}x speedup, "
            f"deviation={headline['max_abs_deviation']:.2e}, charges "
            f"{'bit-identical' if headline['charges_bit_identical'] else 'DIFFER'}"
        )

    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")

    ok = all(r["charges_bit_identical"] and r["results_bit_identical"]
             and r["max_abs_deviation"] <= 1e-12 for r in results["rows"])
    if not ok:
        print("ERROR: equivalence contract violated", file=sys.stderr)
        return 1
    if args.require_speedup is not None:
        if headline is None:
            print("ERROR: no headline configuration was measured",
                  file=sys.stderr)
            return 1
        if headline["speedup"] < args.require_speedup:
            print(
                f"ERROR: headline speedup {headline['speedup']:.2f}x below "
                f"required {args.require_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
