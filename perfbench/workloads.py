"""The four named workloads of the benchmark of record.

Every workload is driven through the public API only (``repro.solve``,
``repro.distribute_problem``, ``repro.SolverService``); the benchmark makes
the right-hand sides, failure schedules and request traces from the seed and
hands the library nothing but those inputs.

* ``pcg_n128`` -- failure-free block-Jacobi PCG on ``poisson_2d(64)`` over
  128 simulated nodes, rtol 1e-6.
* ``esr_copies`` / ``esr_parity`` -- ESR-protected PCG (phi=3, ``copies`` or
  ``rs_parity``) on the M5 analogue (n=8232, ~44 nnz/row) over 32 nodes,
  rtol 1e-8.  Ranks {3,4} fail at 50% of the failure-free iteration count,
  rank 5 fails during that recovery, ranks {10,11,12} fail together at 80%.
* ``service_open`` -- open-loop Poisson arrivals from 3 tenants against a
  ``SolverService`` (fifo_window, k_max=8, 10 ms window, autostart) serving
  ``poisson_2d(48)`` over 8 nodes, rtol 1e-8.

A solve workload runs one *input* after another until the run's time is up:
set up a fresh problem (timed as ``setup_s``), for ESR solve the failure-free
reference, then time the workload's own ``repro.solve`` call (``solve_s``).
A fresh problem per input keeps every solve's simulated ledger independent of
how many inputs ran before it, so its deterministic metrics depend on the
right-hand side alone.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from concurrent import futures
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.cluster import FailureEvent
from repro.cluster.cost_model import Phase

import calibration
from tracing import Tracer

#: Inputs always solved, whatever the run length; the deterministic metrics
#: (iterations, simulated clock, reference error) are means over them.
CHECK_INPUTS = 3
#: Leading inputs solved and checked but left out of the timing medians.
WARMUP_INPUTS = 1
#: Seed of the canonical case compared exactly against ``golden.json``.
GOLDEN_SEED = 0
#: Every simulated phase, reported as ``sim.<phase>_s``.
SIM_PHASES = tuple(p for p in Phase.ITERATION_PHASES
                   if p != Phase.CHECKPOINT) + Phase.RECOVERY_PHASES
#: Relative slack on ``||b - A x|| <= rtol ||b||`` for rounding between the
#: recurrence residual the solver stops on and the recomputed true residual.
RESIDUAL_SLACK = 1e-3
#: Largest deviation from the failure-free answer still counted as exact
#: reconstruction (round-off of a few dozen iterations).
EXACT_RTOL = 1e-12

# service_open ----------------------------------------------------------------
SERVICE_MATRIX = "poisson48"
SERVICE_TENANTS = ("tenant-0", "tenant-1", "tenant-2")
#: Offered load, well below the service's burst capacity.  With a single
#: request solving in about 50 ms, about a quarter of the requests arrive
#: while the server is busy, so the median latency is that of a request
#: that did not queue.  At 8 req/s the median sat where requests start to
#: queue, and the arrival clustering of each seed moved it: the run-to-run
#: spread was 0.05-0.11 in three sets of ten runs, 0.02-0.06 at 5 req/s.
SERVICE_RATE = 5.0
#: Requests re-solved directly and compared bit for bit with the service.
SERVICE_SAMPLE = 6
#: Set-ups per run (``setup_s`` is their median).
SERVICE_SETUPS = 7
#: While the service is idle and the next request is due no sooner than
#: this, the generator times one calibration kernel; each request's latency
#: is rescaled by the kernel times taken nearest to it.
SERVICE_GAP_PROBE_S = 0.025


@dataclass(frozen=True)
class Workload:
    """One named workload: matrix, cluster size, tolerance, latency limit."""

    name: str
    matrix: Tuple[str, int]
    n_nodes: int
    rtol: float
    #: Latency limit of ``within_slo_share`` (host seconds per request).
    slo_s: float
    scheme: Optional[str] = None
    service: bool = False

    def build_matrix(self):
        kind, size = self.matrix
        if kind == "poisson_2d":
            return repro.matrices.poisson_2d(size)
        return repro.matrices.build_matrix(kind, n=size)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("pcg_n128", ("poisson_2d", 64), 128, 1e-6, 4.0),
    Workload("esr_copies", ("M5", 8000), 32, 1e-8, 3.0, scheme="copies"),
    Workload("esr_parity", ("M5", 8000), 32, 1e-8, 3.0, scheme="rs_parity"),
    Workload("service_open", ("poisson_2d", 48), 8, 1e-8, 0.5, service=True),
)}


def input_rhs(seed: int, index: int, n: int) -> np.ndarray:
    """Right-hand side *index* of the run with *seed*."""
    return np.random.default_rng([seed, index]).standard_normal(n)


def failure_schedule(reference_iterations: int) -> List[FailureEvent]:
    """Ranks {3,4} at 50%, rank 5 during that recovery, {10,11,12} at 80%."""
    half = reference_iterations // 2
    late = (4 * reference_iterations) // 5
    return [FailureEvent(half, (3, 4), label="simultaneous"),
            FailureEvent(half, (5,), during_recovery_of=0, label="overlapping"),
            FailureEvent(late, (10, 11, 12), label="simultaneous")]


@dataclass
class InputRecord:
    """One solved input: timings, checks and the deterministic outputs.

    ``setup_s`` and ``solve_s`` are at the reference host speed; the
    ``*_wall_s`` fields are the raw host seconds they were rescaled from.
    """

    setup_s: float
    solve_s: float
    setup_wall_s: float
    solve_wall_s: float
    probe_s: float
    ok: bool
    problems: List[str]
    #: Deterministic metrics (compared exactly against the golden file).
    exact: Dict[str, float]
    #: Iterates and ledger, for the traced-run guard.
    x: np.ndarray = field(repr=False)
    history: List[float] = field(repr=False)
    ledger: Tuple = field(repr=False)


def _traffic(cluster) -> Tuple[int, int]:
    ledger = cluster.ledger
    return ledger.total_messages(), ledger.total_elements()


def solve_input(workload: Workload, matrix, b: np.ndarray,
                tracer: Optional[Tracer] = None) -> InputRecord:
    """Set up a fresh problem and solve *b*; time, check and record it.

    Garbage is collected before each timed step: the previous input's
    cluster holds reference cycles, and collecting them inside a timed solve
    would make its time depend on how many inputs ran before it.
    """
    gc.collect()
    probes = [calibration.probe()]
    start = time.perf_counter()
    problem = repro.distribute_problem(matrix, n_nodes=workload.n_nodes)
    problem.resolve_preconditioner("block_jacobi")
    setup_wall_s = time.perf_counter() - start
    probes.append(calibration.probe())

    reference = None
    spec = repro.SolveSpec(solver="pcg", rtol=workload.rtol)
    if workload.scheme is not None:
        reference = repro.solve(problem, b, spec=spec)
        spec = repro.SolveSpec(rtol=workload.rtol, resilience=repro.ResilienceSpec(
            phi=3, scheme=workload.scheme,
            failures=failure_schedule(reference.iterations)))

    messages0, elements0 = _traffic(problem.cluster)
    gc.collect()
    probes.append(calibration.probe())
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        result = repro.solve(problem, b, spec=spec)
        solve_wall_s = time.perf_counter() - start
    probes.append(calibration.probe())
    messages1, elements1 = _traffic(problem.cluster)

    problems = []
    b_norm = float(np.linalg.norm(b))
    if not result.converged:
        problems.append("not converged")
    if not result.true_residual_norm <= workload.rtol * b_norm * (1 + RESIDUAL_SLACK):
        problems.append(f"true residual {result.true_residual_norm:.3e} "
                        f"above rtol*||b|| = {workload.rtol * b_norm:.3e}")
    ref_x = result.x if reference is None else reference.x
    x_rel_err = float(np.linalg.norm(result.x - ref_x) / np.linalg.norm(ref_x))
    if reference is not None:
        if result.iterations != reference.iterations:
            problems.append(f"{result.iterations} iterations, failure-free "
                            f"reference took {reference.iterations}")
        if not x_rel_err <= EXACT_RTOL:
            problems.append(f"solution differs from the failure-free "
                            f"reference by {x_rel_err:.3e}")
        if result.n_failures_recovered != 6:
            problems.append(f"{result.n_failures_recovered} ranks recovered, "
                            "expected 6")

    t0 = reference.simulated_time if reference is not None \
        else result.simulated_time
    redundancy = result.info.get("redundancy", {})
    exact = {
        "iterations": float(result.iterations),
        "sim_time_s": float(result.simulated_time),
        "sim_overhead_ratio": float(result.simulated_time / t0),
        "x_rel_err": x_rel_err,
        "sim.messages": float(messages1 - messages0),
        "sim.elements": float(elements1 - elements0),
        "esr.extra_elements": float(redundancy.get("extra_elements", 0.0)),
    }
    for phase in SIM_PHASES:
        exact[f"sim.{phase}_s"] = float(result.time_breakdown.get(phase, 0.0))
    ledger = (tuple(sorted(result.time_breakdown.items())),
              messages1 - messages0, elements1 - elements0,
              result.simulated_time)
    return InputRecord(
        calibration.rescale(setup_wall_s, *probes[:2]),
        calibration.rescale(solve_wall_s, *probes[2:]),
        setup_wall_s, solve_wall_s, statistics.median(probes),
        not problems, problems, exact, result.x,
        list(result.residual_norms), ledger)


def same_outputs(a: InputRecord, b: InputRecord) -> bool:
    """Bit-identical iterates, residual history and ledger charges."""
    return (np.array_equal(a.x, b.x) and a.history == b.history
            and a.ledger == b.ledger)


def mean_exact(records: List[InputRecord]) -> Dict[str, float]:
    """Deterministic metrics averaged over the check inputs."""
    keys = records[0].exact
    out = {k: statistics.fmean(r.exact[k] for r in records) for k in keys}
    out["x_rel_err"] = max(r.exact["x_rel_err"] for r in records)
    return out


def golden_case(workload: Workload, matrix) -> InputRecord:
    """The canonical input compared exactly against ``golden.json``."""
    if workload.service:
        requests = service_traffic(matrix.shape[0], GOLDEN_SEED, 1.0)
        return solve_input(workload, matrix, requests[sample_indices(
            GOLDEN_SEED, len(requests))[0]].rhs)
    return solve_input(workload, matrix, input_rhs(GOLDEN_SEED, 0, matrix.shape[0]))


# -- solve workloads -------------------------------------------------------------

@dataclass
class RunOutcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    def count(self, ok: bool, problems: List[str], what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def run_solves(workload: Workload, matrix, seed: int, seconds: float,
               trace: bool) -> Tuple[RunOutcome, List[InputRecord]]:
    """Solve seeded inputs until *seconds* have passed (and at least
    :data:`CHECK_INPUTS`).  With *trace*, every input is solved untraced and
    then traced on a fresh problem, and the two must agree bit for bit."""
    outcome = RunOutcome(tracer=Tracer() if trace else None)
    records: List[InputRecord] = []
    traced: List[InputRecord] = []
    start = time.perf_counter()
    index = 0
    while index < CHECK_INPUTS or time.perf_counter() - start < seconds:
        b = input_rhs(seed, index, matrix.shape[0])
        if trace and index % 2:
            # Alternate which side runs first, so order does not bias
            # trace.overhead.
            traced.append(solve_input(workload, matrix, b, outcome.tracer))
        record = solve_input(workload, matrix, b)
        outcome.count(record.ok, record.problems, f"input {index}")
        records.append(record)
        if trace:
            if not index % 2:
                traced.append(solve_input(workload, matrix, b, outcome.tracer))
            outcome.count(same_outputs(record, traced[-1]),
                          ["traced run differs from untraced run"],
                          f"input {index}")
        index += 1
    timed = records[WARMUP_INPUTS:]
    outcome.end_to_end = solve_metrics(workload, timed)
    outcome.per_layer.update(wall_metrics(
        [r.solve_wall_s for r in timed], [r.setup_wall_s for r in timed],
        [r.probe_s for r in timed]))
    if trace:
        outcome.per_layer["trace.overhead"] = (
            statistics.median(r.solve_s for r in traced[WARMUP_INPUTS:])
            / statistics.median(r.solve_s for r in timed))
    return outcome, records


def request_metrics(workload: Workload, latencies: List[float],
                    latencies_wall: List[float]) -> Dict[str, float]:
    """Median latency (at the reference speed) and SLO share (in host
    seconds) of the run's requests; a failed request has infinite latency,
    so it misses the limit."""
    return {
        "solve_s": float(np.percentile(latencies, 50)),
        "within_slo_share": statistics.fmean(
            lat <= workload.slo_s for lat in latencies_wall),
    }


def solve_metrics(workload: Workload, records: List[InputRecord]
                  ) -> Dict[str, float]:
    """End-to-end metrics of a closed-loop solve workload: one client, and
    every ``repro.solve`` call is one request."""
    latencies = [r.solve_s if r.ok else float("inf") for r in records]
    latencies_wall = [r.solve_wall_s if r.ok else float("inf") for r in records]
    metrics = request_metrics(workload, latencies, latencies_wall)
    metrics["setup_s"] = statistics.median(r.setup_s for r in records)
    return metrics


def wall_metrics(latencies_wall: List[float], setups_wall: List[float],
                 probes: List[float]) -> Dict[str, float]:
    """The raw host seconds behind ``solve_s`` and ``setup_s``, and the
    median calibration probe (per-layer; they spread with the host speed)."""
    return {
        "solve_wall_s": float(np.percentile(latencies_wall, 50)),
        "setup_wall_s": statistics.median(setups_wall),
        "calibration.probe_s": statistics.median(probes),
    }


# -- service_open ------------------------------------------------------------------

def service_traffic(n: int, seed: int, seconds: float):
    """Seeded Poisson trace whose arrivals span exactly *seconds*, so every
    seed offers the same mean rate (only the clustering differs)."""
    spec = repro.TrafficSpec(
        n_requests=max(1, round(SERVICE_RATE * seconds)),
        matrix_ids=(SERVICE_MATRIX,), tenants=SERVICE_TENANTS,
        rate_per_s=SERVICE_RATE)
    requests = repro.generate_traffic(spec, {SERVICE_MATRIX: n}, seed=seed)
    scale = spec.n_requests / SERVICE_RATE / max(requests[-1].arrival_s, 1e-9)
    return [replace(r, arrival_s=r.arrival_s * scale)
            for r in requests]


def sample_indices(seed: int, n_requests: int) -> List[int]:
    rng = np.random.default_rng([seed, n_requests])
    count = min(SERVICE_SAMPLE, n_requests)
    return sorted(int(i) for i in rng.choice(n_requests, count, replace=False))


def _new_service(matrix, workload: Workload):
    service = repro.SolverService(policy="fifo_window", window_s=0.01, k_max=8,
                                  autostart=False, clock=time.perf_counter)
    service.register_matrix(SERVICE_MATRIX, matrix, n_nodes=workload.n_nodes,
                            default_spec=repro.SolveSpec(rtol=workload.rtol))
    # Warm-up: preconditioner set-up and SpMV engine of the cached problem.
    service.solve_sync(SERVICE_MATRIX, np.ones(matrix.shape[0]))
    return service


def run_service(workload: Workload, matrix, seed: int, seconds: float,
                trace: bool) -> Tuple[RunOutcome, List[InputRecord]]:
    """Replay a seeded open-loop trace against an autostarted service."""
    outcome = RunOutcome(tracer=Tracer() if trace else None)
    setups, setups_wall = [], []
    for i in range(SERVICE_SETUPS):
        before = calibration.probe()
        start = time.perf_counter()
        service = _new_service(matrix, workload)
        setups_wall.append(time.perf_counter() - start)
        setups.append(calibration.rescale(setups_wall[-1], before,
                                          calibration.probe()))
        if i + 1 < SERVICE_SETUPS:
            service.shutdown()

    requests = service_traffic(matrix.shape[0], seed, seconds)
    sent, results, samples = [], [], []
    gc.collect()
    service.start()
    try:
        with outcome.tracer.installed() if trace else contextlib.nullcontext():
            t0 = time.perf_counter()
            for req in requests:
                due = t0 + req.arrival_s
                while (delay := due - time.perf_counter()) > 0:
                    # Requests finish in order, so the last one sent being
                    # done means the service is idle.
                    last = sent[-1][3] if sent else None
                    if last is not None and not last.done():
                        with contextlib.suppress(futures.TimeoutError):
                            last.exception(timeout=delay)
                    elif delay > SERVICE_GAP_PROBE_S:
                        samples.append((time.perf_counter(), calibration.kernel_s()))
                    else:
                        time.sleep(delay)
                submitted = time.perf_counter()
                handle = service.submit(SERVICE_MATRIX, req.rhs, tenant=req.tenant)
                sent.append((req, due, submitted, handle))
            for *_, handle in sent:
                error = handle.exception(timeout=120)
                results.append(None if error is not None else handle.result())
    finally:
        service.shutdown()
    if not samples:
        samples.append((time.perf_counter(), calibration.probe()))

    # Batches run one after another.  A request waits for the CPU work of
    # the batch before its own, then for what is left of its batching
    # window; that timer does not depend on the host speed, so only the rest
    # of the latency is rescaled.
    batch_done = {res.batch_id: submitted + res.queue_wait_s + res.solve_s
                  for (_, _, submitted, _), res in zip(sent, results)
                  if res is not None}
    latencies, latencies_wall, lateness, answers = [], [], [], {}
    for (req, due, submitted, _), res in zip(sent, results):
        lateness.append(submitted - due)
        problems = []
        if res is None:
            problems.append("request failed")
            latencies_wall.append(float("inf"))
            latencies.append(float("inf"))
        else:
            # Due time to the end of the batch solve that answered it.
            dispatched = submitted + res.queue_wait_s
            done = dispatched + res.solve_s
            latencies_wall.append(done - due)
            previous = batch_done.get(res.batch_id - 1, submitted)
            timer = max(dispatched - max(submitted, previous), 0.0)
            speed = calibration.nearest(samples, due, done)
            latencies.append(timer + calibration.rescale(done - due - timer, speed))
            answers[req.index] = res
            b_norm = float(np.linalg.norm(req.rhs))
            if not res.converged:
                problems.append("not converged")
            if not res.true_residual_norm <= workload.rtol * b_norm * (1 + RESIDUAL_SLACK):
                problems.append(f"true residual {res.true_residual_norm:.3e} "
                                f"above rtol*||b|| = {workload.rtol * b_norm:.3e}")
        outcome.count(not problems, problems, f"request {req.index}")

    # Seeded sample: a direct repro.solve must give the identical answer.
    records, traced_times = [], []
    guard = Tracer() if trace else None
    for index in sample_indices(seed, len(requests)):
        rhs = requests[index].rhs
        record = solve_input(workload, matrix, rhs)
        res = answers.get(index)
        same = res is not None and np.array_equal(res.x, record.x)
        outcome.count(same and record.ok,
                      record.problems + ([] if same else ["service answer "
                                         "differs from a direct solve"]),
                      f"sample request {index}")
        records.append(record)
        if trace:
            again = solve_input(workload, matrix, rhs, guard)
            outcome.count(same_outputs(record, again),
                          ["traced run differs from untraced run"],
                          f"sample request {index}")
            traced_times.append(again.solve_s)

    served = list(answers.values())
    if not served:
        raise RuntimeError("the service answered no request")
    batches = {}
    for res in served:
        batches[res.batch_id] = res
    batch_solve = [r.solve_s for r in batches.values()]
    outcome.end_to_end = request_metrics(workload, latencies, latencies_wall)
    outcome.end_to_end["setup_s"] = statistics.median(setups)
    outcome.per_layer.update(wall_metrics(latencies_wall, setups_wall,
                                          [k for _, k in samples]))
    outcome.per_layer.update({
        "service.latency_p90_s": float(np.percentile(latencies, 90)),
        "service.queue_wait_s": statistics.median(r.queue_wait_s for r in served),
        "service.batch_wait_s": statistics.median(r.batch_wait_s for r in served),
        "service.batch_solve_s": statistics.median(batch_solve),
        "service.batch_width_mean": statistics.fmean(
            r.batch_width for r in batches.values()),
        "service.batches": float(len(batches)),
        "service.generator_late_max_s": max(lateness),
        "service.sim_time_per_request_s": statistics.fmean(
            r.simulated_time for r in served),
    })
    if trace:
        outcome.per_layer["trace.overhead"] = (
            statistics.median(traced_times)
            / statistics.median(r.solve_s for r in records))
    return outcome, records
