"""Distributed preconditioned conjugate gradient solver (Alg. 1).

:class:`DistributedPCG` runs the PCG method on the virtual cluster with
block-row distributed data: the SpMV is performed with the halo-exchange
communication context, dot products go through allreduce, and the
(block-diagonal) preconditioner is applied block-locally -- every operation is
charged to the latency-bandwidth cost model, so the accumulated simulated time
of a run is the ``t0`` (reference time) of the paper's Table 2.

The class exposes protected hooks (``_after_spmv``, ``_handle_failures``,
``_after_iteration``) that the resilient variant overrides to add the ESR
redundancy exchange and the failure-recovery logic without duplicating the
iteration loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from .. import sanitizer as _sanitizer
from ..cluster.cluster import VirtualCluster
from ..cluster.cost_model import Phase
from ..distributed.comm_context import CommunicationContext
from ..distributed.dmatrix import DistributedMatrix
from ..distributed.dvector import DistributedVector
from ..distributed.partition import BlockRowPartition
from ..distributed.spmv import distributed_spmv
from ..precond.base import Preconditioner
from ..precond.identity import IdentityPreconditioner
from ..solvers.result import SolveResult
from ..utils.logging import get_logger

logger = get_logger("core.pcg")


@dataclass
class DistributedSolveResult(SolveResult):
    """Solve result of a distributed run, including simulated-time accounting."""

    #: Total simulated time of the run (seconds in the cost model).
    simulated_time: float = 0.0
    #: Simulated time spent in failure-free iteration phases.
    simulated_iteration_time: float = 0.0
    #: Simulated time spent recovering from failures.
    simulated_recovery_time: float = 0.0
    #: Per-phase simulated time breakdown.
    time_breakdown: Dict[str, float] = field(default_factory=dict)
    #: One entry per recovery episode (empty for failure-free runs).
    recoveries: List[object] = field(default_factory=list)

    @property
    def n_failures_recovered(self) -> int:
        return int(sum(len(getattr(r, "failed_ranks", [])) for r in self.recoveries))

    def to_dict(self, *, include_solution: bool = False,
                include_history: bool = True) -> Dict[str, object]:
        """Extend :meth:`SolveResult.to_dict` with simulated-time accounting."""
        from ..solvers.result import jsonify

        data = super().to_dict(include_solution=include_solution,
                               include_history=include_history)
        data["simulated_time"] = float(self.simulated_time)
        data["simulated_iteration_time"] = float(self.simulated_iteration_time)
        data["simulated_recovery_time"] = float(self.simulated_recovery_time)
        data["time_breakdown"] = {k: float(self.time_breakdown[k])
                                  for k in sorted(self.time_breakdown)}
        data["n_failures_recovered"] = self.n_failures_recovered
        data["recoveries"] = [jsonify(r) for r in self.recoveries]
        return data


class DistributedPCG:
    """Block-row distributed PCG on a :class:`VirtualCluster`."""

    #: Prefix for the names of the solver's distributed work vectors.
    vector_prefix = "pcg"

    def __init__(self, matrix: DistributedMatrix, rhs: DistributedVector,
                 preconditioner: Optional[Preconditioner] = None, *,
                 rtol: float = 1e-8, atol: float = 0.0,
                 max_iterations: Optional[int] = None,
                 context: Optional[CommunicationContext] = None,
                 overlap_spmv: bool = False,
                 engine: bool = True):
        self.matrix = matrix
        self.rhs = rhs
        #: Execute SpMVs split-phase (halo exchange overlapped with the
        #: diagonal-block product) and charge the overlap-aware cost.  Off by
        #: default: the serialized path is bit-identical to the dense-gather
        #: reference, while split execution rounds like PETSc's overlapped
        #: MatMult (last-bits differences; see repro.distributed.spmv_engine).
        self.overlap_spmv = bool(overlap_spmv)
        #: Execute SpMVs through the cached local-view engine (default);
        #: ``False`` runs the dense-gather reference path instead
        #: (bit-identical results and charges, kept as the oracle).
        self.engine = bool(engine)
        self.cluster: VirtualCluster = matrix.cluster
        self.partition: BlockRowPartition = matrix.partition
        if not self.partition.is_compatible_with(rhs.partition):
            raise ValueError("matrix and right-hand side have incompatible partitions")
        self.preconditioner = (
            preconditioner if preconditioner is not None else IdentityPreconditioner()
        )
        if not self.preconditioner.is_block_diagonal:
            raise ValueError(
                "the distributed PCG solver requires a block-diagonal "
                f"preconditioner; {self.preconditioner.name} is not"
            )
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.max_iterations = (
            int(max_iterations) if max_iterations is not None else 10 * self.partition.n
        )
        self.context = context if context is not None else \
            CommunicationContext.from_matrix(matrix)
        if not self.preconditioner.is_set_up:
            self.preconditioner.setup(matrix.to_global(), self.partition)

        # Work vectors (created lazily in solve()).
        self.x: Optional[DistributedVector] = None
        self.r: Optional[DistributedVector] = None
        self.z: Optional[DistributedVector] = None
        self.p: Optional[DistributedVector] = None
        self.ap: Optional[DistributedVector] = None
        self.beta_prev: float = 0.0
        #: Current value of r^T z (kept as an attribute so recovery strategies
        #: that roll the state back, e.g. checkpoint/restart, can reset it).
        self.rz: float = 0.0
        self.iteration: int = 0
        self.residual_history: List[float] = []

    # -- hooks overridden by the resilient solver --------------------------------
    def _on_setup(self) -> None:
        """Called once after the work vectors have been initialised."""

    def _after_spmv(self, iteration: int) -> None:
        """Called right after the SpMV of *iteration* (halo data just moved)."""

    def _handle_failures(self, iteration: int) -> bool:
        """Check for and recover from node failures.

        Returns true if a recovery took place; the iteration is then restarted
        from the top of the loop (the SpMV is redone on the recovered -- and,
        for roll-back strategies, possibly rewound -- state).
        """
        return False

    def _after_iteration(self, iteration: int) -> None:
        """Called at the end of every completed iteration."""

    # -- building blocks --------------------------------------------------------------
    def _vec(self, suffix: str) -> DistributedVector:
        return DistributedVector.zeros(
            self.cluster, self.partition, f"{self.vector_prefix}:{suffix}"
        )

    def _apply_preconditioner(self, residual: DistributedVector,
                              out: DistributedVector) -> DistributedVector:
        """Block-local application of the preconditioner, charged to the ledger.

        The bulk-synchronous charge is set by the worst rank's block work,
        which is static across iterations -- it comes from the cached
        :meth:`Preconditioner.max_block_work_nnz` instead of a per-rank
        Python ``max`` loop on every application.  Resident vectors are read
        and written through their per-rank views (see
        :meth:`~repro.distributed.blockstore.NodeBlockStore.set_blocks_from`).
        """
        model = self.cluster.ledger.model
        out.set_blocks_from(residual, self.preconditioner.apply_block)
        self.cluster.ledger.add_time(
            Phase.PRECOND_COMPUTE,
            model.precond_apply_time(self.preconditioner.max_block_work_nnz()),
        )
        return out

    def _initial_guess_vector(self, x0) -> DistributedVector:
        if x0 is None:
            return self._vec("x")
        if isinstance(x0, DistributedVector):
            return x0.copy(f"{self.vector_prefix}:x")
        return DistributedVector.from_global(
            self.cluster, self.partition, f"{self.vector_prefix}:x",
            np.asarray(x0, dtype=np.float64),
        )

    def _spmv_p(self) -> None:
        """(Re)compute ``ap = A p`` -- split out so recovery can repeat it.

        Executes through the local-view SpMV engine cached on the matrix for
        the solver's prebuilt context (``O(nnz + ghosts)`` per call); the
        cache is invalidated automatically when recovery restores matrix
        blocks on replacement nodes.  With ``overlap_spmv`` the execution is
        split-phase and the overlap-aware cost is charged.
        """
        distributed_spmv(self.matrix, self.p, self.ap, self.context,
                         overlap=self.overlap_spmv, engine=self.engine)

    # -- main loop ----------------------------------------------------------------------
    def solve(self, x0: Union[None, np.ndarray, DistributedVector] = None
              ) -> DistributedSolveResult:
        """Run PCG until convergence, the iteration cap, or an unrecoverable failure."""
        ledger = self.cluster.ledger
        start_snapshot = ledger.snapshot()

        self.x = self._initial_guess_vector(x0)
        self.r = self._vec("r")
        self.z = self._vec("z")
        self.p = self._vec("p")
        self.ap = self._vec("ap")

        # r(0) = b - A x(0)
        distributed_spmv(self.matrix, self.x, self.ap, self.context,
                         overlap=self.overlap_spmv, engine=self.engine)
        self.r.assign(self.rhs)
        self.r.axpy(-1.0, self.ap)
        # z(0) = M^{-1} r(0); p(0) = z(0)
        self._apply_preconditioner(self.r, self.z)
        self.p.assign(self.z)

        self.rz = self.r.dot(self.z)
        r_norm = self.r.norm2()
        r0_norm = r_norm
        threshold = max(self.rtol * r0_norm, self.atol)
        self.residual_history = [r_norm]
        self.beta_prev = 0.0
        self.iteration = 0
        converged = r_norm <= threshold
        self._on_setup()

        while not converged and self.iteration < self.max_iterations:
            j = self.iteration
            if _sanitizer._ACTIVE is not None:
                _sanitizer._ACTIVE.note_iteration(j, solver=self)
            # --- line 3 first half: the SpMV (and the ESR redundancy exchange)
            self._spmv_p()
            self._after_spmv(j)
            # Node failures strike here (after the halo data of iteration j
            # has moved, as assumed by the ESR recovery).  If a recovery ran,
            # restart the iteration from the top: the SpMV is repeated on the
            # recovered (or, for roll-back strategies, rewound) state.
            if self._handle_failures(j):
                continue

            pap = self.p.dot(self.ap)
            if pap <= 0.0:
                logger.warning(
                    "p^T A p = %.3e <= 0 at iteration %d; stopping", pap, j
                )
                break
            alpha = self.rz / pap
            # --- lines 4-5: iterate and residual updates
            self.x.axpy(alpha, self.p)
            self.r.axpy(-alpha, self.ap)
            # --- line 6: preconditioned residual
            self._apply_preconditioner(self.r, self.z)
            # --- line 7: beta
            rz_next = self.r.dot(self.z)
            beta = rz_next / self.rz
            # --- line 8: new search direction p = z + beta p
            self.p.aypx(beta, self.z)
            self.rz = rz_next
            self.beta_prev = beta
            self.iteration = j + 1

            r_norm = self.r.norm2()
            self.residual_history.append(r_norm)
            converged = r_norm <= threshold
            self._after_iteration(self.iteration)

        return self._build_result(start_snapshot, converged, threshold)

    # -- result assembly ------------------------------------------------------------------
    def _build_result(self, start_snapshot: Dict[str, float], converged: bool,
                      threshold: float) -> DistributedSolveResult:
        ledger = self.cluster.ledger
        x_global = self.x.to_global()
        r_global = self.r.to_global()
        b_global = self.rhs.to_global()
        a_global = self.matrix.to_global()
        true_residual = float(np.linalg.norm(b_global - a_global @ x_global))

        total = ledger.since(start_snapshot)
        iteration_time = ledger.since(start_snapshot, Phase.ITERATION_PHASES)
        recovery_time = ledger.since(start_snapshot, Phase.RECOVERY_PHASES)
        # Only phases actually charged during THIS solve: a second solve on
        # the same cluster must not report stale zero-delta phases left on
        # the ledger by an earlier run.
        breakdown = {
            phase: ledger.since(start_snapshot, [phase])
            for phase in sorted(ledger.times)
            if phase not in start_snapshot
            or ledger.times[phase] != start_snapshot[phase]
        }
        result = DistributedSolveResult(
            x=x_global,
            converged=converged,
            iterations=self.iteration,
            residual_norms=list(self.residual_history),
            final_residual_norm=self.residual_history[-1],
            true_residual_norm=true_residual,
            solver_residual=r_global,
            info={
                "threshold": threshold,
                "rtol": self.rtol,
                "preconditioner": self.preconditioner.name,
                "n_nodes": self.partition.n_parts,
                "overlap_spmv": self.overlap_spmv,
                "engine": self.engine,
            },
            simulated_time=total,
            simulated_iteration_time=iteration_time,
            simulated_recovery_time=recovery_time,
            time_breakdown=breakdown,
            recoveries=list(getattr(self, "recovery_reports", [])),
        )
        return result
