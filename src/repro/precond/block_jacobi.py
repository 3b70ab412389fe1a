"""Block Jacobi preconditioner.

This is the preconditioner used in the paper's experiments (Sec. 6): the
preconditioner matrix is the block-diagonal part of ``A`` defined by the node
partition, ``M = blkdiag(A_{I_1,I_1}, ..., A_{I_N,I_N})``, and each block is
solved either exactly (sparse LU, the paper's choice during regular solver
operation) or approximately via ILU(0)/IC(0) (the paper's choice for the
reconstruction subsystem).

Being block-diagonal with respect to the partition, applying it requires no
communication, and its rows ``M_{I_f, I}`` vanish outside the failed blocks --
which is what makes the ESR reconstruction of the residual cheap.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

from ..distributed.partition import BlockRowPartition
from .base import Preconditioner, PreconditionerForm, as_indices
from .ichol import ic0, ic0_solve

#: Supported inner solvers for the diagonal blocks.
BLOCK_SOLVERS = ("direct", "ilu", "ic")


class BlockJacobiPreconditioner(Preconditioner):
    """Block Jacobi preconditioner over a block-row partition.

    Parameters
    ----------
    n_blocks:
        Number of diagonal blocks.  If a partition is supplied at
        :meth:`setup`, that partition's block count takes precedence (the
        blocks then coincide with the node subdomains, as in the paper).
    block_solver:
        ``"direct"`` (sparse LU, exact solves), ``"ilu"`` (ILU(0) via
        :func:`scipy.sparse.linalg.spilu` with zero fill), or ``"ic"``
        (incomplete Cholesky IC(0)).
    drop_tol:
        Drop tolerance forwarded to ILU (ignored otherwise).
    """

    name = "block_jacobi"

    def __init__(self, n_blocks: Optional[int] = None, *,
                 block_solver: str = "direct", drop_tol: float = 1e-4,
                 fill_factor: float = 10.0) -> None:
        super().__init__()
        if block_solver not in BLOCK_SOLVERS:
            raise ValueError(
                f"block_solver must be one of {BLOCK_SOLVERS}, got {block_solver!r}"
            )
        self.requested_blocks = n_blocks
        self.block_solver = block_solver
        self.drop_tol = drop_tol
        self.fill_factor = fill_factor
        self._blocks: Dict[int, sp.csr_matrix] = {}
        self._solvers: Dict[int, Callable[[np.ndarray], np.ndarray]] = {}
        self._block_partition: Optional[BlockRowPartition] = None

    # -- setup ----------------------------------------------------------------
    def _setup_impl(self) -> None:
        n = self.matrix.shape[0]
        if self.partition is not None:
            block_partition = self.partition
        else:
            n_blocks = self.requested_blocks or max(1, min(16, n // 64))
            block_partition = BlockRowPartition(n, n_blocks)
        self._block_partition = block_partition
        self._blocks.clear()
        self._solvers.clear()
        for rank in range(block_partition.n_parts):
            start, stop = block_partition.range_of(rank)
            block = self.matrix[start:stop, start:stop].tocsc()
            self._blocks[rank] = block.tocsr()
            self._solvers[rank] = self._make_solver(block)

    def _make_solver(self, block: sp.csc_matrix
                     ) -> Callable[[np.ndarray], np.ndarray]:
        if self.block_solver == "direct":
            lu = splu(block)
            return lu.solve
        if self.block_solver == "ilu":
            ilu = spilu(block, drop_tol=self.drop_tol,
                        fill_factor=self.fill_factor,
                        permc_spec="NATURAL", diag_pivot_thresh=0.0)
            return ilu.solve
        factor = ic0(block)
        return lambda rhs: ic0_solve(factor, rhs)

    @property
    def block_partition(self) -> BlockRowPartition:
        if self._block_partition is None:
            raise RuntimeError("setup() has not been called")
        return self._block_partition

    def diagonal_block(self, rank: int) -> sp.csr_matrix:
        """The block ``A_{I_i, I_i}`` this preconditioner uses for *rank*."""
        return self._blocks[rank]

    # -- action -------------------------------------------------------------------
    def apply(self, residual: np.ndarray) -> np.ndarray:
        out = np.empty_like(residual, dtype=np.float64)
        for rank, start, stop in self.block_partition.blocks():
            out[start:stop] = self._solvers[rank](residual[start:stop])
        return out

    def apply_block(self, rank: int, residual_block: np.ndarray) -> np.ndarray:
        expected = self.block_partition.size_of(rank)
        residual_block = np.asarray(residual_block, dtype=np.float64)
        if residual_block.ndim == 2:
            # Multi-RHS block: one inner solve per column, each on a
            # contiguous row of one transposed copy, so column j is
            # bit-identical to the 1-D path (a multi-RHS sparse-LU solve
            # rounds differently).  The result is the transpose of the
            # stacked per-column solutions, an (n_i, k) view.
            if residual_block.shape[0] != expected:
                raise ValueError(
                    f"block for rank {rank} must have {expected} rows, "
                    f"got {residual_block.shape}"
                )
            solver = self._solvers[rank]
            columns = np.ascontiguousarray(residual_block.T)
            out = np.empty_like(columns)
            for j, column in enumerate(columns):
                out[j] = solver(column)
            return out.T
        if residual_block.shape != (expected,):
            raise ValueError(
                f"block for rank {rank} must have shape ({expected},), "
                f"got {residual_block.shape}"
            )
        return self._solvers[rank](residual_block)

    @property
    def is_block_diagonal(self) -> bool:
        return True

    # -- cost accounting -------------------------------------------------------------
    def work_nnz(self) -> int:
        return int(sum(block.nnz for block in self._blocks.values()))

    def block_work_nnz(self, rank: int) -> int:
        return int(self._blocks[rank].nnz)

    # -- ESR structural access -----------------------------------------------------------
    @property
    def form(self) -> PreconditionerForm:
        return PreconditionerForm.FORWARD

    def forward_rows(self, indices: np.ndarray) -> sp.csr_matrix:
        """Rows of ``M = blkdiag(A_{I_i,I_i})`` at the given global indices.

        With inexact inner solves (ILU/IC) the operator actually applied is
        only an approximation of this ``M``; the reconstruction is then
        approximate as well, consistent with the finite-precision discussion
        in Sec. 6 of the paper.

        Assembled per owning rank: one row slice of each owner's cached
        diagonal block, shifted into global columns.
        """
        return self._assemble_rows(
            as_indices(indices),
            lambda rank, local_rows: self._blocks[rank][local_rows],
        )

    def inverse_rows(self, indices: np.ndarray) -> sp.csr_matrix:
        """Rows of ``P = M^{-1}`` (computed per block by a dense inverse).

        Only practical for moderate block sizes; the resilient solver prefers
        the FORWARD form, this method mainly supports testing the INVERSE
        reconstruction path (Alg. 2 verbatim).  Every row stores all ``n_i``
        entries of its block, explicit zeros included.
        """
        def inverse_slice(rank: int, local_rows: np.ndarray) -> sp.csr_matrix:
            dense = np.linalg.inv(self._blocks[rank].toarray())[local_rows]
            n_rows, width = dense.shape
            return sp.csr_matrix(
                (dense.ravel(), np.tile(np.arange(width), n_rows),
                 np.arange(0, n_rows * width + 1, width)),
                shape=(n_rows, width),
            )

        return self._assemble_rows(as_indices(indices), inverse_slice)

    def _assemble_rows(self, idx: np.ndarray,
                       block_rows: Callable[[int, np.ndarray], sp.csr_matrix]
                       ) -> sp.csr_matrix:
        """Stack per-rank row slices of block-local operators into ``(|idx|, n)``.

        *idx* is sorted and unique, so one ``owner_of`` call splits it into
        runs of equal owner.  ``block_rows(rank, local_rows)`` returns the
        rows of *rank*'s block operator in block-local columns; each slice is
        shifted by the block start and the slices are concatenated in order,
        keeping every row's stored entries as the slice stores them.
        """
        n = self.matrix.shape[0]
        if idx.size == 0:
            return sp.csr_matrix((0, n))
        partition = self.block_partition
        owners = partition.owner_of(idx)
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(owners)) + 1, [idx.size])
        )
        data, columns, row_nnz = [], [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rank = int(owners[lo])
            start, _ = partition.range_of(rank)
            rows = block_rows(rank, idx[lo:hi] - start)
            data.append(rows.data)
            columns.append(rows.indices.astype(np.int64) + start)
            row_nnz.append(np.diff(rows.indptr))
        indptr = np.concatenate(([0], np.cumsum(np.concatenate(row_nnz))))
        return sp.csr_matrix(
            (np.concatenate(data), np.concatenate(columns), indptr),
            shape=(idx.size, n),
        )
