"""Distributed vectors with node-local block storage.

A :class:`DistributedVector` owns one contiguous ``(n,)`` buffer; the block of
node ``i`` is the view of its partition rows, and that view is what the
node's private :class:`~repro.cluster.node.NodeMemory` stores.  This is what
makes the failure simulation meaningful: when a node fails, its block of every
dynamic vector (``x``, ``r``, ``z``, ``p``, ``Ap``) is genuinely gone from its
memory and any attempt to read it raises, so recovery code must obtain the
data from redundant copies or recompute it.

While every rank holds the vector's own view (the vector is *resident*, see
:mod:`repro.distributed.blockstore`), the elementwise operations run as one
NumPy call on the whole buffer and a dot product is one stacked product
over the whole buffers; both are bit-identical to the per-rank loop, which
remains the path for vectors with a failed, wiped or rebound rank.  ``set_block`` copies the values into
the rank's view, so the caller's array is never aliased.

All arithmetic helpers charge the bulk-synchronous cost model: local work is
charged as the maximum over the participating nodes, and reductions go through
the communicator's allreduce (which charges the collective's cost).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..cluster.cluster import VirtualCluster
from ..cluster.cost_model import Phase
from .blockstore import (
    NodeBlockStore,
    _rank_dots,
    participating_max_block_size,
)
from .partition import BlockRowPartition

#: Memory key prefix under which vector blocks are stored on each node.
_VEC_KEY = "vec"


class DistributedVector(NodeBlockStore):
    """A block-row distributed vector living in node-local memories."""

    def __init__(self, cluster: VirtualCluster, partition: BlockRowPartition,
                 name: str):
        if partition.n_parts != cluster.n_nodes:
            raise ValueError(
                f"partition has {partition.n_parts} parts but cluster has "
                f"{cluster.n_nodes} nodes"
            )
        self.cluster = cluster
        self.partition = partition
        self.name = name
        self._init_storage()

    # -- construction -------------------------------------------------------
    @classmethod
    def zeros(cls, cluster: VirtualCluster, partition: BlockRowPartition,
              name: str) -> "DistributedVector":
        """Create a distributed vector of zeros."""
        vec = cls(cluster, partition, name)
        vec._install()
        return vec

    @classmethod
    def from_global(cls, cluster: VirtualCluster, partition: BlockRowPartition,
                    name: str, values: np.ndarray) -> "DistributedVector":
        """Distribute a global array over the nodes (setup phase, not charged)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (partition.n,):
            raise ValueError(
                f"expected a vector of length {partition.n}, got shape {values.shape}"
            )
        vec = cls(cluster, partition, name)
        vec._buf[:] = values
        vec._install()
        return vec

    # -- block access ----------------------------------------------------------
    def _key(self) -> tuple:
        return (_VEC_KEY, self.name)

    def get_block(self, rank: int) -> np.ndarray:
        """Block owned by *rank*; raises ``NodeFailedError`` if that node failed."""
        return self.cluster.node(rank).memory[self._key()]

    def set_block(self, rank: int, values: np.ndarray) -> None:
        """Overwrite the block owned by *rank* (copies into the rank's view)."""
        values = np.asarray(values, dtype=np.float64)
        expected = self.partition.size_of(rank)
        if values.shape != (expected,):
            raise ValueError(
                f"block for rank {rank} must have shape ({expected},), "
                f"got {values.shape}"
            )
        self._write_block(rank, values)

    # ``has_block`` / ``available_ranks`` / ``lost_ranks`` / ``delete`` come
    # from :class:`NodeBlockStore` (shared with ``DistributedMultiVector``).

    # -- global assembly (verification / recovery use) ---------------------------
    def to_global(self, *, allow_missing: bool = False,
                  fill_value: float = np.nan) -> np.ndarray:
        """Assemble the global vector on the driver.

        This is an orchestration/verification helper (it is *not* charged to
        the cost model); the solvers themselves only use block access and
        explicit communication.  With ``allow_missing=True`` the blocks of
        failed nodes are replaced by ``fill_value`` instead of raising.
        """
        return self._assemble(lambda block: block, (),
                              allow_missing=allow_missing,
                              fill_value=fill_value)

    # -- elementwise / BLAS-1 operations ----------------------------------------
    def _charge_vector_op(self, flops_per_element: float = 2.0,
                          phase: str = Phase.VECTOR_COMPUTE,
                          n_elements: Optional[int] = None) -> None:
        model = self.cluster.ledger.model
        if n_elements is None:
            n_elements = self.partition.max_block_size()
        self.cluster.ledger.add_time(
            phase,
            model.vector_op_time(n_elements, flops_per_element),
        )

    def copy(self, name: str) -> "DistributedVector":
        """Deep copy under a new name (charged as a streaming vector op)."""
        out = DistributedVector(self.cluster, self.partition, name)
        self._copy_into(out)
        self._charge_vector_op(1.0)
        return out

    def fill(self, value: float) -> "DistributedVector":
        """Set every element to *value*."""
        self._elementwise(lambda own: np.copyto(own, value))
        self._charge_vector_op(1.0)
        return self

    def scale(self, alpha: float) -> "DistributedVector":
        """In-place ``self *= alpha``."""
        self._elementwise(lambda own: np.multiply(own, alpha, out=own))
        self._charge_vector_op(1.0)
        return self

    def axpy(self, alpha: float, x: "DistributedVector") -> "DistributedVector":
        """In-place ``self += alpha * x``."""
        self._check_compatible(x)
        self._elementwise(
            lambda own, xs: np.add(own, alpha * xs, out=own), x)
        self._charge_vector_op(2.0)
        return self

    def aypx(self, alpha: float, x: "DistributedVector") -> "DistributedVector":
        """In-place ``self = x + alpha * self`` (the PCG search-direction update)."""
        self._check_compatible(x)
        self._elementwise(
            lambda own, xs: np.add(xs, alpha * own, out=own), x)
        self._charge_vector_op(2.0)
        return self

    def assign(self, other: "DistributedVector") -> "DistributedVector":
        """In-place copy of *other*'s values into this vector."""
        self._check_compatible(other)
        self._elementwise(np.copyto, other)
        self._charge_vector_op(1.0)
        return self

    def pointwise_multiply(self, other: "DistributedVector",
                           name: str) -> "DistributedVector":
        """Elementwise product (used by the Jacobi preconditioner)."""
        self._check_compatible(other)
        out = DistributedVector(self.cluster, self.partition, name)
        for rank in range(self.partition.n_parts):
            out.set_block(rank, self.get_block(rank) * other.get_block(rank))
        self._charge_vector_op(1.0)
        return out

    # -- reductions ---------------------------------------------------------------
    def dot(self, other: "DistributedVector", *, alive_only: bool = False) -> float:
        """Global dot product via local dots + allreduce.

        When both vectors are resident, all ``N`` local dots are one stacked
        product per run of equally sized blocks over the whole buffers
        (bit-identical to the per-rank ``mine @ theirs``); otherwise each
        rank's blocks are read through the guarded memory.  Either way the
        partial sums reach the allreduce as Python floats in rank order.
        """
        self._check_compatible(other)
        mine = self.resident_buffer()
        theirs = mine if other is self else other.resident_buffer()
        contributions: Dict[int, float]
        if mine is not None and theirs is not None:
            partials = _rank_dots(mine[np.newaxis], theirs[np.newaxis],
                                  self.partition)[0]
            contributions = dict(enumerate(partials.tolist()))
        else:
            contributions = {
                rank: float(mine @ theirs)
                for rank, mine, theirs in self._paired_blocks(other,
                                                              alive_only)
            }
        # The local compute is bulk-synchronous: the slowest *participating*
        # rank sets the pace.  On a shrunken communicator (alive_only) a dead
        # rank contributes nothing, so the global max block size must not be
        # charged when the largest rank happens to be the one that is down.
        self._charge_vector_op(2.0, n_elements=participating_max_block_size(
            self.partition, contributions) if alive_only else None)
        return float(
            self.cluster.comm.allreduce_sum(contributions, alive_only=alive_only)
        )

    def norm2(self, *, alive_only: bool = False) -> float:
        """Euclidean norm (dot with itself, then square root).

        A NaN reduction (corrupted or lost data) propagates as NaN so the
        solver surfaces the failure -- clamping it to ``0.0`` would silently
        read as "converged".  The explicit check guarantees this regardless
        of ``max()`` argument-order subtleties with NaN; only tiny negative
        rounding residue is clamped.
        """
        value = self.dot(self, alive_only=alive_only)
        if np.isnan(value):
            return float("nan")
        return float(np.sqrt(max(value, 0.0)))

    def local_norm2(self, rank: int) -> float:
        """Norm of a single block (no communication; used in diagnostics)."""
        return float(np.linalg.norm(self.get_block(rank)))

    # -- maintenance ------------------------------------------------------------------
    def rename(self, new_name: str) -> "DistributedVector":
        """Rename the vector (moves every block under the new key).

        Failed nodes cannot take part in the move; any block still sitting
        under either key on such a node predates the rename, so the stale
        keys are invalidated (see :func:`swap_names` for the rationale).
        """
        old_key = self._key()
        self.name = new_name
        new_key = self._key()
        for rank in range(self.partition.n_parts):
            node = self.cluster.node(rank)
            if not node.is_alive:
                node.memory.invalidate(old_key)
                node.memory.invalidate(new_key)
                continue
            if old_key in node.memory:
                node.memory[new_key] = node.memory.pop(old_key)
        return self

    def _check_compatible(self, other: "DistributedVector") -> None:
        if other.cluster is not self.cluster:
            raise ValueError("vectors live on different clusters")
        if not self.partition.is_compatible_with(other.partition):
            raise ValueError(
                "vectors have incompatible partitions: "
                f"{self.partition} vs {other.partition}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DistributedVector(name={self.name!r}, n={self.partition.n}, "
            f"N={self.partition.n_parts})"
        )


def swap_names(a: DistributedVector, b: DistributedVector) -> None:
    """Swap the storage of two distributed vectors without copying data.

    Used by the solvers to rotate ``p^(j)`` / ``p^(j-1)`` style pairs cheaply.

    Failed nodes cannot take part in the swap.  Their blocks were wiped at
    failure time, but if anything is still (or again) stored under either
    name -- e.g. a node that was wrongly declared dead and rejoins without a
    scrub, or a restore that re-populates memory before the swap is replayed
    -- those blocks predate the swap and would be associated with the wrong
    vector under *both* names.  Instead of silently skipping such ranks, the
    stale keys are invalidated in the raw store so a later restore cannot
    expose pre-swap data; recovery must re-create the blocks explicitly.

    The two vectors exchange their buffers along with the keys, so a vector
    that was resident before the swap is resident after it.
    """
    if a.cluster is not b.cluster or not a.partition.is_compatible_with(b.partition):
        raise ValueError("can only swap vectors on the same cluster/partition")
    for rank in range(a.partition.n_parts):
        node = a.cluster.node(rank)
        key_a, key_b = a._key(), b._key()
        if not node.is_alive:
            node.memory.invalidate(key_a)
            node.memory.invalidate(key_b)
            continue
        block_a = node.memory.get(key_a)
        block_b = node.memory.get(key_b)
        if block_b is not None:
            node.memory[key_a] = block_b
        elif key_a in node.memory:
            del node.memory[key_a]
        if block_a is not None:
            node.memory[key_b] = block_a
        elif key_b in node.memory:
            del node.memory[key_b]
    # Each key now holds the other vector's views: hand the buffers over too,
    # so both vectors stay resident (and keep their whole-buffer paths).
    a._buf, b._buf = b._buf, a._buf
    a._views, b._views = b._views, a._views
