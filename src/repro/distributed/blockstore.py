"""Shared node-local block bookkeeping of distributed vector containers.

Both :class:`~repro.distributed.dvector.DistributedVector` and
:class:`~repro.distributed.dmultivector.DistributedMultiVector` follow the
same storage contract, implemented here once:

* **One buffer per container.**  The container owns one contiguous NumPy
  buffer for all of its rows: ``(n,)`` for a vector, C-order ``(n, k)`` for
  a multi-vector.
* **Views are what node memory holds.**  Rank ``i``'s block is the view
  ``buf[offsets[i]:offsets[i+1]]`` (the partition rows ``I_i``), and that
  view object is what the rank's :class:`~repro.cluster.node.NodeMemory`
  stores under the container's key.  Every per-rank access still goes
  through the guarded memory, so a failed node's block raises and the
  sanitizer's hooks see every write, exactly as with separately allocated
  blocks.
* **Residency.**  The container is *resident* when every rank's memory
  holds the container's own view (one identity test per rank through
  :meth:`NodeMemory.hold_all`, see :meth:`NodeBlockStore.resident_views`).
  Then no rank is failed, wiped or rebound, and the buffer is exactly the
  union of the live blocks, so elementwise operations run once on the whole
  buffer and dot products are stacked products over whole buffers (see
  :func:`_rank_dots`).  A residency check is stamped with
  :attr:`NodeMemory.generation` and reused until a node-memory mutation or
  a node status change publishes a new generation, so while nothing changes
  a container operation does O(1) residency work.  When any rank does not
  hold its view (a failed node, a replacement not yet restored, a deleted
  key, a block rebound by an outside write) the container takes the guarded
  per-rank path, which raises ``NodeFailedError``/``KeyError`` as before.
  The buffer rows of a non-resident rank are never read.
* **``set_block`` copies.**  Writing a block copies the values into the
  rank's view and stores the view again, which also makes a replacement
  rank resident again after ``restore_block``.  The caller's array is
  never aliased by the container.

The availability queries and the driver-side (de)assembly helpers depend
only on this contract.  Subclasses must provide ``cluster``, ``partition``,
``_key()``, ``get_block(rank)`` and ``set_block(rank, values)``, and call
:meth:`NodeBlockStore._init_storage` from their constructor.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .. import sanitizer as _sanitizer
from ..cluster.errors import NodeFailedError
from ..cluster.node import NodeMemory
from .partition import BlockRowPartition


def participating_max_block_size(partition: BlockRowPartition,
                                 ranks: Iterable[int]) -> int:
    """Largest block size among *ranks* (0 when the collection is empty).

    Bulk-synchronous local compute on a shrunken communicator is paced by
    the slowest rank that actually participates -- dead ranks contribute no
    work, so ``partition.max_block_size()`` would over-charge whenever the
    largest rank is among the failed ones.
    """
    sizes = partition.sizes()
    return int(max((sizes[r] for r in ranks), default=0))


def _row_dots(mine: np.ndarray, theirs: np.ndarray) -> np.ndarray:
    """``mine[..., j, :] @ theirs[..., j, :]`` for every row, in one call.

    A stacked ``(1, n_i) @ (n_i, 1)`` matmul: NumPy runs every row-times-
    column product through the same dot kernel as the 1-D ``a @ b`` of the
    per-rank :meth:`DistributedVector.dot` loop (``cblas_ddot`` on
    unit-stride rows), so each entry is bit-identical to the per-row
    product, without a Python call per row.
    """
    return np.matmul(mine[..., np.newaxis, :],
                     theirs[..., :, np.newaxis])[..., 0, 0]


def _rank_dots(x_cols: np.ndarray, y_cols: np.ndarray,
               partition: BlockRowPartition) -> np.ndarray:
    """``(k, N)`` per-rank partial dots of the rows of two ``(k, n)`` arrays.

    Each run of equally sized blocks (:attr:`BlockRowPartition.size_runs`)
    is viewed as ``(k, count, size)``, so one stacked product covers all
    ranks of the run.
    """
    k = x_cols.shape[0]
    parts = []
    for start, count, size in partition.size_runs:
        rows = slice(start, start + count * size)
        shape = (k, count, size)
        parts.append(_row_dots(x_cols[:, rows].reshape(shape),
                               y_cols[:, rows].reshape(shape)))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


class NodeBlockStore:
    """Mixin with the shared per-node block bookkeeping.

    Expected host-class contract:

    * ``self.cluster`` -- the :class:`~repro.cluster.cluster.VirtualCluster`;
    * ``self.partition`` -- the
      :class:`~repro.distributed.partition.BlockRowPartition`;
    * ``self._key()`` -- the node-memory key the blocks are stored under;
    * ``self.get_block(rank)`` -- the block of *rank* (raising
      :class:`~repro.cluster.errors.NodeFailedError` on failed nodes);
    * ``self.set_block(rank, values)`` -- overwrite the block of *rank*
      (shape-validated by the host class, then :meth:`_write_block`).
    """

    # -- the contiguous buffer and its per-rank views --------------------------
    def _init_storage(self, tail_shape: Tuple[int, ...] = ()) -> None:
        """Allocate the zeroed buffer; nothing is stored on the nodes yet."""
        self._buf = np.zeros((self.partition.n,) + tail_shape)
        self._views = [self._buf[start:stop]
                       for _, start, stop in self.partition.blocks()]
        self._memories = [node.memory for node in self.cluster.nodes]
        #: ``NodeMemory.generation`` of the last successful residency check.
        self._resident_at: Optional[int] = None

    def _install(self) -> None:
        """Store every rank's view on its node (raises on a failed node)."""
        key = self._key()
        for memory, view in zip(self._memories, self._views):
            memory[key] = view

    def _write_block(self, rank: int, values: np.ndarray) -> None:
        """Copy *values* into *rank*'s view and store the view on the node.

        The store comes first, so writing to a failed node raises before the
        buffer is touched.
        """
        view = self._views[rank]
        self._memories[rank][self._key()] = view
        view[...] = values

    def resident_views(self) -> Optional[List[np.ndarray]]:
        """The per-rank views if every rank holds this container's own view.

        ``None`` when any rank does not (failed node, wiped replacement,
        deleted or rebound key); callers then take the guarded per-rank
        path.  The returned list is the container's own: index it, do not
        mutate it.  The identity tests re-run only when the residency
        generation moved since the last success.
        """
        generation = NodeMemory.generation
        if self._resident_at == generation:
            return self._views
        if NodeMemory.hold_all(self._memories, self._key(), self._views):
            self._resident_at = generation
            return self._views
        return None

    def resident_buffer(self) -> Optional[np.ndarray]:
        """The whole buffer if the container is resident, else ``None``."""
        return self._buf if self.resident_views() is not None else None

    def _elementwise(self, op: Callable[..., object],
                     *others: "NodeBlockStore") -> None:
        """Run the in-place ``op(own, *theirs)`` over all rows.

        When this container and all *others* are resident, *op* runs once on
        the whole buffers; otherwise once per rank on the blocks read
        through the guarded memory (own block first), raising at the first
        lost block as before.  *op* must be elementwise, which makes the two
        paths bit-identical.
        """
        if self.resident_views() is not None and all(
                other.resident_views() is not None for other in others):
            op(self._buf, *(other._buf for other in others))
            return
        for rank in range(self.partition.n_parts):
            op(self.get_block(rank),
               *(other.get_block(rank) for other in others))

    def _copy_into(self, out: "NodeBlockStore") -> None:
        """Write this container's values into the fresh container *out*."""
        if self.resident_views() is not None:
            out._buf[...] = self._buf
            out._install()
            return
        for rank in range(self.partition.n_parts):
            out.set_block(rank, self.get_block(rank))

    def set_blocks_from(self, source: "NodeBlockStore",
                        fn: Callable[[int, np.ndarray], np.ndarray]) -> None:
        """Set every rank's block to ``fn(rank, source's block of rank)``.

        The block-local map of a block-diagonal operator (the
        preconditioner application).  Resident containers pass *source*'s
        views to *fn* and copy the results into this container's views;
        otherwise blocks go through ``get_block``/``set_block``, raising at
        the first lost block as before.
        """
        sources, targets = source.resident_views(), self.resident_views()
        if sources is not None and targets is not None:
            for rank, (block, target) in enumerate(zip(sources, targets)):
                target[...] = fn(rank, block)
            return
        for rank in range(self.partition.n_parts):
            self.set_block(rank, fn(rank, source.get_block(rank)))

    def _paired_blocks(self, other: "NodeBlockStore", alive_only: bool
                       ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """``(rank, own block, other's block)`` of every participating rank.

        Resident containers yield their views directly (every node is
        alive, so ``alive_only`` skips nothing); otherwise each block is
        read through the guarded memory, skipping failed ranks when
        ``alive_only``, and a missing block raises at its rank as before.
        """
        mine = self.resident_views()
        theirs = mine if other is self else other.resident_views()
        if mine is not None and theirs is not None:
            yield from zip(range(len(mine)), mine, theirs)
            return
        for rank in range(self.partition.n_parts):
            if alive_only and not self.cluster.node(rank).is_alive:
                continue
            yield rank, self.get_block(rank), other.get_block(rank)

    def restore_block(self, rank: int, values: np.ndarray) -> None:
        """Write a recovered block onto (replacement) node *rank*.

        The recovery-path counterpart of ``set_block``, used by the ESR
        reconstruction to re-install reconstructed state -- single-vector
        blocks and ``(n_i, k)`` multi-vector blocks alike -- on the
        replacement nodes the ULFM runtime provided.  Like every block write
        it copies the values into the rank's view, so the reconstruction's
        driver-side work buffers never alias node-local memory, and the
        rank holds the container's view (is resident) again.  Writing to a
        failed node raises ``NodeFailedError`` exactly like ``set_block``.
        """
        self.set_block(rank, values)
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_block_restored(rank, self._key())

    def has_block(self, rank: int) -> bool:
        """True if *rank* is alive and holds a block of this container."""
        node = self.cluster.node(rank)
        if not node.is_alive:
            return False
        return self._key() in node.memory

    def available_ranks(self) -> List[int]:
        """Ranks whose block is currently readable."""
        return [r for r in range(self.partition.n_parts) if self.has_block(r)]

    def lost_ranks(self) -> List[int]:
        """Ranks whose block is unavailable (failed node or never written)."""
        return [r for r in range(self.partition.n_parts) if not self.has_block(r)]

    def delete(self) -> None:
        """Remove this container's blocks from all alive nodes."""
        key = self._key()
        for rank in range(self.partition.n_parts):
            node = self.cluster.node(rank)
            if node.is_alive and key in node.memory:
                del node.memory[key]

    # -- driver-side assembly ------------------------------------------------
    def _assemble(self, extract: Callable[[np.ndarray], np.ndarray],
                  tail_shape: Tuple[int, ...], *, allow_missing: bool = False,
                  fill_value: float = np.nan) -> np.ndarray:
        """Assemble ``extract(block)`` of every rank into one global array.

        *extract* maps each rank's block to the rows it contributes (shape
        ``(n_i,) + tail_shape``); the identity assembles the full container,
        a column selector assembles just that column.  A resident container
        copies ``extract(buffer)`` in one step.  This is an
        orchestration/verification helper (it is *not* charged to the cost
        model); the solvers themselves only use block access and explicit
        communication.  With ``allow_missing=True`` the rows of failed nodes
        are replaced by ``fill_value`` instead of raising.
        """
        if self.resident_views() is not None:
            return np.array(extract(self._buf), dtype=np.float64)
        out = np.full((self.partition.n,) + tail_shape, fill_value,
                      dtype=np.float64)
        for rank in range(self.partition.n_parts):
            start, stop = self.partition.range_of(rank)
            try:
                out[start:stop] = extract(self.get_block(rank))
            except (NodeFailedError, KeyError):
                if not allow_missing:
                    raise
        return out
