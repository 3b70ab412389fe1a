"""Generation-stamped residency: every mutation path invalidates the cache.

``NodeBlockStore.resident_views`` and ``DistributedMatrix.holds_row_blocks``
reuse a successful ``NodeMemory.hold_all`` until ``NodeMemory.generation``
moves.  Each test first warms the cache, then takes one mutation path, and
checks that the cached answer agrees with an uncached ``hold_all`` and that
operations on a lost rank still raise.
"""

import numpy as np
import pytest

from repro.cluster import MachineModel, NodeFailedError, VirtualCluster
from repro.cluster.node import NodeMemory, NodeStatus
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
    DistributedVector,
    distributed_spmv,
    swap_names,
)
from repro.matrices import poisson_2d

N_PARTS = 4
N = 18  # non-uniform blocks: 5, 5, 4, 4
LOST = 2


@pytest.fixture
def cluster():
    return VirtualCluster(N_PARTS, machine=MachineModel(jitter_rel_std=0.0))


@pytest.fixture
def partition():
    return BlockRowPartition(N, N_PARTS)


def make_vector(cluster, partition, name="v", seed=0):
    values = np.random.default_rng(seed).standard_normal(N)
    vec = DistributedVector.from_global(cluster, partition, name, values)
    assert vec.resident_views() is not None  # warm the cache
    return vec


def uncached(vec):
    """What ``resident_views`` must return, recomputed from scratch."""
    held = NodeMemory.hold_all(vec._memories, vec._key(), vec._views)
    return vec._views if held else None


def assert_agrees(vec):
    assert vec.resident_views() is uncached(vec)


def memory(cluster, rank=LOST):
    return cluster.node(rank).memory


class TestNodeStatus:
    def test_direct_status_assignment_zombie_rejoin(self, cluster, partition):
        vec = make_vector(cluster, partition)
        node = cluster.node(LOST)
        node.status = NodeStatus.FAILED  # declared dead, memory not wiped
        assert_agrees(vec)
        assert vec.resident_views() is None
        with pytest.raises(NodeFailedError):
            vec.scale(2.0)
        with pytest.raises(NodeFailedError):
            vec.dot(vec)
        node.status = NodeStatus.ALIVE  # rejoins without a scrub
        assert_agrees(vec)
        assert vec.resident_views() is not None

    def test_fail(self, cluster, partition):
        vec = make_vector(cluster, partition)
        cluster.node(LOST).fail()
        assert_agrees(vec)
        assert vec.resident_views() is None
        with pytest.raises(NodeFailedError):
            vec.norm2()
        with pytest.raises(NodeFailedError):
            vec.axpy(1.0, make_vector(cluster, partition, "w"))

    def test_replace(self, cluster, partition):
        vec = make_vector(cluster, partition)
        node = cluster.node(LOST)
        node.fail()
        assert vec.resident_views() is None
        node.replace()
        assert_agrees(vec)
        assert vec.resident_views() is None
        with pytest.raises(KeyError):
            vec.norm2()
        vec.restore_block(LOST, np.ones(partition.size_of(LOST)))
        assert_agrees(vec)
        assert vec.resident_views() is not None


class TestMemoryMutations:
    def test_clear(self, cluster, partition):
        vec = make_vector(cluster, partition)
        memory(cluster).clear()
        assert_agrees(vec)
        assert vec.resident_views() is None
        with pytest.raises(KeyError):
            vec.dot(vec)

    def test_invalidate(self, cluster, partition):
        vec = make_vector(cluster, partition)
        assert memory(cluster).invalidate(vec._key())
        assert_agrees(vec)
        assert vec.resident_views() is None

    def test_del(self, cluster, partition):
        vec = make_vector(cluster, partition)
        del memory(cluster)[vec._key()]
        assert_agrees(vec)
        assert vec.resident_views() is None

    def test_pop(self, cluster, partition):
        vec = make_vector(cluster, partition)
        memory(cluster).pop(vec._key())
        assert_agrees(vec)
        assert vec.resident_views() is None

    def test_rebind_to_another_object(self, cluster, partition):
        vec = make_vector(cluster, partition)
        expected = vec.to_global()
        other = vec.get_block(LOST).copy()
        memory(cluster)[vec._key()] = other
        assert_agrees(vec)
        assert vec.resident_views() is None
        # The guarded path reads the rebound block, not the stale view.
        other[:] = 5.0
        start, stop = partition.range_of(LOST)
        expected[start:stop] = 5.0
        assert np.array_equal(vec.to_global(), expected)
        assert vec.dot(vec) == float(sum(
            float(vec.get_block(r) @ vec.get_block(r))
            for r in range(N_PARTS)))

    def test_rebind_to_the_same_object_keeps_the_stamp(self, cluster,
                                                       partition):
        vec = make_vector(cluster, partition)
        generation = NodeMemory.generation
        vec.set_block(LOST, np.zeros(partition.size_of(LOST)))
        assert NodeMemory.generation == generation
        assert_agrees(vec)
        assert vec.resident_views() is not None


class TestContainerOperations:
    def test_swap_names(self, cluster, partition):
        a = make_vector(cluster, partition, "a", seed=1)
        b = make_vector(cluster, partition, "b", seed=2)
        a_values, b_values = a.to_global(), b.to_global()
        swap_names(a, b)
        assert_agrees(a)
        assert_agrees(b)
        assert a.resident_views() is not None
        assert b.resident_views() is not None
        assert np.array_equal(a.to_global(), b_values)
        assert np.array_equal(b.to_global(), a_values)

    def test_swap_names_with_a_failed_rank(self, cluster, partition):
        a = make_vector(cluster, partition, "a", seed=1)
        b = make_vector(cluster, partition, "b", seed=2)
        cluster.node(LOST).fail()
        swap_names(a, b)
        assert_agrees(a)
        assert_agrees(b)
        with pytest.raises(NodeFailedError):
            a.dot(b)

    def test_rename(self, cluster, partition):
        vec = make_vector(cluster, partition)
        vec.rename("renamed")
        assert_agrees(vec)
        assert vec.resident_views() is not None
        assert vec.get_block(0) is vec.resident_views()[0]

    def test_rename_with_a_failed_rank(self, cluster, partition):
        vec = make_vector(cluster, partition)
        cluster.node(LOST).fail()
        vec.rename("renamed")
        assert_agrees(vec)
        with pytest.raises(NodeFailedError):
            vec.norm2()

    def test_delete(self, cluster, partition):
        vec = make_vector(cluster, partition)
        vec.delete()
        assert_agrees(vec)
        assert vec.resident_views() is None
        with pytest.raises(KeyError):
            vec.fill(0.0)


class TestMatrixRowBlocks:
    def _setup(self, cluster):
        matrix = poisson_2d(6)
        partition = BlockRowPartition(matrix.shape[0], N_PARTS)
        dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
        ctx = CommunicationContext.from_matrix(dist)
        engine = dist.spmv_engine(ctx)
        blocks = engine._row_blocks
        assert dist.holds_row_blocks(blocks)  # warm the cache
        x = DistributedVector.from_global(
            cluster, partition, "x", np.arange(matrix.shape[0], dtype=float))
        return dist, ctx, blocks, x

    @staticmethod
    def _uncached(dist, blocks):
        return NodeMemory.hold_all(dist._memories, dist._key(), blocks)

    def test_fail_drops_the_cached_hold(self, cluster):
        dist, ctx, blocks, x = self._setup(cluster)
        y = DistributedVector.zeros(cluster, dist.partition, "y")
        cluster.node(LOST).fail()
        assert dist.holds_row_blocks(blocks) is self._uncached(dist, blocks)
        assert not dist.holds_row_blocks(blocks)
        with pytest.raises(NodeFailedError):
            distributed_spmv(dist, x, y, ctx, charge=False)

    def test_rebound_block_drops_the_cached_hold(self, cluster):
        dist, ctx, blocks, x = self._setup(cluster)
        memory(cluster)[dist._key()] = blocks[LOST].copy()
        assert dist.holds_row_blocks(blocks) is self._uncached(dist, blocks)
        assert not dist.holds_row_blocks(blocks)

    def test_cached_hold_is_per_block_list(self, cluster):
        dist, ctx, blocks, x = self._setup(cluster)
        other = list(blocks)
        other[LOST] = blocks[LOST].copy()
        generation = NodeMemory.generation
        assert dist.holds_row_blocks(blocks)
        assert not dist.holds_row_blocks(other)
        assert NodeMemory.generation == generation
        assert dist.holds_row_blocks(blocks)
