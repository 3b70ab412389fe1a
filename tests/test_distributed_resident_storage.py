"""Contiguous per-container storage: residency, fallback parity, failures.

Every distributed container owns one buffer and stores per-rank views of it
in the node memories.  While every rank holds its view the container is
*resident* and runs whole-buffer BLAS-1 and view-based reductions; otherwise
it takes the guarded per-rank path.  These tests pin that both paths give
bit-identical solves and ledgers, that failures still surface exactly as
before, and that the partition geometry the views are cut from is cached
and read-only.
"""

import numpy as np
import pytest

import repro
from repro import sanitizer
from repro.cluster import (
    CommunicationError,
    FailureEvent,
    MachineModel,
    NodeFailedError,
    VirtualCluster,
)
from repro.distributed import (
    BlockRowPartition,
    DistributedMultiVector,
    DistributedVector,
    fused_dots,
    norms_from_dots,
    swap_names,
)
from repro.distributed.blockstore import NodeBlockStore
from repro.sanitizer import SanitizerError


def _run(n_nodes, spec_kwargs, rhs):
    matrix = repro.matrices.poisson_2d(12)
    problem = repro.distribute_problem(
        matrix, n_nodes=n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    result = repro.solve(problem, rhs, **spec_kwargs)
    ledger = problem.cluster.ledger
    return result, (sorted(ledger.times.items()), sorted(ledger.messages.items()),
                    sorted(ledger.elements.items()))


CASES = {
    "pcg": ({"solver": "pcg"}, None),
    "block_pcg_k1": ({"solver": "block_pcg"}, 1),
    "block_pcg_k4": ({"solver": "block_pcg", "fuse_reductions": True}, 4),
    "resilient_copies": ({"phi": 2, "scheme": "copies",
                          "failures": [FailureEvent(iteration=6, ranks=(1, 2)),
                                       FailureEvent(iteration=14, ranks=(4,))]},
                         None),
    "resilient_rs_parity": ({"phi": 2, "scheme": "rs_parity",
                             "failures": [FailureEvent(iteration=6,
                                                       ranks=(1, 2))]},
                            None),
}


class TestResidentMatchesFallback:
    """(a) The whole-buffer paths are bit-identical to the per-rank loop."""

    @pytest.mark.parametrize("n_nodes", [8, 7], ids=["uniform", "nonuniform"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solve_bit_identical(self, monkeypatch, case, n_nodes):
        kwargs, k = CASES[case]
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal(144 if k is None else (144, k))
        resident, resident_ledger = _run(n_nodes, kwargs, rhs)

        with monkeypatch.context() as patch:
            patch.setattr(NodeBlockStore, "resident_views", lambda self: None)
            fallback, fallback_ledger = _run(n_nodes, kwargs, rhs)

        assert np.asarray(resident.x).tobytes() == \
            np.asarray(fallback.x).tobytes()
        assert resident.iterations == fallback.iterations
        history = ("residual_norms" if k is None else "residual_histories")
        assert repr(getattr(resident, history)) == \
            repr(getattr(fallback, history))
        assert resident.time_breakdown == fallback.time_breakdown
        assert resident_ledger == fallback_ledger
        assert np.all(resident.converged)

    def test_resident_path_is_taken(self):
        """Sanity for the test above: a fresh container is resident."""
        cluster = VirtualCluster(3)
        partition = BlockRowPartition(10, 3)
        vec = DistributedVector.zeros(cluster, partition, "v")
        mvec = DistributedMultiVector.zeros(cluster, partition, "m", 2)
        views = vec.resident_views()
        assert views is not None and len(views) == 3
        assert mvec.resident_views() is not None
        assert vec.resident_buffer() is not None
        # The views are what node memory holds, cut from one buffer.
        for rank, view in enumerate(views):
            assert vec.get_block(rank) is view
            assert np.shares_memory(view, vec.resident_buffer())


@pytest.fixture
def setup():
    cluster = VirtualCluster(4, machine=MachineModel(jitter_rel_std=0.0))
    partition = BlockRowPartition(18, 4)  # non-uniform: 5, 5, 4, 4
    return cluster, partition


class TestFailureSemantics:
    """(b) A failed rank drops the container off the whole-buffer path."""

    def test_get_block_raises_after_failure(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v",
                                            np.arange(18.0))
        cluster.fail_nodes([1])
        assert vec.resident_views() is None
        with pytest.raises(NodeFailedError):
            vec.get_block(1)

    def test_to_global_shows_fill_value_not_old_rows(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v",
                                            np.arange(18.0))
        cluster.fail_nodes([2])
        out = vec.to_global(allow_missing=True, fill_value=-1.0)
        start, stop = partition.range_of(2)
        assert np.all(out[start:stop] == -1.0)
        expected = np.arange(18.0)
        expected[start:stop] = -1.0
        assert np.array_equal(out, expected)
        with pytest.raises(NodeFailedError):
            vec.to_global()

    def test_multivector_to_global_after_failure(self, setup):
        cluster, partition = setup
        values = np.arange(36.0).reshape(18, 2)
        mvec = DistributedMultiVector.from_global(cluster, partition, "m",
                                                  values)
        cluster.fail_nodes([0])
        out = mvec.to_global(allow_missing=True, fill_value=0.5)
        assert np.all(out[:5] == 0.5)
        assert np.array_equal(out[5:], values[5:])

    @pytest.mark.parametrize("op", ["axpy", "aypx", "assign", "scale", "fill",
                                    "dot", "copy"])
    def test_blas1_raises_on_failed_rank(self, setup, op):
        cluster, partition = setup
        x = DistributedVector.from_global(cluster, partition, "x", np.ones(18))
        y = DistributedVector.from_global(cluster, partition, "y", np.ones(18))
        cluster.fail_nodes([3])
        calls = {
            "axpy": lambda: y.axpy(2.0, x),
            "aypx": lambda: y.aypx(2.0, x),
            "assign": lambda: y.assign(x),
            "scale": lambda: y.scale(2.0),
            "fill": lambda: y.fill(0.0),
            "dot": lambda: y.dot(x),
            "copy": lambda: y.copy("z"),
        }
        with pytest.raises(NodeFailedError):
            calls[op]()

    def test_alive_only_dot_skips_failed_rank(self, setup):
        cluster, partition = setup
        x = DistributedVector.from_global(cluster, partition, "x", np.ones(18))
        cluster.fail_nodes([0])
        assert x.dot(x, alive_only=True) == 13.0

    def test_sanitizer_use_after_failure_still_fires(self, setup):
        cluster, partition = setup
        a = DistributedVector.from_global(cluster, partition, "a", np.ones(18))
        b = DistributedVector.from_global(cluster, partition, "b",
                                          np.zeros(18))
        with sanitizer.sanitized():
            cluster.fail_nodes([1])
            cluster.replace_nodes([1])
            # The swap's silent lookup of a lost, unreconstructed block.
            with pytest.raises(SanitizerError) as excinfo:
                swap_names(a, b)
        assert excinfo.value.detector == "use_after_failure"
        assert excinfo.value.rank == 1

    def test_restore_makes_container_resident_again(self, setup):
        cluster, partition = setup
        values = np.arange(18.0)
        vec = DistributedVector.from_global(cluster, partition, "v", values)
        cluster.fail_nodes([1, 2])
        cluster.replace_nodes([1, 2])
        assert vec.resident_views() is None
        with pytest.raises(KeyError):
            vec.get_block(1)
        vec.restore_block(1, values[partition.slice_of(1)])
        assert vec.resident_views() is None  # rank 2 still missing
        recovered = values[partition.slice_of(2)].copy()
        vec.restore_block(2, recovered)
        assert vec.resident_views() is not None
        recovered[:] = -7.0  # the caller's array is not aliased
        assert np.array_equal(vec.to_global(), values)
        vec.scale(2.0)
        assert np.array_equal(vec.to_global(), 2.0 * values)

    def test_rebound_block_takes_the_guarded_path(self, setup):
        """A block stored by anyone but the container leaves it non-resident
        and every operation reads that block, as before."""
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v",
                                            np.ones(18))
        foreign = np.full(partition.size_of(2), 3.0)
        cluster.node(2).memory[vec._key()] = foreign
        assert vec.resident_views() is None
        vec.scale(2.0)
        assert np.array_equal(foreign, np.full(4, 6.0))
        assert vec.dot(vec) == 14 * 4.0 + 4 * 36.0
        vec.set_block(2, np.zeros(4))  # copies into the view again
        assert vec.resident_views() is not None
        assert np.array_equal(foreign, np.full(4, 6.0))

    def test_set_block_copies(self, setup):
        cluster, partition = setup
        vec = DistributedVector.zeros(cluster, partition, "v")
        values = np.ones(partition.size_of(0))
        vec.set_block(0, values)
        values[:] = 9.0
        assert np.array_equal(vec.get_block(0), np.ones(5))
        assert vec.resident_views() is not None

    def test_set_block_on_failed_rank_leaves_buffer_untouched(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v",
                                            np.ones(18))
        cluster.fail_nodes([0])
        with pytest.raises(NodeFailedError):
            vec.set_block(0, np.full(5, 4.0))
        assert np.array_equal(vec._buf[:5], np.ones(5))


class TestNameOperationsKeepResidency:
    def test_swap_names_swaps_buffers(self, setup):
        cluster, partition = setup
        a = DistributedVector.from_global(cluster, partition, "a", np.ones(18))
        b = DistributedVector.from_global(cluster, partition, "b",
                                          np.zeros(18))
        swap_names(a, b)
        assert a.resident_views() is not None
        assert b.resident_views() is not None
        assert np.array_equal(a.to_global(), np.zeros(18))
        assert np.array_equal(b.to_global(), np.ones(18))
        a.axpy(1.0, b)  # whole-buffer path on the swapped storage
        assert np.array_equal(a.get_block(3), np.ones(4))

    def test_rename_keeps_residency(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "old",
                                            np.arange(18.0))
        vec.rename("new")
        assert vec.resident_views() is not None
        assert not cluster.node(0).memory.__contains__(("vec", "old"))
        assert np.array_equal(vec.to_global(), np.arange(18.0))

    def test_delete_leaves_container_non_resident(self, setup):
        cluster, partition = setup
        vec = DistributedVector.zeros(cluster, partition, "v")
        vec.delete()
        assert vec.resident_views() is None
        with pytest.raises(KeyError):
            vec.to_global()


class TestCachedPartitionGeometry:
    """(c) ``offsets``/``sizes()`` are computed once and read-only."""

    def test_offsets_cached_and_read_only(self):
        partition = BlockRowPartition(10, 3)
        assert partition.offsets is partition.offsets
        assert list(partition.offsets) == [0, 4, 7, 10]
        assert not partition.offsets.flags.writeable
        with pytest.raises(ValueError):
            partition.offsets[1] = 5
        assert list(partition.offsets) == [0, 4, 7, 10]

    def test_sizes_cached_and_read_only(self):
        partition = BlockRowPartition(10, 3)
        assert partition.sizes() is partition.sizes()
        with pytest.raises(ValueError):
            partition.sizes()[0] = 1
        assert partition.max_block_size() == 4
        assert [partition.size_of(r) for r in range(3)] == [4, 3, 3]
        assert partition.range_of(2) == (7, 10)

    def test_cached_geometry_keeps_value_semantics(self):
        a, b = BlockRowPartition(10, 3), BlockRowPartition(10, 3)
        a.offsets  # populate the cache on one side only
        assert a == b and hash(a) == hash(b)


    @pytest.mark.parametrize("n, n_parts", [(16, 4), (18, 4), (10, 3), (7, 1),
                                             (5, 5)])
    def test_size_runs_cover_the_blocks(self, n, n_parts):
        partition = BlockRowPartition(n, n_parts)
        assert partition.size_runs is partition.size_runs
        rows, ranks = 0, []
        for start, count, size in partition.size_runs:
            assert start == rows and count >= 1
            ranks += [size] * count
            rows += count * size
        assert rows == n
        assert ranks == list(partition.sizes())


class TestBlockReductions:
    """Resident multi-vector reductions match the single-vector kernels."""

    @pytest.mark.parametrize("n, n_parts", [(48, 4), (50, 4), (13, 1), (9, 9)])
    def test_dots_match_column_dots(self, n, n_parts):
        cluster = VirtualCluster(n_parts)
        partition = BlockRowPartition(n, n_parts)
        rng = np.random.default_rng(n)
        xs, ys = rng.standard_normal((2, n, 5))
        x = DistributedMultiVector.from_global(cluster, partition, "x", xs)
        y = DistributedMultiVector.from_global(cluster, partition, "y", ys)
        assert x.resident_buffer() is not None
        fused = fused_dots([(x, y), (x, x)])
        for j in range(5):
            xj = DistributedVector.from_global(cluster, partition, f"x{j}",
                                               xs[:, j])
            yj = DistributedVector.from_global(cluster, partition, f"y{j}",
                                               ys[:, j])
            assert fused[0][j] == xj.dot(yj)
            assert fused[1][j] == xj.dot(xj)
            assert x.dots(y)[j] == xj.dot(yj)

    def test_norms_from_dots_matches_scalar_norm(self):
        values = np.array([4.0, 2.0, -1e-300, -0.0, 0.0, np.nan, np.inf])
        norms = norms_from_dots(values)
        for value, norm in zip(values, norms):
            expected = (float("nan") if np.isnan(value)
                        else float(np.sqrt(max(value, 0.0))))
            assert np.array_equal(norm, expected, equal_nan=True)
            assert np.signbit(norm) == np.signbit(expected)


class TestScalarAllreduce:
    """The scalar fast path keeps the communicator's error contract."""

    def test_missing_contribution(self):
        cluster = VirtualCluster(4)
        with pytest.raises(CommunicationError, match=r"ranks \[2\]"):
            cluster.comm.allreduce_sum({0: 1.0, 1: 2.0, 3: 4.0})

    def test_mismatched_sizes(self):
        cluster = VirtualCluster(3)
        with pytest.raises(CommunicationError, match="mismatched sizes"):
            cluster.comm.allreduce_sum({0: 1.0, 1: np.ones(2), 2: 3.0})

    def test_rank_ordered_sum(self):
        cluster = VirtualCluster(3)
        values = {2: -1e16, 0: 1e16, 1: 1.0}
        # Rank order: (1e16 + 1.0) - 1e16 = 0.0, not insertion order's 1.0.
        assert cluster.comm.allreduce_sum(values) == 0.0
        assert cluster.comm.allreduce_sum(
            {0: np.float64(1.5), 1: 2.5, 2: 3.0}) == 7.0
