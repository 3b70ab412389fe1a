"""Property-based tests (hypothesis) for the rank-batched scalar PCG loop.

On resident containers the SpMV (single- and multi-RHS) is one CSR kernel
over the whole matrix and a dot product is one stacked product over the
whole buffers.  Over random SPD sparse matrices, uniform and non-uniform
partitions and ``N = 1``, both must be bit-identical to the per-rank paths
they replace: the SpMV engine's per-rank plans, the dense-gather reference
and the per-rank ``float(mine @ theirs)`` loop summed in rank order.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import MachineModel, VirtualCluster
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
    DistributedMultiVector,
    DistributedVector,
    distributed_spmv,
    distributed_spmv_block,
)

SETTINGS = settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_spd(n, density, seed):
    """Random SPD sparse matrix: a symmetric pattern plus a dominant diagonal."""
    rng = np.random.default_rng(seed)
    upper = sp.random(n, n, density=density, random_state=rng, format="csr")
    sym = upper + upper.T
    diag = np.asarray(abs(sym).sum(axis=1)).ravel() + 1.0 + rng.random(n)
    return (sym + sp.diags(diag)).tocsr()


def build(n, n_parts, density, seed):
    """Matrix, its distributed form and context, and a random input vector."""
    matrix = random_spd(n, density, seed)
    partition = BlockRowPartition(n, n_parts)
    cluster = VirtualCluster(n_parts, machine=MachineModel(jitter_rel_std=0.0))
    dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
    ctx = CommunicationContext.from_matrix(dist)
    values = np.random.default_rng(seed + 1).standard_normal(n)
    x = DistributedVector.from_global(cluster, partition, "x", values)
    return matrix, dist, ctx, x


def per_rank_twin(dist):
    """A twin matrix on the same cluster whose row blocks are separate copies.

    Its blocks are not carved from one CSR, so its SpMV engine runs the
    per-rank plan path.
    """
    twin = DistributedMatrix(dist.cluster, dist.partition, dist.name + "_twin")
    for rank in range(dist.partition.n_parts):
        twin._set_row_block(rank, dist.row_block(rank).copy())
    return twin


def spmv(dist, x, ctx, name, *, engine=True):
    y = DistributedVector.zeros(dist.cluster, dist.partition, name)
    distributed_spmv(dist, x, y, ctx, charge=False, engine=engine)
    return y.to_global().tobytes()


def spmv_in_place(dist, values, ctx, name):
    """``x = A x`` with the output aliasing the input."""
    x = DistributedVector.from_global(dist.cluster, dist.partition, name,
                                      values)
    distributed_spmv(dist, x, x, ctx, charge=False)
    return x.to_global().tobytes()


def rank_ordered_dot(a, b):
    """The per-rank loop the stacked dot replaces, summed in rank order."""
    parts = [float(a.get_block(rank) @ b.get_block(rank))
             for rank in range(a.partition.n_parts)]
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


problems = dict(
    n=st.integers(1, 70),
    n_parts=st.integers(1, 9),
    density=st.floats(0.0, 0.3),
    seed=st.integers(0, 10**6),
)


def clamp(n, n_parts):
    return min(n_parts, n)


@SETTINGS
@given(**problems)
@example(n=1, n_parts=1, density=0.0, seed=0)
@example(n=37, n_parts=1, density=0.2, seed=1)
@example(n=23, n_parts=5, density=0.2, seed=2)  # size_runs: 5, 5, 5, 4, 4
def test_fused_spmv_matches_per_rank_and_reference(n, n_parts, density, seed):
    n_parts = clamp(n, n_parts)
    matrix, dist, ctx, x = build(n, n_parts, density, seed)
    assert dist.spmv_engine(ctx)._whole is not None
    twin = per_rank_twin(dist)
    twin_ctx = CommunicationContext.from_matrix(twin)
    assert twin.spmv_engine(twin_ctx)._whole is None

    fused = spmv(dist, x, ctx, "y_fused")
    assert fused == spmv(twin, x, twin_ctx, "y_per_rank")
    assert fused == spmv(dist, x, ctx, "y_reference", engine=False)

    values = x.to_global()
    in_place = spmv_in_place(dist, values, ctx, "x_fused")
    assert in_place == fused
    assert in_place == spmv_in_place(twin, values, twin_ctx, "x_per_rank")


@SETTINGS
@given(**problems)
@example(n=1, n_parts=1, density=0.0, seed=0)
@example(n=23, n_parts=5, density=0.2, seed=2)
def test_stacked_dot_matches_rank_ordered_loop(n, n_parts, density, seed):
    n_parts = clamp(n, n_parts)
    _, dist, _, x = build(n, n_parts, density, seed)
    y = DistributedVector.from_global(
        dist.cluster, dist.partition, "y",
        np.random.default_rng(seed + 2).standard_normal(n))
    assert x.resident_views() is not None and y.resident_views() is not None

    assert x.dot(y) == rank_ordered_dot(x, y)
    assert x.dot(y, alive_only=True) == rank_ordered_dot(x, y)
    assert y.dot(x) == rank_ordered_dot(y, x)
    self_dot = rank_ordered_dot(x, x)
    assert x.dot(x) == self_dot
    assert x.norm2() == float(np.sqrt(max(self_dot, 0.0)))


@SETTINGS
@given(**problems, rewritten=st.integers(0, 10**6))
@example(n=23, n_parts=5, density=0.2, seed=2, rewritten=4)
def test_rewritten_block_falls_back_to_plan_path(n, n_parts, density, seed,
                                                 rewritten):
    n_parts = clamp(n, n_parts)
    matrix, dist, ctx, x = build(n, n_parts, density, seed)
    before = spmv(dist, x, ctx, "y_before")
    rank = rewritten % n_parts
    # Storage hands back a distinct copy, so the rank stores another object.
    dist.cluster.storage.put_block(dist._storage_name(), rank,
                                   dist.row_block(rank).copy())
    dist.restore_block_to_node(rank, charge=False)
    engine = dist.spmv_engine(ctx)
    assert engine._whole is None
    after = spmv(dist, x, ctx, "y_after")
    assert after == before
    assert after == spmv(dist, x, ctx, "y_reference", engine=False)


@SETTINGS
@given(**problems, failed=st.integers(0, 10**6))
@example(n=23, n_parts=5, density=0.2, seed=2, failed=0)
@example(n=1, n_parts=1, density=0.0, seed=0, failed=0)
def test_fail_and_restore_of_stored_block_stays_fused(n, n_parts, density,
                                                      seed, failed):
    n_parts = clamp(n, n_parts)
    matrix, dist, ctx, x = build(n, n_parts, density, seed)
    values = x.to_global()
    before = spmv(dist, x, ctx, "y_before")
    rank = failed % n_parts
    cluster = dist.cluster
    cluster.fail_nodes([rank])
    cluster.replace_nodes([rank])
    dist.restore_block_to_node(rank, charge=False)
    start, stop = dist.partition.range_of(rank)
    x.restore_block(rank, values[start:stop])
    engine = dist.spmv_engine(ctx)
    assert engine._whole is not None
    after = spmv(dist, x, ctx, "y_after")
    assert after == before
    assert after == spmv(dist, x, ctx, "y_reference", engine=False)


def spmv_block(dist, x, ctx, name, *, engine=True):
    y = DistributedMultiVector.zeros(dist.cluster, dist.partition, name,
                                     x.n_cols)
    distributed_spmv_block(dist, x, y, ctx, charge=False, engine=engine)
    return y.to_global()


@SETTINGS
@given(**problems, n_cols=st.integers(1, 4))
@example(n=1, n_parts=1, density=0.0, seed=0, n_cols=2)
@example(n=23, n_parts=5, density=0.2, seed=2, n_cols=3)
def test_fused_block_spmv_matches_per_rank_and_columns(n, n_parts, density,
                                                       seed, n_cols):
    n_parts = clamp(n, n_parts)
    matrix, dist, ctx, _ = build(n, n_parts, density, seed)
    twin = per_rank_twin(dist)
    twin_ctx = CommunicationContext.from_matrix(twin)
    values = np.random.default_rng(seed + 3).standard_normal((n, n_cols))
    x = DistributedMultiVector.from_global(dist.cluster, dist.partition,
                                           "X", values)

    fused = spmv_block(dist, x, ctx, "Y_fused")
    assert fused.tobytes() == spmv_block(twin, x, twin_ctx,
                                         "Y_per_rank").tobytes()
    assert fused.tobytes() == spmv_block(dist, x, ctx, "Y_reference",
                                         engine=False).tobytes()
    for j in range(n_cols):
        column = DistributedVector.from_global(
            dist.cluster, dist.partition, f"x{j}", values[:, j])
        assert fused[:, j].tobytes() == spmv(dist, column, ctx, f"y{j}")

    distributed_spmv_block(dist, x, x, ctx, charge=False)
    assert x.to_global().tobytes() == fused.tobytes()
