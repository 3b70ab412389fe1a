"""Per-rank assembly of the preconditioner rows the ESR recovery reads.

``BlockJacobiPreconditioner.forward_rows``/``inverse_rows`` build the rows
``M_{I_f, I}`` (or ``P_{I_f, I}``) one owning rank at a time.  The per-row
assembly they replace is kept here as the oracle: the CSR arrays must match
it bit for bit (same ``indptr``, ``indices`` and ``data``, same dtypes, same
entry order, explicit zeros kept), and resilient solves that recover through
either assembly must produce identical iterates and ledgers.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster import (
    FailureEvent,
    FailureInjector,
    MachineModel,
    VirtualCluster,
)
from repro.core import ResilientBlockPCG, ResilientPCG
from repro.core.api import distribute_problem
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
    DistributedMultiVector,
)
from repro.matrices import graph_laplacian_spd, poisson_2d
from repro.precond import BlockJacobiPreconditioner, make_preconditioner
from repro.precond.base import PreconditionerForm, as_indices


# -- the per-row oracle ---------------------------------------------------------
def per_row_forward_rows(precond, indices):
    """One padded 1-row CSR per global index, stacked with ``sp.vstack``."""
    idx = as_indices(indices)
    partition = precond.block_partition
    n = precond.matrix.shape[0]
    rows = []
    for gi in idx:
        rank = partition.owner_of_scalar(int(gi))
        start, _ = partition.range_of(rank)
        local_row = precond.diagonal_block(rank)[int(gi) - start, :]
        rows.append(sp.csr_matrix(
            (local_row.data, local_row.indices + start,
             np.array([0, local_row.nnz])),
            shape=(1, n),
        ))
    if not rows:
        return sp.csr_matrix((0, n))
    return sp.vstack(rows, format="csr")


def per_row_inverse_rows(precond, indices):
    """One dense inverse per touched rank, then one 1-row CSR per index."""
    idx = as_indices(indices)
    partition = precond.block_partition
    n = precond.matrix.shape[0]
    by_rank = {}
    for gi in idx:
        by_rank.setdefault(partition.owner_of_scalar(int(gi)), []).append(
            int(gi))
    row_map = {}
    for rank, global_rows in by_rank.items():
        start, stop = partition.range_of(rank)
        inv = np.linalg.inv(precond.diagonal_block(rank).toarray())
        for gi in global_rows:
            data = inv[gi - start, :]
            row_map[gi] = sp.csr_matrix(
                (data, (np.zeros(data.size, dtype=int),
                        np.arange(start, stop))),
                shape=(1, n),
            )
    rows = [row_map[int(gi)] for gi in idx]
    if not rows:
        return sp.csr_matrix((0, n))
    return sp.vstack(rows, format="csr")


def assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


# -- bit-identity of the CSR arrays -----------------------------------------------
PARTITIONS = {
    "uniform_n98_N7": (lambda: graph_laplacian_spd(98, avg_degree=5, seed=3),
                       7),
    "nonuniform_n100_N7": (lambda: poisson_2d(10), 7),
    "single_rank_n100_N1": (lambda: poisson_2d(10), 1),
}

INDEX_SETS = {
    "empty": [],
    "single": [13],
    "unsorted": [57, 3, 97, 14, 0],
    "duplicates": [5, 5, 5, 6, 6, 40],
    "mixed_ranks": [0, 14, 15, 16, 50, 51, 52, 97],
    "whole_rank": list(range(28, 42)),
    "everything": list(range(98)),
    "set_input": {90, 2, 45},
}


@pytest.fixture(params=sorted(PARTITIONS))
def precond(request):
    build, n_parts = PARTITIONS[request.param]
    matrix = build()
    p = BlockJacobiPreconditioner()
    p.setup(matrix, BlockRowPartition(matrix.shape[0], n_parts))
    return p


@pytest.mark.parametrize("index_set", sorted(INDEX_SETS))
def test_forward_rows_match_per_row_assembly(precond, index_set):
    indices = INDEX_SETS[index_set]
    assert_same_csr(precond.forward_rows(indices),
                    per_row_forward_rows(precond, indices))


@pytest.mark.parametrize("index_set", sorted(INDEX_SETS))
def test_inverse_rows_match_per_row_assembly(precond, index_set):
    indices = INDEX_SETS[index_set]
    assert_same_csr(precond.inverse_rows(indices),
                    per_row_inverse_rows(precond, indices))


def test_generator_and_array_inputs_give_the_same_rows(precond):
    expected = precond.forward_rows([3, 20, 60])
    assert_same_csr(precond.forward_rows(i for i in (60, 3, 20)), expected)
    assert_same_csr(precond.forward_rows(np.array([60, 3, 20])), expected)


def test_inverse_rows_keep_explicit_zeros():
    # A block-diagonal block (two decoupled 1-D chains inside one rank) has
    # an inverse with exact zeros; every row still stores all n_i entries.
    chain = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(4, 4))
    matrix = sp.block_diag([chain, chain, chain]).tocsr()
    p = BlockJacobiPreconditioner()
    p.setup(matrix, BlockRowPartition(12, 2))
    rows = p.inverse_rows([0, 7])
    assert np.diff(rows.indptr).tolist() == [6, 6]
    assert np.count_nonzero(rows.data == 0.0) > 0
    assert_same_csr(rows, per_row_inverse_rows(p, [0, 7]))


# -- recovery through either assembly ---------------------------------------------
FAILURES = [FailureEvent(5, (1, 2)), FailureEvent(11, (4,))]


def _ledger_state(ledger):
    return (dict(ledger.times), dict(ledger.messages), dict(ledger.elements))


def _histories(result):
    """Residual-norm histories of a vector (one) or block (k) result."""
    if hasattr(result, "residual_histories"):
        return result.residual_histories
    return [result.residual_norms]


def _resilient_solve(form):
    problem = distribute_problem(poisson_2d(16), n_nodes=5, seed=0,
                                 machine=MachineModel(jitter_rel_std=0.0))
    precond = make_preconditioner("block_jacobi")
    precond.setup(problem.matrix.to_global(), problem.partition)
    solver = ResilientPCG(problem.matrix, problem.rhs, precond, phi=2,
                          failure_injector=FailureInjector(FAILURES),
                          reconstruction_form=form, context=problem.context)
    result = solver.solve()
    return result, _ledger_state(problem.cluster.ledger)


def _resilient_block_solve(form):
    a = poisson_2d(16)
    n = a.shape[0]
    partition = BlockRowPartition(n, 5)
    cluster = VirtualCluster(5, machine=MachineModel(jitter_rel_std=0.0))
    dist = DistributedMatrix.from_global(cluster, partition, "A", a)
    context = CommunicationContext.from_matrix(dist)
    precond = make_preconditioner("block_jacobi")
    precond.setup(a, partition)
    rhs = DistributedMultiVector.from_global(
        cluster, partition, "b",
        np.random.default_rng(4).standard_normal((n, 3)),
    )
    solver = ResilientBlockPCG(dist, rhs, precond, phi=2, context=context,
                               failure_injector=FailureInjector(FAILURES),
                               reconstruction_form=form)
    result = solver.solve()
    return result, _ledger_state(cluster.ledger)


@pytest.mark.parametrize("form", [PreconditionerForm.FORWARD,
                                  PreconditionerForm.INVERSE])
@pytest.mark.parametrize("run", [_resilient_solve, _resilient_block_solve],
                         ids=["resilient_pcg", "resilient_block_pcg"])
def test_recovery_matches_per_row_assembly(monkeypatch, run, form):
    result, ledger = run(form)
    assert result.n_failures_recovered == 3
    monkeypatch.setattr(BlockJacobiPreconditioner, "forward_rows",
                        per_row_forward_rows)
    monkeypatch.setattr(BlockJacobiPreconditioner, "inverse_rows",
                        per_row_inverse_rows)
    oracle_result, oracle_ledger = run(form)
    assert result.iterations == oracle_result.iterations
    assert np.array_equal(result.x, oracle_result.x)
    assert _histories(result) == _histories(oracle_result)
    assert ledger == oracle_ledger
