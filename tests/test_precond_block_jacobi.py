"""Tests for the block Jacobi preconditioner (the paper's setting)."""

import numpy as np
import pytest

from repro.distributed import BlockRowPartition
from repro.matrices import poisson_2d
from repro.precond import BlockJacobiPreconditioner, PreconditionerForm


@pytest.fixture
def matrix():
    return poisson_2d(10)  # n = 100


@pytest.fixture
def partition():
    return BlockRowPartition(100, 4)


class TestSetupAndApply:
    def test_exact_block_solves(self, matrix, partition):
        p = BlockJacobiPreconditioner(block_solver="direct")
        p.setup(matrix, partition)
        r = np.random.default_rng(0).standard_normal(100)
        z = p.apply(r)
        # z must satisfy blkdiag(A_ii) z = r exactly
        for rank in range(4):
            start, stop = partition.range_of(rank)
            block = matrix[start:stop, start:stop]
            assert np.allclose(block @ z[start:stop], r[start:stop], atol=1e-10)

    def test_apply_block_matches_apply(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        r = np.arange(100.0)
        z = p.apply(r)
        for rank in range(4):
            start, stop = partition.range_of(rank)
            assert np.allclose(p.apply_block(rank, r[start:stop]), z[start:stop])

    def test_wrong_block_size_rejected(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        with pytest.raises(ValueError):
            p.apply_block(0, np.ones(10))

    def test_without_partition_uses_default_blocks(self, matrix):
        p = BlockJacobiPreconditioner(n_blocks=5)
        p.setup(matrix)
        assert p.block_partition.n_parts == 5

    def test_invalid_solver_rejected(self):
        with pytest.raises(ValueError):
            BlockJacobiPreconditioner(block_solver="magic")

    @pytest.mark.parametrize("solver", ["ilu", "ic"])
    def test_inexact_solvers_are_good_approximations(self, matrix, partition, solver):
        p = BlockJacobiPreconditioner(block_solver=solver)
        p.setup(matrix, partition)
        exact = BlockJacobiPreconditioner(block_solver="direct")
        exact.setup(matrix, partition)
        r = np.random.default_rng(1).standard_normal(100)
        z_approx = p.apply(r)
        z_exact = exact.apply(r)
        rel = np.linalg.norm(z_approx - z_exact) / np.linalg.norm(z_exact)
        assert rel < 0.3

    def test_is_block_diagonal(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        assert p.is_block_diagonal

    def test_work_nnz(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        expected = sum(
            matrix[partition.slice_of(r), partition.slice_of(r)].nnz
            for r in range(4)
        )
        assert p.work_nnz() == expected
        assert sum(p.block_work_nnz(r) for r in range(4)) == expected


class TestEsrAccess:
    def test_form_is_forward(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        assert p.form is PreconditionerForm.FORWARD

    def test_forward_rows_are_block_diagonal(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        idx = partition.indices_of(2)
        rows = p.forward_rows(idx)
        assert rows.shape == (25, 100)
        # non-zeros only inside the owning block's columns
        start, stop = partition.range_of(2)
        cols = rows.tocoo().col
        assert np.all((cols >= start) & (cols < stop))
        # and they match A's diagonal block
        assert np.allclose(rows[:, start:stop].toarray(),
                           matrix[start:stop, start:stop].toarray())

    def test_inverse_rows_invert_blocks(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        idx = partition.indices_of(1)
        inv_rows = p.inverse_rows(idx)
        start, stop = partition.range_of(1)
        block = matrix[start:stop, start:stop].toarray()
        product = inv_rows[:, start:stop].toarray() @ block
        assert np.allclose(product, np.eye(25), atol=1e-8)

    def test_mixed_rank_rows(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        idx = np.array([0, 30, 99])
        rows = p.forward_rows(idx)
        assert rows.shape == (3, 100)

    def test_diagonal_block_accessor(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        start, stop = partition.range_of(3)
        assert (p.diagonal_block(3) != matrix[start:stop, start:stop]).nnz == 0


class TestAsPreconditionerInPCG:
    def test_converges_and_matches_plain_cg(self, matrix, partition):
        from repro.solvers import cg, pcg
        b = np.random.default_rng(3).standard_normal(100)
        plain = cg(matrix, b, rtol=1e-10)
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        prec = pcg(matrix, b, preconditioner=p, rtol=1e-10)
        assert prec.converged
        # The preconditioned Krylov space is different but the solution is not.
        assert np.allclose(prec.x, plain.x, atol=1e-6)
        # Block Jacobi must not blow up the iteration count on this easy problem.
        assert prec.iterations <= 2 * plain.iterations


class TestMultiRhsBlock:
    def test_two_d_block_is_column_exact_on_m5(self):
        """The 2-D path equals per-column 1-D solves on a supernodal block."""
        from repro.matrices import build_matrix
        a = build_matrix("M5", n=1000)
        part = BlockRowPartition(a.shape[0], 4)
        p = BlockJacobiPreconditioner()
        p.setup(a, part)
        block = np.random.default_rng(0).standard_normal((part.size_of(1), 8))
        out = p.apply_block(1, block)
        for j in range(8):
            assert np.array_equal(
                out[:, j], p.apply_block(1, np.ascontiguousarray(block[:, j])))

    def test_multi_rhs_superlu_is_not_column_exact(self):
        """Why the 2-D path solves column by column.

        For several right-hand sides SuperLU runs its supernodal triangular
        updates through BLAS-3 kernels (``dtrsm``/``dgemm``) instead of the
        BLAS-2 ones (``dtrsv``/``dgemv``) of a single right-hand side, so a
        column of ``lu.solve(B)`` can differ in the last bits from
        ``lu.solve(B[:, j])``.  Whether it does depends on the BLAS build;
        where none of the systems below shows a difference there is nothing
        to demonstrate and the test skips.
        """
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
        from repro.matrices import build_matrix
        systems = [build_matrix("M5", n=1000)[:250, :250]]
        for seed in range(20):
            r = sp.random(200, 200, density=0.04, random_state=seed)
            systems.append(r + r.T + 8 * sp.eye(200))
        differing = 0
        for seed, a in enumerate(systems):
            lu = splu(sp.csc_matrix(a))
            b = np.random.default_rng(seed).standard_normal((a.shape[0], 8))
            columns = np.column_stack(
                [lu.solve(np.ascontiguousarray(b[:, j])) for j in range(8)])
            differing += not np.array_equal(lu.solve(b), columns)
        if not differing:
            pytest.skip("this BLAS build solves multi-RHS column-exactly")
