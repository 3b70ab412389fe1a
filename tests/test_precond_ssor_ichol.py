"""Tests for SSOR, split-Cholesky preconditioners and the IC(0) factorisation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices import poisson_2d
from repro.precond import (
    PreconditionerForm,
    SplitCholeskyPreconditioner,
    SSORPreconditioner,
    factorization_residual,
    ic0,
    ic0_solve,
)
from repro.precond.ichol import FactorizationError
from repro.solvers import cg, pcg


@pytest.fixture
def matrix():
    return poisson_2d(8)


class TestIc0:
    def test_factor_is_lower_triangular(self, matrix):
        factor = ic0(matrix)
        assert (sp.triu(factor, k=1)).nnz == 0

    def test_pattern_matches_lower_triangle(self, matrix):
        factor = ic0(matrix)
        lower = sp.tril(matrix)
        assert factor.nnz == lower.nnz

    def test_exact_for_tridiagonal(self):
        # IC(0) of a tridiagonal SPD matrix is the exact Cholesky factor.
        from repro.matrices import poisson_1d
        a = poisson_1d(20)
        factor = ic0(a)
        assert factorization_residual(a, factor) < 1e-12

    def test_reasonable_approximation_2d(self, matrix):
        factor = ic0(matrix)
        assert factorization_residual(matrix, factor) < 0.3

    def test_solve(self, matrix):
        factor = ic0(matrix)
        rhs = np.ones(matrix.shape[0])
        x = ic0_solve(factor, rhs)
        assert np.allclose(factor @ (factor.T @ x), rhs, atol=1e-10)

    def test_diagonal_shift_recovery(self):
        # An indefinite-looking perturbation forces the shifted retry path.
        a = poisson_2d(6).tolil()
        a[0, 0] = 1e-8
        factor = ic0(sp.csr_matrix(a))
        assert np.isfinite(factor.data).all()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ic0(sp.csr_matrix(np.ones((3, 4))))

    def test_missing_diagonal_detected(self):
        a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        a.eliminate_zeros()
        with pytest.raises(FactorizationError):
            ic0(a, max_shift_attempts=0)


class TestSSOR:
    def test_apply_matches_explicit_inverse(self, matrix):
        p = SSORPreconditioner(omega=1.2)
        p.setup(matrix)
        r = np.random.default_rng(0).standard_normal(matrix.shape[0])
        z = p.apply(r)
        m = p.forward_matrix().toarray()
        assert np.allclose(m @ z, r, atol=1e-8)

    def test_invalid_omega(self):
        with pytest.raises(ValueError):
            SSORPreconditioner(omega=2.5)

    def test_accelerates_cg(self, matrix):
        b = np.random.default_rng(4).standard_normal(matrix.shape[0])
        plain = cg(matrix, b, rtol=1e-10)
        p = SSORPreconditioner(omega=1.0)
        p.setup(matrix)
        prec = pcg(matrix, b, preconditioner=p, rtol=1e-10)
        assert prec.converged
        assert prec.iterations < plain.iterations
        assert np.allclose(prec.x, plain.x, atol=1e-6)

    def test_forward_rows(self, matrix):
        p = SSORPreconditioner()
        p.setup(matrix)
        rows = p.forward_rows(np.array([0, 1]))
        assert rows.shape == (2, matrix.shape[0])

    def test_form(self, matrix):
        p = SSORPreconditioner()
        p.setup(matrix)
        assert p.form is PreconditionerForm.FORWARD

    def test_not_block_diagonal(self, matrix):
        p = SSORPreconditioner()
        p.setup(matrix)
        assert not p.is_block_diagonal


class TestSplitCholesky:
    def test_apply_consistent_with_factor(self, matrix):
        p = SplitCholeskyPreconditioner()
        p.setup(matrix)
        r = np.random.default_rng(1).standard_normal(matrix.shape[0])
        z = p.apply(r)
        factor = p.split_factor()
        assert np.allclose(factor @ (factor.T @ z), r, atol=1e-8)

    def test_form_is_split(self, matrix):
        p = SplitCholeskyPreconditioner()
        p.setup(matrix)
        assert p.form is PreconditionerForm.SPLIT

    def test_accelerates_cg(self):
        a = poisson_2d(12)
        b = np.random.default_rng(5).standard_normal(a.shape[0])
        plain = cg(a, b, rtol=1e-10)
        p = SplitCholeskyPreconditioner()
        p.setup(a)
        prec = pcg(a, b, preconditioner=p, rtol=1e-10)
        assert prec.converged
        assert prec.iterations < plain.iterations
        assert np.allclose(prec.x, plain.x, atol=1e-6)

    def test_forward_rows(self, matrix):
        p = SplitCholeskyPreconditioner()
        p.setup(matrix)
        rows = p.forward_rows(np.array([2, 3]))
        m = (p.split_factor() @ p.split_factor().T).toarray()
        assert np.allclose(rows.toarray(), m[[2, 3], :])

    def test_work_nnz_positive(self, matrix):
        p = SplitCholeskyPreconditioner()
        p.setup(matrix)
        assert p.work_nnz() > 0


class TestRowsWithoutTheFullOperator:
    """``forward_rows`` computes only the requested rows, yet equals the
    slice of the full operator array for array."""

    @staticmethod
    def assert_same_csr(actual, expected):
        assert actual.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(actual, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

    @staticmethod
    def full_operator(p):
        if isinstance(p, SSORPreconditioner):
            return p.forward_matrix()
        factor = p.split_factor()
        return sp.csr_matrix(factor @ factor.T)

    @pytest.mark.parametrize("make", [lambda: SSORPreconditioner(omega=1.3),
                                      SplitCholeskyPreconditioner],
                             ids=["ssor", "split_ic0"])
    @pytest.mark.parametrize("indices", [[], [0], [63, 5, 5, 17],
                                         list(range(10, 40)), list(range(64))],
                             ids=["empty", "first", "unsorted_dup",
                                  "range", "all"])
    def test_rows_equal_full_operator_slice(self, matrix, make, indices):
        p = make()
        p.setup(matrix)
        idx = np.unique(np.asarray(indices, dtype=np.int64))
        self.assert_same_csr(p.forward_rows(indices),
                             self.full_operator(p)[idx, :])

    def test_irregular_pattern(self):
        from repro.matrices import graph_laplacian_spd

        a = graph_laplacian_spd(150, avg_degree=6, seed=2)
        for p in (SSORPreconditioner(omega=0.8), SplitCholeskyPreconditioner()):
            p.setup(a)
            idx = np.array([3, 40, 41, 42, 149])
            self.assert_same_csr(p.forward_rows(idx),
                                 self.full_operator(p)[idx, :])
