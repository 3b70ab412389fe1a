"""SSOR and split (incomplete Cholesky) preconditioners.

The paper notes (Sec. 1) that its algorithmic modifications also apply to the
Jacobi, Gauss-Seidel, SOR, SSOR and split-preconditioner CG variants of the
ESR approach.  These two classes provide the corresponding sequential
preconditioners:

* :class:`SSORPreconditioner` -- the symmetric successive over-relaxation
  operator ``M = (D/w + L) (w/(2-w)) D^{-1} (D/w + U)``.
* :class:`SplitCholeskyPreconditioner` -- ``M = L L^T`` with ``L`` from an
  incomplete Cholesky factorisation, the canonical split preconditioner of
  [23, Alg. 5].
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .base import Preconditioner, PreconditionerForm, as_indices
from .ichol import ic0, ic0_solve


class SSORPreconditioner(Preconditioner):
    """Symmetric successive over-relaxation preconditioner.

    Parameters
    ----------
    omega:
        Relaxation factor in ``(0, 2)``; ``omega = 1`` gives symmetric
        Gauss-Seidel.
    """

    name = "ssor"

    def __init__(self, omega: float = 1.0) -> None:
        super().__init__()
        if not 0.0 < omega < 2.0:
            raise ValueError(f"omega must lie in (0, 2), got {omega}")
        self.omega = omega
        self._lower: Optional[sp.csr_matrix] = None
        self._upper: Optional[sp.csr_matrix] = None
        self._diag: Optional[np.ndarray] = None

    def _setup_impl(self) -> None:
        a = self.matrix
        diag = a.diagonal().astype(np.float64)
        if np.any(diag == 0.0):
            raise ValueError("SSOR requires a zero-free diagonal")
        self._diag = diag
        w = self.omega
        d_over_w = sp.diags(diag / w)
        self._lower = (d_over_w + sp.tril(a, k=-1)).tocsr()
        self._upper = (d_over_w + sp.triu(a, k=1)).tocsr()

    def apply(self, residual: np.ndarray) -> np.ndarray:
        """``z = M^{-1} r`` via forward and backward triangular solves.

        ``M = (D/w + L) [(w/(2-w)) D^{-1}] (D/w + U)``, so the application
        factors into a forward solve, a diagonal scaling and a backward solve.
        """
        w = self.omega
        residual = np.asarray(residual, dtype=np.float64)
        y = spsolve_triangular(self._lower, residual, lower=True)
        t = ((2.0 - w) / w) * self._diag * y
        return spsolve_triangular(self._upper, t, lower=False)

    def work_nnz(self) -> int:
        return int(self._lower.nnz + self._upper.nnz)

    @property
    def form(self) -> PreconditionerForm:
        return PreconditionerForm.FORWARD

    def _middle(self) -> sp.dia_matrix:
        """The diagonal factor ``(w/(2-w)) D^{-1}`` of the SSOR operator."""
        w = self.omega
        return sp.diags((w / (2.0 - w)) / self._diag)

    def forward_matrix(self) -> sp.csr_matrix:
        """The explicit SSOR operator ``M`` (small problems / tests only)."""
        return sp.csr_matrix(self._lower @ self._middle() @ self._upper)

    def forward_rows(self, indices: np.ndarray) -> sp.csr_matrix:
        """Rows ``M[indices, :]`` without forming ``M``.

        A sparse product computes each output row from the same row of its
        left operand alone, so ``(lower[idx] @ middle) @ upper`` equals the
        rows ``idx`` of :meth:`forward_matrix` bit for bit.
        """
        idx = as_indices(indices)
        return sp.csr_matrix(
            (self._lower[idx, :] @ self._middle()) @ self._upper
        )


class SplitCholeskyPreconditioner(Preconditioner):
    """Split preconditioner ``M = L L^T`` from incomplete Cholesky IC(0)."""

    name = "split_ic0"

    def __init__(self, *, shift: float = 0.0) -> None:
        super().__init__()
        self.shift = shift
        self._factor: Optional[sp.csr_matrix] = None

    def _setup_impl(self) -> None:
        self._factor = ic0(self.matrix, shift=self.shift)

    def apply(self, residual: np.ndarray) -> np.ndarray:
        return ic0_solve(self._factor, np.asarray(residual, dtype=np.float64))

    def work_nnz(self) -> int:
        return int(2 * self._factor.nnz)

    @property
    def form(self) -> PreconditionerForm:
        return PreconditionerForm.SPLIT

    def split_factor(self) -> sp.csr_matrix:
        if self._factor is None:
            raise RuntimeError("setup() has not been called")
        return self._factor

    def forward_rows(self, indices: np.ndarray) -> sp.csr_matrix:
        """Rows ``M[indices, :]`` as ``L[idx] @ L^T``, without forming ``M``
        (equal to the rows of ``L @ L^T`` bit for bit)."""
        idx = as_indices(indices)
        return sp.csr_matrix(self._factor[idx, :] @ self._factor.T)
