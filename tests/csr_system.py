"""Solver-facing stand-in for ``SparseSystem`` over an arbitrary sparse matrix."""

import numpy as np
import scipy.sparse as sp


class CsrSystem:
    """The members ``solve``, ``make_preconditioner`` and ``VCycle`` read from
    an operator, for a matrix that is not a Kuhn stencil.  Block-Jacobi
    inverts the dense (block_size, block_size) diagonal blocks."""

    discretization = None

    def __init__(self, matrix, block_size=1, symmetric=True):
        self.matrix = sp.csr_matrix(matrix, dtype=float)
        self.block_size = block_size
        self.symmetric = symmetric

    @property
    def ndof(self):
        return self.matrix.shape[0]

    @property
    def n_blocks(self):
        return self.ndof // self.block_size

    def __matmul__(self, x):
        return self.matrix @ x

    def block_jacobi(self):
        n, nb = self.n_blocks, self.block_size
        dense = self.matrix.toarray().reshape(n, nb, n, nb)
        try:
            inverse = np.linalg.inv(dense[np.arange(n), :, np.arange(n), :])
        except np.linalg.LinAlgError as err:
            raise ValueError("singular diagonal block; cannot form block-Jacobi") from err
        return lambda x: np.einsum("bij,bj->bi", inverse, x.reshape(n, nb)).ravel()
