"""Nested h-multigrid V-cycle for the interior-penalty stiffness operator.

The hierarchy halves the box grid (``Mesh.coarsen``) while every cell count
is even and assembles the same ``DGSpec`` on each level, i.e. non-inherited
coarse forms, which give h-uniform V-cycles for interior-penalty dG
(Gopalakrishnan & Kanschat, Numer. Math. 2003).  A ``VCycle`` is one level
holding the next coarser one, so a study can build each level on the last.
Prolongation is exact dG injection: a coarse polynomial restricted to a fine
element lies in the fine space, so its L2 projection there is itself, and on
the nodal basis its coefficients are its values at the fine nodes.  Every
coarse cell is refined alike, so one matrix from the 6 elements of a coarse
cell to its 48 fine ones serves all cells.  Restriction is the exact
transpose.  Pre- and post-smoothing apply the same Chebyshev polynomial in
D^{-1} A, D the block-Jacobi diagonal (Adams, Brezina, Hu & Tuminaro, JCP
2003), so the cycle is symmetric; the coarsest level is solved by sparse LU.

The smoothing interval needs an upper bound for the spectrum of D^{-1} A,
and on the Kuhn grid 2 is one, for every degree and epsilon.  Colour element
6c + t of cell (i, j, k) by i + j + k plus the parity of the axis order of
Kuhn type t, mod 2.  Two types in one cell differ by one transposition, and
across a cell face the axis order shifts cyclically while the cell parity
flips, so every face joins opposite colours (Young's property A).  Only
face neighbours couple, so with S = +-1 by colour S A S = 2D - A: D^{-1} A
and 2 - D^{-1} A are similar, and the eigenvalues pair as lambda, 2 - lambda.
For the symmetric form A and D are positive definite, so 0 < lambda, hence
lambda < 2.  The nonsymmetric spectra are symmetric about 1 the same way.
"""

import numpy as np

from .assembly import assemble_stiffness

CHEBYSHEV_DEGREE = 3
CHEBYSHEV_RATIO = 8.0  # upper over lower end of the smoothing interval
COARSEST_MAX_ELEMENTS = 1536  # largest grid the coarse LU factorises


def level_grids(n):
    """Cell counts of the hierarchy, finest first: halved while all are even.

    Raises ValueError when the coarsest grid exceeds the element cap of the
    coarse LU solve.
    """
    grids = [tuple(int(v) for v in n)]
    while all(v % 2 == 0 for v in grids[-1]):
        grids.append(tuple(v // 2 for v in grids[-1]))
    elements = 6 * int(np.prod(grids[-1]))
    if elements > COARSEST_MAX_ELEMENTS:
        raise ValueError(
            f"multigrid: grid {grids[0]} coarsens only to {grids[-1]} ({elements} elements), "
            f"above the {COARSEST_MAX_ELEMENTS}-element cap of the coarse LU solve"
        )
    return grids


class Transfer:
    """Injection of coarse dG fields into the nested fine mesh, and its transpose.

    Coarse cell (I, J, K) holds the fine cells (2I + a, 2J + b, 2K + c), child
    a + 2b + 4c.  ``matrix`` (48 nb, 6 nb) injects the 6 coarse elements of a
    cell into its 48 fine ones, by child and Kuhn type, alike in every cell.
    """

    def __init__(self, fine, coarse, basis):
        boxes = (fine.domain.lo, fine.domain.hi), (coarse.domain.lo, coarse.domain.hi)
        if not all(map(np.array_equal, *boxes)) or fine.n != tuple(2 * v for v in coarse.n):
            raise ValueError(f"grid {fine.n} is not nested in grid {coarse.n}")
        nx, ny, _ = fine.n
        a, b, c = np.arange(8) >> np.arange(3)[:, None] & 1  # child a + 2b + 4c
        children = fine.cell_tets(a + nx * (b + ny * c)).ravel()
        parent = coarse.find_elements(fine.centroids[children])  # one of 0..5, coarse cell 0
        origin = coarse.vertices[coarse.tets[parent, 0]]
        ref = np.einsum("emd,evd->evm", coarse.jac_invs[parent],
                        fine.tet_coords(children) - origin[:, None])
        # in its parent's reference coordinates a fine vertex is a multiple of 1/2
        bary = np.column_stack([1.0 - basis.nodes.sum(axis=1), basis.nodes])  # (nb, 4)
        nodes = bary @ (np.rint(2.0 * ref) / 2.0)  # (48, nb, 3): fine nodes in the parent
        nb = basis.dim
        matrix = np.zeros((48, nb, 6, nb))
        matrix[np.arange(48), :, parent] = basis.eval(nodes.reshape(-1, 3)).reshape(48, nb, nb)
        self.matrix = matrix.reshape(48 * nb, 6 * nb)
        self.cells = coarse.n[::-1]  # flat cell I + NX (J + NY K) is index (K, J, I)

    def prolong(self, x):
        y = x.reshape(-1, self.matrix.shape[1]) @ self.matrix.T  # (cells, (c, b, a), 6 nb)
        return y.reshape(*self.cells, 2, 2, 2, -1).transpose(0, 3, 1, 4, 2, 5, 6).ravel()

    def restrict(self, x):
        nz, ny, nx = self.cells
        xf = x.reshape(nz, 2, ny, 2, nx, 2, -1).transpose(0, 2, 4, 1, 3, 5, 6)
        return (xf.reshape(nz * ny * nx, -1) @ self.matrix).ravel()


class VCycle:
    """Symmetric V-cycle y = B r for an operator built by ``assemble_stiffness``.

    A level smooths with ``A`` and corrects by ``coarse``, the V-cycle of the
    halved grid (coarsened and assembled here unless given; ValueError unless
    nested); the coarsest level, ``coarse`` None, is an LU factorisation.
    ``grids`` lists the cell counts of the levels, finest first.
    """

    def __init__(self, system, coarse=None):
        if system.discretization is None:
            raise ValueError(
                "multigrid needs an operator built by assemble_stiffness; "
                "this one carries no mesh to coarsen"
            )
        mesh, spec, basis = system.discretization
        self.A, self.grids, self.coarse = system, level_grids(mesh.n), coarse
        if coarse is None and len(self.grids) == 1:
            from scipy.sparse.linalg import splu

            self.coarse_lu = splu(system.matrix.tocsc())
            return
        self.coarse = coarse or VCycle(assemble_stiffness(mesh.coarsen(), spec, basis))
        self.transfer = Transfer(mesh, self.coarse.A.discretization[0], basis)
        self.dinv = system.block_jacobi()

    def smooth(self, b, x=None):
        """Chebyshev iteration of degree ``CHEBYSHEV_DEGREE`` from x or zero, on
        the interval up to the bound of the module docstring."""
        upper = 2.0
        lower = upper / CHEBYSHEV_RATIO
        theta, delta = 0.5 * (upper + lower), 0.5 * (upper - lower)
        sigma = theta / delta
        rho = 1.0 / sigma
        r = b if x is None else b - self.A @ x
        d = self.dinv(r) / theta
        x = d if x is None else x + d
        for _ in range(CHEBYSHEV_DEGREE - 1):
            r = r - self.A @ d
            rho_new = 1.0 / (2.0 * sigma - rho)
            d = (rho_new * rho) * d + (2.0 * rho_new / delta) * self.dinv(r)
            x = x + d
            rho = rho_new
        return x

    def __call__(self, r):
        if self.coarse is None:
            return self.coarse_lu.solve(r)
        x = self.smooth(r)
        y = self.coarse(self.transfer.restrict(r - self.A @ x))
        return self.smooth(r, x + self.transfer.prolong(y))
