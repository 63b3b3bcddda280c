"""Nested h-multigrid V-cycle for the interior-penalty stiffness operator.

The hierarchy halves the box grid (``Mesh.coarsen``) while every cell count
is even and assembles the same ``DGSpec`` on each level, i.e. non-inherited
coarse forms, which give h-uniform V-cycles for interior-penalty dG
(Gopalakrishnan & Kanschat, Numer. Math. 2003).  A ``VCycle`` is one level
holding the next coarser one, so a study can build each level on the last.
Prolongation is exact dG injection: a coarse polynomial restricted to a fine
element lies in the fine space, so its L2 projection there is itself, and on
the nodal basis its coefficients are its values at the fine nodes.  Every
coarse cell is refined alike, so one block per Kuhn type, from a coarse
element to its 8 fine ones, serves all cells.  Restriction is the exact
transpose.  Pre- and post-smoothing apply the same Chebyshev polynomial in
D^{-1} A, D the block-Jacobi diagonal (Adams, Brezina, Hu & Tuminaro, JCP
2003), so the cycle is symmetric; it carries D^{-1} r and applies D^{-1} A
as one stencil product (``BlockJacobi.scaled``).  The coarsest level applies
the dense inverse of its matrix, scattered from the stencil, not scipy.

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
COARSEST_MAX_DOF = 2048  # largest coarse matrix inverted densely (32 MiB)


def level_grids(n, block_size=4):
    """Cell counts of the hierarchy, finest first: halved while all are even.

    Raises ValueError when the coarsest grid, at ``block_size`` DoF per
    element (4: degree 1), exceeds the DoF cap of the dense coarse solve.
    """
    grids = [tuple(int(v) for v in n)]
    while all(v % 2 == 0 for v in grids[-1]):
        grids.append(tuple(v // 2 for v in grids[-1]))
    dof = 6 * int(np.prod(grids[-1])) * block_size
    if dof > COARSEST_MAX_DOF:
        raise ValueError(f"multigrid: grid {grids[0]} coarsens only to {grids[-1]} ({dof} DoF), "
                         f"above the {COARSEST_MAX_DOF}-DoF cap of the dense coarse solve")
    return grids


def dense_matrix(system):
    """A ``SparseSystem`` as a dense (ndof, ndof) array: its type blocks by the
    neighbour table (the ghost column dropped), plus each ghost class's correction."""
    ne, nb = system.n_blocks, system.block_size
    dense, rows = np.zeros((ne, nb, ne + 1, nb)), np.arange(ne)
    blocks = system.weights.reshape(6, 5, nb, nb).transpose(0, 1, 3, 2)
    dense[rows[:, None], :, system.neighbours] = blocks[rows % 6]
    fixed = system.fixed
    dense[fixed, :, fixed] += np.repeat(system.corrections, np.diff(system.bounds), axis=0)
    return dense[:, :, :ne].reshape(ne * nb, ne * nb)


class Transfer:
    """Injection of coarse dG fields into the nested fine mesh, and its transpose.

    Coarse cell (I, J, K) holds the fine cells (2I + a, 2J + b, 2K + c), child
    a + 2b + 4c.  ``blocks[t]`` (nb, 8 nb) injects a coarse element of Kuhn
    type t into its 8 fine ones, alike in every cell; ``order`` reads the fine
    elements, in mesh order, off the products of all cells grouped by type.
    """

    def __init__(self, fine, coarse, basis):
        boxes = (fine.domain.lo, fine.domain.hi), (coarse.domain.lo, coarse.domain.hi)
        if not all(map(np.array_equal, *boxes)) or fine.n != tuple(2 * v for v in coarse.n):
            raise ValueError(f"grid {fine.n} is not nested in grid {coarse.n}")
        nx, ny, _ = fine.n
        a, b, c = np.arange(8) >> np.arange(3)[:, None] & 1  # child a + 2b + 4c
        children = fine.cell_tets(a + nx * (b + ny * c)).ravel()
        parent = coarse.find_elements(fine.centroids[children])  # one of 0..5, coarse cell 0
        ref = np.einsum("emd,evd->evm", coarse.type_jac_invs[parent],
                        fine.tet_coords(children) - coarse.vertices[0])  # the corner of cell 0
        # in its parent's reference coordinates a fine vertex is a multiple of 1/2
        bary = np.column_stack([1.0 - basis.nodes.sum(axis=1), basis.nodes])  # (nb, 4)
        nodes = bary @ (np.rint(2.0 * ref) / 2.0)  # (48, nb, 3): fine nodes in the parent
        nb, cells = basis.dim, int(np.prod(coarse.n))
        inside = np.argsort(parent, kind="stable")  # the 48 fine elements by coarse type
        values = basis.eval(nodes[inside].reshape(-1, 3)).reshape(6, 8, nb, nb)
        self.blocks = values.transpose(0, 3, 1, 2).reshape(6, nb, 8 * nb)
        slot = np.argsort(inside)  # fine element r is child slot % 8 of coarse type slot // 8
        rows = (slot // 8 * cells + np.arange(cells)[:, None]) * 8 + slot % 8  # (cells, 48)
        # flat cell I + NX (J + NY K) is index (K, J, I); child a + 2b + 4c is (c, b, a)
        self.order = rows.reshape(*coarse.n[::-1], 2, 2, 2, 6).transpose(0, 3, 1, 4, 2, 5, 6).ravel()

    def prolong(self, x):
        nb = self.blocks.shape[1]
        y = np.matmul(np.reshape(x, (-1, 6, nb)).transpose(1, 0, 2), self.blocks)
        return np.take(y.reshape(-1, nb), self.order, axis=0).ravel()

    def restrict(self, x):
        nb = self.blocks.shape[1]
        grouped = np.empty((len(self.order), nb))
        grouped[self.order] = np.reshape(x, (-1, nb))
        y = np.matmul(grouped.reshape(6, -1, 8 * nb), self.blocks.transpose(0, 2, 1))
        return y.transpose(1, 0, 2).ravel()


class VCycle:
    """Symmetric V-cycle y = B r for an operator built by ``assemble_stiffness``.

    A level smooths with ``A`` and corrects by ``coarse``, the V-cycle of the
    halved grid (coarsened and assembled here unless given; ValueError unless
    nested); the coarsest level, ``coarse`` None, applies the dense inverse
    of its matrix.  ``grids`` lists the cell counts of the levels, finest
    first.  It keeps no work vectors, so it may run in several threads.
    """

    def __init__(self, system, coarse=None):
        if system.discretization is None:
            raise ValueError(
                "multigrid needs an operator built by assemble_stiffness; "
                "this one carries no mesh to coarsen"
            )
        mesh, spec, basis = system.discretization
        self.A, self.grids, self.coarse = system, level_grids(mesh.n, basis.dim), coarse
        if coarse is None and len(self.grids) == 1:
            self.coarse_inverse = np.linalg.inv(dense_matrix(system))
            return
        self.coarse = coarse or VCycle(assemble_stiffness(mesh.coarsen(), spec, basis))
        self.transfer = Transfer(mesh, self.coarse.A.discretization[0], basis)
        self.dinv = system.block_jacobi()

    def smooth(self, z, x=None):
        """Chebyshev iteration of degree ``CHEBYSHEV_DEGREE`` for A x = b, z = D^{-1} b,
        from x (updated in place) or zero, on the interval of the module docstring."""
        theta, delta = 1.0 + 1.0 / CHEBYSHEV_RATIO, 1.0 - 1.0 / CHEBYSHEV_RATIO  # [2/ratio, 2]
        sigma, rho = theta / delta, delta / theta
        z = z if x is None else z - self.dinv.scaled(x)
        d = z / theta
        x = d.copy() if x is None else np.add(x, d, out=x)
        for _ in range(CHEBYSHEV_DEGREE - 1):
            z = z - self.dinv.scaled(d)
            rho_new = 1.0 / (2.0 * sigma - rho)
            d *= rho_new * rho
            d += (2.0 * rho_new / delta) * z
            x += d
            rho = rho_new
        return x

    def __call__(self, r):
        if self.coarse is None:
            return self.coarse_inverse @ r
        z = self.dinv(r)
        x = self.smooth(z)
        x += self.transfer.prolong(self.coarse(self.transfer.restrict(r - self.A @ x)))
        return self.smooth(z, x)
