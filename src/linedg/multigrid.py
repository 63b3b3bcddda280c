"""Nested h-multigrid V-cycle for the interior-penalty stiffness operator.

The hierarchy halves the box grid (``Mesh.coarsen``) while every cell count
is even and assembles the same ``DGSpec`` on each level, i.e. non-inherited
coarse forms, which give h-uniform V-cycles for interior-penalty dG
(Gopalakrishnan & Kanschat, Numer. Math. 2003).  Prolongation is exact dG
injection: a coarse polynomial restricted to a fine element lies in the fine
space, so its L2 projection there is itself, and on the nodal basis its
coefficients are its values at the fine nodes.  Restriction is the exact
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

from typing import NamedTuple

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
    """Injection of coarse dG fields into a nested fine mesh, and its transpose.

    In its parent's reference coordinates a fine element's vertices are
    multiples of 1/2; elements with the same vertex images share one
    (nb, nb) injection block.  Per block the fine elements (``members``) and
    their parents (``parents``) are stored; no two members share a parent.
    """

    def __init__(self, fine, coarse, basis):
        parent = coarse.find_elements(fine.centroids)
        origin = coarse.vertices[coarse.tets[parent, 0]]
        ref = np.einsum("emd,evd->evm", coarse.jac_invs[parent], fine.tet_coords() - origin[:, None])
        keys = np.rint(2.0 * ref)
        if np.any(parent < 0) or not np.allclose(2.0 * ref, keys, atol=1e-8):
            raise ValueError(f"grid {fine.n} is not nested in grid {coarse.n}")
        # inside the parent every key is 0, 1 or 2: one base-3 code per element
        code = keys.reshape(len(parent), 12).astype(np.int64) @ 3 ** np.arange(12)
        _, first, cls = np.unique(code, return_index=True, return_inverse=True)
        bary = np.column_stack([1.0 - basis.nodes.sum(axis=1), basis.nodes])  # (nb, 4)
        self.blocks = [basis.eval(bary @ (keys[e] / 2.0)) for e in first]
        self.members = [np.flatnonzero(cls == c) for c in range(len(first))]
        self.parents = [parent[m] for m in self.members]
        self.shape = (fine.n_elements, coarse.n_elements, basis.dim)

    def prolong(self, x):
        nf, nc, nb = self.shape
        xc = x.reshape(nc, nb)
        out = np.empty((nf, nb))
        for P, m, p in zip(self.blocks, self.members, self.parents):
            out[m] = xc[p] @ P.T
        return out.ravel()

    def restrict(self, x):
        nf, nc, nb = self.shape
        xf = x.reshape(nf, nb)
        out = np.zeros((nc, nb))
        for P, m, p in zip(self.blocks, self.members, self.parents):
            out[p] += xf[m] @ P
        return out.ravel()


class Level(NamedTuple):
    """One smoothing level: operator, block-Jacobi inverse (a callable),
    and the transfer from the next coarser level."""

    A: object
    dinv: object
    transfer: Transfer

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


class VCycle:
    """Symmetric V-cycle y = B r for an operator built by ``assemble_stiffness``.

    ``grids`` lists the cell counts of the levels, finest first.
    """

    def __init__(self, system):
        if system.discretization is None:
            raise ValueError(
                "multigrid needs an operator built by assemble_stiffness; "
                "this one carries no mesh to coarsen"
            )
        from scipy.sparse.linalg import splu

        mesh, spec, basis = system.discretization
        self.grids = level_grids(mesh.n)
        self.levels = []
        for _ in self.grids[1:]:
            coarse = mesh.coarsen()
            self.levels.append(Level(system, system.block_jacobi(), Transfer(mesh, coarse, basis)))
            mesh, system = coarse, assemble_stiffness(coarse, spec, basis)
        self.coarse_lu = splu(system.matrix.tocsc())

    def __call__(self, r):
        rhs, pre = [r], []
        for level in self.levels:
            pre.append(level.smooth(rhs[-1]))
            rhs.append(level.transfer.restrict(rhs[-1] - level.A @ pre[-1]))
        y = self.coarse_lu.solve(rhs[-1])
        for level, b, x in zip(self.levels[::-1], rhs[-2::-1], pre[::-1]):
            y = level.smooth(b, x + level.transfer.prolong(y))
        return y
