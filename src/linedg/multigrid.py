"""Nested h-multigrid V-cycle for operators that can rebuild themselves.

The hierarchy halves the box grid (``Mesh.coarsen``) while every cell count
is even and rebuilds the operator on each level by its own rule,
``SparseSystem.discretization``: the interior-penalty stiffness, or the
M + tau A of a time step, assembled anew on the coarser mesh, i.e.
non-inherited coarse forms, as in the interior-penalty dG V-cycle of
Gopalakrishnan & Kanschat (Numer. Math. 2003).  Measured, it is h-uniform
at k = 1 and 2: nested CG takes 8/8/9/9 iterations on the levels of
``study_k2``, and 1/7/8/9 on ``study_k1`` and 9 again at 64x64x16.  A
``VCycle`` is one level holding the next coarser one, so a study can build
each level on the last.
Prolongation is exact dG injection: a coarse polynomial restricted to a fine
element lies in the fine space, so its L2 projection there is itself, and on
the nodal basis its coefficients are its values at the fine nodes.  Every
coarse cell is refined alike, so one block per Kuhn type, from a coarse
element to its 8 fine ones, serves all cells.  Restriction is the exact
transpose.  Pre- and post-smoothing apply the same polynomial in D^{-1} A,
D the block-Jacobi diagonal (Adams, Brezina, Hu & Tuminaro, JCP 2003), so
the cycle is symmetric: the fourth-kind Chebyshev smoother of Lottes (NLAA
2023; Phillips & Fischer, arXiv:2210.03179), which bounds the V-cycle's
error from an upper bound of the spectrum alone, with no lower end to
choose.  It carries D^{-1} r and applies D^{-1} A as one stencil product
(``BlockJacobi.scaled``).  The coarsest grid is inverted at degree k, by
the inverse of its ``SparseSystem.dense()`` matrix, not scipy, when that
matrix has at most ``COARSEST_MAX_DOF`` DoF: 384 on 4x4x1 at k = 1.  A
larger one (960 at k = 2) smooths like any other level and is corrected by
one more level on the same mesh at degree 0, the p-coarsening end point of
dG multigrid (Antonietti, Sarti & Verani, SINUM 2015): the Galerkin product
P^T A P, P the constants of the nodal basis (a column of ones per element),
prolonged by repetition and restricted by the per-element sum
(``Constants``).  On the Kuhn stencil P^T A P sums the entries of each
block, so it is again a stencil of block size 1, for the stiffness as for
M + tau A, and its 6 DoF per cell (96 on 4x4x1) are inverted densely.
That level costs ``study_k2`` 8 CG iterations on 4x4x1 instead of 1, and
saves the 7 MiB float64 inverse of the 960-DoF matrix.

The smoothing levels compute in the dtype a ``VCycle`` is given, by default
``CYCLE_DTYPE``, float32: each level streams its stencil weights and
ndof-sized vectors several times, so float32 halves the bytes of the cycle
while CG keeps its iterates, its products and its true-residual check in
float64 (the split of Kronbichler & Wall, SISC 2018).  Every level is
assembled, and its transfer and block-Jacobi blocks and the coarsest dense
inverse are built and inverted, in float64, then cast where applied: a
level holds its coarser level in its own dtype (``VCycle.astype``), so in a
float32 cycle the coarsest level too applies its inverse in float32.  Only
a coarsest level that is the whole preconditioner, alone on a grid that
does not coarsen, keeps its inverse in float64: the inverse of the
float32-rounded matrix costs CG a second iteration there.

The smoother needs an upper bound for the spectrum of D^{-1} A, and on
the Kuhn grid 2 is one, for every degree and epsilon.  Colour element
6c + t of cell (i, j, k) by i + j + k plus the parity of the axis order of
Kuhn type t, mod 2.  Two types in one cell differ by one transposition, and
across a cell face the axis order shifts cyclically while the cell parity
flips, so every face joins opposite colours (Young's property A).  Only
face neighbours couple, so with S = +-1 by colour S A S = 2D - A: D^{-1} A
and 2 - D^{-1} A are similar, and the eigenvalues pair as lambda, 2 - lambda.
For the symmetric form A and D are positive definite, so 0 < lambda, hence
lambda < 2.  The nonsymmetric spectra are symmetric about 1 the same way.
The same holds for M + tau A: the mass M is block diagonal, so M + tau A
couples only face neighbours too, and is positive definite when A is.
"""

import copy

import numpy as np

from .assembly import SparseSystem

CHEBYSHEV_DEGREE = 5
COARSEST_MAX_DOF = 512  # largest coarse matrix inverted densely (2 MiB)
CYCLE_DTYPE = np.float32  # the smoothing levels of a solve's V-cycle


def level_grids(n):
    """Cell counts of the hierarchy, finest first: halved while all are even.

    Raises ValueError when even the piecewise constants of the coarsest grid,
    6 DoF per cell, exceed the DoF cap of the dense coarse solve.
    """
    grids = [tuple(int(v) for v in n)]
    while all(v % 2 == 0 for v in grids[-1]):
        grids.append(tuple(v // 2 for v in grids[-1]))
    dof = 6 * int(np.prod(grids[-1]))
    if dof > COARSEST_MAX_DOF:
        raise ValueError(f"multigrid: grid {grids[0]} coarsens only to {grids[-1]} ({dof} DoF "
                         f"at degree 0), above the {COARSEST_MAX_DOF}-DoF cap of the dense "
                         "coarse solve")
    return grids


class Constants:
    """The piecewise constants under a level of ``nb`` DoF per element, on its
    own mesh.  P, a column of ones per element (the constant 1 on the nodal
    basis), prolongs by repetition and restricts by the per-element sum, its
    transpose; both compute in the dtype of x.  ``galerkin(A)`` is P^T A P."""

    def __init__(self, nb):
        self.nb = nb

    def prolong(self, x):
        return np.repeat(x, self.nb)

    def restrict(self, x):
        return np.reshape(x, (-1, self.nb)).sum(axis=1)

    def galerkin(self, system):
        """P^T A P for A = ``system``: each block of its stencil, neighbour or
        correction, summed over its entries, so a ``SparseSystem`` of block
        size 1 on the same mesh, which carries no rule to rebuild itself."""
        weights = system.weights.reshape(6, 5, self.nb * self.nb).sum(axis=2, keepdims=True)
        return SparseSystem(system.mesh, weights, system.corrections.sum(axis=(1, 2), keepdims=True),
                            system.symmetric)


class Transfer:
    """Injection of coarse dG fields into the nested fine mesh, and its transpose.

    Coarse cell (I, J, K) holds the fine cells (2I + a, 2J + b, 2K + c), child
    a + 2b + 4c.  ``blocks[t]`` (nb, 8 nb) injects a coarse element of Kuhn
    type t into its 8 fine ones, alike in every cell; ``order`` reads the fine
    elements, in mesh order, off the products of all cells grouped by type,
    and ``grouping``, its inverse, groups them back.
    The blocks are float64; both maps compute in the dtype of x.
    """

    def __init__(self, fine, coarse, basis):
        if fine.domain != coarse.domain or fine.n != tuple(2 * v for v in coarse.n):
            raise ValueError(f"grid {fine.n} is not nested in grid {coarse.n}")
        nx, ny, _ = fine.n
        a, b, c = np.arange(8) >> np.arange(3)[:, None] & 1  # child a + 2b + 4c
        children = fine.cell_tets(a + nx * (b + ny * c)).ravel()
        parent = coarse.find_elements(fine.centroids(children))  # one of 0..5, coarse cell 0
        ref = coarse.to_reference(fine.tet_coords(children), parent)  # (48, 4, 3)
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
        self.grouping = np.argsort(self.order)  # the inverse of ``order``: products by type

    def prolong(self, x):
        nb, blocks = self.blocks.shape[1], self.blocks.astype(x.dtype, copy=False)
        y = np.matmul(np.reshape(x, (-1, 6, nb)).transpose(1, 0, 2), blocks)
        return np.take(y.reshape(-1, nb), self.order, axis=0).ravel()

    def restrict(self, x):
        nb, blocks = self.blocks.shape[1], self.blocks.astype(x.dtype, copy=False)
        grouped = np.take(np.reshape(x, (-1, nb)), self.grouping, axis=0)
        y = np.matmul(grouped.reshape(6, -1, 8 * nb), blocks.transpose(0, 2, 1))
        return y.transpose(1, 0, 2).ravel()


class VCycle:
    """Symmetric V-cycle y = B r for an operator that can rebuild itself on a
    coarser mesh (``SparseSystem.discretization``); ValueError for any other.

    A level smooths with ``A``, ``system`` cast to ``dtype`` (float64 gives
    the reference cycle), and corrects by ``coarse``, the V-cycle of the halved grid
    (coarsened and rebuilt in float64 unless given; ValueError unless nested),
    which it holds cast to its own ``dtype`` (``astype``); on a grid that
    does not coarsen and has more than ``COARSEST_MAX_DOF`` DoF, ``coarse``
    is the level of its piecewise constants, through ``transfer``, a
    ``Constants``.  The coarsest level, ``coarse`` None, applies the float64
    inverse of its matrix, in float64 while it is the whole preconditioner.
    A level casts r to its ``dtype`` and its correction back to r's.
    ``grids`` lists the cell counts of this level's grid and the coarser
    ones, finest first; the constants level shares its grid and adds none.
    One application allocates its vectors per call, not kept, so one
    V-cycle may run in several threads.  It restricts the cast of r once,
    before smoothing, and drops the cast; the coarse residual is then
    restrict(r) - restrict(A x), since restriction is linear.  So it holds
    at most 5 vectors of its level: D^{-1} r, the iterate and two work
    vectors while smoothing, plus each product's output and gather chunk;
    the work vectors are freed across the coarse correction.
    """

    def __init__(self, system, coarse=None, dtype=CYCLE_DTYPE):
        if system.discretization is None:
            raise ValueError("multigrid needs an operator that can rebuild itself on a "
                             "coarser mesh; this one carries no discretization")
        (basis, form), mesh = system.discretization, system.mesh
        self.grids = level_grids(mesh.n)
        if coarse is None and len(self.grids) == 1:
            if system.ndof <= COARSEST_MAX_DOF:
                self._invert(system)
                return
            self.transfer = Constants(system.block_size)  # too large to invert at degree k
            coarse = object.__new__(VCycle)._invert(self.transfer.galerkin(system))
        else:
            if coarse is None:
                coarse = VCycle(form(mesh.coarsen()), dtype=dtype)
            self.transfer = Transfer(mesh, coarse.A.mesh, basis)
        self.dtype = np.dtype(dtype)
        self.A, self.coarse = system.astype(self.dtype), coarse.astype(self.dtype)
        self.dinv = self.A.block_jacobi()

    def _invert(self, system):
        """This level as the coarsest one of ``system``, which needs no rule to
        rebuild itself: the float64 inverse of its dense matrix.  Returns self."""
        self.A, self.grids, self.coarse = system, [system.mesh.n], None
        self.coarse_inverse = np.linalg.inv(system.dense())
        self.dtype = self.coarse_inverse.dtype
        return self

    def astype(self, dtype):
        """This V-cycle computing in ``dtype`` on every level, as
        ``SparseSystem.astype`` casts an operator: the same levels, with each
        operator, its block-Jacobi blocks and the coarsest inverse cast; itself
        when it computes in ``dtype`` already, as its coarser levels then do."""
        dtype = np.dtype(dtype)
        if dtype == self.dtype:
            return self
        cast = copy.copy(self)
        cast.dtype, cast.A = dtype, self.A.astype(dtype)
        if self.coarse is None:
            cast.coarse_inverse = self.coarse_inverse.astype(dtype)
        else:
            cast.coarse, cast.dinv = self.coarse.astype(dtype), cast.A.block_jacobi()
        return cast

    def smooth(self, z, x, work, zero=False):
        """Fourth-kind Chebyshev iteration of degree ``CHEBYSHEV_DEGREE`` in
        D^{-1} A for A x = b, z = D^{-1} b, with the upper bound rho = 2 of the
        module docstring: from x, or from zero with ``zero``, updated in place.
        With w_j = D^{-1} (b - A x_j), the step d_0 = 4 / (3 rho) w_0 and
        d_j = (2j - 1) / (2j + 3) d_{j-1} + (8j + 4) / ((2j + 3) rho) w_j.
        ``work`` holds w and d; the output of each scaled product is the
        third vector."""
        rho = 2.0
        w, d = work
        if zero:
            x.fill(0.0)
            w[:] = z
        else:
            np.subtract(z, self.dinv.scaled(x), out=w)
        x += np.multiply(w, 4.0 / (3.0 * rho), out=d)
        for j in range(1, CHEBYSHEV_DEGREE):
            t = self.dinv.scaled(d)
            w -= t
            d *= (2 * j - 1) / (2 * j + 3)
            d += np.multiply(w, (8 * j + 4) / ((2 * j + 3) * rho), out=t)
            x += d
            del t
        return x

    def __call__(self, r):
        if self.coarse is None:
            return (self.coarse_inverse @ r).astype(r.dtype, copy=False)
        b = r.astype(self.dtype, copy=False)
        coarse_r = self.transfer.restrict(b)  # restrict(b - A x) = this - restrict(A x)
        z = self.dinv(b)
        del b
        x, work = np.empty(len(z), self.dtype), np.empty((2, len(z)), self.dtype)
        self.smooth(z, x, work, zero=True)
        del work
        coarse_r -= self.transfer.restrict(self.A @ x)
        x += self.transfer.prolong(self.coarse(coarse_r))
        del coarse_r
        self.smooth(z, x, np.empty((2, len(z)), self.dtype))
        del z
        return x.astype(r.dtype, copy=False)
