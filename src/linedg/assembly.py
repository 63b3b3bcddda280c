"""Interior penalty DG assembly: stiffness, mass, and boundary lifting.

Degrees of freedom are blocked per element (block size = dim of the local
polynomial space); ``dof = element * block_size + local_index``.  Every
operator is a Kuhn-stencil ``SparseSystem``: per Kuhn type one weight
block (its diagonal block and the blocks of its 4 face neighbours), and per
ghost class (a Kuhn type with the set of its faces on the boundary) one
correction to the diagonal block, over the neighbour table and class layout
of the mesh the operator holds, applied in one batched product over the
mesh's boundary pages.  No matrix is stored;
``SparseSystem.matrix`` builds the BSR form on demand.  The jump penalty
scales with the smallest grid pitch ``mesh.grid_spacing``, which matches
the quasi-uniform grids built here.

On the Kuhn grid of a ``Mesh`` a volume block depends only on the Kuhn type
of its element, and a face block only on the type, the local face and
whether the face is interior, so each operator evaluates one element per
type and one face per (type, local face), read off the face table
(``_blocked_system``).  The Nitsche and volume loads vary in space and use
all faces and elements.  Every integral over the mesh, these loads and the
norms of ``norms``, walks it in blocks of about ``_BLOCK`` quadrature values:
elements in blocks of ``_BLOCK // q`` for a rule of q points, faces in
blocks of ``_BLOCK // (q nb)`` (``_face_traces``), so that its temporaries
grow neither with the mesh nor with the degree.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import basis as _basis
from . import mesh as _mesh
from .errors import AssemblyError

_BLOCK = 1 << 16  # quadrature values (times nb on faces) per block of an integral

# configurations with a minus/zero symmetrizing term are only coercive for a
# large enough penalty; this floor rejects obviously unusable values and the
# coercivity probe in the test suite guards the rest
SIGMA_FLOOR = {-1: 1.0, 0: 1.0, 1: 0.0}

# grid cells per neighbourhood gather in ``SparseSystem._stencil``; at 32x32x8
# 128 cells were slower at k = 1 and 512 cells slower at k = 3
STENCIL_CHUNK = 256


@dataclass(frozen=True)
class DGSpec:
    """Discretization parameters of the penalized bilinear form.

    ``epsilon``: -1 symmetric, 0 incomplete, +1 nonsymmetric variant.  An
    omitted ``sigma`` is 5 at degree 1 and 12 + 6 (k - 2) above, and an
    omitted ``beta`` is 1 for the symmetric variant and 2 for the others.
    """

    k: int
    epsilon: int = -1
    sigma: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("degree k must be >= 1")
        if self.epsilon not in (-1, 0, 1):
            raise ValueError("epsilon must be one of -1, 0, +1")
        if self.sigma is None:
            object.__setattr__(self, "sigma", 5.0 if self.k == 1 else 12.0 + 6.0 * (self.k - 2))
        if self.beta is None:
            object.__setattr__(self, "beta", 1.0 if self.epsilon == -1 else 2.0)
        if self.sigma <= SIGMA_FLOOR[self.epsilon]:
            raise ValueError(
                f"sigma={self.sigma} is at or below the coercivity floor "
                f"{SIGMA_FLOOR[self.epsilon]} for epsilon={self.epsilon}"
            )
        if self.beta < 1.0:
            raise ValueError("beta must be >= 1")
        if self.epsilon == -1 and self.beta != 1.0:
            raise ValueError("the symmetric variant uses beta = 1")


@dataclass(eq=False)
class SparseSystem:
    """Kuhn-stencil operator over element-blocked DoFs (block size nb) on ``mesh``.

    Element e = 6 c + t, of grid cell c and Kuhn type t, couples with the 5
    elements ``mesh.neighbours[e]``: itself, then the element across the face
    opposite each of its 4 local vertices, or ``n_blocks`` (the ghost index)
    for a boundary face.  On the Kuhn grid these blocks depend only on t, so
    ``weights[t]`` (5 nb, nb) stacks the 5 transposed blocks once per type;
    ``system @ x`` gathers x per element neighbourhood and multiplies by its
    type's weights, a chunk of cells at a time (``_stencil``).  The gather
    reads x itself, the ghost index clipped to its last row, so an element
    with a boundary face gains that row times a block of its ghost class
    (``Mesh.ghost_classes``: its type and which of its faces are on the
    boundary, ``_clip_sums``).  Only the diagonal blocks of those elements
    differ from their type's, by a block that depends only on the class too:
    ``corrections[i]`` (nb, nb) adds to the diagonal blocks of class i.  The
    mesh holds those elements in ``boundary_pages`` of one class each, so a
    product mends them all at once: one gather of the pages' rows of x, each
    beside the last row, one batched matrix product with their classes'
    correction and clipped blocks, and one write back (``_pages``), in
    groups of pages of at most one stencil chunk of rows.  An operator whose
    neighbour blocks and corrections are all zero, as the mass, is read off
    its blocks as block diagonal and applies as one per-type block product,
    with no neighbourhood gather.  ``matrix`` (a BSR matrix, built on first access)
    and ``dense()`` hold the same operator at its full size, both from one
    block table.  Products compute in the dtype of the weights:
    ``astype(dtype)`` casts the blocks, so that the multigrid
    preconditioner can smooth with a float32 copy of a float64 operator.

    ``symmetric`` selects CG in ``solver.solve`` (BiCGStab otherwise); the
    assembly sets it for the epsilon = -1 stiffness and for the mass and
    Gram operators.  ``discretization`` is the operator's rule for rebuilding
    itself on another mesh, (basis, form) with ``form(mesh)`` the operator
    assembled there, which the multigrid preconditioner applies to coarser
    meshes: the stiffness (M + tau A given ``tau``) and mass assemblies set
    it; None otherwise.
    """

    mesh: _mesh.Mesh
    weights: np.ndarray
    corrections: np.ndarray
    symmetric: bool = False
    discretization: tuple | None = None

    @property
    def block_size(self):
        return self.weights.shape[2]

    @property
    def n_blocks(self):
        return self.mesh.n_elements

    @property
    def ndof(self):
        return self.n_blocks * self.block_size

    def _per_type(self, weights, rows, out=None):
        """Each element's row of ``rows`` (n, m nb), whole cells of 6 elements,
        times its type's ``weights`` (m nb, nb), into ``out`` (n, nb) or a new array."""
        if out is None:
            out = np.empty((len(rows), self.block_size), weights.dtype)
        np.matmul(rows.reshape(len(rows) // 6, 6, -1).transpose(1, 0, 2), weights,
                  out=out.reshape(-1, 6, self.block_size).transpose(1, 0, 2))
        return out

    def _stencil(self, weights, x):
        """The product of each element neighbourhood of x (ne, nb), the element
        and its 4 neighbours, with its type's ``weights`` (5 nb, nb), in rows
        0..ne-1 of an (ne + 1, nb) array whose ghost row is zero.  The gather
        reads x itself, with the ghost index clipped to row ne - 1, so an
        element with a boundary face also gains x[ne - 1] times the sum of its
        type's blocks over those faces, a block of its ghost class that the
        page pass takes off again (``_clip_sums``).  The neighbourhoods are
        gathered ``STENCIL_CHUNK`` cells at a time into a buffer allocated per
        call, so the transient beyond the product scales with the chunk, not
        the mesh, and one operator may be applied in several threads."""
        ne, nb = self.n_blocks, self.block_size
        y, step = np.empty((ne + 1, nb), weights.dtype), 6 * STENCIL_CHUNK
        y[ne] = 0.0
        for s in range(0, ne, step):
            at = slice(s, min(s + step, ne))
            self._per_type(weights, np.take(x, self.mesh.neighbours[at], 0, mode="clip"), y[at])
        return y

    def _clip_sums(self, weights):
        """Per ghost class of the mesh, the sum (nb, nb) of its type's neighbour
        blocks of ``weights`` (6, 5 nb, nb) over its boundary faces: x[ne - 1]
        times it is what the clipped gather of ``_stencil`` adds to each
        element of the class."""
        nb, classes = self.block_size, self.mesh.ghost_classes
        bits = ((classes[:, None] >> np.arange(4)) & 1).astype(weights.dtype)
        return np.einsum("cf,cfij->cij", bits, weights.reshape(6, 5, nb, nb)[classes // 16, 1:])

    @cached_property
    def _page_pairs(self):
        """Each row of ``boundary_pages`` beside the ghost index (np, page, 2):
        gathered with ``mode="clip"``, every element's row of an operand next
        to the operand's last row."""
        pages = self.mesh.boundary_pages
        return np.stack([pages, np.full_like(pages, self.n_blocks)], axis=2)

    def _pages(self, blocks):
        """The mesh's ``boundary_pages`` in groups of at most one stencil chunk
        of rows: per group its pages (p, page), their ``_page_pairs`` (p, page,
        2) and their classes' blocks of ``blocks`` (p, m, nb), by which an
        operand's rows gathered there are multiplied.  The padding, the ghost
        index, gathers row ne - 1 of an operand (``mode="clip"``) and writes
        back the ghost row of an output."""
        pages, pairs, classes = self.mesh.boundary_pages, self._page_pairs, self.mesh.page_classes
        step = 6 * STENCIL_CHUNK // pages.shape[1]
        for s in range(0, len(pages), step):
            yield pages[s:s + step], pairs[s:s + step], blocks[classes[s:s + step]]

    @staticmethod
    def _put_rows(y, pages, rows):
        """y[pages] = rows for y (n, nb) and rows (p, page, nb), each row copied
        as one opaque item: numpy's fancy-index assignment copies an item at a
        time but a sub-array entry by entry, several times slower."""
        item = np.dtype((np.void, y.itemsize * y.shape[1]))
        y.view(item).reshape(-1)[pages] = rows.view(item).reshape(pages.shape)

    @cached_property
    def _block_diagonal(self):
        """Whether every neighbour block and correction is zero (the mass)."""
        nb = self.block_size
        return not (self.weights[:, nb:].any() or self.corrections.any())

    @cached_property
    def _page_blocks(self):
        """Per ghost class (nc, 2 nb, nb): its correction transposed over minus
        its ``_clip_sums``, by which a page row and x[ne - 1] beside it are
        multiplied."""
        return np.concatenate([self.corrections.transpose(0, 2, 1),
                               -self._clip_sums(self.weights)], axis=1)

    def __matmul__(self, x):
        ne, nb = self.n_blocks, self.block_size
        x = np.reshape(x, (ne, nb)).astype(self.weights.dtype, copy=False)
        if self._block_diagonal:
            return self._per_type(self.weights[:, :nb], x).ravel()
        y = self._stencil(self.weights, x)
        for pages, pairs, blocks in self._pages(self._page_blocks):
            rows = np.matmul(np.take(x, pairs, 0, mode="clip").reshape(*pages.shape, 2 * nb), blocks)
            rows += np.take(y, pages, 0)
            self._put_rows(y, pages, rows)
        return y[:ne].ravel()

    def astype(self, dtype):
        """This operator with its blocks cast to ``dtype``: same mesh, symmetry
        and discretization; its products compute in ``dtype``."""
        return SparseSystem(self.mesh, self.weights.astype(dtype), self.corrections.astype(dtype),
                             self.symmetric, self.discretization)

    def block_jacobi(self):
        """y = D^{-1} x, D the block diagonal, as a ``BlockJacobi`` callable."""
        return BlockJacobi(self)

    def _bsr(self):
        """The operator's canonical BSR arrays at full size (blocks, columns, row
        pointers): block row e holds its diagonal block and one per interior face,
        columns sorted, and each ghost class's correction is added to its diagonal."""
        mesh, ne, nb = self.mesh, self.n_blocks, self.block_size
        order = np.argsort(mesh.neighbours, axis=1)
        cols = np.take_along_axis(mesh.neighbours, order, axis=1)
        inner = cols < ne  # the ghost sorts last
        order += (np.arange(ne) % 6)[:, None] * 5
        blocks = np.ascontiguousarray(self.weights.reshape(30, nb, nb).transpose(0, 2, 1))
        data = blocks[order[inner]]
        indptr = np.concatenate([[0], np.cumsum(inner.sum(axis=1))])
        pages = mesh.boundary_pages
        fixed, real = pages[pages < ne], (pages < ne).ravel()
        at = indptr[fixed] + (mesh.neighbours[fixed] < fixed[:, None]).sum(axis=1)
        data[at] += self.corrections[np.repeat(mesh.page_classes, pages.shape[1])[real]]
        return data, cols[inner], indptr

    @cached_property
    def matrix(self):
        """The operator as a canonical ``scipy.sparse.bsr_matrix``, built on first
        access for the tests and the benchmark (no solve reads it)."""
        import scipy.sparse as sp

        return sp.bsr_matrix(self._bsr(), shape=(self.ndof, self.ndof))

    def dense(self):
        """The operator as a dense (ndof, ndof) array, scattered from the block
        table ``_bsr()`` that ``matrix`` also reads.  It builds no scipy matrix,
        so the coarsest level of a ``VCycle`` inverts it without scipy."""
        data, cols, indptr = self._bsr()
        ne, nb = self.n_blocks, self.block_size
        dense = np.zeros((ne, nb, ne, nb))
        dense[np.repeat(np.arange(ne), np.diff(indptr)), :, cols] = data
        return dense.reshape(self.ndof, self.ndof)


class BlockJacobi:
    """y = D^{-1} x for the block diagonal D of a ``SparseSystem``, and ``scaled(x)``
    = D^{-1} A x; ValueError on a singular block.  Inverts D_t per Kuhn type and
    D_c = D_t + C_c per ghost class c, C_c its correction.  ``scaled`` is one
    stencil product with the weights W_t D_t^{-T}, y' = D_t^{-1} (A x - C_c x_e),
    then on fixed elements D_c^{-1} (D_t y' + C_c x_e) = y' + D_c^{-1} C_c (x_e - y').
    Its clipped gather adds G_c x_l to y' (x_l the last row of x, G_c the
    transposed ``_clip_sums`` of the scaled weights), so with F_c = D_c^{-1} C_c
    a fixed element's result is F_c x_e - (I - F_c) G_c x_l + (I - F_c) y'.
    Both apply their per-class blocks, D_c^{-1} and these three, as the
    operator's product applies C_c: batched over the mesh's boundary pages.  The blocks are inverted and multiplied in float64 and stored in the
    dtype of the operator, the dtype its products compute in."""

    def __init__(self, system):
        self.system, dtype = system, system.weights.dtype
        weights = system.weights.astype(float, copy=False)
        corrections = system.corrections.astype(float, copy=False)
        nb = system.block_size
        diagonal = weights[:, :nb].transpose(0, 2, 1)
        types = system.mesh.ghost_classes // 16
        try:
            inverse = np.linalg.inv(diagonal).transpose(0, 2, 1)
            fixed_inverse = np.linalg.inv(diagonal[types] + corrections)
        except np.linalg.LinAlgError as err:
            raise ValueError("singular diagonal block; cannot form block-Jacobi") from err
        scaled_weights = weights @ inverse
        fixups = (fixed_inverse @ corrections).transpose(0, 2, 1)  # F_c^T
        keep = np.eye(nb) - fixups
        self.inverse = inverse.astype(dtype, copy=False)
        self.fixed_inverse = fixed_inverse.transpose(0, 2, 1).astype(dtype)
        self.scaled_weights = scaled_weights.astype(dtype, copy=False)
        # per class, transposed for rows: the blocks of x_e, x_l and y' (nc, 3 nb, nb)
        self.page_blocks = np.concatenate(
            [fixups, -system._clip_sums(scaled_weights) @ keep, keep], axis=1).astype(dtype)

    def __call__(self, x):
        A, ne, nb = self.system, self.system.n_blocks, self.system.block_size
        x = np.reshape(x, (ne, nb))
        y = np.empty((ne + 1, nb), self.inverse.dtype)
        A._per_type(self.inverse, x, y[:ne])
        for pages, _, blocks in A._pages(self.fixed_inverse):
            A._put_rows(y, pages, np.matmul(np.take(x, pages, 0, mode="clip"), blocks))
        return y[:ne].ravel()

    def scaled(self, x):
        A, ne, nb = self.system, self.system.n_blocks, self.system.block_size
        x = np.reshape(x, (ne, nb)).astype(self.inverse.dtype, copy=False)
        y = A._stencil(self.scaled_weights, x)
        for pages, pairs, blocks in A._pages(self.page_blocks):
            rows = np.take(x, pairs, 0, mode="clip").reshape(*pages.shape, 2 * nb)
            rows = np.matmul(rows, blocks[:, :2 * nb])
            rows += np.matmul(np.take(y, pages, 0), blocks[:, 2 * nb:])
            A._put_rows(y, pages, rows)
        return y[:ne].ravel()


def _volume_grad_gram(mesh, basis):
    """Blocks (6, nb, nb) of the broken gradient term, sum_E (grad u, grad v)_E,
    of an element of each Kuhn type."""
    rule = _basis.tet_quadrature(2 * basis.degree)
    g = basis.grad(rule.points)  # (q, nb, 3)
    # S[m, n, i, j] = sum_q w_q dphi_i/dxi_m dphi_j/dxi_n
    S = np.einsum("q,qim,qjn->mnij", rule.weights, g, g)
    jinv = mesh.type_jac_invs
    C = np.einsum("emd,end->emn", jinv, jinv)
    return np.einsum("emn,mnij->eij", C, S) * mesh.type_det_jacobians[:, None, None]


def _face_traces(mesh, basis, rule, elements, local):
    """Basis traces at the points of a triangle rule on the faces opposite
    local vertex ``local`` of ``elements``, the faces' first side.

    Yields, per block of ``_BLOCK // (q nb)`` faces, (x, w, sides): quadrature
    points x (f, q, 3), physical weights w (f, q) absorbing the face area,
    and per side a tuple (elements, V, Gn) of basis values V (f, q, nb) and
    normal derivatives Gn (f, q, nb) along the first side's outward normal.
    A block's (f, q, nb) arrays hold at most ``_BLOCK`` values, so the
    temporaries grow neither with the mesh nor with the degree.  The
    second side, the element across each face in ``mesh.neighbours``, follows
    when every face is interior and is absent when every face is on the
    boundary; a mix raises ValueError.

    Every trace depends only on the row 4 t + f of the first side (Kuhn type
    t, local face f): it fixes the second side's row and the face's local
    vertices in both elements (``FACE_ACROSS``, ``FACE_MATCH`` of ``mesh``).
    So the basis and J_t^{-1} n are evaluated once per call, row and side.
    """
    across = mesh.neighbours[elements, 1 + local]
    interior = across < mesh.n_elements
    if interior.any() and not interior.all():
        raise ValueError("faces must be all interior or all on the boundary")
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])  # (q, 3)
    nb, own = basis.dim, np.arange(24)
    tables = []  # per side: its elements and the (24, q, nb) traces V and Gn
    for e, triples, types in zip((elements, across) if interior.all() else (elements,),
                                 (_mesh.FACE_VERTICES[own % 4], _mesh.FACE_MATCH),
                                 (own // 4, _mesh.FACE_ACROSS // 4)):
        ref = np.einsum("qk,rkd->rqd", bary, _basis.REF_TET_VERTICES[triples]).reshape(-1, 3)
        V = basis.eval(ref).reshape(24, rule.n, nb)
        G = basis.grad(ref).reshape(24, rule.n, nb, 3)
        # grad_x . n = grad_ref . (Jinv n)
        jn = np.einsum("rmd,rd->rm", mesh.type_jac_invs[types], mesh.face_normals)
        tables.append((e, V, np.einsum("rqim,rm->rqi", G, jn)))
    step = _BLOCK // (rule.n * nb)
    for start in range(0, elements.size, step):
        at = slice(start, start + step)
        rows = 4 * (elements[at] % 6) + local[at]
        corners = np.take_along_axis(mesh.tets(elements[at]), _mesh.FACE_VERTICES[local[at]], 1)
        x = np.einsum("qk,fkd->fqd", bary, mesh.vertices[corners])
        w = rule.weights[None, :] * (2.0 * mesh.face_areas[rows])[:, None]
        yield x, w, [(e[at], V[rows], Gn[rows]) for e, V, Gn in tables]


def _face_term_blocks(mesh, basis, face_form, elements, local):
    """Element blocks of the face part of a penalized bilinear form on the
    faces opposite local vertex ``local`` of ``elements``: one block of
    ``_face_traces``, all interior or all on the boundary.

    ``face_form`` is (consistency, epsilon, penalty):
      - consistency  -consistency ({grad u}.n) [v]
      - symmetrizing +epsilon ({grad v}.n) [u]
      - penalty      +penalty [u][v]
    Returns blocks[b][a] (f, nb, nb), coupling test functions of side b with
    trial functions of side a.  Interior faces have sides 0 and 1 (first and
    second element), boundary faces side 0 only, with one-sided traces.
    """
    consistency, epsilon, penalty = face_form
    rule = _basis.tri_quadrature(2 * basis.degree + 1)
    [(_, w, sides)] = _face_traces(mesh, basis, rule, elements, local)
    signs, factors = ((1.0, -1.0), (0.5, 0.5)) if len(sides) == 2 else ((1.0,), (1.0,))
    root = np.sqrt(w)[:, :, None]  # the weights are positive; each product carries one
    for _, V, Gn in sides:
        V *= root
        Gn *= root
    blocks = []
    for b, (_, Vb, Gnb) in enumerate(sides):
        Vb, Gnb = Vb.transpose(0, 2, 1), Gnb.transpose(0, 2, 1)
        blocks.append([])
        for a, (_, Va, Gna) in enumerate(sides):
            blk = (-consistency * signs[b] * factors[a]) * (Vb @ Gna)
            blk += (epsilon * signs[a] * factors[b]) * (Gnb @ Va)
            blk += (penalty * signs[a] * signs[b]) * (Vb @ Va)
            blocks[b].append(blk)
    return blocks


def _blocked_system(mesh, basis, volume=None, face_form=None, symmetric=True):
    """Stencil ``SparseSystem`` of a form with constant coefficients on a Kuhn mesh.

    ``volume(mesh, basis)`` gives the (6, nb, nb) diagonal blocks of the
    Kuhn types, or is None; ``face_form`` is the (consistency, epsilon,
    penalty) of ``_face_term_blocks`` or None.  On the Kuhn grid a volume
    block depends only on the Kuhn type t of its element, and a face block
    only on t, the local face f and whether the face is interior.  So the
    volume form is evaluated once per type, and the face form on faces picked
    from the 24-row face table: one boundary face per shifted row 4 t + f,
    and the interior faces of cell 0, one per pair of rows that meet.  Type
    t's diagonal block is its volume block plus its 4 interior-face terms;
    a local face that is interior nowhere (on a grid one cell thick) adds
    its boundary term instead, so the block is always that of some element.
    The correction of a ghost class (``Mesh.ghost_classes``) is the sum,
    over its boundary faces, of the boundary term minus the interior term;
    the system stores one per class.
    """
    nb = basis.dim
    stencil = np.zeros((6, 5, nb, nb))
    excess = np.zeros((24, nb, nb))  # per 4 t + f: the boundary minus the interior face term
    if volume is not None:
        stencil[:, 0] = volume(mesh, basis)
    if face_form is not None:
        # a shifted row is a boundary face in the first or last cell along its shift
        outer = np.flatnonzero(_mesh.FACE_SHIFTS.any(axis=1))
        e = 6 * mesh.cell_flat_index((_mesh.FACE_SHIFTS[outer] > 0) * (np.array(mesh.n) - 1))
        boundary = _face_term_blocks(mesh, basis, face_form, e + outer // 4, outer % 4)[0][0]
        inner = np.zeros((24, nb, nb))
        inner[outer] = boundary
        # every interior row pair meets in cell 0, on the side whose neighbour comes later
        across = mesh.neighbours[:6, 1:]
        rows = np.flatnonzero((across > np.arange(6)[:, None]) & (across < mesh.n_elements))
        other = _mesh.FACE_ACROSS[rows]
        blocks = _face_term_blocks(mesh, basis, face_form, rows // 4, rows % 4)
        inner[rows], inner[other] = blocks[0][0], blocks[1][1]
        stencil[rows // 4, 1 + rows % 4] = blocks[0][1]
        stencil[other // 4, 1 + other % 4] = blocks[1][0]
        stencil[:, 0] += inner.reshape(6, 4, nb, nb).sum(axis=1)
        excess[outer] = boundary - inner[outer]
    classes = mesh.ghost_classes
    bits = (classes[:, None] >> np.arange(4)) & 1
    corrections = np.einsum("cf,cfij->cij", bits, excess.reshape(6, 4, nb, nb)[classes // 16])
    weights = stencil.transpose(0, 1, 3, 2).reshape(6, 5 * nb, nb)
    return SparseSystem(mesh, weights, corrections, symmetric)


def assemble_stiffness(mesh, spec, basis, tau=None):
    """Assemble the penalized broken Laplacian A for the given parameters, or,
    given ``tau``, the backward Euler operator M + tau A: the mass weights
    plus tau times A's, and tau times A's corrections (the mass has none)."""
    if basis.degree != spec.k:
        raise ValueError("basis degree and spec.k disagree")
    penalty = spec.sigma / mesh.grid_spacing ** spec.beta
    system = _blocked_system(
        mesh, basis, _volume_grad_gram, (1.0, spec.epsilon, penalty), spec.epsilon == -1
    )
    if tau is not None:
        system.weights = assemble_mass(mesh, basis).weights + tau * system.weights
        system.corrections = tau * system.corrections
    system.discretization = basis, lambda other: assemble_stiffness(other, spec, basis, tau)
    return system


def reference_mass(basis):
    """Mass matrix on the reference tetrahedron."""
    rule = _basis.tet_quadrature(2 * basis.degree)
    vals = basis.eval(rule.points)
    return np.einsum("q,qi,qj->ij", rule.weights, vals, vals)


def local_projection(mesh, basis, moments, elements=slice(None)):
    """Coefficients (n, nb) of the element-local L2 projection with the given
    moments (n, nb) against the basis on ``elements``: the block mass matrix
    det J times ``reference_mass`` solved per element.  AssemblyError when the
    reference mass is singular."""
    scaled = moments / mesh.type_det_jacobians[np.arange(mesh.n_elements)[elements] % 6, None]
    try:
        return np.linalg.solve(reference_mass(basis), scaled.T).T
    except np.linalg.LinAlgError as err:
        raise AssemblyError("singular reference mass matrix") from err


def assemble_mass(mesh, basis):
    """Broken mass matrix: det J times the reference block; face blocks stay zero."""
    system = _blocked_system(
        mesh, basis, lambda m, b: reference_mass(b)[None] * m.type_det_jacobians[:, None, None]
    )
    system.discretization = basis, lambda other: assemble_mass(other, basis)
    return system


def assemble_dg_norm_gram(mesh, basis, sigma):
    """Gram matrix of the broken energy norm: v^T G v = ||v||_DG^2."""
    return _blocked_system(mesh, basis, _volume_grad_gram, (0.0, 0.0, sigma / mesh.grid_spacing))


def assemble_dirichlet_rhs(mesh, spec, basis, g):
    """Weak (Nitsche) lifting of Dirichlet data g on the boundary faces.

    r_i = eps * int_e g grad(phi_i).n + sigma/h^beta * int_e g phi_i.
    g is a callable over points (n, 3) or a constant; g == 0 gives the zero
    vector of the homogeneous problem.  The boundary faces are walked in the
    blocks of ``_face_traces``.
    """
    nb = basis.dim
    b = np.zeros(mesh.n_elements * nb)
    if not callable(g) and float(g) == 0.0:
        return b
    penalty = spec.sigma / mesh.grid_spacing ** spec.beta
    rule = _basis.tri_quadrature(2 * basis.degree + 2)
    for x, w, [(e, V, Gn)] in _face_traces(mesh, basis, rule, *mesh.faces(False)):
        wg = w * (np.asarray(g(x.reshape(-1, 3)), dtype=float).reshape(w.shape)
                  if callable(g) else float(g))
        contrib = spec.epsilon * np.einsum("fq,fqi->fi", wg, Gn)
        contrib += penalty * np.einsum("fq,fqi->fi", wg, V)
        np.add.at(b.reshape(mesh.n_elements, nb), e, contrib)
    return b


def assemble_volume_rhs(mesh, basis, F):
    """Volume load vector (F, phi_i) for a callable F over points (n, 3),
    by the 2k+2 rule of q points, in blocks of ``_BLOCK // q`` elements (the
    temporaries do not grow with the mesh)."""
    rule = _basis.tet_quadrature(2 * basis.degree + 2)
    vals = basis.eval(rule.points)  # (q, nb)
    b, step = np.empty((mesh.n_elements, basis.dim)), _BLOCK // rule.n
    for start in range(0, mesh.n_elements, step):
        block = np.arange(start, min(start + step, mesh.n_elements))
        Fv = np.asarray(F(mesh.map_points(rule.points, block).reshape(-1, 3)), dtype=float)
        contrib = np.einsum("q,eq,qi->ei", rule.weights, Fv.reshape(block.size, rule.n), vals)
        b[start:start + step] = contrib * mesh.type_det_jacobians[block % 6, None]
    return b.ravel()
