"""Interior penalty DG assembly: stiffness, mass, and boundary lifting.

Degrees of freedom are blocked per element (block size = dim of the local
polynomial space); ``dof = element * block_size + local_index``.  Every
operator is a Kuhn-stencil ``SparseSystem``: per Kuhn type one weight
block (its diagonal block and the blocks of its 4 face neighbours), the
(ne, 5) neighbour table, and corrections to the diagonal blocks of the
elements near the boundary that differ from their type's.  No matrix is
stored; ``SparseSystem.matrix`` builds the BSR form on demand.  The jump
penalty scales with the smallest grid pitch ``mesh.grid_spacing``, which
matches the quasi-uniform grids built here.

The operators need a box mesh from ``build_box_mesh``: each is assembled on
a replica grid of at most 3 cells per axis and read from there into the
stencil (``_blocked_system``); any other mesh raises AssemblyError.  The
Nitsche and volume loads vary in space and use all faces.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import basis as _basis
from .errors import AssemblyError

# configurations with a minus/zero symmetrizing term are only coercive for a
# large enough penalty; this floor rejects obviously unusable values and the
# coercivity probe in the test suite guards the rest
SIGMA_FLOOR = {-1: 1.0, 0: 1.0, 1: 0.0}


@dataclass(frozen=True)
class DGSpec:
    """Discretization parameters of the penalized bilinear form.

    ``epsilon``: -1 symmetric, 0 incomplete, +1 nonsymmetric variant.
    Defaults used by the built-in studies: sigma 5 for degree 1, 12 for
    degree 2, epsilon -1, beta 1.
    """

    k: int
    epsilon: int = -1
    sigma: float = 5.0
    beta: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("degree k must be >= 1")
        if self.epsilon not in (-1, 0, 1):
            raise ValueError("epsilon must be one of -1, 0, +1")
        if self.sigma <= SIGMA_FLOOR[self.epsilon]:
            raise ValueError(
                f"sigma={self.sigma} is at or below the coercivity floor "
                f"{SIGMA_FLOOR[self.epsilon]} for epsilon={self.epsilon}"
            )
        if self.beta < 1.0:
            raise ValueError("beta must be >= 1")
        if self.epsilon == -1 and self.beta != 1.0:
            raise ValueError("the symmetric variant uses beta = 1")

    @classmethod
    def default(cls, k, epsilon=-1):
        sigma = {1: 5.0, 2: 12.0}.get(k, 12.0 + 6.0 * (k - 2))
        beta = 1.0 if epsilon == -1 else 2.0
        return cls(k=k, epsilon=epsilon, sigma=sigma, beta=beta)


@dataclass(eq=False)
class SparseSystem:
    """Kuhn-stencil operator over element-blocked DoFs (block size nb).

    Element e = 6 c + t, of grid cell c and Kuhn type t, couples with the 5
    elements ``neighbours[e]``: itself, then the element across the face
    opposite each of its 4 local vertices, or ``n_blocks`` (a zero ghost
    row) for a boundary face.  On the Kuhn grid these blocks depend only on
    t, so ``weights[t]`` (5 nb, nb) stacks the 5 transposed blocks once per
    type; ``system @ x`` gathers x per element neighbourhood and multiplies
    by its type's weights.  Only the diagonal blocks of some elements near
    the boundary differ from their type's: element ``fixed[i]`` adds
    ``corrections[i]`` (nb, nb), and ``fixed_class[i]`` labels it so that
    equal labels mean equal diagonal blocks.  ``matrix`` builds the same
    operator as a BSR matrix, on first access and at its full size.

    ``symmetric`` selects CG in ``solver.solve`` (BiCGStab otherwise); the
    assembly sets it for the epsilon = -1 stiffness and for the mass and
    Gram operators.  ``discretization`` is the (mesh, spec, basis) an
    assembled stiffness operator came from, which the multigrid
    preconditioner rediscretises on coarser meshes; None for every other
    operator.
    """

    weights: np.ndarray
    neighbours: np.ndarray
    fixed: np.ndarray
    corrections: np.ndarray
    fixed_class: np.ndarray
    symmetric: bool = False
    discretization: tuple | None = None

    @property
    def block_size(self):
        return self.weights.shape[2]

    @property
    def n_blocks(self):
        return self.neighbours.shape[0]

    @property
    def ndof(self):
        return self.n_blocks * self.block_size

    def __matmul__(self, x):
        ne, nb = self.n_blocks, self.block_size
        xe = np.empty((ne + 1, nb))
        xe[:ne] = np.reshape(x, (ne, nb))
        xe[ne] = 0.0
        gathered = np.take(xe, self.neighbours, axis=0).reshape(ne // 6, 6, 5 * nb)
        y = np.empty((ne // 6, 6, nb))
        np.matmul(gathered.transpose(1, 0, 2), self.weights, out=y.transpose(1, 0, 2))
        y = y.reshape(ne, nb)
        y[self.fixed] += np.einsum("mij,mj->mi", self.corrections, xe[self.fixed])
        return y.ravel()

    def __add__(self, other):
        """Sum of two operators on one mesh."""
        if not (np.array_equal(self.neighbours, other.neighbours)
                and np.array_equal(self.fixed_class, other.fixed_class)):
            raise ValueError("operators on different meshes cannot be added")
        return SparseSystem(self.weights + other.weights, self.neighbours, self.fixed,
                            self.corrections + other.corrections, self.fixed_class,
                            self.symmetric and other.symmetric)

    def __rmul__(self, scale):
        return SparseSystem(scale * self.weights, self.neighbours, self.fixed,
                            scale * self.corrections, self.fixed_class, self.symmetric)

    def block_jacobi(self):
        """y = D^{-1} x for the block diagonal D of the operator, as a callable.

        Inverts one block per Kuhn type and one per class of ``fixed``
        elements, applies them per type and overwrites the fixed elements;
        raises ValueError on a singular block.
        """
        nb, fixed = self.block_size, self.fixed
        diagonal = self.weights[:, :nb].transpose(0, 2, 1)
        _, first, members = np.unique(self.fixed_class, return_index=True, return_inverse=True)
        try:
            inverse = np.linalg.inv(diagonal).transpose(0, 2, 1)
            fixed_inverse = np.linalg.inv(diagonal[fixed[first] % 6] + self.corrections[first])
        except np.linalg.LinAlgError as err:
            raise ValueError("singular diagonal block; cannot form block-Jacobi") from err
        fixed_inverse = fixed_inverse[members]

        def apply(x):
            xb = np.reshape(x, (-1, 6, nb))
            y = np.empty_like(xb)
            np.matmul(xb.transpose(1, 0, 2), inverse, out=y.transpose(1, 0, 2))
            y = y.reshape(-1, nb)
            y[fixed] = np.einsum("mij,mj->mi", fixed_inverse, xb.reshape(-1, nb)[fixed])
            return y.ravel()

        return apply

    @cached_property
    def matrix(self):
        """The operator as a canonical ``scipy.sparse.bsr_matrix``, built on first
        access at the full size of the matrix: block row e holds its diagonal
        block and one block per interior face, columns sorted."""
        import scipy.sparse as sp

        ne, nb = self.n_blocks, self.block_size
        order = np.argsort(self.neighbours, axis=1)
        cols = np.take_along_axis(self.neighbours, order, axis=1)
        inner = cols < ne  # the ghost sorts last
        order += (np.arange(ne) % 6)[:, None] * 5
        blocks = np.ascontiguousarray(self.weights.reshape(30, nb, nb).transpose(0, 2, 1))
        data = blocks[order[inner]]
        indptr = np.concatenate([[0], np.cumsum(inner.sum(axis=1))])
        at = indptr[self.fixed] + (self.neighbours[self.fixed] < self.fixed[:, None]).sum(axis=1)
        data[at] += self.corrections
        return sp.bsr_matrix((data, cols[inner], indptr), shape=(ne * nb, ne * nb))


def _volume_grad_gram(mesh, basis):
    """Element blocks (ne, nb, nb) of the broken gradient term, sum_E (grad u, grad v)_E."""
    rule = _basis.tet_quadrature(2 * basis.degree)
    g = basis.grad(rule.points)  # (q, nb, 3)
    # S[m, n, i, j] = sum_q w_q dphi_i/dxi_m dphi_j/dxi_n
    S = np.einsum("q,qim,qjn->mnij", rule.weights, g, g)
    jinv = mesh.jac_invs
    C = np.einsum("emd,end->emn", jinv, jinv)
    return np.einsum("emn,mnij->eij", C, S) * mesh.det_jacobians[:, None, None]


def _face_traces(mesh, basis, rule, boundary=False, sel=slice(None)):
    """Basis traces at the points of a triangle rule on the selected interior
    (or boundary) faces.

    Returns (x, w, sides): quadrature points x (f, q, 3), physical weights
    w (f, q) absorbing the face area, and per adjacent side (first and
    second element of an interior face, the owner of a boundary face) a
    tuple (elements, V, Gn) of basis values V (f, q, nb) and normal
    derivatives Gn (f, q, nb) along the stored face normal.

    On affine elements a trace depends only on which local vertices of the
    element the face's vertices are, so the reference basis is evaluated
    once per distinct ordered vertex triple (at most 24) and indexed.
    """
    if boundary:
        verts, normals, areas = mesh.bface_verts[sel], mesh.bface_normals[sel], mesh.bface_areas[sel]
        elems = (mesh.bface_elem[sel],)
    else:
        verts, normals, areas = mesh.iface_verts[sel], mesh.iface_normals[sel], mesh.iface_areas[sel]
        elems = (mesh.iface_elems[sel, 0], mesh.iface_elems[sel, 1])
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])  # (q, 3)
    x = np.einsum("qk,fkd->fqd", bary, mesh.vertices[verts])
    w = rule.weights[None, :] * (2.0 * areas)[:, None]
    nb = basis.dim
    sides = []
    for e in elems:
        local = np.argmax(mesh.tets[e][:, None, :] == verts[:, :, None], axis=2)  # (f, 3)
        triples, inv = np.unique(local, axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        ref = np.einsum("qk,tkd->tqd", bary, _basis.REF_TET_VERTICES[triples]).reshape(-1, 3)
        V = basis.eval(ref).reshape(len(triples), rule.n, nb)[inv]
        G = basis.grad(ref).reshape(len(triples), rule.n, nb, 3)
        # grad_x . n = grad_ref . (Jinv n)
        jn = np.einsum("fmd,fd->fm", mesh.jac_invs[e], normals)
        Gn = sum(G[..., m][inv] * jn[:, m, None, None] for m in range(3))
        sides.append((e, V, Gn))
    return x, w, sides


def _face_term_blocks(mesh, basis, consistency, epsilon, penalty):
    """Element blocks of the face part of a penalized bilinear form, all faces.

    Yields (b, a, elements, blk) per face kind and pair of sides:
    blk (f, nb, nb) couples test functions of side b, on ``elements``, with
    trial functions of side a.  Interior faces have sides 0 and 1 (first and
    second element), boundary faces side 0 only.
      - consistency  -consistency ({grad u}.n) [v]
      - symmetrizing +epsilon ({grad v}.n) [u]
      - penalty      +penalty [u][v]
    Boundary faces use one-sided traces.
    """
    rule = _basis.tri_quadrature(2 * basis.degree + 1)
    for boundary, signs, factors in ((False, (1.0, -1.0), (0.5, 0.5)), (True, (1.0,), (1.0,))):
        _, w, sides = _face_traces(mesh, basis, rule, boundary)
        root = np.sqrt(w)[:, :, None]  # the weights are positive; each product carries one
        for _, V, Gn in sides:
            V *= root
            Gn *= root
        for b, (eb, Vb, Gnb) in enumerate(sides):
            Vb, Gnb = Vb.transpose(0, 2, 1), Gnb.transpose(0, 2, 1)
            for a, (_, Va, Gna) in enumerate(sides):
                blk = (-consistency * signs[b] * factors[a]) * (Vb @ Gna)
                blk += (epsilon * signs[a] * factors[b]) * (Gnb @ Va)
                blk += (penalty * signs[a] * signs[b]) * (Vb @ Va)
                yield b, a, eb, blk


def _local_faces(mesh, elements, face_verts):
    """Per face, the local vertex of its element that the face misses (0..3)."""
    on_face = (mesh.tets[elements][:, :, None] == face_verts[:, None, :]).any(axis=2)
    return np.argmin(on_face, axis=1)


def _neighbour_table(mesh):
    """(ne, 5) table of element e, then its neighbour across the face opposite
    each local vertex, from the mesh's faces; ne stands for a boundary face."""
    ne = mesh.n_elements
    table = np.full((ne, 5), ne)
    table[:, 0] = np.arange(ne)
    for side in (0, 1):
        e = mesh.iface_elems[:, side]
        table[e, 1 + _local_faces(mesh, e, mesh.iface_verts)] = mesh.iface_elems[:, 1 - side]
    return table


def _kuhn_layout(mesh, rep, shift, rep_table):
    """Relate a Kuhn box grid of ``build_box_mesh`` to its replica.

    ``rep, shift`` is ``mesh.replica()`` and ``rep_table`` the replica's
    neighbour table.  Returns (rep_elem, table): each element's replica
    element (same Kuhn type, in the cell shifted by ``shift``) and the mesh's
    neighbour table.  A mesh without that layout (an element unlike its
    replica, or neighbours unlike its replica's shifted back by the same
    offset) raises AssemblyError.
    """
    ne, rep_ne = mesh.n_elements, rep.n_elements
    cells, kind = mesh.element_cells()
    rep_elem = rep.cell_flat_index(cells + shift) * 6 + kind
    same = np.all(mesh.cell_flat_index(mesh.cell_index(mesh.centroids)) == np.arange(ne) // 6)
    for ours, theirs in ((mesh.det_jacobians, rep.det_jacobians), (mesh.jac_invs, rep.jac_invs)):
        theirs = theirs.reshape(rep_ne, -1)
        diff = theirs[rep_elem]
        np.abs(np.subtract(ours.reshape(ne, -1), diff, out=diff), out=diff)
        same &= np.all(diff.max(axis=1) <= 1e-12 * np.abs(theirs).max(axis=1)[rep_elem])
    del diff  # not kept through the table build, which sets the assembly's allocation peak
    table = _neighbour_table(mesh)
    rep_cells, _ = rep.element_cells()
    for s in range(1, 5):
        r = rep_table[rep_elem, s]
        inner = r < rep_ne
        c = rep_cells[r[inner]] - shift[inner]
        same &= np.all((c >= 0) & (c < mesh.n)) and np.array_equal(
            table[inner, s], mesh.cell_flat_index(c) * 6 + r[inner] % 6
        ) and np.all(table[~inner, s] == ne)
    if not same:
        raise AssemblyError("mesh is not a Kuhn box grid from build_box_mesh; cannot assemble")
    return rep_elem, table


def _blocked_system(mesh, basis, volume=None, face_form=None, symmetric=True):
    """Stencil ``SparseSystem`` of a form with constant coefficients on a box mesh.

    ``volume(mesh, basis)`` gives the (ne, nb, nb) diagonal blocks, or is None;
    ``face_form`` is (consistency, epsilon, penalty) of ``_face_term_blocks``
    or None.  On the Kuhn grid of ``build_box_mesh`` a block depends only on
    the Kuhn types and cell offset of its two elements and on the boundary
    planes the row element's cell touches, so the form is scattered once on
    ``mesh.replica()``: the diagonal block of every replica element, summed
    over its faces with ``np.add.at``, and the off-diagonal block of each
    Kuhn type and local face, the same on every interior face of that type
    and side.  Type t takes its diagonal block from its replica element in
    the replica's middle cell.  An element whose boundary faces differ from
    that middle element's is ``fixed``: it keeps the excess of its
    replica's diagonal block over its type's as a correction.
    ``_kuhn_layout`` checks the mesh.
    """
    nb = basis.dim
    rep, shift = mesh.replica()
    rep_ne, rep_table = rep.n_elements, _neighbour_table(rep)
    kind = np.arange(rep_ne) % 6
    diagonal = np.zeros((rep_ne, nb, nb))
    faces = np.zeros((6, 4, nb, nb))
    if volume is not None:
        diagonal[:] = volume(rep, basis)
    if face_form is not None:
        slots = [_local_faces(rep, rep.iface_elems[:, s], rep.iface_verts) for s in (0, 1)]
        for b, a, eb, blk in _face_term_blocks(rep, basis, *face_form):
            if a == b:
                np.add.at(diagonal, eb, blk)
            else:
                faces[kind[eb], slots[b]] = blk
    middle = rep.cell_flat_index(np.minimum(1, np.asarray(rep.n) - 1)[None]) * 6 + np.arange(6)
    stencil = np.concatenate([diagonal[middle, None], faces], axis=1)
    diagonal -= stencil[kind, 0]  # now the excess of each block over its type's

    rep_elem, table = _kuhn_layout(mesh, rep, shift, rep_table)
    ghosts = (rep_table[:, 1:] == rep_ne) @ (1 << np.arange(4))
    fixed = np.flatnonzero(ghosts[rep_elem] != ghosts[middle[rep_elem % 6]])
    fixed_class = rep_elem[fixed]
    weights = stencil.transpose(0, 1, 3, 2).reshape(6, 5 * nb, nb)
    return SparseSystem(weights, table, fixed, diagonal[fixed_class], fixed_class, symmetric)


def assemble_stiffness(mesh, spec, basis):
    """Assemble the penalized broken Laplacian for the given parameters."""
    if basis.degree != spec.k:
        raise ValueError("basis degree and spec.k disagree")
    penalty = spec.sigma / mesh.grid_spacing ** spec.beta
    system = _blocked_system(
        mesh, basis, _volume_grad_gram, (1.0, spec.epsilon, penalty), spec.epsilon == -1
    )
    system.discretization = (mesh, spec, basis)
    return system


def reference_mass(basis):
    """Mass matrix on the reference tetrahedron."""
    rule = _basis.tet_quadrature(2 * basis.degree)
    vals = basis.eval(rule.points)
    return np.einsum("q,qi,qj->ij", rule.weights, vals, vals)


def assemble_mass(mesh, basis):
    """Broken mass matrix: det J times the reference block; face blocks stay zero."""
    return _blocked_system(
        mesh, basis, lambda m, b: reference_mass(b)[None] * m.det_jacobians[:, None, None]
    )


def assemble_dg_norm_gram(mesh, basis, sigma):
    """Gram matrix of the broken energy norm: v^T G v = ||v||_DG^2."""
    return _blocked_system(mesh, basis, _volume_grad_gram, (0.0, 0.0, sigma / mesh.grid_spacing))


def assemble_dirichlet_rhs(mesh, spec, basis, g):
    """Weak (Nitsche) lifting of Dirichlet data g on the boundary faces.

    r_i = eps * int_e g grad(phi_i).n + sigma/h^beta * int_e g phi_i.
    g is a callable over points (n, 3) or a constant; g == 0 gives the zero
    vector of the homogeneous problem.
    """
    nb = basis.dim
    b = np.zeros(mesh.n_elements * nb)
    if not callable(g):
        if float(g) == 0.0:
            return b
        g_val = float(g)
        g = lambda pts: np.full(pts.shape[0], g_val)
    penalty = spec.sigma / mesh.grid_spacing ** spec.beta
    rule = _basis.tri_quadrature(2 * basis.degree + 2)
    x, w, [(e, V, Gn)] = _face_traces(mesh, basis, rule, boundary=True)
    wg = w * np.asarray(g(x.reshape(-1, 3)), dtype=float).reshape(w.shape)
    contrib = spec.epsilon * np.einsum("fq,fqi->fi", wg, Gn)
    contrib += penalty * np.einsum("fq,fqi->fi", wg, V)
    np.add.at(b.reshape(mesh.n_elements, nb), e, contrib)
    return b


def assemble_volume_rhs(mesh, basis, F):
    """Volume load vector (F, phi_i) for a callable F over points (n, 3),
    by the 2k+2 rule."""
    rule = _basis.tet_quadrature(2 * basis.degree + 2)
    vals = basis.eval(rule.points)  # (q, nb)
    phys = mesh.map_points(rule.points)  # (nt, q, 3)
    Fv = np.asarray(F(phys.reshape(-1, 3)), dtype=float).reshape(mesh.n_elements, rule.n)
    contrib = np.einsum("q,eq,qi->ei", rule.weights, Fv, vals) * mesh.det_jacobians[:, None]
    return contrib.ravel()
