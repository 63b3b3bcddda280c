"""Interior penalty DG assembly: stiffness, mass, and boundary lifting.

Degrees of freedom are blocked per element (block size = dim of the local
polynomial space); ``dof = element * block_size + local_index``.  Every
operator is a BSR matrix on one block pattern: per element its diagonal
block and one block per interior face.  The jump penalty scales with the
smallest grid pitch ``mesh.grid_spacing``, which matches the quasi-uniform
grids built here.

The operators need a box mesh from ``build_box_mesh``: each is assembled on
a replica grid of at most 3 cells per axis and gathered from there into the
full block pattern (``_blocked_system``); any other mesh raises
AssemblyError.  The Nitsche and volume loads vary in space and use all faces.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


@dataclass
class SparseSystem:
    """BSR operator over element-blocked DoFs, one (nb, nb) block per element pair.

    ``symmetric`` selects CG in ``solver.solve`` (BiCGStab otherwise); the
    assembly sets it for the epsilon = -1 stiffness and for the mass, jump
    and Gram operators.  ``discretization`` is the (mesh, spec, basis) an assembled stiffness
    operator came from, which the multigrid preconditioner rediscretises on
    coarser meshes; None for every other operator.
    """

    matrix: sp.bsr_matrix
    block_size: int
    symmetric: bool = False
    discretization: tuple | None = None

    @property
    def ndof(self):
        return self.matrix.shape[0]

    @property
    def n_blocks(self):
        return self.ndof // self.block_size

    def diagonal_blocks(self):
        """The (n_blocks, nb, nb) diagonal element blocks of the operator."""
        nb = self.block_size
        bsr = self.matrix.tobsr(blocksize=(nb, nb))  # no copy for the assembled operators
        rows = np.repeat(np.arange(self.n_blocks), np.diff(bsr.indptr))
        on_diag = bsr.indices == rows
        blocks = np.zeros((self.n_blocks, nb, nb))
        blocks[rows[on_diag]] = bsr.data[on_diag]
        return blocks


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
        weighted = [(w[:, :, None] * V).transpose(0, 2, 1) for _, V, _ in sides]
        weighted_n = [(w[:, :, None] * Gn).transpose(0, 2, 1) for _, _, Gn in sides]
        for b, (eb, _, _) in enumerate(sides):
            for a, (_, Va, Gna) in enumerate(sides):
                blk = (-consistency * signs[b] * factors[a]) * (weighted[b] @ Gna)
                blk += (epsilon * signs[a] * factors[b]) * (weighted_n[b] @ Va)
                blk += (penalty * signs[a] * signs[b]) * (weighted[b] @ Va)
                yield b, a, eb, blk


def _block_pattern(mesh):
    """(rows, cols, slot) of the one block pattern of every operator.

    Block row e holds the diagonal block and one block per interior face of
    e, columns sorted; rows/cols list the pattern in that order, and
    ``slot[j]`` is the position of pair j of [(e, e) per element, (e0, e1)
    per interior face, (e1, e0) per interior face].
    """
    e, (e0, e1) = np.arange(mesh.n_elements), mesh.iface_elems.T
    rows, cols = np.concatenate([e, e0, e1]), np.concatenate([e, e1, e0])
    order = np.lexsort((cols, rows))
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    return rows[order], cols[order], slot


def _blocked_system(mesh, basis, volume=None, face_form=None, symmetric=True):
    """SparseSystem of a form with constant coefficients on a box mesh.

    ``volume(mesh, basis)`` gives the (ne, nb, nb) diagonal blocks, or is None;
    ``face_form`` is (consistency, epsilon, penalty) of ``_face_term_blocks``
    or None.  On the Kuhn grid of ``build_box_mesh`` a block depends only on
    the Kuhn types and cell offset of its two elements and on the boundary
    planes the row element's cell touches, so the form is scattered once on
    ``mesh.replica()`` (diagonal blocks summed over faces with ``np.add.at``,
    each interior face owning its two off-diagonal blocks) and block (e, c)
    is gathered from the block of e's replica and c shifted by the same cell
    offset.  A mesh without that layout (an element unlike its replica, a
    block without a replica slot) raises AssemblyError.
    """
    ne, nb = mesh.n_elements, basis.dim
    rep, shift = mesh.replica()
    rep_rows, rep_cols, slot = _block_pattern(rep)
    rep_data = np.zeros((rep_rows.size, nb, nb))
    if volume is not None:
        rep_data[slot[: rep.n_elements]] = volume(rep, basis)
    if face_form is not None:
        start, nf = rep.n_elements, len(rep.iface_elems)
        for b, a, eb, blk in _face_term_blocks(rep, basis, *face_form):
            if a == b:
                np.add.at(rep_data, slot[eb], blk)
            else:
                rep_data[slot[start + b * nf : start + (b + 1) * nf]] = blk
    table = np.full((rep.n_elements, rep.n_elements), -1)
    table[rep_rows, rep_cols] = np.arange(rep_rows.size)

    cells, kind = mesh.element_cells()
    rep_elem = rep.cell_flat_index(cells + shift) * 6 + kind
    same = np.all(mesh.cell_flat_index(mesh.cell_index(mesh.centroids)) == np.arange(ne) // 6)
    for ours, theirs in ((mesh.det_jacobians, rep.det_jacobians), (mesh.jac_invs, rep.jac_invs)):
        ours, theirs = ours.reshape(ne, -1), theirs[rep_elem].reshape(ne, -1)
        same &= np.all(np.abs(ours - theirs).max(axis=1) <= 1e-12 * np.abs(theirs).max(axis=1))
    rows, cols, _ = _block_pattern(mesh)
    col_cells = cells[cols] + shift[rows]
    inside = np.all((col_cells >= 0) & (col_cells < rep.n), axis=1)
    rep_col = rep.cell_flat_index(np.where(inside[:, None], col_cells, 0)) * 6 + kind[cols]
    slots = np.where(inside, table[rep_elem[rows], rep_col], -1)
    if not same or np.any(slots < 0):
        raise AssemblyError("mesh is not a Kuhn box grid from build_box_mesh; cannot assemble")

    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=ne))])
    mat = sp.bsr_matrix((rep_data[slots], cols, indptr), shape=(ne * nb, ne * nb))
    return SparseSystem(matrix=mat, block_size=nb, symmetric=symmetric)


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


def assemble_jump_penalty(mesh, basis, weight):
    """Jump bilinear form weight * sum_faces (jump u, jump v), boundary included."""
    return _blocked_system(mesh, basis, face_form=(0.0, 0.0, weight))


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
