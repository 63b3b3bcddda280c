"""Interior penalty DG assembly: stiffness, mass, and boundary lifting.

Degrees of freedom are blocked per element (block size = dim of the local
polynomial space); ``dof = element * block_size + local_index``.  Every
operator is a BSR matrix on one block pattern: per element its diagonal
block and one block per interior face.  The jump penalty scales with the
smallest grid pitch ``mesh.grid_spacing``, which matches the quasi-uniform
grids built here.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import basis as _basis

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
    """BSR operator over element-blocked DoFs, one (nb, nb) block per element pair."""

    matrix: sp.bsr_matrix
    block_size: int
    symmetric: bool = False

    @property
    def ndof(self):
        return self.matrix.shape[0]

    @property
    def n_blocks(self):
        return self.ndof // self.block_size

    def export_matrix_market(self, path):
        from scipy.io import mmwrite

        mmwrite(str(path), self.matrix)


# faces per batch of the face loop; bounds the trace arrays, not the result
_FACE_CHUNK = 16384


def _volume_grad_gram(mesh, basis):
    """Element blocks (ne, nb, nb) of the broken gradient term, sum_E (grad u, grad v)_E."""
    rule = _basis.tet_quadrature(2 * basis.degree)
    g = basis.grad(rule.points)  # (q, nb, 3)
    # S[m, n, i, j] = sum_q w_q dphi_i/dxi_m dphi_j/dxi_n
    S = np.einsum("q,qim,qjn->mnij", rule.weights, g, g)
    jinv = mesh.jac_invs
    C = np.einsum("emd,end->emn", jinv, jinv)
    return np.einsum("emn,mnij->eij", C, S) * mesh.det_jacobians[:, None, None]


def _face_traces(mesh, basis, exactness, boundary=False, sel=slice(None)):
    """Basis traces on the selected interior (or boundary) faces.

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
    rule = _basis.tri_quadrature(exactness)
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

    Yields (faces, b, a, elements, blk) per face chunk and pair of sides:
    blk (f, nb, nb) couples test functions of side b, on ``elements``, with
    trial functions of side a.  Interior faces have sides 0 and 1 (first and
    second element), boundary faces side 0 only.
      - consistency  -consistency ({grad u}.n) [v]
      - symmetrizing +epsilon ({grad v}.n) [u]
      - penalty      +penalty [u][v]
    Boundary faces use one-sided traces.
    """
    exactness = 2 * basis.degree + 1
    for boundary, signs, factors, nf in (
        (False, (1.0, -1.0), (0.5, 0.5), mesh.iface_elems.shape[0]),
        (True, (1.0,), (1.0,), mesh.bface_elem.shape[0]),
    ):
        for start in range(0, nf, _FACE_CHUNK):
            sl = slice(start, min(start + _FACE_CHUNK, nf))
            _, w, sides = _face_traces(mesh, basis, exactness, boundary, sl)
            weighted = [(w[:, :, None] * V).transpose(0, 2, 1) for _, V, _ in sides]
            weighted_n = [(w[:, :, None] * Gn).transpose(0, 2, 1) for _, _, Gn in sides]
            for b, (eb, _, _) in enumerate(sides):
                for a, (_, Va, Gna) in enumerate(sides):
                    blk = (-consistency * signs[b] * factors[a]) * (weighted[b] @ Gna)
                    blk += (epsilon * signs[a] * factors[b]) * (weighted_n[b] @ Va)
                    blk += (penalty * signs[a] * signs[b]) * (weighted[b] @ Va)
                    yield sl, b, a, eb, blk


def _blocked_system(mesh, basis, volume, face_form=None, symmetric=True):
    """SparseSystem of diagonal ``volume`` blocks plus the face part of a form.

    ``volume`` is (ne, nb, nb) or 0.0; ``face_form`` is (consistency,
    epsilon, penalty) of ``_face_term_blocks`` or None.  Block row e holds the diagonal block and one block per interior
    face of e, columns sorted; ``slot[j]`` is the data position of pair j of
    [(e, e) per element, (e0, e1) per interior face, (e1, e0) per interior
    face].  Diagonal blocks collect several faces and are summed with
    ``np.add.at``; each interior face owns its two off-diagonal blocks.
    """
    ne, nf, nb = mesh.n_elements, mesh.iface_elems.shape[0], basis.dim
    e, (e0, e1) = np.arange(ne), mesh.iface_elems.T
    rows, cols = np.concatenate([e, e0, e1]), np.concatenate([e, e1, e0])
    order = np.lexsort((cols, rows))
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    data = np.zeros((order.size, nb, nb))
    data[slot[:ne]] = volume
    if face_form is not None:
        for faces, b, a, eb, blk in _face_term_blocks(mesh, basis, *face_form):
            if a == b:
                np.add.at(data, slot[eb], blk)
            else:
                data[slot[ne + b * nf + np.arange(faces.start, faces.stop)]] = blk
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=ne))])
    mat = sp.bsr_matrix((data, cols[order], indptr), shape=(ne * nb, ne * nb))
    return SparseSystem(matrix=mat, block_size=nb, symmetric=symmetric)


def assemble_stiffness(mesh, spec, basis):
    """Assemble the penalized broken Laplacian for the given parameters."""
    if basis.degree != spec.k:
        raise ValueError("basis degree and spec.k disagree")
    penalty = spec.sigma / mesh.grid_spacing ** spec.beta
    return _blocked_system(
        mesh, basis, _volume_grad_gram(mesh, basis), (1.0, spec.epsilon, penalty),
        symmetric=(spec.epsilon == -1),
    )


def reference_mass(basis):
    """Mass matrix on the reference tetrahedron."""
    rule = _basis.tet_quadrature(2 * basis.degree)
    vals = basis.eval(rule.points)
    return np.einsum("q,qi,qj->ij", rule.weights, vals, vals)


def assemble_mass(mesh, basis):
    """Broken mass matrix: det J times the reference block; face blocks stay zero."""
    blocks = reference_mass(basis)[None, :, :] * mesh.det_jacobians[:, None, None]
    return _blocked_system(mesh, basis, blocks)


def assemble_jump_penalty(mesh, basis, weight):
    """Jump bilinear form weight * sum_faces (jump u, jump v), boundary included."""
    return _blocked_system(mesh, basis, 0.0, (0.0, 0.0, weight))


def assemble_dg_norm_gram(mesh, basis, sigma):
    """Gram matrix of the broken energy norm: v^T G v = ||v||_DG^2."""
    return _blocked_system(
        mesh, basis, _volume_grad_gram(mesh, basis), (0.0, 0.0, sigma / mesh.grid_spacing)
    )


def assemble_dirichlet_rhs(mesh, spec, basis, g, exactness=None):
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
    if exactness is None:
        exactness = 2 * basis.degree + 2
    penalty = spec.sigma / mesh.grid_spacing ** spec.beta
    x, w, [(e, V, Gn)] = _face_traces(mesh, basis, exactness, boundary=True)
    wg = w * np.asarray(g(x.reshape(-1, 3)), dtype=float).reshape(w.shape)
    contrib = spec.epsilon * np.einsum("fq,fqi->fi", wg, Gn)
    contrib += penalty * np.einsum("fq,fqi->fi", wg, V)
    np.add.at(b.reshape(mesh.n_elements, nb), e, contrib)
    return b


def assemble_volume_rhs(mesh, basis, F, exactness=None):
    """Volume load vector (F, phi_i) for a callable F over points (n, 3)."""
    if exactness is None:
        exactness = 2 * basis.degree + 2
    rule = _basis.tet_quadrature(exactness)
    vals = basis.eval(rule.points)  # (q, nb)
    phys = _basis.map_to_physical(mesh.tet_coords(), rule.points)  # (nt, q, 3)
    Fv = np.asarray(F(phys.reshape(-1, 3)), dtype=float).reshape(mesh.n_elements, rule.n)
    contrib = np.einsum("q,eq,qi->ei", rule.weights, Fv, vals) * mesh.det_jacobians[:, None]
    return contrib.ravel()
