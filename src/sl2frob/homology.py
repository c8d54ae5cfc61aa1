"""Hom/End engine: intertwiners, simplicity tests, splitting, projectives, centers.

A full Hom space is solved from a presentation of its source M (Lux and
Szoke, Exp. Math. 12 (2003)): Hom(U v, N) = {n in N : ann(v) n = 0}, summed
over generators v.  Standard basis vectors, taken greedily in descending
degree, are spun to a basis S of M; the unknowns are the generators' images
and each relation G S_b = S A_b off the spin tree is one equation.  The level
actions are graded, so the system splits into one small kernel per degree,
and each degree's maps are re-normalised to the basis the entry-wise solver
gives.  One degree (`degree=d`) is solved entry-wise: the unknowns of a
degree-delta intertwiner are the entries X[i, j] with
deg N_i = deg M_j + delta, and its equations are the degree-matched entries
of G_N X - X G_M.  A failed self-check of the solver raises
`InvariantError`; a full unblocked Kronecker-product solve is kept as an
oracle for tests.

A full space is first tested for zero.  An intertwiner phi: M -> N has
phi W_M = W_N phi for every word W in the level actions, so where
W_M = diag(m) and W_N = diag(n), (n_a - m_b) phi[a, b] = 0.  If the words
H_j = [E_j, F_j] and C_j = 4 F_j E_j + H_j^2 + 2 H_j (j < cap) that are
diagonal on both leave no entry free, Hom(M, N) = 0, with no hypothesis on
the grading or the central character.

Splitting into indecomposables uses degree-0 endomorphisms only.  Every
natural decomposition here exists in the graded category, all endomorphism
rings split over the base field, so generalized eigenspaces of a degree-0
endomorphism are graded and an eigenvalue scan over the (small) field splits
any decomposable node; leaves are certified by a simple head.

Coordinates in a basis and growing spans (a Hom space's `span`, the spin
closure, the center, the adjoint action on Hom spaces) go through
`exactfield.Basis`.

Within one `cli.run_command` call (see `memo`) Hom spaces, the level-one
projective covers, the extended projectives and the generic-seed
certificate are each computed once per distinct input.  A Hom space is keyed
by the content digests of its two modules and its degree, and a stored space
is returned only if its source and target equal the arguments entry for
entry, so a digest collision cannot return a wrong space; a presentation and
the word diagonals are keyed and guarded the same way by their module.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .exactfield import Basis, FieldCtx, FieldElement, Matrix, vecs, unvec
from . import memo, repcore
from .repcore import ModuleRep


class Inconclusive(Exception):
    """Raised when a certification routine cannot certify (never guesses)."""


class NonGenericSeed(ValueError):
    """Raised when a weight seed fails the genericity certificate."""


class InvariantError(Exception):
    """Raised when a solver's self-check fails: a fault of the program, not of its input."""


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

class HomSpace:
    """Basis of intertwiners M -> N, each a dim(N) x dim(M) matrix.

    Basis elements are graded (each shifts the grading by a fixed degree),
    ordered by degree and normalized by the deterministic RREF of the
    solver, so the basis is reproducible.  Basis and degrees are tuples: a
    memoised space is shared by every caller of its call scope.  `span` is
    the `Basis` of the vectorized basis maps, built on first use; callers
    read coordinates from it and never grow it.
    """

    def __init__(self, source: ModuleRep, target: ModuleRep,
                 basis: list[Matrix], degrees: list[int]):
        self.source = source
        self.target = target
        self.basis = tuple(basis)
        self.degrees = tuple(degrees)
        self._span = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def shape(self) -> tuple[int, int]:
        """The shape (dim N, dim M) of every map M -> N."""
        return (self.target.dim, self.source.dim)

    @property
    def span(self) -> Basis:
        if self._span is None:
            self._span = Basis(vecs(self.source.ctx, self.shape, self.basis))
        return self._span

    def element(self, coeffs: Matrix) -> Matrix:
        """The map sum_i coeffs[i] * basis[i]."""
        return unvec(self.span.B @ coeffs, *self.shape)


def _blocked_hom_basis(M: ModuleRep, N: ModuleRep, delta: int) -> list[Matrix]:
    """Intertwiners M -> N of graded degree delta, the kernel of X -> G_N X - X G_M.

    The unknowns are the entries X[i, j] with deg N_i = deg M_j + delta,
    ordered by (deg M_j, j, i).  For a level action G of shift s the
    equations are the entries (a, b) with deg N_a = deg M_b + delta + s;
    unknown (i, j) enters row (a, j) with G_N[a, i] and row (i, b) with
    -G_M[j, b].  The two writes never meet a cell twice because s != 0.
    """
    ctx, p = M.ctx, M.ctx.p
    gM, gN = M.grading, N.grading
    I, J = np.nonzero(gN[:, None] == gM[None, :] + delta)
    if not I.size:
        return []
    order = np.lexsort((I, J, gM[J]))
    I, J = I[order], J[order]
    systems = []
    for j in range(M.cap):
        for GM, GN, shift in ((M.E[j], N.E[j], 2 * p**j), (M.F[j], N.F[j], -2 * p**j)):
            matched = gN[:, None] == gM[None, :] + delta + shift
            row_of = np.full(matched.shape, -1)
            row_of[matched] = np.arange(np.count_nonzero(matched))
            a, u = np.nonzero(GN.arr[:, I].any(axis=-1))    # G_N[a, I_u] != 0
            v, b = np.nonzero(GM.arr[J].any(axis=-1))       # G_M[J_v, b] != 0
            rows_N, rows_M = row_of[a, J[u]], row_of[I[v], b]
            if (rows_N < 0).any() or (rows_M < 0).any():
                raise ValueError(f"level-{j} action of {M.provenance!r} or {N.provenance!r} "
                                 "does not respect the grading")
            eqs = np.zeros((np.count_nonzero(matched), I.size, ctx.k), dtype=np.int64)
            eqs[rows_N, u] += GN.arr[a, I[u]]
            eqs[rows_M, v] -= GM.arr[J[v], b]
            systems.append(eqs[eqs.any(axis=(1, 2))])
    ker = Matrix(ctx, np.concatenate(systems)).kernel()
    out = np.zeros((ker.cols, N.dim, M.dim, ctx.k), dtype=np.int64)
    out[:, I, J] = ker.arr.transpose(1, 0, 2)
    return [Matrix(ctx, phi) for phi in out]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Presentation(NamedTuple):
    """M spun from standard basis vectors, with the relations of the spin.

    Column k of the spun basis S is either a generator (a standard basis
    vector) or G_op[k] S[:, parent[k]]; these tree edges make S.  Every other
    pair (column b, level action G) is a non-tree edge: its relation
    G S[:, b] = S A[:, b], A = S^-1 G S, is kept as the nonzero coordinates
    (rel_l, rel_e, rel_coef) of A[:, b] for edge e = (edge_b[e], edge_op[e]).
    `steps` pushes a value down the tree: (op, parents, kids) per depth.
    """
    module: ModuleRep
    gens: np.ndarray        # column of each generator
    root: np.ndarray        # generator ordinal of each column
    degree: np.ndarray      # degree of each column
    steps: tuple
    S_inv: Matrix
    edge_b: np.ndarray
    edge_op: np.ndarray
    rel_l: np.ndarray
    rel_e: np.ndarray
    rel_coef: np.ndarray


@memo.memoised(key=lambda M: M.content_digest(),
               matches=lambda P, M: P.module.same_content(M))
def _presentation(M: ModuleRep) -> _Presentation:
    """Generators of M taken greedily among standard basis vectors, in descending degree.

    Each generator not yet in the span is spun level by level through one
    `Basis`; each vector it takes in is recorded with its parent and level action.
    """
    ctx, n = M.ctx, M.dim
    ops = M.E + M.F
    stacked = np.stack([G.arr for G in ops])
    unit = Matrix.identity(ctx, n)
    span = Basis(Matrix.zeros(ctx, n, 0))
    gens, tree = [], []     # (parent column, level action) of each column of S
    for i in np.argsort(-M.grading, kind="stable"):
        if span.B.cols == n:
            break
        if span.add(unit.take_cols([i])):
            gens.append(span.B.cols - 1)
            tree += [(-1, -1)] + _spin_into(span, stacked, gens[-1])
    S = span.B
    if S.cols != n:
        raise InvariantError(f"presentation of {M.provenance!r}: the generators spin "
                             f"dimension {S.cols} of {n}")
    parent, op = np.array(tree).T
    root, depth = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    root[gens] = np.arange(len(gens))
    for k in np.flatnonzero(parent >= 0):      # a parent precedes its children
        root[k], depth[k] = root[parent[k]], depth[parent[k]] + 1
    degree = M.grading[np.argmax(S.arr.any(axis=-1), axis=0)]      # of each column's first entry
    S_inv = span.coordinates(Matrix.identity(ctx, n))
    on_tree = np.zeros((len(ops), n), dtype=bool)
    on_tree[op[op >= 0], parent[op >= 0]] = True
    edge_op, edge_b = np.nonzero(~on_tree)
    A = ctx.arr_matmul(S_inv.arr, ctx.arr_matmul(stacked, S.arr))    # A[g] = S^-1 G S
    cols = A[edge_op, :, edge_b]                               # (edge, l) = A[edge_op][l, edge_b]
    rel_e, rel_l = np.nonzero(cols.any(axis=-1))
    steps = tuple((g, _frozen(parent[kids]), _frozen(kids))
                  for d in range(1, int(depth.max()) + 1) for g in range(len(ops))
                  if (kids := np.flatnonzero((depth == d) & (op == g))).size)
    return _Presentation(M, _frozen(np.array(gens)), _frozen(root), _frozen(degree), steps,
                         S_inv, _frozen(edge_b), _frozen(edge_op), _frozen(rel_l), _frozen(rel_e),
                         _frozen(cols[rel_e, rel_l]))


@memo.memoised(key=lambda M: M.content_digest(), matches=lambda D, M: D[0].same_content(M))
def _word_diagonals(M: ModuleRep) -> tuple:
    """(M, D, diagonal): row w of D holds, as element indices, the diagonal of
    the w-th word of H_0, C_0, H_1, C_1, ..., valid where diagonal[w]."""
    ctx, n = M.ctx, M.dim
    E, F = (np.stack([G.arr for G in Gs]) for Gs in (M.E, M.F))
    FE = ctx.arr_matmul(F, E)
    H = (ctx.arr_matmul(E, F) - FE) % ctx.p
    C = (4 * FE + ctx.arr_matmul(H, H) + 2 * H) % ctx.p
    W = np.stack([H, C], axis=1).reshape(2 * M.cap, n, n, ctx.k)
    diag = np.eye(n, dtype=bool)
    return M, _frozen(ctx.arr_index(W[:, diag])), _frozen(~W[:, ~diag].any(axis=(1, 2)))


def _word_mask(M: ModuleRep, N: ModuleRep) -> np.ndarray:
    """The entries (a, b) that no word diagonal forces to zero in an intertwiner M -> N."""
    _, DM, diagonal_M = _word_diagonals(M)
    _, DN, diagonal_N = _word_diagonals(N)
    both = diagonal_M & diagonal_N
    return (DN[both][:, :, None] == DM[both][:, None, :]).all(axis=0)


def _check_graded(M: ModuleRep, N: ModuleRep):
    """Raise ValueError unless each level action of M and N shifts the grading by its degree."""
    for mod in (M, N):
        j = repcore.ungraded_level(mod)
        if j is not None:
            raise ValueError(f"level-{j} action of {M.provenance!r} or {N.provenance!r} "
                             "does not respect the grading")


_CHUNK = 1 << 16     # residual entries built at once


def _presented_hom_basis(M: ModuleRep, N: ModuleRep) -> tuple[list[Matrix], list[int]]:
    """Every graded intertwiner M -> N, from the presentation of M.

    The unknowns are the images n_t of the generators.  phi(S[:, k]) is
    W[k] n_root(k), W[k] the word of the tree path to k acting on N, and each
    non-tree edge (b, G) gives G W[b] n_root(b) - sum_l A[l, b] W[l] n_root(l)
    = 0.  Row a of that equation only meets unknowns (t, i) of degree
    deg N_a - deg S_b - shift(G) = deg N_i - deg S_t, so the system splits
    into one small kernel per degree.  Then phi = Phi S^-1, and each degree's
    maps are re-normalised to the RREF kernel basis of `_blocked_hom_basis`.
    """
    P = _presentation(M)
    ctx, n, dN, s = M.ctx, M.dim, N.dim, P.gens.size
    opsN = N.E + N.F
    G = np.stack([m.arr for m in opsN])
    gN = N.grading
    W = np.zeros((n, dN, dN, ctx.k), dtype=np.int64)
    W[P.gens[:, None], np.arange(dN), np.arange(dN), 0] = 1
    for g, parents, kids in P.steps:
        W[kids] = ctx.arr_matmul(G[g], W[parents])

    # unknown (t, i) = entry i of n_t, ordered by degree
    col_deg = (gN[None, :] - P.degree[P.gens][:, None]).reshape(-1)
    col_order = np.argsort(col_deg, kind="stable")
    degs, lo, width = np.unique(col_deg[col_order], return_index=True, return_counts=True)
    pad = np.arange(int(width.max()))

    eqs, row_deg = [], []
    per_chunk = max(1, _CHUNK // (s * dN * dN))
    levels = 2 * ctx.p ** np.arange(N.cap)
    shift = np.concatenate([levels, -levels])[P.edge_op]     # degree shift of each edge's action
    for e0 in range(0, P.edge_b.size, per_chunk):
        e1 = min(e0 + per_chunk, P.edge_b.size)
        b = P.edge_b[e0:e1]
        res = np.zeros((e1 - e0, s, dN, dN, ctx.k), dtype=np.int64)
        res[np.arange(e1 - e0), P.root[b]] = ctx.arr_matmul(G[P.edge_op[e0:e1]], W[b])
        z = (P.rel_e >= e0) & (P.rel_e < e1)
        l = P.rel_l[z]
        np.subtract.at(res, (P.rel_e[z] - e0, P.root[l]),
                       ctx.arr_mul(W[l], P.rel_coef[z][:, None, None]))
        res %= ctx.p
        # row (e, a) of degree gN[a] - deg S_b - shift, gathered on that degree's columns
        e, a = np.divmod(np.arange((e1 - e0) * dN), dN)
        rdeg = gN[a] - P.degree[b][e] - shift[e0:e1][e]
        at = np.minimum(np.searchsorted(degs, rdeg), degs.size - 1)
        keep = degs[at] == rdeg
        e, a, at = e[keep], a[keep], at[keep]
        col = col_order[np.minimum(lo[at][:, None] + pad, col_deg.size - 1)]
        vals = res[e[:, None], col // dN, a[:, None], col % dN]
        vals[pad[None, :] >= width[at][:, None]] = 0
        nonzero = vals.any(axis=(1, 2))
        eqs.append(vals[nonzero])
        row_deg.append(at[nonzero])
    eqs, row_deg = np.concatenate(eqs), np.concatenate(row_deg)
    by_deg = np.argsort(row_deg, kind="stable")
    row_lo = np.searchsorted(row_deg[by_deg], np.arange(degs.size + 1))

    basis, degrees = [], []
    for x, delta in enumerate(degs):
        u = int(width[x])
        K = Matrix(ctx, eqs[by_deg[row_lo[x]:row_lo[x + 1]], :u]).kernel()
        h = K.cols
        if not h:
            continue
        c = col_order[lo[x]:lo[x] + u]
        Y = np.zeros((h, s, dN, ctx.k), dtype=np.int64)
        Y[:, c // dN, c % dN] = K.arr.transpose(1, 0, 2)
        Phi = ctx.arr_matmul(W[None], Y[:, P.root, :, None])[..., 0, :]   # (h, k, a)
        phi = ctx.arr_matmul(Phi.transpose(0, 2, 1, 3), P.S_inv.arr)
        basis.append(_renormalised(M, N, int(delta), phi))
        degrees.extend([int(delta)] * h)
    if not basis:
        return [], []
    maps = np.concatenate(basis)
    for g, (GM, GN) in enumerate(zip(M.E + M.F, opsN)):
        if ((ctx.arr_matmul(GN.arr, maps) - ctx.arr_matmul(maps, GM.arr)) % ctx.p).any():
            raise InvariantError(f"Hom({M.provenance!r}, {N.provenance!r}): a solved map "
                                 f"does not intertwine level action {g}")
    return [Matrix(ctx, phi) for phi in maps], degrees


def _renormalised(M: ModuleRep, N: ModuleRep, delta: int, phi: np.ndarray) -> np.ndarray:
    """The RREF kernel basis `_blocked_hom_basis` gives for the span of the maps phi.

    Its coordinate vectors, in the unknown order (deg M_j, j, i), are the
    unique basis in reduced echelon form read from the last coordinate, so
    one RREF of the reversed coordinates of any basis of the span gives it.
    """
    ctx, gM, gN = M.ctx, M.grading, N.grading
    matched = gN[:, None] == gM[None, :] + delta
    if phi[:, ~matched].any():
        raise InvariantError(f"Hom({M.provenance!r}, {N.provenance!r}) degree {delta}: "
                             "a map has an entry off the degree-matched positions")
    I, J = np.nonzero(matched)
    order = np.lexsort((I, J, gM[J]))
    I, J = I[order], J[order]
    R, pivots = Matrix(ctx, phi[:, I, J][:, ::-1]).rref()
    h = phi.shape[0]
    if len(pivots) < h:
        raise InvariantError(f"Hom({M.provenance!r}, {N.provenance!r}) degree {delta}: "
                             f"{h} solved maps span only {len(pivots)} dimensions")
    out = np.zeros(phi.shape, dtype=np.int64)
    out[:, I, J] = R.arr[h - 1::-1, ::-1]
    return out


@memo.memoised(
    key=lambda M, N, degree: (M.content_digest(), N.content_digest(), degree),
    matches=lambda H, M, N, degree: H.source.same_content(M) and H.target.same_content(N))
def hom_space(M: ModuleRep, N: ModuleRep, degree: int | None = None) -> HomSpace:
    """All intertwiners M -> N (or only those of one graded degree).

    The full space is zero when the word diagonals leave no entry free, and
    otherwise solved from the presentation of M; one degree is solved
    entry-wise by `_blocked_hom_basis`.
    """
    if M.ctx != N.ctx:
        raise ValueError("mixed field contexts")
    if M.cap != N.cap:
        raise ValueError("level caps differ")
    if degree is not None:
        basis = _blocked_hom_basis(M, N, degree)
        return HomSpace(M, N, basis, [degree] * len(basis))
    _check_graded(M, N)
    if not _word_mask(M, N).any():
        return HomSpace(M, N, [], [])
    return HomSpace(M, N, *_presented_hom_basis(M, N))


def hom_space_unblocked(M: ModuleRep, N: ModuleRep) -> list[Matrix]:
    """Oracle: the same space solved as one dense system, ignoring the grading."""
    ctx = M.ctx
    rows = []
    In = Matrix.identity(ctx, N.dim)
    Im = Matrix.identity(ctx, M.dim)
    for j in range(M.cap):
        for GM, GN in ((M.E[j], N.E[j]), (M.F[j], N.F[j])):
            rows.append(GM.transpose().kron(In) - Im.kron(GN))
    ker = Matrix.vstack(rows).kernel()
    return [unvec(Matrix(ctx, ker.arr[:, t:t + 1]), N.dim, M.dim)
            for t in range(ker.cols)]


def is_isomorphic(M: ModuleRep, N: ModuleRep, seed: int = 0) -> Matrix | None:
    """An invertible intertwiner M -> N, or None.

    For modules with local endomorphism rings an isomorphism, if one exists,
    is found among basis elements (a basis cannot lie entirely inside the
    proper subspace of non-isomorphisms); random combinations are a fallback.
    """
    if M.dim != N.dim:
        return None
    H = hom_space(M, N)
    for b in H.basis:
        if b.rank() == M.dim:
            return b
    rng = np.random.default_rng(seed)
    for _ in range(20):
        c = Matrix(M.ctx, rng.integers(0, M.ctx.p, size=(H.dim, 1, M.ctx.k)))
        cand = H.element(c)
        if cand.rank() == M.dim:
            return cand
    return None


# ---------------------------------------------------------------------------
# spin / simplicity
# ---------------------------------------------------------------------------

def _spin_into(span: Basis, ops: np.ndarray, start: int) -> list[tuple[int, int]]:
    """Grow span from its column `start` until it is closed under the stacked actions ops.

    Level by level, each image G_g u of a new vector u joins span unless it
    lies in it.  Returns (column of u, g) for each column added, in order.
    """
    ctx = span.B.ctx
    added, frontier = [], [start]
    while frontier:
        grown = []
        for u in frontier:
            for g, image in enumerate(ctx.arr_matmul(ops, span.B.arr[:, u:u + 1])):
                if span.add(Matrix(ctx, image)):
                    grown.append(span.B.cols - 1)
                    added.append((u, g))
        frontier = grown
    return added


def spin(M: ModuleRep, v: Matrix) -> Matrix:
    """RREF column basis of the submodule generated by v (closed under every E_j, F_j)."""
    if v.is_zero():
        raise ValueError("cannot spin the zero vector")
    span = Basis(v)
    _spin_into(span, np.stack([G.arr for G in M.E + M.F]), 0)
    return span.R.transpose()


def _graded_joint_kernel(mats: list[Matrix], grading: np.ndarray) -> dict[int, Matrix]:
    """Per-weight bases of the joint kernel of graded operators."""
    ctx = mats[0].ctx
    out = {}
    for w in sorted(set(int(x) for x in grading)):
        idx = np.nonzero(grading == w)[0]
        stacked = Matrix.vstack([m.take_cols(idx) for m in mats])
        ker = stacked.kernel()
        if ker.cols:
            emb = np.zeros((grading.shape[0], ker.cols, ctx.k), dtype=np.int64)
            emb[idx] = ker.arr
            out[w] = Matrix(ctx, emb)
    return out


def is_simple(M: ModuleRep) -> bool | str:
    """Spin-based simplicity certificate; returns True, False or 'inconclusive'.

    J = the joint kernel of all E_j is graded; M is simple iff every nonzero
    vector of J generates M.  Components of J are enumerated per degree:
    dimension 1 needs one spin, dimension 2 over a field of size <= 25 is
    enumerated projectively, anything larger blocks a True verdict.  A
    proper spin is always a sound False.  A True verdict additionally
    requires the degrees of J to be separated (a single degree, or degree
    span below 2p^cap, which rules out mixed-degree kernel vectors hiding
    in a proper submodule); otherwise the verdict is 'inconclusive'.
    """
    ctx = M.ctx
    if M.dim == 0:
        return False
    J = _graded_joint_kernel(M.E, M.grading)
    if not J:
        return "inconclusive"
    untestable = False
    for _, basis in J.items():
        m = basis.cols
        if m == 1:
            seeds = [basis]
        elif m == 2 and ctx.q <= 25:
            seeds = [basis.take_cols([1])]
            b0, b1 = basis.take_cols([0]), basis.take_cols([1])
            for t in ctx.elements():
                seeds.append(b0 + b1.scale(t))
        else:
            untestable = True
            continue
        for s in seeds:
            if spin(M, s).cols < M.dim:
                return False
    if untestable:
        return "inconclusive"
    degs = sorted(J)
    if len(degs) > 1 and degs[-1] - degs[0] >= 2 * ctx.p**M.cap:
        return "inconclusive"
    return True


# ---------------------------------------------------------------------------
# radical / head
# ---------------------------------------------------------------------------

def radical_and_head(M: ModuleRep, simples: list[tuple[object, ModuleRep]]):
    """(radical basis, head multiplicities) against a complete simple list."""
    ctx = M.ctx
    mults: dict = {}
    maps: list[Matrix] = []
    for label, L in simples:
        H = hom_space(M, L)
        endL = hom_space(L, L)
        if H.dim % endL.dim:
            raise ValueError("hom dimension not divisible by End(L)")
        if H.dim:
            mults[label] = H.dim // endL.dim
            maps.extend(H.basis)
    if not maps:
        # no homs to any simple on the list: the whole module is radical
        return Matrix.identity(ctx, M.dim), mults
    per_w = _graded_joint_kernel(maps, M.grading)
    cols = [b for _, b in sorted(per_w.items())]
    rad = Matrix.hstack(cols) if cols else Matrix.zeros(ctx, M.dim, 0)
    return rad, mults


def head_is_simple(M: ModuleRep, simples) -> bool:
    _, mults = radical_and_head(M, simples)
    return sum(mults.values()) == 1


# ---------------------------------------------------------------------------
# splitting into indecomposables
# ---------------------------------------------------------------------------

class SummandDecomposition:
    """A module written as a direct sum: the inclusions of its indecomposable summands."""

    def __init__(self, module: ModuleRep):
        self.module = module
        self.inclusions: list[Matrix] = []
        self.summands: list[ModuleRep] = []

    def add(self, incl: Matrix, summand: ModuleRep):
        self.inclusions.append(incl)
        self.summands.append(summand)

    def finalize(self):
        """Check that the summands are independent and fill the module.

        Then the combined inclusion matrix is invertible, so its inverse's row
        blocks are projections that are idempotent and sum to the identity.
        """
        name = self.module.provenance
        try:
            Basis(Matrix.hstack(self.inclusions))
        except ValueError as e:
            raise ValueError(f"summands of {name!r} overlap: {e}") from None
        filled = sum(incl.cols for incl in self.inclusions)
        if filled != self.module.dim:
            raise ValueError(f"summands of {name!r} fill dimension {filled} "
                             f"of {self.module.dim}")


def _eigen_split(M: ModuleRep, phi: Matrix) -> list[Matrix] | None:
    """Graded generalized-eigenspace decomposition of a degree-0 endomorphism.

    Returns per-piece homogeneous column bases if there are at least two
    pieces, else None.  All endomorphism rings in this workbench split over
    the base field, so scanning field elements finds every eigenvalue; the
    scan stops once the pieces found fill M.
    """
    ctx = M.ctx
    n = M.dim
    power = 1
    while power < n:
        power *= 2
    pieces = []
    covered = 0
    prod = None
    for lam in ctx.elements():
        shifted = phi - Matrix.scalar(ctx, n, lam)
        if shifted.rank() == n:
            continue
        nil = shifted.pow_int(power)
        per_w = _graded_joint_kernel([nil], M.grading)
        cols = [b for _, b in sorted(per_w.items())]
        if cols:
            pieces.append(Matrix.hstack(cols))
            covered += pieces[-1].cols
            if covered == n:
                break       # the pieces fill M: no later lam is an eigenvalue
            prod = nil if prod is None else prod @ nil
    if covered < n and prod is not None:
        # complement: image of the product of all found nilpotent powers
        per_w_img = {}
        for w, idx in M.weight_indices().items():
            blk = prod.take_cols(idx)
            R, piv = blk.transpose().rref()
            if piv:
                img = Matrix(ctx, R.arr[:len(piv)]).transpose()
                per_w_img[w] = img
        cols = [b for _, b in sorted(per_w_img.items())]
        if cols:
            pieces.append(Matrix.hstack(cols))
            covered += pieces[-1].cols
    if covered != n or len(pieces) < 2:
        return None
    return pieces


SPLIT_TRIES = 12   # random candidates per node before it is certified as a leaf


def _restrict_stack(stack: list[Matrix], pieces: list[Matrix]) -> list[list[Matrix]]:
    """Each piece's stack: the diagonal blocks of C^-1 W C, C = [pieces], per W.

    The pieces are the graded summands of one split, so C is invertible and
    a block is the restriction pi_i W iota_i of W to piece i.  Each W's
    coordinates are taken on their own and only copies of the blocks kept.
    """
    C = Matrix.hstack(pieces)
    span = Basis(C)
    ends = np.cumsum([0] + [b.cols for b in pieces])
    out: list[list[Matrix]] = [[] for _ in pieces]
    for W in stack:
        X = span.coordinates(W @ C).arr
        for piece_stack, lo, hi in zip(out, ends, ends[1:]):
            # Matrix reduces into a new array, so no block keeps X alive
            piece_stack.append(Matrix(W.ctx, X[lo:hi, lo:hi]))
    return out


def split_indecomposables(M: ModuleRep, seed: int = 0, sampler=None,
                          simples=None) -> SummandDecomposition:
    """Recursive Fitting-style splitting along degree-0 endomorphisms.

    sampler may be an algebra whose weight-zero right multiplications span
    the degree-0 endomorphisms of M (a regular module): candidates are its
    `random_weight_zero_right_mult` draws over that stack, which each split
    restricts to the new pieces once.  Otherwise the degree-0 hom space is
    solved directly.  Leaves are certified by a simple head when a simple
    list is supplied; without one, exhaustion of the candidate
    endomorphisms is required.
    """
    rng = np.random.default_rng(seed)
    ctx = M.ctx
    dec = SummandDecomposition(M)

    def candidates(node, stack):
        if stack is not None:
            for _ in range(SPLIT_TRIES):
                yield sampler.random_weight_zero_right_mult(rng, stack)
        else:
            H = hom_space(node, node, degree=0)
            for b in H.basis:
                yield b
            for _ in range(SPLIT_TRIES):
                c = Matrix(ctx, rng.integers(0, ctx.p, size=(H.dim, 1, ctx.k)))
                yield H.element(c)

    def first_split(node, stack):
        # returning drops the candidate generator, and with it its hold on stack
        for phi in candidates(node, stack):
            pieces = _eigen_split(node, phi)
            if pieces is not None:
                return pieces
        return None

    def recurse(node: ModuleRep, incl: Matrix, stack):
        pieces = first_split(node, stack)
        if pieces is None:
            # no candidate split this node: certify it as a leaf
            if simples is not None and not head_is_simple(node, simples):
                raise Inconclusive(
                    f"summand of dim {node.dim} did not split but its head is not simple")
            dec.add(incl, node)
            return
        stacks = [None] * len(pieces) if stack is None else _restrict_stack(stack, pieces)
        del stack       # the pieces' restrictions replace it
        for basis in pieces:
            # popped, so a piece's stack is freed once that piece has split
            recurse(repcore.submodule(node, basis, provenance="summand"), incl @ basis,
                    stacks.pop(0))

    recurse(M, Matrix.identity(ctx, M.dim),
            None if sampler is None else sampler.weight_zero_right_mult_basis())
    # recurse refers to itself through its closure; emptying that cell lets
    # refcounting free the nodes it reached instead of the cyclic collector
    del recurse
    dec.finalize()
    return dec


# ---------------------------------------------------------------------------
# projective covers
# ---------------------------------------------------------------------------

@memo.memoised()
def regular_split_projectives(ctx: FieldCtx, seed: int = 0) -> Mapping[int, ModuleRep]:
    """P_i for u_0(sl2) (level cap 1) by splitting the left regular module.

    The mapping is read-only: it is shared by every caller of a memo scope.
    """
    from . import smallalg

    alg = smallalg.UChiAlgebra(ctx)
    reg = smallalg.regular_module(alg)
    simples = [(i, repcore.simple_restricted(ctx, i)) for i in range(ctx.p)]

    dec = split_indecomposables(reg, seed=seed, sampler=alg, simples=simples)
    out: dict[int, ModuleRep] = {}
    for inc, leaf in zip(dec.inclusions, dec.summands):
        _, mults = radical_and_head(leaf, simples)
        (label, m), = mults.items()
        if m != 1:
            raise Inconclusive("regular summand with non-simple head")
        if label not in out:
            out[label] = leaf
    if set(out) != set(range(ctx.p)):
        raise Inconclusive("regular module did not produce all projective covers")
    return MappingProxyType(out)


@memo.memoised()
def extended_projective(ctx: FieldCtx, i: int, seed: int = 0) -> ModuleRep:
    """P_i with its canonical level-1 action (cap 2), head in degree i.

    For i <= p-2 this is the indecomposable cap-2 summand of St (x) L_{p-1-i}
    containing the extreme weight 2p-2-i; for i = p-1 it is the Steinberg
    module itself.  The cap-2 endomorphisms of these tensor products agree
    with the full divided-power endomorphisms by the weight bound, so the
    split is canonical.
    """
    p = ctx.p
    if i == p - 1:
        return repcore.simple_restricted(ctx, p - 1, cap=2)
    St = repcore.simple_restricted(ctx, p - 1, cap=2)
    L = repcore.simple_restricted(ctx, p - 1 - i, cap=2)
    T = repcore.tensor(St, L)
    dec = split_indecomposables(T, seed=seed)
    top = 2 * p - 2 - i
    for leaf in dec.summands:
        if top in leaf.weights():
            if leaf.dim != 2 * p:
                raise Inconclusive(f"extended P_{i} has dim {leaf.dim}, expected {2*p}")
            leaf.provenance = f"P_{i}^ext"
            return leaf
    raise Inconclusive(f"no summand of St(x)L_{p-1-i} contains weight {top}")


def all_extended_projectives(ctx: FieldCtx, seed: int = 0) -> dict[int, ModuleRep]:
    return {i: extended_projective(ctx, i, seed=seed) for i in range(ctx.p)}


@memo.memoised()
def generic_verma_projectives(ctx: FieldCtx, d: FieldElement) -> Mapping[int, ModuleRep]:
    """For generic chi the baby Vermas Z_{d+c} are the projective covers.

    Certifies genericity per instance and raises NonGenericSeed otherwise:
    all p Vermas are simple, each has a one-line highest-weight space
    ker E_0 spanned by an h-eigenvector, and the p highest h-eigenvalues are
    distinct.  The mapping is read-only, like `regular_split_projectives`.
    """
    out = {}
    tops = set()
    for c in range(ctx.p):
        Z = repcore.baby_verma(ctx, d + ctx.el(c))
        if is_simple(Z) is not True:
            raise NonGenericSeed(f"non-generic seed: Z(d+{c}) is not simple")
        J = _graded_joint_kernel(Z.E, Z.grading)
        if sum(b.cols for b in J.values()) != 1:
            raise NonGenericSeed(f"non-generic seed: ker E_0 of Z(d+{c}) is not one line")
        (v,) = J.values()
        hv = Z.h_matrix() @ v
        i = int(np.flatnonzero(v.arr.any(axis=-1))[0])
        lam = hv.entry(i, 0) / v.entry(i, 0)
        if hv != v.scale(lam):
            raise NonGenericSeed(
                f"non-generic seed: Z(d+{c}) highest weight is not an h-eigenvector")
        # an isomorphism intertwines E_0 and F_0, so it preserves ker E_0 and
        # the h-eigenvalue on it: distinct eigenvalues mean non-isomorphic simples
        tops.add(lam)
        out[c] = Z
    if len(tops) != ctx.p:
        raise NonGenericSeed("non-generic seed: Vermas are not pairwise distinct")
    return MappingProxyType(out)


def projective_covers(ctx: FieldCtx, r: int, d: FieldElement | None = None,
                      seed: int = 0) -> dict[tuple, ModuleRep]:
    """Labeled indecomposable projectives of the level-r reduction.

    chi = 0 when d is None.  Labels are digit tuples (k_0, ..., k_{r-1});
    for generic characters the top digit indexes the Verma Z_{d+c}.  At
    r = 1 the zero-character covers come from splitting the regular module
    (identified by head) and the generic ones are the baby Vermas; for
    r >= 2 they are twisted tensors of the cap-2 extended projectives and
    the heads are re-verified computationally by the callers.
    """
    p = ctx.p
    if r == 1:
        if d is not None:
            return {(c,): Z for c, Z in generic_verma_projectives(ctx, d).items()}
        return {(i,): P for i, P in regular_split_projectives(ctx, seed=seed).items()}
    cap = r + 1
    ext = all_extended_projectives(ctx, seed=seed)
    out: dict[tuple, ModuleRep] = {}
    for lab in repcore.all_labels(p, r):
        factors = []
        for j, k in enumerate(lab):
            top = j == r - 1
            if top and d is not None:
                base = repcore.baby_verma(ctx, d + ctx.el(k), cap=cap - j)
            else:
                base = repcore.extend_levels(ext[k], cap - j)
            factors.append(repcore.frobenius_twist(base, j))
        P = repcore.tensor_many(factors)
        P.provenance = f"P{lab}"
        out[lab] = P
    return out


# ---------------------------------------------------------------------------
# blocks and endomorphism algebras
# ---------------------------------------------------------------------------

def blocks(projectives: dict) -> list[list]:
    """Finest partition of the labels closed under nonzero Hom adjacency."""
    labels = sorted(projectives)
    parent = {a: a for a in labels}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if hom_space(projectives[a], projectives[b]).dim or \
               hom_space(projectives[b], projectives[a]).dim:
                parent[find(a)] = find(b)
    groups: dict = {}
    for a in labels:
        groups.setdefault(find(a), []).append(a)
    return sorted(groups.values())


class EndAlgebra:
    """End of a finite family of modules, with its exact center.

    The basis is the union of the pairwise Hom bases.
    """

    def __init__(self, labeled_modules: list[tuple[object, ModuleRep]]):
        self.labels = [lab for lab, _ in labeled_modules]
        self.modules = dict(labeled_modules)
        self.ctx = labeled_modules[0][1].ctx
        self.homs: dict = {}
        for a in self.labels:
            for b in self.labels:
                self.homs[(a, b)] = hom_space(self.modules[a], self.modules[b])

    @property
    def dim(self) -> int:
        return sum(h.dim for h in self.homs.values())

    def center(self) -> list[dict]:
        """Basis of central elements, each a dict label -> matrix in End(P_label).

        An element z = (z_a) is central iff f z_a = z_b f for every basis
        hom f in Hom(P_a, P_b).
        """
        ctx = self.ctx
        offsets, total = {}, 0
        for a in self.labels:
            offsets[a] = total
            total += self.homs[(a, a)].dim
        constraint_rows = []
        for a in self.labels:
            Ea = self.homs[(a, a)]
            for b in self.labels:
                H, Eb = self.homs[(a, b)], self.homs[(b, b)]
                for f in H.basis:
                    images = [f @ ea for ea in Ea.basis] + [eb @ f for eb in Eb.basis]
                    X = H.span.coordinates(vecs(ctx, H.shape, images))
                    if X is None:
                        raise ValueError(f"a composite with a map {a} -> {b} left its Hom space")
                    block = np.zeros((H.dim, total, ctx.k), dtype=np.int64)
                    block[:, offsets[a]:offsets[a] + Ea.dim] += X.arr[:, :Ea.dim]
                    block[:, offsets[b]:offsets[b] + Eb.dim] -= X.arr[:, Ea.dim:]
                    constraint_rows.append(Matrix(ctx, block))
        if not constraint_rows:
            return []
        ker = Matrix.vstack(constraint_rows).kernel()
        out = []
        for t in range(ker.cols):
            elem = {}
            for a in self.labels:
                H = self.homs[(a, a)]
                coeffs = Matrix(ctx, ker.arr[offsets[a]:offsets[a] + H.dim, t:t + 1])
                elem[a] = H.element(coeffs)
            out.append(elem)
        return out

    def element_is_central(self, elem: dict) -> bool:
        for a in self.labels:
            for b in self.labels:
                for f in self.homs[(a, b)].basis:
                    if not (f @ elem[a] - elem[b] @ f).is_zero():
                        return False
        return True


# ---------------------------------------------------------------------------
# canonical bases for the r=1 hom spaces
# ---------------------------------------------------------------------------

def normalize_first_entry(m: Matrix) -> Matrix:
    """Scale so the first nonzero entry (row-major) is 1; deterministic."""
    flat = np.nonzero(m.arr.any(axis=-1).reshape(-1))[0]
    i, j = divmod(int(flat[0]), m.cols)
    return m.scale(m.entry(i, j).inv())


def single_eigenvalue(m: Matrix) -> FieldElement:
    """The unique eigenvalue of a scalar-plus-nilpotent matrix (scan)."""
    n = m.rows
    for lam in m.ctx.elements():
        if (m - Matrix.scalar(m.ctx, n, lam)).rank() < n:
            return lam
    raise ValueError("no eigenvalue in the field")


def canonical_r1_hom_bases(ctx: FieldCtx, ext: dict[int, ModuleRep]):
    """Canonical graded bases of all Hom(P_a, P_b) over the first kernel.

    Expects the extended (cap-2) projectives; homs are solved at cap 1.
    Returns (bases, ok, unexpected) where bases[(a, b)] maps a graded degree
    to its basis list: degree 0 of End(P_a) is [id, omega] with omega the
    normalized nilpotent, the degree +-p pieces hold one normalized element
    each, and anything outside this pattern is reported as unexpected.
    """
    p = ctx.p
    restricted = {i: repcore.restrict_levels(m, 1) for i, m in ext.items()}
    bases: dict = {}
    ok = True
    unexpected: list[str] = []
    for a in range(p):
        for b in range(p):
            H = hom_space(restricted[a], restricted[b])
            by_deg: dict[int, list[Matrix]] = {}
            for phi, deg in zip(H.basis, H.degrees):
                by_deg.setdefault(deg, []).append(phi)
            canon: dict[int, list[Matrix]] = {}
            for deg, mats in sorted(by_deg.items()):
                if a == b and deg == 0:
                    ident = Matrix.identity(ctx, restricted[a].dim)
                    out = [ident]
                    if len(mats) == 2:
                        omega = None
                        for m in mats:
                            lam = single_eigenvalue(m)
                            cand = m - ident.scale(lam)
                            if not cand.is_zero():
                                omega = normalize_first_entry(cand)
                                break
                        if omega is None or not omega.pow_int(2).is_zero():
                            ok = False
                            unexpected.append(f"End(P_{a}) degree 0 not id+nilpotent")
                        else:
                            out.append(omega)
                    elif len(mats) != 1:
                        ok = False
                        unexpected.append(f"End(P_{a}) degree 0 has dim {len(mats)}")
                    canon[0] = out
                elif deg in (p, -p) and b == p - 2 - a and len(mats) == 1:
                    canon[deg] = [normalize_first_entry(mats[0])]
                else:
                    ok = False
                    unexpected.append(f"Hom(P_{a},P_{b}) degree {deg} dim {len(mats)}")
            bases[(a, b)] = canon
    return bases, ok, unexpected


# ---------------------------------------------------------------------------
# the G-module structure on Hom spaces
# ---------------------------------------------------------------------------

def hom_as_gmodule(P: ModuleRep, Q: ModuleRep, level: int):
    """Hom over levels < `level` with the level-`level` adjoint action.

    Both modules must be built with cap > level.  Returns (HomSpace, V)
    where V is a cap-1 ModuleRep on the hom coordinates: E_0 acts by
    phi -> E_level phi - phi E_level, gradings are the hom degrees divided
    by p^level.  The sl2 relations on V are re-verified exactly.
    """
    if P.cap <= level or Q.cap <= level:
        raise ValueError("modules lack the level extension for the adjoint action")
    ctx = P.ctx
    H = hom_space(repcore.restrict_levels(P, level), repcore.restrict_levels(Q, level))
    scale = ctx.p**level
    grading = []
    for ddeg in H.degrees:
        if ddeg % scale:
            raise ValueError("hom degree not divisible by the level scale")
        grading.append(ddeg // scale)
    mats = {}
    for name, GP, GQ in (("e", P.E[level], Q.E[level]), ("f", P.F[level], Q.F[level])):
        images = [GQ @ phi - phi @ GP for phi in H.basis]
        mats[name] = H.span.coordinates(vecs(ctx, H.shape, images))
        if mats[name] is None:
            raise ValueError("adjoint action left the hom space")
    V = ModuleRep(ctx, [mats["e"]], [mats["f"]], np.array(grading, dtype=np.int64),
                  [ctx.zero()], provenance=f"Hom({P.provenance},{Q.provenance})")
    # exact sl2 sanity on the action
    rep = repcore.validate(V)
    if not (rep["grading_shifts"] and rep["nilpotent_ef"]):
        raise ValueError("adjoint action violates sl2 grading/nilpotency")
    return H, V
