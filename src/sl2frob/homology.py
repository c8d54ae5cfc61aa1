"""Hom/End engine: intertwiners, simplicity tests, splitting, projectives, centers.

One solver, `_blocked_hom_basis`, solves a batch of Hom spaces (pairs
M -> N) as one sparse system: its unknowns are entries X[i, j] of an
intertwiner, of degree deg N_i - deg M_j, and its equations the entries of
G_N X - X G_M, each of one pair and degree.  Every one-term equation is
dropped with its unknown, which it forces to zero, until none is left
(LaMacchia and Odlyzko, CRYPTO 1990); then each (pair, degree) block is
eliminated on its own.  `hom_space` is a batch of one `hom_spaces`.  The
unblocked Kronecker-product solve is a test oracle.

A full space is first tested for zero.  An intertwiner phi: M -> N has
phi W_M = W_N phi for every word W in the level actions, so where
W_M = diag(m) and W_N = diag(n), (n_a - m_b) phi[a, b] = 0.  The words
H_j = [E_j, F_j] and C_j = 4 F_j E_j + H_j^2 + 2 H_j (j < cap) that are
diagonal on both leave a mask of entries free, with no hypothesis on the
grading or the central character.  If the mask is empty, Hom(M, N) = 0;
else the free entries give the same RREF basis as all entries, and a
failed intertwining self-check raises `InvariantError`.  One degree
(`degree=d`) is solved on all its entries.

`split_indecomposables` splits every module with one depth-first worklist,
along the graded generalized eigenspaces of degree-0 endomorphisms; a node
none of them splits is a leaf exactly when dim End_0 <= 2, and otherwise
raises `Inconclusive`.

Within one `cli.run_command` call (see `memo`) Hom spaces, the projective
covers of every level, the extended projectives, their canonical level-one
Hom bases and the generic-seed certificate are each computed once per
distinct input.  Every certificate that needs a level-r cover reads
`projective_cover` or `projective_covers`, which build each one with
`repcore.twisted_tensor`.  Modules compare by content, so a Hom space, and
the word diagonals, ker E per degree and `is_simple` verdict of a module,
are reused exactly for content-equal arguments: a digest collision is a
miss, never a wrong value.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .exactfield import Basis, FieldCtx, FieldElement, Matrix, rref_join, vecs, unvec
from . import memo, repcore, smallalg
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
    solver, so the basis is reproducible.  Basis and degrees are tuples and
    the span of the vectorized maps is private, so a memoised space shared
    by every caller of its call scope is only read.  In a memo scope a call
    on modules content-equal to an earlier call's gets that call's space,
    whose source and target are the earlier modules.
    """

    def __init__(self, source: ModuleRep, target: ModuleRep,
                 basis: list[Matrix], degrees: list[int]):
        self.source = source
        self.target = target
        self.basis = tuple(basis)
        self.degrees = tuple(degrees)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def shape(self) -> tuple[int, int]:
        """The shape (dim N, dim M) of every map M -> N."""
        return (self.target.dim, self.source.dim)

    @cached_property
    def _span(self) -> Basis:
        return Basis(vecs(self.source.ctx, self.shape, self.basis))

    def coordinates(self, maps) -> Matrix | None:
        """Column t holds the coordinates of maps[t] in the basis; None if a map lies outside."""
        return self._span.coordinates(vecs(self.source.ctx, self.shape, maps))

    def element(self, coeffs: Matrix) -> Matrix:
        """The map sum_i coeffs[i] * basis[i]."""
        return unvec(self._span.B @ coeffs, *self.shape)


def _sparse_kernel(ctx: FieldCtx, row: np.ndarray, col: np.ndarray, val: np.ndarray,
                   deg: np.ndarray):
    """(d, cols, K) per degree d: K is the RREF kernel basis on the unknowns
    cols of degree d; the others vanish in every solution.

    Entry t is val[t] at (row[t], col[t]), sorted by row.  Unknown degrees
    deg are nondecreasing, and each row meets one degree, in order.  A
    one-term row forces its unknown to zero, a pivot column with no free
    part, so dropping both until none is left keeps the kernel basis.
    """
    row = np.cumsum(np.diff(row, prepend=row[:1]) != 0)  # rows numbered 0, 1, ...
    live = np.ones(deg.size, dtype=bool)
    while (one := np.bincount(row)[row] == 1).any():
        live[col[one]] = False
        keep = live[col]
        row, col, val = row[keep], col[keep], val[keep]
    row, cols = np.cumsum(np.diff(row, prepend=row[:1]) != 0), np.flatnonzero(live)
    pos, dc, dt = np.cumsum(live) - 1, deg[cols], deg[col]
    for d in sorted(set(dc.tolist())):
        (c0, c1), (t0, t1) = (np.searchsorted(x, [d, d + 1]) for x in (dc, dt))
        r = row[t0:t1]
        A = np.zeros((r[-1] - r[0] + 1 if r.size else 0, c1 - c0, ctx.k), dtype=np.int64)
        A[r - r[:1], pos[col[t0:t1]] - c0] = val[t0:t1]
        yield d, cols[c0:c1], Matrix._own(ctx, A).kernel().arr


def _blocked_hom_basis(pairs: list, delta: int | None = None,
                       masks: list | None = None) -> list[tuple[list[Matrix], list[int]]]:
    """(maps, degrees) of the intertwiners M -> N per pair (M, N), all solved
    by one `_sparse_kernel` call on blocks that share no unknown or equation.

    Unknowns of a pair: the entries X[i, j] on its mask (all if None), of
    degree deg N_i - deg M_j = delta if given, in (degree, deg M_j, j, i)
    order.  In G_N X - X G_M, unknown (i, j) enters cell (a, j) with
    G_N[a, i] and (i, b) with -G_M[j, b] for each level action G; the grading
    is checked there.  Entries off the mask vanish in every intertwiner.
    """
    # each module's stacked level actions and their support, once
    acts = {id(X): (G, G.any(axis=-1)) for X in {id(X): X for pair in pairs for X in pair}.values()
            for G in [np.stack([m.arr for m in X.E + X.F])]}
    parts, n_cols, n_rows = [], 0, 0
    for t, (M, N) in enumerate(pairs):
        ctx, p, gM, gN = M.ctx, M.ctx.p, M.grading, N.grading
        free = np.ones((N.dim, M.dim), dtype=bool) if delta is None else \
            gN[:, None] == gM[None, :] + delta
        if masks is not None and masks[t] is not None:
            free &= masks[t]
        I, J = np.nonzero(free)
        if not I.size:
            continue
        deg = gN[I] - gM[J]
        order = np.lexsort((I, J, gM[J], deg))
        I, J, deg = I[order], J[order], deg[order]
        (GM, nzM), (GN, nzN) = acts[id(M)], acts[id(N)]
        s = (np.array([[2], [-2]]) * p ** np.arange(M.cap)).ravel()  # shifts of M.E + M.F
        g, a, u = np.nonzero(nzN[:, :, I])  # G_N[a, I_u] != 0
        h, v, b = np.nonzero(nzM[:, J])     # G_M[J_v, b] != 0
        val = np.concatenate([GN[g, a, I[u]], -GM[h, J[v], b] % p])
        g, col = np.concatenate([g, h]), np.concatenate([u, v])
        A, B = np.concatenate([a, I[v]]), np.concatenate([J[u], b])
        bad = g[gN[A] - gM[B] != deg[col] + s[g]]
        if bad.size:
            raise ValueError(f"level-{bad.min() % M.cap} action of {M.provenance!r} or "
                             f"{N.provenance!r} does not respect the grading")
        # (pair, degree) blocks labelled in order, and rows keyed block first
        blk = n_rows + deg - deg[0]
        key = n_rows + (((deg[col] - deg[0]) * s.size + g) * N.dim + A) * M.dim + B
        parts.append((np.full(I.size, t), I, J, deg, blk, key, col + n_cols, val))
        n_cols, n_rows = n_cols + I.size, n_rows + (deg[-1] - deg[0] + 1) * s.size * N.dim * M.dim
    out = [([], []) for _ in pairs]
    if not parts:
        return out
    pair, I, J, deg, blk, key, col, val = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(key, kind="stable")
    for _, cols, K in _sparse_kernel(ctx, key[order], col[order], val[order], blk):
        t, d = pair[cols[0]], int(deg[cols[0]])
        (M, N), (maps, degrees) = pairs[t], out[t]
        phis = np.zeros((K.shape[1], N.dim, M.dim, ctx.k), dtype=np.int64)
        phis[:, I[cols], J[cols]] = K.transpose(1, 0, 2)
        maps += [Matrix._own(ctx, phi) for phi in phis]
        degrees += [d] * K.shape[1]
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@memo.memoised
def _word_diagonals(M: ModuleRep) -> tuple:
    """(D, diagonal, ungraded): row w of D holds, as element indices, the
    diagonal of the w-th word of H_0, C_0, H_1, C_1, ..., valid where
    diagonal[w]; ungraded is `repcore.ungraded_level(M)`."""
    ctx, n = M.ctx, M.dim
    E, F = (np.stack([G.arr for G in Gs]) for Gs in (M.E, M.F))
    FE = ctx.arr_matmul(F, E)
    H = (ctx.arr_matmul(E, F) - FE) % ctx.p
    C = (4 * FE + ctx.arr_matmul(H, H) + 2 * H) % ctx.p
    W = np.stack([H, C], axis=1).reshape(2 * M.cap, n, n, ctx.k)
    diag = np.eye(n, dtype=bool)
    return (_frozen(ctx.arr_index(W[:, diag])), _frozen(~W[:, ~diag].any(axis=(1, 2))),
            repcore.ungraded_level(M))


def _word_mask(M: ModuleRep, N: ModuleRep) -> np.ndarray:
    """The entries (a, b) that no word diagonal forces to zero in an intertwiner M -> N.

    Raises ValueError unless each level action of M and N shifts the grading
    by its degree.
    """
    DM, diagonal_M, ungraded_M = _word_diagonals(M)
    DN, diagonal_N, ungraded_N = _word_diagonals(N)
    for j in (ungraded_M, ungraded_N):
        if j is not None:
            raise ValueError(f"level-{j} action of {M.provenance!r} or {N.provenance!r} "
                             "does not respect the grading")
    both = diagonal_M & diagonal_N
    return (DN[both][:, :, None] == DM[both][:, None, :]).all(axis=0)


def hom_space(M: ModuleRep, N: ModuleRep, degree: int | None = None) -> HomSpace:
    """All intertwiners M -> N (or only those of one graded degree).

    A batch of one `hom_spaces`: the full space is zero if the word mask is
    empty, else solved on the mask and self-checked; one degree is solved on
    all its entries."""
    return hom_spaces([(M, N)], degree)[0]


def hom_spaces(pairs: list, degree: int | None = None) -> list[HomSpace]:
    """`hom_space(M, N, degree)` per pair (M, N), with one solver call for all
    the pairs the memo scope has not solved."""
    return memo.batch(_solve_hom_spaces, [(M, N, degree) for M, N in pairs])


def _solve_hom_spaces(items: list) -> list[HomSpace]:
    """The HomSpace of each (M, N, degree) item, all of one degree, from one
    `_blocked_hom_basis` call on those a word mask does not prove zero."""
    if any(not M.ctx == N.ctx == items[0][0].ctx for M, N, _ in items):
        raise ValueError("mixed field contexts")
    if any(M.cap != N.cap for M, N, _ in items):
        raise ValueError("level caps differ")
    masks = [None if degree is not None else _word_mask(M, N) for M, N, degree in items]
    todo = [t for t, mask in enumerate(masks) if mask is None or mask.any()]
    solved = dict(zip(todo, _blocked_hom_basis([items[t][:2] for t in todo], items[0][2],
                                               [masks[t] for t in todo]) if todo else []))
    out = []
    for t, (M, N, degree) in enumerate(items):
        basis, degrees = solved.get(t, ([], []))
        if basis and degree is None:
            ctx, maps = M.ctx, np.stack([phi.arr for phi in basis])
            for g, (GM, GN) in enumerate(zip(M.E + M.F, N.E + N.F)):
                if ((ctx.arr_matmul(GN.arr, maps) - ctx.arr_matmul(maps, GM.arr)) % ctx.p).any():
                    raise InvariantError(f"Hom({M.provenance!r}, {N.provenance!r}): a solved "
                                         f"map does not intertwine level action {g}")
        out.append(HomSpace(M, N, basis, degrees))
    return out


def hom_space_unblocked(M: ModuleRep, N: ModuleRep) -> list[Matrix]:
    """Oracle: the same space solved as one dense system, ignoring the grading."""
    ctx = M.ctx
    In, Im = Matrix.identity(ctx, N.dim), Matrix.identity(ctx, M.dim)
    ker = Matrix.vstack([GM.transpose().kron(In) - Im.kron(GN)
                         for GM, GN in zip(M.E + M.F, N.E + N.F)]).kernel()
    return [unvec(Matrix(ctx, ker.arr[:, t:t + 1]), N.dim, M.dim) for t in range(ker.cols)]


def is_isomorphic(M: ModuleRep, N: ModuleRep) -> Matrix | None:
    """An invertible intertwiner M -> N, or None.

    M must be indecomposable, so End(M) is local.  If some theta: M -> N is
    an isomorphism, phi -> theta^-1 phi carries Hom(M, N) onto End(M) and
    the non-isomorphisms onto its radical, a proper subspace.  A basis of
    Hom(M, N) cannot lie inside a proper subspace, so one of its maps is an
    isomorphism.
    """
    if M.dim != N.dim:
        return None
    return next((b for b in hom_space(M, N).basis if b.rank() == M.dim), None)


# ---------------------------------------------------------------------------
# spin / simplicity
# ---------------------------------------------------------------------------

def spin(M: ModuleRep, v: Matrix) -> Matrix:
    """RREF column basis of the submodule generated by v (closed under every E_j, F_j).

    Spun by rounds of `rref_join` on the span's RREF rows: each round
    applies G, G^2, ..., G^(p-1) of every level action G to the rows the
    last round added (at first, to v), as p - 1 stacked products, and joins
    those rows and their images to the span, until a round adds no row or
    the span is M.  The added rows complement the old span and every other
    row moved by them, so their images close it; with the powers, a Verma
    or a simple closes in one round.
    """
    if v.is_zero():
        raise ValueError("cannot spin the zero vector")
    ctx, n = M.ctx, M.dim
    ops = np.stack([G.arr for G in M.E + M.F])
    R, pivots, new = Matrix.zeros(ctx, 0, n), [], v.transpose()
    while True:
        images = [np.swapaxes(new.arr, 0, 1)]
        for _ in range(ctx.p - 1):
            images.append(ctx.arr_matmul(ops, images[-1]))
        images = np.concatenate(images[1:]).transpose(0, 2, 1, 3).reshape(-1, n, ctx.k)
        R, pivots, new = rref_join(R, pivots, Matrix._own(ctx, np.concatenate([new.arr, images])))
        if not new.rows or len(pivots) == n:
            return R.transpose()


def _graded_joint_kernel(mats: list[Matrix], grading: np.ndarray) -> dict[int, Matrix]:
    """Per-degree bases of the joint kernel of graded operators, by degree.

    One elimination of the stacked operators.  Each row of a graded operator
    meets one degree, so its RREF rows do too, and each RREF kernel vector
    lies in the degree of its first nonzero row: split by that degree, the
    basis is the RREF kernel basis of each degree on its own.
    """
    ctx = mats[0].ctx
    ker = Matrix._own(ctx, np.concatenate([m.arr for m in mats])).kernel().arr
    deg = grading[ker.any(axis=-1).argmax(axis=0)]
    return {w: Matrix._own(ctx, ker[:, deg == w]) for w in sorted(set(deg.tolist()))}


@memo.memoised
def _highest_weights(M: ModuleRep) -> Mapping[int, Matrix]:
    """Each degree's basis of ker E (all E_j) there; read-only."""
    return MappingProxyType(_graded_joint_kernel(M.E, M.grading))


@memo.memoised
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
    Within a memo scope the verdict is computed once per module content.
    """
    ctx = M.ctx
    if M.dim == 0:
        return False
    J = _highest_weights(M)
    if not J:
        return "inconclusive"
    untestable = False
    for _, basis in J.items():
        m = basis.cols
        if m == 1:
            seeds = [basis]
        elif m == 2 and ctx.q <= 25:
            b0, b1 = basis.take_cols([0]), basis.take_cols([1])
            seeds = [b1] + [b0 + b1.scale(t) for t in ctx.elements()]
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


# ---------------------------------------------------------------------------
# splitting into indecomposables
# ---------------------------------------------------------------------------

def _eigen_split(M: ModuleRep, phi: Matrix) -> list[Matrix] | None:
    """Graded generalized-eigenspace decomposition of a degree-0 endomorphism.

    Returns per-piece homogeneous column bases if there are at least two
    pieces and they fill M, else None.  Eigenvalues are found by scanning
    the field, which stops once the pieces found fill M.
    """
    ctx = M.ctx
    n = M.dim
    power = 1
    while power < n:
        power *= 2
    pieces = []
    covered = 0
    for lam in ctx.elements():
        shifted = phi - Matrix.scalar(ctx, n, lam)
        if shifted.rank() == n:
            continue
        per_w = _graded_joint_kernel([shifted.pow_int(power)], M.grading)
        cols = [b for _, b in sorted(per_w.items())]
        if cols:
            pieces.append(Matrix.hstack(cols))
            covered += pieces[-1].cols
            if covered == n:
                break       # the pieces fill M: no later lam is an eigenvalue
    if covered != n or len(pieces) < 2:
        return None
    return pieces


SPLIT_TRIES = 12   # random candidates per regular-module node before its End_0 basis


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


def _end0_basis(M: ModuleRep, stack: list[Matrix] | None) -> list[Matrix]:
    """A basis of End_0(M): the degree-0 Hom space, or the independent maps of a spanning stack."""
    if stack is None:
        return list(hom_space(M, M, degree=0).basis)
    _, pivots = vecs(M.ctx, (M.dim, M.dim), stack).rref(indices=True)
    return [stack[i] for i in pivots]


def _first_split(M: ModuleRep, candidates) -> list[Matrix] | None:
    """The pieces of the first candidate that splits M, or None.

    A scalar map has one eigenspace and splits nothing, so it is skipped.
    """
    return next((pieces for phi in candidates
                 if phi != Matrix.scalar(M.ctx, M.dim, phi.entry(0, 0))
                 and (pieces := _eigen_split(M, phi)) is not None), None)


def split_indecomposables(M: ModuleRep, sampler=None,
                          seed: int = 0) -> list[tuple[Matrix, ModuleRep]]:
    """(inclusion, summand) per indecomposable summand of M, in depth-first order.

    A node splits along the first candidate whose graded generalized
    eigenspaces (`_eigen_split`) are two or more pieces, and its pieces are
    visited in order; scalar candidates, which never split, are skipped.
    The candidates end with a basis of End_0, the node's degree-0
    endomorphisms, and a node that none of them splits is a leaf exactly
    when dim End_0 <= 2.  A unital algebra of dimension at most 2 is
    k[x]/(f).  If f is irreducible or a square, End_0 is local and the node
    is indecomposable.  Otherwise End_0 is k x k, and its basis map outside
    k.1 acts on the two summands by two distinct eigenvalues in k, so it
    splits the node.  A larger End_0 raises `Inconclusive`.

    End_0 is read from `hom_space(node, node, degree=0)`, unless sampler is
    an algebra whose weight-zero right multiplications span End_0 of M (its
    regular module).  Then each node carries that stack restricted to it,
    since End_0 of a graded summand is pi End_0(parent) iota; its End_0
    basis is an independent subset of the stack, and SPLIT_TRIES
    `random_weight_zero_right_mult` draws over the stack, from an RNG seeded
    by seed, come first.  Raises ValueError unless the summands are
    independent and fill M.
    """
    rng = None if sampler is None else np.random.default_rng(seed)
    leaves = []
    todo = [(M, Matrix.identity(M.ctx, M.dim),
             None if sampler is None else sampler.weight_zero_right_mult_basis())]
    while todo:
        node, incl, stack = todo.pop()
        draws = () if stack is None else \
            (sampler.random_weight_zero_right_mult(rng, stack) for _ in range(SPLIT_TRIES))
        pieces = _first_split(node, draws)
        if pieces is None:
            end0 = _end0_basis(node, stack)
            pieces = _first_split(node, end0)
            if pieces is None:
                if len(end0) > 2:
                    raise Inconclusive(f"summand of {M.provenance!r} of dim {node.dim} has "
                                       f"dim End_0 = {len(end0)} > 2 and no candidate splits it")
                leaves.append((incl, node))
                continue
        stacks = [None] * len(pieces) if stack is None else _restrict_stack(stack, pieces)
        # pushed in reverse, so the first piece is visited next
        for basis, piece_stack in zip(pieces[::-1], stacks[::-1]):
            todo.append((repcore.submodule(node, basis, provenance="summand"), incl @ basis,
                         piece_stack))
    C = Matrix.hstack([incl for incl, _ in leaves])
    rank = C.rank()
    if rank < C.cols:
        raise ValueError(f"summands of {M.provenance!r} overlap: {C.cols} columns "
                         f"span dimension {rank}")
    if C.cols != M.dim:
        raise ValueError(f"summands of {M.provenance!r} fill dimension {C.cols} of {M.dim}")
    return leaves


# ---------------------------------------------------------------------------
# projective covers
# ---------------------------------------------------------------------------

@memo.memoised
def regular_split_projectives(ctx: FieldCtx, seed: int = 0) -> Mapping[int, ModuleRep]:
    """P_i for u_0(sl2) (level cap 1) by splitting the left regular module.

    The mapping is read-only: it is shared by every caller of a memo scope.
    """
    alg = smallalg.UChiAlgebra(ctx)
    simples = [(i, repcore.simple_restricted(ctx, i)) for i in range(ctx.p)]
    out: dict[int, ModuleRep] = {}
    for _, leaf in split_indecomposables(smallalg.regular_module(alg), sampler=alg, seed=seed):
        _, mults = radical_and_head(leaf, simples)
        if sum(mults.values()) != 1:
            raise Inconclusive(f"regular summand of dim {leaf.dim} has head {mults}, "
                               "not one simple")
        (label,) = mults
        out.setdefault(label, leaf)
    if set(out) != set(range(ctx.p)):
        raise Inconclusive("regular module did not produce all projective covers")
    return MappingProxyType(out)


@memo.memoised
def extended_projective(ctx: FieldCtx, i: int) -> ModuleRep:
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
    top = 2 * p - 2 - i
    for _, leaf in split_indecomposables(T):
        if top in leaf.weights():
            if leaf.dim != 2 * p:
                raise Inconclusive(f"extended P_{i} has dim {leaf.dim}, expected {2*p}")
            leaf.provenance = f"P_{i}^ext"
            return leaf
    raise Inconclusive(f"no summand of St(x)L_{p-1-i} contains weight {top}")


def all_extended_projectives(ctx: FieldCtx) -> dict[int, ModuleRep]:
    return {i: extended_projective(ctx, i) for i in range(ctx.p)}


@memo.memoised
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
        J = _highest_weights(Z)
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


@memo.memoised
def projective_cover(ctx: FieldCtx, label: tuple, d: FieldElement | None = None) -> ModuleRep:
    """The cover P_label of the level-r reduction, r = len(label), with cap r + 1.

    chi = 0 when d is None.  It is the `repcore.twisted_tensor` of the cap-2
    extended projectives over the label's digits, topped by the baby Verma
    Z_{d+k} for generic characters; callers re-verify the head.
    """
    ext = all_extended_projectives(ctx)
    return repcore.twisted_tensor(ctx, label, lambda k, c: repcore.extend_levels(ext[k], c),
                                  len(label) + 1, d, name="P")


@memo.memoised
def projective_covers(ctx: FieldCtx, r: int, d: FieldElement | None = None,
                      seed: int = 0) -> Mapping[tuple, ModuleRep]:
    """Labeled indecomposable projectives of the level-r reduction.

    chi = 0 when d is None.  Labels are digit tuples (k_0, ..., k_{r-1});
    for generic characters the top digit indexes the Verma Z_{d+c}.  At
    r = 1 the zero-character covers come from splitting the regular module
    (identified by head; the only use of seed).  Otherwise each is the
    memoised `projective_cover`, so mappings for two seeds share their
    modules.  The mapping is read-only.
    """
    if r == 1 and d is None:
        return MappingProxyType({(i,): P for i, P in
                                 regular_split_projectives(ctx, seed=seed).items()})
    return MappingProxyType({lab: projective_cover(ctx, lab, d)
                             for lab in repcore.all_labels(ctx.p, r)})


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
                    X = H.coordinates(images)
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
        ctx = self.ctx
        for (a, b), H in self.homs.items():
            if H.dim:
                maps = np.stack([f.arr for f in H.basis])
                if ((ctx.arr_matmul(maps, elem[a].arr)
                     - ctx.arr_matmul(elem[b].arr, maps)) % ctx.p).any():
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


@memo.memoised
def canonical_r1_hom_bases(ctx: FieldCtx):
    """Canonical graded bases of all Hom(P_a, P_b) over the first kernel.

    The P_a are the extended (cap-2) projectives; homs are solved at cap 1.
    Returns (bases, ok, unexpected) where bases[(a, b)] maps a graded degree
    to its basis tuple: degree 0 of End(P_a) is (id, omega) with omega the
    normalized nilpotent, the degree +-p pieces hold one normalized element
    each, and anything outside this pattern is reported as unexpected.
    bases and its values are read-only and unexpected is a tuple: the result
    is shared by every caller of a memo scope.
    """
    p = ctx.p
    restricted = {i: repcore.restrict_levels(m, 1)
                  for i, m in all_extended_projectives(ctx).items()}
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
            bases[(a, b)] = MappingProxyType({deg: tuple(m) for deg, m in canon.items()})
    return MappingProxyType(bases), ok, tuple(unexpected)


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
        mats[name] = H.coordinates(images)
        if mats[name] is None:
            raise ValueError("adjoint action left the hom space")
    V = ModuleRep(ctx, [mats["e"]], [mats["f"]], np.array(grading, dtype=np.int64),
                  [ctx.zero()], provenance=f"Hom({P.provenance},{Q.provenance})")
    # exact sl2 sanity on the action
    rep = repcore.validate(V)
    if not (rep["grading_shifts"] and rep["nilpotent_ef"]):
        raise ValueError("adjoint action violates sl2 grading/nilpotency")
    return H, V
