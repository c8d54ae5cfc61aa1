"""Canonical twist elements, the Verma hom transfer, and the graded equivalence.

The twist element at a generic weight value d is the invariant line in
Z* (x) Z written as sum_k A_k e^k 1* (x) f^k 1 with A_0 = 1 and

    A_{k-1} + k (d - k + 1) A_k = 0,

solved in closed form by A_k = (-1)^k / (k! d (d-1) ... (d-k+1)).  It
transfers weight vectors of a module V to intertwiners Z_mu -> Z_mu' (x) V
(with the top-weight projection as a one-sided inverse) and deforms the
composition of the graded endomorphism category of the projectives into
the one for the next kernel at a generic character; rescaling the
top-level generators by D^+/D^- solved from

    D^+_{n-1} D^-_n = D^-_{n+1} D^+_n (1 - A_1(n+1))

makes the two graded algebras match structure constant by structure
constant.  The certificate transfers and twists once per grading-shift
class (objects mu and mu + p differ by a grading shift); the twisted product
is bilinear, so associativity is read from that table in certified coordinates.
Each morphism's ad_e and ad_f ladders [m, ad m, ..., ad^(p-1) m] are built
once per window, so a twisted product is one stacked product of two ladders
and one A-weighted sum.  A certificate solves its degree-0 Hom spaces in
one `homology.hom_spaces` call, tests each class's transfers for membership
in one `coordinates` call, compares the rescaled structure constants on
element indices and stacks the transfer-intertwining products per shape.
Twist elements, graded Vermas and their products Z_mu (x) V are memoised
within a `run_command` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .exactfield import Basis, FieldCtx, FieldElement, Matrix, vecs
from . import memo, repcore, homology
from .reporting import check, report


# ---------------------------------------------------------------------------
# twist coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistElement:
    """Weight value d and coefficient vector (A_k), A_0 = 1; immutable, so it can be memoised."""

    d: FieldElement
    coeffs: tuple[FieldElement, ...]

    def recursion_holds(self) -> bool:
        ctx = self.d.ctx
        if not self.coeffs[0] == ctx.one():
            return False
        for k in range(1, len(self.coeffs)):
            lhs = self.coeffs[k - 1] + ctx.el(k) * (self.d - ctx.el(k - 1)) * self.coeffs[k]
            if not lhs.is_zero():
                return False
        return True


@memo.memoised
def twist_closed_form(ctx: FieldCtx, d: FieldElement) -> TwistElement:
    """A_k = (-1)^k / (k! d(d-1)...(d-k+1)); requires d outside F_p."""
    if d.in_prime_field():
        raise homology.NonGenericSeed("non-generic weight value: twist denominators vanish")
    coeffs = [ctx.one()]
    for k in range(1, ctx.p):
        # A_k = -A_{k-1} / (k (d - k + 1))
        denom = ctx.el(k) * (d - ctx.el(k - 1))
        coeffs.append(-coeffs[k - 1] * denom.inv())
    return TwistElement(d, tuple(coeffs))


def twist_oracle(ctx: FieldCtx, d: FieldElement) -> TwistElement:
    """Independent construction: solve for the invariant vector in Z* (x) Z.

    Rejects d in F_p (NonGenericSeed) before any solve, takes the kernel of
    [E_0; F_0] on the grading-0 slice of Z* (x) Z (one line, else
    NonGenericSeed) and reads the coefficients off the vectors
    e^k 1* (x) f^k 1, normalized by A_0 = 1.

    The slice is enough: an invariant is killed by H = [E_0, F_0], which acts
    on e_i* (x) e_j by 2(i - j), nonzero in F_p unless i = j.  So only the
    2p^2 x p block of [E_0; F_0] on the columns e_i* (x) e_i is built, from
    the coproduct x (x) 1 + 1 (x) x: row a p + b stands for e_a* (x) e_b,
    column i gets x_{Z*}[a, i] at row a p + i and x_Z[b, i] at row i p + b.
    The coordinates are read off its diagonal.  Each e_k* is the only basis
    vector of its degree in Z* and e raises the degree by 2, so from
    1* = e_0* on, e^k 1* = c_k e_k* with c_k = (e^k 1*)[k], the product of
    the E_{Z*}[j, j - 1] for 0 < j <= k; and f^k 1 = e_k.  Hence
    e^k 1* (x) f^k 1 = c_k (e_k* (x) e_k), and the k-th coordinate of the
    invariant is ker[k] / c_k.
    """
    if d.in_prime_field():
        raise homology.NonGenericSeed("non-generic weight value: d lies in F_p")
    p, i = ctx.p, np.arange(ctx.p)
    Z = repcore.baby_verma(ctx, d)
    D = repcore.dual(Z)
    block = np.zeros((2, p, p, p, ctx.k), dtype=np.int64)    # (action, a, b, column i)
    for x, xD, xZ in zip(block, (D.E[0], D.F[0]), (Z.E[0], Z.F[0])):
        x[:, i, i] = xD.arr                                  # x e_i* (x) e_i
        x[i, :, i] += xZ.arr.transpose(1, 0, 2)              # e_i* (x) x e_i
    ker = Matrix(ctx, block.reshape(2 * p * p, p, ctx.k)).kernel()
    if ker.cols != 1:
        raise homology.NonGenericSeed(f"invariant space has dimension {ker.cols}, not 1 "
                                      "(non-generic seed or wrong orientation)")
    c = [ctx.one()]
    for k in range(1, p):
        c.append(c[-1] * D.E[0].entry(k, k - 1))
    if any(ck.is_zero() for ck in c):
        raise ValueError("invariant vector not supported on e^k 1* (x) f^k 1")
    a0 = ker.entry(0, 0)
    if a0.is_zero():
        raise ValueError("invariant vector has no top component")
    inv = a0.inv()
    return TwistElement(d, tuple(ker.entry(k, 0) * inv / c[k] for k in range(p)))


# ---------------------------------------------------------------------------
# the hom transfer at the Verma level
# ---------------------------------------------------------------------------

def _transfer(ctx: FieldCtx, A: tuple[FieldElement, ...], grid: np.ndarray) -> Matrix:
    """The block sum  sum_{j,i,k} A_k binom(j,i) z_{j-i+k} (x) f^i e^k x  (terms j-i+k < p).

    grid[k, i] is the coefficient array of f^i e^k x for an r x c matrix x
    (a vector of V, or a map P_a -> P_b).  Block (t, j) of the p r x p c
    result is the z_t component of the image of z_j: the bases are z-major.
    """
    p = ctx.p
    r, c = grid.shape[2:4]
    out = np.zeros((p * r, p * c, ctx.k), dtype=np.int64)
    for k in range(p):
        for i in range(p):
            if not grid[k, i].any():
                continue
            blk = ctx.arr_mul(grid[k, i], A[k]._arr())
            for j in range(i, p):
                t, b = j - i + k, comb(j, i) % p
                if t < p and b:
                    out[t * r:(t + 1) * r, j * c:(j + 1) * c] += b * blk
    return Matrix(ctx, out)


def _power_stacks(V: repcore.ModuleRep) -> tuple[np.ndarray, np.ndarray]:
    """The stacks [E_0^k] and [F_0^k], k < p, of V's level-0 actions."""
    return tuple(np.stack([m.arr for m in G.powers(V.ctx.p - 1)]) for G in (V.E[0], V.F[0]))


def verma_map(ctx: FieldCtx, d: FieldElement, stacks: tuple, mu_p: int, v: Matrix) -> Matrix:
    """The intertwiner Z_{mu} -> Z_{mu'} (x) V attached to v in V_{mu-mu'},
    from stacks = `_power_stacks(V)`.

    Z_mu means the Verma at weight value d + mu with its top vector graded
    in degree mu.  On the top vector the map is the twist element applied
    to v (x) 1_{mu'}; the extension to f^j 1 is forced by the coproduct:

        f^j 1  |->  sum_{k,i} A_k binom(j,i) f^{j-i+k} 1  (x)  f^i e^k v.
    """
    A = twist_closed_form(ctx, d + ctx.el(mu_p % ctx.p)).coeffs
    Ev, Fv = stacks
    return _transfer(ctx, A, ctx.arr_matmul(Fv[None], ctx.arr_matmul(Ev, v.arr)[:, None]))


@memo.memoised
def _graded_verma(ctx: FieldCtx, d: FieldElement, mu: int) -> repcore.ModuleRep:
    return repcore.baby_verma(ctx, d + ctx.el(mu % ctx.p), shift=mu)


@memo.memoised
def _verma_tensor(ctx: FieldCtx, d: FieldElement, mu: int,
                  V: repcore.ModuleRep) -> repcore.ModuleRep:
    """Z_mu (x) V, built once per command for each V by content."""
    return repcore.tensor(_graded_verma(ctx, d, mu), V)


def hom_iso_report(ctx: FieldCtx, d: FieldElement, V: repcore.ModuleRep,
                   window: int, tag: str = "V") -> dict:
    """Certify the transfer v -> (Z_mu -> Z_mu' (x) V) over a graded window.

    Checks, for all mu, mu' in the window: the graded hom dimension equals
    dim V_{mu-mu'}; every transferred map is an exact intertwiner; the top
    projection inverts the transfer; and the transfer hits a basis.  A pair's
    verdicts depend only on mu' mod p and mu - mu', so they are computed once
    per such class, and Z_{mu+p} (x) V is Z_mu (x) V shifted by p.
    """
    checks, verdicts, p = [], {}, ctx.p
    wd = V.weight_indices()
    unit = Matrix.identity(ctx, V.dim)
    stacks = _power_stacks(V)
    Z = {mu: _graded_verma(ctx, d, mu) for mu in range(-window, window + 1)}
    ZV: dict = {}
    for mu in Z:
        ZV[mu] = ZV[mu - p].shift_grading(p) if mu - p in ZV else _verma_tensor(ctx, d, mu, V)
    # one pair per class: their degree-0 spaces are the same maps
    pairs = {(mu_p % p, mu - mu_p): (Z[mu], ZV[mu_p]) for mu in Z for mu_p in ZV}
    spaces = dict(zip(pairs, homology.hom_spaces(list(pairs.values()), degree=0)))
    for mu, Zs in Z.items():
        for mu_p, TV in ZV.items():
            cls, idx = (mu_p % p, mu - mu_p), wd.get(mu - mu_p, [])
            if cls not in verdicts:
                Hgr, vdim = spaces[cls], len(idx)
                out = verdicts[cls] = [
                    ("dim", "", Hgr.dim == vdim, dict(hom_dim=Hgr.dim, weight_dim=vdim))]
                images = [verma_map(ctx, d, stacks, mu_p, unit.take_cols([t])) for t in idx]
                X = Hgr.coordinates(images) if images else None
                for t, phi in zip(idx, images):
                    ok_int = all(
                        (phi @ g1 - g2 @ phi).is_zero()
                        for g1, g2 in ((Zs.E[0], TV.E[0]), (Zs.F[0], TV.F[0])))
                    # top projection: z'_0 block row, z_0 column
                    ok_inv = Matrix(ctx, phi.arr[0:V.dim, 0:1]) == unit.take_cols([t])
                    in_space = X is not None or Hgr.coordinates([phi]) is not None
                    out.append(("transfer", f"_{t}", ok_int and ok_inv and in_space,
                                dict(intertwiner=ok_int, top_inverse=ok_inv,
                                     in_graded_hom=in_space)))
                if images:
                    # the Hom basis is independent: coordinates keep the rank
                    rank = (X if X is not None else vecs(ctx, Hgr.shape, images)).rank()
                    out.append(("bijection", "", rank == vdim, dict(rank=rank)))
            checks += [check(f"{kind}_{tag}_{mu}_{mu_p}{tail}", ok, **details)
                       for kind, tail, ok, details in verdicts[cls]]
    return report("hom-iso", {"window": window, "tag": tag}, checks)


def composition_law_report(ctx: FieldCtx, d: FieldElement, V: repcore.ModuleRep,
                           W: repcore.ModuleRep, mu: int, mu_p: int, mu_pp: int,
                           tag: str = "") -> dict:
    """Composing two transfers and projecting equals the twist applied to v (x) w."""
    checks = []
    wV = V.weight_indices()
    wW = W.weight_indices()
    nu1, nu2 = mu - mu_p, mu_p - mu_pp
    if nu1 not in wV or nu2 not in wW:
        return report("hom-iso-composition", {"mu": mu, "mu_p": mu_p, "mu_pp": mu_pp},
                      [check(f"vacuous{tag}", True)])
    A = twist_closed_form(ctx, d + ctx.el(mu_p % ctx.p)).coeffs
    stacks_V, stacks_W = _power_stacks(V), _power_stacks(W)
    (Ev, _), (_, Fw) = stacks_V, stacks_W
    for s in wV[nu1]:
        v = Matrix.identity(ctx, V.dim).take_cols([s])
        phi_v = verma_map(ctx, d, stacks_V, mu_p, v)
        for t in wW[nu2]:
            w = Matrix.identity(ctx, W.dim).take_cols([t])
            phi_w = verma_map(ctx, d, stacks_W, mu_pp, w)
            # (phi_w (x) id_V) . phi_v : Z_mu -> (Z'' (x) W) (x) V
            big = phi_w.kron(Matrix.identity(ctx, V.dim)) @ phi_v
            # project to the top line of Z'': rows [0 : dimW*dimV], column z_0
            got = Matrix(ctx, big.arr[0:W.dim * V.dim, 0:1])
            # sum_k A_k f^k w (x) e^k v, from the columns t of F_W^k and s of E_V^k
            expect = sum((Matrix(ctx, Fw[k][:, t:t + 1]).kron(Matrix(ctx, Ev[k][:, s:s + 1]))
                          .scale(A[k]) for k in range(ctx.p)), Matrix.zeros(ctx, W.dim * V.dim, 1))
            checks.append(check(f"composition{tag}_{s}_{t}", got == expect))
    return report("hom-iso-composition",
                  {"mu": mu, "mu_p": mu_p, "mu_pp": mu_pp}, checks)


# ---------------------------------------------------------------------------
# Verma tensor splitting
# ---------------------------------------------------------------------------

def verma_tensor_split(ctx: FieldCtx, d: FieldElement, mu: int,
                       V: repcore.ModuleRep) -> dict:
    """Z_mu (x) V splits into Vermas with weight-space multiplicities."""
    M = _verma_tensor(ctx, d, mu, V)
    wd = V.weight_indices()
    found: dict[int, int] = {}
    checks = []
    for _, leaf in homology.split_indecomposables(M):
        top = max(leaf.weights())
        ref = _graded_verma(ctx, d, top)
        iso = homology.is_isomorphic(leaf, ref)
        checks.append(check(f"leaf_is_verma_top{top}", iso is not None and leaf.dim == ctx.p))
        found[top] = found.get(top, 0) + 1
    for t, cnt in sorted(found.items()):
        expected = len(wd.get(mu - t, []))
        checks.append(check(f"multiplicity_top{t}", cnt == expected,
                            found=cnt, expected=expected))
    total = sum(len(idx) for idx in wd.values()) * ctx.p
    checks.append(check("dimension_count", total == M.dim, total=total, dim=M.dim))
    return report("verma-split", {"mu": mu, "V": V.provenance}, checks)


# ---------------------------------------------------------------------------
# the windowed graded endomorphism category and its twisted product
# ---------------------------------------------------------------------------

class WindowedEnd:
    """Graded End of the shifted projectives over a finite degree window.

    Objects are pairs (mu, lam) with mu in [-radius, radius]: the projective
    P_lam with grading shifted by p^r mu.  Morphisms (mu, lam) -> (mu', lam')
    are the intertwiners P_lam -> P_lam' of raw graded degree p^r (mu - mu').
    The basis per (lam, lam') is canonical: {id, omega} in degree 0 and one
    normalized element in each degree +-p^r; the top-level adjoint action
    makes each Hom space a module with weights (degree / p^r).
    """

    def __init__(self, ctx: FieldCtx, d: FieldElement, radius: int):
        self.ctx = ctx
        self.d = d
        self.radius = radius
        self.p = ctx.p
        self.ext = homology.all_extended_projectives(ctx)
        self.hom, self.classify_ok, self.unexpected = \
            homology.canonical_r1_hom_bases(ctx)
        self.twists = {n: twist_closed_form(ctx, d + ctx.el(n % ctx.p)).coeffs
                       for n in range(-radius - 2, radius + 3)}
        # the same coefficients as a (p, k) array, for the stacked twisted sum
        self._twist_arrs = {n: np.array([a.coeffs for a in A]) for n, A in self.twists.items()}
        self._ladders: dict = {}

    @cached_property
    def pieces(self) -> dict:
        """One Basis per degree piece (lam, lam', degree) a composite can land in.

        Pieces of different degrees are independent, so these are the whole
        basis's coordinates; a piece two steps apart is zero.
        """
        p, ext = self.p, self.ext
        return {(a, c, deg): Basis(vecs(self.ctx, (ext[c].dim, ext[a].dim),
                                        self.hom[(a, c)].get(deg, ())))
                for a in range(p) for c in range(p) for deg in range(-2 * p, 2 * p + 1, p)}

    # -- morphism bookkeeping ------------------------------------------------

    def objects(self) -> list[tuple[int, int]]:
        return [(mu, lam) for mu in range(-self.radius, self.radius + 1)
                for lam in range(self.p)]

    def rep(self, key: tuple, n: int) -> tuple:
        """The first member of key's shift class: its n object degrees (its even
        places) moved down by the largest multiple of p that stays in the window."""
        s = self.p * ((min(key[0:2 * n:2]) + self.radius) // self.p)
        return tuple(k - s * (i < 2 * n and not i % 2) for i, k in enumerate(key)) if s else key

    def mor_basis(self, src, tgt) -> tuple[Matrix, ...]:
        (mu, lam), (mu2, lam2) = src, tgt
        deg = self.p * (mu - mu2)
        return self.hom[(lam, lam2)].get(deg, ())

    # -- the adjoint action and the twisted product --------------------------

    def ad_e(self, lam_a, lam_b, mat: Matrix) -> Matrix:
        return self.ext[lam_b].E[1] @ mat - mat @ self.ext[lam_a].E[1]

    def ad_f(self, lam_a, lam_b, mat: Matrix) -> Matrix:
        return self.ext[lam_b].F[1] @ mat - mat @ self.ext[lam_a].F[1]

    def ladder(self, kind: str, lam_a, lam_b, mat: Matrix) -> np.ndarray:
        """The stack [m, ad m, ..., ad^(p-1) m] for ad = ad_e (kind 'e') or
        ad_f on maps m: P_lam_a -> P_lam_b, built once per kind, labels and m."""
        key = (kind, lam_a, lam_b, mat.arr.tobytes())
        out = self._ladders.get(key)
        if out is None:
            ad = self.ad_e if kind == "e" else self.ad_f
            rungs = [mat]
            while len(rungs) < self.p:
                rungs.append(ad(lam_a, lam_b, rungs[-1]))
            out = self._ladders[key] = np.stack([m.arr for m in rungs])
            out.flags.writeable = False
        return out

    def transfer_grid(self, lam_a, lam_b, x: Matrix) -> np.ndarray:
        """grid[k, i] = ad_f^i ad_e^k x for a map x: P_lam_a -> P_lam_b, read from the ladders."""
        return np.stack([self.ladder("f", lam_a, lam_b, Matrix(self.ctx, ek))
                         for ek in self.ladder("e", lam_a, lam_b, x)])

    def compose_twisted(self, g: Matrix, x: Matrix, lam_a, lam_b, lam_c,
                        mu_mid: int) -> Matrix:
        """sum_k A_k(d + mu_mid) (f^k g) o (e^k x): the deformed composition.

        x is applied first (source morphism), g second; the twist index is
        the grading of the middle object.  All p products are one stacked
        product of g's f-ladder and x's e-ladder.
        """
        ctx = self.ctx
        prods = ctx.arr_matmul(self.ladder("f", lam_b, lam_c, g),
                               self.ladder("e", lam_a, lam_b, x))
        return Matrix(ctx, ctx.arr_mul(prods, self._twist_arrs[mu_mid][:, None, None])
                      .sum(axis=0))


def solve_rescaling(ctx: FieldCtx, d: FieldElement, radius: int) -> dict:
    """Nonzero D^+/D^- on the window satisfying the rescaling recurrence.

    Normalization: D^+ = 1 everywhere and D^- propagated from the left edge
    by D^-_{n+1} = D^-_n / (1 - A_1(n+1)); all factors (1 - A_1(n)) are
    nonzero for a generic weight seed (checked).
    """
    p = ctx.p
    one = ctx.one()
    Dplus = {n: one for n in range(-radius, radius)}
    Dminus = {-radius + 1: one}
    factors = {}
    for n in range(-radius - 1, radius + 2):
        a1 = twist_closed_form(ctx, d + ctx.el(n % p)).coeffs[1]
        factors[n] = one - a1
        if factors[n].is_zero():
            raise ValueError("degenerate twist: 1 - A_1 vanished")
    for n in range(-radius + 1, radius):
        Dminus[n + 1] = Dminus[n] * factors[n + 1].inv()
    # verify the recurrence on the interior
    for n in range(-radius + 1, radius):
        lhs = Dplus[n - 1] * Dminus[n]
        rhs = Dminus[n + 1] * Dplus[n] * factors[n + 1]
        if not (lhs - rhs).is_zero():
            raise ValueError("rescaling recurrence failed")
    return {"plus": Dplus, "minus": Dminus, "one_minus_a1": factors}


def _sigma_multiplier(resc: dict, mu: int, mu2: int, basis_index: int) -> FieldElement:
    """The diagonal rescaling of one canonical basis element.

    Identity components scale by 1; the nilpotent degree-0 element at vertex
    mu scales by t_mu = D^+_{mu-1} D^-_mu (or the equivalent right-edge
    expression); mu-raising elements by D^+_mu, mu-lowering by D^-_mu.
    """
    if mu2 == mu + 1:
        return resc["plus"][mu]
    if mu2 == mu - 1:
        return resc["minus"][mu]
    if mu2 != mu:
        raise ValueError("no rescaling defined for |mu-shift| > 1")
    if basis_index == 0:  # identity
        return resc["one_minus_a1"][mu].ctx.one()
    if (mu - 1) in resc["plus"] and mu in resc["minus"]:
        return resc["plus"][mu - 1] * resc["minus"][mu]
    return resc["minus"][mu + 1] * resc["plus"][mu] * resc["one_minus_a1"][mu + 1]


def _build_bside(ctx: FieldCtx, d: FieldElement, W: WindowedEnd) -> dict:
    """Z_mu^(1) (x) P_lam for every object (mu, lam): built once per mu mod p, and
    for mu - p in the window as the p^2-shift of that object, sharing its matrices."""
    p, out = ctx.p, {}
    for mu, lam in W.objects():
        if (mu - p, lam) in out:
            out[(mu, lam)] = out[(mu - p, lam)].shift_grading(p * p)
        else:
            Z = repcore.frobenius_twist(repcore.baby_verma(ctx, d + ctx.el(mu % p)), 1)
            out[(mu, lam)] = repcore.tensor(Z.shift_grading(p * mu), W.ext[lam])
    return out


def _basis_products(W: WindowedEnd) -> dict:
    """The twisted product of every composable pair of canonical basis morphisms.

    Keyed by (mu, la, mu2, lb, mu3, lc, xi, gi) for x the xi-th basis morphism
    (mu, la) -> (mu2, lb) and g the gi-th one (mu2, lb) -> (mu3, lc).  The
    value is (twisted, X): the columns of X are the exact coordinates of the
    plain product g x and of the twisted one in the canonical basis of
    (mu, la) -> (mu3, lc) (empty two steps apart), or X is None when either
    lies outside that span.  Coordinates are taken once per piece, and per
    pair only when some column of the piece lies outside it.  Both are computed
    once per shift class (`WindowedEnd.rep`).
    """
    objs = W.objects()
    pairs, maps, by_piece = [], {}, {}
    for (mu, la) in objs:
        for (mu2, lb) in objs:
            xs = W.mor_basis((mu, la), (mu2, lb))
            if not xs:
                continue
            for (mu3, lc) in objs:
                gs = W.mor_basis((mu2, lb), (mu3, lc))
                for xi, x in enumerate(xs):
                    for gi, g in enumerate(gs):
                        key = (mu, la, mu2, lb, mu3, lc, xi, gi)
                        pairs.append(key)
                        if W.rep(key, 3) == key:
                            maps[key] = (g @ x, W.compose_twisted(g, x, la, lb, lc, mu2))
                            by_piece.setdefault((la, lc, W.p * (mu - mu3)), []).append(key)
    coords = {}
    for (la, lc, deg), keys in by_piece.items():
        span = W.pieces[(la, lc, deg)]
        shape = (W.ext[lc].dim, W.ext[la].dim)
        X = span.coordinates(vecs(W.ctx, shape, [m for key in keys for m in maps[key]]))
        for i, key in enumerate(keys):
            coords[key] = span.coordinates(vecs(W.ctx, shape, maps[key])) if X is None \
                else Matrix(W.ctx, X.arr[:, 2 * i:2 * i + 2])
    return {key: (maps[rep][1], coords[rep]) for key in pairs for rep in [W.rep(key, 3)]}


def _associativity_sides(W: WindowedEnd, prods: dict):
    """(triple, h(gx), (hg)x) for the first member of each shift class of
    composable basis triples x, g, h; the other members have the same sides.

    The twisted product is bilinear and prods certifies gx = sum_b c_b b and
    hg = sum_b c'_b b exactly, so h(gx) = sum_b c_b h(b) and
    (hg)x = sum_b c'_b b(x) are sums of entries of prods.  Every pair with
    ends src -> tgt sums over the same basis b: src -> tgt, so one product
    C S gives all their sums: row i of C holds the coordinates of pair i and
    the columns of S a part, the maps h(b) for the i-th h: tgt -> o (0, o, i)
    or b(x) for the i-th x: o -> src (1, o, i).  A side is None when gx or
    hg lies outside its span.
    """
    ctx, objs = W.ctx, W.objects()
    n_mor = {(s, t): len(W.mor_basis(s, t)) for s in objs for t in objs}
    triples = [t for key in prods for o in objs for hi in range(n_mor[(key[4:6], o)])
               for t in [key[:6] + o + key[6:] + (hi,)] if W.rep(t, 4) is t]
    sides = {t: [None, None] for t in triples}
    groups: dict = {}   # pair ends -> ({pair: i}, {part: j}, [(triple, side, i, j)])
    for t in triples:
        for side, pair, part in ((0, t[:6] + t[8:10], (0, t[6:8], t[10])),
                                 (1, t[2:8] + t[9:], (1, t[:2], t[8]))):
            if prods[pair][1] is not None:
                rows, parts, wanted = groups.setdefault((pair[:2], pair[4:6]), ({}, {}, []))
                wanted.append((t, side, rows.setdefault(pair, len(rows)),
                               parts.setdefault(part, len(parts))))
    dim = {lam: P.dim for lam, P in W.ext.items()}
    for (src, tgt), (rows, parts, wanted) in groups.items():
        nb = n_mor[(src, tgt)]
        cols = [(dim[o[1]], dim[src[1]], [src + tgt + o + (b, i) for b in range(nb)])
                if side == 0 else
                (dim[tgt[1]], dim[o[1]], [o + src + tgt + (i, b) for b in range(nb)])
                for side, o, i in parts]
        stops = np.cumsum([0] + [r * c for r, c, _ in cols])
        S = np.zeros((nb, stops[-1], ctx.k), dtype=np.int64)
        for (_, _, keys), lo, hi in zip(cols, stops, stops[1:]):
            for b, key in enumerate(keys):
                S[b, lo:hi] = prods[key][0].arr.reshape(hi - lo, ctx.k)
        V = ctx.arr_matmul(np.stack([prods[pair][1].arr[:, 1] for pair in rows]), S)
        for t, side, i, j in wanted:
            r, c, _ = cols[j]
            sides[t][side] = Matrix(ctx, V[i, stops[j]:stops[j + 1]].reshape(r, c, ctx.k))
    for t, (left, right) in sides.items():
        yield t, left, right


def verify_equivalence(ctx: FieldCtx, d: FieldElement, radius: int = 2,
                       seed: int = 0) -> dict:
    """Full structure-constant comparison of the two graded categories.

    (a) graded hom dimensions agree piecewise with the weight spaces;
    (b) the diagonal rescaling turns plain composition into the twisted one
        on every composable pair of canonical basis morphisms;
    (c) the twisted-Verma transfer lands bijectively in the next kernel's
        graded homs with the top projection as inverse, and intertwines the
        twisted product with honest composition there;
    (d) the twisted product is associative on basis triples;
    (e) widening the window by one leaves all interior answers unchanged.
    """
    homology.generic_verma_projectives(ctx, d)
    checks = []
    W = WindowedEnd(ctx, d, radius)
    checks.append(check("basis_classification", W.classify_ok,
                        unexpected=W.unexpected))
    resc = solve_rescaling(ctx, d, radius)
    p = ctx.p
    objs = W.objects()
    bside = _build_bside(ctx, d, W)

    # (a) + (c): dimensions and the transfer Z_mu^(1) (x) P_a -> Z_mu'^(1) (x) P_b
    # (e, f acting on x by the level-1 adjoint action), per object pair with |shift| <= 2;
    # the Hom spaces, transfers and verdicts of a pair are computed once per shift class
    pairs = [o + o2 for o in objs for o2 in objs if abs(o[0] - o2[0]) <= 2]
    reps = {W.rep(pair, 2): (bside[pair[:2]], bside[pair[2:]]) for pair in pairs}
    spaces = dict(zip(reps, homology.hom_spaces(list(reps.values()), degree=0)))
    phi, verdicts = {}, {}
    for pair in pairs:
        mu, lam, mu2, lam2 = pair
        rep = W.rep(pair, 2)
        if rep not in verdicts:     # pair is its class's first member
            amats, BH = W.mor_basis((mu, lam), (mu2, lam2)), spaces[rep]
            out = verdicts[rep] = [("dim", len(amats) == BH.dim,
                                    dict(graded_end=len(amats), next_kernel=BH.dim))]
            phis = phi[rep] = [
                _transfer(ctx, W.twists[mu2], W.transfer_grid(lam, lam2, x)) for x in amats]
            X = BH.coordinates(phis) if phis else None
            for x, ph in zip(amats, phis):
                in_space = X is not None or BH.coordinates([ph]) is not None
                top = Matrix(ctx, ph.arr[0:W.ext[lam2].dim, 0:W.ext[lam].dim]) == x
                out.append(("transfer", in_space and top,
                            dict(in_space=in_space, top_recovers=top)))
            if phis and len(phis) == BH.dim:
                # the Hom basis is independent: coordinates keep the rank
                rank = (X if X is not None else vecs(ctx, BH.shape, phis)).rank()
                out.append(("bijective", rank == BH.dim, dict(rank=rank)))
        phi[pair] = phi[rep]
        checks += [check(f"{kind}_{mu}_{lam}__{mu2}_{lam2}", ok, **details)
                   for kind, ok, details in verdicts[rep]]

    # identity goes to identity: basis element 0 of each End in degree 0
    ok_id = all(W.mor_basis(o, o)[0] == Matrix.identity(ctx, W.ext[o[1]].dim)
                and phi[o + o][0] == Matrix.identity(ctx, bside[o].dim) for o in objs)
    checks.append(check("identity_to_identity", ok_id))

    # (b) + (c-composition) over composable basis pairs
    prods = _basis_products(W)
    spanned = [key for key, (_, X) in prods.items() if X is not None]
    # (b) D_b c_b = D_g D_x t_b, c = coords(g x), t = coords(twisted), on element indices
    mul = ctx._tables[0]
    D = {(mu, mu2, i): ctx.arr_index(_sigma_multiplier(resc, mu, mu2, i)._arr())
         for mu in range(-radius, radius + 1) for mu2 in (mu - 1, mu, mu + 1)
         if abs(mu2) <= radius for i in (0, 1)}
    rows = [(k, b) for k in spanned for b in range(prods[k][1].rows)]
    C = ctx.arr_index(np.concatenate([prods[k][1].arr for k in spanned]
                                     or [np.zeros((0, 2, ctx.k), dtype=np.int64)]))
    Db, Dg, Dx = np.array([(D[k[0], k[4], b], D[k[2], k[4], k[7]], D[k[0], k[2], k[6]])
                           for k, b in rows], dtype=np.int64).reshape(-1, 3).T
    bad = iter(mul[Db, C[:, 0]] != mul[mul[Dg, Dx], C[:, 1]])    # one flag per row
    sigma_fail = [key[:6] + (tail,) for key, (_, X) in prods.items() for tail in (
        ("span",) if X is None else [b for b in range(X.rows) if next(bad)])]
    # (c) Phi(g) Phi(x) = sum_b t_b Phi(b) per class, stacked per (la, lb, lc, number of b)
    groups: dict = {}
    for key in (key for key in spanned if W.rep(key, 3) == key):
        groups.setdefault(key[1:6:2] + (prods[key][1].rows,), []).append(key)
    twist_ok = {}
    for (*_, nb), keys in groups.items():
        Phi = lambda s, t, i: np.stack([phi[k[s:s + 2] + k[t:t + 2]][i(k)].arr for k in keys])
        lhs = ctx.arr_matmul(Phi(2, 4, lambda k: k[7]), Phi(0, 2, lambda k: k[6]))
        rhs = sum(ctx.arr_mul(Phi(0, 4, lambda k: b),
                              np.stack([prods[k][1].arr[b, 1] for k in keys])[:, None, None])
                  for b in range(nb))
        twist_ok.update(zip(keys, ~((lhs - rhs) % ctx.p).any(axis=(1, 2, 3))))
    twist_fail = [key[:6] for key in spanned if not twist_ok[W.rep(key, 3)]]
    checks.append(check("rescaled_structure_constants", not sigma_fail,
                        pairs=len(prods), failures=sigma_fail[:5]))
    checks.append(check("transfer_intertwines_twisted_product", not twist_fail,
                        failures=twist_fail[:5]))

    # (d) associativity of the twisted product on composable basis triples
    assoc_ok = all(left is not None and right is not None and left == right
                   for _, left, right in _associativity_sides(W, prods))
    checks.append(check("twisted_associativity", assoc_ok))

    # explicit composition rules for the mu-moving generators
    rules_ok = True
    for mu in range(-radius, radius):
        for la in range(p - 1):
            lb = p - 2 - la
            ups = W.hom[(la, lb)].get(-p, ())
            downs = W.hom[(lb, la)].get(p, ())
            if not ups or not downs:
                continue
            u, dn = ups[0], downs[0]
            # down-then-up (through mu - 1) is untwisted
            if mu - 1 >= -radius and prods[(mu, lb, mu - 1, la, mu, lb, 0, 0)][0] != u @ dn:
                rules_ok = False
            # up-then-down (through mu + 1) contracts by (1 - A_1)
            factor = resc["one_minus_a1"][mu + 1]
            if prods[(mu, la, mu + 1, lb, mu, la, 0, 0)][0] != (dn @ u).scale(factor):
                rules_ok = False
    checks.append(check("generator_composition_rules", rules_ok))

    # (e) widening stability: the wider window's own twisted products agree, once per class
    W2 = WindowedEnd(ctx, d, radius + 1)
    stable = all(
        W2.compose_twisted(W.mor_basis((mu2, lb), (mu3, lc))[gi],
                           W.mor_basis((mu, la), (mu2, lb))[xi], la, lb, lc, mu2) == twisted
        for (mu, la, mu2, lb, mu3, lc, xi, gi), (twisted, _) in prods.items()
        if W.rep((mu, la, mu2, lb, mu3, lc, xi, gi), 3)[0] == mu)
    checks.append(check("window_widening_stable", stable))

    return report("equivalence",
                  {"p": p, "r": 1, "radius": radius, "d": str(d), "seed": seed},
                  checks)
