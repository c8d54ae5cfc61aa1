"""Generators and relations of the projective endomorphism algebra, and its center.

The fixed maps at the first-kernel level are: split pairs P_r -> P_{r+-1} (x) V
-> P_r, the isomorphism P_{p-1} (x) V = P_{p-2}, the Steinberg-summand
inclusion V^(1) (x) P_{p-1} -> P_0 (x) V, the contractions
cross_r : V^(1) (x) P_r -> P_{p-2-r}, the two maps phi_min/phi_max :
P_{p-1} -> P_{p-2} (x) V separated by the socle criterion, and
Omega_r = (P_r ->> L_r -> P_r).  All diagram identities among them hold up
to nonzero constants which depend on the splitting choices, so they are
measured and reported per instance, never assumed.

At the second kernel the generators act on two tensor slots: level-0
generators move the top digit by one and flip the bottom digit through the
cross maps; level-1 generators act by the degree +-p^2 hom on the top slot.
Level-ordered monomials span the full endomorphism algebra degree by degree
(composites crossing the Steinberg top digit fix the orientation of the
order; see verify_generation), and the center of a regular block is spanned
by the block idempotent together with the elements acting by Omega on an
initial digit string with a first-kernel block idempotent just above it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .exactfield import Basis, FieldCtx, FieldElement, Matrix, rref_join, vec, vecs
from . import memo, repcore, homology
from .reporting import check, report


# ---------------------------------------------------------------------------
# slot permutation helper
# ---------------------------------------------------------------------------

def perm_matrix(ctx: FieldCtx, dims: list[int], perm: list[int]) -> Matrix:
    """Permutation matrix reordering tensor slots: output slot t = input slot perm[t]."""
    # source[o] is the input index whose slot perm[t] holds slot t of output index o
    source = np.arange(int(np.prod(dims))).reshape(dims).transpose(perm).reshape(-1)
    M = np.zeros((source.size, source.size, ctx.k), dtype=np.int64)
    M[np.arange(source.size), source, 0] = 1
    return Matrix(ctx, M)


def proportionality(a: Matrix, b: Matrix) -> FieldElement | None:
    """The scalar c with a = c*b, or None if not proportional (b must be nonzero)."""
    if b.is_zero():
        return None
    flat = np.nonzero(b.arr.any(axis=-1).reshape(-1))[0]
    i, j = divmod(int(flat[0]), b.cols)
    c = a.entry(i, j) * b.entry(i, j).inv()
    return c if a == b.scale(c) else None


# ---------------------------------------------------------------------------
# the fixed first-kernel maps
# ---------------------------------------------------------------------------

@dataclass
class EndGenerator:
    kind: str
    level: int
    source: tuple
    target: tuple
    matrix: Matrix


class FixedMaps:
    """Deterministic choices of all first-kernel structure maps (cap 2).

    `fixed_maps` shares one instance with every caller of a memo scope, so
    its mappings are read-only and `omega_factor_checks` is a tuple.
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.p = ctx.p
        p = ctx.p
        self.ext = homology.all_extended_projectives(ctx)
        self.bases, self.classify_ok, self.unexpected = \
            homology.canonical_r1_hom_bases(ctx)
        self.V = repcore.simple_restricted(ctx, 1, cap=2)
        self.V1 = repcore.frobenius_twist(repcore.simple_restricted(ctx, 1), 1)
        # the invariant pairing L_1 (x) L_1 -> k: x_+ (x) x_- - x_- (x) x_+
        self.pair = Matrix.from_int_rows(ctx, [[0, 1, -1, 0]])
        # every structure map runs between P_k, P_k (x) V and V^(1) (x) P_k
        self.ext_V = {k: repcore.tensor(P, self.V) for k, P in self.ext.items()}
        self.V1_ext = {k: repcore.tensor(self.V1, P) for k, P in self.ext.items()}

        self.omega = {r: self.bases[(r, r)][0][1] for r in range(p - 1)}
        self.up = {r: self.bases[(r, p - 2 - r)][-p][0] for r in range(p - 1)}
        self.down = {r: self.bases[(r, p - 2 - r)][p][0] for r in range(p - 1)}

        self.cross = {r: self._solve_cross(r) for r in range(p - 1)}
        self.split_in: dict[tuple[int, int], Matrix] = {}
        self.split_out: dict[tuple[int, int], Matrix] = {}
        for r in range(p - 1):
            for s in (+1, -1):
                if 0 <= r + s <= p - 2:
                    self._solve_splitting(r, s)
        self.iso_st = self._solve_iso_st()          # P_{p-1} (x) V -> P_{p-2}
        self.iso_st_inv = self.iso_st.inverse()     # P_{p-2} -> P_{p-1} (x) V
        self.split_in[(p - 2, +1)] = self.iso_st_inv
        self.split_out[(p - 2, +1)] = self.iso_st
        self.stein = self._solve_stein()            # V^(1) (x) P_{p-1} -> P_0 (x) V
        self.phi_min, self.phi_max = self._solve_phis()
        self.omega_factor_checks = self._omega_factorization()
        for name in ("ext", "ext_V", "V1_ext", "omega", "up", "down", "cross",
                     "split_in", "split_out"):
            setattr(self, name, MappingProxyType(getattr(self, name)))

    # -- solved maps -------------------------------------------------------

    def _solve_cross(self, r: int) -> Matrix:
        H = homology.hom_space(self.V1_ext[r], self.ext[self.p - 2 - r])
        if H.dim != 1:
            raise homology.Inconclusive(f"cross map space at {r} has dim {H.dim}")
        return homology.normalize_first_entry(H.basis[0])

    def _solve_splitting(self, r: int, s: int):
        """A split pair P_r -> P_{r+s} (x) V -> P_r with composite exactly id."""
        ctx = self.ctx
        Pr = self.ext[r]
        T = self.ext_V[r + s]
        Hin = homology.hom_space(Pr, T)
        Hout = homology.hom_space(T, Pr)
        ident = Matrix.identity(ctx, Pr.dim)
        om = self.omega[r]
        for bi in Hin.basis:
            for bo in Hout.basis:
                comp = bo @ bi
                # comp = alpha id + beta omega; need alpha != 0
                alpha = homology.single_eigenvalue(comp)
                if alpha.is_zero():
                    continue
                bi2 = bi.scale(alpha.inv())
                comp2 = bo @ bi2
                beta_part = comp2 - ident
                # (id + n)^(-1) = id - n for square-zero n
                corrected = (ident - beta_part) @ bo
                if (corrected @ bi2) == ident:
                    self.split_in[(r, s)] = bi2
                    self.split_out[(r, s)] = corrected
                    return
        raise homology.Inconclusive(f"no splitting P_{r} -> P_{r+s} (x) V")

    def _solve_iso_st(self) -> Matrix:
        p = self.p
        iso = homology.is_isomorphic(self.ext_V[p - 1], self.ext[p - 2])
        if iso is None:
            raise homology.Inconclusive("no isomorphism P_{p-1} (x) V = P_{p-2}")
        return homology.normalize_first_entry(iso)

    def _solve_stein(self) -> Matrix:
        """Split inclusion of V^(1) (x) P_{p-1} into P_0 (x) V."""
        p = self.p
        src, tgt = self.V1_ext[p - 1], self.ext_V[0]
        Hin = homology.hom_space(src, tgt)
        Hout = homology.hom_space(tgt, src)
        for bi in Hin.basis:
            for bo in Hout.basis:
                comp = bo @ bi
                if comp.rank() == src.dim:
                    return bi
        raise homology.Inconclusive("Steinberg summand inclusion not found")

    def _phi_square(self, phi: Matrix) -> Matrix:
        """(id (x) pair) . (phi (x) id_V) . iso_st_inv  in  End(P_{p-2})."""
        p = self.p
        Pq = self.ext[p - 2]
        lhs = Matrix.identity(self.ctx, Pq.dim).kron(self.pair)
        return lhs @ phi.kron(Matrix.identity(self.ctx, 2)) @ self.iso_st_inv

    def _solve_phis(self) -> tuple[Matrix, Matrix]:
        """Separate Hom(P_{p-1}, P_{p-2} (x) V) by the socle criterion.

        The square composite of phi_min is a multiple of Omega (lands in the
        socle); phi_max has an invertible composite.
        """
        p = self.p
        ctx = self.ctx
        H = homology.hom_space(self.ext[p - 1], self.ext_V[p - 2])
        if H.dim != 2:
            raise homology.Inconclusive(f"phi space has dim {H.dim}")
        b0, b1 = H.basis
        a0 = homology.single_eigenvalue(self._phi_square(b0))
        a1 = homology.single_eigenvalue(self._phi_square(b1))
        # the id-coefficient is linear: kill it for phi_min
        if a0.is_zero():
            phi_min, phi_max = b0, b1
        elif a1.is_zero():
            phi_min, phi_max = b1, b0
        else:
            phi_min = b0.scale(a0.inv()) - b1.scale(a1.inv())
            phi_max = b0
        if self._phi_square(phi_min).is_zero() or \
           not homology.single_eigenvalue(self._phi_square(phi_min)).is_zero():
            raise homology.Inconclusive("socle criterion failed to separate")
        return (homology.normalize_first_entry(phi_min),
                homology.normalize_first_entry(phi_max))

    def _omega_factorization(self) -> tuple[tuple[int, bool], ...]:
        """Omega agrees with the composite P_r ->> L_r -> P_r up to a scalar."""
        out = []
        for r in range(self.p - 1):
            Pr = repcore.restrict_levels(self.ext[r], 1)
            L = repcore.simple_restricted(self.ctx, r)
            pi = homology.hom_space(Pr, L)
            io = homology.hom_space(L, Pr)
            ok = (pi.dim == 1 and io.dim == 1 and
                  proportionality(io.basis[0] @ pi.basis[0], self.omega[r]) is not None)
            out.append((r, ok))
        return tuple(out)


@memo.memoised
def fixed_maps(ctx: FieldCtx) -> FixedMaps:
    """The FixedMaps of ctx, built once per call scope."""
    return FixedMaps(ctx)


# ---------------------------------------------------------------------------
# first-kernel relation diagrams
# ---------------------------------------------------------------------------

def verify_relations_level1(fm: FixedMaps) -> list[dict]:
    """All structure-map diagrams at the first-kernel level, scalars measured."""
    ctx = fm.ctx
    p = fm.p
    checks = []
    I2 = Matrix.identity(ctx, 2)

    def ipd(r):
        return Matrix.identity(ctx, fm.ext[r].dim)

    # cross/splitting squares
    for r in range(p - 1):
        for s in (+1, -1):
            if not 0 <= r + s <= p - 2:
                continue
            left = Matrix.identity(ctx, 2).kron(fm.split_in[(r, s)])
            a = fm.cross[r + s].kron(I2) @ left
            b = fm.split_in[(p - 2 - r, -s)] @ fm.cross[r]
            c = proportionality(a, b)
            checks.append(check(f"cross_square_r{r}_s{s:+d}",
                                c is not None and not c.is_zero(),
                                scalar=str(c)))

    # Omega-defining square: cross_{p-2-r} . (id (x) cross_r) vs Omega_r . (pair (x) id)
    for r in range(p - 1):
        a = fm.cross[p - 2 - r] @ I2.kron(fm.cross[r])
        b = fm.omega[r] @ fm.pair.kron(ipd(r))
        c = proportionality(a, b)
        checks.append(check(f"omega_square_r{r}",
                            c is not None and not c.is_zero(), scalar=str(c)))

    # phi definitions: square composite of phi_min is a nonzero multiple of
    # Omega_{p-2}, of phi_max a nonzero multiple of the identity plus Omega
    sq_min = fm._phi_square(fm.phi_min)
    c = proportionality(sq_min, fm.omega[p - 2])
    checks.append(check("phi_min_square_omega", c is not None and not c.is_zero(),
                        scalar=str(c)))
    alpha = homology.single_eigenvalue(fm._phi_square(fm.phi_max))
    checks.append(check("phi_max_square_invertible", not alpha.is_zero(),
                        id_part=str(alpha)))

    # phi_min socle square
    a = fm.cross[0].kron(I2) @ I2.kron(fm.stein)
    b = fm.phi_min @ fm.pair.kron(ipd(p - 1))
    c = proportionality(a, b)
    checks.append(check("phi_min_socle_square", c is not None and not c.is_zero(),
                        scalar=str(c)))

    # phi_max triangle through the Steinberg summand
    a = fm.cross[p - 2].kron(I2) @ I2.kron(fm.phi_max)
    c = proportionality(a, fm.stein)
    checks.append(check("phi_max_triangle", c is not None and not c.is_zero(),
                        scalar=str(c)))

    # the xi functional P_{p-2} (x) V -> P_{p-1} distinguishes the phis:
    # exactly one direction of the 2-dim space survives
    xi = ipd(p - 1).kron(fm.pair) @ fm.iso_st_inv.kron(I2)
    smin = proportionality(xi @ fm.phi_min, ipd(p - 1))
    smax = proportionality(xi @ fm.phi_max, ipd(p - 1))
    checks.append(check("phi_pair_projection",
                        smax is not None and not smax.is_zero(),
                        phi_max_scalar=str(smax), phi_min_scalar=str(smin)))

    # theta squares: P_s -> P_{s+t} (x) V -> P_s (x) V (x) V -> P_s
    for s0 in range(p - 1):
        for t in (+1, -1):
            mid = s0 + t
            if not 0 <= mid <= p - 2:
                continue
            for t2 in (+1, -1):
                end = mid + t2
                if not 0 <= end <= p - 2:
                    continue
                comp = ipd(end).kron(fm.pair) \
                    @ fm.split_in[(mid, t2)].kron(I2) @ fm.split_in[(s0, t)]
                if end == s0:
                    a = homology.single_eigenvalue(comp)
                    # coordinates in End(P_s0) = span{id, omega}
                    X = Basis(vecs(ctx, comp.shape, [ipd(s0), fm.omega[s0]])).coordinates(vec(comp))
                    checks.append(check(f"theta_auto_s{s0}_t{t:+d}",
                                        X is not None and not a.is_zero(),
                                        id_part=str(a),
                                        omega_part=str(X.entry(1, 0)) if X is not None else None))
                else:
                    checks.append(check(f"theta_zero_s{s0}_to{end}",
                                        comp.is_zero()))

    # Omega kills the cross maps on both sides
    for r in range(p - 1):
        pre = fm.cross[r] @ I2.kron(fm.omega[r])
        post = fm.omega[p - 2 - r] @ fm.cross[r]
        checks.append(check(f"omega_annihilates_cross_r{r}",
                            pre.is_zero() and post.is_zero()))
    return checks


# ---------------------------------------------------------------------------
# second-kernel generators
# ---------------------------------------------------------------------------

class KernelTwoAlgebra:
    """Objects, generators and hom spaces for the second Frobenius kernel; the
    objects are `homology.projective_covers(ctx, 2)` restricted to two levels."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.p = ctx.p
        self.fm = fixed_maps(ctx)
        self.labels = repcore.all_labels(ctx.p, 2)
        self.restricted = {lab: repcore.restrict_levels(P, 2)
                           for lab, P in homology.projective_covers(ctx, 2).items()}
        self.generators = self._build_generators()

    def dims(self, lab) -> tuple[int, int]:
        k0, k1 = lab
        return self.fm.ext[k0].dim, self.fm.ext[k1].dim

    def _slot1_map_variants(self, k1: int, t: int) -> list[tuple[str, Matrix]]:
        """Maps P_{k1} -> P_{k1+t} (x) V by kind (splitting, iso, or the phis)."""
        p = self.p
        fm = self.fm
        if k1 == p - 1 and t == -1:
            return [("phi_min", fm.phi_min), ("phi_max", fm.phi_max)]
        if 0 <= k1 <= p - 2 and 0 <= k1 + t <= p - 2:
            return [("split", fm.split_in[(k1, t)])]
        if k1 == p - 2 and t == +1:
            return [("iso", fm.iso_st_inv)]
        return []

    def _build_generators(self) -> list[EndGenerator]:
        ctx = self.ctx
        p = self.p
        fm = self.fm
        gens: list[EndGenerator] = []
        for (k0, k1) in self.labels:
            d0, d1 = self.dims((k0, k1))
            # level-1 (top) generators: id (x) (up/down on the twisted slot)
            if k1 <= p - 2:
                tgt = (k0, p - 2 - k1)
                gens.append(EndGenerator("top_up", 1, (k0, k1), tgt,
                                         Matrix.identity(ctx, d0).kron(fm.up[k1])))
                gens.append(EndGenerator("top_down", 1, (k0, k1), tgt,
                                         Matrix.identity(ctx, d0).kron(fm.down[k1])))
            # Omegas per slot
            if k0 <= p - 2:
                gens.append(EndGenerator("omega0", 0, (k0, k1), (k0, k1),
                                         fm.omega[k0].kron(Matrix.identity(ctx, d1))))
            if k1 <= p - 2:
                gens.append(EndGenerator("omega1", 1, (k0, k1), (k0, k1),
                                         Matrix.identity(ctx, d0).kron(fm.omega[k1])))
            # level-0 generators: move k1 by t, flip k0 through a cross map
            if k0 > p - 2:
                continue
            for t in (+1, -1):
                if not 0 <= k1 + t <= p - 1:
                    continue
                for kind, m1 in self._slot1_map_variants(k1, t):
                    tgt = (p - 2 - k0, k1 + t)
                    mat = self._level0_matrix(k0, k1, t, m1)
                    gens.append(EndGenerator(f"level0_{kind}", 0, (k0, k1), tgt,
                                             mat))
        return gens

    def _level0_matrix(self, k0: int, k1: int, t: int, m1: Matrix) -> Matrix:
        """(cross_{k0} (x) id) . swap . (id (x) m1^(1)) on P_{k0} (x) P_{k1}^(1)."""
        ctx = self.ctx
        fm = self.fm
        d0 = fm.ext[k0].dim
        d1t = fm.ext[k1 + t].dim
        step1 = Matrix.identity(ctx, d0).kron(m1)    # -> P_{k0} (x) P_{k1+t}^(1) (x) V^(1)
        swap = perm_matrix(ctx, [d0, d1t, 2], [2, 0, 1])
        step2 = fm.cross[k0].kron(Matrix.identity(ctx, d1t))
        return step2 @ swap @ step1

    def gens_between(self, src, tgt, kinds=None) -> list[EndGenerator]:
        return [g for g in self.generators
                if g.source == src and g.target == tgt
                and (kinds is None or g.kind in kinds)]


def verify_relations_level2(K: KernelTwoAlgebra) -> list[dict]:
    """Grid relations between the level-0 and level-1 generators."""
    p = K.p
    ctx = K.ctx
    fm = K.fm
    checks = []

    # adjacent-level squares: top generator commutes with a level-0 generator
    # up to a nonzero constant (per matching direction and phi-kind)
    for (k0, k1) in K.labels:
        if k0 > p - 2:
            continue
        for t in (+1, -1):
            if not 0 <= k1 + t <= p - 1:
                continue
            for g0 in K.gens_between((k0, k1), (p - 2 - k0, k1 + t)):
                if g0.level != 0:
                    continue
                for direction in ("top_up", "top_down"):
                    tops_after = K.gens_between((p - 2 - k0, k1 + t),
                                                (p - 2 - k0, p - 2 - k1 - t),
                                                kinds=[direction])
                    tops_before = K.gens_between((k0, k1), (k0, p - 2 - k1),
                                                 kinds=[direction])
                    g0_after = K.gens_between((k0, p - 2 - k1),
                                              (p - 2 - k0, p - 2 - k1 - t),
                                              kinds=[g0.kind])
                    if not (tops_after and tops_before and g0_after):
                        continue
                    A = tops_after[0].matrix @ g0.matrix
                    B = g0_after[0].matrix @ tops_before[0].matrix
                    c = proportionality(A, B)
                    checks.append(check(
                        f"grid_{k0}_{k1}_t{t:+d}_{g0.kind}_{direction}",
                        c is not None and not c.is_zero(), scalar=str(c)))

    # same-level-0 composites: net +-2 vanish; net 0 give Omega (x) theta, read in
    # span{Omega_k0 (x) id, Omega_k0 (x) Omega_k1} (no Omega_k1 at k1 = p - 1)
    theta_span = {}
    for (k0, k1) in K.labels:
        if k0 <= p - 2:
            mats = [fm.omega[k0].kron(Matrix.identity(ctx, fm.ext[k1].dim))]
            if k1 <= p - 2:
                mats.append(fm.omega[k0].kron(fm.omega[k1]))
            theta_span[(k0, k1)] = Basis(vecs(ctx, mats[0].shape, mats))
    for (k0, k1) in K.labels:
        if k0 > p - 2:
            continue
        for t1 in (+1, -1):
            if not 0 <= k1 + t1 <= p - 1:
                continue
            for g1 in K.gens_between((k0, k1), (p - 2 - k0, k1 + t1)):
                if g1.level != 0:
                    continue
                for t2 in (+1, -1):
                    end = k1 + t1 + t2
                    if not 0 <= end <= p - 1:
                        continue
                    for g2 in K.gens_between((p - 2 - k0, k1 + t1), (k0, end)):
                        if g2.level != 0:
                            continue
                        M = g2.matrix @ g1.matrix
                        name = f"level0_pair_{k0}_{k1}_{t1:+d}{t2:+d}_{g1.kind}_{g2.kind}"
                        if end != k1:
                            checks.append(check(name + "_vanish", M.is_zero()))
                            continue
                        X = theta_span[(k0, k1)].coordinates(vec(M))
                        coeffs = None if X is None else \
                            [X.entry(0, 0), X.entry(1, 0) if X.rows > 1 else ctx.zero()]
                        through_st = (k1 + t1 == p - 1)
                        if not through_st:
                            ok = coeffs is not None and not coeffs[0].is_zero()
                            checks.append(check(name + "_omega_theta", ok,
                                                id_part=str(coeffs[0]) if coeffs else None,
                                                omega_part=str(coeffs[1]) if coeffs else None))
                        else:
                            # through the Steinberg slot: the phi-kind decides
                            # whether the theta part is invertible or radical
                            ok = coeffs is not None
                            via_min = any(k.endswith("phi_min")
                                          for k in (g1.kind, g2.kind))
                            if ok and via_min:
                                ok = coeffs[0].is_zero() and not coeffs[1].is_zero()
                            elif ok:
                                ok = not coeffs[0].is_zero()
                            checks.append(check(name + "_steinberg", ok,
                                                id_part=str(coeffs[0]) if coeffs else None,
                                                omega_part=str(coeffs[1]) if coeffs else None))

    # disjoint-slot commutation is exact; Omega annihilates same-slot movers
    for g in K.generators:
        if g.level == 1 and g.kind in ("top_up", "top_down"):
            k0, k1 = g.source
            if k0 <= p - 2:
                om_src = K.gens_between(g.source, g.source, kinds=["omega0"])
                om_tgt = K.gens_between(g.target, g.target, kinds=["omega0"])
                if om_src and om_tgt:
                    ok = (g.matrix @ om_src[0].matrix) == (om_tgt[0].matrix @ g.matrix)
                    checks.append(check(f"disjoint_slots_{g.source}_{g.kind}", ok))
            om1_src = K.gens_between(g.source, g.source, kinds=["omega1"])
            om1_tgt = K.gens_between(g.target, g.target, kinds=["omega1"])
            if om1_src:
                ok = (g.matrix @ om1_src[0].matrix).is_zero()
                checks.append(check(f"omega_kills_top_pre_{g.source}_{g.kind}", ok))
            if om1_tgt:
                ok = (om1_tgt[0].matrix @ g.matrix).is_zero()
                checks.append(check(f"omega_kills_top_post_{g.source}_{g.kind}", ok))
    return checks


def verify_relations(ctx: FieldCtx, r: int) -> dict:
    fm_checks: list[dict]
    if r == 1:
        fm = fixed_maps(ctx)
        fm_checks = verify_relations_level1(fm)
        fm_checks.append(check("hom_classification", fm.classify_ok,
                               unexpected=fm.unexpected))
        fm_checks.extend(check(f"omega_factors_P{r0}", ok)
                         for r0, ok in fm.omega_factor_checks)
    elif r == 2:
        K = KernelTwoAlgebra(ctx)
        fm_checks = verify_relations_level1(K.fm)
        fm_checks.extend(verify_relations_level2(K))
    else:
        raise ValueError("relations are instantiated for r in {1, 2}")
    return report("relations", {"p": ctx.p, "r": r}, fm_checks)


# ---------------------------------------------------------------------------
# generation / monomial span
# ---------------------------------------------------------------------------

def _span_closure(ctx: FieldCtx, gradings: dict, gens_by_level, max_level: int) -> dict:
    """Span dimension per degree of level-ordered monomials, per (source, target) pair.

    Monomials apply generators of the highest level first and lower levels
    later (reading a composite left to right along the arrows gives
    non-decreasing levels); they start at the identities of the objects,
    graded by `gradings`.  Per pair the span is kept as the RREF rows of the
    flattened maps.  Stage l, from the top level down, runs rounds: the rows
    the last round added (at the start of the stage, every row) are
    post-composed with each level-l generator, one stacked product per pair
    and generator, and each pair joins its images once by `rref_join`,
    until a round adds nothing.  Every generator is homogeneous (checked
    here), so every monomial is too; distinct degrees have disjoint
    supports, so each RREF row lies in one degree, that of its pivot entry.
    """
    for g in (g for gs in gens_by_level.values() for g in gs):
        rows, cols = np.nonzero(g.matrix.arr.any(axis=-1))
        if np.unique(gradings[g.target][rows] - gradings[g.source][cols]).size > 1:
            raise homology.InvariantError(
                f"generation: generator {g.kind} {g.source} -> {g.target} is not homogeneous")
    # a flattened identity is one RREF row with its pivot at entry (0, 0)
    spans = {(o, o): (Matrix._own(ctx, Matrix.identity(ctx, g.size).arr.reshape(1, -1, ctx.k)), [0])
             for o, g in gradings.items()}
    for level in range(max_level, -1, -1):
        fresh = {key: R for key, (R, _) in spans.items() if R.rows}
        while fresh:
            images: dict[tuple, list] = {}
            for (src, mid), R in fresh.items():
                stack = R.arr.reshape(R.rows, gradings[mid].size, gradings[src].size, ctx.k)
                for g in gens_by_level.get(level, []):
                    if g.source == mid:
                        images.setdefault((src, g.target), []).append(
                            ctx.arr_matmul(g.matrix.arr, stack).reshape(R.rows, -1, ctx.k))
            fresh = {}
            for key, imgs in images.items():
                V = Matrix._own(ctx, np.concatenate(imgs))
                R, pivots, new = rref_join(*spans.get(key, (Matrix.zeros(ctx, 0, V.cols), [])), V)
                spans[key] = R, pivots
                if new.rows:
                    fresh[key] = new
    return {(a, b): dict(Counter(np.subtract.outer(gradings[b], gradings[a]).ravel()[pivots].tolist()))
            for (a, b), (_, pivots) in spans.items()}


def verify_generation(ctx: FieldCtx, r: int) -> dict:
    """The generators span the full End algebra, degree by degree.

    Two properties are verified: the generated subalgebra (unordered
    products) equals End, and level-ordered monomials already suffice.  At
    the second kernel a composite crossing the Steinberg top digit admits
    only one of the two monotone level orders (the reordering square would
    need an object with a digit above the Steinberg one), so the ordered
    check accepts either orientation and itemizes which pairs needed the
    reversed one.
    """
    p = ctx.p
    checks = []
    if r == 1:
        fm = fixed_maps(ctx)
        objects = list(range(p))
        mods = {i: repcore.restrict_levels(fm.ext[i], 1) for i in range(p)}
        by_level = {0: [EndGenerator(kind, 0, i, i if kind == "omega" else p - 2 - i, maps[i])
                        for i in range(p - 1)
                        for kind, maps in (("omega", fm.omega), ("up", fm.up), ("down", fm.down))]}
    elif r == 2:
        K = KernelTwoAlgebra(ctx)
        objects = K.labels
        mods = K.restricted
        by_level = {level: [g for g in K.generators if g.level == level] for level in (0, 1)}
    else:
        raise ValueError("generation is instantiated for r in {1, 2}")

    gradings = {o: mods[o].grading for o in objects}
    max_level = max(by_level)
    span_hi = _span_closure(ctx, gradings, by_level, max_level)
    all_gens = {0: [g for gs in by_level.values() for g in gs]}
    span_free = _span_closure(ctx, gradings, all_gens, 0)
    span_lo = None

    total_gen, total_ord, total_full = 0, 0, 0
    reversed_pairs = []
    for a in objects:
        for b in objects:
            H = homology.hom_space(mods[a], mods[b])
            want = dict(Counter(H.degrees))
            got_free = span_free.get((a, b), {})
            got_hi = span_hi.get((a, b), {})
            total_full += H.dim
            total_gen += sum(got_free.values())
            ok_gen = got_free == want
            ok_ord = got_hi == want
            if not ok_ord and ok_gen:
                if span_lo is None:
                    lo_levels = {max_level - l: gs for l, gs in by_level.items()}
                    span_lo = _span_closure(ctx, gradings, lo_levels, max_level)
                ok_ord = span_lo.get((a, b), {}) == want
                if ok_ord:
                    reversed_pairs.append((a, b))
            total_ord += H.dim if ok_ord else sum(got_hi.values())
            if H.dim or not (ok_gen and ok_ord):
                checks.append(check(f"span_{a}_{b}", ok_gen and ok_ord,
                                    generated=got_free, ordered_ok=ok_ord, full=want))
    checks.append(check("generated_total", total_gen == total_full,
                        generated=total_gen, full=total_full))
    checks.append(check("ordered_total", total_ord == total_full,
                        ordered=total_ord, full=total_full,
                        pairs_needing_reversed_order=reversed_pairs))
    return report("generation", {"p": p, "r": r}, checks)


# ---------------------------------------------------------------------------
# the center
# ---------------------------------------------------------------------------

def _predicted_center(ctx: FieldCtx, r: int, block: list[tuple],
                      fm: FixedMaps, mods: dict) -> list[dict]:
    """The predicted spanning set: block idempotent plus Omega-string elements.

    An element is indexed by a level l, a digit string (k_0, ..., k_l) with
    all digits below the Steinberg one, and (when slot l+1 exists) a
    first-kernel block selecting the digit there.  It acts by
    Omega_{k_0} (x) ... (x) Omega_{k_l} (x) id on the matching projectives
    and by zero elsewhere.
    """
    p = ctx.p
    first_blocks = sorted({tuple(sorted({k, p - 2 - k})) for k in range(p - 1)})
    first_blocks = first_blocks + [(p - 1,)]
    out = [{lab: Matrix.identity(ctx, mods[lab].dim) for lab in block}]
    for level in range(r):
        strings = sorted({lab[:level + 1] for lab in block
                          if all(k <= p - 2 for k in lab[:level + 1])})
        selectors: list[tuple] = [()] if level + 1 >= r else list(first_blocks)
        for s in strings:
            for sel in selectors:
                elem = {}
                nonzero = False
                for lab in block:
                    match = lab[:level + 1] == s and \
                        (not sel or lab[level + 1] in sel)
                    if not match:
                        elem[lab] = Matrix.zeros(ctx, mods[lab].dim, mods[lab].dim)
                        continue
                    m = None
                    for j, k in enumerate(lab):
                        part = fm.omega[k] if j <= level \
                            else Matrix.identity(ctx, fm.ext[k].dim)
                        m = part if m is None else m.kron(part)
                    elem[lab] = m
                    nonzero = True
                if nonzero:
                    out.append(elem)
    return out


def verify_center(ctx: FieldCtx, r: int, block_of: tuple | None = None) -> dict:
    """Computed center of each block algebra vs the predicted Omega-string span.

    Blocks whose bottom digit is the Steinberg one carry no Omega strings;
    per the equivalence onto the Steinberg block their center dimension is
    compared against the matched lower-kernel block instead.
    """
    p = ctx.p
    checks = []
    if r == 1:
        fm = fixed_maps(ctx)
        mods = {(i,): repcore.restrict_levels(fm.ext[i], 1) for i in range(p)}
        labels = [(i,) for i in range(p)]
    elif r == 2:
        K = KernelTwoAlgebra(ctx)
        fm = K.fm
        mods = K.restricted
        labels = K.labels
    else:
        raise ValueError("center is instantiated for r in {1, 2}")

    blks = homology.blocks({lab: mods[lab] for lab in labels})
    if block_of is not None:
        blks = [b for b in blks if block_of in b]
    tables = []
    for blk in blks:
        E = homology.EndAlgebra([(lab, mods[lab]) for lab in blk])
        zbasis = E.center()
        name = "block" + "".join(str(list(lab)).replace(" ", "") for lab in blk)
        tables.append({"name": f"center_dim_{name}", "data": {"dim": len(zbasis)}})
        for z in zbasis:
            checks.append(check(f"{name}_central_verified", E.element_is_central(z)))
        steinberg_bottom = any(lab[0] == p - 1 for lab in blk)
        if steinberg_bottom and r > 1:
            # matched block of the previous kernel after stripping the bottom digit
            expected = 1 + sum(1 for lab in blk
                               if all(k <= p - 2 for k in lab[1:]))
            checks.append(check(f"{name}_dim_via_equivalence",
                                len(zbasis) == expected,
                                computed=len(zbasis), expected=expected))
            continue
        pred = _predicted_center(ctx, r, blk, fm, mods)
        for i, z in enumerate(pred):
            checks.append(check(f"{name}_predicted_{i}_central",
                                E.element_is_central(z)))

        def flatten(z):
            return Matrix.vstack([vec(z[lab]) for lab in blk])

        Zmat = Matrix.hstack([flatten(z) for z in zbasis]) if zbasis else None
        Pmat = Matrix.hstack([flatten(z) for z in pred])
        if Zmat is not None:
            ranks = Zmat.rank(), Pmat.rank(), Matrix.hstack([Zmat, Pmat]).rank()
            checks.append(check(f"{name}_span_equality", len(set(ranks)) == 1,
                                computed=ranks[0], predicted=ranks[1], joint=ranks[2]))
        else:
            checks.append(check(f"{name}_span_equality", False, computed=0))
    return report("center", {"p": p, "r": r}, checks, tables=tables)
