"""Pipelines certifying the tensor-factorization structure of the simples.

Covers: the labeled tensor-product simples and their pairwise distinctness,
simplicity of restriction to a smaller kernel, irreducibility over the
enlarged Borel (generated by the lower kernel and the top Borel level), and
the equivalence onto the Steinberg block given by M -> M^(1) (x) St.  The
simples are `repcore.twisted_tensor`s, and the twisted tensor covers are read
from `homology.projective_covers`, or one at a time from
`homology.projective_cover`.
"""

from __future__ import annotations

from .exactfield import FieldCtx, FieldElement
from . import repcore, homology
from .homology import hom_space, is_simple
from .reporting import check, report


def build_simple(ctx: FieldCtx, label: tuple[int, ...], d: FieldElement | None = None,
                 cap: int | None = None) -> repcore.ModuleRep:
    """L_{k_0} (x) L_{k_1}^[1] (x) ... with a simple Verma on top when generic:
    `repcore.twisted_tensor` of the restricted simples, at cap len(label) by default."""
    for k in label:
        if not 0 <= k <= ctx.p - 1:
            raise ValueError(f"invalid digit {k}")
    return repcore.twisted_tensor(ctx, label,
                                  lambda k, c: repcore.simple_restricted(ctx, k, cap=c),
                                  cap if cap is not None else len(label), d, name="L")


def verify_steinberg(ctx: FieldCtx, r: int, d: FieldElement | None = None) -> dict:
    """All p^r labeled products are simple and pairwise non-isomorphic; the
    Hom spaces of all pairs are one `homology.hom_spaces` batch."""
    p = ctx.p
    if d is not None:
        homology.generic_verma_projectives(ctx, d)
    labels = repcore.all_labels(p, r)
    mods = {lab: build_simple(ctx, lab, d=d) for lab in labels}
    checks = []
    dims = {}
    for lab in labels:
        verdict = is_simple(mods[lab])
        dims[str(lab)] = mods[lab].dim
        checks.append(check(f"simple{lab}", verdict is True, verdict=str(verdict)))
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    spaces = homology.hom_spaces([(mods[a], mods[b]) for a, b in pairs])
    for (a, b), H in zip(pairs, spaces):
        checks.append(check(f"distinct{a}|{b}", H.dim == 0, hom_dim=H.dim))
    return report("steinberg", {"p": p, "r": r, "generic": d is not None,
                                "pairs_checked": len(pairs)},
                  checks, tables=[{"name": "simple_dims", "data": dims}])


def verify_restriction_simplicity(ctx: FieldCtx, R: int, r: int) -> dict:
    """Simples with digits supported below r stay simple over the smaller kernel."""
    if not r < R:
        raise ValueError("need r < R")
    p = ctx.p
    checks = []
    for lab in repcore.all_labels(p, r):
        full = lab + (0,) * (R - r)
        M = build_simple(ctx, full, cap=R)
        res = repcore.restrict_levels(M, r)
        verdict = is_simple(res)
        checks.append(check(f"restrict{full}->{r}", verdict is True, verdict=str(verdict)))
    return report("restriction", {"p": p, "R": R, "r": r}, checks)


# ---------------------------------------------------------------------------
# irreducibles over the enlarged Borel
# ---------------------------------------------------------------------------

def hat_borel_irreducibles(ctx: FieldCtx, r: int, d: FieldElement) -> dict:
    """Each top-character extension makes the lower-kernel simple irreducible
    over the subalgebra generated by the lower kernel and the top Borel level.

    The module is the lower simple tensored with the one-dimensional
    character module: the top raising level acts by zero and the top Cartan
    by the scalar d + c, so the operator set is {E_j, F_j (j <= r-2),
    E_{r-1} = 0, H_{r-1} = (d+c) id}.  Needs r >= 2, so that a lower kernel exists.
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    homology.generic_verma_projectives(ctx, d)
    p = ctx.p
    checks = []
    for lab in repcore.all_labels(p, r - 1):
        N = build_simple(ctx, lab, cap=r - 1)
        # E_{r-1} = 0 and H_{r-1} = (d+c) id leave every subspace invariant,
        # so irreducibility over the full set is irreducibility over the lower kernel
        verdict = is_simple(N)
        for c in range(p):
            for name in ("hat_irreducible", "hat_restriction"):
                checks.append(check(f"{name}{lab}+{c}", verdict is True,
                                    verdict=str(verdict)))
        vals = [d + ctx.el(c) for c in range(p)]
        distinct = len({v.coeffs for v in vals}) == p
        checks.append(check(f"hat_extensions_distinct{lab}", distinct,
                            scalars=[str(v) for v in vals]))
    return report("hat-borel", {"p": p, "r": r, "d": str(d)}, checks)


# ---------------------------------------------------------------------------
# the Steinberg-block equivalence
# ---------------------------------------------------------------------------

def steinberg_block_equivalence(ctx: FieldCtx) -> dict:
    """M -> M^(1) (x) St preserves Hom data and carries projectives to the
    Steinberg-block projectives of the next kernel."""
    p = ctx.p
    checks = []
    simples1 = {i: repcore.simple_restricted(ctx, i) for i in range(p)}
    St = repcore.simple_restricted(ctx, p - 1, cap=2)

    def functor(M1: repcore.ModuleRep) -> repcore.ModuleRep:
        return repcore.tensor(repcore.frobenius_twist(M1, 1), St)

    images = {i: functor(simples1[i]) for i in range(p)}
    for i in range(p):
        for j in range(p):
            a = hom_space(simples1[i], simples1[j]).dim
            b = hom_space(images[i], images[j]).dim
            checks.append(check(f"hom_dims_{i}_{j}", a == b, before=a, after=b))
    # L_0 goes to St itself
    iso = homology.is_isomorphic(images[0], St)
    checks.append(check("unit_to_steinberg", iso is not None))

    # projectives: (P_k)^(1) (x) St matches the Steinberg-block cover P_(p-1, k)
    ext = homology.all_extended_projectives(ctx)
    St3 = repcore.simple_restricted(ctx, p - 1, cap=3)
    imgs = [repcore.restrict_levels(repcore.tensor(repcore.frobenius_twist(ext[k], 1), St3), 2)
            for k in range(p)]
    for k, img in enumerate(imgs):
        ref = homology.projective_cover(ctx, (p - 1, k))
        iso = homology.is_isomorphic(img, repcore.restrict_levels(ref, 2))
        checks.append(check(f"projective_match_{k}", iso is not None, dim=img.dim))

    # End(P_0) and End(P_0^(1) (x) St) both two-dimensional
    e1 = hom_space(repcore.restrict_levels(ext[0], 1),
                   repcore.restrict_levels(ext[0], 1)).dim
    e2 = hom_space(imgs[0], imgs[0]).dim
    checks.append(check("end_P0_dims", e1 == e2 == 2, before=e1, after=e2))
    return report("block-equivalence", {"p": p, "r": 1}, checks)


# ---------------------------------------------------------------------------
# projective construction
# ---------------------------------------------------------------------------

def verify_projective_construction(ctx: FieldCtx, r: int,
                                   d: FieldElement | None = None,
                                   seed: int = 0) -> dict:
    """The twisted tensor construction yields indecomposable projectives.

    For every label the construction has the predicted dimension, a simple
    head matching the labeled simple (hence indecomposable: a local
    endomorphism ring), and the graded structure is independent of the
    tensor-factor order (the slot swap is a degree-0 isomorphism).
    """
    p = ctx.p
    if d is not None:
        homology.generic_verma_projectives(ctx, d)
    projs = homology.projective_covers(ctx, r, d=d, seed=seed)
    simples = [(lab, build_simple(ctx, lab, d=d, cap=r))
               for lab in repcore.all_labels(p, r)]
    checks = []
    dims = {}
    for lab, P in projs.items():
        Pr = repcore.restrict_levels(P, r)
        dims[str(lab)] = P.dim
        expected_dim = 1
        for j, k in enumerate(lab):
            top = j == r - 1 and d is not None
            expected_dim *= p if (k == p - 1 or top) else 2 * p
        _, mults = homology.radical_and_head(Pr, simples)
        head_ok = mults == {lab: 1}
        checks.append(check(f"head{lab}", head_ok, head=str(mults)))
        checks.append(check(f"dim{lab}", P.dim == expected_dim,
                            dim=P.dim, expected=expected_dim))
    # graded agreement under reordering the tensor factors (r = 2 case): the
    # cover against its slots swapped; at a generic character at cap 2
    if r == 2:
        ext = homology.all_extended_projectives(ctx)
        for lab in repcore.all_labels(p, 2):
            k0, k1 = lab
            if d is not None:
                A = repcore.restrict_levels(projs[lab], 2)
                top = repcore.baby_verma(ctx, d + ctx.el(k1))
            else:
                A = projs[lab]
                top = repcore.extend_levels(ext[k1], 2)
            B = repcore.tensor(repcore.frobenius_twist(top, 1),
                               repcore.extend_levels(ext[k0], A.cap))
            H0 = homology.hom_space(A, B, degree=0)
            swap_iso = any(b.rank() == A.dim for b in H0.basis)
            checks.append(check(f"graded_swap{lab}", swap_iso,
                                degree0_dim=H0.dim))
    return report("projectives", {"p": p, "r": r, "generic": d is not None,
                                  "seed": seed},
                  checks, tables=[{"name": "projective_dims", "data": dims}])


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def dimension_accounting(ctx: FieldCtx, r: int, seed: int = 0) -> dict:
    """sum over labels of dim(P_label) * dim(L_label) = p^{3r}.

    The covers are built at the caller's seed, so within one call they are
    the ones the projective construction checks; the total does not depend
    on the seed.
    """
    p = ctx.p
    projs = homology.projective_covers(ctx, r, seed=seed)
    total = 0
    for lab, P in projs.items():
        ldim = 1
        for k in lab:
            ldim *= k + 1
        total += P.dim * ldim
    ok = total == p**(3 * r)
    return report("accounting", {"p": p, "r": r},
                  [check("regular_dimension_count", ok, total=total,
                         expected=p**(3 * r))])
