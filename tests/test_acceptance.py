"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact arithmetic over finite fields, so every comparison is
equality with zero tolerance.  Expected runtime: the p=3 instances take well
under two minutes combined; the p=5 additions stay within the quarter-hour
budget.
"""

from collections import Counter

import numpy as np
import pytest

from sl2frob.exactfield import FieldCtx, Matrix
from sl2frob import repcore, homology, steinberg as SB, vermatwist as VT, endpresent as EP
from sl2frob.smallalg import UChiAlgebra, regular_module
from summand_labels import identify_summands


def _line(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _generic_seeds(ctx, count):
    out = []
    for idx in range(ctx.q):
        cand = ctx.from_index(idx)
        if not cand.in_prime_field():
            out.append(cand)
        if len(out) == count:
            break
    return out


def test_criterion_01_twist_coefficients():
    ok = True
    for p in (3, 5, 7):
        ctx = FieldCtx(p, 2)
        for d in _generic_seeds(ctx, 5):
            cf = VT.twist_closed_form(ctx, d)
            orc = VT.twist_oracle(ctx, d)
            ok &= cf.coeffs == orc.coeffs
            ok &= cf.recursion_holds() and orc.recursion_holds()
    _line("1 twist coefficients (p=3,5,7; oracle == closed form, recursion exact)", ok)


def test_criterion_02_steinberg_theorem():
    ok = True
    for p, r in ((3, 2), (3, 3), (5, 2)):
        rep = SB.verify_steinberg(FieldCtx(p), r)
        ok &= rep["failures"] == 0
        ok &= all("inconclusive" not in str(c["details"].get("verdict", ""))
                  for c in rep["checks"])
    ctx = FieldCtx(3, 2)
    rep = SB.verify_steinberg(ctx, 2, d=ctx.el(0, 1))
    ok &= rep["failures"] == 0
    _line("2 Steinberg factorization (p=3 r=2,3; p=5 r=2; p=3 r=2 generic)", ok)


def test_criterion_03_restriction_simplicity():
    ok = True
    for p in (3, 5):
        rep = SB.verify_restriction_simplicity(FieldCtx(p), 2, 1)
        ok &= rep["failures"] == 0
    _line("3 restriction simplicity (p=3,5; R=2 -> r=1)", ok)


def test_criterion_04_hat_borel():
    ctx = FieldCtx(3, 2)
    rep = SB.hat_borel_irreducibles(ctx, 2, ctx.el(0, 1))
    irr = [c for c in rep["checks"] if c["name"].startswith("hat_irreducible")]
    dis = [c for c in rep["checks"] if c["name"].startswith("hat_extensions")]
    ok = rep["failures"] == 0 and len(irr) == 9 and len(dis) == 3
    _line("4 hat-Borel irreducibles (p=3 r=2: 3 labels x 3 extensions)", ok)


def test_criterion_05_tensor_rules():
    ok = True
    for p in (3, 5, 7):
        ctx = FieldCtx(p)
        ext = homology.all_extended_projectives(ctx)
        V = repcore.simple_restricted(ctx, 1, cap=2)
        VSt = repcore.tensor(
            repcore.frobenius_twist(repcore.simple_restricted(ctx, 1), 1),
            repcore.simple_restricted(ctx, p - 1, cap=2))
        refs = [(("P", i), ext[i]) for i in range(p)] + [(("VSt",), VSt)]
        for i in range(p):
            dec = homology.split_indecomposables(repcore.tensor(ext[i], V))
            got = sorted(Counter(identify_summands(dec, refs)).items())
            if i == 0:
                want = [(("P", 1), 1), (("VSt",), 1)]
            elif i == p - 2:
                want = [(("P", p - 3), 1), (("P", p - 1), 2)]
            elif i == p - 1:
                want = [(("P", p - 2), 1)]
            else:
                want = sorted([(("P", i - 1), 1), (("P", i + 1), 1)])
            ok &= got == want
    _line("5 projective tensor rules (p=3,5,7; exact multiplicities)", ok)


def test_criterion_06_hom_space_isomorphism():
    ctx = FieldCtx(3, 2)
    d = ctx.el(0, 1)
    ok = True
    for i in (0, 1):
        V = repcore.simple_restricted(ctx, i)
        ok &= VT.hom_iso_report(ctx, d, V, window=2, tag=f"L{i}")["failures"] == 0
    ext = homology.all_extended_projectives(ctx)
    for a in range(3):
        for b in range(3):
            _, V = homology.hom_as_gmodule(ext[a], ext[b], 1)
            if V.dim:
                ok &= VT.hom_iso_report(ctx, d, V, window=2,
                                        tag=f"homP{a}P{b}")["failures"] == 0
    L1 = repcore.simple_restricted(ctx, 1)
    for trip in [(1, 0, 1), (1, 0, -1), (0, 1, 0), (2, 1, 0)]:
        ok &= VT.composition_law_report(ctx, d, L1, L1, *trip)["failures"] == 0
    _line("6 hom transfer (p=3 generic, radius 2, V in {L0, L1, Hom(P,P')})", ok)


def test_criterion_07_projective_factorization():
    ctx = FieldCtx(3, 2)
    rep = SB.verify_projective_construction(ctx, 2, d=ctx.el(0, 1))
    dims = rep["tables"][0]["data"]
    ok = rep["failures"] == 0 and len(dims) == 9
    ok &= sorted(Counter(dims.values()).items()) == [(9, 3), (18, 6)]
    _line("7 projective factorization (p=3 generic, all 9 labels)", ok)


def test_criterion_08_equivalence():
    ctx = FieldCtx(3, 2)
    rep = VT.verify_equivalence(ctx, ctx.el(0, 1), radius=2, seed=0)
    ok = rep["failures"] == 0
    VT.solve_rescaling(ctx, ctx.el(0, 1), 2)  # raises if the D-equation fails
    _line("8 graded equivalence (p=3 r=1, radius 2: exact structure constants)", ok)


def test_criterion_09_relations_and_generation():
    ok = True
    for r in (1, 2):
        rep = EP.verify_relations(FieldCtx(3), r)
        ok &= rep["failures"] == 0
    rep = EP.verify_relations(FieldCtx(5), 1)
    ok &= rep["failures"] == 0
    for r in (1, 2):
        rep = EP.verify_generation(FieldCtx(3), r)
        ok &= rep["failures"] == 0
    _line("9 relations + generation (p=3 r<=2 full, p=5 r=1 spot)", ok)


def test_criterion_10_center():
    ok = True
    rep = EP.verify_center(FieldCtx(3), 1)
    ok &= rep["failures"] == 0
    dims1 = sorted(t["data"]["dim"] for t in rep["tables"])
    ok &= dims1 == [1, 3]
    rep = EP.verify_center(FieldCtx(3), 2)
    ok &= rep["failures"] == 0
    rep = EP.verify_center(FieldCtx(5), 1)
    ok &= rep["failures"] == 0
    ok &= sorted(t["data"]["dim"] for t in rep["tables"]) == [1, 3, 3]
    rep = SB.steinberg_block_equivalence(FieldCtx(3))
    ok &= rep["failures"] == 0
    _line("10 center theorem (p=3 r=1,2; p=5 r=1) + Steinberg-block equivalence", ok)


def test_criterion_11_infrastructure():
    F9 = FieldCtx(3, 2)
    els = F9.elements()
    ok = True
    for a in els:
        for b in els:
            ok &= (a + b == b + a) and (a * b == b * a)
            for c in els:
                ok &= ((a * b) * c == a * (b * c))
                ok &= ((a + b) * c == a * c + b * c)

    rng = np.random.default_rng(0)
    for _ in range(100):
        rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        A = Matrix(F9, rng.integers(0, 3, size=(rows, cols, 2)))
        X = Matrix(F9, rng.integers(0, 3, size=(cols, 2, 2)))
        B = A @ X
        sol = A.solve(B)
        ok &= sol is not None and (A @ sol - B).is_zero()

    F3 = FieldCtx(3)
    alg = UChiAlgebra(F3)
    simples = [(i, repcore.simple_restricted(F3, i)) for i in range(3)]
    P = homology.regular_split_projectives(F3, seed=0)
    multisets = []
    for seed in (0, 1, 2):
        reg = regular_module(alg)
        dec = homology.split_indecomposables(reg, sampler=alg, seed=seed)
        labels = identify_summands(dec, [(i, P[i]) for i in P])
        multisets.append(sorted(Counter(labels).items()))
    ok &= multisets[0] == multisets[1] == multisets[2] == [(0, 1), (1, 2), (2, 3)]
    _line("11 infrastructure (field axioms, 100 exact solves, seed-stable splitting)", ok)
