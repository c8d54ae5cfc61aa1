from collections import Counter

import pytest

from sl2frob.exactfield import FieldCtx
from sl2frob import repcore, homology, steinberg as SB
from sl2frob.smallalg import UChiAlgebra, regular_module
from summand_labels import identify_summands


F3 = FieldCtx(3)
F9 = FieldCtx(3, 2)
D = F9.el(0, 1)


def failures(rep):
    return [c for c in rep["checks"] if c["status"] != "pass"]


def test_build_simple_examples():
    M = SB.build_simple(F3, (1, 2))
    assert M.dim == 6 and homology.is_simple(M) is True
    assert SB.build_simple(F3, (0, 0)).dim == 1
    G = SB.build_simple(F9, (1, 0), d=D)
    assert G.dim == 6 and homology.is_simple(G) is True
    with pytest.raises(ValueError):
        SB.build_simple(F3, (3,))


def test_verify_steinberg_p3_r2():
    rep = SB.verify_steinberg(F3, 2)
    assert rep["failures"] == 0
    dims = rep["tables"][0]["data"]
    assert sorted(Counter(dims.values()).items()) == [(1, 1), (2, 2), (3, 2),
                                                      (4, 1), (6, 2), (9, 1)]


def test_verify_steinberg_generic():
    rep = SB.verify_steinberg(F9, 2, d=D)
    assert rep["failures"] == 0
    dims = rep["tables"][0]["data"]
    assert sorted(set(dims.values())) == [3, 6, 9]


def test_generic_seed_certification():
    with pytest.raises(ValueError, match="non-generic"):
        homology.generic_verma_projectives(F9, F9.one())


def test_restriction_simplicity():
    assert SB.verify_restriction_simplicity(F3, 2, 1)["failures"] == 0
    # a nonzero digit above the restriction level is excluded by precondition:
    # the twisted factor restricts with zero action and is visibly non-simple
    M = SB.build_simple(F3, (1, 1), cap=2)
    R = repcore.restrict_levels(M, 1)
    assert homology.is_simple(R) is False


def test_hat_borel():
    rep = SB.hat_borel_irreducibles(F9, 2, D)
    assert rep["failures"] == 0
    one_dim = [c for c in rep["checks"] if c["name"].startswith("hat_irreducible(0,)")]
    assert len(one_dim) == 3  # the lambda = 0 lower simple is one-dimensional
    with pytest.raises(ValueError, match="need r >= 2"):
        SB.hat_borel_irreducibles(F9, 1, D)


def test_zero_char_twisted_verma_head():
    # the head of L_1 (x) Z^(1) is the labeled simple (1, 1)
    Z = repcore.frobenius_twist(repcore.baby_verma(F3, F3.el(1)), 1)
    L = repcore.simple_restricted(F3, 1, cap=2)
    M = repcore.tensor(L, Z)
    simples = [(lab, SB.build_simple(F3, lab, cap=2)) for lab in repcore.all_labels(3, 2)]
    _, mults = homology.radical_and_head(M, simples)
    assert mults == {(1, 1): 1}


def test_block_equivalence():
    rep = SB.steinberg_block_equivalence(F3)
    assert rep["failures"] == 0
    names = [c["name"] for c in rep["checks"]]
    assert "unit_to_steinberg" in names and "end_P0_dims" in names


def test_projective_construction_reports():
    rep = SB.verify_projective_construction(F9, 2, d=D)
    assert rep["failures"] == 0
    dims = rep["tables"][0]["data"]
    assert sorted(set(dims.values())) == [9, 18]
    rep0 = SB.verify_projective_construction(F3, 2)
    assert rep0["failures"] == 0
    assert sorted(set(rep0["tables"][0]["data"].values())) == [9, 18, 36]


def test_accounting():
    for p, r in ((3, 1), (3, 2), (5, 1)):
        rep = SB.dimension_accounting(FieldCtx(p), r)
        assert rep["failures"] == 0


def test_factor_recovery_by_restriction():
    # the tensor factors of a labeled simple are recovered by restricting to
    # the bottom level and splitting: dim(top factor) copies of L_{k_0}
    for lab in ((1, 2), (2, 1), (0, 2)):
        M = SB.build_simple(F3, lab, cap=2)
        R = repcore.restrict_levels(M, 1)
        dec = homology.split_indecomposables(R)
        refs = [(i, repcore.simple_restricted(F3, i)) for i in range(3)]
        labels = identify_summands(dec, refs)
        assert Counter(labels) == {lab[0]: lab[1] + 1}


def test_completeness_accounting_simples():
    # sum over certified simples of (dim L)^2 + dim rad = p^{3r} at r = 1
    simples = [repcore.simple_restricted(F3, i) for i in range(3)]
    total = sum(m.dim**2 for m in simples)
    reg = regular_module(UChiAlgebra(F3))
    rad, _ = homology.radical_and_head(
        reg, [(i, repcore.simple_restricted(F3, i)) for i in range(3)])
    assert total + rad.cols == 27


def test_projective_covers_r1_routes():
    P = homology.projective_covers(F3, 1)
    assert {lab: m.dim for lab, m in P.items()} == {(0,): 6, (1,): 6, (2,): 3}
    assert P[(0,)].cap == 1
    Z = homology.projective_covers(F9, 1, d=D)
    assert all(m.dim == 3 for m in Z.values())
