import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sl2frob.exactfield import FieldCtx, Matrix, vec
from sl2frob import memo, repcore, homology
from sl2frob.homology import (
    hom_space, hom_space_unblocked, spin, is_simple, radical_and_head,
    split_indecomposables, SummandDecomposition,
    regular_split_projectives, all_extended_projectives, blocks,
    EndAlgebra, hom_as_gmodule, generic_verma_projectives, Inconclusive, InvariantError,
)
from sl2frob.repcore import (
    simple_restricted, baby_verma, tensor, dual, frobenius_twist, restrict_levels,
)
from sl2frob.smallalg import UChiAlgebra, regular_module
from sl2frob.steinberg import verify_steinberg
from summand_labels import identify_summands


F3 = FieldCtx(3)
F9 = FieldCtx(3, 2)
F25 = FieldCtx(5, 2)


def radical_layers(M, simples) -> list[dict]:
    """Head multiplicities of M, rad M, rad^2 M, ... until zero."""
    layers = []
    cur = M
    while cur.dim:
        rad, mults = radical_and_head(cur, simples)
        layers.append(mults)
        if rad.cols == 0:
            break
        cur = repcore.submodule(cur, rad, provenance="rad")
    return layers


@pytest.fixture(scope="module")
def proj3():
    return regular_split_projectives(F3, seed=0)


@pytest.fixture(scope="module")
def ext3():
    return all_extended_projectives(F3, seed=0)


def test_schur():
    for p in (3, 5, 7):
        ctx = FieldCtx(p)
        for i in range(p):
            for j in range(p):
                d = hom_space(simple_restricted(ctx, i), simple_restricted(ctx, j)).dim
                assert d == (1 if i == j else 0)


def test_blocked_solver_matches_unblocked_oracle():
    M = tensor(simple_restricted(F3, 1), simple_restricted(F3, 1))
    N = tensor(simple_restricted(F3, 1), simple_restricted(F3, 2))
    for (A, B) in ((M, M), (M, N), (N, N)):
        blocked = hom_space(A, B)
        oracle = hom_space_unblocked(A, B)
        assert blocked.dim == len(oracle)
        for phi in blocked.basis:
            assert (phi @ A.E[0] - B.E[0] @ phi).is_zero()
            assert (phi @ A.F[0] - B.F[0] @ phi).is_zero()


@st.composite
def _atom(draw, ctx, cap):
    """A simple, a shifted baby Verma, or (at cap 2) the level-1 twist of one."""
    twisted = cap == 2 and draw(st.booleans())
    base_cap = 1 if twisted else cap
    if draw(st.booleans()):
        M = simple_restricted(ctx, draw(st.integers(0, ctx.p - 1)), cap=base_cap)
    else:
        d = ctx.from_index(draw(st.integers(0, ctx.q - 1)))
        M = baby_verma(ctx, d, shift=draw(st.integers(-3, 3)), cap=base_cap)
    return frobenius_twist(M, 1) if twisted else M


@st.composite
def _graded_module(draw, ctx, cap):
    """An atom, possibly tensored with a second atom (dim <= 12), possibly dualised."""
    M = draw(_atom(ctx, cap))
    if draw(st.booleans()):
        other = draw(_atom(ctx, cap))
        if M.dim * other.dim <= 12:
            try:
                M = tensor(M, other)
            except ValueError:
                pass  # two non-cancelling p-characters: keep the single atom
    return dual(M) if draw(st.booleans()) else M


@st.composite
def _module_pair(draw):
    ctx = draw(st.sampled_from([F3, F9, F25]))
    cap = draw(st.integers(1, 2))
    return draw(_graded_module(ctx, cap)), draw(_graded_module(ctx, cap))


def _span_rank(mats):
    return Matrix.hstack([vec(m) for m in mats]).rank() if mats else 0


@settings(max_examples=100, deadline=None)
@given(_module_pair(), st.integers(-6, 6))
def test_graded_solver_matches_unblocked_oracle_property(pair, degree):
    M, N = pair
    H = hom_space(M, N)
    oracle = hom_space_unblocked(M, N)
    assert H.dim == len(oracle)
    for phi, deg in zip(H.basis, H.degrees):
        for j in range(M.cap):
            assert (N.E[j] @ phi - phi @ M.E[j]).is_zero()
            assert (N.F[j] @ phi - phi @ M.F[j]).is_zero()
        rows, cols = np.nonzero(phi.arr.any(axis=-1))
        assert rows.size and set(N.grading[rows] - M.grading[cols]) == {deg}
    assert _span_rank(H.basis) == H.dim == _span_rank(list(H.basis) + oracle)
    # degree= solves one graded piece: exactly the full basis restricted to it
    Hd = hom_space(M, N, degree=degree)
    assert Hd.degrees == (degree,) * Hd.dim
    assert Hd.basis == tuple(b for b, d in zip(H.basis, H.degrees) if d == degree)


@pytest.fixture(scope="module")
def cap3_projectives():
    """The nine cap-3 projectives of `center --p 3 --r 2`."""
    return homology.projective_covers(F3, 2, seed=0)


def test_presented_solver_matches_entrywise_on_cap3_projectives(cap3_projectives):
    P = cap3_projectives
    assert {lab: homology._presentation(M).gens.size for lab, M in P.items()
            if M.dim == 36} == {(0, 0): 4, (0, 1): 4, (1, 0): 4, (1, 1): 4}
    for a, b in [((0, 0), (0, 0)), ((0, 0), (1, 1)), ((1, 0), (0, 1)), ((0, 2), (2, 0)),
                 ((2, 2), (0, 0)), ((1, 1), (2, 2))]:
        M, N = P[a], P[b]
        H = hom_space(M, N)
        for d in sorted({int(wn) - int(wm) for wn in N.weights() for wm in M.weights()}):
            got = [phi for phi, deg in zip(H.basis, H.degrees) if deg == d]
            assert got == homology._blocked_hom_basis(M, N, d), (a, b, d)


def test_corrupted_relation_raises_invariant_error(monkeypatch):
    # the first relation of L_2 is E (F v) = 2 v; read as E (F v) = 0 it lets
    # non-intertwiners L_2 -> L_0 through, and the solver must not return them.
    # hom_space proves this pair zero from its word diagonals without solving,
    # so the solver is called directly
    L2, L0 = simple_restricted(F3, 2), simple_restricted(F3, 0)
    good = homology._presentation(L2)
    coef = good.rel_coef.copy()
    coef[0] = 0
    bad = good._replace(rel_coef=coef)
    with memo.scope():
        monkeypatch.setattr(homology, "_presentation", lambda M: bad)
        with pytest.raises(InvariantError, match="does not intertwine"):
            homology._presented_hom_basis(L2, L0)
        monkeypatch.undo()
        assert hom_space(L2, L0).dim == 0


def _assert_word_mask_sound(M, N):
    """Every oracle map vanishes off the word mask, and an empty mask means no map."""
    mask = homology._word_mask(M, N)
    oracle = hom_space_unblocked(M, N)
    for phi in oracle:
        assert not (phi.arr.any(axis=-1) & ~mask).any()
    if not mask.any():
        assert not oracle
    return mask, oracle


@settings(max_examples=100, deadline=None)
@given(_module_pair(), st.data())
def test_word_mask_is_sound_property(proj3, pair, data):
    M, N = pair
    if M.ctx == F3 and M.cap == 1:      # swap in the p = 3 projective covers
        covers = list(proj3.values())
        M, N = data.draw(st.sampled_from([M] + covers)), data.draw(st.sampled_from([N] + covers))
    _assert_word_mask_sound(M, N)


def test_word_mask_separates_the_p5_simples():
    simples = [simple_restricted(FieldCtx(5), i) for i in range(5)]
    casimir_only = set()
    for i in range(5):
        for j in range(i + 1, 5):
            for M, N in ((simples[i], simples[j]), (simples[j], simples[i])):
                mask, _ = _assert_word_mask_sound(M, N)
                assert not mask.any()
            # C_0 acts on L_i by the scalar (i + 1)^2 - 1
            c_i, c_j = (homology._word_diagonals(simples[k])[1][1, 0] for k in (i, j))
            if c_i == c_j:
                casimir_only.add((i, j))
    assert casimir_only == {(0, 3), (1, 2)}       # H_0 alone separates these


def test_word_mask_separates_the_generic_vermas():
    d = F25.el(1, 1)
    vermas = [baby_verma(F25, d + F25.el(c)) for c in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            mask, _ = _assert_word_mask_sound(vermas[i], vermas[j])
            assert not mask.any()


def test_word_mask_is_silent_where_the_casimir_is_not_diagonal(proj3):
    P0, P1 = proj3[0], proj3[1]
    assert not homology._word_diagonals(P0)[2][1]     # C_0
    mask, oracle = _assert_word_mask_sound(P0, P1)
    assert mask.any() and len(oracle) == hom_space(P0, P1).dim == 2


@pytest.mark.parametrize("ctx, d", [(FieldCtx(5), None), (F25, F25.el(1, 1))],
                         ids=["F5", "F25-generic"])
def test_steinberg_distinctness_solves_no_hom_space(monkeypatch, ctx, d):
    solved = []
    solver = homology._presented_hom_basis
    monkeypatch.setattr(homology, "_presented_hom_basis",
                        lambda M, N: solved.append((M, N)) or solver(M, N))
    with memo.scope():
        rep = verify_steinberg(ctx, 1, d)
    assert rep["failures"] == 0 and rep["params"]["pairs_checked"] == 10
    assert solved == []


def test_ungraded_action_is_rejected():
    L2 = simple_restricted(F3, 2)
    E0 = L2.E[0].arr.copy()
    E0[0, 2, 0] = 1  # weight -2 -> weight 2: a shift of 4, not 2
    bad = repcore.ModuleRep(F3, [Matrix(F3, E0)], L2.F, L2.grading, provenance="bad")
    with pytest.raises(ValueError, match="'bad' or 'L_2' does not respect the grading"):
        hom_space(bad, L2)


def test_split_leaves_no_reference_cycles():
    # a cycle would keep every split node alive until the cyclic collector runs
    T = tensor(simple_restricted(F3, 2, cap=2), simple_restricted(F3, 1, cap=2))
    gc.collect()
    gc.disable()
    try:
        dec = split_indecomposables(T)
        assert len(dec.summands) >= 1
        del dec
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verma_hom_weight_dims():
    # dim Hom(Z_mu, Z_mu' (x) L_1) is 1 exactly when mu - mu' = +-1
    d = F9.el(0, 1)
    V = simple_restricted(F9, 1)
    for mu in (-1, 0, 1):
        for mu_p in (-1, 0, 1):
            Z1 = baby_verma(F9, d + F9.el(mu % 3), shift=mu)
            Z2t = tensor(baby_verma(F9, d + F9.el(mu_p % 3), shift=mu_p), V)
            got = hom_space(Z1, Z2t, degree=0).dim
            assert got == (1 if abs(mu - mu_p) == 1 else 0)


def test_spin():
    L2 = simple_restricted(F3, 2)
    for k in range(3):
        v = Matrix.identity(F3, 3).take_cols([k])
        assert spin(L2, v).cols == 3
    with pytest.raises(ValueError):
        spin(L2, Matrix.zeros(F3, 3, 1))
    # generic Verma: the bottom vector climbs back up
    d = F9.el(0, 1)
    Z = baby_verma(F9, d)
    v = Matrix.identity(F9, 3).take_cols([2])
    assert spin(Z, v).cols == 3


def _spin_by_stacking(M, v):
    """Reference spin: re-echelonise the whole stack for every candidate vector."""
    rows = v.transpose()
    frontier = [v]
    while frontier:
        new_vecs = []
        for u in frontier:
            for G in list(M.E) + list(M.F):
                w = G @ u
                if w.is_zero():
                    continue
                R, piv = Matrix.vstack([rows, w.transpose()]).rref()
                if len(piv) > rows.rows:
                    rows = Matrix(M.ctx, R.arr[:len(piv)])
                    new_vecs.append(w)
        frontier = new_vecs
    return rows


@st.composite
def _module_and_vector(draw):
    ctx = draw(st.sampled_from([F3, F9, F25, FieldCtx(7, 2)]))
    M = draw(_graded_module(ctx, draw(st.integers(1, 2))))
    idx = draw(st.lists(st.integers(0, ctx.q - 1), min_size=M.dim, max_size=M.dim)
               .filter(any))
    return M, Matrix(ctx, ctx.arr_from_index(np.array(idx)).reshape(M.dim, 1, ctx.k))


@settings(max_examples=100, deadline=None)
@given(_module_and_vector())
def test_spin_matches_stacked_reference(Mv):
    M, v = Mv
    # the reference keeps v unnormalized while nothing joins it; its RREF is
    # the basis spin returns
    assert spin(M, v) == _spin_by_stacking(M, v).rref()[0].transpose()


def test_is_simple_verdicts(proj3):
    assert is_simple(simple_restricted(F3, 2)) is True
    assert is_simple(proj3[0]) is False
    M = tensor(simple_restricted(F3, 1, cap=2),
               frobenius_twist(simple_restricted(F3, 2), 1))
    assert is_simple(M) is True


def test_socle_spin_of_projective_is_proper(proj3):
    P0 = proj3[0]
    J = homology._graded_joint_kernel(P0.E, P0.grading)
    sizes = sorted(spin(P0, b.take_cols([t])).cols
                   for _, b in J.items() for t in range(b.cols))
    assert sizes[0] < P0.dim  # the socle seed generates a proper submodule


def test_radical_and_head(proj3):
    simples = [(i, simple_restricted(F3, i)) for i in range(3)]
    for i in range(3):
        _, mults = radical_and_head(proj3[i], simples)
        assert mults == {i: 1}
    rad, _ = radical_and_head(simple_restricted(F3, 2), simples)
    assert rad.cols == 0
    assert radical_layers(proj3[0], simples) == [{0: 1}, {1: 2}, {0: 1}]


def test_projective_hom_counts_multiplicities(proj3):
    # dim Hom(P_l, M) = [M : L_l] * dim End(L_l), against radical filtrations
    simples = [(i, simple_restricted(F3, i)) for i in range(3)]
    for lam in range(3):
        for target in range(3):
            M = proj3[target]
            layers = radical_layers(M, simples)
            mult = sum(layer.get(lam, 0) for layer in layers)
            got = hom_space(proj3[lam], M).dim
            assert got == mult, (lam, target)


def test_regular_split_multiplicities():
    alg = UChiAlgebra(F3)
    reg = regular_module(alg)
    simples = [(i, simple_restricted(F3, i)) for i in range(3)]
    P = regular_split_projectives(F3, seed=0)
    dec = split_indecomposables(reg, seed=0, sampler=alg, simples=simples)
    labels = identify_summands(dec, [(i, P[i]) for i in P])
    assert sorted(Counter(labels).items()) == [(0, 1), (1, 2), (2, 3)]


def test_split_label_multiset_stable_across_seeds(ext3):
    V = simple_restricted(F3, 1, cap=2)
    refs = [(i, ext3[i]) for i in range(3)]
    results = []
    for seed in (0, 1, 2):
        dec = split_indecomposables(tensor(ext3[1], V), seed=seed)
        labels = identify_summands(dec, refs)
        results.append(sorted(Counter(labels).items()))
    assert results[0] == results[1] == results[2] == [(0, 1), (2, 2)]


def test_split_idempotent_consistency(ext3):
    V = simple_restricted(F3, 1, cap=2)
    M = tensor(ext3[0], V)
    dec = split_indecomposables(M, seed=0)
    dec.finalize()  # independent summands that fill M (raises otherwise)
    assert sum(s.dim for s in dec.summands) == M.dim
    # the summands' inclusions form an invertible matrix: its row blocks are
    # the projections, idempotent and summing to the identity
    C = Matrix.hstack(dec.inclusions)
    Cinv = C.inverse()
    lo = 0
    total = Matrix.zeros(F3, M.dim, M.dim)
    for incl in dec.inclusions:
        idem = incl @ Matrix(F3, Cinv.arr[lo:lo + incl.cols])
        assert idem @ idem == idem
        total = total + idem
        lo += incl.cols
    assert total == Matrix.identity(F3, M.dim)


def test_finalize_rejects_overlapping_or_missing_summands():
    k = repcore.simple_restricted(F3, 0)
    M = repcore.ModuleRep(F3, [Matrix.zeros(F3, 2, 2)], [Matrix.zeros(F3, 2, 2)],
                          [0, 0], provenance="k+k")
    e0, e1 = Matrix.identity(F3, 2).take_cols([0]), Matrix.identity(F3, 2).take_cols([1])
    overlap = SummandDecomposition(M)
    for incl in (e0, e0.scale(F3.el(2)), e1):
        overlap.add(incl, k)
    with pytest.raises(ValueError, match=r"summands of 'k\+k' overlap"):
        overlap.finalize()
    short = SummandDecomposition(M)
    short.add(e0 + e1, k)
    with pytest.raises(ValueError, match=r"summands of 'k\+k' fill dimension 1 of 2"):
        short.finalize()


@st.composite
def _stack_and_split(draw):
    """Pieces of F_q^n (the column blocks of an invertible C) and a stack of n x n matrices."""
    ctx = draw(st.sampled_from([F3, F9, F25]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    n = sum(sizes)

    def matrix(rows, cols):
        idx = draw(st.lists(st.integers(0, ctx.q - 1), min_size=rows * cols,
                            max_size=rows * cols))
        return Matrix(ctx, ctx.arr_from_index(np.array(idx, dtype=np.int64))
                      .reshape(rows, cols, ctx.k))

    C = matrix(n, n)
    assume(C.rank() == n)
    ends = np.cumsum([0] + sizes)
    pieces = [C.take_cols(range(lo, hi)) for lo, hi in zip(ends, ends[1:])]
    stack = [matrix(n, n) for _ in range(draw(st.integers(1, 3)))]
    return pieces, stack


@settings(max_examples=100, deadline=None)
@given(_stack_and_split())
def test_restricted_stack_is_the_diagonal_block_of_the_conjugate(case):
    pieces, stack = case
    restricted = homology._restrict_stack(stack, pieces)
    C = Matrix.hstack(pieces)
    Cinv = C.inverse()
    ends = np.cumsum([0] + [b.cols for b in pieces])
    for k, W in enumerate(stack):
        conj = (Cinv @ W @ C).arr
        for piece_stack, lo, hi in zip(restricted, ends, ends[1:]):
            assert piece_stack[k] == Matrix(W.ctx, conj[lo:hi, lo:hi])


def _pairwise_hom_certificate(ctx, d) -> bool:
    """Genericity as first certified: every Z_{d+c} simple, pairwise zero Hom."""
    vermas = [baby_verma(ctx, d + ctx.el(c)) for c in range(ctx.p)]
    if any(is_simple(Z) is not True for Z in vermas):
        return False
    return all(hom_space(vermas[a], vermas[b]).dim == 0
               for a in range(ctx.p) for b in range(a + 1, ctx.p))


@pytest.mark.parametrize("ctx", [F9, FieldCtx(5, 2)], ids=["F9", "F25"])
def test_generic_seed_certificate_matches_pairwise_hom(ctx):
    # the eigenvalue certificate raises exactly when the pairwise Hom one fails
    for idx in range(ctx.q):
        d = ctx.from_index(idx)
        try:
            generic_verma_projectives(ctx, d)
            passed = True
        except ValueError as e:
            assert "non-generic seed" in str(e)
            passed = False
        assert passed == _pairwise_hom_certificate(ctx, d), d
        assert passed == (not d.in_prime_field()), d


def test_extended_projectives(proj3, ext3):
    assert {i: ext3[i].dim for i in ext3} == {0: 6, 1: 6, 2: 3}
    for i in range(3):
        assert homology.is_isomorphic(restrict_levels(ext3[i], 1), proj3[i]) is not None
        rep = repcore.validate(ext3[i])
        assert all(rep.values())


def test_blocks(proj3):
    assert blocks(proj3) == [[0, 1], [2]]
    P5 = regular_split_projectives(FieldCtx(5), seed=0)
    assert blocks(P5) == [[0, 3], [1, 2], [4]]


def test_end_algebra_and_center(proj3):
    E = EndAlgebra([(0, proj3[0]), (1, proj3[1])])
    assert E.homs[(0, 0)].dim == 2      # id and the nilpotent endomorphism
    assert E.homs[(0, 1)].dim == 2
    Z = E.center()
    assert len(Z) == 3
    for z in Z:
        assert E.element_is_central(z)
    Est = EndAlgebra([(2, proj3[2])])
    assert len(Est.center()) == 1


def test_center_invariant_under_multiplicities(proj3):
    # computing with one copy of each projective or with repeats gives the
    # same center dimension (basic-algebra reduction)
    base = EndAlgebra([(0, proj3[0]), (1, proj3[1])])
    fat = EndAlgebra([(0, proj3[0]), (1, proj3[1]), ("1b", proj3[1])])
    assert len(base.center()) == len(fat.center()) == 3


def test_hom_as_gmodule(ext3):
    H, V = hom_as_gmodule(ext3[0], ext3[0], 1)
    assert V.dim == 2 and V.E[0].is_zero() and V.F[0].is_zero()  # L_0 + L_0
    assert list(V.grading) == [0, 0]
    H, V = hom_as_gmodule(ext3[0], ext3[1], 1)
    assert V.dim == 2 and sorted(V.grading) == [-1, 1]           # one L_1
    assert not V.E[0].is_zero()
    # x . id = 0 for the identity endomorphism
    Hend, Vend = hom_as_gmodule(ext3[0], ext3[0], 1)
    ident = Matrix.identity(F3, 6)
    coords = Hend.span.coordinates(vec(ident))
    img = Matrix(F3, (Vend.E[0] @ coords).arr)
    assert img.is_zero()


def test_canonical_bases_classification(ext3):
    bases, ok, unexpected = homology.canonical_r1_hom_bases(F3, ext3)
    assert ok and not unexpected
    assert [m for m in bases[(0, 0)][0]][0] == Matrix.identity(F3, 6)
    omega = bases[(0, 0)][0][1]
    assert omega.pow_int(2).is_zero() and not omega.is_zero()
    assert set(bases[(0, 1)]) == {3, -3}


def test_inconclusive_is_loud():
    # a decomposable module offered with no candidates must raise, not guess
    L = simple_restricted(F3, 1)
    Z = Matrix.zeros(F3, L.dim, L.dim)

    def diag(G):
        return Matrix.vstack([Matrix.hstack([G, Z]), Matrix.hstack([Z, G])])

    M = repcore.ModuleRep(F3, [diag(L.E[0])], [diag(L.F[0])],
                          np.concatenate([L.grading, L.grading]), L.pchar_scalars)
    simples = [(i, simple_restricted(F3, i)) for i in range(3)]
    dec = split_indecomposables(M, seed=0, simples=simples)
    assert len(dec.summands) == 2  # isotypic pairs do split via eigen-scan


def _rebuilt(M, provenance):
    """A content-equal copy of M built from fresh arrays."""
    return repcore.ModuleRep(M.ctx, [Matrix(M.ctx, m.arr.copy()) for m in M.E],
                             [Matrix(M.ctx, m.arr.copy()) for m in M.F],
                             M.grading.copy(), M.pchar_scalars, provenance=provenance)


def test_hom_space_memo_lives_in_its_scope():
    T = tensor(simple_restricted(F3, 2, cap=2), simple_restricted(F3, 1, cap=2))
    with memo.scope():
        H = hom_space(T, T)
        assert hom_space(T, T) is H
        assert hom_space(_rebuilt(T, "other"), _rebuilt(T, "another")) is H
        H0 = hom_space(T, T, degree=0)
        assert H0 is not H and hom_space(T, T, degree=0) is H0
        P = homology._presentation(T)
        assert homology._presentation(_rebuilt(T, "other")) is P
        D = homology._word_diagonals(T)
        assert homology._word_diagonals(_rebuilt(T, "other")) is D
        with memo.scope():      # a nested scope reuses the open one
            assert hom_space(T, T) is H and homology._presentation(T) is P
            assert homology._word_diagonals(T) is D
    again = hom_space(T, T)     # outside a scope nothing is cached
    assert again is not H and again.basis == H.basis
    assert hom_space(T, T) is not again
    assert homology._presentation(T) is not P
    assert homology._word_diagonals(T) is not D


def test_hom_space_memo_survives_digest_collisions(monkeypatch):
    # every module gets the same digest: only the content check tells them apart
    L2 = simple_restricted(F3, 2)
    mods = [simple_restricted(F3, i) for i in range(3)] + [
        L2.shift_grading(-2),
        baby_verma(F3, F3.el(1)),   # the grading of L2<-2>, another E
        dual(L2), _rebuilt(L2, "copy")]
    pairs = [(M, N, deg) for M in mods for N in mods for deg in (None, 0, 2)]
    expected = [hom_space(M, N, degree=deg) for M, N, deg in pairs]
    presentations = [homology._presentation(M) for M in mods]
    words = [homology._word_diagonals(M)[1:] for M in mods]
    monkeypatch.setattr(repcore.ModuleRep, "content_digest", lambda self: b"")
    with memo.scope():
        for _ in range(2):
            for (M, N, deg), want in zip(pairs, expected):
                got = hom_space(M, N, degree=deg)
                assert got.basis == want.basis and got.degrees == want.degrees
            for M, want in zip(mods, presentations):
                got = homology._presentation(M)
                assert got.module.same_content(M) and got.S_inv == want.S_inv
                assert all(np.array_equal(getattr(got, f), getattr(want, f))
                           for f in ("gens", "edge_b", "edge_op", "rel_l", "rel_coef"))
            for M, want in zip(mods, words):
                module, *got = homology._word_diagonals(M)
                assert module.same_content(M)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_memoised_projective_mappings_are_read_only(proj3):
    with pytest.raises(TypeError):
        proj3[0] = proj3[1]
    vermas = generic_verma_projectives(F9, F9.el(0, 1))
    with pytest.raises(TypeError):
        vermas[0] = vermas[1]


def test_matrices_and_gradings_are_read_only():
    L2 = simple_restricted(F3, 2)
    with pytest.raises(ValueError, match="read-only"):
        L2.E[0].arr[0, 1, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        L2.grading[0] = 7
    grading = np.array([2, 0, -2])
    M = repcore.ModuleRep(F3, L2.E, L2.F, grading)
    grading[0] = 7              # the module took a copy of the writable array
    assert M.grading.tolist() == [2, 0, -2] and M.same_content(L2)
