import gc
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sl2frob.exactfield import FieldCtx, Matrix, vec
from sl2frob import exactfield, memo, repcore, homology, endpresent, steinberg
from sl2frob.cli import run_command
from sl2frob.homology import (
    hom_space, hom_space_unblocked, spin, is_simple, radical_and_head,
    split_indecomposables,
    regular_split_projectives, all_extended_projectives, blocks,
    EndAlgebra, hom_as_gmodule, generic_verma_projectives, Inconclusive,
)
from sl2frob.repcore import (
    simple_restricted, baby_verma, tensor, dual, frobenius_twist, restrict_levels,
    extend_levels,
)
from sl2frob.smallalg import UChiAlgebra, regular_module
from sl2frob.steinberg import verify_steinberg
from sl2frob.vermatwist import verma_tensor_split
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
    return all_extended_projectives(F3)


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


def test_masked_full_space_matches_unmasked_degrees_on_cap3_projectives(cap3_projectives):
    # the full space solves each degree on the word mask only; the unknowns it
    # leaves out vanish in every intertwiner, so each degree's RREF basis is
    # the one of the unmasked solve
    P = cap3_projectives
    for a, b in [((0, 0), (0, 0)), ((0, 0), (1, 1)), ((1, 0), (0, 1)), ((0, 2), (2, 0)),
                 ((2, 2), (0, 0)), ((1, 1), (2, 2))]:
        M, N = P[a], P[b]
        assert not homology._word_mask(M, N).all(), (a, b)      # the mask cuts entries
        H = hom_space(M, N)
        assert list(H.degrees) == sorted(H.degrees)
        for d in sorted({int(wn) - int(wm) for wn in N.weights() for wm in M.weights()}):
            got = [phi for phi, deg in zip(H.basis, H.degrees) if deg == d]
            assert got == list(hom_space(M, N, degree=d).basis), (a, b, d)


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
            c_i, c_j = (homology._word_diagonals(simples[k])[0][1, 0] for k in (i, j))
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
    assert not homology._word_diagonals(P0)[1][1]     # C_0
    mask, oracle = _assert_word_mask_sound(P0, P1)
    assert mask.any() and len(oracle) == hom_space(P0, P1).dim == 2


@pytest.mark.parametrize("ctx, d", [(FieldCtx(5), None), (F25, F25.el(1, 1))],
                         ids=["F5", "F25-generic"])
def test_steinberg_distinctness_solves_no_hom_space(monkeypatch, ctx, d):
    solved = []
    solver = homology._blocked_hom_basis
    monkeypatch.setattr(homology, "_blocked_hom_basis",
                        lambda pairs, *args: solved.extend(pairs) or solver(pairs, *args))
    with memo.scope():
        rep = verify_steinberg(ctx, 1, d)
    assert rep["failures"] == 0 and rep["params"]["pairs_checked"] == 10
    assert solved == []


@pytest.mark.parametrize("ctx, d", [(FieldCtx(5), None), (F25, F25.el(1, 1))],
                         ids=["F5", "F25-generic"])
def test_steinberg_distinctness_is_one_hom_batch(monkeypatch, ctx, d):
    batches = []
    solve = homology._solve_hom_spaces
    monkeypatch.setattr(homology, "_solve_hom_spaces",
                        lambda items: batches.append(len(items)) or solve(items))
    with memo.scope():
        rep = verify_steinberg(ctx, 1, d)
    assert rep["failures"] == 0 and rep["params"]["pairs_checked"] == 10
    assert batches == [10]


def test_steinberg_certifies_each_generic_verma_once(monkeypatch):
    # generic_verma_projectives and verify_steinberg's own simplicity checks
    # meet the same five Vermas: each is spun, and its ker E solved, once
    spun, kernels = [], []
    spin_, kernel = homology.spin, homology._graded_joint_kernel
    monkeypatch.setattr(homology, "spin", lambda M, v: spun.append(M) or spin_(M, v))
    monkeypatch.setattr(homology, "_graded_joint_kernel",
                        lambda mats, grading: kernels.append(mats) or kernel(mats, grading))
    d = F25.el(1, 1)
    with memo.scope():
        rep = verify_steinberg(F25, 1, d)
    assert rep["failures"] == 0 and len(rep["checks"]) == 15
    assert len(spun) == 5 and len(kernels) == 5
    # E_0[0, 1] = 1 (d' - 1 + 1) = d' on Z(d'): one spin per Verma Z(d + c)
    tops = {M.E[0].entry(0, 1) for M in spun}
    assert tops == {d + F25.el(c) for c in range(5)}
    assert [mats[0] for mats in kernels] == [M.E[0] for M in spun]


def test_ungraded_action_is_rejected():
    L2 = simple_restricted(F3, 2)
    E0 = L2.E[0].arr.copy()
    E0[0, 2, 0] = 1  # weight -2 -> weight 2: a shift of 4, not 2
    bad = repcore.ModuleRep(F3, [Matrix(F3, E0)], L2.F, L2.grading, provenance="bad")
    with pytest.raises(ValueError, match="'bad' or 'L_2' does not respect the grading"):
        hom_space(bad, L2)
    # one degree too: its unknown X[0, 0] meets the bad entry
    with pytest.raises(ValueError, match="level-0 action of 'bad' or 'L_2' does not respect "
                                         "the grading"):
        hom_space(bad, L2, degree=0)
    # in a batch, the pair that holds it is named, wherever it stands
    for degree in (None, 0):
        with pytest.raises(ValueError, match="level-0 action of 'bad' or 'L_2' does not "
                                             "respect the grading"):
            homology.hom_spaces([(L2, L2), (L2.shift_grading(2), L2), (bad, L2)], degree)


def _degree_part(M, N, maps, degree):
    """Each map with its entries off the given degree set to zero."""
    off = N.grading[:, None] - M.grading[None, :] != degree
    return [Matrix(M.ctx, np.where(off[:, :, None], 0, phi.arr)) for phi in maps]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F3, F9]), st.integers(1, 2), st.data())
def test_batched_hom_solve_matches_batches_of_one_property(ctx, cap, data):
    # one batch mixes a pair with no degree-0 entry, a pair whose system the
    # peel solves to zero, random graded pairs, one of them rebuilt with equal
    # content, and one shifted by a common grading shift
    L = [simple_restricted(ctx, i, cap=cap) for i in range(3)]
    pairs = [(L[1], L[0]),      # degrees +-1 - 0: no unknown
             (L[0], L[2]),      # X[1, 0] alone, forced to zero by E_0 X = X E_0
             (L[2], L[2])]      # the scalars
    pairs += data.draw(st.lists(st.tuples(_graded_module(ctx, cap), _graded_module(ctx, cap)),
                                min_size=1, max_size=4))
    M, N = data.draw(st.sampled_from(pairs))
    s = data.draw(st.integers(-6, 6))
    repeat = (_rebuilt(M, "copy"), _rebuilt(N, "copy"))
    shifted = (M.shift_grading(s), N.shift_grading(s))
    pairs = data.draw(st.permutations(pairs + [repeat, shifted]))
    kernels, kernel = [], Matrix.kernel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "kernel", lambda A: kernels.append(A) or kernel(A))
        assert homology.hom_spaces([(L[0], L[2])], 0)[0].dim == 0 and not kernels
    batch = homology.hom_spaces(pairs, 0)
    for (M, N), H in zip(pairs, batch):
        one = hom_space(M, N, degree=0)
        assert H.source is M and H.target is N
        assert H.basis == one.basis and H.degrees == one.degrees == (0,) * H.dim
        # the oracle's maps, cut down to degree 0, span the same space
        part = _degree_part(M, N, hom_space_unblocked(M, N), 0)
        assert _span_rank(H.basis) == H.dim == _span_rank(part) == _span_rank(
            list(H.basis) + part)
    solved, solver = [], homology._blocked_hom_basis
    with pytest.MonkeyPatch.context() as mp, memo.scope():
        mp.setattr(homology, "_blocked_hom_basis",
                   lambda todo, *args: solved.append(todo) or solver(todo, *args))
        scoped = homology.hom_spaces(pairs, 0)
        # each pair up to equal content once: the repeat with its original
        classes = set(pairs)
        assert len(solved) == 1 and len(solved[0]) == len(classes) < len(pairs)
        for (M, N), H, want in zip(pairs, scoped, batch):
            assert H.source == M and H.target == N
            assert H.basis == want.basis
            assert hom_space(M, N, degree=0) is H
        assert len(solved) == 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F3, F9]), st.data())
def test_peeled_sparse_kernel_matches_the_dense_kernel_property(ctx, data):
    # a sparse system, block-diagonal by degree, with planted one-term rows:
    # the peel drops them with their unknowns, and the per-degree kernels,
    # scattered back to all columns, are the RREF kernel basis of the whole
    deg = np.array(sorted(data.draw(st.lists(st.integers(-2, 2), min_size=1, max_size=12))))
    planted = data.draw(st.lists(st.sampled_from(range(deg.size)), max_size=4))
    rows = [(deg[c], [c]) for c in planted]
    for _ in range(data.draw(st.integers(0, 12))):
        own = np.flatnonzero(deg == data.draw(st.sampled_from(deg.tolist()))).tolist()
        rows.append((deg[own[0]], data.draw(st.lists(st.sampled_from(own), min_size=1,
                                                     max_size=3, unique=True))))
    rows.sort(key=lambda row: row[0])                   # rows sorted by degree
    A = np.zeros((len(rows), deg.size), dtype=np.int64)
    for i, (_, support) in enumerate(rows):
        A[i, support] = data.draw(st.lists(st.integers(1, ctx.q - 1), min_size=len(support),
                                           max_size=len(support)))
    r, c = np.nonzero(A)
    got, seen = [], []
    for d, cols, K in homology._sparse_kernel(ctx, r, c, ctx.arr_from_index(A[r, c]), deg):
        assert (deg[cols] == d).all()
        full = np.zeros((deg.size, K.shape[1], ctx.k), dtype=np.int64)
        full[cols] = K
        got.append(full)
        seen.append(d)
    assert seen == sorted(set(seen))
    want = Matrix(ctx, ctx.arr_from_index(A)).kernel().arr
    assert np.array_equal(np.concatenate(got, axis=1) if got else want[:, :0], want)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F3, F9, F25]), st.data())
def test_merged_sparse_kernel_matches_the_dense_kernel_property(ctx, data):
    # with every block merged: two-term chains and cycles (a cycle whose
    # multipliers multiply to 1 keeps its class, any other zeroes it), rows
    # that a substitution cuts to one term or cancels, and random rows left
    # for the dense step; the basis is still the dense RREF kernel basis
    unit = st.integers(1, ctx.q - 1).map(ctx.from_index)
    deg = np.array(sorted(data.draw(st.lists(st.integers(-1, 1), min_size=2, max_size=14))))
    rows = []                                       # (degree, {unknown: coefficient})
    for d in sorted(set(deg.tolist())):
        own = np.flatnonzero(deg == d).tolist()
        links = []
        for _ in range(data.draw(st.integers(0, 3)) if len(own) > 1 else 0):
            path = data.draw(st.lists(st.sampled_from(own), min_size=2, max_size=6, unique=True))
            cycle = len(path) > 2 and data.draw(st.booleans())
            coeffs = [[data.draw(unit), data.draw(unit)] for _ in path[:None if cycle else -1]]
            if cycle:   # a x_u + b x_w = 0 is x_u = -(b/a) x_w: the product around is t
                t, product = data.draw(st.sampled_from([ctx.one(), data.draw(unit)])), ctx.one()
                for a, b in coeffs[:-1]:
                    product = product * (-b / a)
                coeffs[-1][1] = -(coeffs[-1][0] * t / product)
            links += [{u: a, w: b} for (a, b), u, w in zip(coeffs, path, path[1:] + path[:1])]
        for link in links:
            for kind in data.draw(st.lists(st.sampled_from(["one", "zero"]), max_size=2)):
                scale, rest = data.draw(unit), [u for u in own if u not in link]
                row = {u: a * scale for u, a in link.items()}
                if kind == "one" and rest:          # x_z alone once the link is merged
                    row[data.draw(st.sampled_from(rest))] = data.draw(unit)
                elif kind == "zero":                # two links that cancel once merged
                    other = data.draw(st.sampled_from(links))
                    if not set(other) & set(link):
                        row.update({u: a * data.draw(unit) for u, a in other.items()})
                rows.append((d, row))
        rows += [(d, link) for link in links]
        for _ in range(data.draw(st.integers(0, 4))):
            support = data.draw(st.lists(st.sampled_from(own), min_size=1, max_size=4,
                                         unique=True))
            rows.append((d, {u: data.draw(unit) for u in support}))
    rows = data.draw(st.permutations(rows))
    rows.sort(key=lambda row: row[0])                   # rows sorted by degree
    A = np.zeros((len(rows), deg.size), dtype=np.int64)
    for i, (_, row) in enumerate(rows):
        A[i, list(row)] = [a.idx for a in row.values()]
    r, c = np.nonzero(A)
    got, seen = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactfield, "_LIST_MAX_CELLS", 0)
        for d, cols, K in homology._sparse_kernel(ctx, r, c, ctx.arr_from_index(A[r, c]), deg):
            assert (deg[cols] == d).all() and (np.diff(cols) > 0).all()
            full = np.zeros((deg.size, K.shape[1], ctx.k), dtype=np.int64)
            full[cols] = K
            got.append(full)
            seen.append(d)
    assert seen == sorted(set(seen))
    want = Matrix(ctx, ctx.arr_from_index(A)).kernel().arr
    assert np.array_equal(np.concatenate(got, axis=1) if got else want[:, :0], want)


def test_split_leaves_no_reference_cycles():
    # a cycle would keep every split node alive until the cyclic collector runs
    T = tensor(simple_restricted(F3, 2, cap=2), simple_restricted(F3, 1, cap=2))
    gc.collect()
    gc.disable()
    try:
        dec = split_indecomposables(T)
        assert len(dec) >= 1
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


_EXTENDED: dict = {}


def _extended(ctx, i):
    """The cap-2 extended projective P_i over ctx, built once per test session."""
    if (ctx, i) not in _EXTENDED:
        _EXTENDED[ctx, i] = homology.extended_projective(ctx, i)
    return _EXTENDED[ctx, i]


@st.composite
def _module_and_vector(draw):
    ctx = draw(st.sampled_from([F3, F9, F25, FieldCtx(7, 2)]))
    kind = draw(st.sampled_from(["atoms", "extended projective", "L (x) L"]))
    if kind == "extended projective":
        M = _extended(ctx, draw(st.integers(0, ctx.p - 1)))
    elif kind == "L (x) L":
        a, b = draw(st.integers(0, ctx.p - 1)), draw(st.integers(0, ctx.p - 1))
        M = tensor(simple_restricted(ctx, a, cap=2), simple_restricted(ctx, b, cap=2))
    else:
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


def _graded_joint_kernel_per_degree(mats, grading):
    """Reference: one elimination per degree, on that degree's columns only."""
    ctx = mats[0].ctx
    out = {}
    for w in sorted(set(int(x) for x in grading)):
        idx = np.nonzero(grading == w)[0]
        ker = Matrix(ctx, np.concatenate([m.arr[:, idx] for m in mats])).kernel()
        if ker.cols:
            emb = np.zeros((grading.shape[0], ker.cols, ctx.k), dtype=np.int64)
            emb[idx] = ker.arr
            out[w] = Matrix(ctx, emb)
    return out


@st.composite
def _graded_operators(draw):
    """1-3 random operators, each shifting a random grading by its own degree."""
    ctx = draw(st.sampled_from([F3, F9, F25]))
    n = draw(st.integers(1, 9))
    grading = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        graded = grading[:, None] == grading[None, :] + draw(st.integers(-2, 2))
        idx = np.where(graded & (rng.random((n, n)) < density), rng.integers(1, ctx.q, (n, n)), 0)
        mats.append(Matrix(ctx, ctx.arr_from_index(idx)))
    return mats, grading


@settings(max_examples=150, deadline=None)
@given(_graded_operators())
def test_one_elimination_joint_kernel_matches_the_per_degree_one_property(case):
    mats, grading = case
    got = homology._graded_joint_kernel(mats, grading)
    assert got == _graded_joint_kernel_per_degree(mats, grading)
    assert list(got) == sorted(got)


def test_one_elimination_joint_kernel_edge_cases():
    grading = np.array([2, 0, 0, -2, 2])
    eliminations = []
    with pytest.MonkeyPatch.context() as mp:
        eliminate = exactfield._eliminate
        mp.setattr(exactfield, "_eliminate", lambda *a: eliminations.append(1) or eliminate(*a))
        # an injective operator: the kernel is empty in every degree
        assert homology._graded_joint_kernel([Matrix.identity(F9, 5)], grading) == {}
        # the zero operator: the kernel is everything, spread over three degrees
        J = homology._graded_joint_kernel([Matrix.zeros(F9, 5, 5)] * 2, grading)
    assert eliminations == [1, 1]
    unit = Matrix.identity(F9, 5)
    assert J == {-2: unit.take_cols([3]), 0: unit.take_cols([1, 2]), 2: unit.take_cols([0, 4])}
    assert J == _graded_joint_kernel_per_degree([Matrix.zeros(F9, 5, 5)] * 2, grading)


def _copies(L, n):
    """L^{(+)n}: the block-diagonal direct sum of n copies of L."""
    def diag(G):
        arr = np.zeros((n * L.dim, n * L.dim, G.ctx.k), dtype=np.int64)
        for c in range(n):
            arr[c * L.dim:(c + 1) * L.dim, c * L.dim:(c + 1) * L.dim] = G.arr
        return Matrix(G.ctx, arr)

    return repcore.ModuleRep(L.ctx, [diag(G) for G in L.E], [diag(G) for G in L.F],
                             np.tile(L.grading, n), L.pchar_scalars)


def test_is_simple_verdicts(proj3):
    assert is_simple(simple_restricted(F3, 2)) is True
    assert is_simple(proj3[0]) is False
    M = tensor(simple_restricted(F3, 1, cap=2),
               frobenius_twist(simple_restricted(F3, 2), 1))
    assert is_simple(M) is True


def test_is_simple_enumerates_a_two_dim_top_and_gives_up_on_three():
    L = simple_restricted(F3, 1)
    # J = ker E is 2-dim in degree 1: every line of it is enumerated, each spins a copy of L
    assert is_simple(_copies(L, 2)) is False
    # a 3-dim J in one degree is not enumerated: no verdict
    assert is_simple(_copies(L, 3)) == "inconclusive"


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
    P = regular_split_projectives(F3, seed=0)
    dec = split_indecomposables(reg, sampler=alg, seed=0)
    labels = identify_summands(dec, [(i, P[i]) for i in P])
    assert sorted(Counter(labels).items()) == [(0, 1), (1, 2), (2, 3)]


def test_splits_outside_the_regular_module_draw_no_random_number(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("an RNG was built")

    monkeypatch.setattr(homology.np.random, "default_rng", no_rng)
    ext = all_extended_projectives(F3)
    assert sorted(P.dim for P in ext.values()) == [3, 6, 6]
    V = simple_restricted(F3, 1, cap=2)
    dec = split_indecomposables(tensor(ext[1], V))
    labels = identify_summands(dec, [(i, ext[i]) for i in range(3)])
    assert sorted(Counter(labels).items()) == [(0, 1), (2, 2)]
    rep = verma_tensor_split(F9, F9.el(0, 1), 0, simple_restricted(F9, 1))
    assert rep["failures"] == 0 and rep["checks"]


def test_unsplit_node_with_large_end0_is_inconclusive(monkeypatch):
    # End_0(L_1 + L_1) = M_2(k) has dim 4: a node no basis map splits is no leaf
    monkeypatch.setattr(homology, "_eigen_split", lambda M, phi: None)
    with pytest.raises(Inconclusive, match=r"dim 4 has dim End_0 = 4 > 2"):
        split_indecomposables(_copies(simple_restricted(F3, 1), 2))


def test_regular_end0_is_read_from_its_restricted_stack():
    # End_0(reg) is right multiplication by weight-zero elements, and End_0 of
    # a graded summand is pi End_0(reg) iota
    alg = UChiAlgebra(F3)
    reg = regular_module(alg)
    stack = alg.weight_zero_right_mult_basis()
    assert len(homology._end0_basis(reg, stack)) == hom_space(reg, reg, degree=0).dim == 9
    dec = split_indecomposables(reg, sampler=alg, seed=0)
    C = Matrix.hstack([incl for incl, _ in dec])
    proj = C.inverse()
    ends = np.cumsum([0] + [incl.cols for incl, _ in dec])
    for (incl, leaf), lo, hi in zip(dec, ends, ends[1:]):
        restricted = [Matrix(F3, proj.arr[lo:hi]) @ W @ incl for W in stack]
        assert len(homology._end0_basis(leaf, restricted)) == \
            hom_space(leaf, leaf, degree=0).dim


def test_regular_node_that_nothing_splits_is_inconclusive(monkeypatch):
    monkeypatch.setattr(homology, "_eigen_split", lambda M, phi: None)
    alg = UChiAlgebra(F3)
    with pytest.raises(Inconclusive, match=r"'regular\(p=3\)' of dim 27 has dim End_0 = 9 > 2"):
        split_indecomposables(regular_module(alg), sampler=alg)


def test_regular_split_with_scalar_draws_splits_by_its_stack_basis(monkeypatch):
    # draws that never split leave the End_0 basis to split every node: a
    # split that stopped at the draws would certify k x k nodes as leaves
    alg = UChiAlgebra(F3)
    monkeypatch.setattr(alg, "random_weight_zero_right_mult",
                        lambda rng, stack: Matrix.identity(F3, stack[0].rows))
    P = regular_split_projectives(F3, seed=0)
    dec = split_indecomposables(regular_module(alg), sampler=alg)
    labels = identify_summands(dec, [(i, P[i]) for i in P])
    assert sorted(Counter(labels).items()) == [(0, 1), (1, 2), (2, 3)]


def test_eigen_split_needs_in_field_eigenvalues_that_fill_the_module():
    # on k^3, 1 (+) [[0, -1], [1, 0]] has the one eigenvalue 1 in F_3, on a line
    M = repcore.ModuleRep(F3, [Matrix.zeros(F3, 3, 3)], [Matrix.zeros(F3, 3, 3)],
                          [0, 0, 0], provenance="k^3")
    phi = Matrix.from_int_rows(F3, [[1, 0, 0], [0, 0, -1], [0, 1, 0]])
    assert homology._eigen_split(M, phi) is None
    psi = Matrix.from_int_rows(F3, [[1, 0, 0], [0, 2, 1], [0, 0, 2]])
    assert [b.cols for b in homology._eigen_split(M, psi)] == [1, 2]


def test_split_idempotent_consistency(ext3):
    V = simple_restricted(F3, 1, cap=2)
    M = tensor(ext3[0], V)
    dec = split_indecomposables(M)
    assert sum(s.dim for _, s in dec) == M.dim
    # the summands' inclusions form an invertible matrix: its row blocks are
    # the projections, idempotent and summing to the identity
    C = Matrix.hstack([incl for incl, _ in dec])
    Cinv = C.inverse()
    lo = 0
    total = Matrix.zeros(F3, M.dim, M.dim)
    for incl, _ in dec:
        idem = incl @ Matrix(F3, Cinv.arr[lo:lo + incl.cols])
        assert idem @ idem == idem
        total = total + idem
        lo += incl.cols
    assert total == Matrix.identity(F3, M.dim)


def test_split_rejects_overlapping_or_missing_summands(monkeypatch):
    # a faulty eigen split of k + k; its one-dimensional pieces are leaves
    M = repcore.ModuleRep(F3, [Matrix.zeros(F3, 2, 2)], [Matrix.zeros(F3, 2, 2)],
                          [0, 0], provenance="k+k")
    e0, e1 = Matrix.identity(F3, 2).take_cols([0]), Matrix.identity(F3, 2).take_cols([1])
    for pieces, message in (([e0, e0.scale(F3.el(2)), e1], r"overlap: 3 columns span dimension 2"),
                            ([e0 + e1], r"fill dimension 1 of 2")):
        monkeypatch.setattr(homology, "_eigen_split",
                            lambda node, phi, pieces=pieces: pieces if node.dim == 2 else None)
        with pytest.raises(ValueError, match=r"summands of 'k\+k' " + message):
            split_indecomposables(M)


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
    coords = Hend.coordinates([ident])
    img = Matrix(F3, (Vend.E[0] @ coords).arr)
    assert img.is_zero()


def test_canonical_bases_classification():
    bases, ok, unexpected = homology.canonical_r1_hom_bases(F3)
    assert ok and not unexpected
    assert [m for m in bases[(0, 0)][0]][0] == Matrix.identity(F3, 6)
    omega = bases[(0, 0)][0][1]
    assert omega.pow_int(2).is_zero() and not omega.is_zero()
    assert set(bases[(0, 1)]) == {3, -3}


def test_canonical_bases_are_memoised_per_call_and_read_only():
    with memo.scope():
        first = homology.canonical_r1_hom_bases(F3)
        assert homology.canonical_r1_hom_bases(F3) is first
    assert homology.canonical_r1_hom_bases(F3) is not first
    bases, _, unexpected = first
    assert isinstance(bases[(0, 0)][0], tuple) and isinstance(unexpected, tuple)
    with pytest.raises(TypeError):
        bases[(0, 0)] = {}
    with pytest.raises(TypeError):
        bases[(0, 0)][0] = ()


def test_isotypic_pair_splits_by_a_basis_map_of_end0():
    # End_0(L_1 + L_1) = M_2(k); a basis map with two eigenvalues splits it
    dec = split_indecomposables(_copies(simple_restricted(F3, 1), 2))
    assert [s.dim for _, s in dec] == [2, 2]


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
        D = homology._word_diagonals(T)
        assert homology._word_diagonals(_rebuilt(T, "other")) is D
        with memo.scope():      # a nested scope reuses the open one
            assert hom_space(T, T) is H
            assert homology._word_diagonals(T) is D
    again = hom_space(T, T)     # outside a scope nothing is cached
    assert again is not H and again.basis == H.basis
    assert hom_space(T, T) is not again
    assert homology._word_diagonals(T) is not D


def test_hom_space_memo_survives_digest_collisions(monkeypatch):
    # every module gets the same digest: only the content check tells them apart
    L2 = simple_restricted(F3, 2)
    mods = [simple_restricted(F3, i) for i in range(3)] + [
        L2.shift_grading(-2),
        baby_verma(F3, F3.el(1)),   # the grading of L2<-2>, another E
        dual(L2), _rebuilt(L2, "copy")]
    pairs = [(M, N, deg) for M in mods for N in mods for deg in (None, 0, 2)]
    # the same pairs shifted by one common amount, and by two different ones
    pairs += [(M.shift_grading(4), N.shift_grading(4 + t), deg)
              for M, N, deg in pairs for t in (0, 2)]
    expected = [hom_space(M, N, degree=deg) for M, N, deg in pairs]
    words = [homology._word_diagonals(M) for M in mods]
    monkeypatch.setattr(repcore.ModuleRep, "content_digest", lambda self: b"")
    with memo.scope():
        for _ in range(2):
            for (M, N, deg), want in zip(pairs, expected):
                got = hom_space(M, N, degree=deg)
                assert got.source == M and got.target == N
                assert got.basis == want.basis and got.degrees == want.degrees
            for M, want in zip(mods, words):
                got = homology._word_diagonals(M)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(_module_pair(), st.integers(-9, 9).filter(bool), st.one_of(st.none(), st.integers(-6, 6)))
def test_hom_space_memo_reuses_only_equal_content_property(pair, s, degree):
    M, N = pair
    Ms, Ns = M.shift_grading(s), N.shift_grading(s)
    want = hom_space(Ms, Ns, degree=degree)     # solved outside any memo scope
    with memo.scope():
        H = hom_space(M, N, degree=degree)
        # a rebuilt pair of equal content is a hit
        assert hom_space(_rebuilt(M, "copy"), _rebuilt(N, "copy"), degree=degree) is H
        # shifted by a common amount: a solve of its own, with the same maps
        got = hom_space(Ms, Ns, degree=degree)
        assert got is not H and got.source is Ms and got.target is Ns
        assert got.basis == want.basis and got.degrees == want.degrees
        assert not any(a is b for a in got.basis for b in H.basis)


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
    assert M.grading.tolist() == [2, 0, -2] and M == L2


# ---------------------------------------------------------------------------
# the one constructor of the twisted tensor products
# ---------------------------------------------------------------------------

D9 = F9.el(0, 1)


def _explicit_product(factors):
    """factors[0] (x) factors[1]^[1] (x) ..., each factor already at its own cap."""
    out = frobenius_twist(factors[0], 0)
    for j, M in enumerate(factors[1:], start=1):
        out = tensor(out, frobenius_twist(M, j))
    return out


def _explicit_simple(ctx, label, d, cap):
    """The product `build_simple` formed before `repcore.twisted_tensor`."""
    r = len(label)
    return _explicit_product([baby_verma(ctx, d + ctx.el(k), cap=cap - j)
                              if j == r - 1 and d is not None
                              else simple_restricted(ctx, k, cap=cap - j)
                              for j, k in enumerate(label)])


@pytest.mark.parametrize("ctx, r, cap, d", [
    (F3, 1, 1, None), (F3, 1, 2, None), (F3, 2, 2, None), (F3, 2, 3, None),
    (F3, 3, 3, None), (F3, 3, 4, None), (F9, 1, 1, D9), (F9, 2, 2, D9),
], ids=["F3-r1-cap1", "F3-r1-cap2", "F3-r2-cap2", "F3-r2-cap3", "F3-r3-cap3",
        "F3-r3-cap4", "F9-r1-generic", "F9-r2-generic"])
def test_build_simple_is_the_explicit_twisted_product(ctx, r, cap, d):
    for lab in repcore.all_labels(ctx.p, r):
        M = steinberg.build_simple(ctx, lab, d=d, cap=cap)
        assert M.cap == cap
        assert M == _explicit_simple(ctx, lab, d, cap), lab


@pytest.mark.parametrize("ctx, d", [(F3, None), (FieldCtx(5), None), (F9, D9)],
                         ids=["F3", "F5", "F9-generic"])
def test_projective_covers_are_the_explicit_twisted_products(ctx, d):
    # the products the second-kernel algebra, the Steinberg-block reference
    # covers and both sides of the graded-swap check formed before
    # `repcore.twisted_tensor`
    ext = all_extended_projectives(ctx)
    covers = homology.projective_covers(ctx, 2, d=d)
    assert list(covers) == repcore.all_labels(ctx.p, 2)
    for (k0, k1), P in covers.items():
        top = extend_levels(ext[k1], 2) if d is None else baby_verma(ctx, d + ctx.el(k1), cap=2)
        assert P == tensor(extend_levels(ext[k0], 3), frobenius_twist(top, 1)), (k0, k1)
        if d is not None:
            swap_side = repcore.twisted_tensor(
                ctx, (k0, k1), lambda k, c: extend_levels(ext[k], c), 2, d)
            assert swap_side == tensor(
                extend_levels(ext[k0], 2),
                frobenius_twist(baby_verma(ctx, d + ctx.el(k1)), 1)), (k0, k1)


def test_projective_covers_are_built_once_per_scope(monkeypatch):
    built = []

    def counting(M, N):
        built.append((M, N))
        return tensor(M, N)

    with memo.scope():
        P = homology.projective_covers(F3, 2)
        endpresent.fixed_maps(F3)
        monkeypatch.setattr(repcore, "tensor", counting)
        # the seed reads only the regular-module split at r = 1: another
        # seed's mapping holds the same memoised covers
        assert homology.projective_covers(F3, 2) is P
        Q = homology.projective_covers(F3, 2, seed=1)
        assert list(Q) == list(P) and all(Q[lab] is P[lab] for lab in P)
        K = endpresent.KernelAlgebra(F3, 2)
        assert built == []
    assert list(K.restricted) == list(P) == K.labels
    for lab, M in K.restricted.items():
        assert M.cap == 2 and M == restrict_levels(P[lab], 2)
    with pytest.raises(TypeError):
        P[(0, 0)] = P[(1, 1)]
    # nothing is kept outside a scope
    assert homology.projective_covers(F3, 1) is not homology.projective_covers(F3, 1)


def test_projectives_command_tensor_count(monkeypatch):
    # chi = 0 and generic alike: 9 covers (one tensor each, built once and
    # read by the dimension accounting, the heads and the graded swap), 9
    # simples, 9 swapped covers and 2 extended projectives
    built = []

    def counting(M, N):
        built.append(1)
        return tensor(M, N)

    monkeypatch.setattr(repcore, "tensor", counting)
    run_command("projectives", 3, 2, 2, "auto", 2, 0)
    assert len(built) == 58


def test_center_command_dense_block_count(monkeypatch):
    # merging the two-term rows leaves 9 of the 70 blocks the Hom solver
    # eliminates for `center --p 3 --r 2` above the list-path cutoff (45
    # without the merge); a rise past 11 means the merge stopped reaching them
    sizes, kernel = [], Matrix.kernel

    def recording(A):
        if sys._getframe(1).f_code is homology._sparse_kernel.__code__:
            sizes.append(A.rows * A.cols)
        return kernel(A)

    monkeypatch.setattr(Matrix, "kernel", recording)
    run_command("center", 3, 2, 2, "auto", 2, 0)
    assert len(sizes) == 70
    assert sum(size > exactfield._LIST_MAX_CELLS for size in sizes) <= 11
