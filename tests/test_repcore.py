from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sl2frob.exactfield import FieldCtx, Matrix
from sl2frob import repcore, homology
from sl2frob.repcore import (
    simple_restricted, baby_verma, frobenius_twist, tensor, twisted_tensor, dual,
    restrict_levels, extend_levels, validate,
)
from summand_labels import identify_summands


F3 = FieldCtx(3)
F9 = FieldCtx(3, 2)
F5 = FieldCtx(5)


def test_simple_restricted_shapes():
    L0 = simple_restricted(F3, 0)
    assert L0.dim == 1 and L0.E[0].is_zero() and L0.F[0].is_zero()
    L2 = simple_restricted(F3, 2)
    assert list(L2.grading) == [2, 0, -2]
    assert L2.E[0].pow_int(3).is_zero() and not L2.E[0].pow_int(2).is_zero()
    with pytest.raises(ValueError):
        simple_restricted(F3, 3)
    for i in range(3):
        assert all(validate(simple_restricted(F3, i)).values())


def test_end_of_simple_is_scalars():
    for p, ctx in ((3, F3), (5, F5), (7, FieldCtx(7))):
        for i in range(p):
            L = simple_restricted(ctx, i)
            assert homology.hom_space(L, L).dim == 1


def test_baby_verma_action():
    d = F9.el(0, 1)
    Z = baby_verma(F9, d)
    v0 = Matrix.identity(F9, 3).take_cols([0])
    assert (Z.E[0] @ v0).is_zero()          # highest weight vector
    assert Z.E[0] @ (Z.F[0] @ v0) == v0.scale(d)   # e.(f v) = d v via ef = fe + h
    assert Z.F[0].pow_int(3).is_zero()
    assert all(validate(Z).values())
    assert homology.is_simple(Z) is True


def test_baby_verma_straightening_oracle():
    # the action coefficients agree with straightening e f^k = f^k e + k f^{k-1}(h-k+1)
    d = F9.el(0, 1)
    Z = baby_verma(F9, d)
    for k in range(1, 3):
        coeff = F9.el(k) * (d - F9.el(k - 1))
        col = Z.E[0].arr[k - 1, k]
        assert Matrix(F9, col.reshape(1, 1, 2)).entry(0, 0) == coeff


@pytest.mark.parametrize("ctx", [F5, F9, FieldCtx(5, 2)], ids=["F5", "F9", "F25"])
def test_baby_verma_entries_at_every_weight(ctx):
    # E_0 holds k (d - k + 1) on its superdiagonal, computed element by element
    # here; F_0, the grading and the p-character are those of the basis f^k v
    p = ctx.p
    for d in ctx.elements():
        for shift, cap in ((0, 1), (3, 2)):
            Z = baby_verma(ctx, d, shift=shift, cap=cap)
            for i in range(p):
                for j in range(p):
                    e = ctx.el(j) * (d - ctx.el(j - 1)) if j == i + 1 else ctx.zero()
                    assert Z.E[0].entry(i, j) == e
                    assert Z.F[0].entry(i, j) == (ctx.one() if i == j + 1 else ctx.zero())
            assert Z.grading.tolist() == [shift - 2 * k for k in range(p)]
            assert Z.pchar_scalars == (d.frobenius() - d,) + (ctx.zero(),) * (cap - 1)
            assert all(G.is_zero() for G in Z.E[1:] + Z.F[1:])


def test_twist_shapes():
    L1 = simple_restricted(F3, 1)
    T = frobenius_twist(L1, 1)
    assert T.cap == 2 and list(T.grading) == [3, -3]
    assert T.E[0].is_zero() and T.E[1] == L1.E[0]
    TT = frobenius_twist(T, 1)
    T2 = frobenius_twist(L1, 2)
    assert TT.E[2] == T2.E[2] and np.array_equal(TT.grading, T2.grading)
    assert homology.is_simple(T) is True and T.E[0].is_zero()


def test_tensor_unit_and_dims():
    L0 = simple_restricted(F3, 0)
    L2 = simple_restricted(F3, 2)
    M = tensor(L0, L2)
    assert M.dim == 3 and M.E[0] == L2.E[0]
    assert tensor(simple_restricted(F3, 1), L2).dim == 6


def test_tensor_split_l1_l1():
    from collections import Counter
    M = tensor(simple_restricted(F3, 1), simple_restricted(F3, 1))
    dec = homology.split_indecomposables(M)
    refs = [(i, simple_restricted(F3, i)) for i in (0, 2)]
    labels = identify_summands(dec, refs)
    assert sorted(Counter(labels).items()) == [(0, 1), (2, 1)]


def test_tensor_pchar_rules():
    d = F9.el(0, 1)
    Z = baby_verma(F9, d)
    with pytest.raises(ValueError):
        tensor(Z, Z)
    # opposite characters cancel (the dual pairing)
    T = tensor(dual(Z), Z)
    assert T.pchar_scalars[0].is_zero()


def test_twist_of_tensor_is_tensor_of_twists():
    A = simple_restricted(F3, 1, cap=1)
    B = simple_restricted(F3, 2, cap=1)
    lhs = frobenius_twist(tensor(A, B), 1)
    rhs = tensor(frobenius_twist(A, 1), frobenius_twist(B, 1))
    for j in range(2):
        assert lhs.E[j] == rhs.E[j] and lhs.F[j] == rhs.F[j]
    assert np.array_equal(lhs.grading, rhs.grading)


def test_dual_properties():
    d = F9.el(0, 1)
    Z = baby_verma(F9, d)
    D = dual(Z)
    assert min(D.grading) == -max(Z.grading)
    assert D.pchar_scalars[0] == -Z.pchar_scalars[0]
    # <e^(n) phi, v> = (-1)^n <phi, e^(n) v>
    for n in (1, 2):
        assert D.divided_powers("e", n)[n].transpose() == \
            Z.divided_powers("e", n)[n].scale(F9.el((-1)**n))
    # canonical generators pair to 1: dual basis convention
    for i in range(3):
        L = simple_restricted(F3, i)
        assert homology.is_isomorphic(dual(L), L) is not None


def test_restrict_levels():
    M = tensor(simple_restricted(F3, 1, cap=2),
               frobenius_twist(simple_restricted(F3, 1), 1))
    R = restrict_levels(M, 1)
    assert R.cap == 1 and R.dim == M.dim
    assert restrict_levels(M, 2).E[1] == M.E[1]
    with pytest.raises(ValueError):
        restrict_levels(M, 3)
    # restrict(L_1 (x) twist(L_1,1), 1) = L_1 + L_1 over the first kernel
    from collections import Counter
    dec = homology.split_indecomposables(R)
    labels = identify_summands(dec, [(1, simple_restricted(F3, 1))])
    assert sorted(Counter(labels).items()) == [(1, 2)]


def test_steinberg_compatibility():
    # restrict(tensor(A, twist(B,1)), 1) is dim(B) copies of A for simple A
    from collections import Counter
    for a in (1, 2):
        for b in (1, 2):
            A = simple_restricted(F3, a, cap=2)
            B = frobenius_twist(simple_restricted(F3, b), 1)
            R = restrict_levels(tensor(A, B), 1)
            dec = homology.split_indecomposables(R)
            labels = identify_summands(
                dec, [(a, simple_restricted(F3, a))])
            assert sorted(Counter(labels).items()) == [(a, b + 1)]


def test_extend_levels_guard():
    L2 = simple_restricted(F3, 2)
    E = extend_levels(L2, 2)
    assert E.cap == 2 and E.E[1].is_zero()
    St2 = tensor(simple_restricted(F3, 2, cap=2), simple_restricted(F3, 2, cap=2))
    with pytest.raises(ValueError):
        extend_levels(restrict_levels(St2, 1), 2)  # weight span 8 >= 2p


def test_module_content_is_frozen():
    L2 = simple_restricted(F3, 2)
    for name in ("ctx", "E", "F", "grading", "pchar_scalars"):
        with pytest.raises(AttributeError, match="frozen"):
            setattr(L2, name, getattr(L2, name))
    L2.provenance = "relabelled"    # a label, not content
    assert L2.provenance == "relabelled"


@st.composite
def _module(draw):
    """A simple at cap 2 over F_3 or F_9, possibly tensored with a shifted baby Verma."""
    ctx = draw(st.sampled_from([F3, F9]))
    M = simple_restricted(ctx, draw(st.integers(0, ctx.p - 1)), cap=2)
    if draw(st.booleans()):
        d = ctx.from_index(draw(st.integers(0, ctx.q - 1)))
        M = tensor(M, baby_verma(ctx, d, shift=draw(st.integers(-3, 3)), cap=2))
    return M


@settings(max_examples=60, deadline=None)
@given(_module(), st.integers(-6, 6).filter(bool))
def test_modules_compare_and_hash_by_content_property(M, s):
    ctx = M.ctx
    copy = repcore.ModuleRep(ctx, [Matrix(ctx, m.arr.copy()) for m in M.E],
                             [Matrix(ctx, m.arr.copy()) for m in M.F],
                             M.grading.copy(), M.pchar_scalars, provenance="copy")
    calls = []
    blake2b = repcore.hashlib.blake2b
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repcore.hashlib, "blake2b",
                   lambda *args, **kwargs: calls.append(args) or blake2b(*args, **kwargs))
        h = hash(copy)
        assert hash(copy) == h and copy.content_digest() == copy.content_digest()
    assert len(calls) == 1      # hashed once
    # equal content is equal, with the same hash; provenance is ignored
    assert copy == M and M == copy and hash(M) == h
    M.provenance = "relabelled"
    assert hash(M) == h and M == copy
    # a shifted grading, another p-character or another action is another module
    one = ctx.el(1)
    others = [M.shift_grading(s),
              repcore.ModuleRep(ctx, M.E, M.F, M.grading,
                                (M.pchar_scalars[0] + one,) + M.pchar_scalars[1:]),
              repcore.ModuleRep(ctx, (M.E[0] + Matrix.identity(ctx, M.dim),) + M.E[1:], M.F,
                                M.grading, M.pchar_scalars)]
    for N in others:
        assert N != M and M != N and N.content_digest() != M.content_digest()
    assert M != M.provenance and M != M.grading.tolist()


def test_validate_fault_injection():
    L2 = simple_restricted(F3, 2)
    rep = validate(L2)
    assert all(rep.values())
    E0 = L2.E[0].arr.copy()
    E0[2, 0, 0] = 1  # weight -2 -> 2 entry: breaks the shift rule
    rep = validate(repcore.ModuleRep(F3, [Matrix(F3, E0)], L2.F, L2.grading))
    assert not rep["grading_shifts"]


def _h_refines_weights(M) -> bool:
    """Every H_j acts by a scalar on each weight space of M."""
    for j in range(M.cap):
        H = M.h_matrix(j)
        for idx in M.weight_indices().values():
            blk = H.arr[np.ix_(idx, idx)]
            if not np.array_equal(blk, blk[0, 0] * np.eye(len(idx), dtype=np.int64)[..., None]):
                return False
    return True


def test_h_refinement_on_twist_structured_modules():
    # holds on Steinberg products; known to fail on tilting-type tensors
    M = tensor(simple_restricted(F3, 2, cap=2),
               frobenius_twist(simple_restricted(F3, 1), 1))
    assert _h_refines_weights(M)
    SS = tensor(simple_restricted(F3, 2, cap=2), simple_restricted(F3, 2, cap=2))
    assert validate(SS)["h_pth_power"] and not _h_refines_weights(SS)


def digit_factorised(M, kind: str, a: int) -> Matrix:
    """x^(a) as prod_j X_j^{a_j} over the base-p digits a_j of a, times prod_j inv(a_j!).

    The digits come from repeated division and each inverse from Fermat's
    little theorem, so the reference shares no arithmetic with the package.
    """
    p = M.ctx.p
    mats = M.E if kind == "e" else M.F
    out = Matrix.identity(M.ctx, M.dim)
    unit = 1
    for j in range(M.cap):
        a, dj = divmod(a, p)
        dj_factorial = 1
        for i in range(2, dj + 1):
            dj_factorial *= i
        unit = unit * pow(dj_factorial, p - 2, p) % p
        if dj:
            out = out @ mats[j].pow_int(dj)
    return out.scale(M.ctx.el(unit))


def _steinberg_type(ctx, tops):
    """L_{t_0} (x) L_{t_1}^(1) (x) ... with a nonzero action at every level."""
    return twisted_tensor(ctx, tops, lambda t, c: simple_restricted(ctx, t, c), len(tops))


@pytest.mark.parametrize("ctx, tops", [(F3, (2, 1)), (F3, (2, 1, 1)),
                                       (F5, (3, 2)), (F5, (1, 1, 1))],
                         ids=["p3-cap2", "p3-cap3", "p5-cap2", "p5-cap3"])
def test_divided_powers_match_digit_factorisation(ctx, tops):
    M = _steinberg_type(ctx, tops)
    M = tensor(M, M) if M.dim <= 6 else M
    top = ctx.p ** M.cap - 1
    for kind in ("e", "f"):
        for n in sorted({1, ctx.p, ctx.p + 1, top}):
            ladder = M.divided_powers(kind, n)
            assert len(ladder) == n + 1
            for a, x in enumerate(ladder):
                assert x == digit_factorised(M, kind, a), (kind, n, a)
        assert not M.divided_powers(kind, ctx.p)[ctx.p].is_zero()
    with pytest.raises(ValueError):
        M.divided_powers("e", top + 1)


@pytest.mark.parametrize("ctx, tops", [(F3, (2, 1)), (F3, (2, 1, 1)), (F5, (3, 2))],
                         ids=["p3-cap2", "p3-cap3", "p5-cap2"])
def test_tensor_matches_the_full_coproduct_sum(ctx, tops):
    # tensor skips the terms with a zero divided power; the sum must not change
    M = _steinberg_type(ctx, tops)
    N = simple_restricted(ctx, 1, cap=M.cap)
    T = tensor(M, N)
    zero_terms = 0
    for j in range(M.cap):
        n = ctx.p**j
        for kind, got in (("e", T.E[j]), ("f", T.F[j])):
            xm, xn = M.divided_powers(kind, n), N.divided_powers(kind, n)
            terms = [xm[a].kron(xn[n - a]) for a in range(n + 1)]
            zero_terms += sum(t.is_zero() for t in terms)
            assert got == sum(terms[1:], terms[0]), (kind, j)
    assert zero_terms


def test_divided_power_small_on_simple():
    L2 = repcore.simple_restricted(F3, 2)
    e2 = L2.divided_powers("e", 2)[2]
    half = F3.el(2)  # 1/2 = 2 mod 3
    assert e2 == (L2.E[0] @ L2.E[0]).scale(half)
    # n = p on L_i vanishes: the operator raises the weight by 2p
    L2c2 = repcore.simple_restricted(F3, 2, cap=2)
    assert L2c2.divided_powers("e", 3)[3].is_zero()


def test_divided_power_binomial_identity():
    # e^(a) e^(b) = binom(a+b, a) e^(a+b) on a module with honest level-1 action
    St = repcore.simple_restricted(F3, 2, cap=2)
    M = repcore.tensor(St, St)
    for a in range(4):
        for b in range(4):
            if a + b >= 9:
                continue
            powers = M.divided_powers("e", a + b)
            lhs = powers[a] @ powers[b]
            rhs = powers[a + b].scale(F3.el(comb(a + b, a) % 3))
            assert lhs == rhs, (a, b)


def test_coproduct_nilpotency_on_small_tensor():
    # on L_1 (x) L_1 (weights <= 2) the induced e^(3) operator is zero at p=3
    L1 = repcore.simple_restricted(F3, 1, cap=2)
    M = repcore.tensor(L1, L1)
    assert M.E[1].is_zero()


def test_coproduct_coassociativity_via_tensor():
    # building a triple tensor in either association gives identical operators
    rng = np.random.default_rng(0)
    mods = [repcore.simple_restricted(F3, i, cap=2) for i in (1, 2, 1)]
    A = repcore.tensor(repcore.tensor(mods[0], mods[1]), mods[2])
    B = repcore.tensor(mods[0], repcore.tensor(mods[1], mods[2]))
    for j in range(2):
        assert A.E[j] == B.E[j] and A.F[j] == B.F[j]
