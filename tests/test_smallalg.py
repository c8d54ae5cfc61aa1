import numpy as np
import pytest

from sl2frob.exactfield import FieldCtx, Matrix
from sl2frob import repcore
from sl2frob.smallalg import (
    PChar, UChiAlgebra, build_u_chi, regular_module,
    DividedPowerPlan, digits, binom_mod,
)


F3 = FieldCtx(3)
F5 = FieldCtx(5)
F9 = FieldCtx(3, 2)

ALG3 = build_u_chi(F3, PChar.zero(F3))
ALG5 = build_u_chi(F5, PChar.zero(F5))


def rand_element(alg, rng, terms=4):
    out = {}
    for _ in range(terms):
        m = alg.monomials[int(rng.integers(0, alg.dim))]
        out[m] = alg.ctx.from_index(int(rng.integers(0, alg.ctx.q)))
    return alg.element(out)


def test_dimension():
    assert ALG3.dim == 27
    assert ALG5.dim == 125


def test_defining_relation_fe():
    fe = ALG3.straighten(["f", "e"])
    assert fe == ALG3.element({(1, 0, 1): F3.one(), (0, 1, 0): -F3.one()})


def test_truncation():
    assert ALG3.straighten(["e"] * 3).is_zero()
    assert ALG3.straighten(["f"] * 3).is_zero()
    # h^p = h at chi = 0
    hp = ALG3.straighten(["h"] * 3)
    assert hp == ALG3.element({(0, 1, 0): F3.one()})


def test_straighten_against_regular_representation():
    # h e^2 = e^2 h + 4 e^2 at p = 5, checked against left-multiplication matrices
    he2 = ALG5.straighten(["h", "e", "e"])
    assert he2 == ALG5.element({(2, 1, 0): F5.one(), (2, 0, 0): F5.el(4)})
    Lh = ALG5.left_mult_matrix(ALG5.generator("h"))
    Le = ALG5.left_mult_matrix(ALG5.generator("e"))
    assert ALG5.left_mult_matrix(he2) == Lh @ Le @ Le


def test_straighten_is_multiplicative():
    rng = np.random.default_rng(2)
    gens = ["e", "h", "f"]
    for _ in range(30):
        w1 = [gens[i] for i in rng.integers(0, 3, size=rng.integers(0, 6))]
        w2 = [gens[i] for i in rng.integers(0, 3, size=rng.integers(0, 6))]
        assert ALG3.straighten(w1 + w2) == ALG3.straighten(w1) * ALG3.straighten(w2)


@pytest.mark.parametrize("alg,seed", [(ALG3, 0), (ALG5, 1)])
def test_associativity_random_triples(alg, seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        x, y, z = (rand_element(alg, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_radical_nilpotent_by_power_iteration():
    # The ideal generated by e, f alone is the whole augmentation ideal
    # (it contains h = ef - fe with h^p = h), so it is NOT nilpotent; the
    # nilpotent ideal of u_0 is its radical, computed through the regular
    # module and then power-iterated to zero.
    from sl2frob import homology

    alg = ALG3
    ctx = alg.ctx
    reg = regular_module(alg)
    simples = [(i, repcore.simple_restricted(F3, i)) for i in range(3)]
    rad_basis, _ = homology.radical_and_head(reg, simples)
    # dim rad = p^3 - sum (dim L_i)^2 = 27 - 14
    assert rad_basis.cols == 13

    def col_to_elem(col):
        terms = {}
        for i, m in enumerate(alg.monomials):
            c = F3.el(int(col.arr[i, 0, 0]))
            if not c.is_zero():
                terms[m] = c
        return alg.element(terms)

    layer = [col_to_elem(Matrix(ctx, rad_basis.arr[:, t:t + 1]))
             for t in range(rad_basis.cols)]
    for _ in range(6):
        if not layer:
            break
        prods = [x * y for x in layer for y in layer]
        layer = [z for z in prods if not z.is_zero()]
    assert layer == []


def test_regular_module_shape():
    reg = regular_module(ALG3)
    assert reg.dim == 27
    assert reg.E[0].pow_int(3).is_zero()
    # faithful: left multiplication by a nonzero element is nonzero on 1
    assert not reg.E[0].is_zero() and not reg.F[0].is_zero()
    rep = repcore.validate(reg)
    assert all(rep.values())


def test_digits_and_plans():
    assert digits(4, 3, 2) == [1, 1]
    plan = DividedPowerPlan.build(4, 3, 2)
    assert plan.digit_list == (1, 1) and plan.correction == 1
    plan = DividedPowerPlan.build(2, 3, 2)
    # e^(2) = e^2/2: correction inv(2!) = 2 mod 3
    assert plan.correction == 2
    with pytest.raises(ValueError):
        DividedPowerPlan.build(9, 3, 2)


def test_divided_power_small_on_simple():
    L2 = repcore.simple_restricted(F3, 2)
    e2 = L2.divided_power("e", 2)
    half = F3.el(2)  # 1/2 = 2 mod 3
    assert e2 == (L2.E[0] @ L2.E[0]).scale(half)
    # n = p on L_i vanishes: the operator raises the weight by 2p
    L2c2 = repcore.simple_restricted(F3, 2, cap=2)
    assert L2c2.divided_power("e", 3).is_zero()


def test_divided_power_binomial_identity():
    # e^(a) e^(b) = binom(a+b, a) e^(a+b) on a module with honest level-1 action
    St = repcore.simple_restricted(F3, 2, cap=2)
    M = repcore.tensor(St, St)
    for a in range(4):
        for b in range(4):
            if a + b >= 9:
                continue
            lhs = M.divided_power("e", a) @ M.divided_power("e", b)
            rhs = M.divided_power("e", a + b).scale(F3.el(binom_mod(a + b, a, 3)))
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


def test_generic_pchar():
    d = F9.gen()
    chi = PChar.from_weight_seed(F9, d)
    assert chi.is_generic
    assert chi.chi_h.frobenius() == d.frobenius() - d
    alg = build_u_chi(F9, chi)
    # h^p = h + chi(h)^p
    hp = alg.straighten(["h"] * 3)
    assert hp == alg.element({(0, 1, 0): F9.one(), (0, 0, 0): chi.scalar()})
    reg = regular_module(alg)
    assert all(repcore.validate(reg).values())
