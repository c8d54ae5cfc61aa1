import numpy as np
import pytest

from sl2frob.exactfield import FieldCtx, Matrix
from sl2frob import repcore
from sl2frob.smallalg import UChiAlgebra, regular_module


F3 = FieldCtx(3)
F5 = FieldCtx(5)

ALG3 = UChiAlgebra(F3)
ALG5 = UChiAlgebra(F5)


def test_dimension():
    assert ALG3.dim == 27
    assert ALG5.dim == 125


def test_defining_relation_fe():
    # fe = ef - h: R_{fe} = R_e R_f sends 1 to fe
    I = Matrix.identity(F3, ALG3.dim)
    one = I.take_cols([0])
    # e f is the monomial (1, 0, 1) at index 10, h is (0, 1, 0) at index 3
    assert ALG3.Re @ ALG3.Rf @ one == I.take_cols([10]) - I.take_cols([3])


def test_truncation():
    I = Matrix.identity(F3, ALG3.dim)
    one = I.take_cols([0])
    assert (ALG3.Re.pow_int(3) @ one).is_zero()
    assert (ALG3.Rf.pow_int(3) @ one).is_zero()
    # h^p = h at chi = 0
    assert ALG3.Rh.pow_int(3) @ one == I.take_cols([3])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_generator_matrices_define_u0(p):
    ctx = FieldCtx(p)
    alg = UChiAlgebra(ctx)
    Re, Rh, Rf = alg.Re, alg.Rh, alg.Rf
    # a right action reverses products (R_{xy} = R_y R_x), so [x, y] = z
    # reads R_y R_x - R_x R_y = R_z
    assert Rf @ Re - Re @ Rf == Rh
    assert Re @ Rh - Rh @ Re == Re.scale(ctx.el(2))
    assert Rf @ Rh - Rh @ Rf == Rf.scale(ctx.el(-2))
    assert Re.pow_int(p).is_zero() and Rf.pow_int(p).is_zero()
    assert Rh.pow_int(p) == Rh
    # left multiplications commute with right multiplications
    reg = regular_module(alg)
    for L in (reg.E[0], reg.F[0]):
        for R in (Re, Rh, Rf):
            assert L @ R == R @ L
    # R_f^c R_h^b R_e^a maps 1 to e^a h^b f^c, the monomial at index (a p + b) p + c
    images = [Matrix.identity(ctx, alg.dim).take_cols([0])]
    for R in (Re, Rh, Rf):
        powers = [R.pow_int(t) for t in range(p)]
        images = [Rt @ x for x in images for Rt in powers]
    assert Matrix.hstack(images) == Matrix.identity(ctx, alg.dim)


@pytest.mark.parametrize("ctx", [F3, FieldCtx(3, 2)], ids=["F3", "F9"])
def test_weight_zero_draw_is_the_scaled_sum(ctx):
    # one uniform F_q coefficient per stack element, drawn in stack order
    alg = UChiAlgebra(ctx)
    stack = alg.weight_zero_right_mult_basis()
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(3):
        want = Matrix.zeros(ctx, alg.dim, alg.dim)
        for W in stack:
            want = want + W.scale(ctx.from_index(int(ref_rng.integers(0, ctx.q))))
        assert alg.random_weight_zero_right_mult(rng, stack) == want


def test_radical_nilpotent_by_power_iteration():
    # The ideal generated by e, f alone is the whole augmentation ideal
    # (it contains h = ef - fe with h^p = h), so it is NOT nilpotent; the
    # nilpotent ideal of u_0 is its radical, computed through the regular
    # module.  Its powers J^(k+1) = J J^k are spans of left multiplications
    # and reach zero.
    from sl2frob import homology

    alg = ALG3
    reg = regular_module(alg)
    simples = [(i, repcore.simple_restricted(F3, i)) for i in range(3)]
    rad_basis, _ = homology.radical_and_head(reg, simples)
    # dim rad = p^3 - sum (dim L_i)^2 = 27 - 14
    assert rad_basis.cols == 13

    Le, Lf = reg.E[0], reg.F[0]
    Lh = Le.commutator(Lf)
    # left multiplication by e^a h^b f^c is Le^a Lh^b Lf^c
    L_mono = [Le.pow_int(a) @ Lh.pow_int(b) @ Lf.pow_int(c)
              for a in range(3) for b in range(3) for c in range(3)]

    def left_mult(x):
        out = Matrix.zeros(F3, alg.dim, alg.dim)
        for i, L in enumerate(L_mono):
            out = out + L.scale(x.entry(i, 0))
        return out

    rad_mults = [left_mult(rad_basis.take_cols([t])) for t in range(rad_basis.cols)]
    layer = rad_basis
    for _ in range(6):
        if layer.cols == 0:
            break
        R, piv = Matrix.hstack([L @ layer for L in rad_mults]).transpose().rref()
        layer = Matrix(F3, R.arr[:len(piv)]).transpose()
    assert layer.cols == 0


def test_regular_module_shape():
    reg = regular_module(ALG3)
    assert reg.dim == 27
    assert reg.E[0].pow_int(3).is_zero()
    # faithful: left multiplication by a nonzero element is nonzero on 1
    assert not reg.E[0].is_zero() and not reg.F[0].is_zero()
    rep = repcore.validate(reg)
    assert all(rep.values())
