"""The restricted enveloping algebra u_0(sl2) by its generator matrices, and its regular module.

Conventions: generators e, h, f with [e,f] = h, [h,e] = 2e, [h,f] = -2f.
PBW monomials are e^a h^b f^c with 0 <= a,b,c < p, the monomial (a, b, c)
at index (a p + b) p + c.  At the zero character the central reduction is

    e^p = 0,   f^p = 0,   h^p = h.

The algebra is held as the three matrices R_e, R_h, R_f of right
multiplication by a generator; products of them give every other right
multiplication, and applied to a generator they give its left
multiplication on the regular module, a `repcore.ModuleRep`.
Divided powers are `repcore.ModuleRep.divided_powers`.
"""

from __future__ import annotations

import operator
from functools import reduce
from math import comb

import numpy as np

from . import repcore
from .exactfield import FieldCtx, Matrix


class UChiAlgebra:
    """u_0(sl2) as the matrices of y -> y e, y -> y h and y -> y f on the PBW basis.

    R_{xy} = R_y R_x, so right multiplication by e^a h^b f^c is
    R_f^c R_h^b R_e^a, and left multiplication by g sends the monomial
    e^a h^b f^c to g e^a h^b f^c = R_f^c R_h^b R_e^a g.
    """

    def __init__(self, ctx: FieldCtx):
        p = ctx.p
        self.ctx = ctx
        self.p = p
        self.dim = p**3
        idx = np.arange(self.dim)
        a, b, c = idx // p**2, idx // p % p, idx % p
        self.weights = 2 * (a - c)           # e has weight 2, f has -2, h has 0
        hb = np.where(b + 1 < p, b + 1, 1)   # h^b h with h^p = h
        up, down = a + 1 < p, c >= 1         # e^p = 0; f^c e needs c >= 1
        # h_plus_2[b, i] is the coefficient of h^i in (h + 2)^b
        h_plus_2 = np.array([[comb(n, i) * 2**(n - i) if i <= n else 0 for i in range(p)]
                             for n in range(p)])
        # a term (mask, a', b', c', coeff): for each monomial y = e^a h^b f^c
        # where mask holds, y times the generator has coeff at e^a' h^b' f^c'
        self.Rf = self._scatter([(c + 1 < p, a, b, c + 1, 1)])
        # f^c h = (h + 2c) f^c
        self.Rh = self._scatter([(True, a, b, c, 2 * c), (True, a, hb, c, 1)])
        # f^c e = e f^c - c h f^(c-1) - c(c-1) f^(c-1) and h^b e = e (h + 2)^b
        self.Re = self._scatter([(up, a + 1, i, c, h_plus_2[b, i]) for i in range(p)]
                                + [(down, a, hb, c - 1, -c), (down, a, b, c - 1, -c * (c - 1))])

    def _scatter(self, terms) -> Matrix:
        """The matrix whose column y holds the listed terms of y times a generator."""
        p, n = self.p, self.dim
        src = np.arange(n)
        M = np.zeros((n, n), dtype=np.int64)
        for mask, a, b, c, coeff in terms:
            keep, tgt, val = np.broadcast_arrays(mask, (a * p + b) * p + c, coeff)
            np.add.at(M, (tgt[keep], src[keep]), val[keep])
        out = np.zeros((n, n, self.ctx.k), dtype=np.int64)
        out[..., 0] = M % p
        return Matrix(self.ctx, out)

    def left_mult(self, g: str) -> Matrix:
        """Matrix of y -> g y for g = e or f: column e^a h^b f^c is R_f^c R_h^b R_e^a g."""
        ctx, n = self.ctx, self.dim
        cols = np.zeros((n, 1, ctx.k), dtype=np.int64)
        cols[{"e": self.p**2, "f": 1}[g], 0, 0] = 1
        for R in (self.Re, self.Rh, self.Rf):
            powers = [Matrix(ctx, cols)]
            for _ in range(self.p - 1):
                powers.append(R @ powers[-1])
            # column j of the block becomes columns j p, ..., j p + p - 1
            cols = np.stack([m.arr for m in powers], axis=2).reshape(n, -1, ctx.k)
        return Matrix(ctx, cols)

    def weight_zero_right_mult_basis(self) -> list[Matrix]:
        """Right multiplications by the p^2 weight-zero monomials e^a h^b f^a.

        These span the degree-0 endomorphisms of the left regular module,
        which is what the splitting machinery samples from.  Each is
        R_f^a R_h^b R_e^a, read from one power ladder per generator.
        """
        p = self.p
        Re, Rh, Rf = (R.powers(p - 1) for R in (self.Re, self.Rh, self.Rf))
        out = []
        for a in range(p):
            for b in range(p):
                factors = [m for m, d in ((Rf[a], a), (Rh[b], b), (Re[a], a)) if d]
                out.append(reduce(operator.matmul, factors) if factors else Rh[0])
        return out

    def random_weight_zero_right_mult(self, rng: np.random.Generator,
                                      stack: list[Matrix]) -> Matrix:
        """sum_k c_k W_k over the stack W_k, each c_k drawn uniformly from F_q in order.

        The stack is `weight_zero_right_mult_basis()` or its restriction to
        a summand of the regular module.
        """
        ctx = self.ctx
        out = np.zeros(stack[0].arr.shape, dtype=np.int64)
        for W in stack:
            c = int(rng.integers(0, ctx.q))
            if c:
                out += ctx.arr_mul(W.arr, ctx.arr_from_index(np.array(c)))
        return Matrix(ctx, out)


def regular_module(alg: UChiAlgebra):
    """The left regular module of u_0(sl2) as a ModuleRep (level cap 1)."""
    ctx = alg.ctx
    return repcore.ModuleRep(ctx, [alg.left_mult("e")], [alg.left_mult("f")], alg.weights,
                             [ctx.zero()], provenance=f"regular(p={ctx.p})")
