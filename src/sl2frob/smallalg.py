"""The reduced enveloping algebra u_chi(sl2) in PBW form, and divided-power tools.

Conventions: generators e, h, f with [e,f] = h, [h,e] = 2e, [h,f] = -2f.
PBW monomials are e^a h^b f^c with 0 <= a,b,c < p, encoded as (a, b, c).
The central reduction for a semisimple p-character chi (supported on h) is

    e^p = 0,   f^p = 0,   h^p = h + chi(h)^p.

A "generic" character is parametrized by a weight seed d outside F_p; the
character value chi(h) is recovered from d^p - d = chi(h)^p, which is
solvable because x -> x^p is an automorphism of F_{p^2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactfield import FieldCtx, FieldElement, Matrix


# ---------------------------------------------------------------------------
# digit / factorial helpers
# ---------------------------------------------------------------------------

def digits(n: int, p: int, length: int) -> list[int]:
    """Base-p digits of n, lowest first, padded to the given length."""
    if n < 0 or n >= p**length:
        raise ValueError(f"{n} out of digit range for p={p}, length={length}")
    out = []
    for _ in range(length):
        out.append(n % p)
        n //= p
    return out


def factorial_mod(n: int, p: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out = (out * i) % p
    return out


def binom_mod(n: int, k: int, p: int) -> int:
    """binom(n, k) mod p via Lucas' theorem (n, k >= 0)."""
    if k < 0 or k > n:
        return 0
    out = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        num = factorial_mod(ni, p)
        den = (factorial_mod(ki, p) * factorial_mod(ni - ki, p)) % p
        out = (out * num * pow(den, p - 2, p)) % p
        n //= p
        k //= p
    return out


@dataclass(frozen=True)
class DividedPowerPlan:
    """Digit factorization of a divided power e^(n) = prod_i (e^(p^i))^{n_i} / n_i!."""

    order: int
    digit_list: tuple[int, ...]
    correction: int  # the unit prod_i inv(n_i!) in F_p

    @classmethod
    def build(cls, n: int, p: int, cap: int) -> "DividedPowerPlan":
        ds = digits(n, p, cap)
        corr = 1
        for d in ds:
            corr = (corr * pow(factorial_mod(d, p), p - 2, p)) % p
        return cls(n, tuple(ds), corr)


# ---------------------------------------------------------------------------
# p-characters
# ---------------------------------------------------------------------------

class PChar:
    """A semisimple p-character of sl2, supported on h (chi(e) = chi(f) = 0)."""

    def __init__(self, ctx: FieldCtx, chi_h: FieldElement, seed: FieldElement | None = None):
        self.ctx = ctx
        self.chi_h = chi_h
        self.seed = seed

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "PChar":
        return cls(ctx, ctx.zero())

    @classmethod
    def from_weight_seed(cls, ctx: FieldCtx, d: FieldElement) -> "PChar":
        """chi with chi(h)^p = d^p - d; generic iff d is outside F_p."""
        s = d.frobenius() - d
        # invert frobenius: over F_{p^2} applying it once more recovers chi(h)
        chi_h = s.frobenius() if ctx.k == 2 else s
        return cls(ctx, chi_h, seed=d)

    @property
    def is_generic(self) -> bool:
        return self.seed is not None and not self.seed.in_prime_field()

    def scalar(self) -> FieldElement:
        """The value of h^p - h on any module with this character: chi(h)^p."""
        return self.chi_h.frobenius() if self.ctx.k == 2 else self.chi_h

    def __repr__(self):
        return f"PChar(chi_h={self.chi_h})"


# ---------------------------------------------------------------------------
# PBW arithmetic
# ---------------------------------------------------------------------------

class PBWElement:
    """A linear combination of PBW monomials e^a h^b f^c, coefficients in F_q."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: "UChiAlgebra", terms: dict | None = None):
        self.alg = alg
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    def _add_term(self, mon, coeff):
        cur = self.terms.get(mon)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            self.terms.pop(mon, None)
        else:
            self.terms[mon] = new

    def __add__(self, other):
        out = PBWElement(self.alg, dict(self.terms))
        for m, c in other.terms.items():
            out._add_term(m, c)
        return out

    def __sub__(self, other):
        out = PBWElement(self.alg, dict(self.terms))
        for m, c in other.terms.items():
            out._add_term(m, -c)
        return out

    def scale(self, c: FieldElement):
        return PBWElement(self.alg, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other: "PBWElement") -> "PBWElement":
        alg = self.alg
        out = PBWElement(alg)
        for m2, c2 in other.terms.items():
            part = alg._mul_by_monomial(self, m2)
            for m, c in part.terms.items():
                out._add_term(m, c * c2)
        return out

    def __eq__(self, other):
        return isinstance(other, PBWElement) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b, c) in sorted(self.terms):
            coeff = self.terms[(a, b, c)]
            mon = "".join(s for s, n in (("e", a), ("h", b), ("f", c)) for _ in range(n)) or "1"
            bits.append(f"{coeff}*{mon}")
        return " + ".join(bits)


class UChiAlgebra:
    """u_chi(sl2): the p^3-dimensional central reduction in a PBW basis."""

    def __init__(self, ctx: FieldCtx, chi: PChar):
        self.ctx = ctx
        self.p = ctx.p
        self.chi = chi
        self.hp_shift = chi.scalar()  # h^p = h + hp_shift
        self.dim = ctx.p**3
        self.monomials = [(a, b, c)
                          for a in range(self.p)
                          for b in range(self.p)
                          for c in range(self.p)]
        self.index = {m: i for i, m in enumerate(self.monomials)}

    # weights: e has weight 2, f has -2, h has 0
    def monomial_weight(self, mon) -> int:
        a, _, c = mon
        return 2 * (a - c)

    def zero(self) -> PBWElement:
        return PBWElement(self)

    def element(self, terms: dict) -> PBWElement:
        return PBWElement(self, terms)

    def unit(self) -> PBWElement:
        return PBWElement(self, {(0, 0, 0): self.ctx.one()})

    def generator(self, name: str) -> PBWElement:
        mon = {"e": (1, 0, 0), "h": (0, 1, 0), "f": (0, 0, 1)}[name]
        return PBWElement(self, {mon: self.ctx.one()})

    # -- straightening core: right-multiplication by a single generator ----

    def _mul_gen_f(self, x: PBWElement) -> PBWElement:
        out = PBWElement(self)
        for (a, b, c), coeff in x.terms.items():
            if c + 1 < self.p:
                out._add_term((a, b, c + 1), coeff)
            # f^p = 0 under a semisimple character
        return out

    def _mul_gen_h(self, x: PBWElement) -> PBWElement:
        out = PBWElement(self)
        for (a, b, c), coeff in x.terms.items():
            # f^c h = h f^c + 2c f^c
            out._add_term((a, b, c), coeff * (2 * c))
            if b + 1 < self.p:
                out._add_term((a, b + 1, c), coeff)
            else:
                # h^p = h + chi(h)^p
                out._add_term((a, 1, c), coeff)
                out._add_term((a, 0, c), coeff * self.hp_shift)
        return out

    def _mul_gen_e(self, x: PBWElement) -> PBWElement:
        p = self.p
        out = PBWElement(self)
        for (a, b, c), coeff in x.terms.items():
            # f^c e = e f^c - c h f^{c-1} - c(c-1) f^{c-1}
            if a + 1 < p:
                # e^a h^b e f^c = e^{a+1} (h+2)^b f^c
                for i in range(b + 1):
                    u = (binom_mod(b, i, p) * pow(2, b - i, p)) % p
                    if u:
                        out._add_term((a + 1, i, c), coeff * u)
            if c >= 1:
                if b + 1 < p:
                    out._add_term((a, b + 1, c - 1), coeff * (-c))
                else:
                    out._add_term((a, 1, c - 1), coeff * (-c))
                    out._add_term((a, 0, c - 1), (coeff * (-c)) * self.hp_shift)
                out._add_term((a, b, c - 1), coeff * (-(c * (c - 1))))
        return out

    def _mul_by_monomial(self, x: PBWElement, mon) -> PBWElement:
        a, b, c = mon
        out = x
        for _ in range(a):
            out = self._mul_gen_e(out)
        for _ in range(b):
            out = self._mul_gen_h(out)
        for _ in range(c):
            out = self._mul_gen_f(out)
        return out

    def straighten(self, word: list[str]) -> PBWElement:
        """Product of the listed generators, reduced to the PBW basis."""
        out = self.unit()
        for g in word:
            if g == "e":
                out = self._mul_gen_e(out)
            elif g == "h":
                out = self._mul_gen_h(out)
            elif g == "f":
                out = self._mul_gen_f(out)
            else:
                raise ValueError(f"unknown generator {g!r}")
        return out

    # -- matrices -----------------------------------------------------------

    def left_mult_matrix(self, x: PBWElement) -> Matrix:
        """Matrix of y -> x*y in the monomial basis."""
        ctx = self.ctx
        M = np.zeros((self.dim, self.dim, ctx.k), dtype=np.int64)
        for j, mon in enumerate(self.monomials):
            prod = x * self.element({mon: ctx.one()})
            for m, c in prod.terms.items():
                M[self.index[m], j] = c._arr()
        return Matrix(ctx, M)

    def right_mult_matrix(self, x: PBWElement) -> Matrix:
        """Matrix of y -> y*x: a module endomorphism of the left regular module."""
        ctx = self.ctx
        M = np.zeros((self.dim, self.dim, ctx.k), dtype=np.int64)
        for j, mon in enumerate(self.monomials):
            prod = self.element({mon: ctx.one()}) * x
            for m, c in prod.terms.items():
                M[self.index[m], j] = c._arr()
        return Matrix(ctx, M)

    def weight_zero_right_mult_basis(self) -> list[Matrix]:
        """Right multiplications by the p^2 weight-zero monomials e^a h^b f^a.

        Cached; these span the degree-0 endomorphisms of the left regular
        module, which is what the splitting machinery samples from.
        R_{xy} = R_y R_x, so a monomial's matrix is a product of the three
        generator matrices.
        """
        if not hasattr(self, "_rmult_w0"):
            Re = self.right_mult_matrix(self.generator("e"))
            Rh = self.right_mult_matrix(self.generator("h"))
            Rf = self.right_mult_matrix(self.generator("f"))
            out = []
            for a in range(self.p):
                Ra = Re.pow_int(a)
                for b in range(self.p):
                    out.append(Rf.pow_int(a) @ Rh.pow_int(b) @ Ra)
            self._rmult_w0 = out
        return self._rmult_w0

    def random_weight_zero_right_mult(self, rng: np.random.Generator) -> Matrix:
        basis = self.weight_zero_right_mult_basis()
        out = Matrix.zeros(self.ctx, self.dim, self.dim)
        for m in basis:
            c = self.ctx.from_index(int(rng.integers(0, self.ctx.q)))
            if not c.is_zero():
                out = out + m.scale(c)
        return out

def build_u_chi(ctx: FieldCtx, chi: PChar) -> UChiAlgebra:
    return UChiAlgebra(ctx, chi)


def regular_module(alg: UChiAlgebra):
    """The left regular module of u_chi(sl2) as a ModuleRep (level cap 1)."""
    from . import repcore

    ctx = alg.ctx
    E = alg.left_mult_matrix(alg.generator("e"))
    F = alg.left_mult_matrix(alg.generator("f"))
    grading = np.array([alg.monomial_weight(m) for m in alg.monomials], dtype=np.int64)
    M = repcore.ModuleRep(ctx, [E], [F], grading, [alg.chi.scalar()],
                          provenance=f"regular(p={ctx.p})")
    M.aux = alg
    return M
