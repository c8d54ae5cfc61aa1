"""ModuleRep calculus: constructors, functors, validity checks, content digests.

A module over a central reduction of the divided-power algebra is stored as
matrices E_j, F_j for the actions of e^(p^j), f^(p^j) at levels j < cap,
together with an integer weight grading and one p-character scalar per
level.  The scalar at level j is the value of H_j^p - H_j where
H_j = [E_j, F_j]; it is zero below the top level for every module built
here and equals chi(h)^p (suitably Frobenius-twisted) at the top.

The divided powers (`ModuleRep.divided_powers`) and the coproduct that
reads them (`tensor`) live here; of the package, this module imports only
`exactfield`.  Steinberg's twisted tensor products over a label's digits,
the simples and the projective covers alike, have one constructor,
`twisted_tensor`.

A ModuleRep's content is frozen: its level matrices are read-only
`Matrix` values held in tuples, its grading is a read-only array, and none
of them can be reassigned.  So a module is a value: it compares by content
and hashes its content digest, computed once, and it can key a call-scoped
memo and be shared by every caller of one.
"""

from __future__ import annotations

import hashlib
import operator
from functools import reduce
from math import factorial, prod

import numpy as np

from .exactfield import Basis, FieldCtx, FieldElement, Matrix

_FUSE_TAG_LEN = 40


def all_labels(p: int, r: int) -> list[tuple]:
    """Every digit tuple (k_0, ..., k_{r-1}) with 0 <= k_j <= p-1, k_0 slowest."""
    labels = [()]
    for _ in range(r):
        labels = [lab + (k,) for lab in labels for k in range(p)]
    return labels


class ModuleRep:
    """A finite-dimensional module with divided-power level actions.

    The content (field, level actions, grading, p-characters) is frozen:
    assigning any of it after construction raises AttributeError, which is
    what lets `content_digest` be computed once.  Two modules are equal when
    their content is; `provenance` is a label, ignored by equality and the
    hash, and stays writable.
    """

    _CONTENT = frozenset({"ctx", "E", "F", "grading", "pchar_scalars"})

    def __init__(self, ctx: FieldCtx, E: list[Matrix], F: list[Matrix],
                 grading, pchar_scalars: list[FieldElement] | None = None,
                 provenance: str = ""):
        if len(E) != len(F) or not E:
            raise ValueError("need matching nonempty E, F level lists")
        E, F = tuple(E), tuple(F)
        grading = np.asarray(grading, dtype=np.int64)
        if grading.flags.writeable:
            grading = grading.copy()
            grading.flags.writeable = False
        dim = grading.shape[0]
        for m in E + F:
            if m.shape != (dim, dim):
                raise ValueError("generator matrix shape does not match grading")
        pchar_scalars = tuple(pchar_scalars) if pchar_scalars is not None \
            else (ctx.zero(),) * len(E)
        if len(pchar_scalars) != len(E):
            raise ValueError("one p-character scalar per level required")
        for name, value in (("ctx", ctx), ("E", E), ("F", F), ("grading", grading),
                            ("pchar_scalars", pchar_scalars)):
            object.__setattr__(self, name, value)
        self.provenance = provenance
        self._digest = None

    def __setattr__(self, name, value):
        if name in self._CONTENT:
            raise AttributeError(f"ModuleRep.{name} is frozen")
        object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return int(self.grading.shape[0])

    @property
    def cap(self) -> int:
        return len(self.E)

    def content_digest(self) -> bytes:
        """Digest of the field, p-characters, level actions and grading (not
        provenance), hashed on the first call; the frozen content keeps it valid."""
        if self._digest is None:
            h = hashlib.blake2b(repr((self.ctx, self.dim, self.cap,
                                      [s.coeffs for s in self.pchar_scalars])).encode(),
                                digest_size=16)
            h.update(self.grading.tobytes())
            for m in self.E + self.F:
                h.update(m.arr.tobytes())
            self._digest = h.digest()
        return self._digest

    def __hash__(self):
        return hash(self.content_digest())

    def __eq__(self, other):
        """Equal field, grading, p-characters and level actions (provenance aside)."""
        return (isinstance(other, ModuleRep) and self.ctx == other.ctx and self.cap == other.cap
                and self.pchar_scalars == other.pchar_scalars
                and np.array_equal(self.grading, other.grading)
                and all(a is b or a == b for a, b in zip(self.E + self.F, other.E + other.F)))

    def weights(self) -> list[int]:
        return sorted(set(int(w) for w in self.grading))

    def weight_indices(self) -> dict[int, np.ndarray]:
        return {w: np.nonzero(self.grading == w)[0] for w in self.weights()}

    def h_matrix(self, level: int = 0) -> Matrix:
        return self.E[level].commutator(self.F[level])

    def divided_powers(self, kind: str, n: int) -> list[Matrix]:
        """[x^(0), ..., x^(n)] for x = e (kind 'e') or f (kind 'f'), by digit factorization.

        x^(a) is prod_j X_j^{a_j} prod_j inv(a_j!) over the base-p digits a_j
        of a < p^cap.  One power ladder X_j^d is built per level j, only up
        to d = min(p-1, n // p^j), and every x^(a) reads from it.
        """
        p, cap = self.ctx.p, self.cap
        if n >= p**cap:
            raise ValueError(f"x^({n}) needs a level at or above cap {cap} (p={p})")
        mats = self.E if kind == "e" else self.F
        ladders = [m.powers(min(p - 1, n // p**j)) for j, m in enumerate(mats)]
        out = []
        for a in range(n + 1):
            digits = [a // p**j % p for j in range(cap)]
            unit = prod(pow(factorial(d), -1, p) for d in digits) % p
            factors = [ladders[j][d] for j, d in enumerate(digits) if d]
            x = reduce(operator.matmul, factors) if factors else ladders[0][0]
            out.append(x if unit == 1 else x.scale(self.ctx.el(unit)))
        return out

    def shift_grading(self, s: int) -> "ModuleRep":
        return ModuleRep(self.ctx, self.E, self.F, self.grading + s,
                         self.pchar_scalars, provenance=self.provenance)

    def __repr__(self):
        return f"ModuleRep(dim={self.dim}, cap={self.cap}, {self.provenance!r})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def simple_restricted(ctx: FieldCtx, i: int, cap: int = 1) -> ModuleRep:
    """The restricted simple L_i (0 <= i <= p-1), with zero higher-level actions.

    This is the canonical divided-power structure: e^(n) = 0 for n > i by
    the weight bound, so all levels j >= 1 act by zero.
    """
    p = ctx.p
    if not 0 <= i <= p - 1:
        raise ValueError(f"need 0 <= i <= p-1, got {i}")
    n = i + 1
    k = np.arange(1, n)
    E0 = np.zeros((n, n, ctx.k), dtype=np.int64)
    F0 = np.zeros((n, n, ctx.k), dtype=np.int64)
    E0[k - 1, k, 0] = k * (i - k + 1) % p
    F0[k, k - 1, 0] = 1
    grading = np.array([i - 2 * k for k in range(n)], dtype=np.int64)
    higher = [Matrix.zeros(ctx, n, n)] * (cap - 1) if cap > 1 else []
    E = [Matrix._own(ctx, E0)] + higher
    F = [Matrix._own(ctx, F0)] + higher
    return ModuleRep(ctx, E, F, grading, [ctx.zero()] * cap, provenance=f"L_{i}")


def baby_verma(ctx: FieldCtx, d: FieldElement, shift: int = 0, cap: int = 1) -> ModuleRep:
    """Baby Verma Z_d for u_chi(sl2): basis f^k v, h f^k v = (d-2k) f^k v.

    The integer grading is shift - 2k; for generic d the top h-eigenvalue d
    is not an integer and the grading is an independent datum.
    """
    p = ctx.p
    k = np.arange(1, p)
    E0, F0 = np.zeros((2, p, p, ctx.k), dtype=np.int64)
    E0[k - 1, k] = [(ctx.el(j) * (d - ctx.el(j - 1))).coeffs for j in range(1, p)]
    F0[k, k - 1, 0] = 1
    grading = shift - 2 * np.arange(p)
    s = d.frobenius() - d
    higher = [Matrix.zeros(ctx, p, p)] * (cap - 1) if cap > 1 else []
    E = [Matrix._own(ctx, E0)] + higher
    F = [Matrix._own(ctx, F0)] + higher
    pch = [s] + [ctx.zero()] * (cap - 1)
    return ModuleRep(ctx, E, F, grading, pch, provenance=f"Z({d})")


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------

def frobenius_twist(M: ModuleRep, j: int) -> ModuleRep:
    """Shift all level actions up by j; grading is scaled by p^j."""
    if j < 0:
        raise ValueError("twist exponent must be nonnegative")
    ctx = M.ctx
    zeros = Matrix.zeros(ctx, M.dim, M.dim)
    E = [zeros] * j + list(M.E)
    F = [zeros] * j + list(M.F)
    pch = [ctx.zero()] * j + list(M.pchar_scalars)
    out = ModuleRep(ctx, E, F, M.grading * (ctx.p**j), pch,
                    provenance=f"({M.provenance})^({j})")
    return out


def restrict_levels(M: ModuleRep, r: int) -> ModuleRep:
    """Forget the actions at levels >= r; the underlying space is unchanged."""
    if not 1 <= r <= M.cap:
        raise ValueError(f"cannot restrict cap {M.cap} to {r}")
    return ModuleRep(M.ctx, M.E[:r], M.F[:r], M.grading, M.pchar_scalars[:r],
                     provenance=f"res_{r}({M.provenance})")


def extend_levels(M: ModuleRep, cap: int) -> ModuleRep:
    """Add zero action at new top levels (valid when weight bounds force them)."""
    if cap < M.cap:
        raise ValueError("use restrict_levels to drop levels")
    ctx = M.ctx
    span = int(M.grading.max() - M.grading.min()) if M.dim else 0
    for j in range(M.cap, cap):
        if 2 * ctx.p**j <= span:
            raise ValueError("zero extension not forced by weights; build the action")
    zeros = Matrix.zeros(ctx, M.dim, M.dim)
    E = list(M.E) + [zeros] * (cap - M.cap)
    F = list(M.F) + [zeros] * (cap - M.cap)
    pch = list(M.pchar_scalars) + [ctx.zero()] * (cap - M.cap)
    return ModuleRep(ctx, E, F, M.grading, pch, provenance=M.provenance)


def tensor(M: ModuleRep, N: ModuleRep) -> ModuleRep:
    """Tensor product along the divided-power coproduct.

    E_j(M (x) N) = sum_{a+b=p^j} e^(a)_M (x) e^(b)_N, read for every level
    j from one `divided_powers` ladder per factor and kind, up to
    p^(cap-1); a term with a zero factor is skipped.  p-characters add
    levelwise and at most one factor may carry a nonzero scalar at any level.
    """
    if M.ctx != N.ctx:
        raise ValueError("mixed field contexts")
    if M.cap != N.cap:
        raise ValueError(f"level caps differ: {M.cap} vs {N.cap}")
    ctx = M.ctx
    p = ctx.p
    E, F = [], []
    zero = np.zeros((M.dim * N.dim, M.dim * N.dim, ctx.k), dtype=np.int64)
    top = p ** (M.cap - 1)
    for kind, acc in (("e", E), ("f", F)):
        xm, xn = M.divided_powers(kind, top), N.divided_powers(kind, top)
        for j in range(M.cap):
            n = p**j
            acc.append(Matrix(ctx, sum((xm[a].kron(xn[n - a]).arr for a in range(n + 1)
                                        if not (xm[a].is_zero() or xn[n - a].is_zero())), zero)))
    grading = (M.grading[:, None] + N.grading[None, :]).reshape(-1)
    pch = []
    for j in range(M.cap):
        a, b = M.pchar_scalars[j], N.pchar_scalars[j]
        s = a + b
        # characters add levelwise; a pair of opposite characters (dual
        # pairing) cancels and is fine, but an honestly composite nonzero
        # reduction is outside the modeled family
        if not a.is_zero() and not b.is_zero() and not s.is_zero():
            raise ValueError(f"two non-cancelling p-characters at level {j}")
        pch.append(s)
    pm, pn = M.provenance, N.provenance
    tag = f"{pm}*{pn}" if len(pm) + len(pn) < _FUSE_TAG_LEN else "tensor"
    return ModuleRep(ctx, E, F, grading, pch, provenance=tag)


def twisted_tensor(ctx: FieldCtx, label: tuple[int, ...], factor, cap: int,
                   d: FieldElement | None = None, name: str = "") -> ModuleRep:
    """factor(k_0) (x) factor(k_1)^[1] (x) ... at level cap, with Z_{d+k} on the top digit k if d.

    The one constructor of the simples and the projective covers.  Digit j
    is factor(k_j, cap - j), the cap its j-fold twist leaves, in tensor slot
    j (k_0 leftmost): callers read slot dimensions and Hom bases in this
    Kronecker order.  The provenance is name + label, "@chi" if d is given.
    """
    r = len(label)
    factors = []
    for j, k in enumerate(label):
        if j == r - 1 and d is not None:
            base = baby_verma(ctx, d + ctx.el(k), cap=cap - j)
        else:
            base = factor(k, cap - j)
        factors.append(frobenius_twist(base, j))
    M = reduce(tensor, factors)
    M.provenance = f"{name}{label}" + ("" if d is None else "@chi")
    return M


def dual(M: ModuleRep) -> ModuleRep:
    """Dual module with the antipode convention e^(n) -> (-1)^n e^(n).

    Since p is odd, every level action e^(p^j) picks up a single minus sign
    and transposes; the grading and p-character scalars are negated.
    """
    ctx = M.ctx
    E = [(-m.transpose()) for m in M.E]
    F = [(-m.transpose()) for m in M.F]
    pch = [-s for s in M.pchar_scalars]
    return ModuleRep(ctx, E, F, -M.grading, pch, provenance=f"dual({M.provenance})")


def submodule(M: ModuleRep, basis: Matrix, provenance: str = "sub") -> ModuleRep:
    """Restrict M to the submodule spanned by the columns of basis.

    The columns must be independent and weight-homogeneous, and the span
    must be stable under all level actions (checked exactly by `Basis`).
    """
    ctx = M.ctx
    span = Basis(basis)
    E, F = [], []
    for j in range(M.cap):
        for mats, acc in ((M.E, E), (M.F, F)):
            sol = span.coordinates(mats[j] @ basis)
            if sol is None:
                raise ValueError("basis does not span a submodule")
            acc.append(sol)
    grading = np.zeros(basis.cols, dtype=np.int64)
    for t in range(basis.cols):
        rows = np.nonzero(basis.arr[:, t].any(axis=-1))[0]
        ws = set(int(M.grading[r]) for r in rows)
        if len(ws) != 1:
            raise ValueError("submodule basis vector is not weight-homogeneous")
        grading[t] = ws.pop()
    return ModuleRep(ctx, E, F, grading, M.pchar_scalars, provenance=provenance)


# ---------------------------------------------------------------------------
# validation and canonical checks
# ---------------------------------------------------------------------------

def ungraded_level(M: ModuleRep) -> int | None:
    """The first level j whose E_j or F_j does not shift the grading by +-2p^j, or None."""
    for j in range(M.cap):
        shift = 2 * M.ctx.p**j
        for mat, sgn in ((M.E[j], +1), (M.F[j], -1)):
            rows, cols = np.nonzero(mat.arr.any(axis=-1))
            if (M.grading[rows] != M.grading[cols] + sgn * shift).any():
                return j
    return None


def validate(M: ModuleRep) -> dict:
    """Itemized invariant report; never raises on failures."""
    ctx = M.ctx
    p = ctx.p
    report: dict[str, bool] = {}
    report["grading_shifts"] = ungraded_level(M) is None

    report["nilpotent_ef"] = all(
        M.E[j].pow_int(p).is_zero() and M.F[j].pow_int(p).is_zero()
        for j in range(M.cap))

    ok_comm = True
    for i in range(M.cap):
        for j in range(i + 1, M.cap):
            if not M.E[i].commutator(M.E[j]).is_zero():
                ok_comm = False
            if not M.F[i].commutator(M.F[j]).is_zero():
                ok_comm = False
    report["level_e_f_commute"] = ok_comm

    ok_h = True
    for j in range(M.cap):
        H = M.h_matrix(j)
        target = Matrix.scalar(ctx, M.dim, M.pchar_scalars[j])
        if not (H.pow_int(p) - H - target).is_zero():
            ok_h = False
    report["h_pth_power"] = ok_h
    return report
