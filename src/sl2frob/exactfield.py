"""Exact arithmetic over F_{p^k} (k = 1 or 2) and dense linear algebra.

Field elements are coefficient vectors of length k over F_p relative to a
fixed monic irreducible modulus; matrices are dense numpy int64 arrays of
shape (rows, cols, k).  All arithmetic is exact (reduced mod p and mod the
modulus).  A large product runs its plane products on float64 BLAS, which
carries every integer below 2^53 exactly: it is taken only when the inner
dimension m keeps every partial sum below that, m (p-1)^2 < 2^53 over F_p and
m (p-1)^2 (p+1) < 2^53 over F_{p^2} once the modulus terms are folded in, and
the result is converted back to int64 and reduced mod p once (Dumas, Giorgi
and Pernet, FFLAS-FFPACK, ACM TOMS 2008).  Every other product stays in
int64.  The BLAS thread count (OPENBLAS_NUM_THREADS) changes speed, never
results.

There is one `FieldCtx` per field and process, keyed by (p, k, modulus):
its lookup tables and interned elements are constants of the field, built
once on first use and read-only, so every command shares them.

Gaussian elimination runs on element indices (a0 + a1*x is a0 + p*a1):
the matrix is converted once, each pivot step is a few lookups in the
context's q x q multiplication and subtraction tables, and the result is
converted back once; `rank`, `kernel` and `solve` read the index form and
convert only what they return.  An array of at most `_LIST_MAX_CELLS` cells
is reduced as a Python list through tuple tables, a larger one through
numpy.  Both use the first nonzero pivot, which makes every reduced basis
deterministic and therefore serializable for golden tests.  Scalar
`FieldElement` arithmetic reads the tuple tables and returns the context's
one interned element per index.

A `Matrix` array is read-only once constructed: build a numpy array, then
wrap it.  `Matrix(ctx, arr)` copies arr and reduces it mod p; the private
`Matrix._own` wraps without either, and may only be given a fresh int64
array of residues that nothing writes again, such as a result of
`arr_matmul`, `arr_mul`, an elimination, a reduced sum, or a slice or stack
of read-only `Matrix` arrays.

`Basis` is the one path for coordinates in a basis, and `rref_join` the one
step that grows a span: it joins a stack of rows to a span's RREF rows.
`homology.spin` and the monomial closure of `endpresent` grow their spans
by rounds of it (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, ch. 7).  `solve` stays as the reference tests compare it to.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Products of at least this many multiplications (n*m*l, times the batch)
# run on float64 BLAS.  Measured single-threaded on a 2-core x86-64 host
# (AVX-512, OpenBLAS), numpy's int64 loop and the float64 plane products
# break even at about 3,500 (square) to 13,000 (matrix-vector) for k = 1
# and about 1,500 to 3,000 for k = 2.  Replaying the products of one pass
# of each benchmark workload, the total is flat from 1,024 to 8,192.
_BLAS_MIN_MULTS = 4096

# Eliminations of at most this many cells run on Python lists of element
# indices; larger ones run on numpy arrays.  Replaying every elimination of
# one pass of each benchmark workload (2-CPU x86-64 host), the list path is
# 2-3x faster up to 300 cells and its total stays at or below the numpy
# path's up to 2,000; only arrays with one or two rows or columns of 324 or
# more cells lose.  On dense random square arrays the two break even at
# about 400 (F_25) to 625 (F_3) cells.
_LIST_MAX_CELLS = 600


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _find_modulus(p: int) -> tuple[int, int]:
    """Smallest-coefficient monic irreducible quadratic x^2 + c1*x + c0 over F_p.

    For p = 3 mod 4 this is always x^2 + 1; otherwise scan (c1, c0) in
    lexicographic order.  The choice is recorded in every report.
    """
    if p % 4 == 3:
        return (0, 1)
    squares = {(x * x) % p for x in range(p)}
    for c1 in range(p):
        for c0 in range(1, p):
            # x^2 + c1 x + c0 irreducible iff discriminant is a non-square
            disc = (c1 * c1 - 4 * c0) % p
            if disc not in squares:
                return (c1, c0)
    raise ValueError(f"no irreducible quadratic over F_{p}")  # unreachable


class FieldCtx:
    """The field F_{p^k} with a fixed modulus, plus element lookup tables.

    Elements are encoded as int64 coefficient vectors of length k (entries
    in [0, p)); an element a0 + a1*x is also indexed by a0 + p*a1 (0 is the
    zero element).  The q x q multiplication and subtraction tables and the
    inverse and Frobenius tables act on these indices; `Matrix.rref`
    eliminates through them.

    There is one context per field and process: `FieldCtx(p, k, modulus)`
    returns the context registered for (p, k, resolved modulus), whose
    read-only tables and interned elements are built on first use, once.
    A context is a constant of the field, so contexts compare by identity;
    arguments that raise register nothing.
    """

    _known: dict[tuple, "FieldCtx"] = {}   # (p, k, modulus) -> the context

    def __new__(cls, p: int, k: int = 1, modulus: tuple[int, int] | None = None):
        if not _is_prime(p) or p < 3:
            raise ValueError(f"p must be an odd prime, got {p}")
        if k not in (1, 2):
            raise ValueError(f"extension degree must be 1 or 2, got {k}")
        if k == 1:
            modulus = (0, 0)
        else:
            modulus = tuple(modulus) if modulus is not None else _find_modulus(p)
            c1, c0 = modulus
            squares = {(x * x) % p for x in range(p)}
            if (c1 * c1 - 4 * c0) % p in squares:
                raise ValueError(f"modulus x^2+{c1}x+{c0} is reducible over F_{p}")
        ctx = cls._known.get((p, k, modulus))
        if ctx is not None:
            return ctx
        ctx = object.__new__(cls)
        ctx.p, ctx.k, ctx.q, ctx.modulus = p, k, p**k, modulus
        # the largest inner dimension m whose products float64 carries exactly
        # (every integer below 2^53): each plane product is at most m (p-1)^2,
        # and folding in c0, c1 < p bounds the F_{p^2} combination by m (p-1)^2 (p+1)
        ctx._blas_inner = (2**53 - 1) // ((p - 1) ** 2 * (p + 1 if k == 2 else 1))
        # a context built concurrently for the same field may have won
        return cls._known.setdefault((p, k, modulus), ctx)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        """(mul, sub, inv, frob) on element indices, read-only: mul[i, j] and
        sub[i, j] are the indices of i*j and i-j, inv[i] of 1/i (inv[0] is
        unused) and frob[i] of i^p."""
        idx = np.arange(self.q)
        coeffs = self.arr_from_index(idx)
        mul = self.arr_index(self.arr_mul(coeffs[:, None], coeffs[None, :]))
        sub = self.arr_index((coeffs[:, None] - coeffs[None, :]) % self.p)
        inv = np.zeros(self.q, dtype=np.int64)
        inv[1:] = np.argmax(mul[1:] == 1, axis=1)
        frob = idx
        for _ in range(self.p - 1):
            frob = mul[frob, idx]
        for t in (mul, sub, inv, frob):
            t.flags.writeable = False
        return mul, sub, inv, frob

    @cached_property
    def _ops(self) -> tuple[tuple, ...]:
        """(elements, mul, sub, inv, frob): the q interned elements in index
        order and the `_tables` as tuples, for scalar arithmetic and small
        eliminations."""
        p, k = self.p, self.k
        return (tuple(FieldElement(self, (i % p, i // p)[:k]) for i in range(self.q)),
                *(tuple(map(tuple, t.tolist())) if t.ndim == 2 else tuple(t.tolist())
                  for t in self._tables))

    # -- scalar encoding -------------------------------------------------

    def el(self, a0: int, a1: int = 0) -> "FieldElement":
        return self._ops[0][a0 % self.p + (self.p * (a1 % self.p) if self.k == 2 else 0)]

    def zero(self) -> "FieldElement":
        return self.el(0)

    def one(self) -> "FieldElement":
        return self.el(1)

    def from_index(self, idx: int) -> "FieldElement":
        return self.el(idx % self.p, idx // self.p)

    def elements(self):
        """All q field elements, in index order."""
        return list(self._ops[0])

    def arr_index(self, a: np.ndarray) -> np.ndarray:
        """Element indices a0 + p*a1 of a coefficient array (drops the last axis)."""
        return a[..., 0] + self.p * a[..., 1] if self.k == 2 else a[..., 0].copy()

    def arr_from_index(self, idx: np.ndarray) -> np.ndarray:
        """Coefficient array of an array of element indices."""
        if self.k == 1:
            return idx[..., None]
        out = np.empty(idx.shape + (2,), dtype=np.int64)
        out[..., 1], out[..., 0] = np.divmod(idx, self.p)
        return out

    # -- vectorized coefficient-array arithmetic --------------------------

    def arr_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field product of coefficient arrays (broadcasting)."""
        p = self.p
        if self.k == 1:
            return (a * b) % p
        c1, c0 = self.modulus
        a0, a1 = a[..., 0], a[..., 1]
        b0, b1 = b[..., 0], b[..., 1]
        cross = a1 * b1
        out = np.empty(cross.shape + (2,), dtype=np.int64)
        out[..., 0] = a0 * b0 - c0 * cross
        out[..., 1] = a0 * b1 + a1 * b0 - c1 * cross
        out %= p
        return out

    def arr_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product of coefficient arrays, shapes (..., n,m,k) x (..., m,l,k).

        Entries must be residues in [0, p).  A product of at least
        _BLAS_MIN_MULTS multiplications whose inner dimension m is within the
        exactness bound multiplies float64 copies of the planes; all others
        multiply the int64 planes.  Both reduce mod p once at the end.
        """
        k = self.k
        if (a.shape[-2] <= self._blas_inner
                and max(a.size * b.shape[-2], b.size * a.shape[-3]) >= _BLAS_MIN_MULTS * k):
            planes = [x[..., i].astype(np.float64) for x in (a, b) for i in range(k)]
        else:
            planes = [x[..., i] for x in (a, b) for i in range(k)]
        if k == 1:
            out = (planes[0] @ planes[1])[..., None]
        else:
            c1, c0 = self.modulus
            a0, a1, b0, b1 = planes
            cross = a1 @ b1
            out = np.empty(cross.shape + (2,), dtype=cross.dtype)
            out[..., 0] = a0 @ b0 - c0 * cross
            out[..., 1] = a0 @ b1 + a1 @ b0 - c1 * cross
        out = out.astype(np.int64, copy=False)
        out %= self.p
        return out

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        c1, c0 = self.modulus
        return f"F_{self.p}^2[x^2+{c1}x+{c0}]"

    def describe(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus_c1_c0": list(self.modulus)}


class FieldElement:
    """An element of F_{p^k}: a length-k coefficient vector over F_p, and its index."""

    __slots__ = ("ctx", "coeffs", "idx")

    def __init__(self, ctx: FieldCtx, coeffs):
        self.ctx = ctx
        c = tuple(int(v) % ctx.p for v in coeffs)
        if len(c) != ctx.k:
            raise ValueError(f"expected {ctx.k} coefficients, got {len(c)}")
        self.coeffs = c
        self.idx = c[0] + ctx.p * c[1] if ctx.k == 2 else c[0]

    def _check(self, other: "FieldElement") -> tuple[tuple, ...]:
        """The context's `_ops`, once other is known to share the field."""
        if self.ctx is not other.ctx:
            raise ValueError("mixed field contexts")
        return self.ctx._ops

    def _arr(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64)

    def __add__(self, other):
        els, _, sub, _, _ = self._check(other)
        return els[sub[self.idx][sub[0][other.idx]]]

    def __sub__(self, other):
        els, _, sub, _, _ = self._check(other)
        return els[sub[self.idx][other.idx]]

    def __neg__(self):
        els, _, sub, _, _ = self.ctx._ops
        return els[sub[0][self.idx]]

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ctx.el(other)
        els, mul, _, _, _ = self._check(other)
        return els[mul[self.idx][other.idx]]

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        if not self.idx:
            raise ZeroDivisionError("division by zero in F_q")
        els, _, _, inv, _ = self.ctx._ops
        return els[inv[self.idx]]

    def __truediv__(self, other):
        return self * other.inv()

    def frobenius(self) -> "FieldElement":
        """x -> x^p, a ring automorphism fixing exactly F_p."""
        els, _, _, _, frob = self.ctx._ops
        return els[frob[self.idx]]

    def is_zero(self) -> bool:
        return not self.idx

    def in_prime_field(self) -> bool:
        return self.idx < self.ctx.p

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldElement)
            and self.ctx == other.ctx
            and self.idx == other.idx
        )

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        if self.ctx.k == 1 or self.coeffs[1] == 0:
            return str(self.coeffs[0])
        return f"({self.coeffs[0]}+{self.coeffs[1]}x)"


class Matrix:
    """Dense matrix over F_{p^k}, stored as a read-only int64 array of shape (r, c, k)."""

    __slots__ = ("ctx", "arr")

    def __init__(self, ctx: FieldCtx, arr: np.ndarray):
        arr = np.asarray(arr, dtype=np.int64)
        if arr.ndim != 3 or arr.shape[2] != ctx.k:
            raise ValueError(f"bad matrix array shape {arr.shape}")
        self.ctx = ctx
        self.arr = arr % ctx.p
        self.arr.flags.writeable = False

    @classmethod
    def _own(cls, ctx: FieldCtx, arr: np.ndarray) -> "Matrix":
        """Wrap arr as it is: a fresh int64 array of residues that nothing
        writes again (see the module docstring)."""
        m = object.__new__(cls)
        m.ctx, m.arr = ctx, arr
        arr.flags.writeable = False
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "Matrix":
        return cls._own(ctx, np.zeros((rows, cols, ctx.k), dtype=np.int64))

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Matrix":
        a = np.zeros((n, n, ctx.k), dtype=np.int64)
        a[np.arange(n), np.arange(n), 0] = 1
        return cls._own(ctx, a)

    @classmethod
    def from_int_rows(cls, ctx: FieldCtx, rows) -> "Matrix":
        """Build from nested lists of integers (embedded via F_p)."""
        base = np.asarray(rows, dtype=np.int64)
        a = np.zeros(base.shape + (ctx.k,), dtype=np.int64)
        a[..., 0] = base
        return cls(ctx, a)

    @classmethod
    def scalar(cls, ctx: FieldCtx, n: int, value: FieldElement) -> "Matrix":
        a = np.zeros((n, n, ctx.k), dtype=np.int64)
        a[np.arange(n), np.arange(n), :] = value._arr()
        return cls(ctx, a)

    # -- basic structure ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.arr.shape[0]

    @property
    def cols(self) -> int:
        return self.arr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.arr.shape[0], self.arr.shape[1])

    def entry(self, i: int, j: int) -> FieldElement:
        return self.ctx.el(*self.arr[i, j].tolist())

    def is_zero(self) -> bool:
        return not self.arr.any()

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ctx == other.ctx
            and self.shape == other.shape
            and np.array_equal(self.arr, other.arr)
        )

    def _check(self, other: "Matrix"):
        if self.ctx != other.ctx:
            raise ValueError("mixed field contexts")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix._own(self.ctx, (self.arr + other.arr) % self.ctx.p)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix._own(self.ctx, (self.arr - other.arr) % self.ctx.p)

    def __neg__(self) -> "Matrix":
        return Matrix._own(self.ctx, (-self.arr) % self.ctx.p)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return Matrix._own(self.ctx, self.ctx.arr_matmul(self.arr, other.arr))

    def scale(self, v: FieldElement) -> "Matrix":
        return Matrix._own(self.ctx, self.ctx.arr_mul(self.arr, v._arr()))

    def transpose(self) -> "Matrix":
        return Matrix._own(self.ctx, np.swapaxes(self.arr, 0, 1))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; (A kron B)(u kron v) = Au kron Bv."""
        self._check(other)
        ctx = self.ctx
        ra, ca = self.shape
        rb, cb = other.shape
        a = self.arr[:, None, :, None, :]
        b = other.arr[None, :, None, :, :]
        prod = ctx.arr_mul(np.broadcast_to(a, (ra, rb, ca, cb, ctx.k)),
                           np.broadcast_to(b, (ra, rb, ca, cb, ctx.k)))
        return Matrix._own(ctx, prod.reshape(ra * rb, ca * cb, ctx.k))

    def pow_int(self, n: int) -> "Matrix":
        """self^n by squaring, from the lowest set bit of n to the highest."""
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        if not n:
            return Matrix.identity(self.ctx, self.rows)
        base = self
        while not n & 1:
            base = base @ base
            n >>= 1
        out = base
        while n := n >> 1:
            base = base @ base
            if n & 1:
                out = out @ base
        return out

    def powers(self, n: int) -> list["Matrix"]:
        """The ladder [I, self, self^2, ..., self^n], one product per step."""
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        out = [Matrix.identity(self.ctx, self.rows)]
        while len(out) <= n:
            out.append(self if len(out) == 1 else out[-1] @ self)
        return out

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    # -- slicing / stacking ----------------------------------------------------

    def take_rows(self, idx) -> "Matrix":
        return Matrix._own(self.ctx, self.arr[np.asarray(idx, dtype=np.int64)])

    def take_cols(self, idx) -> "Matrix":
        return Matrix._own(self.ctx, self.arr[:, np.asarray(idx, dtype=np.int64)])

    @classmethod
    def hstack(cls, mats: list["Matrix"]) -> "Matrix":
        return cls._own(mats[0].ctx, np.concatenate([m.arr for m in mats], axis=1))

    @classmethod
    def vstack(cls, mats: list["Matrix"]) -> "Matrix":
        return cls._own(mats[0].ctx, np.concatenate([m.arr for m in mats], axis=0))

    # -- elimination ----------------------------------------------------------

    def rref(self, indices: bool = False) -> tuple["Matrix | np.ndarray", list[int]]:
        """Reduced row echelon form and pivot column list.

        Deterministic: always takes the first row with a nonzero entry in
        the current column (exact arithmetic needs no pivoting heuristics).
        With indices=True the form is the (r, c) element-index array the
        elimination ran on, not converted back to a Matrix.
        """
        ctx = self.ctx
        A = ctx.arr_index(self.arr)
        pivots = _eliminate(ctx, A)
        if indices:
            return A, pivots
        return Matrix._own(ctx, ctx.arr_from_index(A)), pivots

    def rank(self) -> int:
        return len(self.rref(indices=True)[1])

    def kernel(self) -> "Matrix":
        """Matrix whose columns are a basis of the right kernel (RREF-canonical)."""
        ctx = self.ctx
        R, pivots = self.rref(indices=True)
        c = self.cols
        is_free = np.ones(c, dtype=bool)
        is_free[pivots] = False
        free = is_free.nonzero()[0]
        K = np.zeros((c, free.size), dtype=np.int64)
        K[free, np.arange(free.size)] = 1
        K[pivots] = ctx._tables[1][0, R[:len(pivots), free]]   # 0 - R
        return Matrix._own(ctx, ctx.arr_from_index(K))

    def solve(self, B: "Matrix") -> "Matrix | None":
        """A particular solution X of self @ X = B, or None if inconsistent."""
        ctx = self.ctx
        self._check(B)
        if B.rows != self.rows:
            raise ValueError("incompatible right-hand side")
        aug = Matrix.hstack([self, B])
        R, pivots = aug.rref(indices=True)
        n = self.cols
        if any(pc >= n for pc in pivots):
            return None
        X = np.zeros((n, B.cols), dtype=np.int64)
        X[pivots] = R[:len(pivots), n:]
        return Matrix._own(ctx, ctx.arr_from_index(X))

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse needs a square matrix")
        # a solution of A X = I for square A is already a two-sided inverse
        X = self.solve(Matrix.identity(self.ctx, self.rows))
        if X is None:
            raise ValueError("matrix is singular")
        return X

    def __repr__(self):
        return f"Matrix({self.ctx}, {self.rows}x{self.cols})"


def _eliminate(ctx: FieldCtx, A: np.ndarray) -> list[int]:
    """Reduce the element-index array A to RREF in place; return the pivot columns.

    Arrays of at most _LIST_MAX_CELLS cells are reduced as a Python list
    through the tuple tables of `FieldCtx._ops`, larger ones through the
    numpy tables; both take the first nonzero pivot."""
    if A.size <= _LIST_MAX_CELLS:
        return _eliminate_list(ctx, A)
    mul, sub, inv, _ = ctx._tables
    r, c = A.shape
    pivots: list[int] = []
    row = 0
    for col in range(c):
        if row >= r:
            break
        nz = A[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            A[[row, pr]] = A[[pr, row]]
        # the pivot row is zero left of col, so every update starts there
        A[row, col:] = mul[inv[A[row, col]], A[row, col:]]
        others = A[:, col].nonzero()[0]
        others = others[others != row]
        if others.size:
            A[others, col:] = sub[A[others, col:], mul[A[others, col][:, None], A[row, col:]]]
        pivots.append(col)
        row += 1
    return pivots


def _eliminate_list(ctx: FieldCtx, A: np.ndarray) -> list[int]:
    """`_eliminate` on one flat list of A's entries; row i starts at i*c."""
    _, mul, sub, inv, _ = ctx._ops
    r, c = A.shape
    flat, end = A.ravel().tolist(), r * c
    pivots: list[int] = []
    top = 0                                  # start of the next pivot row
    for col in range(c):
        if top >= end:
            break
        for at in range(top + col, end, c):
            if flat[at]:
                break
        else:
            continue
        if at != top + col:
            at -= col
            flat[top:top + c], flat[at:at + c] = flat[at:at + c], flat[top:top + c]
        seg = flat[top + col:top + c]
        scale = mul[inv[seg[0]]]
        seg = flat[top + col:top + c] = [scale[x] for x in seg]
        nz = [(j, x) for j, x in enumerate(seg, col) if x]
        for i, f in enumerate(flat[col:end:c]):  # column col, row by row
            start = i * c
            if f and start != top:
                by = mul[f]
                for j, x in nz:
                    flat[start + j] = sub[flat[start + j]][by[x]]
        pivots.append(col)
        top += c
    A[...] = np.array(flat, dtype=np.int64).reshape(r, c)
    return pivots


def rref_join(R: Matrix, pivots: list[int], V: Matrix) -> tuple[Matrix, list[int], Matrix]:
    """Join the rows of V to the span with RREF rows R and pivot columns pivots.

    Returns the RREF rows of the joint span, its pivots and the rows it
    added, those at the new pivots.  V is reduced against the span in one
    product, V - V[:, pivots] R, which is zero at the old pivots.  Only the
    nonzero rows of that residual are eliminated, restricted to its nonzero
    columns: a column that is zero in every row stays zero under row
    operations.  The new rows clear their pivot columns from R and join it
    in pivot order.
    """
    ctx, c, k = V.ctx, V.cols, V.ctx.k
    rest = V.arr
    if pivots:
        rest = (rest - ctx.arr_matmul(rest[:, pivots], R.arr)) % ctx.p
    rest = rest[rest.any(axis=(1, 2))]
    cols = np.flatnonzero(rest.any(axis=(0, 2)))
    A = ctx.arr_index(rest[:, cols])
    grown = _eliminate(ctx, A)
    new = np.zeros((len(grown), c, k), dtype=np.int64)
    new[:, cols] = ctx.arr_from_index(A[:len(grown)])
    added, grown = Matrix._own(ctx, new), cols[grown].tolist()
    if not grown:
        return R, pivots, added
    if not pivots:
        return added, grown, added
    merged = sorted(pivots + grown)
    at = {col: i for i, col in enumerate(merged)}
    out = np.empty((len(merged), c, k), dtype=np.int64)
    out[[at[col] for col in pivots]] = (R.arr - ctx.arr_matmul(R.arr[:, grown], new)) % ctx.p
    out[[at[col] for col in grown]] = new
    return Matrix._own(ctx, out), merged, added


class Basis:
    """Independent columns B and the pivot columns of their span's RREF rows.

    B restricted to the pivot rows is invertible, so the coordinates of V are
    read off V at those rows.  Construction rejects dependent columns
    instead of picking one of several coordinate vectors.
    """

    def __init__(self, B: Matrix):
        pivots = B.transpose().rref(indices=True)[1]
        if len(pivots) < B.cols:
            independent = B.rref(indices=True)[1]
            dependent = sorted(set(range(B.cols)) - set(independent))
            raise ValueError(f"basis columns {dependent} depend on earlier columns")
        self.B = B
        self.pivots = tuple(pivots)

    @cached_property
    def _pivot_inv(self) -> Matrix:
        return self.B.take_rows(self.pivots).inverse()

    def coordinates(self, V: Matrix) -> Matrix | None:
        """The X with B X = V, or None if a column of V lies outside the span."""
        X = self._pivot_inv @ V.take_rows(self.pivots)
        return X if self.B @ X == V else None


def vec(m: Matrix) -> Matrix:
    """Column-major vectorization as a (r*c) x 1 matrix."""
    a = np.transpose(m.arr, (1, 0, 2)).reshape(m.rows * m.cols, 1, m.ctx.k)
    return Matrix._own(m.ctx, a)


def vecs(ctx: FieldCtx, shape: tuple[int, int], maps) -> Matrix:
    """The columns vec(m) of maps m of one (rows, cols) shape, side by side."""
    return Matrix.hstack([vec(m) for m in maps] or [Matrix.zeros(ctx, shape[0] * shape[1], 0)])


def unvec(v: Matrix, rows: int, cols: int) -> Matrix:
    a = v.arr.reshape(cols, rows, v.ctx.k).transpose(1, 0, 2)
    return Matrix._own(v.ctx, a)
