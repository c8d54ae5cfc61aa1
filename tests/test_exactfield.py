import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sl2frob import exactfield
from sl2frob.exactfield import Basis, FieldCtx, FieldElement, Matrix, vec, unvec


F3 = FieldCtx(3)
F9 = FieldCtx(3, 2)
F25 = FieldCtx(5, 2)
F49 = FieldCtx(7, 2)
ELIMINATION_FIELDS = [F3, FieldCtx(5), FieldCtx(7), F9, F25, F49]


def rand_matrix(ctx, rows, cols, rng):
    return Matrix(ctx, rng.integers(0, ctx.p, size=(rows, cols, ctx.k)))


def independent_rank(m: Matrix) -> int:
    """Row reduction with the *last* nonzero pivot: an independent rank oracle."""
    ctx = m.ctx
    A = m.arr.copy()
    r, c, _ = A.shape
    rank = 0
    row = 0
    for col in range(c):
        if row >= r:
            break
        nz = np.nonzero(A[row:, col].any(axis=-1))[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[-1])
        A[[row, pr]] = A[[pr, row]]
        inv = ctx.el(*A[row, col].tolist()).inv()._arr()
        A[row] = ctx.arr_mul(A[row], inv)
        below = np.arange(row + 1, r)
        mask = A[below, col].any(axis=-1)
        tgt = below[mask]
        if tgt.size:
            A[tgt] = (A[tgt] - ctx.arr_mul(A[tgt, col][:, None, :], A[row][None])) % ctx.p
        rank += 1
        row += 1
    return rank


def gauss_jordan(m: Matrix) -> tuple[Matrix, list[int]]:
    """Scalar first-nonzero-pivot Gauss-Jordan on FieldElements: the RREF oracle."""
    rows = [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]
    pivots = []
    for col in range(m.cols):
        row = len(pivots)
        pr = next((i for i in range(row, m.rows) if not rows[i][col].is_zero()), None)
        if pr is None:
            continue
        rows[row], rows[pr] = rows[pr], rows[row]
        inv = rows[row][col].inv()
        rows[row] = [a * inv for a in rows[row]]
        for i in range(m.rows):
            f = rows[i][col]
            if i != row and not f.is_zero():
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[row])]
        pivots.append(col)
    arr = np.array([[e.coeffs for e in r] for r in rows], dtype=np.int64)
    return Matrix(m.ctx, arr.reshape(m.rows, m.cols, m.ctx.k)), pivots


@st.composite
def structured_matrices(draw, ctx, rows, cols):
    """A rows x cols matrix over ctx whose rows are random, zero, repeated or
    proportional to an earlier row."""
    idx = draw(st.lists(st.lists(st.integers(0, ctx.q - 1), min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    arr = ctx.arr_from_index(np.array(idx, dtype=np.int64).reshape(rows, cols))
    for i in range(rows):
        kind, j, s = draw(st.tuples(st.sampled_from(["random", "zero", "repeat", "scale"]),
                                    st.integers(0, max(i - 1, 0)), st.integers(1, ctx.q - 1)))
        if kind == "zero":
            arr[i] = 0
        elif kind == "repeat" and i:
            arr[i] = arr[j]
        elif kind == "scale" and i:
            arr[i] = ctx.arr_mul(arr[j], ctx.arr_from_index(np.array(s)))
    return Matrix(ctx, arr)


@st.composite
def elimination_inputs(draw):
    ctx = draw(st.sampled_from(ELIMINATION_FIELDS))
    rows, cols = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    return draw(structured_matrices(ctx, rows, cols))


@settings(max_examples=150, deadline=None)
@given(elimination_inputs())
def test_rref_matches_scalar_gauss_jordan(A):
    R, pivots = A.rref()
    R0, pivots0 = gauss_jordan(A)
    assert pivots == pivots0
    assert R == R0
    K = A.kernel()
    assert K.shape == (A.cols, A.cols - len(pivots))
    assert (A @ K).is_zero()
    assert A.rank() + K.cols == A.cols
    assert K.rank() == K.cols


@settings(max_examples=100, deadline=None)
@given(elimination_inputs(), st.integers(0, 3), st.booleans(), st.data())
def test_solve_exactly_when_consistent(A, nrhs, in_image, data):
    ctx = A.ctx
    if in_image:
        B = A @ data.draw(structured_matrices(ctx, A.cols, nrhs))
    else:
        B = data.draw(structured_matrices(ctx, A.rows, nrhs))
    X = A.solve(B)
    consistent = len(gauss_jordan(Matrix.hstack([A, B]))[1]) == len(gauss_jordan(A)[1])
    if consistent:
        assert X is not None and X.shape == (A.cols, nrhs)
        assert A @ X == B
    else:
        assert X is None


@st.composite
def independent_columns(draw):
    """An n x m matrix with independent columns (m may be 0) over F_3, F_9, F_25 or F_49."""
    ctx = draw(st.sampled_from([F3, F9, F25, F49]))
    n = draw(st.integers(1, 8))
    A = draw(structured_matrices(ctx, draw(st.integers(0, n)), n)).transpose()
    return A.take_cols(gauss_jordan(A)[1]) if A.cols else A


@settings(max_examples=150, deadline=None)
@given(independent_columns(), st.integers(0, 3), st.booleans(), st.data())
def test_basis_coordinates_match_solve(B, nrhs, inside, data):
    if inside:
        V = B @ data.draw(structured_matrices(B.ctx, B.cols, nrhs))
    else:
        V = data.draw(structured_matrices(B.ctx, B.rows, nrhs))
    X = Basis(B).coordinates(V)
    ref = B.solve(V)
    # independent columns make the coordinates unique, so both agree exactly
    assert X == ref if ref is not None else X is None


@settings(max_examples=100, deadline=None)
@given(elimination_inputs())
def test_basis_rejects_dependent_columns(A):
    independent = gauss_jordan(A)[1]
    dependent = [j for j in range(A.cols) if j not in independent]
    if dependent:
        with pytest.raises(ValueError, match=re.escape(f"columns {dependent} depend")):
            Basis(A)
    else:
        assert Basis(A).pivots == tuple(gauss_jordan(A.transpose())[1])


@st.composite
def join_inputs(draw):
    """(R, pivots, V): the RREF of a span (possibly empty) over F_3, F_9 or
    F_25, and rows that are random, zero, repeated, proportional to an
    earlier row or inside the span, in a drawn order."""
    ctx = draw(st.sampled_from([F3, F9, F25]))
    c = draw(st.integers(1, 8))
    S = draw(structured_matrices(ctx, draw(st.integers(0, 5)), c))
    R, pivots = gauss_jordan(S)
    inside = draw(structured_matrices(ctx, draw(st.integers(0, 3)), S.rows)) @ S
    V = Matrix.vstack([inside, draw(structured_matrices(ctx, draw(st.integers(0, 5)), c))])
    order = draw(st.permutations(range(V.rows)))
    return Matrix(ctx, R.arr[:len(pivots)]), pivots, V.take_rows(order)


@settings(max_examples=150, deadline=None)
@given(join_inputs())
def test_rref_join_matches_scalar_gauss_jordan(inputs):
    R, pivots, V = inputs
    joined, grown, added = exactfield.rref_join(R, pivots, V)
    R0, pivots0 = gauss_jordan(Matrix.vstack([R, V]))
    assert grown == pivots0
    assert joined == Matrix(R.ctx, R0.arr[:len(pivots0)])
    new = [i for i, col in enumerate(pivots0) if col not in pivots]
    assert added == Matrix(R.ctx, R0.arr[new])


@st.composite
def cutoff_inputs(draw):
    """Tall and wide arrays within two cells of the list-path cutoff (or
    above it, for a single row or column) over F_3, F_9, F_25 or F_49: random
    entries, a drawn share of them zero, and rows that are zero, repeated or
    proportional to an earlier row, from a drawn generator seed."""
    ctx = draw(st.sampled_from([F3, F9, F25, F49]))
    n = draw(st.integers(1, 40))
    shape = (n, max(exactfield._LIST_MAX_CELLS // n + draw(st.integers(-2, 2)), 0))
    if draw(st.booleans()):
        shape = shape[::-1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = rng.integers(0, ctx.q, size=shape)
    idx[rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0
    arr = ctx.arr_from_index(idx)
    for i in range(1, shape[0]):
        kind, j = rng.integers(4), rng.integers(i)
        if kind == 1:
            arr[i] = 0
        elif kind == 2:
            arr[i] = arr[j]
        elif kind == 3:
            arr[i] = ctx.arr_mul(arr[j], ctx.arr_from_index(rng.integers(1, ctx.q, size=1))[0])
    return Matrix(ctx, arr)


def _eliminated(A: Matrix, cutoff: int) -> tuple[np.ndarray, list[int]]:
    """`_eliminate` of A's index array with the list path taken up to cutoff cells."""
    idx = A.ctx.arr_index(A.arr)
    with mock.patch.object(exactfield, "_LIST_MAX_CELLS", cutoff):
        pivots = exactfield._eliminate(A.ctx, idx)
    return idx, pivots


@settings(max_examples=100, deadline=None)
@given(st.one_of(elimination_inputs(), cutoff_inputs()))
def test_list_elimination_matches_the_numpy_path_and_gauss_jordan(A):
    R0, pivots0 = gauss_jordan(A)
    want = A.ctx.arr_index(R0.arr)
    runs = [_eliminated(A, cutoff) for cutoff in (A.rows * A.cols, -1)]   # lists, numpy
    runs.append(_eliminated(A, exactfield._LIST_MAX_CELLS))               # as dispatched
    for got, pivots in runs:
        assert pivots == pivots0
        assert np.array_equal(got, want)


def test_contexts_are_one_per_field():
    for p in (3, 5, 7):
        ctx = FieldCtx(p, 2)
        tables, ops = ctx._tables, ctx._ops
        assert FieldCtx(p, 2, modulus=ctx.modulus) is ctx
        assert FieldCtx(p, 2, modulus=list(ctx.modulus)) is ctx
        assert FieldCtx(p) is FieldCtx(p, 1) is not ctx
        # building the context again neither rebuilds nor resets its tables
        assert ctx._tables is tables and ctx._ops is ops
    other = FieldCtx(3, 2, modulus=(1, 2))         # x^2 + x + 2, irreducible over F_3
    assert other is not F9 and other != F9 and other is FieldCtx(3, 2, modulus=(1, 2))
    assert other.el(0, 1) != F9.el(0, 1)


def test_rejected_field_arguments_register_no_context():
    known = dict(FieldCtx._known)
    for args, kwargs, message in [((4,), {}, "odd prime"), ((2,), {}, "odd prime"),
                                  ((5, 3), {}, "extension degree"),
                                  ((5, 2), {"modulus": (0, 1)}, "reducible")]:
        with pytest.raises(ValueError, match=message):
            FieldCtx(*args, **kwargs)
    assert FieldCtx._known == known


@pytest.mark.parametrize("ctx", [F3, F9, F25, F49], ids=repr)
def test_shared_tables_cannot_be_changed(ctx):
    for t in ctx._tables:
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[(0,) * t.ndim] = 1
    els, *tables = ctx._ops
    for t in (els, *tables, *tables[0], *tables[1]):
        assert isinstance(t, tuple)
    with pytest.raises(TypeError):
        tables[0][1][1] = 0
    with pytest.raises(TypeError):
        els[0] = els[1]


@pytest.mark.parametrize("ctx", [F3, F9, F25, F49], ids=repr)
def test_index_tables_match_field_arithmetic(ctx):
    mul, sub, inv, _ = ctx._tables
    els = ctx.elements()
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            assert ctx.from_index(mul[i, j]) == a * b
            assert ctx.from_index(sub[i, j]) == a - b
        if i:
            assert a * ctx.from_index(inv[i]) == ctx.one()


def test_modulus_choices():
    assert F9.modulus == (0, 1)       # x^2 + 1 for p = 3 mod 4
    assert F25.modulus == (0, 2)      # smallest-coefficient scan for p = 5
    assert FieldCtx(7, 2).modulus == (0, 1)


def test_inverse_of_generator():
    x = F9.el(0, 1)
    assert x.inv() == F9.el(0, 2)     # x * 2x = 2x^2 = -2 = 1
    assert x * x.inv() == F9.one()


def test_frobenius_fixes_prime_field():
    for a in F3.elements():
        assert a.frobenius() == a
    fixed = [a for a in F9.elements() if a.frobenius() == a]
    assert len(fixed) == 3


def test_frobenius_involution_f25():
    for a in F25.elements():
        assert a.frobenius().frobenius() == a
    assert any(a.frobenius() != a for a in F25.elements())


def test_field_axioms_exhaustive_f9():
    els = F9.elements()
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert (a + b) * c == a * c + b * c


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_sampled_f25(i, j, k):
    a, b, c = F25.from_index(i), F25.from_index(j), F25.from_index(k)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        F9.zero().inv()
    with pytest.raises(ValueError):
        F9.one() + F3.one()


def test_kernel_trivial_cases():
    n = 5
    Z = Matrix.zeros(F3, n, n)
    assert Z.kernel().cols == n
    assert Matrix.identity(F3, n).kernel().cols == 0


def test_rank_nullity_random():
    rng = np.random.default_rng(7)
    A = rand_matrix(F9, 20, 30, rng)
    K = A.kernel()
    assert (A @ K).is_zero()
    assert A.rank() + K.cols == 30
    assert independent_rank(A) == A.rank()


def test_solve_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = rand_matrix(F9, 6, 4, rng)
        X = rand_matrix(F9, 4, 2, rng)
        B = A @ X
        sol = A.solve(B)
        assert sol is not None
        assert A @ sol == B


def test_solve_inconsistent_returns_none():
    A = Matrix.from_int_rows(F3, [[1, 0], [1, 0]])
    B = Matrix.from_int_rows(F3, [[1], [2]])
    assert A.solve(B) is None


def test_inverse_round_trip_and_singular():
    rng = np.random.default_rng(13)
    for ctx in (F3, F9):
        n = 5
        A = rand_matrix(ctx, n, n, rng)
        while A.rank() < n:
            A = rand_matrix(ctx, n, n, rng)
        inv = A.inverse()
        assert A @ inv == Matrix.identity(ctx, n)
        assert inv @ A == Matrix.identity(ctx, n)
        rows = A.arr.copy()
        rows[n - 1] = rows[0] + rows[1]
        S = Matrix(ctx, rows)
        assert independent_rank(S) < n
        with pytest.raises(ValueError, match="matrix is singular"):
            S.inverse()


def test_kron_identities():
    assert Matrix.identity(F9, 2).kron(Matrix.identity(F9, 3)) == Matrix.identity(F9, 6)
    rng = np.random.default_rng(3)
    A = rand_matrix(F9, 2, 3, rng)
    B = rand_matrix(F9, 4, 5, rng)
    assert A.kron(B).shape == (8, 15)
    for _ in range(5):
        A, B, C, D = (rand_matrix(F9, 3, 3, rng) for _ in range(4))
        assert A.kron(B) @ C.kron(D) == (A @ C).kron(B @ D)


def test_vec_unvec():
    rng = np.random.default_rng(5)
    m = rand_matrix(F9, 3, 4, rng)
    assert unvec(vec(m), 3, 4) == m


def test_rref_deterministic_golden():
    A = Matrix.from_int_rows(F3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    R, piv = A.rref()
    assert piv == [0, 1]
    assert R == Matrix.from_int_rows(F3, [[1, 0, 2], [0, 1, 2], [0, 0, 0]])


# x^2 + x + 2 over F_3: every other quadratic modulus here has c1 = 0
F9_C1 = FieldCtx(3, 2, modulus=(1, 2))
PRODUCT_FIELDS = [F3, FieldCtx(5), FieldCtx(7), F9, F25, F49, F9_C1]


def reference_matmul(ctx, a, b):
    """The product as Python integers: (a0 + a1 x)(b0 + b1 x) with x^2 = -c1 x - c0."""
    a, b = a.astype(object), b.astype(object)
    if ctx.k == 1:
        return (a[..., 0] @ b[..., 0])[..., None] % ctx.p
    c1, c0 = ctx.modulus
    a0, a1, b0, b1 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    x2 = a1 @ b1
    return np.stack([a0 @ b0 - c0 * x2, a0 @ b1 + a1 @ b0 - c1 * x2], axis=-1) % ctx.p


@st.composite
def product_inputs(draw):
    """Operands of arr_matmul on one side of the float64 size constant.

    Shapes are (n,m,k) @ (m,l,k), the presented solver's batched
    (h,n,m,k) @ (m,l,k), or its (1,t,n,m,k) @ (h,t,m,1,k); entries are
    random residues or all p-1, the largest partial sums.
    """
    ctx = draw(st.sampled_from(PRODUCT_FIELDS))
    large = draw(st.booleans())
    kind = draw(st.sampled_from(["plain", "batched", "broadcast"]))
    if kind == "broadcast":
        h, t = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        d = draw(st.integers(64, 80) if large else st.integers(0, 12))
        sa, sb = (1, t, d, d), (h, t, d, 1)
    else:
        dim = st.integers(16, 24) if large else st.integers(0, 9)
        n, m, l = draw(dim), draw(dim), draw(dim)
        batch = (draw(st.integers(1 if large else 0, 3)),) if kind == "batched" else ()
        sa, sb = batch + (n, m), (m, l)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a, b = (rng.integers(0, ctx.p, size=s + (ctx.k,)) for s in (sa, sb))
    else:
        a, b = (np.full(s + (ctx.k,), ctx.p - 1, dtype=np.int64) for s in (sa, sb))
    return ctx, large, a, b


@settings(max_examples=150, deadline=None)
@given(product_inputs())
def test_arr_matmul_matches_python_int_product(inputs):
    ctx, large, a, b = inputs
    mults = max(a.size * b.shape[-2], b.size * a.shape[-3]) // ctx.k
    assert (mults >= exactfield._BLAS_MIN_MULTS) == large
    got = ctx.arr_matmul(a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_matmul(ctx, a, b).astype(np.int64))


def test_large_prime_product_beyond_the_float_bound_stays_exact():
    p = 2**21 + 17                      # the smallest prime above 2^21
    ctx = FieldCtx(p)
    m = 4096                            # m (p-1)^2 is about 2^54
    assert m > ctx._blas_inner and 2 * m * 2 >= exactfield._BLAS_MIN_MULTS
    rng = np.random.default_rng(11)
    a = rng.integers(p - 1000, p, size=(2, m, 1))
    b = rng.integers(p - 1000, p, size=(m, 2, 1))
    want = reference_matmul(ctx, a, b).astype(np.int64)
    # float64 would round these sums, so only the int64 path gets them right
    rounded = (a[..., 0].astype(np.float64) @ b[..., 0].astype(np.float64)).astype(np.int64) % p
    assert not np.array_equal(rounded, want[..., 0])
    assert np.array_equal(ctx.arr_matmul(a, b), want)
    assert Matrix(ctx, a) @ Matrix(ctx, b) == Matrix(ctx, want)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13])
def test_pow_int_matches_repeated_products(n):
    rng = np.random.default_rng(n)
    A = rand_matrix(F9, 4, 4, rng)
    want = Matrix.identity(F9, 4)
    for _ in range(n):
        want = want @ A
    assert A.pow_int(n) == want
    assert A.powers(n)[n] == want and len(A.powers(n)) == n + 1


def _coeff_mul(ctx, a, b):
    """(a0 + a1 x)(b0 + b1 x) with x^2 = -c1 x - c0, on coefficient tuples."""
    if ctx.k == 1:
        return ((a[0] * b[0]) % ctx.p,)
    c1, c0 = ctx.modulus
    cross = a[1] * b[1]
    return ((a[0] * b[0] - c0 * cross) % ctx.p, (a[0] * b[1] + a[1] * b[0] - c1 * cross) % ctx.p)


@pytest.mark.parametrize("ctx", [F3, F9, F25, F49], ids=repr)
def test_scalar_arithmetic_matches_coefficient_formulas(ctx):
    p, els = ctx.p, ctx.elements()
    coeffs = [a.coeffs for a in els]
    for a in els:
        assert ctx.from_index(a.idx) is a
        assert (-a).coeffs == tuple((-c) % p for c in a.coeffs)
        power = a.coeffs
        for _ in range(p - 1):
            power = _coeff_mul(ctx, power, a.coeffs)
        assert a.frobenius().coeffs == power
        if a.idx:
            one = ctx.one().coeffs
            assert a.inv().coeffs == next(b for b in coeffs if _coeff_mul(ctx, a.coeffs, b) == one)
        for b in els:
            assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs))
            assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs))
            assert (a * b).coeffs == _coeff_mul(ctx, a.coeffs, b.coeffs)
            # every result is the context's interned element of its index
            assert a * b is ctx.from_index((a * b).idx)


@pytest.mark.parametrize("ctx", [F3, F9, F25, F49], ids=repr)
def test_scalar_errors_and_equality_across_interning(ctx):
    with pytest.raises(ZeroDivisionError):
        ctx.zero().inv()
    with pytest.raises(ZeroDivisionError):
        ctx.one() / ctx.zero()
    other = F3 if ctx != F3 else F9
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(ValueError, match="mixed field contexts"):
            getattr(ctx.one(), op)(other.one())
    # building the context again returns the field's one context, so its
    # elements are shared, and equality and hashes agree
    twin = FieldCtx(ctx.p, ctx.k)
    assert twin is ctx
    for a in ctx.elements():
        b = twin.from_index(a.idx)
        built = FieldElement(ctx, [c + ctx.p for c in a.coeffs])   # reduced on construction
        assert built is not a and built == a == b and hash(built) == hash(a) == hash(b)
        assert a + b == (a + a) and (a * b).ctx is ctx
        assert built * ctx.one() is a
    assert FieldElement(ctx, (1,) * ctx.k) != FieldElement(ctx, (2,) * ctx.k)


def _read_only_residues(m: Matrix) -> bool:
    a = m.arr
    return (not a.flags.writeable and a.dtype == np.int64 and a.ndim == 3
            and a.shape[2] == m.ctx.k and bool(((a >= 0) & (a < m.ctx.p)).all()))


@pytest.mark.parametrize("ctx", [F3, F9, F25], ids=repr)
def test_every_public_matrix_operation_returns_read_only_residues(ctx):
    rng = np.random.default_rng(ctx.q)
    A, B = rand_matrix(ctx, 4, 4, rng), rand_matrix(ctx, 4, 4, rng)
    while A.rank() < 4:
        A = rand_matrix(ctx, 4, 4, rng)
    basis = Basis(A.take_cols([0, 1]))
    R, pivots = A.take_rows([0, 1]).rref()
    joins = [exactfield.rref_join(R, pivots, rand_matrix(ctx, 2, 4, rng)),
             exactfield.rref_join(Matrix.zeros(ctx, 0, 4), [], B)]
    results = [
        A + B, A - B, -A, A @ B, A.scale(ctx.from_index(ctx.q - 1)), A.transpose(),
        A.kron(B), A.pow_int(5), *A.powers(3), A.commutator(B),
        A.take_rows([2, 0]), A.take_cols([3, 1]), Matrix.hstack([A, B]), Matrix.vstack([A, B]),
        A.rref()[0], B.kernel(), A.solve(B), A.inverse(), Matrix.zeros(ctx, 2, 3),
        Matrix.identity(ctx, 3), Matrix.scalar(ctx, 3, ctx.from_index(ctx.q - 1)),
        Matrix.from_int_rows(ctx, [[-1, 7], [12, -8]]), vec(A), unvec(vec(A), 4, 4),
        exactfield.vecs(ctx, (4, 4), [A, B]), basis.coordinates(A.take_cols([0, 1])),
        basis.B, *(m for R, _, added in joins for m in (R, added)),
    ]
    for m in results:
        assert isinstance(m, Matrix) and _read_only_residues(m), m
        with pytest.raises(ValueError):
            m.arr[(0,) * 3] = 1


def test_checked_constructor_copies_and_reduces():
    for ctx in (F3, F25):
        raw = np.array([[[-1] * ctx.k, [ctx.p] * ctx.k], [[2 * ctx.p + 1] * ctx.k, [-ctx.p - 2] * ctx.k]])
        m = Matrix(ctx, raw)
        assert _read_only_residues(m)
        assert np.array_equal(m.arr, raw % ctx.p)
        before = m.arr.copy()
        raw[0, 0] = 1                 # the caller's array stays writable and apart
        raw[1, 1] = -7
        assert np.array_equal(m.arr, before)
        reduced = raw % ctx.p          # already residues: still copied
        m2 = Matrix(ctx, reduced)
        reduced[0, 1] = (reduced[0, 1] + 1) % ctx.p
        assert not np.array_equal(m2.arr, reduced) and reduced.flags.writeable
    with pytest.raises(ValueError, match="bad matrix array shape"):
        Matrix(F9, np.zeros((2, 2, 1), dtype=np.int64))
