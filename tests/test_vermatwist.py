import numpy as np
import pytest

from sl2frob.exactfield import FieldCtx, Matrix, vec
from sl2frob import repcore, homology, vermatwist as VT


F9 = FieldCtx(3, 2)
F25 = FieldCtx(5, 2)
D = F9.el(0, 1)


def generic_seeds(ctx, count):
    out = []
    for idx in range(ctx.q):
        cand = ctx.from_index(idx)
        if not cand.in_prime_field():
            out.append(cand)
        if len(out) == count:
            break
    return out


def test_closed_form_values():
    T = VT.twist_closed_form(F9, D)
    assert T.coeffs[0] == F9.one()
    assert T.coeffs[1] == -(D.inv())                      # A_1 = -1/d
    assert T.coeffs[2] == (F9.el(2) * D * (D - F9.one())).inv()  # A_2 = 1/(2d(d-1))
    assert T.recursion_holds()
    with pytest.raises(ValueError):
        VT.twist_closed_form(F9, F9.el(2))


def test_oracle_matches_closed_form_f9_exhaustive():
    for d in generic_seeds(F9, 10):
        cf = VT.twist_closed_form(F9, d)
        orc = VT.twist_oracle(F9, d)
        assert cf.coeffs == orc.coeffs


def test_oracle_matches_closed_form_f25_all():
    seeds = generic_seeds(F25, 25)
    assert len(seeds) == 20
    for d in seeds:
        cf = VT.twist_closed_form(F25, d)
        orc = VT.twist_oracle(F25, d)
        assert cf.coeffs == orc.coeffs


def test_oracle_invariance_equation():
    # the defining property: the invariant vector is killed by e and f
    d = D
    Z = repcore.baby_verma(F9, d)
    T = repcore.tensor(repcore.dual(Z), Z)
    coeffs = VT.twist_oracle(F9, d).coeffs
    Dz = repcore.dual(Z)
    vec = Matrix.zeros(F9, 9, 1)
    estar = Matrix.identity(F9, 3).take_cols([0])
    for k in range(3):
        left = Dz.E[0].pow_int(k) @ estar
        right = Matrix.identity(F9, 3).take_cols([k])
        vec = vec + left.kron(right).scale(coeffs[k])
    assert (T.E[0] @ vec).is_zero() and (T.F[0] @ vec).is_zero()


@pytest.mark.parametrize("ctx", [F9, F25], ids=["F9", "F25"])
def test_masked_invariants_match_the_kernel_on_the_whole_tensor(ctx):
    # every d, prime-field d included
    seen = set()
    for d in ctx.elements():
        Z = repcore.baby_verma(ctx, d)
        T = repcore.tensor(repcore.dual(Z), Z)
        full = Matrix.vstack([T.E[0], T.F[0]]).kernel()
        masked = VT._invariants(T)
        assert masked.cols == full.cols and masked == full
        seen.add(d.in_prime_field())
    assert seen == {True, False}


def test_oracle_rejects_non_generic():
    with pytest.raises(ValueError):
        VT.twist_oracle(F9, F9.one())


def test_hom_transfer_window():
    for i in (0, 1):
        V = repcore.simple_restricted(F9, i)
        rep = VT.hom_iso_report(F9, D, V, window=2, tag=f"L{i}")
        assert rep["failures"] == 0


def test_hom_transfer_identity_normalization():
    # V = L_0, mu' = mu: the transfer of 1 is the identity map
    V = repcore.simple_restricted(F9, 0)
    v = Matrix.identity(F9, 1)
    phi = VT.verma_map(F9, D, V, 0, v)
    assert phi == Matrix.identity(F9, 3)


def test_composition_law():
    V = repcore.simple_restricted(F9, 1)
    for trip in [(1, 0, 1), (1, 0, -1), (0, 1, 0), (2, 1, 0), (-1, 0, 1)]:
        rep = VT.composition_law_report(F9, D, V, V, *trip)
        assert rep["failures"] == 0, trip


def test_verma_tensor_split_rules():
    V = repcore.simple_restricted(F9, 1)
    rep = VT.verma_tensor_split(F9, D, 0, V)
    assert rep["failures"] == 0
    tops = sorted(int(c["name"].replace("multiplicity_top", ""))
                  for c in rep["checks"] if c["name"].startswith("multiplicity"))
    assert tops == [-1, 1]          # Z_d (x) L_1 = Z_{d+1} + Z_{d-1}
    L0 = repcore.simple_restricted(F9, 0)
    rep = VT.verma_tensor_split(F9, D, 1, L0)
    assert rep["failures"] == 0     # identity decomposition


def test_rescaling_recurrence():
    resc = VT.solve_rescaling(F9, D, 2)
    one = F9.one()
    for n in range(-1, 2):
        lhs = resc["plus"][n - 1] * resc["minus"][n]
        rhs = resc["minus"][n + 1] * resc["plus"][n] * resc["one_minus_a1"][n + 1]
        assert lhs == rhs
    # all 1 - A_1(n) = (d_n + 1)/d_n are nonzero
    for n, f in resc["one_minus_a1"].items():
        dn = D + F9.el(n % 3)
        assert f == (dn + one) * dn.inv()


def test_windowed_end_classification():
    W = VT.WindowedEnd(F9, D, 2)
    assert W.classify_ok and not W.unexpected
    assert len(W.mor_basis((0, 0), (0, 0))) == 2
    assert len(W.mor_basis((0, 0), (1, 1))) == 1
    assert len(W.mor_basis((0, 0), (2, 1))) == 0
    assert len(W.mor_basis((0, 2), (1, 2))) == 0  # Steinberg object is isolated


def test_twisted_product_invariant_elements():
    # products with a degree-0 (invariant) element are unchanged by the twist
    W = VT.WindowedEnd(F9, D, 1)
    for lam in range(2):
        om_src = W.hom[(lam, lam)][0][1]
        om_tgt = W.hom[(1 - lam, 1 - lam)][0][1]
        up = W.hom[(lam, 1 - lam)][-3][0]
        assert W.compose_twisted(om_tgt, up, lam, 1 - lam, 1 - lam, 1) == om_tgt @ up
        assert W.compose_twisted(up, om_src, lam, lam, 1 - lam, 0) == up @ om_src


def test_equivalence_full():
    rep = VT.verify_equivalence(F9, D, radius=2)
    assert rep["failures"] == 0
    names = {c["name"] for c in rep["checks"]}
    assert "rescaled_structure_constants" in names
    assert "transfer_intertwines_twisted_product" in names
    assert "twisted_associativity" in names
    assert "window_widening_stable" in names


def test_equivalence_other_seed():
    rep = VT.verify_equivalence(F9, D + F9.one(), radius=1, seed=1)
    assert rep["failures"] == 0


def _repeated_ad_product(W, g, x, la, lb, lc, mu_mid):
    """sum_k A_k (ad_f^k g) o (ad_e^k x), each ad applied afresh: the reference
    for the ladder product of `compose_twisted`."""
    out = Matrix.zeros(F9, g.rows, x.cols)
    ek_x, fk_g = x, g
    for k, a in enumerate(W.twists[mu_mid]):
        if k:
            ek_x, fk_g = W.ad_e(la, lb, ek_x), W.ad_f(lb, lc, fk_g)
        out = out + (fk_g @ ek_x).scale(a)
    return out


@pytest.mark.parametrize("radius", [1, 2])
def test_ladder_product_matches_repeated_ad(radius):
    W = VT.WindowedEnd(F9, D, radius)
    objs = W.objects()
    pairs = 0
    for (mu, la) in objs:
        for (mu2, lb) in objs:
            for x in W.mor_basis((mu, la), (mu2, lb)):
                for (mu3, lc) in objs:
                    for g in W.mor_basis((mu2, lb), (mu3, lc)):
                        got = W.compose_twisted(g, x, la, lb, lc, mu2)
                        assert got == _repeated_ad_product(W, g, x, la, lb, lc, mu2)
                        pairs += 1
                        # composite maps P_la -> P_lc, as the first and as the second factor
                        for h in (got, g @ x + got):
                            for y in W.mor_basis((mu3, lc), (mu3, lc)):
                                assert W.compose_twisted(y, h, la, lc, lc, mu3) == \
                                    _repeated_ad_product(W, y, h, la, lc, lc, mu3)
                            for y in W.mor_basis((mu, la), (mu, la)):
                                assert W.compose_twisted(h, y, la, la, lc, mu) == \
                                    _repeated_ad_product(W, h, y, la, la, lc, mu)
    assert pairs


def test_ladders_are_kept_apart_by_endpoint_labels():
    # P_0 and P_1 have one dimension, so one matrix is a map between any two
    # of them; its ladders under different labels must not be shared
    W = VT.WindowedEnd(F9, D, 1)
    m = W.hom[(0, 1)][-3][0]
    for kind, ad in (("e", W.ad_e), ("f", W.ad_f)):
        ladders = {}
        for la in (0, 1):
            for lb in (0, 1):
                rungs = [m]
                for _ in range(1, W.p):
                    rungs.append(ad(la, lb, rungs[-1]))
                want = np.stack([r.arr for r in rungs])
                ladders[(la, lb)] = W.ladder(kind, la, lb, m)
                assert np.array_equal(ladders[(la, lb)], want), (kind, la, lb)
        assert len({lad.tobytes() for lad in ladders.values()}) > 1, kind
    # the cache returns the stored stack for equal content
    assert W.ladder("e", 0, 1, Matrix(F9, m.arr.copy())) is W.ladder("e", 0, 1, m)


@pytest.mark.parametrize("d, radius", [(D, 1), (D + F9.one(), 2)])
def test_table_associativity_matches_direct_composition(d, radius):
    # the bilinear expansion over the product table against four direct
    # twisted compositions per basis triple
    W = VT.WindowedEnd(F9, d, radius)
    objs = W.objects()
    direct = {}
    for (mu, la) in objs:
        for (mu2, lb) in objs:
            for xi, x in enumerate(W.mor_basis((mu, la), (mu2, lb))):
                for (mu3, lc) in objs:
                    for gi, g in enumerate(W.mor_basis((mu2, lb), (mu3, lc))):
                        for (mu4, ld) in objs:
                            for hi, h in enumerate(W.mor_basis((mu3, lc), (mu4, ld))):
                                gx = W.compose_twisted(g, x, la, lb, lc, mu2)
                                hg = W.compose_twisted(h, g, lb, lc, ld, mu3)
                                direct[(mu, la, mu2, lb, mu3, lc, mu4, ld, xi, gi, hi)] = (
                                    W.compose_twisted(h, gx, la, lc, ld, mu3),
                                    W.compose_twisted(hg, x, la, lb, ld, mu2))
    table = {t: (left, right)
             for t, left, right in VT._associativity_sides(W, VT._basis_products(W))}
    assert direct and table.keys() == direct.keys()
    for t, (left, right) in table.items():
        assert left == direct[t][0] and right == direct[t][1], t


def _alter_one_product(monkeypatch, x_at, g_at, mu_mid, new):
    """Make compose_twisted return new(W, product) for one pair of basis morphisms.

    x_at and g_at are (lam, lam', degree, index) into W.hom; mu_mid is the
    grading of the middle object.
    """
    original = VT.WindowedEnd.compose_twisted
    la, lb, _, _ = x_at
    lc = g_at[1]

    def altered(self, g, x, *args):
        out = original(self, g, x, *args)
        pick = lambda at: self.hom[at[:2]][at[2]][at[3]]
        if args == (la, lb, lc, mu_mid) and x == pick(x_at) and g == pick(g_at):
            return new(self, out)
        return out

    monkeypatch.setattr(VT.WindowedEnd, "compose_twisted", altered)


def _failed(rep):
    return {c["name"] for c in rep["checks"] if c["status"] == "fail"}


def test_altered_basis_product_fails_equivalence(monkeypatch):
    # up o id through mu = 0 is up; doubling it keeps it in the span but
    # breaks the rescaled structure constant and the transfer
    _alter_one_product(monkeypatch, (0, 0, 0, 0), (0, 1, -3, 0), 0,
                       lambda W, out: out.scale(F9.el(2)))
    failed = _failed(VT.verify_equivalence(F9, D, radius=1))
    assert {"rescaled_structure_constants", "transfer_intertwines_twisted_product",
            "twisted_associativity"} <= failed


def _outside_span(W, out):
    # plus an elementary matrix outside the one-dimensional Hom(P_0, P_1) piece
    arr = np.zeros(out.arr.shape, dtype=np.int64)
    arr[0, 0, 0] = 1
    bad = out + Matrix(F9, arr)
    assert W.pieces[(0, 1, -3)].coordinates(vec(bad)) is None
    return bad


def _nonzero(W, out):
    assert out.is_zero()
    return Matrix.identity(F9, out.rows)


@pytest.mark.parametrize("key, x_at, g_at, mu_mid, new", [
    # id o up from mu = 0 to mu = 1, moved out of its span
    ((0, 0, 1, 1, 1, 1, 0, 0), (0, 1, -3, 0), (1, 1, 0, 0), 1, _outside_span),
    # up o up from mu = -1 to mu = 1 must vanish; make it the identity
    ((-1, 0, 0, 1, 1, 0, 0, 0), (0, 1, -3, 0), (1, 0, -3, 0), 0, _nonzero),
], ids=["outside_span", "two_steps_apart"])
def test_product_off_its_span_fails_every_triple_through_it(monkeypatch, key, x_at, g_at,
                                                            mu_mid, new):
    _alter_one_product(monkeypatch, x_at, g_at, mu_mid, new)
    W = VT.WindowedEnd(F9, D, 1)
    prods = VT._basis_products(W)
    assert [k for k, (_, X) in prods.items() if X is None] == [key]
    through_gx = through_hg = 0
    for t, left, right in VT._associativity_sides(W, prods):
        if t[:6] + t[8:10] == key:
            through_gx += 1
            assert left is None
        if t[2:8] + t[9:11] == key:
            through_hg += 1
            assert right is None
    assert through_gx and through_hg
    failed = _failed(VT.verify_equivalence(F9, D, radius=1))
    assert {"rescaled_structure_constants", "twisted_associativity"} <= failed
