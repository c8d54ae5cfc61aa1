import numpy as np
import pytest

from sl2frob import exactfield
from sl2frob.exactfield import Basis, FieldCtx, Matrix, vec, vecs
from sl2frob import memo, repcore, homology, vermatwist as VT
from sl2frob.reporting import check


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


def _full_space_oracle(ctx, d):
    """Reference: the twist coefficients solved on all of Z* (x) Z, and that kernel."""
    p = ctx.p
    Z = repcore.baby_verma(ctx, d)
    Dz = repcore.dual(Z)
    T = repcore.tensor(Dz, Z)
    ker = Matrix.vstack([T.E[0], T.F[0]]).kernel()
    unit = Matrix.identity(ctx, p)
    e_powers = Dz.divided_powers("e", 1)[1].powers(p - 1)
    cols = [(e_powers[k] @ unit.take_cols([0])).kron(unit.take_cols([k])) for k in range(p)]
    sol = Basis(Matrix.hstack(cols)).coordinates(ker)
    inv = sol.entry(0, 0).inv()
    return tuple(sol.entry(k, 0) * inv for k in range(p)), ker, T.grading


@pytest.mark.parametrize("ctx", [F9, F25, FieldCtx(7, 2)], ids=repr)
def test_weight_zero_oracle_matches_the_full_space_solve(ctx):
    seeds = [d for d in ctx.elements() if not d.in_prime_field()]
    assert len(seeds) == ctx.q - ctx.p
    for d in seeds:
        coeffs, ker, grading = _full_space_oracle(ctx, d)
        # the invariant line of the whole tensor lies in its grading-0 slice
        assert ker.cols == 1 and not ker.arr[grading != 0].any()
        assert VT.twist_oracle(ctx, d).coeffs == coeffs


def test_oracle_builds_only_the_weight_zero_slice(monkeypatch):
    # the slice of [E_0; F_0] comes from the coproduct directly: no tensor
    # module is built and no coordinates are taken in a Basis
    def refuse(*args):
        raise AssertionError("the oracle built Z* (x) Z or a Basis")

    monkeypatch.setattr(repcore, "tensor", refuse)
    monkeypatch.setattr(exactfield.Basis, "__init__", refuse)
    for ctx in (F9, F25, FieldCtx(7, 2)):
        for d in generic_seeds(ctx, 6):
            assert VT.twist_oracle(ctx, d).coeffs == VT.twist_closed_form(ctx, d).coeffs


def test_oracle_rejects_non_generic(monkeypatch):
    # every d in F_p, for F_9 and F_25, is rejected before Z* (x) Z is built
    # or any kernel is taken
    def no_tensor(*args):
        raise AssertionError("the oracle built Z* (x) Z for a prime-field d")

    monkeypatch.setattr(repcore, "tensor", no_tensor)
    monkeypatch.setattr(Matrix, "kernel", no_tensor)
    for ctx in (F9, F25):
        prime = [d for d in ctx.elements() if d.in_prime_field()]
        assert len(prime) == ctx.p
        for d in prime:
            with pytest.raises(homology.NonGenericSeed):
                VT.twist_oracle(ctx, d)


def test_hom_transfer_window():
    for i in (0, 1):
        V = repcore.simple_restricted(F9, i)
        rep = VT.hom_iso_report(F9, D, V, window=2, tag=f"L{i}")
        assert rep["failures"] == 0


def test_hom_transfer_identity_normalization():
    # V = L_0, mu' = mu: the transfer of 1 is the identity map
    V = repcore.simple_restricted(F9, 0)
    v = Matrix.identity(F9, 1)
    phi = VT.verma_map(F9, D, VT._power_stacks(V), 0, v)
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
    # the table holds the first member of each shift class, and every member
    # of the class has its sides
    table = {t: (left, right)
             for t, left, right in VT._associativity_sides(W, VT._basis_products(W))}
    assert direct and table.keys() == {W.rep(t, 4) for t in direct}
    for t, (left, right) in direct.items():
        assert table[W.rep(t, 4)][0] == left and table[W.rep(t, 4)][1] == right, t


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


# ---------------------------------------------------------------------------
# shift classes: at radius >= 2 the window holds objects mu and mu + p, whose
# quantities are computed once and shared; each is checked here against a
# recomputation for every member
# ---------------------------------------------------------------------------

SHIFTED = [(D, 2), (D, 3), (D + F9.one(), 2), (D + F9.one(), 3)]
SHIFTED_IDS = ["d0_r2", "d0_r3", "d1_r2", "d1_r3"]


def _direct_bside(W):
    """Z_mu^(1) (x) P_lam built afresh for every object."""
    return {(mu, lam): repcore.tensor(
        repcore.frobenius_twist(repcore.baby_verma(F9, W.d + F9.el(mu % 3)), 1)
        .shift_grading(3 * mu), W.ext[lam]) for mu, lam in W.objects()}


def _pair_checks(rep):
    return [c for c in rep["checks"] if "__" in c["name"]]


@pytest.mark.parametrize("d, radius", SHIFTED, ids=SHIFTED_IDS)
def test_transfers_and_verdicts_match_per_pair_recomputation(d, radius):
    # the (a) + (c) checks of every object pair, recomputed from fresh modules,
    # and each pair's transfers equal to those of the first member of its class
    W = VT.WindowedEnd(F9, d, radius)
    bside = _direct_bside(W)
    want, copies = [], 0
    for (mu, lam) in W.objects():
        for (mu2, lam2) in W.objects():
            if abs(mu - mu2) > 2:
                continue
            where = f"{mu}_{lam}__{mu2}_{lam2}"
            amats = W.mor_basis((mu, lam), (mu2, lam2))
            BH = homology.hom_space(bside[(mu, lam)], bside[(mu2, lam2)], degree=0)
            want.append(check(f"dim_{where}", len(amats) == BH.dim,
                              graded_end=len(amats), next_kernel=BH.dim))
            phis = [VT._transfer(F9, W.twists[mu2], W.transfer_grid(lam, lam2, x))
                    for x in amats]
            rmu, _, rmu2, _ = W.rep((mu, lam, mu2, lam2), 2)
            assert phis == [VT._transfer(F9, W.twists[rmu2], W.transfer_grid(lam, lam2, x))
                            for x in W.mor_basis((rmu, lam), (rmu2, lam2))], where
            copies += rmu != mu
            for x, ph in zip(amats, phis):
                in_space = BH.coordinates([ph]) is not None
                top = Matrix(F9, ph.arr[0:W.ext[lam2].dim, 0:W.ext[lam].dim]) == x
                want.append(check(f"transfer_{where}", in_space and top,
                                  in_space=in_space, top_recovers=top))
            if phis and len(phis) == BH.dim:
                rank = vecs(F9, BH.shape, phis).rank()
                want.append(check(f"bijective_{where}", rank == BH.dim, rank=rank))
    rep = VT.verify_equivalence(F9, d, radius=radius)
    assert copies and rep["failures"] == 0
    assert _pair_checks(rep) == want


def _direct_hom_iso_checks(d, V, window, tag):
    """hom_iso_report's checks, recomputed for every pair (mu, mu')."""
    checks, wd = [], V.weight_indices()
    Z = {mu: repcore.baby_verma(F9, d + F9.el(mu % 3), shift=mu)
         for mu in range(-window, window + 1)}
    for mu, Zs in Z.items():
        for mu_p in Z:
            TV = repcore.tensor(Z[mu_p], V)
            Hgr = homology.hom_space(Zs, TV, degree=0)
            idx = wd.get(mu - mu_p, [])
            checks.append(check(f"dim_{tag}_{mu}_{mu_p}", Hgr.dim == len(idx),
                                hom_dim=Hgr.dim, weight_dim=len(idx)))
            images = []
            for t in idx:
                v = Matrix.identity(F9, V.dim).take_cols([t])
                phi = VT.verma_map(F9, d, VT._power_stacks(V), mu_p, v)
                ok_int = all((phi @ g1 - g2 @ phi).is_zero()
                             for g1, g2 in ((Zs.E[0], TV.E[0]), (Zs.F[0], TV.F[0])))
                ok_inv = Matrix(F9, phi.arr[0:V.dim, 0:1]) == v
                in_space = Hgr.coordinates([phi]) is not None
                checks.append(check(f"transfer_{tag}_{mu}_{mu_p}_{t}",
                                    ok_int and ok_inv and in_space, intertwiner=ok_int,
                                    top_inverse=ok_inv, in_graded_hom=in_space))
                images.append(phi)
            if images:
                rank = vecs(F9, Hgr.shape, images).rank()
                checks.append(check(f"bijection_{tag}_{mu}_{mu_p}", rank == len(idx),
                                    rank=rank))
    return checks


@pytest.mark.parametrize("window", [2, 3])
@pytest.mark.parametrize("d", [D, D + F9.one()], ids=["d0", "d1"])
def test_hom_iso_verdicts_match_per_pair_recomputation(d, window):
    ext = homology.all_extended_projectives(F9)
    modules = [("L1", repcore.simple_restricted(F9, 1)),
               ("homP0P1", homology.hom_as_gmodule(ext[0], ext[1], 1)[1])]
    for tag, V in modules:
        rep = VT.hom_iso_report(F9, d, V, window, tag=tag)
        assert rep["failures"] == 0
        assert rep["checks"] == _direct_hom_iso_checks(d, V, window, tag), tag


@pytest.mark.parametrize("d, radius", SHIFTED, ids=SHIFTED_IDS)
def test_product_table_matches_fresh_compose_twisted(d, radius):
    W = VT.WindowedEnd(F9, d, radius)
    prods = VT._basis_products(W)
    fresh = VT.WindowedEnd(F9, d, radius)
    for key, (twisted, X) in prods.items():
        mu, la, mu2, lb, mu3, lc, xi, gi = key
        x = fresh.mor_basis((mu, la), (mu2, lb))[xi]
        g = fresh.mor_basis((mu2, lb), (mu3, lc))[gi]
        want = fresh.compose_twisted(g, x, la, lb, lc, mu2)
        assert twisted == want, key
        want_X = fresh.pieces[(la, lc, 3 * (mu - mu3))].coordinates(
            vecs(F9, want.shape, [g @ x, want]))
        assert want_X is not None and X == want_X, key
    assert any(W.rep(key, 3) != key for key in prods)


@pytest.mark.parametrize("radius", [2, 3])
def test_bside_copies_are_p2_shifts(radius):
    W = VT.WindowedEnd(F9, D, radius)
    bside = VT._build_bside(F9, D, W)
    direct = _direct_bside(W)
    copies = [(mu, lam) for mu, lam in W.objects() if mu - 3 >= -radius]
    assert len(copies) == 3 * (2 * radius + 1 - 3)
    for mu, lam in copies:
        M, src = bside[(mu, lam)], bside[(mu - 3, lam)]
        assert (M.grading - src.grading == 9).all() and M.pchar_scalars == src.pchar_scalars
        assert all(a is b for a, b in zip(M.E + M.F, src.E + src.F))
    assert all(bside[o] == direct[o] for o in W.objects())


def test_radius_3_window_is_computed_once_per_shift_class(monkeypatch):
    calls = []
    original = VT.WindowedEnd.compose_twisted

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(VT.WindowedEnd, "compose_twisted", counted)
    W = VT.WindowedEnd(F9, D, 3)
    prods = VT._basis_products(W)
    assert len(prods) == 203 and len(calls) == 99
    assert len({W.rep(key, 3) for key in prods}) == 99
    assert len(list(VT._associativity_sides(W, prods))) == 387


def test_radius_3_transfers_once_per_shift_class(monkeypatch):
    # 261 object pairs in 135 classes; _transfer runs once per basis
    # morphism of the first pair of each class
    W = VT.WindowedEnd(F9, D, 3)
    pairs = [(mu, lam, mu2, lam2) for mu, lam in W.objects() for mu2, lam2 in W.objects()
             if abs(mu - mu2) <= 2]
    assert len(pairs) == 261 and len({W.rep(pair, 2) for pair in pairs}) == 135
    n_basis = lambda pair: len(W.mor_basis(pair[:2], pair[2:]))
    calls = []
    original = VT._transfer

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(VT, "_transfer", counted)
    rep = VT.verify_equivalence(F9, D, radius=3)
    assert rep["failures"] == 0 and len(_pair_checks(rep)) > 261
    assert len(calls) == sum(n_basis(pair) for pair in pairs if W.rep(pair, 2) == pair)
    assert len(calls) < sum(n_basis(pair) for pair in pairs)


def test_altered_representative_product_fails_its_shifted_copies(monkeypatch):
    # up o id through mu = -2 is the first of its class at radius 2, and the
    # pair through mu = 1 shares it
    _alter_one_product(monkeypatch, (0, 0, 0, 0), (0, 1, -3, 0), -2,
                       lambda W, out: out.scale(F9.el(2)))
    rep = VT.verify_equivalence(F9, D, radius=2)
    sigma = next(c for c in rep["checks"] if c["name"] == "rescaled_structure_constants")
    assert sigma["status"] == "fail"
    assert sigma["details"]["failures"] == [(-2, 0, -2, 0, -1, 1, 0), (1, 0, 1, 0, 2, 1, 0)]
    assert {"transfer_intertwines_twisted_product", "twisted_associativity"} <= _failed(rep)


def test_altered_transfer_fails_only_its_shift_class_in_hom_iso(monkeypatch):
    # doubling the transfers into Z_{-2} breaks the top inverse; a pair
    # (mu, -2) is the first of its class, so it fails with its shifted copy
    # (mu + 3, 1) when that lies in the window, and no other pair fails
    original = VT.verma_map

    def altered(ctx, d, stacks, mu_p, v):
        out = original(ctx, d, stacks, mu_p, v)
        return out.scale(F9.el(2)) if mu_p == -2 else out

    monkeypatch.setattr(VT, "verma_map", altered)
    rep = VT.hom_iso_report(F9, D, repcore.simple_restricted(F9, 1), 2, tag="L1")
    transfers = [c["name"].split("_") for c in rep["checks"] if c["name"].startswith("transfer_")]
    assert _failed(rep) == {"_".join(n) for n in transfers if int(n[3]) == -2
                            or (int(n[3]) == 1 and int(n[2]) - 3 >= -2)}
    assert len(_failed(rep)) < len(transfers)


@pytest.mark.parametrize("window", [1, 2, 3])
def test_hom_iso_builds_one_tensor_per_degree_class(monkeypatch, window):
    # Z_mu (x) V for the 2 window + 1 degrees, at most p = 3 of them built
    built = []
    original = repcore.tensor

    def counted(M, N):
        built.append(int(M.grading[0]))
        return original(M, N)

    monkeypatch.setattr(repcore, "tensor", counted)
    rep = VT.hom_iso_report(F9, D, repcore.simple_restricted(F9, 1), window, tag="L1")
    assert rep["failures"] == 0
    assert built == list(range(-window, min(window, 2 - window) + 1))


# ---------------------------------------------------------------------------
# the batched certificate: one Hom solve per window, structure constants on
# element indices, and transfers tested for membership per class
# ---------------------------------------------------------------------------

def test_wrong_rescaling_fails_the_structure_constants_as_recomputed(monkeypatch):
    # D^-_0 doubled: the failures are the ones FieldElement arithmetic finds
    original = VT.solve_rescaling

    def patched(ctx, d, radius):
        resc = original(ctx, d, radius)
        resc["minus"][0] = resc["minus"][0] * ctx.el(2)
        return resc

    monkeypatch.setattr(VT, "solve_rescaling", patched)
    rep = VT.verify_equivalence(F9, D, radius=2)
    W, resc = VT.WindowedEnd(F9, D, 2), VT.solve_rescaling(F9, D, 2)
    want = []
    for key, (_, X) in VT._basis_products(W).items():
        mu, la, mu2, lb, mu3, lc, xi, gi = key
        if X is None:
            want.append(key[:6] + ("span",))
            continue
        DgDx = VT._sigma_multiplier(resc, mu2, mu3, gi) * VT._sigma_multiplier(resc, mu, mu2, xi)
        want += [key[:6] + (b,) for b in range(X.rows)
                 if VT._sigma_multiplier(resc, mu, mu3, b) * X.entry(b, 0) != DgDx * X.entry(b, 1)]
    sigma = next(c for c in rep["checks"] if c["name"] == "rescaled_structure_constants")
    assert want and sigma["status"] == "fail"
    assert sigma["details"]["failures"] == want[:5]
    assert _failed(rep) == {"rescaled_structure_constants"}


def test_wrong_transfer_fails_its_shift_class_only(monkeypatch):
    # the transfer of omega in End(P_0) into objects mu = 1 mod 3 gains a stray
    # entry: at radius 2 that is the class of (-2, 0, -2, 0) and (1, 0, 1, 0)
    W = VT.WindowedEnd(F9, D, 2)
    A, grid = W.twists[1], W.transfer_grid(0, 0, W.hom[(0, 0)][0][1])
    original = VT._transfer

    def wrong(ctx, twist, g):
        out = original(ctx, twist, g)
        if twist == A and np.array_equal(g, grid):
            stray = np.zeros(out.arr.shape, dtype=np.int64)
            stray[0, 0, 0] = 1
            return out + Matrix(ctx, stray)
        return out

    monkeypatch.setattr(VT, "_transfer", wrong)
    rep = VT.verify_equivalence(F9, D, radius=2)
    cls = {(-2, 0, -2, 0), (1, 0, 1, 0)}
    transfers = [c for c in rep["checks"] if c["name"].startswith("transfer_")
                 and "__" in c["name"]]
    failed = [c for c in transfers if c["status"] == "fail"]
    assert {c["name"] for c in failed} == {"transfer_-2_0__-2_0", "transfer_1_0__1_0"}
    assert len(failed) == 2 and not any(c["details"]["in_space"] for c in failed)
    twist = next(c for c in rep["checks"] if c["name"] == "transfer_intertwines_twisted_product")
    assert twist["status"] == "fail" and twist["details"]["failures"]
    for k in twist["details"]["failures"]:
        assert {k[0:4], k[2:6], k[0:2] + k[4:6]} & cls, k


def test_radius_3_certificate_work_counts(monkeypatch):
    # one solver call for the 135 degree-0 spaces of the window, one per
    # hom-iso report, and no Matrix.entry read anywhere in the equivalence
    calls, solver = [], homology._blocked_hom_basis
    monkeypatch.setattr(homology, "_blocked_hom_basis",
                        lambda pairs, *args: calls.append((len(pairs),) + args[:1])
                        or solver(pairs, *args))
    entries, entry = [], Matrix.entry
    with memo.scope():
        VT.WindowedEnd(F9, D, 3)        # memoises the projectives and their bases
        homology.generic_verma_projectives(F9, D)
        calls.clear()
        monkeypatch.setattr(Matrix, "entry",
                            lambda self, i, j: entries.append((i, j)) or entry(self, i, j))
        rep = VT.verify_equivalence(F9, D, radius=3)
    assert rep["failures"] == 0
    assert calls == [(135, 0)] and entries == []
    ext = homology.all_extended_projectives(F9)
    for tag, V in (("L1", repcore.simple_restricted(F9, 1)),
                   ("homP0P1", homology.hom_as_gmodule(ext[0], ext[1], 1)[1])):
        for window in (2, 3):
            calls.clear()
            rep = VT.hom_iso_report(F9, D, V, window, tag=tag)
            assert rep["failures"] == 0 and len(calls) == 1
