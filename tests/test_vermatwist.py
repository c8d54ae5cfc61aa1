import pytest

from sl2frob.exactfield import FieldCtx, Matrix
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
    phi = VT.verma_map(F9, D, V, 0, 0, v)
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
    W = VT.WindowedEnd(F9, D, 2, seed=0)
    assert W.classify_ok and not W.unexpected
    assert len(W.mor_basis((0, 0), (0, 0))) == 2
    assert len(W.mor_basis((0, 0), (1, 1))) == 1
    assert len(W.mor_basis((0, 0), (2, 1))) == 0
    assert len(W.mor_basis((0, 2), (1, 2))) == 0  # Steinberg object is isolated


def test_twisted_product_invariant_elements():
    # products with a degree-0 (invariant) element are unchanged by the twist
    W = VT.WindowedEnd(F9, D, 1, seed=0)
    for lam in range(2):
        om_src = W.hom[(lam, lam)][0][1]
        om_tgt = W.hom[(1 - lam, 1 - lam)][0][1]
        up = W.hom[(lam, 1 - lam)][-3][0]
        assert W.compose_twisted(om_tgt, up, lam, 1 - lam, 1 - lam, 1) == om_tgt @ up
        assert W.compose_twisted(up, om_src, lam, lam, 1 - lam, 0) == up @ om_src


def test_equivalence_full():
    rep = VT.verify_equivalence(F9, D, radius=2, seed=0)
    assert rep["failures"] == 0
    names = {c["name"] for c in rep["checks"]}
    assert "rescaled_structure_constants" in names
    assert "transfer_intertwines_twisted_product" in names
    assert "twisted_associativity" in names
    assert "window_widening_stable" in names


def test_equivalence_other_seed():
    rep = VT.verify_equivalence(F9, D + F9.one(), radius=1, seed=1)
    assert rep["failures"] == 0
