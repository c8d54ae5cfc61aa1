import hashlib
import itertools
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sl2frob.cli import run_command
from sl2frob.exactfield import FieldCtx, Matrix, vecs
from sl2frob import repcore, homology, endpresent as EP


F3 = FieldCtx(3)


@pytest.fixture(scope="module")
def fm3():
    return EP.FixedMaps(F3)


@pytest.fixture(scope="module")
def k2():
    return EP.KernelTwoAlgebra(F3)


def test_perm_matrix_roundtrip():
    rng = np.random.default_rng(0)
    dims = [2, 3, 2]
    P = EP.perm_matrix(F3, dims, [2, 0, 1])
    Q = EP.perm_matrix(F3, [2, 2, 3], [1, 2, 0])
    assert (Q @ P) == Matrix.identity(F3, 12)
    # permuting simple tensors: check on a Kronecker product of vectors
    vs = [Matrix(F3, rng.integers(0, 3, size=(d, 1, 1))) for d in dims]
    full = vs[0].kron(vs[1]).kron(vs[2])
    permuted = vs[2].kron(vs[0]).kron(vs[1])
    assert P @ full == permuted


@pytest.mark.parametrize("dims", [[2, 3, 2], [3, 1, 2], [2, 2, 3]])
def test_perm_matrix_permutes_kronecker_factors(dims):
    # P (a (x) b (x) c) on the simple tensors of basis vectors, which span
    units = [[Matrix.identity(F3, d).take_cols([i]) for i in range(d)] for d in dims]
    for perm in itertools.permutations(range(3)):
        P = EP.perm_matrix(F3, dims, list(perm))
        for e in itertools.product(*units):
            a, b, c = (e[s] for s in perm)
            assert P @ e[0].kron(e[1]).kron(e[2]) == a.kron(b).kron(c), perm


def test_proportionality():
    rng = np.random.default_rng(1)
    A = Matrix(F3, rng.integers(0, 3, size=(3, 3, 1)))
    assert EP.proportionality(A.scale(F3.el(2)), A) == F3.el(2)
    B = Matrix.identity(F3, 3)
    assert EP.proportionality(A + B, A) is None or (A + B) == A.scale(EP.proportionality(A + B, A))


def test_fixed_map_spaces(fm3):
    assert fm3.classify_ok
    # Hom(V^(1) (x) P_0, P_1) is one-dimensional
    src = repcore.tensor(fm3.V1, fm3.ext[0])
    tgt = repcore.extend_levels(fm3.ext[1], 2)
    assert homology.hom_space(src, tgt).dim == 1
    # End(P_i) = span{id, Omega}
    for i in range(2):
        assert len(fm3.bases[(i, i)][0]) == 2
    # Hom(P_{p-1}, P_{p-2} (x) V) is two-dimensional, holding phi_min/phi_max
    src = repcore.extend_levels(fm3.ext[2], 2)
    tgt = repcore.tensor(fm3.ext[1], fm3.V)
    assert homology.hom_space(src, tgt).dim == 2


def test_splittings_exact(fm3):
    for (r, s), bi in fm3.split_in.items():
        bo = fm3.split_out[(r, s)]
        assert bo @ bi == Matrix.identity(F3, fm3.ext[r].dim), (r, s)


def test_phi_separation(fm3):
    sq_min = fm3._phi_square(fm3.phi_min)
    sq_max = fm3._phi_square(fm3.phi_max)
    assert homology.single_eigenvalue(sq_min).is_zero() and not sq_min.is_zero()
    assert not homology.single_eigenvalue(sq_max).is_zero()
    # the two maps are independent
    assert EP.proportionality(fm3.phi_min, fm3.phi_max) is None


def test_omega_factorization(fm3):
    assert all(ok for _, ok in fm3.omega_factor_checks)


def test_fixed_maps_are_read_only(fm3):
    # fixed_maps shares one FixedMaps with every caller of a memo scope
    for name in ("ext", "omega", "up", "down", "cross", "split_in", "split_out"):
        table = getattr(fm3, name)
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = table[key]
    with pytest.raises(TypeError):
        fm3.bases[(0, 0)] = {}
    with pytest.raises(TypeError):
        fm3.omega_factor_checks[0] = (0, False)


def test_relations_level1():
    rep = EP.verify_relations(F3, 1)
    assert rep["failures"] == 0
    names = {c["name"]: c for c in rep["checks"]}
    # exact zeroes and nonzero scalars land where the structure demands them
    assert names["omega_annihilates_cross_r0"]["status"] == "pass"
    for c in rep["checks"]:
        if c["name"].startswith("cross_square") or c["name"].startswith("omega_square"):
            assert c["details"]["scalar"] not in ("0", "None")


def test_relations_level2(k2):
    rep = EP.verify_relations(F3, 2)
    assert rep["failures"] == 0
    zero_names = [c for c in rep["checks"] if c["name"].endswith("_vanish")]
    assert zero_names and all(c["status"] == "pass" for c in zero_names)


def test_theta_cases():
    rep = EP.verify_relations(F3, 1)
    thetas = [c for c in rep["checks"] if c["name"].startswith("theta")]
    autos = [c for c in thetas if "auto" in c["name"]]
    zeros = [c for c in thetas if "zero" in c["name"]]
    assert autos and all(c["status"] == "pass" for c in autos)
    for c in autos:
        assert c["details"]["id_part"] != "0"
    # p = 3 has no r with r+-2 in range, so the zero cases appear first at p=5
    rep5 = EP.verify_relations(FieldCtx(5), 1)
    zeros5 = [c for c in rep5["checks"] if c["name"].startswith("theta_zero")]
    assert zeros5 and all(c["status"] == "pass" for c in zeros5)


def test_generator_inventory(k2):
    kinds = {}
    for g in k2.generators:
        kinds[g.kind] = kinds.get(g.kind, 0) + 1
    assert kinds["top_up"] == kinds["top_down"] == 6   # k1 <= p-2, 3 choices of k0
    assert kinds["level0_phi_min"] == kinds["level0_phi_max"] == 2
    assert kinds["level0_iso"] == 2
    # every generator is an intertwiner of the restricted modules
    for g in k2.generators[:20]:
        src, tgt = k2.restricted[g.source], k2.restricted[g.target]
        for j in range(2):
            assert (g.matrix @ src.E[j] - tgt.E[j] @ g.matrix).is_zero(), (g.kind, j)
            assert (g.matrix @ src.F[j] - tgt.F[j] @ g.matrix).is_zero()


def test_generation_r1():
    rep = EP.verify_generation(F3, 1)
    assert rep["failures"] == 0
    # regular-block span is the full 8 = 2+2+2+2
    spans = {c["name"]: c for c in rep["checks"]}
    reg = [spans[f"span_{a}_{b}"] for a in (0, 1) for b in (0, 1)]
    assert sum(sum(c["details"]["full"].values()) for c in reg) == 8


def test_generation_r2_reversed_pairs():
    rep = EP.verify_generation(F3, 2)
    assert rep["failures"] == 0
    ordered = [c for c in rep["checks"] if c["name"] == "ordered_total"][0]
    rev = ordered["details"]["pairs_needing_reversed_order"]
    assert all(a[1] == 2 or b[1] == 2 for a, b in rev)


# sha256 of the CLI JSON text of `generation --p P --r R`
GENERATION_DIGESTS = {
    (3, 1): "f99bd6044c5f4830ee352dae551253433efa7b934befa64e33adcbe7111214c9",
    (3, 2): "e30d8104a8beab5d42356bc291c262495ac7db11f43f14a0b7dc3ac5078f323f",
    (5, 1): "23c1005fc109c2681f831cc499c244449a9f92164e68eca7bd4bce24db25c3e3",
    (7, 1): "8c4a7bd9e567b8430b309d40007905646188a3bf4e6f4dec1641e91b97caa12f",
}


@pytest.mark.parametrize("p,r", sorted(GENERATION_DIGESTS))
def test_generation_report_digest(p, r):
    rep = run_command("generation", p, 2, r, "auto", 2, 0)
    text = json.dumps(rep, indent=1, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATION_DIGESTS[(p, r)]


def test_span_closure_rejects_a_non_homogeneous_generator(k2):
    gradings = {lab: m.grading for lab, m in k2.restricted.items()}
    g = next(g for g in k2.generators if g.kind == "top_up")
    degree = np.subtract.outer(gradings[g.target], gradings[g.source])
    i, j = np.argwhere(g.matrix.arr.any(axis=-1))[0]
    off = np.argwhere(degree != degree[i, j])[0]
    arr = g.matrix.arr.copy()
    arr[tuple(off)] = 1
    bad = EP.EndGenerator(g.kind, g.level, g.source, g.target, Matrix(F3, arr))
    gens = {0: [x for x in k2.generators if x.level == 0],
            1: [bad if x is g else x for x in k2.generators if x.level == 1]}
    with pytest.raises(homology.InvariantError,
                       match=re.escape(f"top_up {g.source} -> {g.target} is not homogeneous")):
        EP._span_closure(F3, gradings, gens, 1)


def _naive_span_dims(ctx, gradings, gens_by_level, max_level):
    """Per-degree span dimensions of level-ordered monomials, one composite at a time."""
    span = {(o, o): [Matrix.identity(ctx, g.size)] for o, g in gradings.items()}
    for level in range(max_level, -1, -1):
        changed = True
        while changed:
            changed = False
            for (src, mid), mats in list(span.items()):
                for g in gens_by_level.get(level, []):
                    if g.source != mid:
                        continue
                    for m in list(mats):
                        have = span.setdefault((src, g.target), [])
                        c = g.matrix @ m
                        if vecs(ctx, c.shape, have + [c]).rank() > len(have):
                            have.append(c)
                            changed = True
    # the composites of a pair are independent and homogeneous
    def degree(a, b, m):
        i, j = np.argwhere(m.arr.any(axis=-1))[0]
        return int(gradings[b][i] - gradings[a][j])
    return {(a, b): dict(Counter(degree(a, b, m) for m in mats)) for (a, b), mats in span.items()}


@st.composite
def graded_generators(draw):
    """Gradings of 2 to 4 objects and random homogeneous generators on 1 or 2 levels."""
    ctx = draw(st.sampled_from([F3, FieldCtx(3, 2)]))
    n = draw(st.integers(2, 4))
    gradings = {o: np.array(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
                for o in range(n)}
    levels = draw(st.integers(1, 2))
    gens = {level: [] for level in range(levels)}
    for _ in range(draw(st.integers(1, 5))):
        src, tgt = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        degree = np.subtract.outer(gradings[tgt], gradings[src])
        d = draw(st.sampled_from(sorted(set(degree.ravel().tolist()))))
        idx = draw(st.lists(st.integers(1, ctx.q - 1), min_size=degree.size, max_size=degree.size))
        arr = ctx.arr_from_index(np.where(degree == d, np.array(idx).reshape(degree.shape), 0))
        level = draw(st.integers(0, levels - 1))
        gens[level].append(EP.EndGenerator("g", level, src, tgt, Matrix(ctx, arr)))
    return ctx, gradings, gens, levels - 1


@settings(max_examples=60, deadline=None)
@given(graded_generators())
def test_span_closure_matches_one_at_a_time_closure(inputs):
    ctx, gradings, gens, max_level = inputs
    got = EP._span_closure(ctx, gradings, gens, max_level)
    want = _naive_span_dims(ctx, gradings, gens, max_level)
    for key in itertools.product(gradings, repeat=2):
        assert got.get(key, {}) == want.get(key, {}), key


def test_center_r1():
    rep = EP.verify_center(F3, 1)
    assert rep["failures"] == 0
    dims = {t["name"]: t["data"]["dim"] for t in rep["tables"]}
    assert sorted(dims.values()) == [1, 3]


def test_center_r2():
    rep = EP.verify_center(F3, 2)
    assert rep["failures"] == 0
    dims = sorted(t["data"]["dim"] for t in rep["tables"])
    assert dims == [1, 3, 9]


def test_center_shift_invariance(k2):
    # regrading the modules by a global shift does not change the center
    blk = [(0, 0), (1, 1)]
    mods = {lab: k2.restricted[lab] for lab in blk}
    E1 = homology.EndAlgebra(list(mods.items()))
    shifted = {lab: m.shift_grading(6) for lab, m in mods.items()}
    E2 = homology.EndAlgebra(list(shifted.items()))
    assert len(E1.center()) == len(E2.center())


def test_predicted_elements_commute_with_generators(k2):
    # the predicted central elements commute with every generator directly
    blk = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    pred = EP._predicted_center(F3, 2, blk, k2.fm, k2.restricted)
    for z in pred:
        for g in k2.generators:
            if g.source in z and g.target in z:
                assert (g.matrix @ z[g.source] - z[g.target] @ g.matrix).is_zero()
