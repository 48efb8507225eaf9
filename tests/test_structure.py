import numpy as np
import pytest

import maxsub.group
import maxsub.structure
from maxsub.bsgs import LimitExceeded
from maxsub.catalog import alt, builtin, cyc, sym
from maxsub.group import core, direct_product, group_from_generators, is_normal
from maxsub.lattice import maximal_subgroups, subgroup_classes
from maxsub.perms import Permutation, parse_cycles
from maxsub.structure import (_is_maximal_by_cosets, chief_series,
                              classify_maximal, complement_solution_count,
                              crowns, describe_factor, ensure_factor_flags,
                              g_connected, g_isomorphic,
                              minimal_normal_subgroups)

from oracles import associated_primitive


def factor_orders(G, seed=0):
    return [d.order for d in chief_series(G, seed=seed)]


def test_chief_series_s4():
    facs = chief_series(sym(4))
    assert [d.order for d in facs] == [4, 3, 2]
    assert all(d.abelian for d in facs)
    total = 1
    for d in facs:
        total *= d.order
    assert total == 24


def test_chief_series_a5():
    facs = chief_series(alt(5))
    assert len(facs) == 1
    d = facs[0]
    assert d.order == 60 and not d.abelian
    assert d.simple_id == "Alt(5)"
    assert d.copies == 1
    assert d.centralizer.order == 1


def test_chief_orders_product_equals_group_order():
    for make in (lambda: sym(4), lambda: sym(5), lambda: cyc(12),
                 lambda: builtin("sl:2,3"), lambda: builtin("agl:1,8"),
                 lambda: builtin("agammal:1,8"), lambda: alt(4)):
        G = make()
        total = 1
        for d in chief_series(G):
            total *= d.order
        assert total == G.order


def test_jordan_holder_stability():
    G = builtin("sl:2,3")
    fingerprints = set()
    for seed in range(5):
        G2 = builtin("sl:2,3")  # fresh handle: no cross-seed cache reuse
        facs = chief_series(G2, seed=seed)
        for d in facs:
            ensure_factor_flags(G2, d)
        fp = tuple(sorted((d.order, d.abelian, d.simple_id or "",
                           d.frattini, d.complemented) for d in facs))
        fingerprints.add(fp)
    assert len(fingerprints) == 1


def test_minimal_normals_s4():
    mins = minimal_normal_subgroups(sym(4))
    assert [N.order for N in mins] == [4]


def test_minimal_normals_a5xc2():
    P, _, _ = direct_product([alt(5), cyc(2)])
    assert sorted(N.order for N in minimal_normal_subgroups(P)) == [2, 60]


def test_minimal_normals_agl32():
    G = builtin("agl:3,2")
    mins = minimal_normal_subgroups(G)
    assert [N.order for N in mins] == [8]


def test_complemented_v4_in_s4():
    G = sym(4)
    facs = chief_series(G)
    v4_factor = facs[0]
    assert v4_factor.order == 4
    ensure_factor_flags(G, v4_factor)
    assert v4_factor.complemented is True
    assert v4_factor.frattini is False


def test_frattini_factor_of_c4():
    G = cyc(4)
    facs = chief_series(G)
    for d in facs:
        ensure_factor_flags(G, d)
    # the lower C2 is the Frattini subgroup of C4: not complemented
    assert [d.complemented for d in facs] == [False, True]


def test_nonabelian_factor_flags_need_no_lattice():
    G = alt(5)
    d = chief_series(G)[0]
    ensure_factor_flags(G, d, lattice_cap=1)
    assert d.frattini is False
    assert d.complemented is None


def sl25_on_vectors():
    """SL(2,5) acting on the 24 nonzero vectors of GF(5)^2."""
    vecs = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}
    gens = []
    for (a, b), (c, e) in [((1, 1), (0, 1)), ((0, 4), (1, 0))]:
        gens.append(Permutation([index[((x * a + y * c) % 5,
                                        (x * b + y * e) % 5)]
                                 for x, y in vecs]))
    return group_from_generators(24, gens)


def test_frattini_flags_match_lattice():
    # H/K is non-Frattini exactly when some maximal subgroup contains K but
    # not H; the flags (by complement or by theorem) must agree with that
    A5xC2, _, _ = direct_product([alt(5), cyc(2)])
    SL25 = sl25_on_vectors()
    assert SL25.order == 120
    for G in (sym(5), A5xC2, SL25):
        recs = maximal_subgroups(G)
        facs = chief_series(G)
        assert any(not d.abelian for d in facs)
        for d in facs:
            ensure_factor_flags(G, d)
            H, K = d.section.upper, d.section.lower
            supplemented = any(
                all(r.subgroup.contains(g) for g in K.generators)
                and not all(r.subgroup.contains(g) for g in H.generators)
                for r in recs)
            assert d.frattini is (not supplemented), (G.order, d)
    centre = chief_series(SL25)[0]
    assert centre.order == 2
    assert centre.frattini is True and centre.complemented is False


def test_complement_count_matches_h1():
    # number of complements of V4 in S4 is |V4| * |H^1(S3, V4)| = 4
    G = sym(4)
    facs = chief_series(G)
    H = facs[0].section.upper
    K = facs[0].section.lower
    assert complement_solution_count(G, H, K) == 4


def test_g_isomorphic_reflexive_and_c3_pairs():
    P, _, _ = direct_product([cyc(3), cyc(3)])
    facs = chief_series(P)
    assert len(facs) == 2
    assert g_isomorphic(P, facs[0], facs[0])
    # both factors are central of order 3: G-isomorphic
    assert g_isomorphic(P, facs[0], facs[1])


def test_g_isomorphic_distinguishes_action():
    # C3 x S3: central C3 versus the natural C3 inside S3
    P, _, _ = direct_product([cyc(3), sym(3)])
    facs = chief_series(P)
    threes = [d for d in facs if d.order == 3]
    assert len(threes) == 2
    assert not g_isomorphic(P, threes[0], threes[1])


def test_g_connected_a5_squared():
    P, _, _ = direct_product([alt(5), alt(5)])
    facs = chief_series(P)
    assert len(facs) == 2
    assert g_connected(P, facs[0], facs[1]) is True
    cs = crowns(P)
    nonab = [c for c in cs if not c.abelian]
    assert len(nonab) == 1 and nonab[0].length == 2


def test_g_connected_different_simples():
    P, _, _ = direct_product([alt(5), builtin("psl:2,7")])
    facs = chief_series(P)
    assert len(facs) == 2
    assert g_connected(P, facs[0], facs[1]) is False


def test_crowns_s4():
    G = sym(4)
    cs = crowns(G)
    assert len(cs) == 3
    assert sorted(c.order for c in cs) == [2, 3, 4]
    assert all(c.length == 1 and c.abelian for c in cs)


def test_crowns_c3_squared():
    P, _, _ = direct_product([cyc(3), cyc(3)])
    cs = crowns(P)
    assert len(cs) == 1
    assert cs[0].order == 3 and cs[0].length == 2


def test_classify_maximal_s4():
    G = sym(4)
    for rec in maximal_subgroups(G):
        assert classify_maximal(G, rec.subgroup) == 1


def test_classify_maximal_a4_in_a5():
    G = alt(5)
    a4 = G.subgroup([parse_cycles("(1,2,3)", 5), parse_cycles("(1,2)(3,4)", 5)])
    assert classify_maximal(G, a4) == 2


def test_classify_maximal_type3():
    # diagonal A5 inside A5 x A5 is maximal with trivial core: type 3
    P, emb, _ = direct_product([alt(5), alt(5)])
    diag_gens = [emb[0].apply(g) * emb[1].apply(g) for g in alt(5).generators]
    D = P.subgroup(diag_gens)
    assert D.order == 60
    assert core(P, D).order == 1
    assert classify_maximal(P, D) == 3


def test_baer_types_match_lattice_route():
    for make in (lambda: sym(4), lambda: alt(5), lambda: builtin("sl:2,3"),
                 lambda: builtin("agl:1,8")):
        G = make()
        for rec in maximal_subgroups(G):
            assert rec.baer_type == classify_maximal(G, rec.subgroup)


def test_associated_primitive_v4():
    G = sym(4)
    d = chief_series(G)[0]
    P = associated_primitive(G, d)
    assert P.degree == 4
    assert P.order == 24  # |A| * |G/C| = 4 * 6


def test_associated_primitive_simple():
    G = alt(5)
    d = chief_series(G)[0]
    P = associated_primitive(G, d)
    assert P.order == 60


def _psl34_on_pg24():
    """PSL(3,4) on the 21 points of PG(2,4): the action of the elementary
    transvections I + t E_ij of SL(3,4), t in {1, w}, on the lines of
    GF(4)^3.  GF(4) = {0, 1, w, w + 1} is coded 0..3, with xor as sum."""
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    inv = {1: 1, 2: 3, 3: 2}

    def normal(v):
        lead = next(x for x in v if x)
        return tuple(mul[inv[lead]][x] for x in v)

    pts = sorted({normal((a, b, c)) for a in range(4) for b in range(4)
                  for c in range(4) if (a, b, c) != (0, 0, 0)})
    index = {v: i for i, v in enumerate(pts)}

    def act(M):
        images = []
        for v in pts:
            w = [0, 0, 0]
            for i in range(3):
                for j in range(3):
                    w[j] ^= mul[v[i]][M[i][j]]
            images.append(index[normal(w)])
        return Permutation(np.array(images, dtype=np.int32))

    gens = []
    for i in range(3):
        for j in range(3):
            for t in (1, 2):
                if i != j:
                    M = [[int(r == c) for c in range(3)] for r in range(3)]
                    M[i][j] = t
                    gens.append(act(M))
    return group_from_generators(len(pts), gens)


@pytest.mark.parametrize("make, name", [(lambda: alt(8), "Alt(8)"),
                                        (_psl34_on_pg24, "PSL(3,4)")])
def test_order_20160_decided_by_element_census(make, name):
    # for a simple G, C_G(G) = 1 and the primitive group of the factor G/1
    # is G itself; this stand-in spares the conjugation action on 20160
    # cosets that `describe_factor` would build
    from types import SimpleNamespace
    from maxsub.structure import _disambiguate_simple
    G = make()
    assert G.order == 20160
    fa = SimpleNamespace(primitive=G, to_primitive=lambda h: h)
    got, note = _disambiguate_simple(fa, G)
    assert got == name
    assert "census" in note


def test_chief_series_agl32():
    G = builtin("agl:3,2")
    facs = chief_series(G)
    assert [d.order for d in facs] == [8, 168]
    assert facs[0].abelian and not facs[1].abelian
    assert facs[1].simple_id == "PSL(2,7)"
    for d in facs:
        ensure_factor_flags(G, d)
    assert facs[0].complemented is True
    assert facs[1].frattini is False


@pytest.mark.parametrize("make", [
    lambda: sym(4), lambda: alt(5), lambda: builtin("psl:2,7"),
    lambda: builtin("agl:1,8"),
    lambda: direct_product([sym(3), sym(3)])[0]],
    ids=["S4", "A5", "PSL(2,7)", "AGL(1,8)", "S3xS3"])
def test_maximal_by_cosets_matches_lattice(make):
    G = make()
    lat = subgroup_classes(G)
    maximal = {c.key for c in lat.maximal_classes()}
    assert {rec.class_ref.key for rec in maximal_subgroups(G)} == maximal
    for c in lat.classes:
        if c.order == G.order:
            continue
        U = c.representative(lat.table)
        assert _is_maximal_by_cosets(G, U) == (c.key in maximal)


def test_chief_series_agl32_closure_count(monkeypatch):
    calls = []
    for mod in (maxsub.group, maxsub.structure):
        orig = mod.normal_closure

        def counted(G, seeds, orig=orig):
            calls.append(1)
            return orig(G, seeds)

        monkeypatch.setattr(mod, "normal_closure", counted)
    facs = chief_series(builtin("agl:3,2"))
    assert [d.order for d in facs] == [8, 168]
    assert len(calls) <= 25


def test_complement_budget_checked_before_section_space(monkeypatch):
    G = sym(4)
    K = G.subgroup([], known_order=1)
    H = group_from_generators(4, [parse_cycles("(1,2)(3,4)", degree=4),
                                  parse_cycles("(1,3)(2,4)", degree=4)])

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the coset-limit check")

    monkeypatch.setattr(maxsub.structure, "SectionSpace", no_work)
    monkeypatch.setattr(maxsub.structure, "coset_canonical", no_work)
    monkeypatch.setattr(maxsub.structure, "DEFAULT_COSET_LIMIT", 1)
    with pytest.raises(LimitExceeded, match="coset limit"):
        complement_solution_count(G, H, K)


def test_naive_complement_budget_checked_before_section_space(monkeypatch):
    import oracles
    G = sym(4)
    K = G.subgroup([], known_order=1)
    H = group_from_generators(4, [parse_cycles("(1,2)(3,4)", degree=4),
                                  parse_cycles("(1,3)(2,4)", degree=4)])

    def no_space(*args, **kwargs):
        raise AssertionError("SectionSpace built before the budget check")

    monkeypatch.setattr(oracles, "SectionSpace", no_space)
    with pytest.raises(LimitExceeded):
        oracles.naive_complement_solution_count(G, H, K, budget=1)


@pytest.mark.parametrize("lower, upper, expected", [
    ("1", "A4", 4), ("V4", "A4", 12), ("A4", "S4", 24)])
def test_materialize_step_s4(lower, upper, expected):
    from oracles import derived_subgroup
    from maxsub.structure import _materialize_step
    G = sym(4)
    A4 = derived_subgroup(G)
    named = {"1": G.subgroup([], known_order=1), "V4": derived_subgroup(A4),
             "A4": A4, "S4": G}
    X = _materialize_step(G, named[lower], named[upper])
    assert X.order == expected
    assert is_normal(G, X)


def test_vector_tables_match_loop_reference():
    import random

    from maxsub.structure import _matrix_actions, _vector_codes, _vectors

    def digits(code, p, dim):
        out = []
        for _ in range(dim):
            out.append(code % p)
            code //= p
        return out

    def code_of(v, p):
        code = 0
        for x in reversed(v):
            code = code * p + int(x) % p
        return code

    rng = random.Random(5)
    for p, dim in [(2, 1), (2, 4), (3, 2), (5, 2), (7, 1)]:
        vecs = _vectors(p, dim)
        assert vecs.tolist() == [digits(c, p, dim) for c in range(p ** dim)]
        assert _vector_codes(vecs, p).tolist() == list(range(p ** dim))
        mats = [np.array([[rng.randrange(p) for _ in range(dim)]
                          for _ in range(dim)], dtype=np.int16)
                for _ in range(2)]
        for M, arr in zip(mats, _matrix_actions(vecs, p, mats)):
            assert arr.tolist() == [
                code_of(np.array(v, dtype=np.int64) @ M, p)
                for v in vecs.tolist()]


def test_vectors_refused_above_coset_limit():
    from maxsub.structure import (ChiefFactorDescriptor, NormalSection,
                                  _abelian_centralizer)
    from oracles import coset_lifts
    G = sym(4)
    d = ChiefFactorDescriptor(NormalSection(G, G, G.subgroup([], known_order=1)))
    d.abelian, d.prime, d.dim = True, 2, 15
    for build in (lambda: _abelian_centralizer(G, d),
                  lambda: coset_lifts(d.space, d.prime, d.dim),
                  lambda: associated_primitive(G, d)):
        with pytest.raises(LimitExceeded, match="32768 vectors"):
            build()


def test_chief_series_field_module_group():
    # GF(67^2) x| C17 on its 4489 points: the translations form a module
    # that is irreducible but not absolutely irreducible (its algebra is the
    # field GF(67^2)), so the meataxe has no nullity-one element to find
    p = 67
    M = np.array([[0, 1], [66, 13]], dtype=np.int64)   # of order 17
    pts = np.array([(x, y) for x in range(p) for y in range(p)],
                   dtype=np.int64)

    def action(images):
        return Permutation((images[:, 0] % p * p + images[:, 1] % p)
                           .astype(np.int32))

    G = group_from_generators(p * p, [action(pts + [1, 0]),
                                      action(pts @ M)])
    assert G.order == p * p * 17
    assert factor_orders(G) == [p * p, 17]
