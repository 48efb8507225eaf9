from collections import Counter

import pytest

from maxsub.catalog import builtin, cyc, sym
from maxsub.constructions import (automorphisms, build_Lk, end_size, hat,
                                  subdirect, tuple_orbits)
from maxsub.group import direct_product, group_from_generators
from maxsub.invariants import min_generators, profile
from maxsub.lattice import m_n_map
from maxsub.perms import parse_cycles
from maxsub.probgen import phi
from maxsub.structure import chief_series, crowns

from oracles import (abelian_crown_bound, distinct_projection_kernels, f_of_d,
                     h1_size, tower_quotient_fingerprint,
                     verify_subdirect_projections)


def s4_with_v4():
    L = sym(4)
    N = L.subgroup([parse_cycles("(1,2)(3,4)", 4),
                    parse_cycles("(1,3)(2,4)", 4)])
    return L, N


def test_build_lk_orders():
    L, N = s4_with_v4()
    assert build_Lk(L, N, 1).tower is L
    t2 = build_Lk(L, N, 2)
    assert t2.tower.order == N.order ** 1 * L.order == 96
    t3 = build_Lk(L, N, 3)
    assert t3.tower.order == N.order ** 2 * L.order == 384


def test_build_lk_rejects_bad_socle():
    L = sym(4)
    c2 = L.subgroup([parse_cycles("(1,2)", 4)])
    with pytest.raises(ValueError):
        build_Lk(L, c2, 2)  # not normal in S4
    P, _, _ = direct_product([cyc(2), cyc(2), cyc(2)])
    flat = group_from_generators(P.degree, P.generators)
    quad = flat.subgroup([flat.generators[0], flat.generators[1]])
    with pytest.raises(ValueError):
        build_Lk(flat, quad, 2)  # normal abelian but not minimal


def test_build_lk_c2_square():
    # C2 inside C2 x C2 is a legitimate complemented minimal normal subgroup
    P, _, _ = direct_product([cyc(2), cyc(2)])
    flat = group_from_generators(P.degree, P.generators)
    sub = flat.subgroup([flat.generators[0]])
    t = build_Lk(flat, sub, 2)
    assert t.tower.order == 8


def test_q_and_h1_s4():
    L, N = s4_with_v4()
    assert end_size(L, N) == 2
    assert h1_size(L, N) == 1


def test_q_and_h1_agl32():
    L = builtin("agl:3,2")
    mins = [parse_cycles("(1,2)(3,4)(5,6)(7,8)", 8)]
    N = L.subgroup([parse_cycles("(1,2)(3,4)(5,6)(7,8)", 8),
                    parse_cycles("(1,3)(2,4)(5,7)(6,8)", 8),
                    parse_cycles("(1,5)(2,6)(3,7)(4,8)", 8)])
    assert N.order == 8
    assert end_size(L, N) == 2
    # complement count = |N| * |H1|; the lattice shows two classes of
    # GL(3,2) complements (8 + 8), so |H1| = 2
    assert h1_size(L, N) == 2


def test_f_of_d():
    L, N = s4_with_v4()
    assert f_of_d(L, N, 2) == 3
    assert f_of_d(L, N, 3) == 5
    with pytest.raises(ValueError):
        f_of_d(L, N, 1)  # below d(L)


def test_tower_f_consistency():
    # d(L_{f(2)-1}) = 2 < d(L_{f(2)}): f(2) = 3, so d(L_2) = 2 < d(L_3)
    L, N = s4_with_v4()
    t2 = build_Lk(L, N, 2)
    t3 = build_Lk(L, N, 3)
    assert min_generators(t2.tower) == 2
    assert min_generators(t3.tower) == 3


def test_tower_degree_monotone():
    L, N = s4_with_v4()
    ds = []
    for k in (1, 2, 3, 4):
        t = build_Lk(L, N, k)
        ds.append(min_generators(t.tower))
    for a, b in zip(ds, ds[1:]):
        assert a <= b <= a + 1


def test_m4_of_l2_attains_crown_bound():
    L, N = s4_with_v4()
    t2 = build_Lk(L, N, 2)
    mn = m_n_map(t2.tower)
    assert mn[4] == 12
    assert mn[4] == abelian_crown_bound(4, 2, t2.q, t2.h1) == 4 ** 2 - 4


def test_tower_quotient_fingerprint():
    L, N = s4_with_v4()
    t3 = build_Lk(L, N, 3)
    assert tower_quotient_fingerprint(t3.tower, L, N, 3)


def test_aut_orders():
    P, _, _ = direct_product([cyc(2), cyc(2)])
    flat = group_from_generators(P.degree, P.generators)
    assert automorphisms(flat).order == 6
    assert automorphisms(sym(4)).order == 24
    assert automorphisms(builtin("agl:1,8")).order == 168


def test_aut_maps_are_automorphisms():
    G = sym(4)
    aut = automorphisms(G)
    T = aut.table
    mult = T.mult
    for phi_map in aut.maps[:6]:
        for x in range(T.n):
            for g in T.gen_indices:
                assert phi_map[mult[x, g]] == mult[phi_map[x], phi_map[g]]


def test_tuple_orbits_c2c2():
    P, _, _ = direct_product([cyc(2), cyc(2)])
    flat = group_from_generators(P.degree, P.generators)
    c = tuple_orbits(flat, 2)
    assert c.phi_d == 6
    assert c.orbit_count == 1
    assert c.aut_order == 6


def test_tuple_orbits_agl18():
    c = tuple_orbits(builtin("agl:1,8"), 2)
    assert c.orbit_count == 16
    assert c.phi_d == 2688
    assert c.orbit_count * c.aut_order == c.phi_d


def test_orbit_reps_generate_and_lie_in_distinct_orbits():
    G = builtin("agl:1,8")
    c = tuple_orbits(G, 2)
    from maxsub.bsgs import StabilizerChain
    for rep in c.orbit_representatives[:4]:
        chain = StabilizerChain(G.degree, list(rep))
        assert chain.order == G.order


def test_subdirect_cp_collapse():
    # two copies of C_p with matching generators collapse to the diagonal
    a = cyc(5)
    H = subdirect([(a, [a.generators[0]]), (cyc(5), [cyc(5).generators[0]])])
    assert H.order == 5
    assert verify_subdirect_projections(H)


def test_subdirect_diagonal_s4():
    G = sym(4)
    tup = list(G.generators)
    H = subdirect([(G, tup), (sym(4), list(sym(4).generators))])
    assert H.order == 24


def test_subdirect_sign_compatibility():
    # both S4 generators are odd, so pairing each with the C2 involution is
    # compatible with the sign character: the subdirect product is the graph
    # of sign (order 24), not the full product
    G = sym(4)
    c2 = cyc(2)
    x = c2.generators[0]
    H = subdirect([(G, list(G.generators)), (c2, [x, x])])
    assert H.order == 24
    assert verify_subdirect_projections(H)
    # pairing (x, identity) matches no character of S4: full product
    H2 = subdirect([(G, list(G.generators)), (c2, [x, c2.identity()])])
    assert H2.order == 48
    assert verify_subdirect_projections(H2)


def test_hat_g1_materializes():
    G = builtin("agl:1,8")
    H, census = hat(G, 2)
    assert H is not None
    assert H.degree == 128
    assert census.orbit_count == 16
    kernels, distinct = distinct_projection_kernels(H)
    assert distinct


def test_hat_census_only_when_too_big():
    G = builtin("agl:1,8")
    H, census = hat(G, 2, materialize_degree_limit=64)
    assert H is None
    assert census.orbit_count == 16


def test_hat_g1_crown_structure():
    G = builtin("agl:1,8")
    H, _ = hat(G, 2)
    p = profile(H)
    assert p.cr_ab == {8: 16, 7: 1}
    cs = crowns(H)
    assert Counter((c.order, c.length) for c in cs) == \
        Counter({(8, 1): 16, (7, 2): 1})
