import pytest

from maxsub.catalog import alt, builtin, cyc, dih, sym
from maxsub.group import direct_product
from maxsub.invariants import (m_n, min_generators, profile, script_M)


def test_profile_s4():
    p = profile(sym(4))
    assert p.order == 24
    assert p.lambda_ == 3
    assert p.cr_ab == {2: 1, 3: 1, 4: 1}
    assert p.m_exact == {2: 1, 3: 3, 4: 4}
    assert p.script_M[0] == pytest.approx(1.0)
    assert p.d == 2
    assert p.min_index == 2
    assert p.rks == {} and p.rko == {} and p.rkm == {}


def test_profile_a5():
    p = profile(alt(5))
    assert p.rks == {5: 1, 6: 1, 10: 1}
    assert p.rko == {60: 1}
    assert p.rkm == {60: 1}
    assert p.s == {60: 1}
    assert p.cr_ab == {}
    assert p.rk_iso == {"Alt(5)": 1}
    assert p.d == 2
    assert p.min_index == 5
    assert p.script_M[0] == pytest.approx(1.0)  # max log_n(n) over 5,6,10


def test_profile_cyclic():
    p = profile(cyc(6))
    assert p.d == 1
    assert p.lambda_ == 2
    assert p.m_exact == {2: 1, 3: 1}


def test_min_generators_basics():
    assert min_generators(cyc(6)) == 1
    P, _, _ = direct_product([cyc(2), cyc(2), cyc(2)])
    assert min_generators(P) == 3
    assert min_generators(sym(4)) == 2


def test_min_generators_via_lattice_matches_bruteforce():
    # d(AGL(1,8)) = 2, d(SL(2,3)) = 2, d(dih(6)) = 2
    for make, expect in [(lambda: builtin("agl:1,8"), 2),
                         (lambda: builtin("sl:2,3"), 2),
                         (lambda: dih(6), 2),
                         (lambda: cyc(30), 1)]:
        assert min_generators(make()) == expect


def test_min_generators_two_nonabelian_generators():
    # the crowns give d = 2 at every seed on this degree-128 group, where
    # a search over 40 random pairs misses at seed 3
    from maxsub.constructions import hat
    H, _ = hat(builtin("agl:1,8"), 2)
    assert len(H.generators) == 2
    for seed in range(4):
        assert min_generators(H, seed=seed) == 2


def test_m_n_and_script_M():
    G = alt(5)
    assert m_n(G, 5) == 5
    assert m_n(G, 6) == 6
    assert m_n(G, 10) == 10
    assert m_n(G, 7) == 0
    assert script_M(G)[0] == pytest.approx(1.0)


def test_profile_product_assembled_vs_direct():
    # order <= lattice limit: the assembled profile must agree with the
    # profile computed directly on a fresh (non-product) handle
    from maxsub.group import group_from_generators
    P, _, _ = direct_product([sym(3), cyc(2)])
    assembled = profile(P)
    flat = group_from_generators(P.degree, P.generators)
    direct = profile(flat)
    assert assembled.lambda_ == direct.lambda_
    assert assembled.cr_ab == direct.cr_ab
    assert assembled.rko == direct.rko
    assert assembled.ab == direct.ab


def test_profile_product_a5_a5():
    P, _, _ = direct_product([alt(5), alt(5)])
    p = profile(P)
    assert p.rko == {60: 2}
    assert p.s == {60: 1}       # the two factors are S-connected: one crown
    assert p.rkm == {60: 2}
    assert p.rks == {5: 2, 6: 2, 10: 2}
    assert p.lambda_ == 2
    # the crowns decide every m_n above the lattice limit
    assert p.m_exact == {5: 10, 6: 12, 10: 20, 60: 120}
    assert "skipped" not in p.to_json()


def test_profile_product_a5_psl27():
    P, _, _ = direct_product([alt(5), builtin("psl:2,7")])
    p = profile(P)
    assert p.rko == {60: 1, 168: 1}
    assert p.s == {60: 1, 168: 1}
    assert p.rkm == {60: 1, 168: 1}
    assert p.rks == {5: 1, 6: 1, 10: 1, 7: 1, 8: 1}


def test_central_crown_merge():
    P, _, _ = direct_product([cyc(3), cyc(3)])
    p = profile(P)
    assert p.cr_ab == {3: 1}
    assert p.ab == {3: 2}
    assert p.m_exact == {3: 4}  # (3^2-1)/(3-1)


def test_min_index_product():
    P, _, _ = direct_product([alt(5), cyc(2)])
    p = profile(P)
    assert p.min_index == 2
