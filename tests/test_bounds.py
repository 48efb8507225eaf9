import math

import pytest

from maxsub.bounds import (bound_mn, check_b2, classify_index, eta_kappa,
                           markdown_bound_table)
from maxsub.catalog import alt, builtin, cyc, sym, dih
from maxsub.invariants import InvariantProfile, profile
from maxsub.simptable import simple_order_table, is_prime_power

from oracles import abelian_crown_bound


def example_S_profile():
    """The worked example's aggregate profile, with the paper's reported
    chief-factor counts frozen in (formula-engine fixture)."""
    p = InvariantProfile()
    p.order = None
    p.d = 2
    p.min_index = 3
    p.lambda_ = 292 + 8 + 2 + 57
    p.cr_ab = {3: 1, 7: 9, 8: 146}
    p.rks = {7: 57, 8: 57}
    p.rko = {168: 57}
    p.rkm = {168: 57}
    p.s = {168: 1}
    p.ab = {3: 2, 7: 8, 8: 292}
    p.r = 292 + 8 + 2 + 57
    p.r_a = 302
    p.r_b = 57
    return p


def test_classify_index_basics():
    c8 = classify_index(8)
    assert c8.in_T is True and c8.in_S is False
    c60 = classify_index(60)
    assert c60.in_S is True and c60.in_T is False
    c3600 = classify_index(3600)
    assert c3600.in_S is True and c3600.in_T is False
    c7 = classify_index(7)
    assert c7.in_T is True and c7.in_S is False
    c30 = classify_index(30)
    assert c30.in_T is False and c30.in_S is False


def test_T_and_S_disjoint_over_table():
    table = simple_order_table()
    for order in table:
        assert not is_prime_power(order)
        k = 1
        while order ** k <= 10 ** 7:
            assert not is_prime_power(order ** k)
            k += 1


def test_example_new_bounds():
    p = example_S_profile()
    assert bound_mn(p, 3).bound_mn == 8
    assert bound_mn(p, 7).bound_mn == 48 * 9 + 49 * 57 == 3225
    assert bound_mn(p, 8).bound_mn == 63 * 146 + 64 * 57 == 12846
    assert bound_mn(p, 168).bound_mn == 168 ** 2 * (57 * 56) // 2 == 45045504


def test_example_lubotzky_bounds():
    p = example_S_profile()
    assert bound_mn(p, 3).bound_lubotzky == 162
    assert bound_mn(p, 7).bound_lubotzky == 100205
    assert bound_mn(p, 8).bound_lubotzky == 1301824
    assert bound_mn(p, 168).bound_lubotzky == 46654272


def test_example_eta():
    p = example_S_profile()
    rep = eta_kappa(p, mroute_indices=[3, 7, 8, 168])
    assert rep.eta <= 6.75 + 1e-9
    # the maximum is attained by the n=8 abelian-crown term
    expect = 2 + 2.02 + math.log2(2) / 3 + math.log2(146) / 3
    assert rep.eta == pytest.approx(expect, abs=1e-9)
    assert rep.eta <= rep.kappa + 1e-9


def test_example_mroute():
    p = example_S_profile()
    rep = eta_kappa(p, mroute_indices=[3, 7, 8, 168])
    expect = 2.02 + math.log2(1301824) / 3
    assert rep.script_M_plus == pytest.approx(expect, abs=1e-9)
    assert rep.script_M_plus <= 8.791


def test_abelian_crown_bound_values():
    assert abelian_crown_bound(4, 2, 2, 1) == 12
    assert abelian_crown_bound(3, 2, 3, 1, normal=True) == 4
    for args in [(4, 2, 2, 1), (8, 2, 2, 2), (8, 3, 8, 1)]:
        n, d = args[0], args[1]
        assert abelian_crown_bound(*args) <= n ** d - 1
    with pytest.raises(ValueError):
        abelian_crown_bound(4, 2, 1, 1)


def test_check_b2_a5():
    rows = check_b2(alt(5))
    assert rows
    for core_order, n, count, ok in rows:
        assert ok
        assert count <= n * n
    by_n = {n: c for _, n, c, _ in rows}
    assert by_n == {5: 5, 6: 6, 10: 10}


def test_check_b2_s4():
    rows = check_b2(sym(4))
    assert all(ok for _, _, _, ok in rows)
    # core-free maximals of S4 itself: the four S3 of index 4
    own = [(c, n, cnt) for c, n, cnt, _ in rows if c == 1]
    assert (1, 4, 4) in own


def test_check_b2_trivial():
    assert check_b2(cyc(1)) == []


def test_m_exact_below_bounds_corpus():
    for make in (lambda: sym(4), lambda: alt(5), lambda: sym(5),
                 lambda: builtin("sl:2,3"), lambda: dih(6),
                 lambda: builtin("agl:1,8"), lambda: builtin("psl:2,7")):
        G = make()
        p = profile(G)
        assert p.m_exact is not None
        for n, m in p.m_exact.items():
            rep = bound_mn(p, n)
            assert m <= rep.bound_mn, (G.name, n, m, rep.bound_mn)
            assert m <= rep.bound_lubotzky, (G.name, n)
            if p.d >= 2 and rep.bound_lub_A is not None:
                assert m <= rep.bound_lub_A, (G.name, n)


def test_type_bounds_on_products():
    # direct products whose d exceeds the largest d of their factors
    from maxsub.corpus import check_type_bounds
    from maxsub.group import direct_product
    for parts in [(cyc(2), cyc(2)), (sym(3), sym(3))]:
        P, _, _ = direct_product(list(parts))
        label, ok, detail = check_type_bounds(P)
        assert ok, (label, detail)
        assert profile(P).d == 2


def test_dl_bound_simple():
    p = profile(alt(5))
    rep = eta_kappa(p)
    assert p.lambda_ == 1
    assert rep.dl_bound == math.floor(2 + 5.02)


def test_eta_kappa_d1_skipped():
    p = profile(cyc(6))
    rep = eta_kappa(p)
    assert rep.eta is None
    assert "eta" in rep.notes


def test_markdown_table():
    p = example_S_profile()
    reps = [bound_mn(p, n) for n in (3, 7, 8, 168)]
    md = markdown_bound_table(reps)
    assert "45045504" in md and "100205" in md
