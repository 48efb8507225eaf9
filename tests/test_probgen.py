from fractions import Fraction
from math import gcd

import pytest

from maxsub.catalog import alt, builtin, cyc, sym
from maxsub.group import direct_product
from maxsub.probgen import (at_least_one_over_e, gen_prob, gen_prob_mc, nu,
                            phi)

from oracles import naive_closure


def test_phi_c2():
    assert phi(cyc(2), 1) == 1


def test_phi_a5_pairs():
    assert phi(alt(5), 2) == 2280


def test_phi_agl18_pairs():
    G = builtin("agl:1,8")
    assert phi(G, 2) == 2688
    # cross-check: 56^2 - number of non-generating pairs = 3136 - 448
    assert 56 ** 2 - 2688 == 448


def test_phi_one_by_theorem_above_lattice_limit():
    # one element generates exactly the cyclic groups, in phi(n) ways
    for n in (1, 2, 12, 30, 49):
        totient = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert phi(cyc(n), 1, lattice_limit=1) == totient
    assert phi(direct_product([cyc(2), cyc(3)])[0], 1, lattice_limit=1) == 2
    assert phi(direct_product([cyc(2), cyc(2)])[0], 1, lattice_limit=1) == 0
    assert phi(sym(4), 1, lattice_limit=1) == 0


def test_nu_a5_squared_answers_without_generating_tests(capsys, monkeypatch):
    # above the lattice limit, P_G(k) comes from the crowns of A5 x A5
    import json
    import maxsub.probgen
    from maxsub.cli import EXIT_OK, main
    calls = []
    monkeypatch.setattr(maxsub.probgen, "generates",
                        lambda G, perms: calls.append(perms))
    assert main(["nu", "dp:alt:5+alt:5"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["nu"] == 2
    assert calls == []


def test_nu_refuses_when_a_primitive_group_is_above_lattice_limit(capsys):
    from maxsub.cli import EXIT_REFUSED, main
    assert main(["--lattice-limit", "50", "nu", "alt:5"]) == EXIT_REFUSED
    assert capsys.readouterr().err.startswith("refused: ")


def test_phi_matches_brute_force_small():
    for make, d in [(lambda: sym(3), 2), (lambda: cyc(6), 1),
                    (lambda: cyc(6), 2), (lambda: alt(4), 2)]:
        G = make()
        els = sorted(naive_closure(G.degree, G.generators),
                     key=lambda p: p.key())
        brute = 0
        from itertools import product
        for tup in product(els, repeat=d):
            if len(naive_closure(G.degree, list(tup))) == G.order:
                brute += 1
        assert phi(G, d) == brute


def test_gen_prob_exact():
    r = gen_prob(alt(5), 2)
    assert r.exact == Fraction(19, 30)
    assert gen_prob(sym(4), 0).exact == 0
    assert gen_prob(cyc(1), 0).exact == 1


def test_gen_prob_mc_covers_exact():
    r = gen_prob_mc(alt(5), 2, trials=20000, seed=7)
    assert abs(r.estimate - 19 / 30) <= r.ci_halfwidth


def test_gen_prob_mc_deterministic():
    a = gen_prob_mc(sym(4), 2, trials=500, seed=3)
    b = gen_prob_mc(sym(4), 2, trials=500, seed=3)
    assert a.estimate == b.estimate


def test_one_over_e_comparison():
    assert at_least_one_over_e(Fraction(1, 2))
    assert not at_least_one_over_e(Fraction(1, 3))
    assert at_least_one_over_e(Fraction(19, 30))


def test_nu_values():
    assert nu(cyc(2)) == 1
    assert nu(alt(5)) == 2
    assert nu(cyc(1)) == 0
    # S4: phiured via Moebius; nu must satisfy the script-M sandwich
    k = nu(sym(4))
    assert k == 2  # phi_2(S4)/576 = 0.375 >= 1/e


def test_nu_monotone_prob():
    G = sym(4)
    last = Fraction(0)
    for k in (1, 2, 3, 4):
        p = gen_prob(G, k).exact
        assert p >= last
        last = p


def test_nu_mc_a5():
    assert nu(alt(5), mode="mc", trials=20000, seed=11) == 2
