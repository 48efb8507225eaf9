import pytest
from hypothesis import given, settings, strategies as st

from maxsub.bsgs import LimitExceeded
from maxsub.catalog import agl18, agl32, alt, builtin, cyc, dih, psl27, sl23, sym
from maxsub.group import (core, coset_action, direct_product,
                          group_from_generators, is_normal, normal_closure,
                          small_generating_set)
from maxsub.perms import Permutation, parse_cycles

from oracles import (derived_subgroup, naive_closure, naive_order,
                     orders_multiply, trivial_group)


def test_group_from_generators_s4():
    G = group_from_generators(4, [parse_cycles("(1,2)", 4),
                                  parse_cycles("(1,2,3,4)", 4)])
    assert G.order == 24
    assert G.order == naive_order(G)


def test_degree_mismatch():
    with pytest.raises(ValueError):
        group_from_generators(4, [parse_cycles("(1,2)", 3)])
    with pytest.raises(ValueError):
        group_from_generators(0, [])


def test_trivial_group():
    G = trivial_group()
    assert G.order == 1


def test_builtin_orders_match_naive():
    for G, expect in [(sym(4), 24), (alt(5), 60), (cyc(6), 6), (dih(6), 12),
                      (sl23(), 24), (agl18(), 56)]:
        assert G.order == expect == naive_order(G)


def test_builtin_agl32_order():
    G = agl32()
    assert G.order == 1344 == naive_order(G)


def test_builtin_psl27_and_agammal():
    assert psl27().order == 168
    assert builtin("agammal:1,8").order == 168


def test_contains_and_elements():
    G = sym(4)
    assert G.contains(G.identity())
    els = G.elements(limit=30)
    assert len(els) == 24
    assert len(set(els)) == 24
    with pytest.raises(LimitExceeded):
        G.elements(limit=10)


def test_elements_cyclic():
    els = cyc(6).elements(limit=10)
    assert len(els) == 6


def test_normal_closure_a4():
    G = sym(4)
    ncl = normal_closure(G, [parse_cycles("(1,2,3)", 4)])
    assert ncl.order == 12
    assert is_normal(G, ncl)


def test_core_s4_d8():
    G = sym(4)
    d8 = G.subgroup([parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)])
    assert d8.order == 8
    c = core(G, d8)
    assert c.order == 4
    assert is_normal(G, c)
    # the core is the Klein four group of double transpositions
    assert c.contains(parse_cycles("(1,2)(3,4)", 4))


def test_core_rejects_non_subgroup():
    G = alt(4)
    H = group_from_generators(4, [parse_cycles("(1,2)", 4)])
    with pytest.raises(ValueError):
        core(G, H)


def test_coset_action_s4_d8():
    G = sym(4)
    d8 = G.subgroup([parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)])
    act = coset_action(G, d8)
    assert act.quotient.degree == 3
    assert act.quotient.order == 6
    assert act.kernel.order == 4
    assert orders_multiply(act.map)


def test_coset_action_self():
    G = sym(4)
    act = coset_action(G, G)
    assert act.quotient.order == 1


def test_coset_action_a5_a4():
    G = alt(5)
    a4 = G.subgroup([parse_cycles("(1,2,3)", 5), parse_cycles("(1,2)(3,4)", 5)])
    assert a4.order == 12
    act = coset_action(G, a4)
    assert act.quotient.degree == 5
    assert act.quotient.order == 60
    assert act.kernel.order == 1


def test_coset_action_limit():
    G = sym(5)
    with pytest.raises(LimitExceeded):
        coset_action(G, G.subgroup([]), limit=100)


def test_coset_action_apply():
    G = sym(4)
    s3 = G.subgroup([parse_cycles("(2,3)", 4), parse_cycles("(2,3,4)", 4)])
    act = coset_action(G, s3)
    for g in G.generators:
        assert act.map.apply(g) == act.map.gen_images[G.generators.index(g)]


def test_direct_product_orders():
    P, emb, proj = direct_product([cyc(2), cyc(3)])
    assert P.order == 6
    assert P.degree == 5
    P2, _, _ = direct_product([sym(4), sym(4)])
    assert P2.order == 576


def test_direct_product_projection_kernel():
    P, emb, proj = direct_product([alt(5), cyc(2)])
    assert proj[0].kernel.order == 2
    assert proj[1].kernel.order == 60
    assert orders_multiply(proj[0])
    g = P.generators[0]
    assert proj[0].apply(g).degree == 5


def test_derived_subgroup():
    assert derived_subgroup(sym(4)).order == 12
    assert derived_subgroup(alt(5)).order == 60
    assert derived_subgroup(cyc(6)).order == 1


def test_uniform_random_identity_for_trivial():
    assert trivial_group().uniform_random(1).is_identity()


def test_uniform_random_c2_frequency():
    G = cyc(2)
    import random
    rng = random.Random(12345)
    n = 100000
    hits = sum(1 for _ in range(n) if G.uniform_random(rng).is_identity())
    # binomial: mean n/2, sd = sqrt(n)/2; allow 3 sigma
    assert abs(hits - n / 2) <= 3 * (n ** 0.5) / 2


@st.composite
def _candidates(draw):
    degree = draw(st.integers(min_value=1, max_value=9))
    perm = st.permutations(list(range(degree))).map(Permutation)
    return degree, draw(st.lists(perm, min_size=0, max_size=6))


@settings(max_examples=80, deadline=None)
@given(_candidates())
def test_small_generating_set_matches_sympy(case):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    degree, candidates = case

    def sympy_perm(p):
        return combinatorics.Permutation(p.images.tolist())

    def sympy_group(perms):
        return combinatorics.PermutationGroup(
            [sympy_perm(p) for p in perms]
            or [combinatorics.Permutation(list(range(degree)))])

    order = sympy_group(candidates).order()
    gens = small_generating_set(degree, candidates, order)
    rest = iter(candidates)
    assert all(any(g is c for c in rest) for g in gens)   # candidates' order
    assert sympy_group(gens).order() == order
    for i, g in enumerate(gens):
        assert not sympy_group(gens[:i]).contains(sympy_perm(g))
    with pytest.raises(RuntimeError):
        small_generating_set(degree, candidates, 2 * order)


@st.composite
def _group_and_seeds(draw):
    degree = draw(st.integers(min_value=1, max_value=9))
    perm = st.permutations(list(range(degree))).map(Permutation)
    gens = draw(st.lists(perm, min_size=1, max_size=3))
    words = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=len(gens) - 1),
                 min_size=1, max_size=4),
        min_size=1, max_size=2))
    seeds = []
    for w in words:
        out = gens[w[0]]
        for i in w[1:]:
            out = out * gens[i]
        seeds.append(out)
    return degree, gens, seeds


@settings(max_examples=60, deadline=None)
@given(_group_and_seeds())
def test_normal_closure_and_derived_subgroup_match_sympy(case):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    degree, gens, seeds = case

    def sympy_perm(p):
        return combinatorics.Permutation(p.images.tolist())

    G = group_from_generators(degree, gens)
    reference = combinatorics.PermutationGroup([sympy_perm(g) for g in gens])
    pairs = [
        (normal_closure(G, seeds),
         reference.normal_closure([sympy_perm(s) for s in seeds])),
        (derived_subgroup(G), reference.derived_subgroup()),
    ]
    for ours, theirs in pairs:
        assert ours.order == theirs.order()
        assert all(ours.contains(Permutation(
            g.array_form + list(range(g.size, degree))))
            for g in theirs.generators)
        assert all(theirs.contains(sympy_perm(g)) for g in ours.generators)
