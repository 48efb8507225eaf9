"""The m_n map, P_G(k) and d read off the crowns, against the subgroup
lattice, the brute-force subgroup sweep, the generating-tuple count and the
pinned values of groups above the lattice limit."""

import json
import sys
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import maxsub.group
import maxsub.lattice
from maxsub.bsgs import LimitExceeded
from maxsub.cli import main, parse_spec
from maxsub.group import direct_product, group_from_generators, normal_closure
from maxsub.invariants import crown_gen_prob, min_generators, profile
from maxsub.lattice import DEFAULT_ORDER_LIMIT, m_n_map, subgroup_classes
from maxsub.modules import cocycle_dim
from maxsub.perms import Permutation
from maxsub.probgen import gen_prob
from maxsub.structure import crowns

from oracles import (associated_primitive, generating_tuple_count,
                     naive_closure, naive_complement_solution_count,
                     naive_maximals, naive_subgroups)

LATTICE_SPECS = [
    "sym:3", "sym:4", "alt:4", "sym:5", "alt:5", "psl:2,7", "agl:1,8",
    "agammal:1,8", "alt:6", "sym:6", "dih:8", "cyc:12", "sl:2,3", "agl:3,2",
    "lk:sym:4,2", "lk:sym:4,3", "sub:sym:3+sym:3", "dp:sym:3+sym:3",
    "dp:sym:3+cyc:3", "dp:alt:4+cyc:3", "dp:alt:5+cyc:2",
    "dp:sym:3+sym:3+cyc:2", "dp:sym:4+sym:4", "dp:psl:2,7+sym:3",
    "dp:sym:3+sym:3+sym:3",
]


def _flat(G):
    """The same group on a handle that is not a product."""
    return group_from_generators(G.degree, G.generators)


def _brute_m_n(G):
    els = naive_closure(G.degree, G.generators)
    counts = {}
    for M in naive_maximals(naive_subgroups(G.degree, els), frozenset(els)):
        n = len(els) // len(M)
        counts[n] = counts.get(n, 0) + 1
    return dict(sorted(counts.items()))


def _assert_cocycles_match_complements(G):
    """z = |Z^1(L, A)| against the complements of A in A x| L, counted by
    brute force, on every non-central abelian crown."""
    for c in crowns(G):
        d = c.factor_class
        if not c.abelian or d.centralizer.order == G.order:
            continue
        P = associated_primitive(G, d)
        A = normal_closure(P, [P.generators[0]])
        assert A.order == c.order
        z = d.prime ** cocycle_dim(d.space.gen_matrices, d.prime,
                                   G.order // d.centralizer.order)
        assert z == naive_complement_solution_count(
            P, A, P.subgroup([], known_order=1)), (G.name, c)


@pytest.mark.parametrize("spec", LATTICE_SPECS)
def test_crown_map_matches_lattice(spec):
    G = parse_spec(spec).resolved
    F = _flat(G)
    expect = m_n_map(F)
    assert profile(G).m_exact == expect
    if G.product_factors:
        assert profile(F).m_exact == expect
    _assert_cocycles_match_complements(F)


@pytest.mark.parametrize("spec, expect", [
    ("hat:agl:1,8;2", {7: 8, 8: 128}),
    ("dp:alt:5+alt:5", {5: 10, 6: 12, 10: 20, 60: 120}),
    ("perm:10:(1,2,3,4,5);(1,2,3);(6,7,8,9,10);(6,7,8)",
     {5: 10, 6: 12, 10: 20, 60: 120}),
    ("lk:sym:4,3", {2: 1, 3: 3, 4: 28}),
    ("dp:sym:3+sym:3+sym:3", {2: 7, 3: 9}),
])
def test_pinned_crown_maps(spec, expect):
    prof = profile(parse_spec(spec).resolved)
    assert prof.m_exact == expect
    assert prof.min_index == min(expect)
    assert "skipped" not in prof.to_json()


@pytest.mark.parametrize("spec", LATTICE_SPECS)
def test_crown_gen_prob_matches_lattice(spec):
    G = parse_spec(spec).resolved
    F = _flat(G)
    lat = subgroup_classes(F)
    for H in [G, F] if G.product_factors else [G]:
        for k in (1, 2, 3):
            assert crown_gen_prob(H, k) == \
                Fraction(lat.eulerian(k), G.order ** k), (H.name, k)


@pytest.mark.parametrize("spec", LATTICE_SPECS)
def test_min_generators_matches_tuple_count(spec):
    G = parse_spec(spec).resolved
    F = _flat(G)
    d = min_generators(G)
    assert min_generators(F) == d
    lat = subgroup_classes(F)
    assert generating_tuple_count(lat, d - 1) == 0
    assert generating_tuple_count(lat, d) > 0


A5_X_A5 = "perm:10:(1,2,3,4,5);(1,2,3);(6,7,8,9,10);(6,7,8)"


@pytest.mark.parametrize("spec, p2, nu", [
    ("dp:alt:5+alt:5", Fraction(19, 50), 2),
    (A5_X_A5, Fraction(19, 50), 2),
    ("dp:alt:5+alt:5+alt:5", Fraction(323, 1500), 3),
    ("hat:agl:1,8;2", Fraction(872001093663, 8796093022208), 3),
])
def test_gen_prob_and_nu_above_lattice_limit(capsys, spec, p2, nu):
    G = parse_spec(spec).resolved
    assert G.order > DEFAULT_ORDER_LIMIT
    assert gen_prob(G, 2).exact == p2
    assert main(["nu", spec]) == 0
    assert json.loads(capsys.readouterr().out)["nu"] == nu


@pytest.mark.parametrize("k", [3, 4])
def test_tower_profile_builds_no_lattice_and_tests_no_tuple(monkeypatch, k):
    # both towers are solvable, so no primitive group P has a lattice to
    # build either; d comes from the crowns alone
    G = parse_spec(f"lk:sym:4,{k}").resolved

    def forbidden(*args):
        raise AssertionError("called")

    monkeypatch.setattr(maxsub.lattice, "_build_lattice", forbidden)
    for name, module in list(sys.modules.items()):
        if (name.startswith("maxsub")
                and getattr(module, "generates", None)
                is maxsub.group.generates):
            monkeypatch.setattr(module, "generates", forbidden)
    assert profile(G).d == 3


def test_cocycles_refused_above_coset_limit():
    with pytest.raises(LimitExceeded, match="coset limit"):
        cocycle_dim([np.eye(2, dtype=np.int64)], 2, 20001)


def _layouts(max_points, max_order):
    """Block sizes on at most max_points points whose symmetric groups have
    a product of order at most max_order."""
    out = []

    def grow(sizes, room):
        if sizes and prod(factorial(s) for s in sizes) <= max_order:
            out.append(tuple(sizes))
        for s in range(min(sizes[-1] if sizes else room, room), 1, -1):
            grow(sizes + [s], room - s)

    grow([], max_points)
    return out


@st.composite
def _small_group(draw, max_order=48):
    """A group on at most 6 points whose generators permute each block of
    a layout independently."""
    sizes = draw(st.sampled_from(_layouts(6, max_order)))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        images, offset = [], 0
        for s in sizes:
            images += [offset + x for x in draw(st.permutations(range(s)))]
            offset += s
        gens.append(Permutation(np.array(images, dtype=np.int32)))
    return group_from_generators(sum(sizes), gens)


@settings(max_examples=40, deadline=None)
@given(_small_group())
def test_crown_map_matches_brute_force(G):
    assume(G.order <= 24)
    assert profile(G).m_exact == _brute_m_n(G)


@st.composite
def _small_product(draw):
    F1 = draw(_small_group(max_order=12))
    F2 = draw(_small_group(max_order=24 // F1.order))
    return direct_product([F1, F2])[0]


@settings(max_examples=25, deadline=None)
@given(_small_product())
def test_product_crown_map_matches_brute_force(P):
    assert profile(P).m_exact == _brute_m_n(P)


@settings(max_examples=25, deadline=None)
@given(_small_group())
def test_crown_gen_prob_matches_tuple_count(G):
    lat = subgroup_classes(G)
    for k in (1, 2):
        assert crown_gen_prob(G, k) * G.order ** k == \
            generating_tuple_count(lat, k)
