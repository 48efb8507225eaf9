from fractions import Fraction

import pytest

from maxsub.bsgs import LimitExceeded
from maxsub.catalog import alt, builtin, cyc, dih, sl23, sym
from maxsub.group import is_normal
from maxsub.lattice import (frattini, m_n_map, maximal_subgroups, moebius,
                            subgroup_classes)
from maxsub.perms import parse_cycles
from maxsub.tables import mask_of

from oracles import (naive_closure, naive_maximals, naive_subgroups,
                     subgroup_count)


def test_s4_class_and_subgroup_counts():
    lat = subgroup_classes(sym(4))
    assert len(lat.classes) == 11
    assert subgroup_count(lat) == 30


def test_cp_two_classes():
    for p in (2, 3, 5, 7):
        lat = subgroup_classes(cyc(p))
        assert len(lat.classes) == 2


def test_a5_class_and_subgroup_counts():
    lat = subgroup_classes(alt(5))
    assert len(lat.classes) == 9
    assert subgroup_count(lat) == 59


@pytest.mark.parametrize("make,expect_subs", [
    (lambda: sym(3), 6), (lambda: cyc(12), 6), (lambda: alt(4), 10),
    (lambda: dih(6), 16), (lambda: sl23(), 15),
])
def test_lattice_matches_naive_enumeration(make, expect_subs):
    G = make()
    lat = subgroup_classes(G)
    els = sorted(naive_closure(G.degree, G.generators), key=lambda p: p.key())
    brute = naive_subgroups(G.degree, els)
    assert subgroup_count(lat) == len(brute) == expect_subs
    # same subgroups, not just the same count
    index = {p.images.tobytes(): i for i, p in enumerate(els)}
    brute_masks = set()
    for S in brute:
        brute_masks.add(mask_of(sorted(index[p.images.tobytes()] for p in S),
                                len(els)))
    assert set(lat.all_subgroup_masks()) == brute_masks


def test_refuses_above_limit():
    with pytest.raises(LimitExceeded):
        subgroup_classes(sym(7), order_limit=2000)


def test_maximals_s4():
    G = sym(4)
    recs = maximal_subgroups(G)
    total = sum(r.class_ref.class_size for r in recs)
    assert total == 8
    assert m_n_map(G) == {2: 1, 3: 3, 4: 4}
    for r in recs:
        if r.index == 2:
            assert r.subgroup.order == 12
        assert r.subgroup.order * r.index == 24


def test_maximals_a5():
    assert m_n_map(alt(5)) == {5: 5, 6: 6, 10: 10}


def test_maximals_match_naive_filter():
    for make in (lambda: sym(4), lambda: alt(4), lambda: dih(6), lambda: sl23()):
        G = make()
        els = sorted(naive_closure(G.degree, G.generators),
                     key=lambda p: p.key())
        brute = naive_subgroups(G.degree, els)
        whole = frozenset(els)
        brute_max = naive_maximals(brute, whole)
        recs = maximal_subgroups(G)
        assert sum(r.class_ref.class_size for r in recs) == len(brute_max)


def test_baer_types_s4():
    # S4: A4 (index 2, type 1: socle of S4/1... core=A4, G/A4 = C2),
    # D8 (index 3, core V4, G/V4 = S3 type 1), S3 (index 4, core 1, type 1)
    for r in maximal_subgroups(sym(4)):
        assert r.baer_type == 1


def test_baer_type_2_for_simple():
    for r in maximal_subgroups(alt(5)):
        assert r.baer_type == 2
        assert r.core.order == 1


def test_frattini_s4_trivial():
    assert frattini(sym(4)).order == 1


def test_frattini_c4():
    f = frattini(cyc(4))
    assert f.order == 2


def test_frattini_sl23():
    G = sl23()
    f = frattini(G)
    assert f.order == 2
    assert is_normal(G, f)


def test_frattini_contained_in_maximals():
    G = dih(6)
    f = frattini(G)
    for r in maximal_subgroups(G):
        assert all(r.subgroup.contains(g) for g in f.generators)


def test_moebius_basics():
    G = sym(4)
    lat = subgroup_classes(G)
    mu = lat.moebius()
    assert mu[lat.whole.key] == 1
    trivial = lat.classes[0]
    assert trivial.order == 1
    lat5 = subgroup_classes(cyc(5))
    mu5 = lat5.moebius()
    assert mu5[lat5.classes[0].key] == -1


def test_moebius_counts_generating_pairs_s4():
    # Sum over subgroups of mu(H,G)|H|^2 must equal the number of
    # generating ordered pairs, counted by brute force over all 576 pairs
    G = sym(4)
    lat = subgroup_classes(G)
    els = G.elements()
    brute = 0
    for a in els:
        for b in els:
            if len(naive_closure(4, [a, b])) == 24:
                brute += 1
    assert lat.eulerian(2) == brute
    assert Fraction(lat.eulerian(2), 24 ** 2) == Fraction(brute, 576)


def test_agl18_lattice():
    G = builtin("agl:1,8")
    lat = subgroup_classes(G)
    # AGL(1,8) = 2^3:7 Frobenius: subgroups are 1, C2 (7), V4 (7), 2^3,
    # C7 (8), F56: 6 classes, 24 subgroups
    assert len(lat.classes) == 6
    assert subgroup_count(lat) == 1 + 7 + 7 + 1 + 8 + 1
    # the Sylow 2-subgroup is normal and the unique index-7 maximal
    assert m_n_map(G) == {7: 1, 8: 8}
