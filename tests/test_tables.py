"""Element tables against the brute-force oracles: the Cayley-graph fill of
the multiplication table, the wave closure and the lattice's vectorized
normalizer and centralizer tests."""

import random
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxsub.catalog import builtin
from maxsub.cli import parse_spec
from maxsub.group import group_from_generators
from maxsub.lattice import _normalizers_outside, subgroup_classes
from maxsub.perms import Permutation
from maxsub.tables import ElementTable

from oracles import naive_index_closure, naive_mult_table, naive_normalizers_outside

NAMED = ["sym:4", "alt:5", "psl:2,7", "agl:1,8", "agammal:1,8", "sym:6",
         "agl:3,2", "dih:8", "sl:2,3", "lk:sym:4,2"]


def _table(spec):
    return ElementTable(parse_spec(spec).resolved)


def _assert_table_matches_oracles(t, subsets):
    assert np.array_equal(t.mult, naive_mult_table(t))
    assert t.mult.dtype == np.int16
    for gens in subsets:
        got = t.closure(gens)
        assert got.dtype == np.int16
        assert got.tolist() == naive_index_closure(t, gens)


@pytest.mark.parametrize("spec", NAMED)
def test_named_tables_match_oracles(spec):
    t = _table(spec)
    rng = random.Random(spec)
    subsets = [t.gen_indices, [], [t.identity_index]]
    subsets += [rng.sample(range(t.n), rng.randint(1, 3)) for _ in range(6)]
    _assert_table_matches_oracles(t, subsets)
    assert t.closure(t.gen_indices).tolist() == list(range(t.n))


def _block_layouts(max_degree=9, max_order=720):
    """Block sizes (at most 6 points each) whose symmetric groups multiply
    to at most max_order; generators permute each block independently."""
    out = []

    def grow(sizes, room):
        if sizes and prod(factorial(s) for s in sizes) <= max_order:
            out.append(tuple(sizes))
        for s in range(sizes[-1] if sizes else 6, 0, -1):
            if s <= room:
                grow(sizes + [s], room - s)

    grow([], max_degree)
    return out


@st.composite
def _blocked_group(draw):
    sizes = draw(st.sampled_from(_block_layouts()))
    degree = sum(sizes)
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        images, offset = [], 0
        for s in sizes:
            images += [offset + x for x in draw(st.permutations(range(s)))]
            offset += s
        gens.append(Permutation(np.array(images, dtype=np.int32)))
    return group_from_generators(degree, gens)


@settings(max_examples=40, deadline=None)
@given(_blocked_group(), st.data())
def test_random_tables_match_oracles(G, data):
    t = ElementTable(G)
    index = st.integers(min_value=0, max_value=t.n - 1)
    subsets = [t.gen_indices]
    subsets += [data.draw(st.lists(index, max_size=3)) for _ in range(3)]
    _assert_table_matches_oracles(t, subsets)


@pytest.mark.parametrize("spec", ["sym:4", "agl:3,2"])
def test_normalizer_and_centralizer_masks_match_scalar_loop(spec):
    G = builtin(spec)
    lat = subgroup_classes(G)
    t = lat.table
    for c in lat.classes:
        gens = [int(g) for g in c.gens]
        mask = _normalizers_outside(t, c.rep_indices, gens)
        assert np.nonzero(mask)[0].tolist() == \
            naive_normalizers_outside(t, c.rep_indices, gens)
    for a, _ in t.conjugacy_classes():
        cz = np.nonzero(t.conjugates(a) == a)[0].tolist()
        assert cz == [x for x in range(t.n) if t.conj(a, x) == a]


def test_block_layouts_reach_nine_points():
    layouts = _block_layouts()
    assert {(6,), (5, 3), (3, 3, 3), (4, 3, 2)} <= set(layouts)
    assert (6, 3) not in layouts
