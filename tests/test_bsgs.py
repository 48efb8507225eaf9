import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxsub.bsgs import LimitExceeded, StabilizerChain
from maxsub.perms import Permutation, parse_cycles

from oracles import naive_closure


def chain_of(degree, *cycle_texts, **kw):
    gens = [parse_cycles(t, degree=degree) for t in cycle_texts]
    return StabilizerChain(degree, gens, **kw)


def test_s4_order():
    c = chain_of(4, "(1,2)", "(1,2,3,4)")
    assert c.order == 24


def test_trivial():
    c = StabilizerChain(3, [])
    assert c.order == 1
    assert list(c.iter_elements()) == [Permutation.identity(3)]


def test_membership_matches_naive():
    degree = 5
    gens = [parse_cycles("(1,2,3)", degree=degree),
            parse_cycles("(3,4,5)", degree=degree)]
    c = StabilizerChain(degree, gens)
    els = naive_closure(degree, gens)
    assert c.order == len(els) == 60
    # every element of the closure is a member; a transposition is not
    for p in list(els)[:20]:
        assert c.contains(p)
    assert not c.contains(parse_cycles("(1,2)", degree=degree))


def test_iter_elements_exactly_once():
    c = chain_of(4, "(1,2)", "(1,2,3,4)")
    seen = list(c.iter_elements())
    assert len(seen) == 24
    assert len(set(seen)) == 24


def test_iter_elements_limit():
    c = chain_of(4, "(1,2)", "(1,2,3,4)")
    with pytest.raises(LimitExceeded):
        list(c.iter_elements(limit=10))


def test_known_order_shortcut():
    c = chain_of(6, "(1,2)", "(1,2,3,4,5,6)", known_order=720)
    assert c.order == 720


def test_known_order_mismatch_raises():
    with pytest.raises(ValueError):
        chain_of(4, "(1,2)", known_order=24)


def test_base_prefix_reads_off_stabilizer():
    c = chain_of(5, "(1,2)", "(1,2,3,4,5)", base_prefix=(0,))
    assert c.levels[0].point == 0
    stab_gens = c.stabilizer_suffix(1)
    sub = StabilizerChain(5, stab_gens)
    assert sub.order == 24  # point stabilizer in S5
    assert all(g(0) == 0 for g in stab_gens)


def test_random_element_is_member_and_deterministic():
    c = chain_of(5, "(1,2)", "(1,2,3,4,5)")
    r1 = random.Random(7)
    r2 = random.Random(7)
    seq1 = [c.random_element(r1) for _ in range(10)]
    seq2 = [c.random_element(r2) for _ in range(10)]
    assert seq1 == seq2
    assert all(c.contains(p) for p in seq1)


def test_deterministic_rebuild():
    a = chain_of(6, "(1,2,3)", "(4,5,6)", "(1,4)(2,5)(3,6)")
    b = chain_of(6, "(1,2,3)", "(4,5,6)", "(1,4)(2,5)(3,6)")
    assert a.order == b.order
    assert a.base() == b.base()
    assert [p.key() for p in a.strong_generators()] == \
           [p.key() for p in b.strong_generators()]


def test_bigger_group_against_naive():
    # PSL(2,7)-sized check on 8 points
    degree = 8
    t = Permutation([(x + 1) % 7 if x < 7 else 7 for x in range(8)])
    inv = [7, 6, 3, 2, 5, 4, 1, 0]  # z -> -1/z on GF(7) u {inf}
    s = Permutation(inv)
    c = StabilizerChain(degree, [t, s])
    assert c.order == len(naive_closure(degree, [t, s])) == 168


def test_contains_arr_accepts_int64_identity():
    c = chain_of(5, "(1,2)", "(1,2,3,4,5)")
    assert c.contains_arr(np.arange(5, dtype=np.int64))
    assert not chain_of(5, "(1,2,3)").contains_arr(
        np.array([1, 0, 2, 3, 4], dtype=np.int64))


@st.composite
def _extension_case(draw):
    degree = draw(st.integers(min_value=2, max_value=9))
    perm = st.permutations(list(range(degree))).map(Permutation)
    first = draw(st.lists(perm, min_size=0, max_size=3))
    more = draw(st.lists(perm, min_size=1, max_size=3))
    probes = draw(st.lists(perm, min_size=1, max_size=8))
    return degree, first, more, probes


@settings(max_examples=80, deadline=None)
@given(_extension_case())
def test_extend_matches_fresh_chain_and_sympy(case):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    degree, first, more, probes = case
    extended = StabilizerChain(degree, first)
    extended.extend([p.images for p in more])
    fresh = StabilizerChain(degree, first + more)

    def sympy_perm(p):
        return combinatorics.Permutation(p.images.tolist())

    reference = combinatorics.PermutationGroup(
        [sympy_perm(p) for p in first + more])
    assert extended.order == fresh.order == reference.order()
    for p in probes + first + more:
        expected = reference.contains(sympy_perm(p))
        assert extended.contains(p) == fresh.contains(p) == expected
