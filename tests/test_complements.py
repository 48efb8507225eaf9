"""The linear complement count against the tuple search and a subgroup
sweep, its refusals, and the stabilizer chains it does not build."""

import time

import pytest
from hypothesis import assume, given, settings

from maxsub.bsgs import LimitExceeded, StabilizerChain
from maxsub.catalog import alt
from maxsub.cli import parse_spec
from maxsub.group import group_from_generators
from maxsub.structure import (chief_series, complement_solution_count,
                              describe_factor, ensure_factor_flags)

from oracles import (naive_closure, naive_complement_solution_count,
                     naive_subgroups)
from test_crowns import _small_group

COUNT_SPECS = [
    "sym:4", "sym:3", "agl:3,2", "lk:sym:4,3", "lk:sym:4,2", "agl:1,8",
    "agammal:1,8", "sl:2,3", "dih:8", "cyc:12", "dp:sym:3+sym:3",
    "dp:sym:3+sym:3+sym:3", "dp:sym:4+sym:4", "dp:sym:3+cyc:2",
]


def _abelian_factors(G):
    return [d for d in chief_series(G) if d.abelian]


@pytest.mark.parametrize("spec", COUNT_SPECS)
def test_linear_count_matches_tuple_search(spec):
    G = parse_spec(spec).resolved
    for d in _abelian_factors(G):
        H, K = d.section.upper, d.section.lower
        expect = naive_complement_solution_count(G, H, K)
        assert complement_solution_count(G, H, K, d.space) == expect, d
        assert complement_solution_count(G, H, K) == expect, d


@settings(max_examples=40, deadline=None)
@given(_small_group())
def test_linear_count_matches_subgroup_sweep(G):
    """Complements of H/K in G/K are the subgroups Y >= K with
    Y meet H = K and |Y| = |G| / |H:K|."""
    assume(G.order <= 24)
    els = naive_closure(G.degree, G.generators)
    subs = naive_subgroups(G.degree, els)
    for d in _abelian_factors(G):
        H = frozenset(naive_closure(G.degree, d.section.upper.generators))
        K = frozenset(naive_closure(G.degree, d.section.lower.generators))
        size = len(els) * len(K) // len(H)
        expect = sum(1 for Y in subs
                     if len(Y) == size and K <= Y and Y & H == K)
        assert complement_solution_count(
            G, d.section.upper, d.section.lower, d.space) == expect, d


def test_factor_flags_build_no_chain(monkeypatch):
    L = parse_spec("lk:sym:4,3").resolved
    G = group_from_generators(L.degree, L.generators)
    facs = chief_series(G)
    built = []
    init = StabilizerChain.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counted)
    for d in facs:
        ensure_factor_flags(G, d)
    assert [d.complemented for d in facs if d.abelian] == [True] * 5
    assert len(built) == 0


def test_factor_action_refused_above_coset_limit():
    G = alt(8)
    start = time.perf_counter()
    with pytest.raises(LimitExceeded, match="coset limit"):
        describe_factor(G, G, G.subgroup([], known_order=1))
    assert time.perf_counter() - start < 1
