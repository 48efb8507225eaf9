"""Statistical acceptance of the exact-uniform sampler and the MC estimator.

Seeded throughout; thresholds follow the stated binomial/chi-square
tolerances, with the chi-square critical value taken from scipy.
"""

import math
import random
from collections import Counter

import pytest

from maxsub.catalog import alt, builtin, cyc, sym
from maxsub.group import direct_product, group_from_generators
from maxsub.probgen import gen_prob_mc


def test_identity_frequency_c2():
    G = cyc(2)
    rng = random.Random(424242)
    n = 100_000
    hits = sum(1 for _ in range(n) if G.uniform_random(rng).is_identity())
    sd = math.sqrt(n * 0.5 * 0.5)
    assert abs(hits - n / 2) <= 3 * sd


def test_chi_square_s3():
    from scipy.stats import chi2
    G = sym(3)
    rng = random.Random(777)
    n = 60_000
    counts = Counter()
    for _ in range(n):
        counts[G.uniform_random(rng).key()] += 1
    expected = n / 6
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    # 5 degrees of freedom, alpha = 0.001
    assert len(counts) == 6
    assert stat <= chi2.ppf(0.999, 5)


@pytest.mark.parametrize("make", [
    lambda: cyc(2), lambda: sym(3), lambda: cyc(6),
    lambda: group_from_generators(4, sym(4).generators),
    lambda: builtin("sl:2,3"),
])
def test_uniformity_five_sigma(make):
    # every element's empirical frequency within 5 sigma of 1/|G|
    G = make()
    assert G.order <= 24
    rng = random.Random(161803)
    n = 100_000
    counts = Counter()
    for _ in range(n):
        counts[G.uniform_random(rng).key()] += 1
    p = 1 / G.order
    sd = math.sqrt(n * p * (1 - p))
    assert len(counts) == G.order
    for c in counts.values():
        assert abs(c - n * p) <= 5 * sd


def test_mc_coverage_a5():
    """200 seeded runs at 10^4 trials each: at least 194 of the 99% CIs
    must cover the exact value 19/30."""
    G = alt(5)
    exact = 19 / 30
    covered = 0
    for seed in range(200):
        r = gen_prob_mc(G, 2, trials=10_000, seed=seed)
        if abs(r.estimate - exact) <= r.ci_halfwidth:
            covered += 1
    assert covered >= 194, f"only {covered}/200 runs covered 19/30"


def test_mc_memo_kept_for_small_groups_only():
    # a warmed memo gives the same estimate as a fresh handle
    A = alt(5)
    for seed in range(3):
        gen_prob_mc(A, 2, trials=500, seed=seed)
    assert ("mc_generates", 2) in A._cache
    assert gen_prob_mc(A, 2, trials=500, seed=7).estimate == \
        gen_prob_mc(alt(5), 2, trials=500, seed=7).estimate
    # |AGL(3,2)|^2 tuples do not fit, so no answer is kept
    G = builtin("agl:3,2")
    gen_prob_mc(G, 2, trials=100, seed=0)
    assert ("mc_generates", 2) not in G._cache
