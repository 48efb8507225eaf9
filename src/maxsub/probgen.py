"""Generation probabilities, Eulerian counts and the random-generation
threshold invariant.

Exact counts go through Moebius inversion over the subgroup lattice of G
at or below the lattice limit, and through the crown factorization of
P_G(k) above it; probabilities are exact rationals.  The
1/e threshold is compared against a rational enclosure of e tightened
until the comparison is decisive, so no floating point enters the
decision.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .group import generates
from .lattice import DEFAULT_ORDER_LIMIT, subgroup_classes

MC_MEMO_BYTES = 16 * 2**20  # a tuple memo is kept only if every k-tuple fits
MC_STREAMS = 4              # trials are split over this many seeded streams
Z99 = 2.5758293035489004   # two-sided 99% normal quantile


class GenProbResult:
    __slots__ = ("k", "exact", "estimate", "trials", "ci_halfwidth", "seed")

    def __init__(self, k, exact=None, estimate=None, trials=0,
                 ci_halfwidth=0.0, seed=None):
        self.k = k
        self.exact = exact
        self.estimate = estimate
        self.trials = trials
        self.ci_halfwidth = ci_halfwidth
        self.seed = seed

    def to_json(self):
        out = {"k": self.k, "trials": self.trials}
        if self.exact is not None:
            out["exact"] = {"numerator": str(self.exact.numerator),
                            "denominator": str(self.exact.denominator)}
            out["value"] = float(self.exact)
        if self.estimate is not None:
            out["estimate"] = self.estimate
            out["ci_halfwidth"] = self.ci_halfwidth
            out["seed"] = self.seed
        return out


def phi(G, d, lattice_limit=DEFAULT_ORDER_LIMIT):
    """Exact number of generating ordered d-tuples.

    At or below the lattice limit this is Moebius inversion over the
    subgroup lattice of G, sum over H of mu(H, G) |H|^d.  Above it, it is
    P_G(d) |G|^d, with P_G(d) the product over the crowns of G of
    Pi_{i<delta} f_i(d): f_i = 1 - z q^i / |A|^d for an abelian crown A
    and f_i = P_{P,N}(d) - i a(P) / |N|^d for a non-abelian one with
    primitive group P and socle N (Dalla Volta and Lucchini, J. Austral.
    Math. Soc. 64 (1998); Detomi and Lucchini, J. Algebra 265 (2003);
    see `invariants.CrownData`).  That route reads only the lattices of
    the groups P, and refuses when one is above the lattice limit."""
    if d < 0:
        raise ValueError("tuple arity must be nonnegative")
    if d == 0:
        return 1 if G.order == 1 else 0
    if G.order <= lattice_limit:
        return subgroup_classes(G, lattice_limit).eulerian(d)
    # invariants imports constructions, which imports this module
    from .invariants import crown_gen_prob
    count = crown_gen_prob(G, d, lattice_limit=lattice_limit) * G.order ** d
    if count.denominator != 1:
        raise RuntimeError("crown factorization gave a fractional count")
    return count.numerator


def gen_prob(G, k, lattice_limit=DEFAULT_ORDER_LIMIT):
    """Exact probability that k uniform random elements generate G."""
    if k == 0:
        exact = Fraction(1) if G.order == 1 else Fraction(0)
        return GenProbResult(0, exact=exact)
    count = phi(G, k, lattice_limit)
    return GenProbResult(k, exact=Fraction(count, G.order ** k))


def gen_prob_mc(G, k, trials, seed):
    """Monte-Carlo estimate; deterministic for (seed, trials).

    The trials are split evenly over MC_STREAMS random streams, each with
    its own seed derived from `seed`, and run one stream after another.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    hits = 0
    base = trials // MC_STREAMS
    extra = trials % MC_STREAMS
    memo = _tuple_memo(G, k)
    for w in range(MC_STREAMS):
        share = base + (1 if w < extra else 0)
        rng = random.Random(seed * 1_000_003 + w * 7919 + 1)
        for _ in range(share):
            tup = [G.uniform_random(rng) for _ in range(k)]
            if memo is None:
                ok = generates(G, tup)
            else:
                key = tuple(p.images.tobytes() for p in tup)
                ok = memo.get(key)
                if ok is None:
                    ok = memo[key] = generates(G, tup)
            if ok:
                hits += 1
    p = hits / trials
    half = Z99 * math.sqrt(max(p * (1 - p), 1e-12) / trials)
    return GenProbResult(k, estimate=p, trials=trials, ci_halfwidth=half,
                         seed=seed)


def _tuple_memo(G, k):
    """Answers of `generates` kept on the handle, or None.

    Whether a tuple generates depends on the tuple alone.  A small group
    draws the same tuples again and again; a large one almost never does,
    so the memo is kept only when the answers for all |G|^k tuples fit in
    MC_MEMO_BYTES (an entry is k arrays of 4-byte points plus about 100
    bytes of key, tuple and dict overhead).
    """
    entry = k * (G.degree * 4 + 40) + 100
    if G.order ** k * entry > MC_MEMO_BYTES:
        return None
    return G._cache.setdefault(("mc_generates", k), {})


# -- the 1/e threshold ---------------------------------------------------------

def _e_enclosure(terms):
    lo = Fraction(0)
    fact = 1
    for i in range(terms + 1):
        if i > 0:
            fact *= i
        lo += Fraction(1, fact)
    hi = lo + Fraction(2, fact * (terms + 1))
    return lo, hi


def at_least_one_over_e(p):
    """Exact comparison p >= 1/e for a rational p."""
    terms = 30
    while True:
        lo, hi = _e_enclosure(terms)
        if p * lo >= 1:
            return True
        if p * hi < 1:
            return False
        terms += 10
        if terms > 500:
            raise RuntimeError("1/e comparison did not become decisive")


class NuBracket:
    """MC answer when the confidence interval straddles the threshold."""

    __slots__ = ("low", "high")

    def __init__(self, low, high):
        self.low = low
        self.high = high

    def __repr__(self):
        return f"<nu in {{{self.low}, {self.high}}} (CI straddles 1/e)>"


def nu(G, mode="exact", lattice_limit=DEFAULT_ORDER_LIMIT,
       trials=20000, seed=1):
    """Least k such that k random elements generate with probability >= 1/e."""
    if G.order == 1:
        return 0
    if mode == "exact":
        k = 1
        while True:
            p = gen_prob(G, k, lattice_limit).exact
            if p > 0 and at_least_one_over_e(p):
                return k
            k += 1
            if k > 64:
                raise RuntimeError("nu search ran away")
    if mode == "mc":
        k = 1
        threshold = 1 / math.e
        while True:
            r = gen_prob_mc(G, k, trials, seed)
            lo = r.estimate - r.ci_halfwidth
            hi = r.estimate + r.ci_halfwidth
            if lo > threshold:
                return k
            if hi < threshold:
                k += 1
                if k > 64:
                    raise RuntimeError("nu search ran away")
                continue
            # the interval straddles 1/e: report both candidates, never a
            # silent pick
            return NuBracket(k, k + 1)
    raise ValueError(f"unknown mode {mode!r}")
