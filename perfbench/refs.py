"""Reference values computed without `maxsub`.

* `SmallGroup`: brute force for groups of at most `BRUTE_MAX_ORDER`
  elements.  It closes the generators into an element list, enumerates
  every subgroup by cyclic extension (each subgroup is <H, g> for a smaller
  subgroup H), and reads off the maximal subgroups, the counts m_n and the
  exact probabilities P_G(k) from tuple counts.
* `ATLAS_M_N`: published maximal-subgroup counts of the larger simple and
  symmetric groups of the benchmark.
* `sympy_order`: the order from `sympy.combinatorics`.
* `at_least_one_over_e`: an exact comparison of a fraction with 1/e.

Regenerate the stored ATLAS counts by brute force (about 30 s):

    python3 perfbench/refs.py alt:6 sym:6
"""

from collections import Counter
from fractions import Fraction
from math import factorial

BRUTE_MAX_ORDER = 168

# m_n of A6 and S6 = A6.2_1 by index, from the ATLAS of Finite Groups
# (Conway, Curtis, Norton, Parker, Wilson; Oxford 1985), p. 4:
# A6: A5 (two classes of 6), 3^2:4 (10), S4 (two classes of 15);
# S6: A6 (1), S5 (two classes of 6), 3^2:D8 (10), S4x2 (two classes of 15).
ATLAS_M_N = {
    "alt:6": {6: 12, 10: 10, 15: 30},
    "sym:6": {2: 1, 6: 12, 10: 10, 15: 30},
}

# orders of the builtin specs from their closed forms
CLOSED_FORM_ORDER = {
    "sym:4": factorial(4), "sym:5": factorial(5), "sym:6": factorial(6),
    "alt:5": factorial(5) // 2, "alt:6": factorial(6) // 2,
    "psl:2,7": 7 * (7 ** 2 - 1) // 2,            # q(q^2-1)/gcd(2,q-1)
    "agammal:1,8": 8 * 7 * 3,                    # q(q-1)e for q = 2^e
    "agl:3,2": 2 ** 3 * (8 - 1) * (8 - 2) * (8 - 4),   # 2^3 |GL(3,2)|
}


class SmallGroup:
    """Brute-force subgroup data of a small permutation group."""

    def __init__(self, degree, generators, max_order=BRUTE_MAX_ORDER):
        ident = tuple(range(degree))
        els, index = [ident], {ident: 0}
        gens = [tuple(g) for g in generators]
        for x in els:
            for g in gens:
                y = tuple(g[p] for p in x)
                if y not in index:
                    if len(els) >= max_order:
                        raise ValueError("group too large for brute force")
                    index[y] = len(els)
                    els.append(y)
        self.order = len(els)
        self.mult = [[index[tuple(b[p] for p in a)] for b in els]
                     for a in els]
        self.maximal = self._maximal_subgroups(self._all_subgroups())

    def _all_subgroups(self):
        n, mult = self.order, self.mult
        subgroups = {1: []}          # bitmask (identity is element 0) -> gens
        queue = [1]
        for H in queue:
            members = [i for i in range(n) if H >> i & 1]
            done = H
            for g in range(n):
                if done >> g & 1:
                    continue
                for h in members:            # <H, g> = <H, hg>
                    done |= 1 << mult[h][g]
                gens = subgroups[H] + [g]
                K, frontier = 1, [0]
                for x in frontier:
                    for s in gens:
                        y = mult[x][s]
                        if not K >> y & 1:
                            K |= 1 << y
                            frontier.append(y)
                if K not in subgroups:
                    subgroups[K] = gens
                    queue.append(K)
        return list(subgroups)

    def _maximal_subgroups(self, subgroups):
        full = (1 << self.order) - 1
        proper = [H for H in subgroups if H != full]
        return [H for H in proper
                if not any(K != H and K & H == H for K in proper)]

    def m_n(self):
        return dict(Counter(self.order // bin(H).count("1")
                            for H in self.maximal))

    def gen_prob(self, k):
        """Exact P_G(k): a k-tuple generates iff no maximal contains it all."""
        if self.order == 1:
            return Fraction(1)
        member = Counter()
        for x in range(self.order):
            member[sum(1 << j for j, H in enumerate(self.maximal)
                       if H >> x & 1)] += 1
        tuples = Counter({(1 << len(self.maximal)) - 1: 1})
        for _ in range(k):
            nxt = Counter()
            for a, ca in tuples.items():
                for b, cb in member.items():
                    nxt[a & b] += ca * cb
            tuples = nxt
        return Fraction(tuples[0], self.order ** k)


def at_least_one_over_e(p):
    """p >= 1/e, decided exactly with rational bounds lo < e < hi."""
    lo, term, i = Fraction(0), Fraction(1), 0
    while True:
        lo += term
        i += 1
        term /= i
        hi = lo + 2 * term     # the tail of sum 1/j! is below 2/i!
        if p * lo >= 1:
            return True
        if p * hi < 1:
            return False


def sympy_order(degree, generators):
    from sympy.combinatorics import Permutation, PermutationGroup
    return int(PermutationGroup([Permutation(list(g), size=degree)
                                 for g in generators]).order())


def _regenerate(specs):
    """Brute-force m_n for specs above BRUTE_MAX_ORDER (slow)."""
    from maxsub.cli import parse_spec
    for spec in specs:
        G = parse_spec(spec).resolved
        ref = SmallGroup(G.degree, [g.images.tolist() for g in G.generators],
                         max_order=10 ** 4)
        print(spec, dict(sorted(ref.m_n().items())))


if __name__ == "__main__":
    import os
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    _regenerate(sys.argv[1:])
