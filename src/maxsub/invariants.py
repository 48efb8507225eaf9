"""Invariant profiles: every quantity the bound machinery consumes.

A profile is exact integer data throughout; logarithms only appear in the
bounds module.  Fields that a budget prevented from being computed carry an
entry in `skipped` instead of a guessed value.

Direct and subdirect products assemble their profiles from the factor
profiles after cross-factor isomorphism and connectedness checks; this is
how the large constructed groups are analyzed without ever enumerating
their subgroups.
"""

from __future__ import annotations

import math
import random

from .bsgs import LimitExceeded
from .group import (derived_subgroup, direct_product, generates, is_abelian,
                    small_generating_set)
from .lattice import (DEFAULT_ORDER_LIMIT, m_n_map, maximal_subgroups,
                      subgroup_classes)
from .simptable import is_prime
from .structure import (_conjugacy_class_reps, _conjugation_orbit_reps,
                        _has_diagonal_corefree_maximal, chief_series, crowns,
                        ensure_factor_flags)

MIN_GEN_ELEMENT_BUDGET = 8192
RANDOM_ACCEPT_TRIALS = 40


class InvariantProfile:
    FIELDS = ("order", "d", "min_index", "lambda_", "cr_ab", "rks", "rko",
              "rkm", "s", "rk_iso", "m_exact", "script_M")

    def __init__(self):
        self.order = None
        self.d = None
        self.min_index = None
        self.lambda_ = None
        self.cr_ab = {}
        self.rks = {}
        self.rko = {}
        self.rkm = {}
        self.s = {}
        self.rk_iso = {}
        self.m_exact = None
        self.script_M = None         # (value, witness_n) or "-inf"
        # supplementary exact data used by the bound evaluators
        self.ab = {}                 # order -> count of abelian chief factors
        self.r = None                # chief series length
        self.r_a = None
        self.r_b = None
        self.central_crowns = {}     # order -> number of central abelian crowns
        self.rks_rko_overlap = {}    # n -> factors of order n also counted in rks_n
        self.skipped = {}

    def to_json(self):
        def clean_map(m):
            return {str(k): v for k, v in sorted(m.items())}

        out = {
            "order": str(self.order),
            "d": self.d,
            "min_index": self.min_index,
            "lambda": self.lambda_,
            "cr_ab": clean_map(self.cr_ab),
            "rks": clean_map(self.rks),
            "rko": clean_map(self.rko),
            "rkm": clean_map(self.rkm),
            "s": clean_map(self.s),
            "rk_iso": {k: v for k, v in sorted(self.rk_iso.items())},
            "m_exact": clean_map(self.m_exact) if self.m_exact is not None else None,
            "script_M": (self.script_M if isinstance(self.script_M, str)
                         else (None if self.script_M is None
                               else {"value": self.script_M[0],
                                     "witness_n": self.script_M[1]})),
            "ab": clean_map(self.ab),
            "r": self.r,
            "r_a": self.r_a,
            "r_b": self.r_b,
        }
        if self.skipped:
            out["skipped"] = dict(sorted(self.skipped.items()))
        return out


class MinGenResult:
    __slots__ = ("value", "lower", "upper", "certified")

    def __init__(self, value, lower, upper, certified):
        self.value = value
        self.lower = lower
        self.upper = upper
        self.certified = certified

    def __repr__(self):
        if self.certified:
            return f"<d = {self.value}>"
        return f"<d in [{self.lower}, {self.upper}] (uncertified)>"


def min_generators(G, seed=0, lattice_limit=DEFAULT_ORDER_LIMIT):
    """Exact minimal number of generators where certifiable.

    Random fast-accept for the upper bound, then certification: cyclicity
    by element orders, non-2-generation by an exhaustive scan over
    (class representative, centralizer-orbit) pairs.  A cached subgroup
    lattice answers by Moebius positivity directly; it is built on demand
    only for small orders, since 2-group-heavy lattices are far more
    expensive than the scan routes."""
    if G.order == 1:
        return MinGenResult(0, 0, 0, True)
    if len(G.generators) == 2 and not is_abelian(G):
        # two generators bound d from above, non-cyclic bounds it from below
        return MinGenResult(2, 2, 2, True)
    if "lattice" in G._cache or G.order <= 600:
        if G.order <= lattice_limit:
            lat = subgroup_classes(G, lattice_limit)
            k = 1
            while lat.eulerian(k) <= 0:
                k += 1
            return MinGenResult(k, k, k, True)
    rng = random.Random(seed * 7919 + 11)
    if _cyclic_within_budget(G):
        return MinGenResult(1, 1, 1, True)
    certified_lower = 2
    upper = None
    k = 2
    while upper is None:
        for _ in range(RANDOM_ACCEPT_TRIALS):
            tup = [G.uniform_random(rng) for _ in range(k)]
            if generates(G, tup):
                upper = k
                break
        if upper is None:
            k += 1
            if k > 12:
                return MinGenResult(None, certified_lower, None, False)
    if upper == certified_lower:
        return MinGenResult(upper, upper, upper, True)
    if upper - 1 == 2 and G.order <= MIN_GEN_ELEMENT_BUDGET:
        if not _any_pair_generates(G):
            return MinGenResult(upper, upper, upper, True)
        raise RuntimeError("pair scan contradicts random search")
    return MinGenResult(upper, certified_lower, upper, False)


def _cyclic_within_budget(G):
    if G.order > MIN_GEN_ELEMENT_BUDGET:
        # a huge group is cyclic only if abelian, and an abelian group is
        # cyclic exactly when its exponent equals its order
        if not is_abelian(G):
            return False
        exponent = math.lcm(*[g.order() for g in G.generators]) \
            if G.generators else 1
        return exponent == G.order
    return any(rep.order() == G.order
               for rep in _conjugacy_class_reps(G, MIN_GEN_ELEMENT_BUDGET))


def _any_pair_generates(G):
    """Exhaustive 2-generation test over (class representative, element up
    to centralizer conjugacy) pairs."""
    els = G.elements(limit=MIN_GEN_ELEMENT_BUDGET)
    for a in _conjugacy_class_reps(G, MIN_GEN_ELEMENT_BUDGET):
        # orbits of the centralizer of a by conjugation cover the pairs (a, b)
        cz = [x for x in els if (x * a) == (a * x)]
        cz_small = small_generating_set(
            G.degree, sorted(cz, key=lambda q: -q.order()), len(cz))
        if any(generates(G, [a, b])
               for b in _conjugation_orbit_reps(els, cz_small)):
            return True
    return False


# -- profile ------------------------------------------------------------------

def profile(G, seed=0, lattice_limit=DEFAULT_ORDER_LIMIT):
    """Full invariant profile of a handle (assembled for products)."""
    key = ("profile", seed, lattice_limit)
    got = G._cache.get(key)
    if got is not None:
        return got
    if G.product_factors:
        prof = _assemble_product_profile(G, seed, lattice_limit)
        G._cache[key] = prof
        return prof
    prof = InvariantProfile()
    prof.order = G.order
    facs = chief_series(G, seed=seed)
    for d in facs:
        ensure_factor_flags(G, d)
    cs = crowns(G, seed=seed)
    prof.r = len(facs)
    prof.r_a = sum(1 for d in facs if d.abelian)
    prof.r_b = prof.r - prof.r_a
    prof.lambda_ = sum(1 for d in facs if d.frattini is False)
    if any(d.frattini is None for d in facs):
        prof.skipped["lambda"] = "some Frattini flags undecided"
        prof.lambda_ = None
    for d in facs:
        if d.abelian:
            prof.ab[d.order] = prof.ab.get(d.order, 0) + 1
        else:
            prof.rko[d.order] = prof.rko.get(d.order, 0) + 1
    for c in cs:
        if c.abelian:
            prof.cr_ab[c.order] = prof.cr_ab.get(c.order, 0) + 1
            if _crown_is_central(c):
                prof.central_crowns[c.order] = \
                    prof.central_crowns.get(c.order, 0) + 1
        else:
            prof.s[c.order] = prof.s.get(c.order, 0) + 1
            prof.rkm[c.order] = max(prof.rkm.get(c.order, 0), c.length)
    # rks and rk_iso per non-abelian factor
    for d in facs:
        if d.abelian:
            continue
        label = d.simple_id if d.copies == 1 else f"{d.simple_id}^{d.copies}"
        prof.rk_iso[label] = prof.rk_iso.get(label, 0) + 1
        indices = _corefree_maximal_indices(d, lattice_limit)
        for n in indices:
            prof.rks[n] = prof.rks.get(n, 0) + 1
        if d.order in indices:
            prof.rks_rko_overlap[d.order] = \
                prof.rks_rko_overlap.get(d.order, 0) + 1
    mg = min_generators(G, seed=seed, lattice_limit=lattice_limit)
    if mg.certified:
        prof.d = mg.value
    else:
        prof.skipped["d"] = f"bracket [{mg.lower}, {mg.upper}]"
        prof.d = mg.upper
    if G.order <= lattice_limit:
        prof.m_exact = m_n_map(G, lattice_limit)
        lat = subgroup_classes(G, lattice_limit)
        proper = [c for c in lat.classes if c.order < G.order]
        prof.min_index = min(G.order // c.order for c in proper) if proper else None
        prof.script_M = _script_m_from_map(prof.m_exact)
    else:
        prof.m_exact = _partial_m_exact(G, prof)
        prof.skipped["m_exact"] = \
            "normal-count route only (no subgroup lattice at this order)"
        prof.skipped["script_M"] = "exact m_n map unavailable at this order"
        prof.min_index = _min_index_from_profile(prof)
        if prof.min_index is None:
            prof.skipped["min_index"] = "no certified maximal index data"
    G._cache[key] = prof
    return prof


def _crown_is_central(c):
    import numpy as np
    d = c.factor_class
    dim = d.dim
    for M in d.space.gen_matrices:
        if not np.array_equal(M % d.prime, np.eye(dim, dtype=M.dtype) % d.prime):
            return False
    return True


def _corefree_maximal_indices(d, lattice_limit):
    """Indices of core-free maximal subgroups of the primitive group
    attached to a non-abelian chief factor (refused above the lattice
    limit: the bounds would read the missing rks as 0)."""
    P = d.factor_action.primitive
    if P.order > lattice_limit:
        raise LimitExceeded(
            f"rks needs the subgroup lattice of a primitive quotient of "
            f"order {P.order}, above the lattice limit {lattice_limit}")
    out = set()
    for rec in maximal_subgroups(P, lattice_limit):
        if rec.core.order == 1:
            out.add(rec.index)
    return sorted(out)


def _script_m_from_map(m_map):
    if not m_map:
        return "-inf"
    best = None
    for n, m in m_map.items():
        if n < 2 or m <= 0:
            continue
        val = math.log(m) / math.log(n)
        if best is None or val > best[0] + 1e-15:
            best = (val, n)
    return best if best else "-inf"


def _abelianization_p_rank(G, p):
    """Rank of G/(G' G^p) over GF(p)."""
    D = derived_subgroup(G)
    gens = list(D.generators) + [g ** p for g in G.generators]
    X = G.subgroup(gens)
    X.chain
    quotient = G.order // X.order
    k = 0
    while quotient % p == 0:
        quotient //= p
        k += 1
    if quotient != 1:
        raise RuntimeError("abelianization power subgroup has bad index")
    return k


def _partial_m_exact(G, prof):
    """m_p for primes p where every index-p maximal is provably normal:
    p prime, rks_p = 0, and every order-p crown is central."""
    out = {}
    for p in sorted(set(prof.ab) | set(prof.cr_ab)):
        if not is_prime(p):
            continue
        if prof.rks.get(p, 0):
            continue
        if prof.cr_ab.get(p, 0) != prof.central_crowns.get(p, 0):
            continue
        if prof.cr_ab.get(p, 0) == 0:
            continue
        k = _abelianization_p_rank(G, p)
        if k:
            out[p] = (p ** k - 1) // (p - 1)
    return out


def _min_index_from_profile(prof):
    candidates = []
    candidates.extend(n for n, c in prof.cr_ab.items() if c > 0)
    candidates.extend(n for n, c in prof.rks.items() if c > 0)
    candidates.extend(n for n, c in prof.s.items()
                      if c > 0 and prof.rkm.get(n, 0) >= 2)
    return min(candidates) if candidates else None


def _partial_m_exact_product(G, profs, out):
    """Normal-count m_p route on an assembled product profile: the p-ranks
    of the factor abelianizations add."""
    res = {}
    for p in sorted(set(out.ab)):
        if not is_prime(p):
            continue
        if out.rks.get(p, 0):
            continue
        if out.cr_ab.get(p, 0) == 0:
            continue
        if out.cr_ab.get(p, 0) != out.central_crowns.get(p, 0):
            continue
        k = sum(_abelianization_p_rank(F, p) for F, _ in G.product_factors)
        if k:
            res[p] = (p ** k - 1) // (p - 1)
    return res


# -- assembled profiles for (sub)direct products --------------------------------

def _assemble_product_profile(G, seed, lattice_limit):
    factors = [F for F, _ in G.product_factors]
    profs = [profile(F, seed=seed, lattice_limit=lattice_limit)
             for F in factors]
    out = InvariantProfile()
    out.order = G.order
    out.r = sum(p.r for p in profs)
    out.r_a = sum(p.r_a for p in profs)
    out.r_b = sum(p.r_b for p in profs)
    out.lambda_ = (sum(p.lambda_ for p in profs)
                   if all(p.lambda_ is not None for p in profs) else None)
    for p in profs:
        for n, c in p.ab.items():
            out.ab[n] = out.ab.get(n, 0) + c
        for n, c in p.rko.items():
            out.rko[n] = out.rko.get(n, 0) + c
        for n, c in p.rks.items():
            out.rks[n] = out.rks.get(n, 0) + c
        for lbl, c in p.rk_iso.items():
            out.rk_iso[lbl] = out.rk_iso.get(lbl, 0) + c
        for n, c in p.rks_rko_overlap.items():
            out.rks_rko_overlap[n] = out.rks_rko_overlap.get(n, 0) + c
    # cross-factor merging of abelian crowns: only central crowns of equal
    # order can be isomorphic across distinct direct factors (a noncentral
    # action has different kernels in different components)
    central = {}
    for p in profs:
        for n, c in p.central_crowns.items():
            central.setdefault(n, []).append(c)
        for n, c in p.cr_ab.items():
            out.cr_ab[n] = out.cr_ab.get(n, 0) + c
    for n, counts in central.items():
        if len(counts) > 1:
            # the central order-n crowns of all factors merge into one class
            merge = sum(counts) - 1
            out.cr_ab[n] -= merge
            out.central_crowns[n] = 1
        else:
            out.central_crowns[n] = counts[0]
    # non-abelian crowns: factor crowns merge when a type-3 link exists
    merged = _merge_nonabelian_crowns(factors, seed)
    for n, lengths in merged.items():
        out.s[n] = len(lengths)
        out.rkm[n] = max(lengths)
    # d: the handle's own generators bound d from above
    dgen = len(G.generators)
    mg_vals = [p.d for p in profs if p.d is not None]
    lower = max(mg_vals) if mg_vals else 1
    if dgen <= lower:
        out.d = lower
    else:
        mg = min_generators(G, seed=seed, lattice_limit=lattice_limit)
        if mg.certified:
            out.d = mg.value
        else:
            # as in `profile`: d is the upper end of the bracket
            upper = dgen if mg.upper is None else min(dgen, mg.upper)
            out.d = upper
            out.skipped["d"] = (f"bracket [{max(lower, mg.lower)}, {upper}] "
                                "(product d not certified)")
    mins = [p.min_index for p in profs if p.min_index is not None]
    out.min_index = min(mins) if mins else None
    out.m_exact = _partial_m_exact_product(G, profs, out)
    out.skipped["m_exact"] = "normal-count route only (assembled profile)"
    out.skipped["script_M"] = "exact m_n map unavailable (assembled profile)"
    return out


def _merge_nonabelian_crowns(factors, seed):
    """Crown lengths per order after linking across direct factors."""
    entries = []   # (factor index, crown, primitive group builder)
    for fi, F in enumerate(factors):
        for c in crowns(F, seed=seed):
            if not c.abelian:
                entries.append((fi, c))
    merged = {}
    used = [False] * len(entries)
    for i, (fi, ci) in enumerate(entries):
        if used[i]:
            continue
        used[i] = True
        lengths = ci.length
        for j in range(i + 1, len(entries)):
            fj, cj = entries[j]
            if used[j] or cj.order != ci.order:
                continue
            if fi == fj:
                continue  # same factor: already distinct crowns
            if _cross_factor_connected(factors[fi], ci, factors[fj], cj):
                lengths += cj.length
                used[j] = True
        merged.setdefault(ci.order, []).append(lengths)
    return merged


def _cross_factor_connected(Fi, ci, Fj, cj):
    """Type-3 link between crowns of two distinct direct factors: the pair
    quotient is Pi x Pj and the diagonal test decides exactly."""
    ai, aj = ci.factor_class.factor_action, cj.factor_class.factor_action
    if ai.primitive.order != aj.primitive.order:
        return False
    QQ, emb, _ = direct_product([ai.primitive, aj.primitive])
    QQ.chain
    soc_i = QQ.subgroup([emb[0].apply(ai.to_primitive(h))
                         for h in ci.factor_class.section.upper.generators])
    soc_j = QQ.subgroup([emb[1].apply(aj.to_primitive(h))
                         for h in cj.factor_class.section.upper.generators])
    if soc_i.order != ci.order or soc_j.order != cj.order:
        return False
    return _has_diagonal_corefree_maximal(QQ, soc_i, soc_j)


# -- direct operations -----------------------------------------------------------

def m_n(G, n, lattice_limit=DEFAULT_ORDER_LIMIT):
    """Exact number of index-n maximal subgroups."""
    prof = profile(G, lattice_limit=lattice_limit)
    if prof.m_exact is None:
        raise LimitExceeded("maximal enumeration unavailable")
    if "m_exact" in prof.skipped and n not in prof.m_exact:
        raise LimitExceeded(
            f"m_{n} not provably computable without the lattice")
    return prof.m_exact.get(n, 0)


def script_M(G, lattice_limit=DEFAULT_ORDER_LIMIT):
    """Exact script-M: max over n of log_n m_n (None markers when partial)."""
    prof = profile(G, lattice_limit=lattice_limit)
    if "script_M" in prof.skipped:
        raise LimitExceeded(prof.skipped["script_M"])
    return prof.script_M
