"""Invariant profiles: every quantity the bound machinery consumes.

A profile is exact integer data throughout; logarithms only appear in the
bounds module.  The m_n map, and with it min_index and script_M, is read
off the crowns at every order (`crown_m_map`), so no subgroup lattice of G
itself is needed.  A field that a budget kept from being certified carries
an entry in `skipped` instead of a guessed value; only `lambda` (a
Frattini flag left undecided) and `d` (a generator count left uncertified)
ever do.

Direct products assemble their profiles from the factor profiles.  Their
crowns are merged from the factors' crowns: central crowns of one order
merge, and so do non-abelian crowns linked across factors by a type-3
diagonal.  This is how the large products are analyzed without ever
enumerating their subgroups.
"""

from __future__ import annotations

import math
import random

from .bsgs import LimitExceeded
from .constructions import automorphisms
from .group import direct_product, generates, is_abelian, small_generating_set
from .lattice import DEFAULT_ORDER_LIMIT, maximal_subgroups, subgroup_classes
from .modules import cocycle_dim, intertwiner_space_dim
from .structure import (CrownRecord, _conjugacy_class_reps,
                        _conjugation_orbit_reps,
                        _has_diagonal_corefree_maximal, chief_series, crowns,
                        ensure_factor_flags)

MIN_GEN_ELEMENT_BUDGET = 8192
RANDOM_ACCEPT_TRIALS = 40


class InvariantProfile:
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
    # rks and rk_iso per non-abelian factor
    for d in facs:
        if d.abelian:
            continue
        label = d.simple_id if d.copies == 1 else f"{d.simple_id}^{d.copies}"
        prof.rk_iso[label] = prof.rk_iso.get(label, 0) + 1
        counts = _corefree_maximal_counts(d, lattice_limit)
        for n in counts:
            prof.rks[n] = prof.rks.get(n, 0) + 1
        if d.order in counts:
            prof.rks_rko_overlap[d.order] = \
                prof.rks_rko_overlap.get(d.order, 0) + 1
    mg = min_generators(G, seed=seed, lattice_limit=lattice_limit)
    if mg.certified:
        prof.d = mg.value
    else:
        prof.skipped["d"] = f"bracket [{mg.lower}, {mg.upper}]"
        prof.d = mg.upper
    _fill_crown_fields(prof, cs, lattice_limit)
    G._cache[key] = prof
    return prof


def _corefree_maximal_counts(d, lattice_limit):
    """c_n(P) per index n: the core-free maximal subgroups of the primitive
    group P attached to a non-abelian chief factor (refused above the
    lattice limit: the bounds would read the missing rks as 0)."""
    P = d.factor_action.primitive
    if P.order > lattice_limit:
        raise LimitExceeded(
            f"rks needs the subgroup lattice of a primitive quotient of "
            f"order {P.order}, above the lattice limit {lattice_limit}")
    out = {}
    for rec in maximal_subgroups(P, lattice_limit):
        if rec.core.order == 1:
            out[rec.index] = out.get(rec.index, 0) + rec.class_ref.class_size
    return out


def _automorphisms_trivial_on_top(d):
    """a(P): the automorphisms of the primitive group P of a non-abelian
    chief factor H/K that act trivially on P/N, where N = soc(P) is the
    image of H."""
    fa = d.factor_action
    P = fa.primitive
    N = P.subgroup([fa.to_primitive(h) for h in d.section.upper.generators])
    aut = automorphisms(P)
    gens = [aut.table.perm_of(a).inv() for a in aut.gen_tuple]
    return sum(all(N.contains(g * aut.table.perm_of(b))
                   for g, b in zip(gens, images))
               for images in aut.gen_images)


def crown_m_map(crown_list, lattice_limit):
    """Exact m_n, the number of maximal subgroups of index n, from the
    crowns of G (Gaschuetz, "Praefrattinigruppen", Arch. Math. 13 (1962);
    Dalla Volta and Lucchini, J. Austral. Math. Soc. 64 (1998)).

    Each crown, of length delta, adds to one or more indices:

    * central abelian, of order p: (p^delta - 1)/(p - 1) at index p;
    * non-central abelian A: z (q^delta - 1)/(q - 1) at index |A|, where
      q = |End_G(A)| and z = |Z^1(L, A)| for the linear group L = G/C_G(A),
      the number of complements of A in A x| L (the central case is this
      one with L = 1, z = 1 and q = p);
    * non-abelian, with primitive group P and N = soc(P): delta c_n(P) at
      each n, where c_n(P) counts the core-free maximal subgroups of P of
      index n, and, when delta >= 2, C(delta, 2) a(P) diagonal subgroups
      of index |N|, where a(P) counts the automorphisms of P that act
      trivially on P/N.

    Frattini chief factors are in no crown and add nothing."""
    out = {}

    def add(n, count):
        out[n] = out.get(n, 0) + count

    for c in crown_list:
        d = c.factor_class
        if c.abelian:
            p, mats = d.prime, d.space.gen_matrices
            q = p ** intertwiner_space_dim(mats, mats, p)
            z = p ** cocycle_dim(
                mats, p, d.section.parent.order // d.centralizer.order)
            add(c.order, z * (q ** c.length - 1) // (q - 1))
            continue
        for n, count in _corefree_maximal_counts(d, lattice_limit).items():
            add(n, c.length * count)
        if c.length >= 2:
            add(c.order, math.comb(c.length, 2)
                * _automorphisms_trivial_on_top(d))
    return dict(sorted(out.items()))


def _fill_crown_fields(prof, crown_list, lattice_limit):
    """cr_ab, s, rkm and the m_n map with what it decides: min_index (its
    least key) and script_M."""
    for c in crown_list:
        if c.abelian:
            prof.cr_ab[c.order] = prof.cr_ab.get(c.order, 0) + 1
        else:
            prof.s[c.order] = prof.s.get(c.order, 0) + 1
            prof.rkm[c.order] = max(prof.rkm.get(c.order, 0), c.length)
    prof.m_exact = crown_m_map(crown_list, lattice_limit)
    prof.min_index = min(prof.m_exact) if prof.m_exact else None
    prof.script_M = _script_m_from_map(prof.m_exact)


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
    _fill_crown_fields(out, _product_crowns(factors, seed), lattice_limit)
    return out


def _product_crowns(factors, seed):
    """The crowns of a direct product, merged from those of its factors.

    Central crowns (C_F(A) = F) of one order merge across the factors, and
    so do non-abelian crowns with a type-3 link between them.  A non-central
    abelian crown acts with a different kernel in each factor, so it stays
    on its own."""
    out, central, linked = [], {}, []
    for fi, F in enumerate(factors):
        for c in crowns(F, seed=seed):
            if not c.abelian:
                linked.append((fi, c))
            elif c.factor_class.centralizer.order == F.order:
                central.setdefault(c.order, []).append(c)
            else:
                out.append(c)
    out += [_joined(cs) for cs in central.values()]
    used = [False] * len(linked)
    for i, (fi, ci) in enumerate(linked):
        if used[i]:
            continue
        joined = [ci]
        for j in range(i + 1, len(linked)):
            fj, cj = linked[j]
            # crowns of one factor are distinct already
            if (not used[j] and fj != fi and cj.order == ci.order
                    and _cross_factor_connected(factors[fi], ci,
                                                factors[fj], cj)):
                joined.append(cj)
                used[j] = True
        out.append(_joined(joined))
    return out


def _joined(cs):
    """One crown whose chief factors are those of all the given crowns."""
    return CrownRecord(cs[0].factor_class, [m for c in cs for m in c.members],
                       cs[0].abelian)


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
    return profile(G, lattice_limit=lattice_limit).m_exact.get(n, 0)


def script_M(G, lattice_limit=DEFAULT_ORDER_LIMIT):
    """Exact script-M: max over n of log_n m_n, or "-inf"."""
    return profile(G, lattice_limit=lattice_limit).script_M
