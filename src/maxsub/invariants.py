"""Invariant profiles: every quantity the bound machinery consumes.

A profile is exact integer data throughout; logarithms only appear in the
bounds module.  Everything that depends on maximal subgroups is read off
the crowns at every order, so no subgroup lattice of G itself is needed:
the m_n map with min_index and script_M (`crown_m_map`), and d, the least
k with P_G(k) > 0 (`min_generators`), where P_G(k) is the crown
factorization (`crown_gen_prob`).  A field that cannot be computed exactly
makes `profile` refuse; none is ever guessed.

Direct products assemble their profiles from the factor profiles.  Their
crowns are merged from the factors' crowns: central crowns of one order
merge, and so do non-abelian crowns linked across factors by a type-3
diagonal.  This is how the large products are analyzed without ever
enumerating their subgroups.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bsgs import LimitExceeded
from .constructions import automorphisms
from .group import direct_product
from .lattice import DEFAULT_ORDER_LIMIT, maximal_subgroups, subgroup_classes
from .modules import cocycle_dim, intertwiner_space_dim
from .structure import (CrownRecord, _has_diagonal_corefree_maximal,
                        chief_series, crowns)
from .tables import mask_of


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

    def to_json(self):
        def clean_map(m):
            return {str(k): v for k, v in sorted(m.items())}

        return {
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


# -- crowns -------------------------------------------------------------------

class CrownData:
    """What one crown of length delta, of chief factors of order n, adds to
    the m_n map and to P_G(k).

    An abelian crown holds q = |End_G(A)| and z = |Z^1(L, A)| for the
    linear group L = G/C_G(A).  A non-abelian one, with primitive group P
    and socle N, holds c_n(P), a(P) when delta >= 2, and the lattice of P
    with the mask of N, from which P_{P,N}(k) is read."""

    __slots__ = ("abelian", "order", "length", "z", "q", "corefree", "aut",
                 "_lattice", "_socle_mask")

    def __init__(self, crown, lattice_limit):
        d = crown.factor_class
        self.abelian = crown.abelian
        self.order = crown.order
        self.length = crown.length
        if self.abelian:
            p, mats = d.prime, d.space.gen_matrices
            self.q = p ** intertwiner_space_dim(mats, mats, p)
            self.z = p ** cocycle_dim(
                mats, p, d.section.parent.order // d.centralizer.order)
            return
        self.corefree = _corefree_maximal_counts(d, lattice_limit)
        fa = d.factor_action
        P = fa.primitive
        socle = [fa.to_primitive(h) for h in d.section.upper.generators]
        self.aut = (_automorphisms_trivial_on_top(P, socle)
                    if self.length >= 2 else 0)
        self._lattice = subgroup_classes(P, lattice_limit)
        t = self._lattice.table
        self._socle_mask = mask_of(
            t.closure([t.element_index(x) for x in socle]), t.n)

    def probability(self, k):
        """The product of f_i(k) over i < delta: f_i = 1 - z q^i / n^k for
        an abelian crown, f_i = P_{P,N}(k) - i a(P) / n^k for a non-abelian
        one."""
        nk = self.order ** k
        if self.abelian:
            fs = [1 - Fraction(self.z * self.q ** i, nk)
                  for i in range(self.length)]
        else:
            lat = self._lattice
            supplements = Fraction(lat.eulerian(k, self._socle_mask),
                                   lat.table.n ** k)
            fs = [supplements - Fraction(i * self.aut, nk)
                  for i in range(self.length)]
        return math.prod(fs, start=Fraction(1))


def crown_data(G, seed=0, lattice_limit=DEFAULT_ORDER_LIMIT):
    """One CrownData per crown of G, cached on the handle; a direct
    product's crowns are merged from its factors' crowns."""
    key = ("crown_data", seed, lattice_limit)
    got = G._cache.get(key)
    if got is None:
        cs = (_product_crowns([F for F, _ in G.product_factors], seed)
              if G.product_factors else crowns(G, seed=seed))
        got = G._cache[key] = [CrownData(c, lattice_limit) for c in cs]
    return got


def crown_gen_prob(G, k, seed=0, lattice_limit=DEFAULT_ORDER_LIMIT):
    """Exact P_G(k), the probability that k uniform random elements
    generate G, as the product over the crowns of G of
    `CrownData.probability` (Dalla Volta and Lucchini, J. Austral. Math.
    Soc. 64 (1998); Detomi and Lucchini, "Crowns and factorization of the
    probabilistic zeta function of a finite group", J. Algebra 265
    (2003)).  Frattini chief factors are in no crown and add nothing."""
    return math.prod((c.probability(k)
                      for c in crown_data(G, seed, lattice_limit)),
                     start=Fraction(1))


def min_generators(G, seed=0, lattice_limit=DEFAULT_ORDER_LIMIT):
    """d(G): 0 for the trivial group, otherwise the least k >= 1 with
    P_G(k) > 0 in the crown factorization (`crown_gen_prob`).  No minimal
    generating set is longer than log_2 |G|, which bounds the search."""
    if G.order == 1:
        return 0
    k = 1
    while crown_gen_prob(G, k, seed, lattice_limit) <= 0:
        k += 1
        if k > G.order.bit_length():
            raise RuntimeError("crown factorization found no generating tuple")
    return k


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
    # crowns refuses unless every Frattini flag is decided
    crowns(G, seed=seed)
    prof.r = len(facs)
    prof.r_a = sum(1 for d in facs if d.abelian)
    prof.r_b = prof.r - prof.r_a
    prof.lambda_ = sum(1 for d in facs if not d.frattini)
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
    prof.d = min_generators(G, seed=seed, lattice_limit=lattice_limit)
    _fill_crown_fields(prof, crown_data(G, seed, lattice_limit))
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


def _automorphisms_trivial_on_top(P, socle):
    """a(P): the automorphisms of the primitive group P of a non-abelian
    chief factor H/K that act trivially on P/N, where N = soc(P) is the
    image of H, generated by `socle`."""
    N = P.subgroup(socle)
    aut = automorphisms(P)
    gens = [aut.table.perm_of(a).inv() for a in aut.gen_tuple]
    return sum(all(N.contains(g * aut.table.perm_of(b))
                   for g, b in zip(gens, images))
               for images in aut.gen_images)


def crown_m_map(records):
    """Exact m_n, the number of maximal subgroups of index n, from the
    CrownData records of G (Gaschuetz, "Praefrattinigruppen", Arch. Math. 13 (1962);
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

    for c in records:
        if c.abelian:
            add(c.order, c.z * (c.q ** c.length - 1) // (c.q - 1))
            continue
        for n, count in c.corefree.items():
            add(n, c.length * count)
        if c.length >= 2:
            add(c.order, math.comb(c.length, 2) * c.aut)
    return dict(sorted(out.items()))


def _fill_crown_fields(prof, records):
    """cr_ab, s, rkm and the m_n map with what it decides: min_index (its
    least key) and script_M."""
    for c in records:
        if c.abelian:
            prof.cr_ab[c.order] = prof.cr_ab.get(c.order, 0) + 1
        else:
            prof.s[c.order] = prof.s.get(c.order, 0) + 1
            prof.rkm[c.order] = max(prof.rkm.get(c.order, 0), c.length)
    prof.m_exact = crown_m_map(records)
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
    out.lambda_ = sum(p.lambda_ for p in profs)
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
    out.d = min_generators(G, seed=seed, lattice_limit=lattice_limit)
    _fill_crown_fields(out, crown_data(G, seed, lattice_limit))
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
