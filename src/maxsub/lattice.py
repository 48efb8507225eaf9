"""Exhaustive subgroup lattices for desk-scale groups.

Enumeration is bottom-up cyclic extension by conjugacy class: every
subgroup arises from its perfect residual by a tower of normal extensions
of prime index, so the seeds are the trivial subgroup together with all
perfect subgroups.  Perfect subgroups are located by closing pairs of
elements (a class representative against every element): a nontrivial
perfect subgroup has order divisible by at least three primes (Burnside),
which prunes the scan to the few groups where it can matter at this scale.

Subgroups are kept as bitmask integers over the canonical element order;
conjugacy classes of subgroups are canonicalized by the minimal mask in
the conjugation orbit.
"""

from __future__ import annotations

import numpy as np

from .bsgs import LimitExceeded
from .simptable import is_prime, prime_factors
from .tables import element_table, indices_of, mask_of

DEFAULT_ORDER_LIMIT = 2000


class SubgroupClass:
    """One conjugacy class of subgroups."""

    __slots__ = ("order", "class_size", "normal", "rep_mask", "rep_indices",
                 "gens", "conjugate_masks", "_handle", "key")

    def __init__(self, order, rep_mask, rep_indices, gens, conjugate_masks):
        self.order = order
        self.rep_mask = rep_mask
        self.rep_indices = rep_indices
        self.gens = gens
        self.conjugate_masks = conjugate_masks
        self.class_size = len(conjugate_masks)
        self.normal = self.class_size == 1
        self._handle = None
        self.key = (order, rep_mask)

    def representative(self, table):
        if self._handle is None:
            self._handle = table.subgroup_handle(self.rep_indices, self.gens)
        return self._handle

    def __repr__(self):
        return f"<SubgroupClass order={self.order} size={self.class_size}>"


class MaximalRecord:
    __slots__ = ("subgroup", "index", "core", "baer_type", "class_ref",
                 "core_mask")

    def __init__(self, subgroup, index, core, baer_type, class_ref, core_mask):
        self.subgroup = subgroup
        self.index = index
        self.core = core
        self.baer_type = baer_type
        self.class_ref = class_ref
        self.core_mask = core_mask

    def __repr__(self):
        return (f"<Maximal index={self.index} type={self.baer_type} "
                f"x{self.class_ref.class_size}>")


class Lattice:
    """Write-once lattice cache: classes, maximals, Frattini, Moebius."""

    def __init__(self, G, table, classes):
        self.group = G
        self.table = table
        self.classes = classes          # sorted by (order, rep_mask)
        self.by_key = {c.key: c for c in classes}
        self.whole = classes[-1]
        self._maximals = None
        self._moebius = None
        self._frattini = None

    # -- downstream data ----------------------------------------------------

    def maximal_classes(self):
        """Classes whose members are maximal subgroups."""
        out = []
        n = self.table.n
        for c in self.classes:
            if c.order == n:
                continue
            dominated = False
            for d in self.classes:
                if d.order <= c.order or d.order == n:
                    continue
                if d.order % c.order:
                    continue
                if any(c.rep_mask & m == c.rep_mask for m in d.conjugate_masks):
                    dominated = True
                    break
            if not dominated:
                out.append(c)
        return out

    def maximal_records(self):
        if self._maximals is None:
            self._maximals = [self._record_for(c) for c in self.maximal_classes()]
        return self._maximals

    def _record_for(self, c):
        table = self.table
        n = table.n
        core_mask = c.conjugate_masks[0]
        for m in c.conjugate_masks[1:]:
            core_mask &= m
        core_idx = indices_of(core_mask, n)
        core = table.subgroup_handle(core_idx)
        btype = self._baer_type(core_mask, core_idx)
        return MaximalRecord(c.representative(table), n // c.order, core,
                             btype, c, core_mask)

    def _baer_type(self, core_mask, core_idx):
        """Baer type of G/core from the minimal normal subgroups above core."""
        minimals = self.minimal_normals_above(core_mask)
        if len(minimals) == 1:
            N = minimals[0]
            return 1 if self._section_abelian(N, core_mask) else 2
        if len(minimals) == 2:
            return 3
        raise RuntimeError(
            f"primitive quotient with {len(minimals)} minimal normal subgroups")

    def minimal_normals_above(self, base_mask):
        """Normal subgroups N > base minimal with that property, as classes."""
        above = [c for c in self.classes
                 if c.normal and c.rep_mask != base_mask
                 and c.rep_mask & base_mask == base_mask]
        out = []
        for c in above:
            if not any(d.rep_mask & c.rep_mask == d.rep_mask
                       for d in above if d is not c and d.order < c.order):
                out.append(c)
        return out

    def _section_abelian(self, cls, base_mask):
        """Whether cls/base is abelian (commutators of generators in base)."""
        t = self.table
        gens = cls.gens if cls.gens else [t.identity_index]
        for a in gens:
            for b in gens:
                if not (base_mask >> t.commutator(int(a), int(b))) & 1:
                    return False
        return True

    def frattini(self):
        if self._frattini is None:
            mask = self.whole.rep_mask
            for c in self.maximal_classes():
                for m in c.conjugate_masks:
                    mask &= m
            self._frattini = self.table.subgroup_handle(
                indices_of(mask, self.table.n))
            self._frattini._cache["mask"] = mask
        return self._frattini

    def moebius(self):
        """Moebius function of the lattice, one value per class.

        mu(G,G) = 1 and mu(H,G) = -sum over K with H < K <= G of mu(K,G),
        computed classwise: the inner sum counts, for each class K, the
        conjugates of K that contain the fixed representative of H.
        """
        if self._moebius is None:
            mu = {self.whole.key: 1}
            for c in sorted(self.classes, key=lambda x: -x.order):
                if c is self.whole:
                    continue
                total = 0
                for d in self.classes:
                    if d.order <= c.order:
                        continue
                    if d.order % c.order:
                        continue
                    cnt = sum(1 for m in d.conjugate_masks
                              if c.rep_mask & m == c.rep_mask)
                    if cnt:
                        total += cnt * mu[d.key]
                mu[c.key] = -total
            self._moebius = mu
        return self._moebius

    def eulerian(self, d, normal_mask=None):
        """Number of generating d-tuples via Moebius inversion.

        Given the mask of a normal subgroup N, the sum runs only over the
        H with HN = G, that is |H| |N| = |G| |H n N|; divided by |G|^d it
        is then the supplement sum P_{G,N}(d), and N = G gives the whole
        sum back."""
        mu = self.moebius()
        n = self.table.n
        if normal_mask is None:
            normal_mask = self.whole.rep_mask
        size = normal_mask.bit_count()
        return sum(c.class_size * mu[c.key] * c.order ** d
                   for c in self.classes
                   if c.order * size
                   == n * (c.rep_mask & normal_mask).bit_count())

    def all_subgroup_masks(self):
        out = []
        for c in self.classes:
            out.extend(c.conjugate_masks)
        return out


# -- construction ------------------------------------------------------------


def subgroup_classes(G, order_limit=DEFAULT_ORDER_LIMIT):
    """Full lattice of G, refused (never truncated) above the order limit."""
    if G.order > order_limit:
        raise LimitExceeded(
            f"subgroup enumeration needs order <= lattice limit "
            f"{order_limit}, got {G.order}")
    lat = G._cache.get("lattice")
    if lat is None:
        lat = _build_lattice(G)
        G._cache["lattice"] = lat
    return lat


def _orbit_of_subgroup(table, indices, conj_maps):
    """All conjugate masks; returns (masks, min_mask, min_indices)."""
    n = table.n
    first = mask_of(indices, n)
    seen = {first: indices}
    frontier = [indices]
    while frontier:
        idx = frontier.pop()
        for cm in conj_maps:
            nxt = np.sort(cm[idx])
            m = mask_of(nxt, n)
            if m not in seen:
                seen[m] = nxt
                frontier.append(nxt)
    min_mask = min(seen)
    return list(seen), min_mask, seen[min_mask]


def _perfect_seed_scan(table):
    """Conjugacy classes of nontrivial perfect subgroups (2-generated scan).

    Perfect groups of order < 60 do not exist and two-prime orders are
    solvable, so the scan is skipped unless |G| has at least three prime
    factors and order >= 60.  At this order limit every perfect subgroup
    is generated by two elements, which the acceptance oracles re-check.
    """
    n = table.n
    if len(prime_factors(n)) < 3 or n < 60:
        return {}
    out = {}
    reps = [r for r, _ in table.conjugacy_classes() if r != table.identity_index]
    conj_maps = [table.conj_map(g) for g in table.gen_indices]
    seen_pairs = set()
    for a in reps:
        # restrict b to representatives of conjugation by C(a): conjugating
        # the pair (a, b) by centralizing elements fixes a
        cz = np.nonzero(table.conjugates(a) == a)[0]
        cz_maps = [table.conj_map(g) for g in table.reduce_generators(
            cz.astype(np.int16))]
        covered = np.zeros(n, dtype=bool)
        for b in range(n):
            if covered[b]:
                continue
            orbit = [b]
            covered[b] = True
            head = 0
            while head < len(orbit):
                x = orbit[head]
                head += 1
                for cm in cz_maps:
                    y = int(cm[x])
                    if not covered[y]:
                        covered[y] = True
                        orbit.append(y)
            sub = table.closure([a, b])
            if len(sub) < 60 or len(prime_factors(len(sub))) < 3:
                continue
            mask = mask_of(sub, n)
            if mask in seen_pairs:
                continue
            seen_pairs.add(mask)
            der = table.derived_indices(sub, sub_gens=[a, b])
            if len(der) != len(sub):
                continue
            masks, min_mask, min_idx = _orbit_of_subgroup(table, sub, conj_maps)
            for m in masks:
                seen_pairs.add(m)
            if min_mask not in out:
                out[min_mask] = (masks, min_idx)
    return out


def _normalizers_outside(table, H_idx, H_gens):
    """Mask of the g outside H with g^-1 h g in H for every h in H_gens."""
    in_H = np.zeros(table.n, dtype=bool)
    in_H[H_idx] = True
    out = ~in_H
    for h in H_gens:
        out &= in_H[table.conjugates(h)]
    return out


def _build_lattice(G):
    table = element_table(G)
    n = table.n
    conj_maps = [table.conj_map(g) for g in table.gen_indices]
    mult = table.mult
    ident = table.identity_index

    classes = {}
    seen_masks = {}

    def add_class(indices, gens):
        masks, min_mask, min_idx = _orbit_of_subgroup(table, indices, conj_maps)
        key = (len(indices), min_mask)
        if key in classes:
            return None
        cls = SubgroupClass(len(indices), min_mask, min_idx,
                            _gens_for(min_idx, gens), masks)
        classes[key] = cls
        for m in masks:
            seen_masks[m] = key
        return cls

    def _gens_for(min_idx, gens):
        # gens were for some conjugate; regenerate for the representative
        got = table.closure(gens)
        if mask_of(got, n) == mask_of(min_idx, n):
            return gens
        return table.reduce_generators(min_idx)

    trivial_idx = np.array([ident], dtype=np.int16)
    worklist = []
    c0 = add_class(trivial_idx, [])
    worklist.append(c0)
    for mask, (masks, idx) in _perfect_seed_scan(table).items():
        cls = add_class(idx, table.reduce_generators(idx))
        if cls is not None:
            worklist.append(cls)

    while worklist:
        cls = worklist.pop()
        H_mask = cls.rep_mask
        H_idx = cls.rep_indices
        H_gens = [int(g) for g in cls.gens]
        for g in np.nonzero(
                _normalizers_outside(table, H_idx, H_gens))[0].tolist():
            # order of g modulo H along the cyclic tower
            p = g
            k = 1
            while not (H_mask >> p) & 1:
                p = int(mult[p, g])
                k += 1
            if not is_prime(k):
                continue
            # K = H u Hg u ... u Hg^(k-1)
            parts = [H_idx]
            power = g
            for _ in range(k - 1):
                parts.append(np.sort(mult[H_idx, power]))
                power = int(mult[power, g])
            K_idx = np.sort(np.concatenate(parts))
            K_mask = mask_of(K_idx, n)
            if K_mask in seen_masks:
                continue
            newcls = add_class(K_idx, H_gens + [g])
            if newcls is not None and newcls.order < n:
                worklist.append(newcls)

    out = sorted(classes.values(), key=lambda c: (c.order, c.rep_mask))
    if out[-1].order != n:
        raise RuntimeError("lattice enumeration did not reach the whole group")
    return Lattice(G, table, out)


# -- public operations --------------------------------------------------------


def maximal_subgroups(G, order_limit=DEFAULT_ORDER_LIMIT):
    """MaximalRecords for every maximal subgroup class of G."""
    return subgroup_classes(G, order_limit).maximal_records()


def frattini(G, order_limit=DEFAULT_ORDER_LIMIT):
    return subgroup_classes(G, order_limit).frattini()


def moebius(G, order_limit=DEFAULT_ORDER_LIMIT):
    """Map from SubgroupClass to its Moebius value mu(H, G)."""
    lat = subgroup_classes(G, order_limit)
    mu = lat.moebius()
    return {lat.by_key[k]: v for k, v in mu.items()}


def m_n_map(G, order_limit=DEFAULT_ORDER_LIMIT):
    """Exact counts of maximal subgroups per index."""
    counts = {}
    for rec in maximal_subgroups(G, order_limit):
        counts[rec.index] = counts.get(rec.index, 0) + rec.class_ref.class_size
    return dict(sorted(counts.items()))
