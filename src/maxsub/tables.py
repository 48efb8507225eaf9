"""Element tables for desk-scale groups.

All lattice and orbit-census work runs in element-index space: elements are
enumerated once, canonically sorted, and multiplication becomes a numpy
table lookup.  The table is filled along the Cayley graph of the group's
generators: n key lookups per generator give left multiplication by that
generator as an index map, and every other row is one gather of a row
already filled.  Subgroups are sorted index arrays paired with bitmask
integers, so containment is a single bigint AND.
"""

from __future__ import annotations

import numpy as np

from .bsgs import LimitExceeded
from .perms import Permutation

_TABLE_DTYPE = np.int16
_TABLE_MAX = 32767


class ElementTable:
    """Canonical element list plus multiplication/inverse tables."""

    def __init__(self, G):
        if G.order > _TABLE_MAX:
            raise LimitExceeded("element table index type overflow")
        self.group = G
        els = G.elements()
        self.n = len(els)
        self.elements = els
        self.degree = G.degree
        self._matrix = np.stack([p.images for p in els])  # n x degree
        self.index = {p.images.tobytes(): i for i, p in enumerate(els)}
        self.identity_index = self.index[Permutation.identity(G.degree).images.tobytes()]
        self._mult = None
        self._inv = None
        self._orders = None
        self._gen_indices = None
        self._classes = None

    def element_index(self, p):
        key = p.images.tobytes()
        i = self.index.get(key)
        if i is None:
            raise KeyError("permutation is not an element of this group")
        return i

    @property
    def mult(self):
        if self._mult is None:
            # lg[j] = index of e_g * e_j for a generator g; if e_x = e_g * e_y
            # then row x = lg[row y], so rows are filled in BFS order from
            # the identity row, one gather each
            n, E, idx = self.n, self._matrix, self.index
            left = [np.array([idx[r.tobytes()] for r in E[:, E[g]]],
                             dtype=_TABLE_DTYPE) for g in self.gen_indices]
            table = np.empty((n, n), dtype=_TABLE_DTYPE)
            table[self.identity_index] = np.arange(n, dtype=_TABLE_DTYPE)
            done = np.zeros(n, dtype=bool)
            done[self.identity_index] = True
            queue = [self.identity_index]
            for y in queue:
                for lg in left:
                    x = int(lg[y])
                    if not done[x]:
                        done[x] = True
                        table[x] = lg[table[y]]
                        queue.append(x)
            self._mult = table
        return self._mult

    @property
    def inv(self):
        if self._inv is None:
            n = self.n
            out = np.empty(n, dtype=_TABLE_DTYPE)
            for i, p in enumerate(self.elements):
                out[i] = self.index[p.inv().images.tobytes()]
            self._inv = out
        return self._inv

    @property
    def orders(self):
        if self._orders is None:
            self._orders = np.array([p.order() for p in self.elements],
                                    dtype=np.int32)
        return self._orders

    @property
    def gen_indices(self):
        if self._gen_indices is None:
            seen = []
            for g in self.group.generators:
                i = self.element_index(g)
                if i != self.identity_index and i not in seen:
                    seen.append(i)
            self._gen_indices = seen
        return self._gen_indices

    # -- index-space group operations ---------------------------------------

    def conj(self, x, g):
        """g^-1 * x * g in index space."""
        m = self.mult
        return int(m[int(m[self.inv[g], x]), g])

    def conj_map(self, g):
        """Array mapping every x to g^-1 x g."""
        m = self.mult
        row = m[self.inv[g]]            # inv(g) * x for all x
        return m[row, g].astype(_TABLE_DTYPE)

    def conjugates(self, x):
        """Array of g^-1 x g over every element g."""
        m = self.mult
        return m[m[self.inv, x], np.arange(self.n)]

    def commutator(self, a, b):
        m = self.mult
        return int(m[int(m[int(m[self.inv[a], self.inv[b]]), a]), b])

    def closure(self, gens):
        """Sorted element indices of the subgroup generated by gens."""
        m = self.mult
        gens = [g for g in gens if g != self.identity_index]
        seen = np.zeros(self.n, dtype=bool)
        seen[self.identity_index] = True
        frontier = np.array([self.identity_index])
        while gens and len(frontier):
            # x -> x * g is injective, so each step is already duplicate-free
            # once the elements seen so far are dropped
            new = []
            for g in gens:
                step = m[frontier, g]
                step = step[~seen[step]]
                seen[step] = True
                new.append(step)
            frontier = np.concatenate(new)
        return np.nonzero(seen)[0].astype(_TABLE_DTYPE)

    def normal_closure_in(self, ambient_gens, seeds):
        """Normal closure of `seeds` under conjugation by `ambient_gens`,
        returned as sorted indices (all in index space)."""
        gens = set()
        queue = [s for s in seeds if s != self.identity_index]
        current = frozenset([self.identity_index])
        members = {self.identity_index}
        while queue:
            x = queue.pop()
            if x in members:
                continue
            gens.add(x)
            members = set(self.closure(sorted(gens)).tolist())
            for g in ambient_gens:
                queue.append(self.conj(x, g))
        return np.array(sorted(members), dtype=_TABLE_DTYPE)

    def derived_indices(self, sub_indices, sub_gens=None):
        """Derived subgroup of the subgroup given by indices (gens optional)."""
        gens = sub_gens if sub_gens is not None else sub_indices.tolist()
        comms = set()
        for a in gens:
            for b in gens:
                comms.add(self.commutator(int(a), int(b)))
        return self.normal_closure_in([int(g) for g in gens], sorted(comms))

    def conjugacy_classes(self):
        """List of (representative index, sorted class array)."""
        if self._classes is None:
            maps = [self.conj_map(g) for g in self.gen_indices]
            seen = np.zeros(self.n, dtype=bool)
            classes = []
            for start in range(self.n):
                if seen[start]:
                    continue
                orbit = {start}
                frontier = [start]
                seen[start] = True
                while frontier:
                    x = frontier.pop()
                    for cm in maps:
                        y = int(cm[x])
                        if not seen[y]:
                            seen[y] = True
                            orbit.add(y)
                            frontier.append(y)
                classes.append((start, np.array(sorted(orbit), dtype=_TABLE_DTYPE)))
            self._classes = classes
        return self._classes

    def perm_of(self, i):
        return self.elements[int(i)]

    def subgroup_handle(self, indices, gens=None):
        """GroupHandle for the subgroup given by sorted element indices."""
        order = len(indices)
        if gens is None:
            gens = self.reduce_generators(indices)
        perms = [self.perm_of(g) for g in gens]
        H = self.group.subgroup(perms, known_order=order)
        return H

    def reduce_generators(self, indices):
        """Small generating set for the subgroup with the given indices."""
        target = len(indices)
        if target == 1:
            return []
        gens = []
        have = {self.identity_index}
        # prefer high-order elements so cyclic parts collapse quickly
        cand = sorted(indices.tolist(), key=lambda i: -int(self.orders[i]))
        for x in cand:
            if x in have:
                continue
            gens.append(x)
            have = set(self.closure(gens).tolist())
            if len(have) == target:
                break
        return gens


def mask_of(indices, n):
    """Bitmask integer for a sorted index array."""
    buf = np.zeros(n, dtype=np.uint8)
    buf[np.asarray(indices, dtype=np.int64)] = 1
    return int.from_bytes(np.packbits(buf, bitorder="little").tobytes(), "little")


def indices_of(mask, n):
    nbytes = (n + 7) // 8
    raw = mask.to_bytes(nbytes, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return np.nonzero(bits[:n])[0].astype(_TABLE_DTYPE)


def element_table(G):
    """Element table of G, cached on the handle."""
    tab = G._cache.get("element_table")
    if tab is None:
        tab = ElementTable(G)
        G._cache["element_table"] = tab
    return tab
