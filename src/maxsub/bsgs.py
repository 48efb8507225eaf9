"""Stabilizer chains (base and strong generating sets) for permutation groups.

The construction is the deterministic Schreier-Sims algorithm; a seeded
randomized sifting pre-pass is used to grow the strong generating set
quickly, but completeness is always established by the deterministic
Schreier-generator verification loop (or by reaching a caller-supplied
known order, which certifies the chain since the product of orbit sizes
can never exceed the true order).

Conventions: composition is left-to-right (see perms), transversal element
t_delta maps the base point to delta, and sifting reduces g by
g <- g * t_delta^-1 with delta = g(base point).
"""

from __future__ import annotations

import random

import numpy as np

from .perms import Permutation

_SHALLOW_DEPTH = 12


def _compose(a, b):
    # apply a then b, on raw arrays
    return b[a]


def _invert(a):
    out = np.empty(len(a), dtype=a.dtype)
    out[a] = np.arange(len(a), dtype=a.dtype)
    return out


class _Level:
    __slots__ = ("point", "tree", "tree_gens", "depth", "rep_memo",
                 "rep_inv_memo")

    def __init__(self, point):
        self.point = point
        self.tree = {point: None}   # delta -> (parent, tree_gen_index) or None at root
        self.tree_gens = []         # list of (arr, inv_arr) used for tree edges
        self.depth = 0
        self.rep_memo = {}
        self.rep_inv_memo = {}


class StabilizerChain:
    """BSGS for the group generated by `gens` on `degree` points.

    `base_prefix` forces the leading base points (used to read off kernels
    and point stabilizers).  `known_order` allows the build to finish as
    soon as the chain reaches that order.
    """

    def __init__(self, degree, gens, base_prefix=(), known_order=None):
        self.degree = degree
        self.base_prefix = tuple(base_prefix)
        # strong generators: list of (home_level, arr, inv_arr)
        self.sgens = []
        self.levels = []
        self._order = None
        self._ident_bytes = np.arange(degree, dtype=np.int32).tobytes()
        # cap on memoized transversal arrays (~120 MB of int32 entries)
        self._memo_left = max(32_000_000 // max(degree, 1), 64)
        seed_arrays = []
        for g in gens:
            arr = g.images if isinstance(g, Permutation) else np.asarray(g, dtype=np.int32)
            if len(arr) != degree:
                raise ValueError("generator degree mismatch")
            seed_arrays.append(arr)
        self._build(seed_arrays, known_order)

    # -- construction -----------------------------------------------------

    def _build(self, arrays, known_order):
        for arr in arrays:
            self._insert_gen(arr)
        if known_order is not None and self._orbit_product() == known_order:
            self._order = known_order
            return
        if arrays:
            self._random_prepass(arrays, known_order)
            if known_order is not None and self._orbit_product() == known_order:
                self._order = known_order
                return
        self._deterministic_pass(len(self.levels) - 1, known_order)
        self._order = self._orbit_product()
        if known_order is not None and self._order != known_order:
            raise ValueError(
                f"chain order {self._order} does not match stated order {known_order}")

    def extend(self, arrays):
        """Add generators to a complete chain, resuming Schreier-Sims.

        Each new array is sifted and its residue becomes a strong generator
        at its home level; levels below the highest such home keep their
        generators, so they stay certified and only the levels from there
        up are checked again.
        """
        top = -1
        for arr in arrays:
            arr = np.asarray(arr, dtype=np.int32)
            if len(arr) != self.degree:
                raise ValueError("generator degree mismatch")
            residue, _ = self._sift_arr(arr)
            if residue is not None:
                top = max(top, self._insert_gen(residue))
        if top >= 0:
            self._deterministic_pass(top)
            self._order = self._orbit_product()

    def _home_level(self, arr):
        """Number of leading base points fixed by arr; extends the base when
        arr fixes all current base points (possibly by several forced-prefix
        levels that arr does not move)."""
        i = 0
        while True:
            if i == len(self.levels):
                if np.array_equal(arr, np.arange(self.degree, dtype=arr.dtype)):
                    return None
                self._new_level(arr)
            lvl = self.levels[i]
            if arr[lvl.point] != lvl.point:
                return i
            i += 1

    def _new_level(self, arr):
        nxt = len(self.levels)
        if nxt < len(self.base_prefix):
            point = self.base_prefix[nxt]
        else:
            # pick the smallest point on a longest cycle of arr among points
            # not already in the base (greedy largest-orbit heuristic)
            base_set = {l.point for l in self.levels}
            best = None
            seen = set(base_set)
            for start in range(self.degree):
                if start in seen:
                    continue
                cyc = [start]
                seen.add(start)
                j = int(arr[start])
                while j != start and j not in base_set:
                    seen.add(j)
                    cyc.append(j)
                    j = int(arr[j])
                if j == start and len(cyc) > 1:
                    if best is None or len(cyc) > len(best):
                        best = cyc
            if best is None:
                # arr moves only base-prefix points that were skipped; fall
                # back to its first moved point
                moved = np.nonzero(arr != np.arange(self.degree, dtype=arr.dtype))[0]
                point = int(moved[0])
            else:
                point = min(best)
        self.levels.append(_Level(point))

    def _insert_gen(self, arr):
        """Register a raw array as a strong generator at its home level.

        Only the home level's orbit is rebuilt here; orbits above may go
        stale (undershoot), which can only cause spurious sift failures that
        the deterministic pass repairs when it re-certifies each level.
        Returns the home level, or None when arr is the identity.
        """
        home = self._home_level(arr)
        if home is not None:
            self.sgens.append((home, arr, _invert(arr)))
            self._rebuild_orbit(home)
        return home

    def _level_gens(self, i):
        return [(arr, inv) for home, arr, inv in self.sgens if home >= i]

    def _rebuild_orbit(self, i):
        lvl = self.levels[i]
        gens = self._level_gens(i)
        while True:
            lvl.tree = {lvl.point: None}
            lvl.tree_gens = list(gens)
            lvl.rep_memo = {}
            lvl.rep_inv_memo = {}
            deep_point = self._orbit_bfs(lvl)
            if deep_point is None:
                return
            # shallow-tree augmentation: add the representative of the deep
            # point as an extra tree generator and redo the BFS
            rep = self._rep(i, deep_point)
            gens = gens + [(rep, _invert(rep))]

    def _orbit_bfs(self, lvl):
        queue = [(lvl.point, 0)]
        lvl.depth = 0
        head = 0
        while head < len(queue):
            a, d = queue[head]
            head += 1
            lvl.depth = max(lvl.depth, d)
            for gi, (arr, inv) in enumerate(lvl.tree_gens):
                b = int(arr[a])
                if b not in lvl.tree:
                    lvl.tree[b] = (a, gi)
                    if d + 1 > _SHALLOW_DEPTH:
                        return b
                    queue.append((b, d + 1))
        return None

    def _rep(self, i, delta):
        """Transversal element mapping base point of level i to delta
        (memoized per level until the orbit is rebuilt)."""
        lvl = self.levels[i]
        memo = lvl.rep_memo
        out = memo.get(delta)
        if out is not None:
            return out
        path = []
        a = delta
        while lvl.tree[a] is not None and a not in memo:
            parent, gi = lvl.tree[a]
            path.append((a, gi))
            a = parent
        base = memo.get(a)
        if base is None:
            base = np.arange(self.degree, dtype=np.int32)
        out = base
        for a_pt, gi in reversed(path):
            arr = lvl.tree_gens[gi][0]
            # rep(child) = rep(parent) * edge generator
            out = _compose(out, arr)
            if self._memo_left > 0:
                memo[a_pt] = out
                self._memo_left -= 1
        return out

    def _rep_inv(self, i, delta):
        lvl = self.levels[i]
        memo = lvl.rep_inv_memo
        out = memo.get(delta)
        if out is None:
            out = _invert(self._rep(i, delta))
            if self._memo_left > 0:
                memo[delta] = out
                self._memo_left -= 1
        return out

    def _sift_arr(self, arr, start=0):
        """Reduce arr through levels >= start; returns (residue, level) where
        level is the first level that could not reduce it (len(levels) + 1
        sentinel shapes are normalized by callers via _home_level)."""
        g = arr
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            delta = int(g[lvl.point])
            if delta == lvl.point:
                continue
            if delta not in lvl.tree:
                return g, i
            g = _compose(g, self._rep_inv(i, delta))
        if g.tobytes() == self._ident_bytes:
            return None, len(self.levels)
        return g, len(self.levels)

    def _random_prepass(self, arrays, known_order):
        rng = random.Random(0x5EED)
        pool = [a.copy() for a in arrays]
        pool += [np.arange(self.degree, dtype=np.int32) for _ in range(3)]
        accu = np.arange(self.degree, dtype=np.int32)
        quiet = 0
        target = 12
        while quiet < target:
            i = rng.randrange(len(pool))
            j = rng.randrange(len(pool))
            if rng.random() < 0.5:
                pool[i] = _compose(pool[i], pool[j])
            else:
                pool[i] = _compose(pool[j], pool[i])
            accu = _compose(accu, pool[i])
            residue, _ = self._sift_arr(accu)
            if residue is not None:
                if self._insert_gen(residue) is not None:
                    quiet = 0
                    if known_order is not None and self._orbit_product() == known_order:
                        return
                else:
                    quiet += 1
            else:
                quiet += 1

    def _deterministic_pass(self, start, known_order=None):
        """Verify levels start, ..., 0 by sifting every Schreier generator,
        adding residues until all of them sift to the identity (the levels
        below start must already be complete)."""
        i = start
        while i >= 0:
            self._rebuild_orbit(i)
            failure = self._check_level(i)
            if failure is None:
                i -= 1
                continue
            residue = failure
            home = self._home_level(residue)
            if home is None:
                continue
            self.sgens.append((home, residue, _invert(residue)))
            for k in range(home + 1):
                if k < len(self.levels):
                    self._rebuild_orbit(k)
            if known_order is not None and self._orbit_product() == known_order:
                return
            i = home

    def _check_level(self, i):
        lvl = self.levels[i]
        gens = self._level_gens(i)
        for delta in sorted(lvl.tree):
            t = self._rep(i, delta)
            for arr, inv in gens:
                image = int(arr[delta])
                u_inv = self._rep_inv(i, image)
                schreier = _compose(_compose(t, arr), u_inv)
                residue, _ = self._sift_arr(schreier, i + 1)
                if residue is not None:
                    return residue
        return None

    # -- queries -----------------------------------------------------------

    def _orbit_product(self):
        n = 1
        for lvl in self.levels:
            n *= len(lvl.tree)
        return n

    @property
    def order(self):
        return self._order if self._order is not None else self._orbit_product()

    def base(self):
        return [lvl.point for lvl in self.levels]

    def contains_arr(self, arr):
        residue, _ = self._sift_arr(np.asarray(arr, dtype=np.int32))
        return residue is None

    def contains(self, p):
        if p.degree != self.degree:
            return False
        return self.contains_arr(p.images)

    def strong_generators(self):
        out = [Permutation(arr) for _, arr, _ in self.sgens]
        out.sort(key=lambda p: p.key())
        return out

    def random_arr(self, rng):
        # elements factor uniquely as t_k * ... * t_0 along the chain, so
        # independent uniform transversal picks give the exact uniform law
        out = None
        for i in range(len(self.levels) - 1, -1, -1):
            lvl = self.levels[i]
            pts = sorted(lvl.tree)
            delta = pts[rng.randrange(len(pts))]
            t = self._rep(i, delta)
            out = t if out is None else _compose(out, t)
        if out is None:
            return np.arange(self.degree, dtype=np.int32)
        return out

    def random_element(self, rng):
        """Exactly uniform over the group: independent transversal picks."""
        return Permutation(self.random_arr(rng))

    def iter_elements(self, limit=None):
        """Every element exactly once (depth-first over transversals)."""
        if limit is not None and self.order > limit:
            raise LimitExceeded(f"order {self.order} exceeds limit {limit}")
        ident = np.arange(self.degree, dtype=np.int32)
        transversals = [
            [self._rep(i, delta) for delta in sorted(lvl.tree)]
            for i, lvl in enumerate(self.levels)
        ]

        def rec(i):
            if i == len(self.levels):
                yield ident
                return
            for h in rec(i + 1):
                for t in transversals[i]:
                    yield _compose(h, t)

        for arr in rec(0):
            yield Permutation(arr.copy())

    def stabilizer_suffix(self, k):
        """Strong generators of the pointwise stabilizer of the first k base
        points (valid because the chain is complete)."""
        return [Permutation(arr) for home, arr, _ in self.sgens if home >= k]


class LimitExceeded(RuntimeError):
    """An operation refused to run past a configured resource limit."""
