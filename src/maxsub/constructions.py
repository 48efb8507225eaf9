"""Group constructions: congruence towers over a complemented abelian
minimal normal subgroup, automorphism groups by certified generator-image
search, orbit censuses of generating tuples, and (sub)direct products built
from identified tuples.

The automorphism search fixes the lexicographically first greedy generating
tuple, filters candidate images by (element order, class size) fingerprints
and short-word order probes, and certifies every surviving candidate by a
full multiplication-consistency check over the element table.  The count of
valid image tuples is exactly |Aut G| because Aut G acts freely on
generating tuples.
"""

from __future__ import annotations

import numpy as np

from .bsgs import LimitExceeded
from .group import (GroupHandle, generates, group_from_generators,
                    is_abelian, is_normal, small_generating_set)
from .lattice import DEFAULT_ORDER_LIMIT, subgroup_classes
from .modules import SectionSpace, intertwiner_space_dim, minimal_submodule
from .perms import Permutation
from .probgen import phi
from .structure import complement_solution_count
from .tables import element_table

AUT_ELEMENT_BUDGET = 5000
MATERIALIZE_DEGREE_LIMIT = 1024


# -- towers ---------------------------------------------------------------------

class CrownedTower:
    __slots__ = ("base", "socle_part", "k", "tower", "q", "h1")

    def __init__(self, base, socle_part, k, tower, q, h1):
        self.base = base
        self.socle_part = socle_part
        self.k = k
        self.tower = tower
        self.q = q
        self.h1 = h1

    def __repr__(self):
        return (f"<tower k={self.k} order={self.tower.order} "
                f"q={self.q} h1={self.h1}>")


def _check_tower_inputs(L, N):
    if not N.is_subgroup_of(L) or not is_normal(L, N):
        raise ValueError("N must be a normal subgroup of L")
    if not is_abelian(N):
        raise ValueError("N must be abelian")
    from .simptable import prime_power_split
    split = prime_power_split(N.order)
    if split is None:
        raise ValueError("an abelian minimal normal subgroup has prime power order")
    p, dim = split
    space = SectionSpace(L, N, L.subgroup([], known_order=1), p)
    basis = minimal_submodule(space.gen_matrices, p, space.dim, seed=0)
    if basis.shape[0] != space.dim:
        raise ValueError("N is not a minimal normal subgroup of L")
    cnt = complement_solution_count(L, N, L.subgroup([], known_order=1))
    if cnt == 0:
        raise ValueError("N is not complemented in L")
    return p, space, cnt


def end_size(L, N):
    """|End_{L/N}(N)|: the size of the endomorphism field of the module."""
    from .simptable import prime_power_split
    p, _ = prime_power_split(N.order)
    space = SectionSpace(L, N, L.subgroup([], known_order=1), p)
    e = intertwiner_space_dim(space.gen_matrices, space.gen_matrices, p)
    return p ** e


def build_Lk(L, N, k):
    """The congruence subgroup of L^k of tuples equal modulo N, realized on
    k copies of the points of L."""
    if k < 1:
        raise ValueError("k must be at least 1")
    p, space, cnt = _check_tower_inputs(L, N)
    q = end_size(L, N)
    h1 = cnt // N.order
    if k == 1:
        return CrownedTower(L, N, 1, L, q, h1)
    deg = L.degree
    total = deg * k
    gens = []
    for g in L.generators:
        arr = np.arange(total, dtype=np.int32)
        for c in range(k):
            arr[c * deg:(c + 1) * deg] = g.images + c * deg
        gens.append(Permutation(arr))
    for c in range(k - 1):
        for gn in N.generators:
            arr = np.arange(total, dtype=np.int32)
            arr[c * deg:(c + 1) * deg] = gn.images + c * deg
            gens.append(Permutation(arr))
    order = N.order ** (k - 1) * L.order
    tower = group_from_generators(total, gens, name=f"L_{k}", known_order=order)
    return CrownedTower(L, N, k, tower, q, h1)


# -- automorphisms ----------------------------------------------------------------

class AutomorphismGroup:
    """Aut G on the element table: order, all element maps, and a small
    generating set of maps."""

    __slots__ = ("group", "order", "maps", "generator_maps", "table",
                 "gen_tuple", "gen_images")

    def __init__(self, group, order, maps, generator_maps, table, gen_tuple,
                 gen_images):
        self.group = group
        self.order = order
        self.maps = maps                    # list of arrays: element index maps
        self.generator_maps = generator_maps
        self.table = table
        self.gen_tuple = gen_tuple          # indices of the searched tuple
        self.gen_images = gen_images        # list of image index tuples

    def __repr__(self):
        return f"<Aut of order {self.order}>"


def automorphisms(G):
    """Exact automorphism group by certified generator-image search."""
    cached = G._cache.get("automorphisms")
    if cached is not None:
        return cached
    if G.order > AUT_ELEMENT_BUDGET:
        raise LimitExceeded(
            f"element table needs order <= {AUT_ELEMENT_BUDGET}, "
            f"got {G.order}")
    T = element_table(G)
    n = T.n
    mult = T.mult
    orders = T.orders
    classes = T.conjugacy_classes()
    class_of = np.empty(n, dtype=np.int32)
    class_size = np.empty(n, dtype=np.int32)
    for ci, (rep, members) in enumerate(classes):
        class_of[members] = ci
        class_size[members] = len(members)
    # greedy lexicographically-first generating tuple
    tup = []
    have = {T.identity_index}
    while len(have) < n:
        for i in range(n):
            if i not in have:
                tup.append(i)
                have = set(T.closure(tup).tolist())
                break
    m = len(tup)
    # fingerprint candidates
    cand = []
    for a in tup:
        fp = (int(orders[a]), int(class_size[a]))
        cand.append([b for b in range(n)
                     if (int(orders[b]), int(class_size[b])) == fp])
    # short probe words over tuple indices (pairs and a few triples)
    probes = []
    for i in range(m):
        for j in range(m):
            if i != j:
                probes.append((i, j))
    for i in range(m):
        for j in range(m):
            if i != j:
                probes.append((i, j, i))
    def word_order(assign, word):
        x = assign[word[0]]
        for t in word[1:]:
            x = int(mult[x, assign[t]])
        return int(orders[x])

    probe_targets = [word_order(tup, w) for w in probes]

    # BFS evaluation order over the whole group
    parent = np.full(n, -1, dtype=np.int64)
    parent_gen = np.full(n, -1, dtype=np.int64)
    bfs = [T.identity_index]
    seen = np.zeros(n, dtype=bool)
    seen[T.identity_index] = True
    head = 0
    while head < len(bfs):
        x = bfs[head]
        head += 1
        for gi, a in enumerate(tup):
            y = int(mult[x, a])
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                parent_gen[y] = gi
                bfs.append(y)
    bfs_arr = np.array(bfs[1:], dtype=np.int64)

    valid_maps = []
    valid_images = []
    mult64 = mult.astype(np.int64)

    def certify(assign):
        phi = np.empty(n, dtype=np.int64)
        phi[T.identity_index] = T.identity_index
        for y in bfs_arr:
            phi[y] = mult64[phi[parent[y]], assign[parent_gen[y]]]
        # full consistency: phi(x * a_i) == phi(x) * phi(a_i) for all x, i
        for gi in range(m):
            lhs = phi[mult64[:, tup[gi]]]
            rhs = mult64[phi, assign[gi]]
            if not np.array_equal(lhs, rhs):
                return None
        if len(np.unique(phi)) != n:
            return None
        return phi

    def dfs(pos, assign):
        if pos == m:
            phi = certify(assign)
            if phi is not None:
                valid_maps.append(phi.astype(np.int32))
                valid_images.append(tuple(assign))
            return
        for b in cand[pos]:
            assign.append(b)
            ok = True
            for w, target in zip(probes, probe_targets):
                if all(t <= pos for t in w):
                    if word_order(assign, w) != target:
                        ok = False
                        break
            if ok:
                dfs(pos + 1, assign)
            assign.pop()

    dfs(0, [])
    if not valid_maps:
        raise RuntimeError("automorphism search found nothing (not even inner)")
    # a small generating set of the map group, as degree-n permutations
    gen_maps = small_generating_set(
        n, sorted((Permutation(m) for m in valid_maps), key=lambda q: q.key()),
        len(valid_maps))
    aut = AutomorphismGroup(G, len(valid_maps), valid_maps, gen_maps, T,
                            tuple(tup), valid_images)
    G._cache["automorphisms"] = aut
    return aut


# -- orbit census -----------------------------------------------------------------

class OrbitCensus:
    __slots__ = ("group", "d", "phi_d", "aut_order", "orbit_count",
                 "orbit_representatives")

    def __init__(self, group, d, phi_d, aut_order, orbit_count, reps):
        self.group = group
        self.d = d
        self.phi_d = phi_d
        self.aut_order = aut_order
        self.orbit_count = orbit_count
        self.orbit_representatives = reps

    def to_json(self):
        return {"d": self.d, "phi_d": self.phi_d,
                "aut_order": self.aut_order,
                "orbit_count": self.orbit_count}

    def __repr__(self):
        return (f"<census d={self.d} phi={self.phi_d} aut={self.aut_order} "
                f"orbits={self.orbit_count}>")


def generating_pair_codes(G, lattice_limit=DEFAULT_ORDER_LIMIT):
    """Codes i*n + j of all generating ordered pairs, via the bitmask of
    maximal-subgroup memberships (a pair generates iff no maximal contains
    both entries)."""
    lat = subgroup_classes(G, lattice_limit)
    table = lat.table
    n = table.n
    maximal_masks = []
    for cls in lat.maximal_classes():
        maximal_masks.extend(cls.conjugate_masks)
    if len(maximal_masks) > 63:
        raise LimitExceeded(
            f"{len(maximal_masks)} maximal subgroups exceed the 63-bit "
            "membership scheme")
    member = np.zeros(n, dtype=np.uint64)
    for bit, mask in enumerate(maximal_masks):
        from .tables import indices_of
        idx = indices_of(mask, n)
        member[idx] |= np.uint64(1 << bit)
    codes = []
    for i in range(n):
        free = np.nonzero((member & member[i]) == 0)[0]
        if len(free):
            codes.append(i * n + free.astype(np.int64))
    if not codes:
        return np.array([], dtype=np.int64), member
    return np.concatenate(codes), member


def tuple_orbits(G, d, lattice_limit=DEFAULT_ORDER_LIMIT):
    """Decompose the generating d-tuples into orbits of Aut G.

    phi_d comes from Moebius inversion; the sweep runs over packed tuple
    codes under the automorphism element maps.  Exact divisibility
    r * |Aut| = phi_d is asserted, as is freeness orbit by orbit.
    """
    cached = G._cache.get(("tuple_orbits", d))
    if cached is not None:
        return cached
    if d == 2:
        # the pair scan reads G's lattice: refuse before any other work
        subgroup_classes(G, lattice_limit)
    aut = automorphisms(G)
    T = aut.table
    n = T.n
    phi_d = phi(G, d, lattice_limit)
    if phi_d % aut.order:
        raise RuntimeError(
            f"phi_{d} = {phi_d} is not divisible by |Aut| = {aut.order}")
    if d == 2:
        codes, _ = generating_pair_codes(G, lattice_limit)
        if len(codes) != phi_d:
            raise RuntimeError("pair scan disagrees with Moebius phi")
    else:
        codes = _generating_tuple_codes_brute(G, T, d)
        if len(codes) != phi_d:
            raise RuntimeError("tuple scan disagrees with Moebius phi")
    gen_maps = [np.asarray(m.images, dtype=np.int64)
                for m in aut.generator_maps] or \
        [np.arange(n, dtype=np.int64)]
    code_set = set(codes.tolist())
    reps = []
    orbit_count = 0
    visited = set()
    for c in codes.tolist():
        if c in visited:
            continue
        orbit = {c}
        frontier = [c]
        while frontier:
            x = frontier.pop()
            digits = _decode(x, n, d)
            for mp in gen_maps:
                y = _encode([int(mp[t]) for t in digits], n)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        if len(orbit) != aut.order:
            raise RuntimeError(
                f"orbit of size {len(orbit)} breaks freeness (|Aut| = "
                f"{aut.order})")
        visited |= orbit
        orbit_count += 1
        rep_code = min(orbit)
        reps.append(tuple(T.perm_of(t) for t in _decode(rep_code, n, d)))
    census = OrbitCensus(G, d, phi_d, aut.order, orbit_count, reps)
    G._cache[("tuple_orbits", d)] = census
    return census


def _decode(code, n, d):
    out = []
    for _ in range(d):
        out.append(code % n)
        code //= n
    return list(reversed(out))


def _encode(digits, n):
    code = 0
    for t in digits:
        code = code * n + t
    return code


def _generating_tuple_codes_brute(G, T, d):
    from itertools import product
    n = T.n
    out = []
    for tup in product(range(n), repeat=d):
        if len(T.closure(list(tup))) == n:
            out.append(_encode(list(tup), n))
    return np.array(out, dtype=np.int64)


# -- subdirect products and the hat construction -----------------------------------

def subdirect(factors):
    """Subdirect product from (handle, generating d-tuple) pairs: the stack
    of the j-th tuple entries over all factors generates the result."""
    if not factors:
        raise ValueError("empty factor list")
    arities = {len(tup) for _, tup in factors}
    if len(arities) != 1:
        raise ValueError("all tuples must share one arity")
    d = arities.pop()
    for Gi, tup in factors:
        if not generates(Gi, list(tup)):
            raise ValueError("a tuple does not generate its factor")
    total = sum(Gi.degree for Gi, _ in factors)
    offsets = []
    off = 0
    for Gi, _ in factors:
        offsets.append(off)
        off += Gi.degree
    gens = []
    for j in range(d):
        arr = np.arange(total, dtype=np.int32)
        for (Gi, tup), o in zip(factors, offsets):
            arr[o:o + Gi.degree] = tup[j].images + o
        gens.append(Permutation(arr))
    H = GroupHandle(total, gens, name="subdirect")
    H._cache["subdirect_blocks"] = [(Gi, o) for (Gi, _), o in
                                    zip(factors, offsets)]
    return H


def hat(G, d, materialize_degree_limit=MATERIALIZE_DEGREE_LIMIT,
        lattice_limit=DEFAULT_ORDER_LIMIT):
    """The subdirect product over one representative generating d-tuple per
    Aut-orbit.  Returns (handle or None, census); the handle is None when
    the target degree exceeds the materialization limit."""
    census = tuple_orbits(G, d, lattice_limit)
    degree = census.orbit_count * G.degree
    if degree > materialize_degree_limit:
        return None, census
    H = subdirect([(G, rep) for rep in census.orbit_representatives])
    H.name = f"hat({G.name},{d})"
    return H, census
