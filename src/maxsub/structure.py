"""Chief series, chief factor descriptors, crowns and Baer classification.

The series is built ascending: repeatedly find one minimal normal subgroup
of G above the current term.  Three refinement tools drive the search on a
section (N, W) with both ends normal in G:

* derived refinement: replace W by N[W,W] until the section is abelian or
  perfect;
* abelian sections: split off the elementary layer for one prime, then
  spin a minimal G-submodule (coordinates from `modules`);
* perfect sections: per-orbit restriction.  The subgroup of W acting
  within the image of N on some orbit is normal in G; when it collapses to
  N the section embeds in a small quotient of the orbit image, where chief
  minimality is decided exactly and pulled back.

Quotients are never materialized above the coset limit; all large-group
work happens through orbit restrictions, point labels and prefixed
stabilizer chains.
"""

from __future__ import annotations

import random
from math import lcm

import numpy as np

from .bsgs import LimitExceeded, _compose, _invert
from .group import (DEFAULT_COSET_LIMIT, GroupHandle, commutators,
                    coset_action, coset_canonical, coset_position, coset_table,
                    group_from_generators, is_abelian, is_normal,
                    kernel_of_action_schreier, normal_closure,
                    small_generating_set, stabilizer_of_action_point)
from .lattice import DEFAULT_ORDER_LIMIT, subgroup_classes
from .modules import (ElementaryLayer, SectionSpace, Subspace,
                      intertwiner_space_dim, minimal_submodule, tree_relators)
from .perms import Permutation
from .simptable import prime_factors, prime_power_split, split_simple_power

ELEMENT_BUDGET = 40000
ISOMORPHISM_BUDGET = 200000


class NormalSection:
    """A pair K <= H of subgroups normal in the parent G."""

    __slots__ = ("parent", "upper", "lower")

    def __init__(self, parent, upper, lower):
        self.parent = parent
        self.upper = upper
        self.lower = lower

    @property
    def order(self):
        return self.upper.order // self.lower.order

    def __repr__(self):
        return f"<section {self.upper.order}/{self.lower.order}>"


class ChiefFactorDescriptor:
    __slots__ = ("section", "order", "abelian", "prime", "dim", "simple_id",
                 "copies", "ambiguity_note", "centralizer", "frattini",
                 "complemented", "space", "factor_action", "index_in_series")

    def __init__(self, section):
        self.section = section
        self.order = section.order
        self.abelian = None
        self.prime = None
        self.dim = None
        self.simple_id = None
        self.copies = None
        self.ambiguity_note = None
        self.centralizer = None
        self.frattini = None
        self.complemented = None     # abelian factors only; None otherwise
        self.space = None            # SectionSpace for abelian factors
        self.factor_action = None    # FactorAction for non-abelian factors
        self.index_in_series = None

    def __repr__(self):
        kind = "abelian" if self.abelian else (self.simple_id or "non-abelian")
        return f"<chief factor {self.order} ({kind})>"


class FactorAction:
    """Conjugation action of G on the cosets of K in H (the chief factor
    as a G-set), with its kernel C_G(H/K) and the primitive group
    G/C_G(H/K)."""

    def __init__(self, G, H, K):
        self.parent = G
        n = H.order // K.order
        if n > DEFAULT_COSET_LIMIT:
            raise LimitExceeded(
                f"the chief factor's {n} cosets exceed the coset limit "
                f"{DEFAULT_COSET_LIMIT}")
        Kchain = K.chain
        reps, index_of, _ = coset_table(
            [h.images for h in H.generators if not h.is_identity()], Kchain, n)
        self.n = n

        def conj_array(g):
            garr = g.images
            ginv = g.inv().images
            out = np.empty(n, dtype=np.int32)
            for j, r in enumerate(reps):
                out[j] = coset_position(Kchain, index_of,
                                        _compose(_compose(ginv, r), garr))
            return out

        self._conj_array = conj_array
        self.gen_arrays = [conj_array(g) for g in G.generators]
        self.centralizer = kernel_of_action_schreier(G, self.gen_arrays, n)
        self._primitive = None

    def array_of(self, p):
        return self._conj_array(p)

    @property
    def primitive(self):
        """G/C_G(H/K) as a handle, built once: G itself when the centralizer
        is trivial, otherwise the image group on the n cosets."""
        if self._primitive is None:
            if self.centralizer.order == 1:
                self._primitive = self.parent
            else:
                self._primitive = group_from_generators(
                    self.n, [Permutation(a) for a in self.gen_arrays],
                    name="associated-primitive")
        return self._primitive

    def to_primitive(self, p):
        """The image in `primitive` of an element of G."""
        if self.primitive is self.parent:
            return p
        return Permutation(self.array_of(p))


# -- general small-group helpers ----------------------------------------------

def _conjugacy_class_reps(G):
    return _conjugation_orbit_reps(G.elements(limit=ELEMENT_BUDGET),
                                   G.generators)


def _conjugation_orbit_reps(els, gens):
    """First member, in list order, of each orbit of <gens> acting by
    conjugation on an element list closed under that action."""
    index = {p.images.tobytes(): i for i, p in enumerate(els)}
    seen = [False] * len(els)
    conj = [(g, g.inv()) for g in gens]
    reps = []
    for i, p in enumerate(els):
        if seen[i]:
            continue
        reps.append(p)
        frontier = [p]
        seen[i] = True
        while frontier:
            x = frontier.pop()
            for g, ginv in conj:
                y = ginv * x * g
                j = index[y.images.tobytes()]
                if not seen[j]:
                    seen[j] = True
                    frontier.append(y)
    return reps


def minimal_normal_subgroups(G):
    """All minimal normal subgroups (element-closure route, desk scale).

    Every minimal normal subgroup is the normal closure of any of its
    nontrivial elements, so the minimal members of the set of closures of
    class representatives are exactly the minimal normal subgroups.
    """
    if G.order == 1:
        return []
    if G.order > ELEMENT_BUDGET:
        raise LimitExceeded(
            f"minimal normal subgroups need order <= {ELEMENT_BUDGET}, "
            f"got {G.order}")
    closures = []
    for rep in _conjugacy_class_reps(G):
        if rep.is_identity():
            continue
        N = normal_closure(G, [rep])
        if not any(M.order == N.order
                   and all(N.contains(g) for g in M.generators)
                   for M in closures):
            closures.append(N)
    # the closures are distinct, so the minimal ones need no second dedupe
    out = [N for N in closures
           if not any(M.order < N.order
                      and all(N.contains(g) for g in M.generators)
                      for M in closures)]
    return sorted(out, key=lambda H: (H.order,
                                      tuple(g.key() for g in H.generators)))


# -- chief series --------------------------------------------------------------

def _section_is_abelian(W, K):
    return all(K.contains(c) for c in commutators(W.generators))


def _order_mod(K, w):
    """Order of the image of w in W/K (section need not be abelian)."""
    e = w.order()
    for q in prime_factors(e):
        while e % q == 0 and K.contains(w ** (e // q)):
            e //= q
    return e


def _is_elementary_abelian_group(W, p):
    key = ("elab", p)
    got = W._cache.get(key)
    if got is None:
        got = (all(g.order() in (1, p) for g in W.generators)
               and is_abelian(W))
        W._cache[key] = got
    return got


def _orbit_partition(G):
    key = "orbits"
    orbs = G._cache.get(key)
    if orbs is None:
        seen = np.zeros(G.degree, dtype=bool)
        orbs = []
        arrs = [g.images for g in G.generators]
        for s in range(G.degree):
            if seen[s]:
                continue
            orb = [s]
            seen[s] = True
            head = 0
            while head < len(orb):
                x = orb[head]
                head += 1
                for a in arrs:
                    y = int(a[x])
                    if not seen[y]:
                        seen[y] = True
                        orb.append(y)
            orbs.append(sorted(orb))
        G._cache[key] = orbs
    return orbs


def _restrict(arr, points, position):
    return np.array([position[int(arr[p])] for p in points], dtype=np.int32)


def _find_minimal_normal_above(G, N, rng):
    W = G
    while True:
        D = _derived_over(G, N, W)
        if D.order == W.order:
            # perfect section
            step = _peel_orbits(G, N, W, rng)
            if step is not None:
                kind, X = step
                if kind == "chief":
                    return X
                W = X
                continue
            X = _materialize_step(G, N, W)
            if X is not None:
                return X
            raise LimitExceeded(
                "perfect section resisted orbit peeling and the quotient "
                f"index {G.order // N.order} exceeds the coset limit")
        if D.order > N.order:
            W = D
            continue
        # abelian section
        return _abelian_chief_above(G, N, W, rng)


def _derived_over(G, N, W):
    """N[W,W] as a normal subgroup of G.

    [W,W] is normal in G (W is) and does not depend on N, so it is cached
    on W; the common cases N <= [W,W] and [W,W] <= N avoid building the
    join.
    """
    DW = W._cache.get("derived_in_parent")
    if DW is None:
        DW = normal_closure(G, commutators(W.generators))
        W._cache["derived_in_parent"] = DW
    if all(N.contains(g) for g in DW.generators):
        return N
    if all(DW.contains(g) for g in N.generators):
        return DW
    join = G.subgroup(list(N.generators) + list(DW.chain.strong_generators()))
    join.chain
    return join


def _abelian_chief_above(G, N, W, rng):
    exps = [_order_mod(N, w) for w in W.generators]
    exponent = lcm(*[e for e in exps if e > 1]) if any(e > 1 for e in exps) else 1
    primes = prime_factors(exponent)
    p = primes[0] if len(primes) == 1 and exponent == primes[0] else None
    if p is None:
        # peel one elementary layer: (W/N)^(e/p) for the smallest prime
        q = primes[0]
        power = exponent // q
        gens = [w ** power for w in W.generators]
        X = G.subgroup(list(N.generators) + [g for g in gens
                                             if not N.contains(g)])
        X.chain  # force
        return _abelian_chief_above(G, N, X, rng)
    # elementary abelian section of exponent p
    if _is_elementary_abelian_group(W, p):
        layer = _elementary_layer_for(W, p)
        sec = SectionSpace(G, W, N, p, layer=layer)
    else:
        sec = SectionSpace(G, W, N, p)
    if sec.dim == 0:
        raise RuntimeError("empty abelian section")
    basis = minimal_submodule(sec.gen_matrices, p, sec.dim,
                              seed=rng.randrange(1 << 30))
    lifts = [sec.lift(row) for row in basis]
    X = G.subgroup(list(N.chain.strong_generators()) + lifts,
                   known_order=N.order * p ** basis.shape[0])
    X.chain
    return X


def _elementary_layer_for(W, p):
    layer = W._cache.get("elementary_layer")
    if layer is None:
        layer = ElementaryLayer(W, p)
        W._cache["elementary_layer"] = layer
    return layer


def _peel_orbits(G, N, W, rng):
    """Refine a perfect section through orbit restrictions.

    Returns ("descend", X) with N < X < W, ("chief", X) when W/N was
    certified chief via a faithful orbit image, or None if every orbit was
    uninformative.
    """
    orbits = _orbit_partition(G)
    order = list(range(len(orbits)))
    for oi in order:
        pts = orbits[oi]
        if len(pts) == 1:
            continue
        pos = {p: i for i, p in enumerate(pts)}
        JW, JN = _orbit_image_groups(pts, pos, W, N)
        if JW.order == JN.order:
            continue
        # X = preimage in W of J_N under restriction
        rws = [Permutation(_restrict(w.images, pts, pos))
               for w in W.generators]
        act = coset_action(JW, JN)
        arrays = [act.map.apply(rw).images for rw in rws]
        X = stabilizer_of_action_point(W, arrays, act.quotient.degree, point=0)
        if N.order < X.order < W.order:
            if not is_normal(G, X):
                raise RuntimeError("orbit peel produced a non-normal subgroup")
            return ("descend", X)
        if X.order == N.order:
            # W/N embeds in J_W/J_N; find a minimal G-invariant step there
            JG = GroupHandle(len(pts), list(JW.generators) + [
                Permutation(_restrict(g.images, pts, pos))
                for g in G.generators])
            S = _minimal_invariant_normal_over(JG, JW, JN)
            act2 = coset_action(JW, S)
            arrays2 = [act2.map.apply(rw).images for rw in rws]
            X2 = stabilizer_of_action_point(W, arrays2, act2.quotient.degree,
                                            point=0)
            return ("chief", X2)
    return None


def _minimal_invariant_normal_over(JG, JW, JN):
    """Smallest S with J_N < S <= J_W, S normalized by the invariance group
    J_G (all small-group work; J_G contains J_W).

    A minimal such S is the invariant closure of J_N and any x in S - J_N,
    and every such x is J_W-conjugate to a class representative, so the
    smallest closure over the representatives is already minimal."""
    best = None
    for rep in _conjugacy_class_reps(JW):
        if JN.contains(rep):
            continue
        # normal closure of <J_N, rep> under the full invariance group
        S = normal_closure(JG, list(JN.generators) + [rep])
        # S must stay inside J_W
        if S.order > JW.order or not S.is_subgroup_of(JW):
            continue
        if best is None or S.order < best.order:
            best = S
    if best is None:
        raise RuntimeError("no invariant normal subgroup found in orbit image")
    return best


def _materialize_step(G, N, W):
    if G.order // N.order > DEFAULT_COSET_LIMIT:
        return None
    act = coset_action(G, N)
    Q = act.quotient
    Wbar = Q.subgroup([act.map.apply(w) for w in W.generators])
    if Wbar.order == 1:
        return None
    target = _minimal_invariant_normal_over(
        Q, Wbar, Q.subgroup([], known_order=1))
    # pull back: G acts on cosets of target in Q through the quotient map
    act2 = coset_action(Q, target)
    arrays = [act2.map.apply(act.map.gen_images[i]).images
              for i in range(len(G.generators))]
    X = stabilizer_of_action_point(G, arrays, act2.quotient.degree, point=0)
    return X


def chief_series(G, seed=0):
    """Ascending chief series as a list of ChiefFactorDescriptors."""
    cache_key = ("chief_series", seed)
    got = G._cache.get(cache_key)
    if got is not None:
        return got
    rng = random.Random(seed * 0x9E3779B1 + 0xC41EF)
    subgroups = [G.subgroup([], known_order=1)]
    N = subgroups[0]
    while N.order < G.order:
        X = _find_minimal_normal_above(G, N, rng)
        if X.order <= N.order or X.order > G.order or G.order % X.order:
            raise RuntimeError("chief series step produced a bad subgroup")
        subgroups.append(X)
        N = X
    factors = []
    for i in range(len(subgroups) - 1):
        d = describe_factor(G, subgroups[i + 1], subgroups[i])
        d.index_in_series = i
        factors.append(d)
    G._cache[cache_key] = factors
    return factors


def describe_factor(G, H, K):
    """Populate a descriptor for the chief factor H/K of G."""
    sec = NormalSection(G, H, K)
    d = ChiefFactorDescriptor(sec)
    d.abelian = _section_is_abelian(H, K)
    if d.abelian:
        split = prime_power_split(d.order)
        if split is None:
            raise RuntimeError("abelian chief factor of non-prime-power order")
        d.prime, d.dim = split
        d.space = SectionSpace(G, H, K, d.prime)
        if d.space.dim != d.dim:
            raise RuntimeError("section dimension mismatch")
        d.centralizer = _abelian_centralizer(G, d)
    else:
        split = split_simple_power(d.order)
        if split is None:
            raise RuntimeError(
                f"non-abelian chief factor order {d.order} has no simple root")
        s, k, names = split
        d.copies = k
        d.factor_action = FactorAction(G, H, K)
        d.centralizer = d.factor_action.centralizer
        if len(names) == 1:
            d.simple_id = names[0]
        else:
            d.simple_id, d.ambiguity_note = _disambiguate_simple(
                d.factor_action, H)
    return d


def _abelian_centralizer(G, d):
    """Kernel of the conjugation action on the factor (read from the action
    matrices: points of the factor are its p^dim vectors).  Built through
    Schreier generators so no full chain of G is rebuilt."""
    vecs = _vectors(d.prime, d.dim)
    arrays = _matrix_actions(vecs, d.prime, d.space.gen_matrices)
    return kernel_of_action_schreier(G, arrays, len(vecs))


def _vectors(p, dim):
    """All p**dim vectors of GF(p)^dim as the rows of an int64 table, row i
    holding the base-p digits of i, least significant first (so a row's
    code is its index).  Refused above the coset limit, before any
    allocation."""
    n = p ** dim
    if n > DEFAULT_COSET_LIMIT:
        raise LimitExceeded(
            f"GF({p})^{dim} has {n} vectors, above the coset limit "
            f"{DEFAULT_COSET_LIMIT}")
    codes = np.arange(n, dtype=np.int64)
    return codes[:, None] // p ** np.arange(dim, dtype=np.int64) % p


def _vector_codes(rows, p):
    """Code of each row of an integer table, its entries read mod p."""
    return (rows % p) @ p ** np.arange(rows.shape[1], dtype=np.int64)


def _matrix_actions(vecs, p, mats):
    """Permutation arrays of v -> vM on the codes of `vecs`, one per M."""
    return [_vector_codes(vecs @ M.astype(np.int64), p).astype(np.int32)
            for M in mats]


def _disambiguate_simple(fa, H):
    """Order 20160: Alt(8) has elements of order 15, PSL(3,4) has none.

    The factor is the image of H in the primitive group.  Being simple, it
    acts faithfully on each of its non-trivial orbits, so the census of its
    elements runs on the shortest one."""
    T = fa.primitive.subgroup([fa.to_primitive(h) for h in H.generators])
    pts = min((o for o in _orbit_partition(T) if len(o) > 1), key=len)
    pos = {p: i for i, p in enumerate(pts)}
    T = group_from_generators(
        len(pts), [Permutation(_restrict(g.images, pts, pos))
                   for g in T.generators])
    if T.order != 20160:
        raise RuntimeError("simple factor of order 20160 acts unfaithfully")
    found15 = any(x.order() == 15 for x in T.chain.iter_elements())
    name = "Alt(8)" if found15 else "PSL(3,4)"
    note = ("order 20160 resolved by a census of the factor's elements "
            f"(order-15 element {'found' if found15 else 'absent'})")
    return name, note


# -- complements and Frattini flags --------------------------------------------

DIRECT_COMPLEMENT_ORDER_CAP = 10 ** 7


def complement_solution_count(G, H, K, space=None):
    """Number of complements of the elementary abelian section A = H/K in
    G/K, as one GF(p) linear system (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory (2005), section 7.6).

    A complement is <K, g_1 a_1, ..., g_d a_d> for exactly one twist
    (a_1, ..., a_d) in A^d of G's generators, so the count is the number
    of twists x for which every word w with w(g) in H has w(g a) in K.
    Those words are generated by the Reidemeister-Schreier relators of H
    in G: the non-tree edges c -> c g_i of a breadth-first spanning tree
    (`modules.tree_relators`) of the right cosets c of H, keyed by their
    canonical representatives.  With t_c the product walked to c and the
    twist of t_c equal to x C_c, the edge landing on c' gives
    x (C_c M_i + E_i - C_c') = -v(t_c'^-1 t_c g_i), where M_i is g_i's
    action matrix and v reads an element of H as its vector mod K.  The
    answer is 0 when the system is inconsistent and p^(width - rank)
    otherwise.  Refused above the coset limit, before any section space is
    built or any coset walked; `space` is H/K's SectionSpace when the
    caller has one."""
    index = G.order // H.order
    if index > DEFAULT_COSET_LIMIT:
        raise LimitExceeded(
            f"complements need the {index} cosets of H in G, above the "
            f"coset limit {DEFAULT_COSET_LIMIT}")
    if space is None:
        split = prime_power_split(H.order // K.order)
        if split is None or not _section_is_abelian(H, K):
            raise ValueError("complement counting is for abelian factors")
        space = SectionSpace(G, H, K, split[0])
    p, Hchain = space.p, H.chain
    gens = [g.images for g in G.generators]
    width = len(gens) * space.dim
    eqs = Subspace(p, width + 1)
    nodes = {}
    for rel, y, t in tree_relators(
            np.arange(G.degree, dtype=np.int32),
            lambda x, s: _compose(x, gens[s]),
            lambda x: coset_canonical(Hchain, x).tobytes(),
            space.gen_matrices, p, nodes):
        rhs = -space.to_vec(Permutation(_compose(_invert(t), y)))
        for col in np.vstack([rel, rhs]).T:
            eqs.add(col)
        if eqs.pivots and eqs.pivots[-1] == width:
            return 0
    if len(nodes) != index:
        raise RuntimeError(
            f"coset walk found {len(nodes)} cosets, expected {index}")
    return p ** (width - eqs.dim)


def _orbit_image_groups(pts, pos, *subgroups):
    out = []
    for S in subgroups:
        gens = [Permutation(_restrict(g.images, pts, pos))
                for g in S.chain.strong_generators()]
        out.append(group_from_generators(
            len(pts), gens or [Permutation.identity(len(pts))]))
    return out


def _orbit_image_lattice(G, oi, pts, pos, lattice_cap):
    """Cached (image group, lattice) of G restricted to one orbit."""
    key = ("orbit_image", oi)
    got = G._cache.get(key)
    if got is None:
        jgens = [Permutation(_restrict(g.images, pts, pos))
                 for g in G.generators]
        JG = group_from_generators(len(pts), jgens)
        lat = None
        if JG.order <= lattice_cap:
            lat = subgroup_classes(JG, order_limit=lattice_cap)
        got = (JG, lat)
        G._cache[key] = got
    return got


def _orbit_supplement_search(G, H, K, lattice_cap):
    """Search the orbit images for a maximal subgroup of G containing K but
    not H (certifying that H/K is non-Frattini).  Returns True or None."""
    from .tables import mask_of
    for oi, pts in enumerate(_orbit_partition(G)):
        if len(pts) == 1:
            continue
        pos = {p: i for i, p in enumerate(pts)}
        JG, lat = _orbit_image_lattice(G, oi, pts, pos, lattice_cap)
        if lat is None:
            continue
        JH, JK = _orbit_image_groups(pts, pos, H, K)
        if JH.order == JK.order:
            continue
        table = lat.table
        try:
            k_idx = [table.element_index(p) for p in JK.elements()]
            h_gens_idx = [table.element_index(p) for p in JH.generators]
        except KeyError:
            continue
        k_mask = mask_of(sorted(set(k_idx)), table.n)
        for cls in lat.maximal_classes():
            for m in cls.conjugate_masks:
                if k_mask & m == k_mask and not all(
                        (m >> i) & 1 for i in h_gens_idx):
                    return True
    return None


def ensure_factor_flags(G, d, lattice_cap=DEFAULT_ORDER_LIMIT):
    """Fill in the Frattini flag of a descriptor, and the complement flag of
    an abelian one.

    A non-abelian chief factor H/K is never Frattini, because Phi(G/K) is
    nilpotent (Doerk-Hawkes, Finite Soluble Groups, III.3).  An abelian one
    is Frattini exactly when it has no complement.  Up to order
    DIRECT_COMPLEMENT_ORDER_CAP, and with at most the coset limit of cosets
    of H, the complements are counted by `complement_solution_count`'s
    linear system.  Otherwise the orbit images are searched for a maximal
    subgroup supplementing H/K; when none is found, both abelian flags
    stay None."""
    if d.frattini is not None:
        return d
    if not d.abelian:
        d.frattini = False
        return d
    H, K = d.section.upper, d.section.lower
    if (G.order <= DIRECT_COMPLEMENT_ORDER_CAP
            and G.order // H.order <= DEFAULT_COSET_LIMIT):
        d.complemented = complement_solution_count(G, H, K, d.space) > 0
    else:
        found = _orbit_supplement_search(G, H, K, lattice_cap)
        d.complemented = True if found else None
    d.frattini = (not d.complemented) if d.complemented is not None else None
    return d


# -- G-isomorphism and G-connectedness ----------------------------------------

def g_isomorphic(G, f1, f2):
    """Whether two chief factors of the same group are G-isomorphic."""
    if f1 is f2:
        return True
    if f1.abelian != f2.abelian or f1.order != f2.order:
        return False
    if f1.abelian:
        return intertwiner_space_dim(f1.space.gen_matrices,
                                     f2.space.gen_matrices, f1.prime) > 0
    c1, c2 = f1.centralizer, f2.centralizer
    return (c1.order == c2.order
            and all(c2.contains(g) for g in c1.generators))


def group_isomorphisms(A, B):
    """All isomorphisms A -> B as element maps (dicts keyed by image bytes).

    Search over candidate images of a small generating set of A, certifying
    each candidate by full multiplication-consistency over A's elements.
    """
    if A.order != B.order:
        return
    els_a = A.elements(limit=ELEMENT_BUDGET)
    gens = small_generating_set(
        A.degree, sorted(A.generators, key=lambda p: -p.order()), A.order)
    b_els = B.elements(limit=ELEMENT_BUDGET)
    orders_b = {}
    for p in b_els:
        orders_b.setdefault(p.order(), []).append(p)
    # breadth-first words over A for evaluation
    index_a = {p.images.tobytes(): i for i, p in enumerate(els_a)}
    parent = [None] * len(els_a)
    idx_id = index_a[Permutation.identity(A.degree).images.tobytes()]
    frontier = [idx_id]
    seenw = {idx_id}
    order_list = [idx_id]
    while frontier:
        new = []
        for i in frontier:
            for gi, g in enumerate(gens):
                j = index_a[(els_a[i] * g).images.tobytes()]
                if j not in seenw:
                    seenw.add(j)
                    parent[j] = (i, gi)
                    new.append(j)
                    order_list.append(j)
        frontier = new
    if len(seenw) != len(els_a):
        raise RuntimeError("generating set failed to reach all elements")

    cand_lists = [orders_b.get(g.order(), []) for g in gens]
    from itertools import product
    tried = 0
    for images in product(*cand_lists):
        tried += 1
        if tried > ISOMORPHISM_BUDGET:
            raise LimitExceeded("isomorphism search budget exhausted")
        # build phi over all elements, verifying consistency
        phi = [None] * len(els_a)
        phi[idx_id] = Permutation.identity(B.degree)
        ok = True
        for j in order_list[1:]:
            i, gi = parent[j]
            phi[j] = phi[i] * images[gi]
        # full homomorphism check
        for i in range(len(els_a)):
            for gi, g in enumerate(gens):
                j = index_a[(els_a[i] * g).images.tobytes()]
                if not (phi[i] * images[gi]) == phi[j]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if len({p.images.tobytes() for p in phi}) != len(els_a):
            continue
        if not all(B.contains(p) for p in images):
            continue
        yield {els_a[i].images.tobytes(): phi[i] for i in range(len(els_a))}


def g_connected(G, f1, f2):
    """G-connectedness of two non-abelian chief factors.

    True when G-isomorphic, or when the quotient by the intersection of the
    two centralizers is a primitive group of type 3 whose minimal normal
    subgroups are the images of the factors.  Returns True/False or the
    string "undecided" when budgets prevent a certificate.
    """
    if f1.abelian or f2.abelian:
        raise ValueError("G-connectedness applies to non-abelian factors")
    if g_isomorphic(G, f1, f2):
        return True
    if f1.order != f2.order:
        return False
    fa1, fa2 = f1.factor_action, f2.factor_action
    n1, n2 = fa1.n, fa2.n
    combined = []
    for i in range(len(G.generators)):
        arr = np.concatenate([fa1.gen_arrays[i], fa2.gen_arrays[i] + n1])
        combined.append(Permutation(arr))
    Q = group_from_generators(n1 + n2, combined, name="pair-quotient")
    if Q.order > ELEMENT_BUDGET:
        return "undecided"

    def push(p):
        return Permutation(np.concatenate([fa1.array_of(p),
                                           fa2.array_of(p) + n1]))

    # the socle halves of a type-3 quotient are the images of the two
    # centralizers (the core of the hypothetical maximal is C1 n C2)
    M1 = Q.subgroup([push(h) for h in f2.centralizer.generators])
    M2 = Q.subgroup([push(h) for h in f1.centralizer.generators])
    if M1.order != f1.order or M2.order != f2.order:
        return False
    mins = minimal_normal_subgroups(Q)
    if len(mins) != 2:
        return False

    def same(Na, Nb):
        return Na.order == Nb.order and all(Nb.contains(g) for g in Na.generators)

    pairs_ok = ((same(mins[0], M1) and same(mins[1], M2))
                or (same(mins[0], M2) and same(mins[1], M1)))
    if not pairs_ok:
        return False
    return _has_diagonal_corefree_maximal(Q, M1, M2)


def _has_diagonal_corefree_maximal(Q, M1, M2):
    """Exact test: some full diagonal between the two minimal normals has a
    normalizer that is a core-free maximal subgroup of index |M1|.

    In a type-3 primitive group the core-free maximal U satisfies
    U n Soc = a full diagonal D and U = N(D), so exhausting the diagonals
    (one per isomorphism M1 -> M2) decides existence exactly.  Core-freeness
    reduces to U containing neither minimal normal.
    """
    n = M1.order
    m1_els = M1.elements(limit=ELEMENT_BUDGET)
    for iso in group_isomorphisms(M1, M2):
        delta_els = frozenset((p * iso[p.images.tobytes()]).images.tobytes()
                              for p in m1_els)
        U = _set_stabilizer(Q, delta_els, len(m1_els))
        if Q.order % U.order or Q.order // U.order != n:
            continue
        if any(not U.contains(g) for g in M1.generators) \
                and any(not U.contains(g) for g in M2.generators) \
                and _is_maximal_by_cosets(Q, U):
            return True
    return False


def _set_stabilizer(Q, elem_keys, set_size):
    """Stabilizer of a set of group elements under conjugation, by
    orbit-stabilizer with Schreier generators."""
    start = elem_keys
    orbit = {start: Permutation.identity(Q.degree)}
    queue = [start]
    gens = [(g, g.inv()) for g in Q.generators]
    sgens = []
    while queue:
        s = queue.pop()
        u = orbit[s]
        for g, ginv in gens:
            img = frozenset(
                (ginv * Permutation(np.frombuffer(k, dtype=np.int32)) * g
                 ).images.tobytes() for k in s)
            if img not in orbit:
                orbit[img] = u * g
                queue.append(img)
            else:
                v = orbit[img]
                sgens.append(u * g * v.inv())
    U = Q.subgroup([s for s in sgens if not s.is_identity()],
                   known_order=Q.order // len(orbit))
    return U


def _is_maximal_by_cosets(Q, U):
    """U maximal in Q, decided by primitivity: U is the stabilizer of coset
    0 in the action of Q on the cosets of U, so it is maximal exactly when
    that action is primitive.  The minimal block containing {0, b} is
    computed for one b in each orbit of U (Atkinson, Math. Comp. 29, 1975)."""
    index = Q.order // U.order
    Uchain = U.chain
    reps, index_of, actions = coset_table(
        [g.images for g in Q.generators], Uchain, index)
    uarrs = [u.images for u in Uchain.strong_generators()]
    seen = [False] * index
    seen[0] = True
    for b in range(1, index):
        if seen[b]:
            continue
        if not _minimal_block_is_everything(actions, index, b):
            return False
        seen[b] = True
        orbit = [b]
        for x in orbit:
            for ua in uarrs:
                y = coset_position(Uchain, index_of, _compose(reps[x], ua))
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
    return True


def _minimal_block_is_everything(actions, n, b):
    """Whether the finest block system of the action (one image list per
    generator) that joins 0 and b has a single block; union-find over the
    merged pairs."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parent[b] = 0
    blocks = n - 1
    pairs = [(0, b)]
    while pairs and blocks > 1:
        x, y = pairs.pop()
        for act in actions:
            rx, ry = find(act[x]), find(act[y])
            if rx != ry:
                parent[ry] = rx
                blocks -= 1
                pairs.append((rx, ry))
    return blocks == 1


# -- crowns ---------------------------------------------------------------------

class CrownRecord:
    __slots__ = ("factor_class", "length", "member_sections", "abelian",
                 "order", "members")

    def __init__(self, factor_class, members, abelian):
        self.factor_class = factor_class
        self.members = members
        self.member_sections = [m.section for m in members]
        self.length = len(members)
        self.abelian = abelian
        self.order = factor_class.order

    def __repr__(self):
        kind = "abelian" if self.abelian else "non-abelian"
        return f"<crown {kind} order={self.order} length={self.length}>"


def crowns(G, seed=0):
    """Crowns of G: G-isomorphism classes of complemented abelian chief
    factors and G-connectedness classes of the non-abelian ones (which are
    never Frattini)."""
    key = ("crowns", seed)
    got = G._cache.get(key)
    if got is not None:
        return got
    facs = chief_series(G, seed=seed)
    for d in facs:
        ensure_factor_flags(G, d)
    undecided = [d for d in facs if d.complemented is None and d.abelian]
    if undecided:
        raise LimitExceeded(
            f"{len(undecided)} abelian factors have undecided complement "
            "status; crowns would be incomplete")
    ab = [d for d in facs if d.abelian and d.complemented]
    nonab = [d for d in facs if not d.abelian]
    out = []
    for group_members in _partition(G, ab, g_isomorphic):
        out.append(CrownRecord(group_members[0], group_members, True))
    for group_members in _partition(G, nonab, _connected_or_raise):
        out.append(CrownRecord(group_members[0], group_members, False))
    G._cache[key] = out
    return out


def _connected_or_raise(G, f1, f2):
    r = g_connected(G, f1, f2)
    if r == "undecided":
        raise LimitExceeded(
            "G-connectedness undecided between two chief factors "
            f"(orders {f1.order}, {f2.order})")
    return r


def _partition(G, items, rel):
    groups = []
    for d in items:
        placed = False
        for grp in groups:
            if rel(G, grp[0], d):
                grp.append(d)
                placed = True
                break
        if not placed:
            groups.append([d])
    return groups


# -- Baer classification ------------------------------------------------------

def classify_maximal(G, M):
    """Baer type (1, 2 or 3) of a maximal subgroup via its primitive
    quotient G/M_G."""
    act = coset_action(G, M)
    Q = act.quotient
    mins = minimal_normal_subgroups(Q)
    if len(mins) == 1:
        N = mins[0]
        return 1 if is_abelian(N) else 2
    if len(mins) == 2:
        return 3
    raise RuntimeError(
        f"quotient by the core has {len(mins)} minimal normal subgroups; "
        "was the subgroup really maximal?")
