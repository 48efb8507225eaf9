"""Group handles: immutable permutation groups with lazy stabilizer chains.

A GroupHandle owns its generators and a verified stabilizer chain; all
derived data (element tables, lattices, chief series) is cached on the
handle by the modules that compute it.  Subgroups are always separate
handles living on the same point set as their parent.
"""

from __future__ import annotations

import random

import numpy as np

from .bsgs import LimitExceeded, StabilizerChain, _compose, _invert
from .perms import Permutation

DEFAULT_COSET_LIMIT = 20000


class GroupHandle:
    __slots__ = ("degree", "generators", "name", "_chain", "_known_order",
                 "_cache", "product_factors")

    def __init__(self, degree, generators, name=None, known_order=None,
                 chain=None):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise ValueError(
                    f"generator degree {g.degree} does not match {degree}")
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self._chain = chain
        self._known_order = known_order
        self._cache = {}
        self.product_factors = None

    # -- basics ------------------------------------------------------------

    @property
    def chain(self):
        if self._chain is None:
            self._chain = StabilizerChain(
                self.degree, self.generators, known_order=self._known_order)
        return self._chain

    @property
    def order(self):
        if self._chain is None and self._known_order is not None:
            return self._known_order
        return self.chain.order

    def contains(self, p):
        return self.chain.contains(p)

    def identity(self):
        return Permutation.identity(self.degree)

    def elements(self, limit=None):
        """All elements, canonically ordered; refuses above the limit."""
        if limit is not None and self.order > limit:
            raise LimitExceeded(
                f"group order {self.order} exceeds element limit {limit}")
        els = list(self.chain.iter_elements())
        els.sort(key=lambda p: p.key())
        return els

    def is_subgroup_of(self, other):
        return self.degree == other.degree and all(
            other.contains(g) for g in self.generators)

    def subgroup(self, gens, name=None, known_order=None):
        """Handle for the subgroup of the same point set generated by gens."""
        return GroupHandle(self.degree, gens, name=name, known_order=known_order)

    def uniform_random(self, seed):
        """Exactly uniform element; deterministic for a given seed."""
        rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        return self.chain.random_element(rng)

    def __repr__(self):
        label = self.name or f"degree-{self.degree} group"
        if self._chain is not None or self._known_order is not None:
            return f"<{label}, order {self.order}>"
        return f"<{label}>"


def group_from_generators(degree, gens, name=None, known_order=None):
    """Build and verify a handle; the chain is constructed eagerly so the
    order is available immediately."""
    G = GroupHandle(degree, gens, name=name, known_order=known_order)
    G.chain  # force verification
    return G


# -- epimorphisms ----------------------------------------------------------

class Epimorphism:
    """A surjective homomorphism given by generator images plus a concrete
    evaluation rule (needed to push arbitrary elements forward)."""

    __slots__ = ("source", "target", "gen_images", "_apply_fn", "kernel")

    def __init__(self, source, target, gen_images, apply_fn, kernel):
        self.source = source
        self.target = target
        self.gen_images = list(gen_images)
        self._apply_fn = apply_fn
        self.kernel = kernel

    def apply(self, p):
        return self._apply_fn(p)


# -- actions and kernels ----------------------------------------------------

def extend_action(G, action_arrays, action_degree):
    """Block-diagonal generators acting on the original points followed by
    `action_degree` new points; used to read kernels/stabilizers off a chain
    with a forced base prefix."""
    combined = []
    for g, act in zip(G.generators, action_arrays):
        arr = np.empty(G.degree + action_degree, dtype=np.int32)
        arr[:G.degree] = g.images
        arr[G.degree:] = np.asarray(act, dtype=np.int32) + G.degree
        combined.append(Permutation(arr))
    return combined


def _fixing_subgroup(G, action_arrays, action_degree, points, name):
    """Subgroup of G whose induced action fixes each of the given new points.

    action_arrays: one permutation array of {0..action_degree-1} per
    generator of G.  The combined chain represents G itself, so its order
    is known and certifies the build early; its base starts with the fixed
    points, and the chain is cut after the leading levels on them.
    """
    combined = extend_action(G, action_arrays, action_degree)
    prefix = tuple(G.degree + q for q in points)
    chain = StabilizerChain(G.degree + action_degree, combined,
                            base_prefix=prefix, known_order=G.order)
    fixed = set(prefix)
    cut = 0
    order = G.order
    while cut < len(chain.levels) and chain.levels[cut].point in fixed:
        order //= len(chain.levels[cut].tree)
        cut += 1
    gens = [Permutation(p.images[:G.degree].copy())
            for p in chain.stabilizer_suffix(cut)]
    return G.subgroup(gens, name=name, known_order=order)


def kernel_of_action(G, action_arrays, action_degree):
    """Subgroup of G acting trivially on the new points."""
    return _fixing_subgroup(G, action_arrays, action_degree,
                            range(action_degree), "kernel")


def kernel_of_action_schreier(G, action_arrays, action_degree):
    """Kernel of the action by Schreier generators through the image.

    The image group is enumerated breadth-first with transversal words
    lifted to G; the returned handle carries the exact order but builds its
    chain lazily, which matters when G is huge and only the order (or a
    generating set) of the kernel is needed.
    """
    ident_img = tuple(range(action_degree))
    gen_imgs = [tuple(int(x) for x in a) for a in action_arrays]
    ident_lift = np.arange(G.degree, dtype=np.int32)
    transversal = {ident_img: ident_lift}
    order_bfs = [ident_img]
    head = 0
    while head < len(order_bfs):
        q = order_bfs[head]
        head += 1
        for garr, gimg in zip(G.generators, gen_imgs):
            nxt = tuple(gimg[t] for t in q)
            if nxt not in transversal:
                transversal[nxt] = _compose(transversal[q], garr.images)
                order_bfs.append(nxt)
    image_order = len(transversal)
    if G.order % image_order:
        raise RuntimeError("image order does not divide the group order")
    kgens = []
    seen = set()
    for q in order_bfs:
        t_q = transversal[q]
        for garr, gimg in zip(G.generators, gen_imgs):
            nxt = tuple(gimg[t] for t in q)
            k = _compose(_compose(t_q, garr.images), _invert(transversal[nxt]))
            key = k.tobytes()
            if key not in seen:
                seen.add(key)
                kgens.append(Permutation(k))
    kgens = [k for k in kgens if not k.is_identity()]
    return G.subgroup(kgens, name="kernel",
                      known_order=G.order // image_order)


def stabilizer_of_action_point(G, action_arrays, action_degree, point=0):
    """Subgroup of G whose induced action fixes one new point."""
    return _fixing_subgroup(G, action_arrays, action_degree, (point,),
                            "stabilizer")


# -- standard subgroup operations -------------------------------------------

def is_normal(G, H):
    """Whether H is normalized by the generators of G (H <= G assumed)."""
    for g in G.generators:
        ginv = g.inv()
        for h in H.generators:
            if not H.contains(ginv * h * g):
                return False
    return True


def normal_closure(G, seeds):
    """Smallest normal subgroup of G containing the seed permutations.

    Conjugate residues are collected in waves; one chain is extended by
    each wave rather than rebuilt per generator.
    """
    gens = []
    chain = None
    wave = [s if isinstance(s, Permutation) else Permutation(s) for s in seeds]
    conj = [(g, g.inv()) for g in G.generators]
    while wave:
        fresh = []
        keys = set()
        for p in wave:
            if p.is_identity():
                continue
            if chain is not None and chain.contains(p):
                continue
            key = p.images.tobytes()
            if key in keys:
                continue
            keys.add(key)
            fresh.append(p)
        if not fresh:
            break
        gens.extend(fresh)
        if chain is None:
            chain = StabilizerChain(G.degree, gens)
        else:
            chain.extend([p.images for p in fresh])
        wave = [ginv * p * g for p in fresh for g, ginv in conj]
    if chain is None:
        return G.subgroup([], name="1")
    H = G.subgroup(gens, known_order=chain.order)
    H._chain = chain
    return H


def commutators(gens):
    """[a, b] = a^-1 b^-1 a b for every pair of generators, a listed first."""
    return [a.inv() * b.inv() * a * b
            for i, a in enumerate(gens) for b in gens[i + 1:]]


def is_abelian(G):
    """Whether the generators of G commute pairwise."""
    gens = G.generators
    return all(a * b == b * a
               for i, a in enumerate(gens) for b in gens[i + 1:])


def generates(G, perms):
    """Whether the permutations (elements of G) generate G."""
    try:
        chain = StabilizerChain(G.degree, perms, known_order=G.order)
    except ValueError:
        return False
    return chain.order == G.order


def small_generating_set(degree, candidates, order):
    """Generators picked greedily from the candidates, in their order: a
    candidate is kept when it lies outside the group generated by the ones
    kept before it, until that group has the given order.  One chain is
    extended by each kept candidate."""
    gens = []
    chain = None
    for p in candidates:
        if p.is_identity() or (chain is not None and chain.contains(p)):
            continue
        gens.append(p)
        if chain is None:
            chain = StabilizerChain(degree, gens)
        else:
            chain.extend([p.images])
        if chain.order == order:
            break
    if (1 if chain is None else chain.order) != order:
        raise RuntimeError(
            f"candidates do not generate a group of order {order}")
    return gens


def core(G, H, coset_limit=DEFAULT_COSET_LIMIT):
    """Largest normal subgroup of G contained in H.

    H normal is detected first; otherwise the core is the kernel of the
    action of G on the cosets of H, read off a prefixed stabilizer chain.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not contained in G")
    if is_normal(G, H):
        return H
    action = coset_action(G, H, limit=coset_limit)
    return action.kernel


def coset_canonical(Hchain, arr):
    """Canonical representative of the right coset H*arr.

    Greedily minimizes the image of each base point of H's chain over the
    orbit at that level; the remaining freedom at each step is exactly the
    next stabilizer, so all members of a coset converge to the same array.
    """
    g = arr
    for i in range(len(Hchain.levels)):
        lvl = Hchain.levels[i]
        best_pt = None
        best_delta = None
        for delta in lvl.tree:
            v = int(g[delta])
            if best_pt is None or v < best_pt:
                best_pt = v
                best_delta = delta
        if best_delta != lvl.point:
            g = _compose(Hchain._rep(i, best_delta), g)
    return g


class CosetAction:
    __slots__ = ("quotient", "map", "kernel")

    def __init__(self, quotient, epi, kernel):
        self.quotient = quotient
        self.map = epi
        self.kernel = kernel


def coset_position(Hchain, index_of, arr):
    """Position of the right coset H*arr in a table from `coset_table`."""
    return index_of[coset_canonical(Hchain, arr).tobytes()]


def coset_table(gen_arrays, Hchain, index):
    """Right cosets of H (given by its chain) in the group generated by the
    arrays, enumerated from H: canonical representatives, the position of
    each by its bytes, and the image list of every generator on the
    positions."""
    first = coset_canonical(Hchain, np.arange(Hchain.degree, dtype=np.int32))
    reps = [first]
    index_of = {first.tobytes(): 0}
    images = [[] for _ in gen_arrays]
    head = 0
    while head < len(reps):
        r = reps[head]
        for garr, img in zip(gen_arrays, images):
            nxt = coset_canonical(Hchain, _compose(r, garr))
            key = nxt.tobytes()
            j = index_of.get(key)
            if j is None:
                j = len(reps)
                index_of[key] = j
                reps.append(nxt)
            img.append(j)
        head += 1
    if len(reps) != index:
        raise RuntimeError(
            f"coset enumeration found {len(reps)} cosets, expected {index}")
    return reps, index_of, images


def coset_action(G, H, limit=DEFAULT_COSET_LIMIT):
    """Action of G on the right cosets of H, with the quotient group, the
    epimorphism onto it and its kernel (the core of H)."""
    index = G.order // H.order if H.order else None
    if index is None or G.order % H.order:
        raise ValueError("H does not divide G (is it a subgroup?)")
    if index > limit:
        raise LimitExceeded(f"index {index} exceeds coset limit {limit}")
    Hchain = H.chain
    reps, index_of, images = coset_table(
        [g.images for g in G.generators], Hchain, index)
    action_arrays = [np.array(im, dtype=np.int32) for im in images]
    quotient = group_from_generators(
        index, [Permutation(a) for a in action_arrays],
        name=f"{G.name or 'G'}/core")
    kernel = kernel_of_action(G, action_arrays, index)

    def apply_fn(p):
        arr = p.images
        out = np.empty(index, dtype=np.int32)
        for j, r in enumerate(reps):
            out[j] = coset_position(Hchain, index_of, _compose(r, arr))
        return Permutation(out)

    epi = Epimorphism(G, quotient,
                      [Permutation(a) for a in action_arrays],
                      apply_fn, kernel=kernel)
    return CosetAction(quotient, epi, kernel)


# -- direct products ---------------------------------------------------------

class Embedding:
    __slots__ = ("source", "target", "offset")

    def __init__(self, source, target, offset):
        self.source = source
        self.target = target
        self.offset = offset

    def apply(self, p):
        arr = np.arange(self.target.degree, dtype=np.int32)
        arr[self.offset:self.offset + p.degree] = p.images + self.offset
        return Permutation(arr)


def direct_product(factors):
    """Direct product on the disjoint union of the point sets.

    Returns (product, embeddings, projections); projection i is an
    Epimorphism with kernel the product of the other factors.
    """
    if not factors:
        raise ValueError("direct product of an empty list")
    degree = sum(F.degree for F in factors)
    offsets = []
    off = 0
    for F in factors:
        offsets.append(off)
        off += F.degree
    gens = []
    origin = []  # (factor index, local generator index)
    for fi, F in enumerate(factors):
        for li, g in enumerate(F.generators):
            arr = np.arange(degree, dtype=np.int32)
            arr[offsets[fi]:offsets[fi] + F.degree] = g.images + offsets[fi]
            gens.append(Permutation(arr))
            origin.append((fi, li))
    order = 1
    for F in factors:
        order *= F.order
    name = " x ".join(F.name or "?" for F in factors)
    # the order is known, so the (possibly large) chain stays lazy
    P = GroupHandle(degree, gens, name=name, known_order=order)
    P.product_factors = [(F, offsets[i]) for i, F in enumerate(factors)]
    embeddings = [Embedding(F, P, offsets[i]) for i, F in enumerate(factors)]
    projections = []
    for fi, F in enumerate(factors):
        gen_images = []
        for (fj, lj), g in zip(origin, P.generators):
            if fj == fi:
                gen_images.append(factors[fi].generators[lj])
            else:
                gen_images.append(Permutation.identity(F.degree))
        off = offsets[fi]

        def apply_fn(p, off=off, F=F):
            return Permutation(p.images[off:off + F.degree] - off)

        ker_gens = [g for (fj, _), g in zip(origin, P.generators) if fj != fi]
        ker_order = order // F.order
        kernel = P.subgroup(ker_gens, known_order=ker_order)
        projections.append(
            Epimorphism(P, F, gen_images, apply_fn, kernel=kernel))
    return P, embeddings, projections
