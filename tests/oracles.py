"""Independent brute-force oracles used to validate the fast paths.

Everything here is deliberately naive: closures by repeated multiplication,
lattices by exhaustive sweeps, probabilities by counting.  These functions
never call into the algorithms they are meant to check.

The last section holds checks that only the tests use: each is built from
`maxsub` primitives other than the one it checks.
"""

from itertools import combinations, product

import numpy as np

from maxsub.bsgs import LimitExceeded, StabilizerChain
from maxsub.constructions import end_size
from maxsub.group import (DEFAULT_COSET_LIMIT, commutators, coset_action,
                          generates, group_from_generators, kernel_of_action,
                          normal_closure, small_generating_set)
from maxsub.invariants import min_generators
from maxsub.modules import SectionSpace
from maxsub.perms import Permutation
from maxsub.simptable import prime_power_split
from maxsub.structure import _matrix_actions, _vector_codes, _vectors
from maxsub.tables import indices_of

NAIVE_COMPLEMENT_BUDGET = 1 << 16


def naive_closure(degree, gens, limit=200000):
    """The full element set of <gens> by breadth-first multiplication."""
    identity = Permutation.identity(degree)
    els = {identity}
    frontier = [identity]
    gens = [g for g in gens]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in els:
                    els.add(y)
                    new.append(y)
                    if len(els) > limit:
                        raise RuntimeError("naive closure limit exceeded")
        frontier = new
    return els


def naive_order(G, limit=200000):
    return len(naive_closure(G.degree, G.generators, limit))


def naive_subgroups(degree, elements):
    """All subgroups of a small group, as frozensets of elements.

    Every subgroup is generated by at most log2(order) elements, found by
    closing generator sets grown one element at a time.
    """
    els = sorted(elements, key=lambda p: p.key())
    subs = {frozenset([Permutation.identity(degree)])}
    frontier = list(subs)
    while frontier:
        new = []
        for S in frontier:
            for x in els:
                if x in S:
                    continue
                T = frozenset(naive_closure(degree, list(S | {x})))
                if T not in subs:
                    subs.add(T)
                    new.append(T)
        frontier = new
    return subs


def naive_maximals(subgroup_sets, whole):
    """Maximal members of the lattice below `whole` by pairwise containment."""
    proper = [S for S in subgroup_sets if S != whole]
    out = []
    for S in proper:
        if not any(S < T for T in proper):
            out.append(S)
    return out


def naive_generating_tuples(degree, elements, whole_order, k):
    """Count ordered k-tuples generating the whole group (brute force)."""
    els = list(elements)
    count = 0
    for tup in product(els, repeat=k):
        if len(naive_closure(degree, list(tup))) == whole_order:
            count += 1
    return count


def naive_mult_table(table):
    """Multiplication table of an ElementTable by n^2 key lookups."""
    n, E = table.n, np.stack([p.images for p in table.elements])
    out = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        rows = E[:, E[i]]  # row j = images of element_i * element_j
        for j in range(n):
            out[i, j] = table.index[rows[j].tobytes()]
    return out


def naive_index_closure(table, gens):
    """Sorted element indices of <gens> by a set-based breadth-first search
    over right multiplication in the table."""
    m = table.mult
    seen = {table.identity_index}
    frontier = [table.identity_index]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = int(m[x, g])
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return sorted(seen)


def naive_normalizers_outside(table, H_indices, H_gens):
    """The g outside H with g^-1 h g in H for each h in H_gens, one
    conjugation at a time."""
    members = set(int(i) for i in H_indices)
    return [g for g in range(table.n) if g not in members
            and all(table.conj(h, g) in members for h in H_gens)]


# -- checks used only by the tests ------------------------------------------

def trivial_group(degree=1):
    return group_from_generators(degree, [], name="1")


def derived_subgroup(G):
    return normal_closure(G, commutators(G.generators))


def coset_lifts(space, p, dim):
    """A lift in H of every element of the section H/K (one per coset of
    K), through its section space; index 0 is the identity coset."""
    return [space.lift(v) for v in _vectors(p, dim)]


def naive_complement_solution_count(G, H, K, budget=NAIVE_COMPLEMENT_BUDGET):
    """Number of tuples (a_1..a_d) in A^d with Y = <K, g_1 a_1, ..., g_d a_d>
    a complement of the elementary abelian section A = H/K in G/K, which is
    the number of complements: one stabilizer chain per tuple.

    Any generating set g_1..g_d of G gives the same count, so the greedy
    subset of G's generators keeps n^d small.  Y >= K and Y H = G always
    hold (H is normal and the twisted generators cover G mod H), so Y is a
    complement exactly when |Y| = |G| / |A|.  The n^d tuples are refused
    above the budget before any section space is built."""
    if not all(K.contains(c) for c in commutators(H.generators)):
        raise ValueError("complement counting is for abelian factors")
    n = H.order // K.order
    gens = small_generating_set(G.degree, G.generators, G.order)
    if n ** len(gens) > budget:
        raise LimitExceeded(
            f"complement search space {n}**{len(gens)} exceeds budget "
            f"{budget}")
    p, dim = prime_power_split(n)
    lifts = coset_lifts(SectionSpace(G, H, K, p), p, dim)
    target = G.order // n
    base_gens = list(K.chain.strong_generators())
    count = 0
    for tup in product(range(n), repeat=len(gens)):
        twisted = base_gens + [g * lifts[t] for g, t in zip(gens, tup)]
        if StabilizerChain(G.degree, twisted).order == target:
            count += 1
    return count


def h1_size(L, N):
    """|H^1(L/N, N)| = (number of complements of N in L) / |N|."""
    cnt = naive_complement_solution_count(
        L, N, L.subgroup([], known_order=1))
    if cnt % N.order:
        raise RuntimeError("complement count is not divisible by |N|")
    return cnt // N.order


def associated_primitive(G, d):
    """The primitive group attached to a chief factor: the affine extension
    A x| G/C_G(A) of an abelian factor A, the centralizer quotient of a
    non-abelian one.

    The affine group is generated by one translation and enough of the
    linear generators: the conjugates of one translation span the
    irreducible A, and the complement search in it grows as |A| to the
    number of generators."""
    if not d.abelian:
        return d.factor_action.primitive
    p = d.prime
    vecs = _vectors(p, d.dim)
    npoints = len(vecs)
    expected = npoints * (G.order // d.centralizer.order)
    shift = np.zeros(d.dim, dtype=np.int64)
    shift[0] = 1
    cands = [Permutation(_vector_codes(vecs + shift, p))]
    cands += [Permutation(a)
              for a in _matrix_actions(vecs, p, d.space.gen_matrices)]
    gens = small_generating_set(npoints, cands, expected)
    return group_from_generators(npoints, gens, name="associated-primitive")


def tower_quotient_fingerprint(tower_handle, L, N, k):
    """Fingerprint equality of L_k / N^k with L/N (order plus the multiset
    of element orders of the materialized quotients)."""
    deg = L.degree
    nk_gens = []
    for c in range(k):
        for gn in N.generators:
            arr = np.arange(tower_handle.degree, dtype=np.int32)
            arr[c * deg:(c + 1) * deg] = gn.images + c * deg
            nk_gens.append(Permutation(arr))
    NK = tower_handle.subgroup(nk_gens, known_order=N.order ** k)
    q1 = coset_action(tower_handle, NK).quotient
    q2 = coset_action(L, N).quotient
    if q1.order != q2.order:
        return False
    f1 = sorted(p.order() for p in q1.elements(limit=DEFAULT_COSET_LIMIT))
    f2 = sorted(p.order() for p in q2.elements(limit=DEFAULT_COSET_LIMIT))
    return f1 == f2


def f_of_d(L, N, d):
    """1 + log_q(|N|^(d-1) / |H1|): the tower height at which the minimal
    generator count first exceeds d."""
    q = end_size(L, N)
    h1 = h1_size(L, N)
    dL = min_generators(L)
    if d < dL:
        raise ValueError(f"d must be at least d(L) = {dL}")
    num = N.order ** (d - 1)
    if num % h1:
        raise ValueError("|N|^(d-1) is not divisible by |H1|")
    ratio = num // h1
    k = 0
    while ratio > 1:
        if ratio % q:
            raise ValueError("|N|^(d-1)/|H1| is not an exact power of q")
        ratio //= q
        k += 1
    return 1 + k


def verify_subdirect_projections(H):
    """Each block projection restricted to the subdirect product is onto."""
    blocks = H._cache.get("subdirect_blocks")
    if blocks is None:
        raise ValueError("handle does not carry subdirect metadata")
    return all(generates(Gi, [Permutation(g.images[off:off + Gi.degree] - off)
                              for g in H.generators])
               for Gi, off in blocks)


def distinct_projection_kernels(H):
    """Orders of the kernels of the block projections, used to check that
    distinct orbit representatives give distinct kernels."""
    blocks = H._cache.get("subdirect_blocks")
    kernels = []
    for Gi, off in blocks:
        arrs = [g.images[off:off + Gi.degree] - off for g in H.generators]
        kernels.append(kernel_of_action(H, arrs, Gi.degree))
    distinct = True
    for i in range(len(kernels)):
        for j in range(i + 1, len(kernels)):
            Ki, Kj = kernels[i], kernels[j]
            if Ki.order == Kj.order and \
                    all(Kj.contains(g) for g in Ki.generators):
                distinct = False
    return kernels, distinct


def abelian_crown_bound(n, d, q, h1, normal=False):
    """Cap on the maximal subgroups attached to one abelian crown class.

    Non-normal case: (n^d - n*h1)/(q - 1); normal case: (n^d - 1)/(n - 1).
    Always at most n^d - 1.
    """
    if q < 2:
        raise ValueError(
            "q is the size of an endomorphism field, hence at least 2")
    if h1 < 1:
        raise ValueError("h1 is a cohomology group size, hence at least 1")
    if normal:
        value = (n ** d - 1) // (n - 1)
    else:
        num = n ** d - n * h1
        value = num // (q - 1)
    cap = n ** d - 1
    if value > cap:
        raise RuntimeError("crown bound exceeded its stated cap")
    return value


def subgroup_count(lat):
    """Number of subgroups of a lattice: the sum of its class sizes."""
    return sum(c.class_size for c in lat.classes)


def orders_multiply(epi):
    """|ker| |image| = |source| for an epimorphism."""
    return epi.kernel.order * epi.target.order == epi.source.order


def generating_tuple_count(lat, k):
    """Number of k-tuples (k <= 3) of the lattice's group that lie in no
    maximal subgroup, that is the generating k-tuples, counted over the
    element-by-maximal incidence matrix; no Moebius function is used."""
    n = lat.table.n
    masks = [m for rec in lat.maximal_records()
             for m in rec.class_ref.conjugate_masks]
    inc = np.zeros((n, len(masks)), dtype=np.float32)
    for j, m in enumerate(masks):
        inc[indices_of(m, n), j] = 1
    if k == 0:
        return int(n == 1)
    if k == 1:
        return int((inc.sum(axis=1) == 0).sum())
    firsts = [np.ones(len(masks), dtype=np.float32)] if k == 2 else inc
    count = 0
    for row in firsts:
        sub = inc * row
        # (b, c) lie in a common maximal with a exactly when this is > 0
        count += int((sub @ sub.T == 0).sum())
    return count
