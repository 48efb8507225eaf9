"""Independent brute-force oracles used to validate the fast paths.

Everything here is deliberately naive: closures by repeated multiplication,
lattices by exhaustive sweeps, probabilities by counting.  These functions
never call into the algorithms they are meant to check.
"""

from itertools import combinations

import numpy as np

from maxsub.perms import Permutation


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
    from itertools import product
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
