"""GF(p) linear algebra and coordinatizations of elementary abelian sections.

Two coordinate routes are provided:

* ElementaryLayer: for a subgroup W that is itself elementary abelian, the
  orbit of each chain base point carries an affine GF(p) structure (the
  orbit is a coset space of an abelian group), so elements are read off
  point images in O(#base points).  This is what makes spinning through
  socle layers of dimension in the hundreds affordable.

* TowerCoordinates: for a small section W/K of an arbitrary group, the
  classical route: a tower K = U_0 < U_1 < ... < U_m = W with steps of
  order p, coordinates extracted top-down by membership tests.

Minimal-submodule search uses spinning with a deterministic, seeded vector
schedule; irreducibility is certified exhaustively when the module has few
1-dimensional subspaces and by the nullity-one meataxe test otherwise.
"""

from __future__ import annotations

import random
from itertools import product

import numpy as np

from .bsgs import LimitExceeded, StabilizerChain
from .group import DEFAULT_COSET_LIMIT
from .perms import Permutation

_VEC_DTYPE = np.int16
SECTION_DIM_CAP = 48
EXHAUSTIVE_CAP = 4096         # 1-dimensional subspaces spun one by one
MEATAXE_TRIES = 200           # random algebra elements per certificate


class Subspace:
    """Row space over GF(p) in reduced echelon form."""

    def __init__(self, p, width):
        self.p = p
        self.width = width
        self.rows = []      # echelon rows
        self.pivots = []    # pivot column per row

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        p = self.p
        v = np.array(v, dtype=_VEC_DTYPE) % p
        for row, piv in zip(self.rows, self.pivots):
            c = int(v[piv])
            if c:
                v = (v - c * row) % p
        return v

    def add(self, v):
        """Insert v; returns True when the dimension grew."""
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if len(nz) == 0:
            return False
        piv = int(nz[0])
        inv = pow(int(v[piv]), self.p - 2, self.p) if self.p > 2 else 1
        v = (v * inv) % self.p
        # keep rows fully reduced against each other
        for i, row in enumerate(self.rows):
            c = int(row[piv])
            if c:
                self.rows[i] = (row - c * v) % self.p
        self.rows.append(v)
        self.pivots.append(piv)
        order = np.argsort(self.pivots, kind="stable")
        self.rows = [self.rows[i] for i in order]
        self.pivots = [self.pivots[i] for i in order]
        return True

    def basis_matrix(self):
        if not self.rows:
            return np.zeros((0, self.width), dtype=_VEC_DTYPE)
        return np.array(self.rows, dtype=_VEC_DTYPE)

    def copy(self):
        out = Subspace(self.p, self.width)
        out.rows = [r.copy() for r in self.rows]
        out.pivots = list(self.pivots)
        return out


class LinearSolver:
    """Echelonized rows with coefficient tracking: solve x . B = y."""

    def __init__(self, p, rows):
        self.p = p
        n = len(rows)
        self.width = len(rows[0]) if n else 0
        self.aug = []       # (reduced row, coefficient vector)
        self.pivots = []
        for i, r in enumerate(rows):
            coeff = np.zeros(n, dtype=_VEC_DTYPE)
            coeff[i] = 1
            v = np.array(r, dtype=_VEC_DTYPE) % p
            v, coeff = self._reduce(v, coeff)
            nz = np.nonzero(v)[0]
            if len(nz) == 0:
                continue
            piv = int(nz[0])
            inv = pow(int(v[piv]), p - 2, p) if p > 2 else 1
            self.aug.append(((v * inv) % p, (coeff * inv) % p))
            self.pivots.append(piv)

    def _reduce(self, v, coeff):
        for (row, cf), piv in zip(self.aug, self.pivots):
            c = int(v[piv])
            if c:
                v = (v - c * row) % self.p
                coeff = (coeff - c * cf) % self.p
        return v, coeff

    def solve(self, y):
        """Coefficients x with x . B = y, or None if y is outside."""
        v = np.array(y, dtype=_VEC_DTYPE) % self.p
        out = np.zeros(len(self.aug[0][1]) if self.aug else 0,
                       dtype=_VEC_DTYPE)
        for (row, cf), piv in zip(self.aug, self.pivots):
            c = int(v[piv])
            if c:
                v = (v - c * row) % self.p
                out = (out + c * cf) % self.p
        if v.any():
            return None
        return out


# -- coordinates for elementary abelian subgroups ----------------------------

class ElementaryLayer:
    """Linear coordinates on an elementary abelian subgroup W <= Sym(n).

    Coordinates are read off point images: for each base point of W's
    chain, the orbit is labelled with GF(p) vectors so that every w acts on
    it by translation.  The map w -> concatenated labels of base-point
    images is linear and injective.
    """

    def __init__(self, W, p):
        self.p = p
        chain = W.chain
        self.sgen_arrs = [g.images for g in chain.strong_generators()]
        self.base_points = [lvl.point for lvl in chain.levels]
        self.block_labels = []   # per base point: dict point -> small vector
        self.block_dims = []
        for b in self.base_points:
            labels = self._label_orbit(b)
            self.block_labels.append(labels)
            self.block_dims.append(len(next(iter(labels.values()))))
        self.width = sum(self.block_dims)
        self.offsets = np.cumsum([0] + self.block_dims[:-1]).tolist()

    def _label_orbit(self, b):
        """Label the W-orbit of b so every generator acts by translation.

        Because W is abelian, each generator moves the whole orbit by a
        fixed label shift; a generator whose image of b is unlabelled after
        the previous closure opens a new coordinate direction.
        """
        p = self.p
        labels = {b: ()}
        shifts = []   # (generator array, shift tuple)
        dim = 0
        for arr in self.sgen_arrs:
            img = int(arr[b])
            if img in labels:
                shift = labels[img]
            else:
                dim += 1
                labels = {pt: vec + (0,) for pt, vec in labels.items()}
                shifts = [(a, s + (0,)) for a, s in shifts]
                shift = (0,) * (dim - 1) + (1,)
            shifts.append((arr, shift))
            frontier = list(labels)
            while frontier:
                new = []
                for pt in frontier:
                    lv = labels[pt]
                    for a, s in shifts:
                        q = int(a[pt])
                        if q not in labels:
                            labels[q] = tuple((x + y) % p
                                              for x, y in zip(lv, s))
                            new.append(q)
                frontier = new
        return {pt: np.array(v, dtype=_VEC_DTYPE) for pt, v in labels.items()}

    def coords_arr(self, arr):
        out = np.zeros(self.width, dtype=_VEC_DTYPE)
        for b, labels, off, d in zip(self.base_points, self.block_labels,
                                     self.offsets, self.block_dims):
            out[off:off + d] = labels[int(arr[b])]
        return out


class TowerCoordinates:
    """Coordinates on a small elementary abelian section W/K of any group.

    Builds K = U_0 < U_1 < ... < U_m = W with [U_i : U_{i-1}] = p and
    extracts exponents top-down by membership tests.  U_0 is K's own chain;
    each U_i is built from the strong generators of U_{i-1} plus b_i, and
    its known order |U_{i-1}| * p ends the build without a verification.
    """

    def __init__(self, W, K, p):
        self.p = p
        self.basis = []          # Permutation b_1..b_m
        self.chains = []         # chain of U_0 ... U_m
        cur = K.chain
        self.chains.append(cur)
        target = W.order
        candidates = list(W.chain.strong_generators())
        i = 0
        while cur.order < target:
            if i >= len(candidates):
                raise RuntimeError("section basis search exhausted candidates")
            b = candidates[i]
            i += 1
            if cur.contains(b):
                continue
            self.basis.append(b)
            cur = StabilizerChain(W.degree, cur.strong_generators() + [b],
                                  known_order=cur.order * p)
            self.chains.append(cur)
            if len(self.basis) > SECTION_DIM_CAP:
                raise RuntimeError(
                    f"section dimension exceeds cap {SECTION_DIM_CAP}")
        self.width = len(self.basis)

    def coords_arr(self, arr):
        """Exponent vector of an element of W modulo K."""
        out = np.zeros(self.width, dtype=_VEC_DTYPE)
        g = Permutation(arr)
        for i in range(self.width - 1, -1, -1):
            lower = self.chains[i]
            binv = self.basis[i].inv()
            x = 0
            h = g
            while not lower.contains(h):
                h = h * binv
                x += 1
                if x >= self.p:
                    raise ValueError("element not in the section tower")
            out[i] = x
            g = h
        return out


# -- section space: quotient coordinates plus G-action ------------------------

class SectionSpace:
    """The chief-factor candidate W/K as an explicit GF(p) G-module."""

    def __init__(self, G, W, K, p, layer=None):
        self.group = G
        self.W = W
        self.K = K
        self.p = p
        if layer is not None:
            self.coordsys = layer
        else:
            self.coordsys = TowerCoordinates(W, K, p)
        width = self.coordsys.width
        self.ksub = Subspace(p, width)
        for g in K.chain.strong_generators():
            self.ksub.add(self.coordsys.coords_arr(g.images))
        # section basis: K-reduced coordinates of W's strong generators.
        # Each stored vector is reduced against K only (not against earlier
        # basis vectors), so solver coefficients translate directly into
        # exponents of the lift elements.
        self.basis_vecs = []
        span = self.ksub.copy()
        self.basis_lifts = []
        for g in W.chain.strong_generators():
            v = self.coordsys.coords_arr(g.images)
            if span.add(v):
                self.basis_vecs.append(self.ksub.reduce(v))
                self.basis_lifts.append(g)
        self.dim = len(self.basis_vecs)
        self._solver = LinearSolver(p, self.basis_vecs) if self.dim else None
        self._gen_mats = None

    def to_vec(self, perm):
        """Section coordinates (length = dim) of an element of W."""
        raw = self.ksub.reduce(self.coordsys.coords_arr(perm.images))
        x = self._solver.solve(raw)
        if x is None:
            raise ValueError("element does not lie in the section span")
        return x

    def lift(self, vec):
        """An element of W representing the given section vector."""
        out = None
        for xi, b in zip(vec, self.basis_lifts):
            for _ in range(int(xi) % self.p):
                out = b if out is None else out * b
        if out is None:
            return Permutation.identity(self.W.degree)
        return out

    @property
    def gen_matrices(self):
        """Action of each generator of G on the section (by conjugation)."""
        if self._gen_mats is None:
            mats = []
            for g in self.group.generators:
                ginv = g.inv()
                rows = []
                for b in self.basis_lifts:
                    img = ginv * b * g
                    rows.append(self.to_vec(img))
                mats.append(np.array(rows, dtype=_VEC_DTYPE) % self.p)
            self._gen_mats = mats
        return self._gen_mats


# -- spinning and minimal submodules ------------------------------------------

def spin(vectors, matrices, p, width):
    """Subspace closure of the given vectors under the action matrices."""
    sub = Subspace(p, width)
    queue = []
    for v in vectors:
        if sub.add(v):
            queue.append(np.array(v, dtype=_VEC_DTYPE) % p)
    while queue:
        v = queue.pop()
        for M in matrices:
            img = (v.astype(np.int64) @ M) % p
            if sub.add(img):
                queue.append(img.astype(_VEC_DTYPE))
    return sub


def _restrict_matrices(space_basis, matrices, p):
    """Action matrices restricted to an invariant subspace (rows = basis)."""
    solver = LinearSolver(p, list(space_basis))
    out = []
    for M in matrices:
        rows = []
        for b in space_basis:
            img = (b @ M) % p
            x = solver.solve(img)
            if x is None:
                raise ValueError("subspace is not invariant")
            rows.append(x)
        out.append(np.array(rows, dtype=_VEC_DTYPE))
    return out


def _is_irreducible_exhaustive(matrices, p, dim):
    """Certify irreducibility by spinning one vector of every 1-dimensional
    subspace: the one whose leading nonzero coordinate is 1.  They come in
    lexicographic order, so the first proper spin found is the one a scan
    over all nonzero vectors finds first."""
    for lead in range(dim - 1, -1, -1):
        head = (0,) * lead + (1,)
        for tail in product(range(p), repeat=dim - lead - 1):
            v = np.array(head + tail, dtype=_VEC_DTYPE)
            sub = spin([v], matrices, p, dim)
            if sub.dim < dim:
                return False, sub
    return True, None


def _nullity_one_certificate(matrices, p, dim, rng):
    """Holt-Rees style test: look for an algebra element of nullity one and
    spin its null vector in the module and in the dual."""
    idmat = np.eye(dim, dtype=_VEC_DTYPE)
    words = list(matrices)
    for _ in range(MEATAXE_TRIES):
        # random algebra element: sum of up to 3 random products
        theta = np.zeros((dim, dim), dtype=np.int64)
        for _ in range(rng.randrange(1, 4)):
            term = idmat.astype(np.int64)
            for _ in range(rng.randrange(1, 4)):
                term = (term @ words[rng.randrange(len(words))]) % p
            theta = (theta + rng.randrange(1, p) * term) % p
        ns = _nullspace(theta, p)
        if len(ns) != 1:
            if len(ns) == 0:
                continue
            # higher nullity: spinning null vectors can still find submodules
            for v in ns:
                sub = spin([v], matrices, p, dim)
                if sub.dim < dim:
                    return False, sub
            continue
        v = ns[0]
        sub = spin([v], matrices, p, dim)
        if sub.dim < dim:
            return False, sub
        # dual module: transpose matrices, null vector of theta^T
        nt = _nullspace(theta.T % p, p)
        if len(nt) != 1:
            continue
        dual_mats = [M.T % p for M in matrices]
        dsub = spin([nt[0]], dual_mats, p, dim)
        if dsub.dim < dim:
            # the annihilator of the dual submodule is a proper submodule:
            # the vectors v with v . B^T = 0 for the dual basis B
            ann = Subspace(p, dim)
            for v in _nullspace(dsub.basis_matrix().T, p):
                ann.add(v)
            return False, ann
        return True, None
    raise LimitExceeded(
        f"irreducibility certificate not found in {MEATAXE_TRIES} random "
        f"algebra elements (GF({p}) module of dimension {dim})")


def _nullspace(M, p):
    """Basis of the left nullspace of an r x c matrix M over GF(p) (x M = 0)."""
    r, c = M.shape
    # row reduce [M | I]; rows whose M-part vanished give null combinations
    space = Subspace(p, c + r)
    for i in range(r):
        space.add(np.concatenate([M[i] % p, np.eye(r, dtype=np.int64)[i]]))
    out = []
    for row, piv in zip(space.rows, space.pivots):
        if piv >= c:
            out.append(np.array(row[c:], dtype=_VEC_DTYPE))
    return out


def minimal_submodule(matrices, p, dim, seed=0):
    """Basis (echelon rows) of one minimal nonzero submodule.

    Descends through proper spins until irreducibility is certified, either
    exhaustively (at most EXHAUSTIVE_CAP 1-dimensional subspaces) or by the
    nullity-one meataxe criterion, which refuses when its budget runs out.
    """
    rng = random.Random((seed * 1000003 + dim * 101 + p) & 0x7FFFFFFF)
    cur_mats = matrices
    cur_dim = dim
    # transform chain: basis of current submodule in ORIGINAL coordinates
    basis = np.eye(dim, dtype=_VEC_DTYPE)

    while True:
        if cur_dim == 1:
            return basis
        # try to find a proper spin
        found = None
        schedule = [np.eye(cur_dim, dtype=_VEC_DTYPE)[i] for i in range(cur_dim)]
        for _ in range(3 * cur_dim):
            v = np.array([rng.randrange(p) for _ in range(cur_dim)],
                         dtype=_VEC_DTYPE)
            if v.any():
                schedule.append(v)
        for v in schedule:
            sub = spin([v], cur_mats, p, cur_dim)
            if 0 < sub.dim < cur_dim:
                found = sub
                break
        if found is None:
            if (p ** cur_dim - 1) // (p - 1) <= EXHAUSTIVE_CAP:
                ok, found = _is_irreducible_exhaustive(cur_mats, p, cur_dim)
            else:
                ok, found = _nullity_one_certificate(cur_mats, p, cur_dim, rng)
            if ok:
                return basis
        sub_basis = found.basis_matrix()
        # descend: rewrite in original coordinates
        basis = (sub_basis.astype(np.int64) @ basis.astype(np.int64)) % p
        basis = basis.astype(_VEC_DTYPE)
        cur_mats = _restrict_matrices(sub_basis, cur_mats, p)
        cur_dim = sub_basis.shape[0]


def intertwiner_space_dim(mats_a, mats_b, p):
    """Dimension of the space of module homomorphisms {X : A_i X = X B_i}.

    X is a da x db matrix sending row vectors of module a to module b, so
    the intertwining condition for right-action matrices reads
    (v A) X = (v X) B for all v, i.e. A X = X B per generator.
    """
    da = mats_a[0].shape[0] if mats_a else 0
    db = mats_b[0].shape[0] if mats_b else 0
    if da == 0 or db == 0:
        return 0
    cons = []
    for A, B in zip(mats_a, mats_b):
        # entry (i, j) of A X - X B is linear in the entries of X
        C = np.zeros((da * db, da * db), dtype=np.int64)
        for i in range(da):
            for j in range(db):
                r = i * db + j
                for k in range(da):
                    C[k * db + j, r] += A[i, k]
                for l in range(db):
                    C[i * db + l, r] -= B[l, j]
        cons.append(C % p)
    big = np.concatenate(cons, axis=1) % p
    space = Subspace(p, big.shape[1])
    rank = 0
    for i in range(da * db):
        if space.add(big[i]):
            rank += 1
    return da * db - rank


def tree_relators(start, step, key, mats, p, nodes):
    """Walk a Schreier graph breadth-first from `start` (generator s leads
    from x to step(x, s); nodes are told apart by key(x)) and yield its
    relators.  A twist u of the generators spreads along the spanning tree
    by f(x s) = f(x) M_s + u_s, so f(x) = u C_x with C_start = 0 and
    u E_s = u_s.  Each non-tree edge x -> x s, landing on the node first
    reached by y, yields (C_x M_s + E_s - C_y, x s, y).  `nodes` is filled
    with key -> (y, C_y)."""
    mats = [np.asarray(M, dtype=np.int64) % p for M in mats]
    dim = mats[0].shape[0]
    width = len(mats) * dim
    sel = np.zeros((len(mats), width, dim), dtype=np.int64)
    for s in range(len(mats)):
        sel[s, s * dim:(s + 1) * dim] = np.eye(dim, dtype=np.int64)
    first = (start, np.zeros((width, dim), dtype=np.int64))
    nodes[key(start)] = first
    queue = [first]
    for x, cx in queue:
        for s, (M, E) in enumerate(zip(mats, sel)):
            y = step(x, s)
            cy = (cx @ M + E) % p
            k = key(y)
            old = nodes.get(k)
            if old is None:
                nodes[k] = (y, cy)
                queue.append((y, cy))
            else:
                yield (cy - old[1]) % p, y, old[0]


def cocycle_dim(mats, p, order):
    """Dimension of Z^1(L, A) over GF(p): A = GF(p)^dim with L, the linear
    group of the given order generated by the right-action matrices M_s,
    acting by v -> v M_s.

    A cocycle (f(xy) = f(x) M_y + f(y)) is fixed by its values u_s on the
    generators, the unknowns.  Along a breadth-first spanning tree of the
    Cayley graph of L (`tree_relators`), f(x) = u C_x; each non-tree edge
    x -> x s gives the equations u (C_x M_s + E_s - C_{xs}) = 0.  These
    edges present L, so their solutions are exactly the cocycles.  The
    coboundaries have dimension dim - dim(A^L), so the equations stop once
    their rank leaves no room for more.  Refused above the coset limit,
    before the search."""
    if order > DEFAULT_COSET_LIMIT:
        raise LimitExceeded(
            f"cocycles need the {order} elements of a linear group, above "
            f"the coset limit {DEFAULT_COSET_LIMIT}")
    mats = [np.asarray(M, dtype=np.int64) % p for M in mats]
    dim = mats[0].shape[0]
    width = len(mats) * dim
    eye = np.eye(dim, dtype=np.int64)
    fixed = len(_nullspace(np.concatenate([M - eye for M in mats], axis=1)
                           % p, p))
    most = width - dim + fixed        # the rank when Z^1 is B^1
    nodes = {}
    eqs = Subspace(p, width)
    for rel, _, _ in tree_relators(eye, lambda x, s: x @ mats[s] % p,
                                   np.ndarray.tobytes, mats, p, nodes):
        for col in rel.T:
            eqs.add(col)
        if eqs.dim == most:
            return width - most
    if len(nodes) != order:
        raise RuntimeError(
            f"linear group has {len(nodes)} elements, expected {order}")
    return width - eqs.dim
