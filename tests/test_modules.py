"""GF(p) modules: irreducibility certificates and minimal submodules."""

import random
from itertools import product

import numpy as np
import pytest

import maxsub.modules as modules
from maxsub.bsgs import LimitExceeded
from maxsub.modules import (LinearSolver, Subspace, _is_irreducible_exhaustive,
                            _nullspace, minimal_submodule, spin)


def _random_matrix(rng, rows, cols=None, p=2):
    return rng.integers(0, p, size=(rows, cols or rows)).astype(np.int16)


def _inverse_mod2(P):
    solver = LinearSolver(2, list(P))
    rows = [solver.solve(e) for e in np.eye(len(P), dtype=np.int16)]
    if any(r is None for r in rows):
        return None
    return np.array(rows, dtype=np.int64)


def _random_invertible_mod2(rng, n):
    while True:
        P = _random_matrix(rng, n)
        Pinv = _inverse_mod2(P)
        if Pinv is not None:
            return P.astype(np.int64), Pinv


def _block_module(rng, top_left, bottom_right, glue=False):
    """Two generators acting block-triangularly on GF(2)^(a+b), conjugated
    by a random invertible matrix P.  The first block spans the submodule
    P[:a]; `glue` adds a random lower-left block (a non-split extension)."""
    a, b = top_left, bottom_right
    P, Pinv = _random_invertible_mod2(rng, a + b)
    mats = []
    for _ in range(2):
        D = np.zeros((a + b, a + b), dtype=np.int64)
        D[:a, :a] = _random_matrix(rng, a)
        D[a:, a:] = _random_matrix(rng, b)
        if glue:
            D[a:, :a] = _random_matrix(rng, b, a)
        mats.append((Pinv @ D @ P % 2).astype(np.int16))
    return mats, P


def _is_invariant(basis, mats, p):
    return spin(list(basis), mats, p, mats[0].shape[0]).dim == basis.shape[0]


def _span(rows, p, width):
    sub = Subspace(p, width)
    for r in rows:
        sub.add(r)
    return sub.basis_matrix()


def _count_calls(monkeypatch, name, keep=lambda *a: True):
    calls = []
    orig = getattr(modules, name)

    def counted(*args):
        if keep(*args):
            calls.append(args)
        return orig(*args)
    monkeypatch.setattr(modules, name, counted)
    return calls


def test_field_module_is_irreducible():
    # multiplication by a generator of GF(67^2) on GF(67)^2: irreducible but
    # not absolutely irreducible, so no algebra element has nullity one
    p = 67
    M = np.array([[0, 1], [66, 13]], dtype=np.int16)   # of order 17
    basis = minimal_submodule([M], p, 2)
    assert basis.shape == (2, 2)


def test_field_module_above_exhaustive_cap_refused():
    # companion matrix of x^13 + x^4 + x^3 + x + 1 over GF(2): the module is
    # the field GF(2^13), with 8191 lines, above EXHAUSTIVE_CAP
    C = np.zeros((13, 13), dtype=np.int16)
    C[np.arange(12), np.arange(1, 13)] = 1
    C[12, [0, 1, 3, 4]] = 1
    with pytest.raises(LimitExceeded, match="irreducibility certificate"):
        minimal_submodule([C], 2, 13)


def test_meataxe_certifies_absolutely_irreducible(monkeypatch):
    calls = _count_calls(monkeypatch, "_nullity_one_certificate")
    rng = np.random.default_rng(0)
    mats = [_random_matrix(rng, 13) for _ in range(2)]
    basis = minimal_submodule(mats, 2, 13)
    assert basis.shape == (13, 13)
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_meataxe_splits_direct_sum(monkeypatch, seed):
    calls = _count_calls(monkeypatch, "_nullity_one_certificate")
    mats, _ = _block_module(np.random.default_rng(seed), 13, 14)
    basis = minimal_submodule(mats, 2, 27)
    assert basis.shape[0] in (13, 14)
    assert _is_invariant(basis, mats, 2)
    assert len(calls) == 2


def test_meataxe_dual_route_finds_socle(monkeypatch):
    # a non-split extension with socle of dimension 13: the null vector of
    # the module spins to everything, the dual one to a proper submodule,
    # whose annihilator (a rectangular nullspace) is the socle
    rect = _count_calls(monkeypatch, "_nullspace",
                        lambda M, p: M.shape[0] != M.shape[1])
    mats, P = _block_module(np.random.default_rng(0), 13, 14, glue=True)
    basis = minimal_submodule(mats, 2, 27, seed=2)
    assert rect
    assert np.array_equal(_span(basis, 2, 27), _span(P[:13], 2, 27))


@pytest.mark.parametrize("rows, cols, p", [(7, 3, 2), (3, 7, 2), (6, 4, 5)])
def test_nullspace_rectangular(rows, cols, p):
    rng = np.random.default_rng(rows * cols + p)
    M = _random_matrix(rng, rows, cols, p)
    null = _nullspace(M, p)
    rank = Subspace(p, cols)
    for r in M:
        rank.add(r)
    assert len(null) == rows - rank.dim
    for x in null:
        assert not ((x.astype(np.int64) @ M) % p).any()
    assert _span(null, p, rows).shape[0] == len(null)


def test_exhaustive_scan_matches_scan_of_every_vector():
    """One vector per line finds the subspace a scan of every nonzero
    vector, in lexicographic order, finds first."""
    def every_vector(mats, p, dim):
        for coeffs in product(range(p), repeat=dim):
            if any(coeffs):
                sub = spin([np.array(coeffs, dtype=np.int16)], mats, p, dim)
                if sub.dim < dim:
                    return False, sub
        return True, None

    rng = np.random.default_rng(5)
    for p, dim in [(3, 4), (5, 3), (2, 6), (3, 5)]:
        split = int(rng.integers(1, dim))
        D = _random_matrix(rng, dim, p=p)
        D[:split, split:] = 0          # the first `split` coordinates span
        reducible = [D]                # a submodule
        generic = [_random_matrix(rng, dim, p=p) for _ in range(2)]
        for mats in (reducible, generic):
            ok, sub = _is_irreducible_exhaustive(mats, p, dim)
            ref_ok, ref = every_vector(mats, p, dim)
            assert ok == ref_ok
            if not ok:
                assert np.array_equal(sub.basis_matrix(), ref.basis_matrix())


@pytest.mark.parametrize("spec", ["hat:agl:1,8;2", "lk:sym:4,3"])
def test_section_towers_reuse_verified_chains(monkeypatch, spec):
    from maxsub.cli import parse_spec
    from maxsub.structure import chief_series
    built = []
    towers = []
    real_chain = modules.StabilizerChain
    real_init = modules.TowerCoordinates.__init__

    def counted_chain(*args, **kwargs):
        built.append(1)
        return real_chain(*args, **kwargs)

    def recorded_init(self, W, K, p):
        before = len(built)
        real_init(self, W, K, p)
        towers.append((self, W, K, p, len(built) - before))

    monkeypatch.setattr(modules, "StabilizerChain", counted_chain)
    monkeypatch.setattr(modules.TowerCoordinates, "__init__", recorded_init)
    chief_series(parse_spec(spec).resolved)
    assert towers
    rng = random.Random(spec)
    for tower, W, K, p, chains_built in towers:
        assert chains_built == tower.width
        assert tower.chains[0] is K.chain
        assert [c.order for c in tower.chains] == \
            [K.order * p ** i for i in range(tower.width + 1)]
        assert tower.chains[-1].order == W.order
        gens = W.chain.strong_generators()

        def word():
            out = rng.choice(gens)
            for _ in range(rng.randrange(4)):
                out = out * rng.choice(gens)
            return out

        for _ in range(20):
            x, y = word(), word()
            assert np.array_equal(
                tower.coords_arr((x * y).images),
                (tower.coords_arr(x.images) + tower.coords_arr(y.images)) % p)
