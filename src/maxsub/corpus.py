"""The verification corpus and its cross-module invariant suites.

Each check returns (label, ok, detail); the CLI corpus command and the
acceptance suite both consume these.  Checks pair an implementation path
with an independent route (naive closure counts, lattice filters, brute
tuple counts, bound inequalities) and never weaken a failed comparison.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .bounds import bound_mn, check_b2, classify_index, eta_kappa
from .catalog import alt, builtin, cyc, dih, sym
from .group import direct_product
from .invariants import profile
from .lattice import m_n_map, maximal_subgroups, subgroup_classes
from .probgen import gen_prob, nu
from .structure import chief_series, classify_maximal

BRUTE_ORDER_CAP = 600     # largest order whose tuples are counted by brute force


def corpus_groups(include_heavy=True):
    """The standard corpus: catalog builtins of order <= 2000 plus small
    products reachable from the catalog (order <= 100)."""
    groups = []
    for n in range(2, 7):
        groups.append(sym(n))
    for n in range(4, 7):
        groups.append(alt(n))
    for n in (2, 3, 4, 5, 6, 8, 9, 12, 30):
        groups.append(cyc(n))
    for n in (3, 4, 5, 6, 8, 12):
        groups.append(dih(n))
    groups.append(builtin("sl:2,3"))
    groups.append(builtin("psl:2,7"))
    groups.append(builtin("agl:1,8"))
    groups.append(builtin("agammal:1,8"))
    if include_heavy:
        groups.append(builtin("agl:3,2"))
    # small products of catalog groups (order <= 100)
    for parts in [(cyc(2), cyc(2)), (cyc(3), cyc(3)), (cyc(2), cyc(4)),
                  (sym(3), cyc(2)), (sym(3), sym(3)), (alt(4), cyc(2)),
                  (cyc(2), cyc(2), cyc(2)), (dih(4), cyc(3)),
                  (sym(4), cyc(2)), (cyc(5), cyc(2))]:
        P, _, _ = direct_product(list(parts))
        groups.append(P)
    return groups


# -- individual suites ----------------------------------------------------------


def check_chief_product(G):
    total = 1
    for d in chief_series(G):
        total *= d.order
    ok = total == G.order
    return (f"chief-order-product[{G.name}]", ok,
            f"product {total} vs order {G.order}")


def check_maximals_vs_bruteforce_filter(G):
    """Maximal records versus a direct pairwise-containment filter over the
    full expanded subgroup list."""
    lat = subgroup_classes(G)
    masks = lat.all_subgroup_masks()
    whole = lat.whole.rep_mask
    sizes = {}
    for m in masks:
        sizes.setdefault(bin(m).count("1"), []).append(m)
    brute_max = 0
    orders = sorted(sizes)
    for m in masks:
        sz = bin(m).count("1")
        if m == whole:
            continue
        dominated = False
        for bigger in orders:
            if bigger <= sz or bigger == bin(whole).count("1"):
                continue
            if bigger % sz:
                continue
            for mm in sizes[bigger]:
                if m & mm == m:
                    dominated = True
                    break
            if dominated:
                break
        if not dominated:
            brute_max += 1
    fast = sum(r.class_ref.class_size for r in maximal_subgroups(G))
    ok = brute_max == fast
    return (f"maximals-vs-filter[{G.name}]", ok,
            f"filter {brute_max} vs records {fast}")


def check_baer_partition(G):
    """Type counts per index sum to m_n and match the quotient route."""
    recs = maximal_subgroups(G)
    per_index = {}
    for r in recs:
        per_index.setdefault(r.index, [0, 0, 0])
        per_index[r.index][r.baer_type - 1] += r.class_ref.class_size
        qt = classify_maximal(G, r.subgroup)
        if qt != r.baer_type:
            return (f"baer-types[{G.name}]", False,
                    f"lattice type {r.baer_type} vs quotient type {qt}")
    mn = m_n_map(G)
    for n, counts in per_index.items():
        if sum(counts) != mn.get(n, 0):
            return (f"baer-types[{G.name}]", False, f"partition at {n}")
    return (f"baer-types[{G.name}]", True, f"{len(recs)} classes")


def check_type_bounds(G):
    """Per-type counts against the three per-type theorems, m_n against the
    case bound, r n^(d+2), and the Lubotzky-style bound."""
    prof = profile(G)
    recs = maximal_subgroups(G)
    per_index = {}
    for r in recs:
        per_index.setdefault(r.index, [0, 0, 0])
        per_index[r.index][r.baer_type - 1] += r.class_ref.class_size
    d = prof.d
    for n, (t1, t2, t3) in sorted(per_index.items()):
        cls = classify_index(n)
        cr = prof.cr_ab.get(n, 0)
        rks = prof.rks.get(n, 0)
        rkm = prof.rkm.get(n, 0)
        rko = prof.rko.get(n, 0)
        s_n = prof.s.get(n, 0)
        if t1 > (n ** d - 1) * cr:
            return (f"type-bounds[{G.name}]", False, f"type1 at {n}")
        if t2 > n * n * rks:
            return (f"type-bounds[{G.name}]", False, f"type2 at {n}")
        cap3 = n * n * rkm * max(rko - s_n, 0) // 2 if rkm else 0
        if t3 > cap3:
            return (f"type-bounds[{G.name}]", False, f"type3 at {n}")
        rep = bound_mn(prof, n)
        m = t1 + t2 + t3
        if m > rep.bound_mn:
            return (f"type-bounds[{G.name}]", False, f"case bound at {n}")
        if rep.bound_lub_A is not None and m > rep.bound_lub_A:
            return (f"type-bounds[{G.name}]", False, f"r n^(d+2) at {n}")
        if m > rep.bound_lubotzky:
            return (f"type-bounds[{G.name}]", False, f"lubotzky at {n}")
    return (f"type-bounds[{G.name}]", True, f"{len(per_index)} indices")


def check_rkm_cap(G):
    prof = profile(G)
    for n, v in prof.rkm.items():
        if v > n ** prof.d:
            return (f"rkm-cap[{G.name}]", False, f"rkm_{n} = {v}")
    for n, v in prof.cr_ab.items():
        if v and not classify_index(n).in_T:
            return (f"rkm-cap[{G.name}]", False, f"cr at non-prime-power {n}")
    return (f"rkm-cap[{G.name}]", True, "")


def check_corefree_squared(G):
    rows = check_b2(G)
    bad = [r for r in rows if not r[3]]
    return (f"corefree-n2[{G.name}]", not bad, f"{len(rows)} rows")


def check_frattini_properties(G):
    from .lattice import frattini
    from .group import is_normal
    f = frattini(G)
    if not is_normal(G, f):
        return (f"frattini[{G.name}]", False, "not normal")
    for rec in maximal_subgroups(G):
        if not all(rec.subgroup.contains(g) for g in f.generators):
            return (f"frattini[{G.name}]", False, "not inside a maximal")
    return (f"frattini[{G.name}]", True, f"order {f.order}")


def check_moebius_generation(G):
    """Moebius tuple counts versus brute-force closure counting."""
    if G.order > BRUTE_ORDER_CAP:
        return (f"moebius-phi[{G.name}]", True, "skipped above cap")
    lat = subgroup_classes(G)
    els = G.elements()
    for k in (1, 2, 3):
        if G.order ** k > 400_000:
            continue
        brute = 0
        from .bsgs import StabilizerChain
        for tup in product(els, repeat=k):
            try:
                c = StabilizerChain(G.degree, list(tup), known_order=G.order)
                if c.order == G.order:
                    brute += 1
            except ValueError:
                continue
        if lat.eulerian(k) != brute:
            return (f"moebius-phi[{G.name}]", False,
                    f"k={k}: {lat.eulerian(k)} vs {brute}")
    return (f"moebius-phi[{G.name}]", True, "")


def check_nu_sandwich(G):
    """script-M sandwich, eta/kappa, and the 5.02 bound for exact nu."""
    prof = profile(G)
    k = nu(G, mode="exact")
    rep = eta_kappa(prof)
    rep.nu_exact = k
    msgs = []
    if isinstance(prof.script_M, tuple):
        M = prof.script_M[0]
        if not (M - 3.5 <= k + 1e-9 and k <= M + 2.02 + 1e-9):
            return (f"nu-sandwich[{G.name}]", False,
                    f"nu {k} vs script-M {M:.4f}")
    if prof.d >= 2:
        if k > rep.eta + 1e-9:
            return (f"nu-sandwich[{G.name}]", False,
                    f"nu {k} > eta {rep.eta:.4f}")
        if rep.eta > rep.kappa + 1e-9:
            return (f"nu-sandwich[{G.name}]", False, "eta > kappa")
    if rep.dl_bound is not None and k > rep.dl_bound:
        return (f"nu-sandwich[{G.name}]", False,
                f"nu {k} > DL bound {rep.dl_bound}")
    if rep.lubotzky_nu is not None and k > rep.lubotzky_nu + 1e-9:
        return (f"nu-sandwich[{G.name}]", False,
                f"nu {k} > lubotzky {rep.lubotzky_nu:.4f}")
    return (f"nu-sandwich[{G.name}]", True, f"nu={k}")


def check_gen_prob_monotone(G):
    last = Fraction(0)
    for k in range(1, 5):
        p = gen_prob(G, k).exact
        if p < last:
            return (f"gen-prob-monotone[{G.name}]", False, f"drop at k={k}")
        last = p
    return (f"gen-prob-monotone[{G.name}]", True, "")


def run_corpus_checks(groups=None):
    """All suites over the corpus; yields (label, ok, detail)."""
    if groups is None:
        groups = corpus_groups()
    for G in groups:
        checks = [check_chief_product,
                  check_maximals_vs_bruteforce_filter,
                  check_baer_partition,
                  check_type_bounds,
                  check_rkm_cap,
                  check_corefree_squared,
                  check_frattini_properties,
                  check_moebius_generation,
                  check_nu_sandwich,
                  check_gen_prob_monotone]
        for fn in checks:
            res = fn(G)
            if res is None:
                continue
            yield res
