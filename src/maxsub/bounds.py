"""Bound evaluation: maximal-subgroup counts per index and the
random-generation bounds built from them.

Integer bounds are exact big-integer arithmetic; the real-valued bounds
(eta, kappa, the script-M routes) are double precision with a documented
1e-9 comparison slack.  All logs are base 2; log_n x = log x / log n, and
an empty maximum is -inf.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .group import coset_action
from .lattice import maximal_subgroups
from .simptable import is_prime_power, power_of_simple_order

SLACK = 1e-9
NEG_INF = float("-inf")


class IndexClass:
    __slots__ = ("n", "in_T", "in_S")

    def __init__(self, n, in_T, in_S):
        self.n = n
        self.in_T = in_T
        self.in_S = in_S      # True / False / None (beyond table cap)

    def __repr__(self):
        return f"<n={self.n} T={self.in_T} S={self.in_S}>"


def classify_index(n):
    if n < 2:
        raise ValueError("index classification needs n >= 2")
    return IndexClass(n, is_prime_power(n), power_of_simple_order(n))


class BoundReport:
    __slots__ = ("n", "m_exact", "bound_mn", "bound_lub_A", "bound_lubotzky",
                 "per_type", "witnesses", "conservative")

    def __init__(self, n):
        self.n = n
        self.m_exact = None
        self.bound_mn = None
        self.bound_lub_A = None
        self.bound_lubotzky = None
        self.per_type = {}
        self.witnesses = {}
        self.conservative = False

    def to_json(self):
        return {
            "n": self.n,
            "m_exact": self.m_exact,
            "bound_mn": self.bound_mn,
            "bound_lub_A": self.bound_lub_A,
            "bound_lubotzky": self.bound_lubotzky,
            "per_type": {str(k): v for k, v in sorted(self.per_type.items())},
            "witnesses": {k: v for k, v in sorted(self.witnesses.items())},
            "conservative": self.conservative,
        }


def bound_mn(prof, n):
    """Case-selected bound on the number of index-n maximal subgroups,
    plus the two comparison bounds."""
    rep = BoundReport(n)
    if prof.m_exact is not None:
        rep.m_exact = prof.m_exact.get(n, 0)
    d = prof.d
    cls = classify_index(n)
    cr = prof.cr_ab.get(n, 0)
    rks = prof.rks.get(n, 0)
    rko = prof.rko.get(n, 0)
    rkm = prof.rkm.get(n, 0)
    s_n = prof.s.get(n, 0)
    rep.witnesses = {"d": d, "cr_ab": cr, "rks": rks, "rko": rko,
                     "rkm": rkm, "s": s_n, "in_T": cls.in_T, "in_S": cls.in_S}

    def t_case():
        type1 = (n ** d - 1) * cr
        type2 = n * n * rks
        return type1 + type2, {1: type1, 2: type2}

    def s_case():
        type2 = n * n * rks
        # the type-3 count is an integer, so flooring the rational bound
        # rkm(rko - s)/2 keeps it valid
        type3 = int(n * n * Fraction(rkm * max(rko - s_n, 0), 2))
        return type2 + type3, {2: type2, 3: type3}

    def plain_case():
        type2 = n * n * rks
        return type2, {2: type2}

    if cls.in_T:
        rep.bound_mn, rep.per_type = t_case()
    elif cls.in_S is True:
        rep.bound_mn, rep.per_type = s_case()
    elif cls.in_S is False:
        rep.bound_mn, rep.per_type = plain_case()
    else:
        # unknown simple-power status: evaluate both branches, keep the max
        b1, p1 = s_case()
        b2, p2 = plain_case()
        rep.bound_mn, rep.per_type = (b1, p1) if b1 >= b2 else (b2, p2)
        rep.conservative = True
    if prof.r is not None and d >= 2:
        rep.bound_lub_A = prof.r * n ** (d + 2)
    # Lubotzky-style comparison, refined per index as in the worked example:
    # r_b counts the non-abelian chief factors relevant at this index
    # (core-free maximal of index n in the primitive group, or order n),
    # and r_a the abelian chief factors of order n
    ab_n = prof.ab.get(n, 0)
    overlap = getattr(prof, "rks_rko_overlap", {}).get(n, 0)
    r_b = rks + rko - overlap
    rep.bound_lubotzky = ((r_b + 1) * r_b // 2 + ab_n * n ** d) * n * n
    rep.witnesses["r_b_at_n"] = r_b
    rep.witnesses["ab"] = ab_n
    rep.witnesses["r"] = prof.r
    return rep


class NuReport:
    __slots__ = ("eta", "kappa", "script_M_plus", "script_M_minus",
                 "lubotzky_nu", "dl_bound", "nu_exact", "notes")

    def __init__(self):
        self.eta = None
        self.kappa = None
        self.script_M_plus = None
        self.script_M_minus = None
        self.lubotzky_nu = None
        self.dl_bound = None
        self.nu_exact = None
        self.notes = {}

    def to_json(self):
        out = {
            "eta": self.eta,
            "kappa": self.kappa,
            "script_M_plus": self.script_M_plus,
            "script_M_minus": self.script_M_minus,
            "lubotzky_nu": self.lubotzky_nu,
            "dl_bound": self.dl_bound,
            "nu_exact": self.nu_exact,
        }
        if self.notes:
            out["notes"] = dict(sorted(self.notes.items()))
        return out


def _log2(x):
    return math.log2(x)


def _logn(n, x):
    if x <= 0:
        return NEG_INF
    return math.log2(x) / math.log2(n)


def eta_kappa(prof, mroute_indices=None):
    """The two new generation bounds plus the comparison routes.

    The log_n 2 terms are kept exactly when the corresponding pair of
    invariants is nonzero (otherwise the two-term maximum collapses and
    the factor 2 is not needed).
    """
    rep = NuReport()
    d = prof.d
    if d < 2:
        rep.notes["eta"] = "skipped: d = 1 (bounds assume a non-cyclic group)"
        _fill_comparison_routes(rep, prof, mroute_indices)
        return rep

    term1 = NEG_INF
    for n, cr in prof.cr_ab.items():
        if cr <= 0:
            continue
        cls = classify_index(n)
        if not cls.in_T:
            continue
        extra = _logn(n, 2) if cr * prof.rks.get(n, 0) != 0 else 0.0
        term1 = max(term1, d + 2.02 + extra + _logn(n, cr))
    term2 = NEG_INF
    for n, rks in prof.rks.items():
        if rks <= 0:
            continue
        cls = classify_index(n)
        pair = (cls.in_T and prof.cr_ab.get(n, 0) * rks != 0) or \
               (cls.in_S is True and rks * prof.rko.get(n, 0) != 0) or \
               (cls.in_S is None and rks * prof.rko.get(n, 0) != 0)
        extra = _logn(n, 2) if pair else 0.0
        term2 = max(term2, 4.02 + extra + _logn(n, rks))
    term3_eta = NEG_INF
    term3_kappa = NEG_INF
    for n, rko in prof.rko.items():
        if rko <= 0:
            continue
        cls = classify_index(n)
        if cls.in_S is False:
            continue
        rkm = prof.rkm.get(n, 0)
        if rkm > 0:
            term3_eta = max(term3_eta, 4.02 + _logn(n, rkm) + _logn(n, rko))
        term3_kappa = max(term3_kappa, 4.02 + d + _logn(n, rko))
    rep.eta = max(term1, term2, term3_eta)
    rep.kappa = max(term1, term2, term3_kappa)
    if rep.eta > rep.kappa + SLACK:
        raise RuntimeError("eta exceeded kappa; formula evaluation bug")
    _fill_comparison_routes(rep, prof, mroute_indices)
    return rep


def _fill_comparison_routes(rep, prof, mroute_indices):
    if isinstance(prof.script_M, tuple):
        rep.script_M_plus = prof.script_M[0] + 2.02
        rep.script_M_minus = prof.script_M[0] - 3.5
    elif prof.script_M == "-inf":
        rep.script_M_plus = NEG_INF
        rep.script_M_minus = NEG_INF
    elif mroute_indices:
        # upper route through the per-index Lubotzky bounds
        best = NEG_INF
        for n in mroute_indices:
            b = bound_mn(prof, n).bound_lubotzky
            if b and b > 0:
                best = max(best, _logn(n, b))
        if best > NEG_INF:
            rep.script_M_plus = best + 2.02
            rep.notes["script_M_plus"] = \
                "upper route via per-index bounds (exact m_n unavailable)"
    if prof.min_index and prof.order:
        loglog = _log2(_log2(prof.order)) if prof.order > 2 else 0.0
        logp = _log2(prof.min_index)
        rep.lubotzky_nu = ((1 + loglog) / logp
                           + max(prof.d, loglog / logp) + 2.02)
    if prof.lambda_ > 1:
        rep.dl_bound = math.floor(prof.d + 5.02 * _log2(prof.lambda_)
                                  + SLACK)
    else:
        rep.dl_bound = math.floor(prof.d + 5.02 + SLACK)


def check_b2(G):
    """Per primitive quotient of G: core-free maximal counts versus n^2."""
    if G.order == 1:
        return []
    results = []
    seen_cores = set()
    for rec in maximal_subgroups(G):
        core_key = rec.core_mask
        if core_key in seen_cores:
            continue
        seen_cores.add(core_key)
        if rec.core.order == 1:
            Q = G
        else:
            Q = coset_action(G, rec.core).quotient
        counts = {}
        for qrec in maximal_subgroups(Q):
            if qrec.core.order == 1:
                counts[qrec.index] = counts.get(qrec.index, 0) + \
                    qrec.class_ref.class_size
        for n, cnt in sorted(counts.items()):
            results.append((rec.core.order, n, cnt, cnt <= n * n))
    return results


def markdown_bound_table(reports):
    """Comparison table in the layout of the worked example."""
    lines = ["| n | m_n (exact) | new bound | Lubotzky-style bound |",
             "|---|---|---|---|"]
    for rep in reports:
        m = rep.m_exact if rep.m_exact is not None else ""
        lines.append(f"| {rep.n} | {m} | {rep.bound_mn} | "
                     f"{rep.bound_lubotzky} |")
    return "\n".join(lines)
