"""Answer checks.  Every function returns a list of problems; empty = pass.

Answers are checked against computations made outside `maxsub` (see
refs.py) or against properties the method must have, never against a saved
copy of an earlier output.  The one comparison between outputs is the
seed-invariance check: the same code must give the same exact answers
under every seed.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from refs import at_least_one_over_e

# A Monte-Carlo estimate passes when it lies within this many binomial
# standard deviations sqrt(p(1-p)/trials) of the exact P_G(k).  A correct
# estimator falls outside with probability below 1e-6 per check.
MC_SIGMAS = 5.0

NU_UPPER_KEYS = ("eta", "kappa", "dl_bound", "lubotzky_nu")


@dataclass
class Reference:
    """What is known about one group spec without asking `maxsub`."""
    order: int                                   # from sympy
    closed_form_order: Optional[int] = None
    m_n: Optional[dict] = None                   # index -> count
    m_n_source: str = ""
    gen_prob: Optional[Callable[[int], Fraction]] = None   # exact P_G(k)


def check_analyze(ans, ref):
    problems = []
    prof = ans["profile"]
    order = int(prof["order"])
    if order != ref.order:
        problems.append(f"order {order} != sympy order {ref.order}")
    if ref.closed_form_order is not None and order != ref.closed_form_order:
        problems.append(
            f"order {order} != closed-form order {ref.closed_form_order}")
    chief = 1
    for key in ("ab", "rko"):
        for n, c in prof[key].items():
            chief *= int(n) ** c
    if chief != order:
        problems.append(f"chief factor orders multiply to {chief}, "
                        f"not the order {order}")
    for b in ans["bounds"]:
        m = b["m_exact"]
        if m is None:
            continue
        for key in ("bound_mn", "bound_lubotzky", "bound_lub_A"):
            if b[key] is not None and m > b[key]:
                problems.append(f"m_{b['n']} = {m} exceeds {key} = {b[key]}")
    if ref.m_n is not None:
        got = {int(n): c for n, c in (prof["m_exact"] or {}).items() if c}
        if got != ref.m_n:
            problems.append(f"m_exact {got} != {ref.m_n_source} {ref.m_n}")
    return problems


def check_nu(ans, ref, nu_report=None):
    """An exact nu answer (from `nu` in either mode)."""
    value = ans.get("nu")
    if not isinstance(value, int):
        return [f"no exact nu in {ans}"]
    problems = []
    if ref.gen_prob is not None:
        if not at_least_one_over_e(ref.gen_prob(value)):
            problems.append(f"P_G({value}) < 1/e, so nu > {value}")
        if value > 1 and at_least_one_over_e(ref.gen_prob(value - 1)):
            problems.append(f"P_G({value - 1}) >= 1/e, so nu < {value}")
    if nu_report is not None:
        low = nu_report.get("script_M_minus")
        if low is not None and value < low:
            problems.append(f"nu = {value} < script_M_minus = {low}")
        for key in NU_UPPER_KEYS:
            up = nu_report.get(key)
            if up is not None and value > math.ceil(up):
                problems.append(f"nu = {value} > ceil({key}) = {up}")
    return problems


def mc_tolerance(p, trials):
    p = float(p)
    return MC_SIGMAS * math.sqrt(p * (1 - p) / trials)


def check_mc(ans, p_exact, k, trials, seed):
    problems = []
    if (ans["k"], ans["trials"], ans["seed"]) != (k, trials, seed):
        problems.append(f"ran k={ans['k']} trials={ans['trials']} "
                        f"seed={ans['seed']}, asked k={k} trials={trials} "
                        f"seed={seed}")
    tol = mc_tolerance(p_exact, trials)
    if abs(ans["estimate"] - float(p_exact)) > tol:
        problems.append(f"estimate {ans['estimate']} is off the exact "
                        f"P_G({k}) = {p_exact} by more than {tol:.4f}")
    return problems


def _without_provenance(ans):
    return {k: v for k, v in ans.items() if k != "provenance"}


def exact_answers(rnd):
    """The answers of a round that must not depend on the seed: every
    successful answer except Monte-Carlo estimates, without the echoed
    seed."""
    return {rec["op"]: _without_provenance(rec["answer"])
            for rec in rnd["ops"]
            if rec["status"] == "ok" and "estimate" not in rec["answer"]}


def check_seed_invariance(seed, answers, other_seed, other_answers):
    return [f"{op}: answer under seed {seed} differs from seed {other_seed}"
            for op, ans in answers.items()
            if op in other_answers and other_answers[op] != ans]


def check_identical(round_a, round_b):
    """Two rounds with the same seed (untraced and traced) agree exactly."""
    problems = []
    for a, b in zip(round_a["ops"], round_b["ops"]):
        if (a["status"], a.get("answer")) != (b["status"], b.get("answer")):
            problems.append(f"{a['op']}: traced answer differs from untraced")
    return problems
