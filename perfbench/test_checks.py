"""Tests of the benchmark's own checks: a corrupted answer must be rejected.

    python3 -m pytest -q perfbench

These tests need neither `maxsub` nor a benchmark run: the answers are
built from the brute-force references, then corrupted one field at a time.
"""

import copy
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import refs
import tracing

A5_GENS = [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]       # (1,2,3), (1,2,3,4,5)
S4_GENS = [[1, 0, 2, 3], [1, 2, 3, 0]]             # (1,2), (1,2,3,4)


@pytest.fixture(scope="module")
def a5():
    return refs.SmallGroup(5, A5_GENS)


@pytest.fixture(scope="module")
def a5_ref(a5):
    return checks.Reference(order=60, closed_form_order=60, m_n=a5.m_n(),
                            m_n_source="brute-force count",
                            gen_prob=a5.gen_prob)


@pytest.fixture
def a5_answer():
    """An `analyze alt:5` answer with the values maxsub reports."""
    bounds = [{"n": n, "m_exact": m, "bound_mn": n * n,
               "bound_lub_A": n ** 4, "bound_lubotzky": n * n}
              for n, m in ((5, 5), (6, 6), (10, 10), (60, 0))]
    return {"spec": "alt:5",
            "profile": {"order": "60", "ab": {}, "rko": {"60": 1},
                        "m_exact": {"5": 5, "6": 6, "10": 10}},
            "bounds": bounds,
            "nu": {"eta": 4.02, "kappa": 6.02, "dl_bound": 7,
                   "lubotzky_nu": 5.55, "script_M_minus": -2.5}}


def test_brute_force_matches_known_values(a5):
    assert a5.order == 60
    assert a5.m_n() == {5: 5, 6: 6, 10: 10}
    assert a5.gen_prob(1) == 0
    assert a5.gen_prob(2) == Fraction(19, 30)
    s4 = refs.SmallGroup(4, S4_GENS)
    assert s4.m_n() == {2: 1, 3: 3, 4: 4}
    assert s4.gen_prob(2) == Fraction(3, 8)


def test_one_over_e_comparison():
    assert refs.at_least_one_over_e(Fraction(3679, 10000))
    assert not refs.at_least_one_over_e(Fraction(3678, 10000))


def test_correct_analyze_answer_passes(a5_answer, a5_ref):
    assert checks.check_analyze(a5_answer, a5_ref) == []


def test_m_n_off_by_one_is_rejected(a5_answer, a5_ref):
    a5_answer["profile"]["m_exact"]["6"] = 7
    assert checks.check_analyze(a5_answer, a5_ref)


def test_wrong_order_is_rejected(a5_answer, a5_ref):
    a5_answer["profile"]["order"] = "120"
    a5_answer["profile"]["ab"] = {"2": 1}      # keep the chief product whole
    found = checks.check_analyze(a5_answer, a5_ref)
    assert any("sympy order" in p for p in found)
    assert any("closed-form" in p for p in found)


def test_chief_factors_not_multiplying_to_order_are_rejected(a5_answer,
                                                              a5_ref):
    a5_answer["profile"]["rko"] = {"60": 1, "2": 1}
    assert checks.check_analyze(a5_answer, a5_ref)


@pytest.mark.parametrize("key", ["bound_mn", "bound_lubotzky", "bound_lub_A"])
def test_m_exact_above_a_bound_is_rejected(a5_answer, a5_ref, key):
    a5_answer["bounds"][0][key] = 4          # m_5 = 5 > 4
    assert checks.check_analyze(a5_answer, a5_ref)


def test_nu_checks(a5_answer, a5_ref):
    report = a5_answer["nu"]
    assert checks.check_nu({"nu": 2}, a5_ref, report) == []
    assert checks.check_nu({"nu": 1}, a5_ref, report)
    assert checks.check_nu({"nu": 3}, a5_ref, report)
    assert checks.check_nu({"nu_bracket": [2, 3]}, a5_ref, report)
    low = dict(report, eta=0.9)
    assert checks.check_nu({"nu": 2}, a5_ref, low)
    high = dict(report, script_M_minus=2.5)
    assert checks.check_nu({"nu": 2}, a5_ref, high)


def test_mc_estimate_past_tolerance_is_rejected():
    p, trials, seed = Fraction(19, 30), 2000, 4
    tol = checks.mc_tolerance(p, trials)
    answer = {"k": 2, "trials": trials, "seed": seed, "estimate": float(p)}
    assert checks.check_mc(answer, p, 2, trials, seed) == []
    inside = dict(answer, estimate=float(p) - 0.99 * tol)
    assert checks.check_mc(inside, p, 2, trials, seed) == []
    for shift in (1.01 * tol, -1.01 * tol):
        past = dict(answer, estimate=float(p) + shift)
        assert checks.check_mc(past, p, 2, trials, seed)
    assert checks.check_mc(dict(answer, trials=1000), p, 2, trials, seed)


def _round(seed, answers):
    return {"seed": seed, "ops": [
        {"op": op, "status": "ok", "answer": dict(ans, provenance={"seed": seed})}
        for op, ans in answers.items()]}


def test_seed_dependent_answer_is_rejected():
    a = checks.exact_answers(_round(1, {"nu alt:5": {"nu": 2}}))
    b = checks.exact_answers(_round(2, {"nu alt:5": {"nu": 2}}))
    c = checks.exact_answers(_round(3, {"nu alt:5": {"nu": 3}}))
    assert checks.check_seed_invariance(2, b, 1, a) == []
    assert checks.check_seed_invariance(3, c, 1, a)


def test_estimates_are_not_compared_across_seeds():
    a = checks.exact_answers(_round(1, {"mc": {"estimate": 0.6}}))
    assert a == {}


def test_traced_answer_differing_is_rejected():
    plain = _round(1, {"nu alt:5": {"nu": 2}})
    same = copy.deepcopy(plain)
    other = _round(1, {"nu alt:5": {"nu": 3}})
    assert checks.check_identical(plain, same) == []
    assert checks.check_identical(plain, other)


def test_layer_metrics_self_and_inclusive_times():
    spans = [
        ["invariants.profile", 0.0, 10.0, -1],
        ["structure.chief_series", 1.0, 5.0, 0],
        ["bsgs.chain", 2.0, 3.0, 1],
        ["bsgs.chain", 3.0, 3.5, 1],
        ["cli.parse_spec", 6.0, 9.0, 0],
        ["cli.parse_spec", 6.5, 8.0, 4],        # recursive call
    ]
    m = tracing.layer_metrics(spans, {"probgen.mc_trials": 7})
    assert m["bsgs.chains"] == 2
    assert m["bsgs.chain_s"] == pytest.approx(1.5)
    assert m["structure.chief_series_s"] == pytest.approx(4.0)   # incl
    assert m["invariants.profile_s"] == pytest.approx(10.0)      # incl
    assert m["cli.parse_s"] == pytest.approx(3.0)                # incl
    assert m["probgen.mc_trials"] == 7
    assert m["group.normal_closures"] == 0
    assert tracing.unit("bsgs.chain_s") == "s"
    assert tracing.unit("bsgs.chains") == "count"
    assert tracing.unit("probgen.mc_trials") == "count"
    assert tracing.unit("trace.overhead_s") == "s"


def test_run_without_the_program_fails_without_a_result(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-generation",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
