"""The maxsub benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Starts one worker process (worker.py) that
imports `maxsub` from `src/` and runs the workload's operations in whole
rounds until S seconds are up (at least one; round r uses seed N + r).
Then checks every answer against references computed here without
`maxsub`'s algorithms (refs.py, checks.py), and the exact answers against
those of every other seed seen in this checkout, and prints, as the last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`:

* --trace 0: wall_s, max_op_s (medians over rounds), setup_s, peak_rss_mb;
* --trace 1: the per-layer figures of one traced round (tracing.py), whose
  answers must equal those of an untraced round with the same seed.

Raw results and spans go to perfbench/results/.  Exits 1 without a result
line when the worker cannot run or its output cannot be read.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKER_TIMEOUT_S = 150

sys.path.insert(0, HERE)

import checks  # noqa: E402
import refs  # noqa: E402
from workloads import MC_K, WORKLOADS, op_spec  # noqa: E402


def run_worker(args, spans_path):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans_path]
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_wall"] - spawned
    return result


def build_references(specs):
    """Reference data for each spec; imports maxsub only to read the
    generators of the group a spec names."""
    sys.path.insert(0, SRC)
    from maxsub.cli import parse_spec
    out = {}
    for spec in specs:
        G = parse_spec(spec).resolved
        gens = [g.images.tolist() for g in G.generators]
        ref = checks.Reference(
            order=refs.sympy_order(G.degree, gens),
            closed_form_order=refs.CLOSED_FORM_ORDER.get(spec))
        if ref.order <= refs.BRUTE_MAX_ORDER:
            small = refs.SmallGroup(G.degree, gens)
            ref.m_n, ref.m_n_source = small.m_n(), "brute-force count"
            ref.gen_prob = small.gen_prob
        elif spec in refs.ATLAS_M_N:
            ref.m_n, ref.m_n_source = refs.ATLAS_M_N[spec], "ATLAS"
        out[spec] = ref
    return out


def exact_mc_probability(spec, ref):
    """Exact P_G(MC_K): brute force when small, else the Moebius route of
    probgen.gen_prob, which shares no code with the chain-based estimator."""
    if ref.gen_prob is not None:
        return ref.gen_prob(MC_K)
    from maxsub.catalog import builtin
    from maxsub.probgen import gen_prob
    return gen_prob(builtin(spec), MC_K).exact


def check_round(rnd, ops, refs_by_spec, p_mc):
    """Problems per op index for one round."""
    nu_reports = {}
    for op, rec in zip(ops, rnd["ops"]):
        if rec["status"] == "ok" and op[0] == "cli" and op[1][0] == "analyze":
            nu_reports[op[1][1]] = rec["answer"]["nu"]
    problems = {}
    for i, (op, rec) in enumerate(zip(ops, rnd["ops"])):
        if rec["status"] != "ok":
            continue
        spec, ans = op_spec(op), rec["answer"]
        ref = refs_by_spec[spec]
        if op[0] == "mc":
            found = checks.check_mc(ans, p_mc[spec], op[2], op[3], rnd["seed"])
        elif op[1][0] == "analyze":
            found = checks.check_analyze(ans, ref)
        else:
            found = checks.check_nu(ans, ref, nu_reports.get(spec))
        if found:
            problems[i] = found
    return problems


def source_key():
    """Hash of the program and the workload definitions."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "maxsub", "*.py"))) + [
            os.path.join(HERE, "workloads.py")]:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def check_seeds(workload, rounds):
    """Compare the seed-independent answers of each round with those of
    every other seed seen so far, in this run or an earlier run of the same
    code in this checkout (kept in results/answers-*.json)."""
    path = os.path.join(RESULTS, f"answers-{workload}-{source_key()}.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as fh:
            seen = json.load(fh)
    problems = []
    for rnd in rounds:
        seed, answers = str(rnd["seed"]), checks.exact_answers(rnd)
        for other_seed, other in seen.items():
            if other_seed != seed:
                problems.extend(checks.check_seed_invariance(
                    seed, answers, other_seed, other))
        seen[seed] = answers
    with open(path, "w") as fh:
        json.dump(seen, fh)
    return problems


def evaluate(result, ops, workload):
    rounds = result["rounds"] + ([result["traced"]] if "traced" in result
                                 else [])
    specs = sorted({op_spec(op) for op in ops})
    refs_by_spec = build_references(specs)
    p_mc = {op[1]: exact_mc_probability(op[1], refs_by_spec[op[1]])
            for op in ops if op[0] == "mc"}
    problems, attempted, failed = [], 0, 0
    for rnd in rounds:
        bad = check_round(rnd, ops, refs_by_spec, p_mc)
        for i, rec in enumerate(rnd["ops"]):
            attempted += 1
            if rec["status"] != "ok" or i in bad:
                failed += 1
            problems.extend(f"seed {rnd['seed']}: {rec['op']}: {p}"
                            for p in bad.get(i, []))
    problems.extend(check_seeds(workload, result["rounds"]))
    if "traced" in result:
        problems.extend(checks.check_identical(result["rounds"][0],
                                               result["traced"]))
    return problems, attempted, failed


def metrics_of(result, trace):
    if trace:
        from tracing import unit
        return {name: {"value": value, "unit": unit(name)}
                for name, value in result["layers"].items()}
    rounds = result["rounds"]
    return {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds),
                   "unit": "s"},
        "max_op_s": {"value": statistics.median(
            max(op["seconds"] for op in r["ops"]) for r in rounds),
            "unit": "s"},
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "maxsub", "__init__.py")):
        print(f"error: no maxsub package under {SRC}", file=sys.stderr)
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    try:
        result = run_worker(args, stem + "-spans.json")
    except (RuntimeError, ValueError, IndexError,
            subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    ops = WORKLOADS[args.workload]
    problems, attempted, failed = evaluate(result, ops, args.workload)
    for p in problems:
        print(f"REJECTED {p}", file=sys.stderr)
    summary = {"correct": not problems, "attempted": attempted,
               "failed": failed, "metrics": metrics_of(result, args.trace)}
    with open(stem + ".json", "w") as fh:
        json.dump({"summary": summary, "problems": problems,
                   "worker": result}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
