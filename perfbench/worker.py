"""Runs one workload's operations in a fresh process and reports raw results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--spans PATH]

Started by run.py with `src/` on PYTHONPATH and the BLAS pool pinned to
one thread.  Prints one JSON object on stdout: the wall clock when the
first operation could run, the answers and times of every operation of
every round, the peak resident memory and, when tracing, the per-layer
figures of the traced round.  It checks nothing; run.py does.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

from workloads import WORKLOADS, op_label

import maxsub.cli
import maxsub.probgen
from maxsub.catalog import builtin

# the first operation can run from here on
READY_WALL = time.time()


def run_op(op, seed):
    """One timed call into maxsub; returns its record."""
    out, err = io.StringIO(), io.StringIO()
    rec = {"op": op_label(op)}
    G = builtin(op[1]) if op[0] == "mc" else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op[0] == "cli":
                rc = maxsub.cli.main(["--seed", str(seed), *op[1]])
            else:
                res = maxsub.probgen.gen_prob_mc(G, op[2], op[3], seed)
                rc = 0
    except Exception as e:  # a failed operation is recorded, the round goes on
        rec.update(seconds=time.perf_counter() - t0, status="error",
                   error=f"{type(e).__name__}: {e}",
                   traceback=traceback.format_exc()[-2000:])
        return rec
    rec["seconds"] = time.perf_counter() - t0
    if rc != 0:
        rec.update(status="error", error=f"exit {rc}: {err.getvalue()[-300:]}")
    elif op[0] == "cli":
        rec.update(status="ok", answer=json.loads(out.getvalue()))
    else:
        rec.update(status="ok", answer=res.to_json())
    return rec


def run_round(ops, seed):
    records = [run_op(op, seed) for op in ops]
    return {"seed": seed, "ops": records,
            "wall_s": sum(r["seconds"] for r in records)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    ops = WORKLOADS[args.workload]
    result = {"ready_wall": READY_WALL, "rounds": []}
    if args.trace:
        # one untraced round, then the same round traced
        result["rounds"].append(run_round(ops, args.seed))
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        traced = run_round(ops, args.seed)
        result["traced"] = traced
        result["layers"] = tracing.layer_metrics(tracer.spans,
                                                 tracer.counters)
        result["layers"]["trace.overhead_s"] = (
            traced["wall_s"] - result["rounds"][0]["wall_s"])
        if args.spans:
            tracer.dump(args.spans)
    else:
        # whole rounds until the time is up; round r uses seed + r
        start = time.perf_counter()
        while (not result["rounds"]
               or time.perf_counter() - start < args.seconds):
            result["rounds"].append(
                run_round(ops, args.seed + len(result["rounds"])))
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
