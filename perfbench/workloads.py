"""The benchmark's workloads: which operations one round runs.

An operation is one call into a public entry point of `maxsub`:

* ("cli", argv)            -> maxsub.cli.main(["--seed", s] + argv)
* ("mc", spec, k, trials)  -> maxsub.probgen.gen_prob_mc(G, k, trials, s)

where s is the round's seed.  Every round of a workload runs the same
operations in the same order; only the seed changes between rounds.
"""

A5_X_A5 = "perm:10:(1,2,3,4,5);(1,2,3);(6,7,8,9,10);(6,7,8)"

SMALL_SPECS = ["sym:4", "sym:5", "alt:5", "psl:2,7", "agammal:1,8",
               "alt:6", "sym:6"]
# dp:alt:5+alt:5 fails every time while the product-d fault stands: the
# assembled profile of a direct product leaves d uncertified and bound_mn
# raises ValueError.  It is kept as an attempted, failed operation.
LARGE_SPECS = ["agl:3,2", "hat:agl:1,8;2", "lk:sym:4,3", A5_X_A5,
               "dp:alt:5+alt:5"]
MC_SPECS = ["sym:4", "alt:5", "psl:2,7", "agl:3,2"]
MC_K = 2
MC_TRIALS = 2000
NU_MC_SPEC = "alt:5"
NU_MC_TRIALS = 1000

WORKLOADS = {
    "analyze-small":
        [("cli", ("analyze", s)) for s in SMALL_SPECS]
        + [("cli", ("nu", s)) for s in SMALL_SPECS],
    "analyze-large":
        [("cli", ("analyze", s)) for s in LARGE_SPECS],
    "mc-generation":
        [("mc", s, MC_K, MC_TRIALS) for s in MC_SPECS]
        + [("cli", ("nu", NU_MC_SPEC, "--mode", "mc",
                    "--trials", str(NU_MC_TRIALS)))],
}


def op_label(op):
    if op[0] == "cli":
        return " ".join(op[1])
    _, spec, k, trials = op
    return f"gen_prob_mc {spec} k={k} trials={trials}"


def op_spec(op):
    """The group spec an operation works on."""
    return op[1][1] if op[0] == "cli" else op[1]
