"""Per-layer tracing by wrapping `maxsub`'s public functions from outside.

`Tracer.install()` replaces each traced function in every `maxsub` module
that holds a reference to it (and each traced method on its class), so the
program itself is unchanged.  Each call records a span
[name, start, end, parent] in memory; `layer_metrics()` derives self and
inclusive times and call counts from the spans afterwards.

The hottest scalar calls (`StabilizerChain.contains`, `ElementTable.conj`)
are left unwrapped: they run millions of times and their spans would
swamp the run.
"""

import functools
import json
import sys
import time

# (module, attribute) -> span name.  "Class.method" patches the class.
TRACED = {
    ("maxsub.bsgs", "StabilizerChain.__init__"): "bsgs.chain",
    ("maxsub.group", "normal_closure"): "group.normal_closure",
    ("maxsub.group", "coset_action"): "group.coset_action",
    ("maxsub.tables", "ElementTable.__init__"): "tables.table",
    ("maxsub.lattice", "_build_lattice"): "lattice.lattice",
    ("maxsub.modules", "SectionSpace.__init__"): "modules.section_space",
    ("maxsub.modules", "TowerCoordinates.__init__"):
        "modules.tower_coordinates",
    ("maxsub.structure", "chief_series"): "structure.chief_series",
    ("maxsub.structure", "ensure_factor_flags"): "structure.factor_flags",
    ("maxsub.structure", "g_connected"): "structure.g_connected",
    ("maxsub.structure", "complement_solution_count"): "structure.complement",
    ("maxsub.invariants", "profile"): "invariants.profile",
    ("maxsub.invariants", "min_generators"): "invariants.min_generators",
    ("maxsub.bounds", "bound_mn"): "bounds.bound_mn",
    ("maxsub.bounds", "eta_kappa"): "bounds.eta_kappa",
    ("maxsub.probgen", "gen_prob"): "probgen.gen_prob",
    ("maxsub.probgen", "gen_prob_mc"): "probgen.mc",
    ("maxsub.cli", "parse_spec"): "cli.parse_spec",
}

# per-layer metric -> (how, span names); "self" and "incl" give seconds,
# "count" the number of spans
LAYER_METRICS = {
    "bsgs.chains": ("count", ["bsgs.chain"]),
    "bsgs.chain_s": ("self", ["bsgs.chain"]),
    "group.normal_closures": ("count", ["group.normal_closure"]),
    "group.normal_closure_s": ("self", ["group.normal_closure"]),
    "group.coset_actions": ("count", ["group.coset_action"]),
    "group.coset_action_s": ("self", ["group.coset_action"]),
    "tables.tables": ("count", ["tables.table"]),
    "tables.table_s": ("self", ["tables.table", "tables.mult"]),
    "lattice.lattices": ("count", ["lattice.lattice"]),
    "lattice.lattice_s": ("self", ["lattice.lattice"]),
    "modules.section_spaces": ("count", ["modules.section_space"]),
    "modules.section_space_s": ("self", ["modules.section_space"]),
    "modules.tower_coordinates": ("count", ["modules.tower_coordinates"]),
    "modules.tower_coordinates_s": ("self", ["modules.tower_coordinates"]),
    "structure.chief_series_s": ("incl", ["structure.chief_series"]),
    "structure.factor_flags_s": ("incl", ["structure.factor_flags"]),
    "structure.g_connected_calls": ("count", ["structure.g_connected"]),
    "structure.g_connected_s": ("self", ["structure.g_connected"]),
    "structure.complement_counts": ("count", ["structure.complement"]),
    "structure.complement_s": ("self", ["structure.complement"]),
    "invariants.profile_s": ("incl", ["invariants.profile"]),
    "invariants.min_generators_s": ("incl", ["invariants.min_generators"]),
    "bounds.bounds_s": ("self", ["bounds.bound_mn", "bounds.eta_kappa"]),
    "probgen.gen_prob_s": ("self", ["probgen.gen_prob"]),
    "probgen.mc_s": ("self", ["probgen.mc"]),
    "cli.parse_s": ("incl", ["cli.parse_spec"]),
}
COUNTERS = ("probgen.mc_trials",)


class Tracer:
    """The spans [name, start, end, parent index or -1] and counters of one
    traced run, kept in memory until `dump`."""

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return traced

    def _wrap_mc(self, fn):
        traced = self.wrap("probgen.mc", fn)

        @functools.wraps(fn)
        def counted(G, k, trials, *args, **kwargs):
            self.counters["probgen.mc_trials"] += trials
            return traced(G, k, trials, *args, **kwargs)
        return counted

    def _wrap_mult(self, prop):
        """ElementTable.mult: trace only the call that builds the table."""
        build = self.wrap("tables.mult", prop.fget)

        def mult(table):
            if table._mult is None:
                return build(table)
            return table._mult
        return property(mult)

    def install(self):
        """Patch every traced name in the loaded `maxsub` modules."""
        import maxsub.cli  # noqa: F401  (loads every module the CLI uses)
        from maxsub.tables import ElementTable
        ElementTable.mult = self._wrap_mult(ElementTable.__dict__["mult"])
        for (modname, attr), name in TRACED.items():
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapped = (self._wrap_mc(orig) if name == "probgen.mc"
                       else self.wrap(name, orig))
            for m in list(sys.modules.values()):
                if (getattr(m, "__name__", "").startswith("maxsub")
                        and getattr(m, attr, None) is orig):
                    setattr(m, attr, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counters": self.counters}, fh)


def layer_metrics(span_list, counter_values):
    """Per-layer figures from a list of finished spans."""
    count, self_s, incl_s = {}, {}, {}
    child_s = [0.0] * len(span_list)
    for name, start, end, parent in span_list:
        if parent >= 0:
            child_s[parent] += end - start
    for i, (name, start, end, parent) in enumerate(span_list):
        dur = end - start
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]
        # inclusive time counts only the outermost span of a recursive name
        p = parent
        while p >= 0 and span_list[p][0] != name:
            p = span_list[p][3]
        if p < 0:
            incl_s[name] = incl_s.get(name, 0.0) + dur
    table = {"count": count, "self": self_s, "incl": incl_s}
    out = {}
    for metric, (how, names) in LAYER_METRICS.items():
        total = sum(table[how].get(n, 0) for n in names)
        out[metric] = total if how == "count" else float(total)
    out.update(counter_values)
    return out


def unit(metric):
    how = LAYER_METRICS.get(metric, ("",))[0]
    return "count" if how == "count" or metric in COUNTERS else "s"

