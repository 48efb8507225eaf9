"""Command line front end.

Group spec grammar (no whitespace):

    spec    := builtin
             | "perm:" degree ":" cycles(";"-separated, 1-based)
             | "dp:"  spec "+" spec ["+" spec ...]
             | "sub:" spec "+" spec ["+" spec ...]
             | "lk:"  spec "," k
             | "hat:" spec ";" d

    builtin := sym:n | alt:n | cyc:n | dih:n | sl:2,3 | psl:2,7
             | agl:1,8 | agammal:1,8 | agl:3,2

"dp" is the direct product, "sub" the subdirect product identifying the
factors' generator tuples, "lk" the congruence tower over the unique
complemented abelian minimal normal subgroup, "hat" the orbit-census
subdirect power.  Exit codes: 0 success, 1 violated invariant, 2 refusal
on a stated resource limit or a malformed spec, 3 internal error (any
other exception, reported as "internal error: <Type>: <message>" on
standard error).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import traceback

from . import __version__
from .bounds import bound_mn, eta_kappa, markdown_bound_table
from .bsgs import LimitExceeded
from .catalog import builtin
from .constructions import (MATERIALIZE_DEGREE_LIMIT, build_Lk, hat,
                            subdirect, tuple_orbits)
from .group import direct_product, group_from_generators, is_abelian
from .invariants import profile
from .lattice import DEFAULT_ORDER_LIMIT
from .perms import format_cycles, parse_cycles
from .probgen import NuBracket, nu
from .structure import minimal_normal_subgroups

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_REFUSED = 2
EXIT_INTERNAL = 3


class SpecError(ValueError):
    pass


class GroupSpec:
    __slots__ = ("text", "resolved")

    def __init__(self, text, resolved):
        self.text = text
        self.resolved = resolved


def _split_top(text, sep):
    return [part for part in text.split(sep) if part != ""]


def parse_spec(text, limits=None):
    """Resolve a group spec string to a handle (recursively).

    `limits` holds the "lattice" and "materialize_degree" limits that the
    hat construction obeys; the defaults are the CLI's."""
    limits = limits or {"lattice": DEFAULT_ORDER_LIMIT,
                        "materialize_degree": MATERIALIZE_DEGREE_LIMIT}
    text = text.strip()
    if not text:
        raise SpecError("empty group spec")
    if text.startswith("dp:"):
        parts = _split_top(text[3:], "+")
        if len(parts) < 2:
            raise SpecError("dp: needs at least two summands")
        factors = [parse_spec(p, limits).resolved for p in parts]
        P, _, _ = direct_product(factors)
        return GroupSpec(text, P)
    if text.startswith("sub:"):
        parts = _split_top(text[4:], "+")
        if len(parts) < 2:
            raise SpecError("sub: needs at least two summands")
        factors = [parse_spec(p, limits).resolved for p in parts]
        arities = {len(F.generators) for F in factors}
        if len(arities) != 1:
            raise SpecError("sub: factors must carry generating tuples of "
                            "equal length")
        H = subdirect([(F, list(F.generators)) for F in factors])
        H.name = text
        return GroupSpec(text, H)
    if text.startswith("lk:"):
        payload = text[3:]
        if "," not in payload:
            raise SpecError("lk: needs a tower height after a comma")
        body, _, ktxt = payload.rpartition(",")
        if not ktxt.isdigit() or int(ktxt) < 1:
            raise SpecError(f"bad tower height {ktxt!r} (need k >= 1)")
        L = parse_spec(body, limits).resolved
        N = _tower_socle(L)
        tower = build_Lk(L, N, int(ktxt))
        tower.tower.name = text
        return GroupSpec(text, tower.tower)
    if text.startswith("hat:"):
        payload = text[4:]
        if ";" not in payload:
            raise SpecError("hat: needs a tuple arity after a semicolon")
        body, _, dtxt = payload.rpartition(";")
        if not dtxt.isdigit() or int(dtxt) < 1:
            raise SpecError(f"bad tuple arity {dtxt!r} (need d >= 1)")
        G = parse_spec(body, limits).resolved
        limit = limits["materialize_degree"]
        H, census = hat(G, int(dtxt), materialize_degree_limit=limit,
                        lattice_limit=limits["lattice"])
        if H is None:
            raise LimitExceeded(
                f"hat materialization needs degree "
                f"{census.orbit_count * G.degree} > limit {limit} "
                f"(census: {census.orbit_count} orbits)")
        H.name = text
        return GroupSpec(text, H)
    if text.startswith("perm:"):
        rest = text[5:]
        degtxt, _, cyctxt = rest.partition(":")
        if not degtxt.isdigit():
            raise SpecError(f"bad degree in {text!r}")
        degree = int(degtxt)
        gens = [parse_cycles(c, degree=degree)
                for c in cyctxt.split(";") if c]
        return GroupSpec(text, group_from_generators(degree, gens, name=text))
    try:
        return GroupSpec(text, builtin(text))
    except KeyError:
        raise SpecError(f"unknown builtin group {text!r}") from None


def _tower_socle(L):
    mins = [N for N in minimal_normal_subgroups(L) if is_abelian(N)]
    if len(mins) != 1:
        raise SpecError(
            "lk: needs a unique abelian minimal normal subgroup "
            f"(found {len(mins)})")
    return mins[0]


# -- reports ---------------------------------------------------------------------

def _provenance(args):
    return {
        "tool": f"maxsub {__version__}",
        "seed": args.seed,
        "limits": _limits_of(args),
    }


def _profile_report(G, args):
    prof = profile(G, seed=args.seed, lattice_limit=args.lattice_limit)
    indices = sorted(set(prof.cr_ab) | set(prof.rks) | set(prof.rko)
                     | set(prof.m_exact))
    reports = [bound_mn(prof, n) for n in indices if n >= 2]
    nurep = eta_kappa(prof, mroute_indices=indices)
    return prof, reports, nurep


def cmd_analyze(args):
    gs = parse_spec(args.spec, _limits_of(args))
    prof, reports, nurep = _profile_report(gs.resolved, args)
    payload = {
        "spec": gs.text,
        "provenance": _provenance(args),
        "profile": prof.to_json(),
        "bounds": [r.to_json() for r in reports],
        "nu": nurep.to_json(),
    }
    if args.markdown:
        print(f"## {gs.text}\n")
        print(f"order {prof.order}, d = {prof.d}, lambda = {prof.lambda_}\n")
        print(markdown_bound_table(reports))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_bounds(args):
    tokens = args.indices.split(",")
    if not all(t.isdigit() and int(t) >= 2 for t in tokens):
        raise SpecError(f"bad --indices {args.indices!r} (need integers "
                        "n >= 2, comma separated)")
    indices = [int(t) for t in tokens]
    gs = parse_spec(args.spec, _limits_of(args))
    prof = profile(gs.resolved, seed=args.seed,
                   lattice_limit=args.lattice_limit)
    reports = [bound_mn(prof, n) for n in indices]
    if args.markdown:
        print(markdown_bound_table(reports))
    else:
        payload = {
            "spec": gs.text,
            "provenance": _provenance(args),
            "bounds": [r.to_json() for r in reports],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_nu(args):
    if args.trials < 1:
        raise SpecError(f"bad --trials {args.trials} (need at least 1)")
    gs = parse_spec(args.spec, _limits_of(args))
    if args.mode == "exact":
        value = nu(gs.resolved, mode="exact",
                   lattice_limit=args.lattice_limit)
        payload = {"spec": gs.text, "mode": "exact", "nu": value,
                   "provenance": _provenance(args)}
    else:
        value = nu(gs.resolved, mode="mc", trials=args.trials, seed=args.seed)
        if isinstance(value, NuBracket):
            payload = {"spec": gs.text, "mode": "mc",
                       "nu_bracket": [value.low, value.high],
                       "provenance": _provenance(args)}
        else:
            payload = {"spec": gs.text, "mode": "mc", "nu": value,
                       "provenance": _provenance(args)}
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_construct(args):
    gs = parse_spec(args.spec, _limits_of(args))
    G = gs.resolved
    cycles = ";".join(format_cycles(g) for g in G.generators)
    piped = f"perm:{G.degree}:{cycles}"
    payload = {
        "spec": gs.text,
        "degree": G.degree,
        "order": str(G.order),
        "generators": [format_cycles(g) for g in G.generators],
        "as_perm_spec": piped,
        "provenance": _provenance(args),
    }
    if gs.text.startswith("hat:"):
        census = tuple_orbits(G._cache["subdirect_blocks"][0][0],
                              len(G.generators)) \
            if G._cache.get("subdirect_blocks") else None
        if census:
            payload["census"] = census.to_json()
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_corpus(args):
    from .corpus import corpus_groups, run_corpus_checks
    groups = corpus_groups(include_heavy=not args.light)
    failures = 0
    for label, ok, detail in run_corpus_checks(groups):
        print(f"{'PASS' if ok else 'FAIL'}  {label}  {detail}")
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} corpus invariant(s) violated")
        return EXIT_VIOLATION
    print("corpus checks passed")
    return EXIT_OK


def _limits_of(args):
    return {"lattice": args.lattice_limit,
            "materialize_degree": args.materialize_limit}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="maxsub",
        description="Maximal-subgroup invariants, crowns, and generation "
                    "probabilities for finite permutation groups")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lattice-limit", type=int, default=DEFAULT_ORDER_LIMIT)
    ap.add_argument("--materialize-limit", type=int,
                    default=MATERIALIZE_DEGREE_LIMIT,
                    help="degree cap for materializing hat constructions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant profile and bounds")
    p.add_argument("spec")
    p.add_argument("--markdown", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("bounds", help="bound table for chosen indices")
    p.add_argument("spec")
    p.add_argument("--indices", required=True,
                   help="comma separated list of indices n")
    p.add_argument("--markdown", action="store_true")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("nu", help="random-generation threshold")
    p.add_argument("spec")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--trials", type=int, default=20000)
    p.set_defaults(fn=cmd_nu)

    p = sub.add_parser("construct", help="materialize a construction")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("corpus", help="run the cross-module invariant suites")
    p.add_argument("--light", action="store_true",
                   help="skip the heaviest corpus members")
    p.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None):
    code = _run(build_parser().parse_args(argv))
    # every cached result points back to its group handle, so a command's
    # memory is only returned by a full collection; do it now, so a
    # process running many commands holds one command's memory at a time
    gc.collect()
    return code


def _run(args):
    try:
        return args.fn(args)
    except LimitExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_REFUSED
    except SpecError as e:
        print(f"spec error: {e}", file=sys.stderr)
        return EXIT_REFUSED
    except Exception as e:
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
