"""Command line interface.

Exit codes: 0 success, 1 validation failure, 2 budget exhausted,
3 internal invariant breach.  Inputs are parsed and cross validated
before any cohomology is computed, so code 1 always points at the
input files and code 3 at the library itself.  `validate`,
`fixedpoints`, `bredon`, `twisted` and `crosscheck` load their files
through `fixtures.load_setup`; `validate` is that loader alone,
reporting the checks it passed.

Every command runs inside `abgroups.column_budget(--budget)`, so the
budget bounds the generator columns of all direct sums the command
builds, counted over the whole run; loading builds none.

JSON output is printed with sorted keys and fixed indentation, so a
rerun on the same inputs is byte identical.
"""

import argparse
import functools
import json
import re
import sys

from .abgroups import BudgetExceeded, FgAbGroup, column_budget
from .bredon import EquivariantCochains, twisted_complex, untwisted_complex
from .cartan import canonical_theory, check_axioms, crosscheck_theorem
from .coefficients import CoefficientSystem
from .em import CocycleModel
from .equivariant import GSimplicialSet
from .fixtures import load_json, load_setup, load_theory_data, parsing
from .groups import FiniteGroup, OrbitCategory

DEFAULT_BUDGET = 200000


class InputError(Exception):
    pass


class InternalError(Exception):
    pass


def _loading(fn, *args, **kwargs):
    """Run a loader; any ValueError or unreadable file is the input's
    fault."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, OSError) as ex:
        raise InputError(str(ex)) from ex


def _computing(fn, *args, **kwargs):
    """Run a computation on validated inputs; any ValueError now is an
    invariant breach inside the library."""
    try:
        return fn(*args, **kwargs)
    except ValueError as ex:
        raise InternalError(str(ex)) from ex


def group_text(rank: int, torsion) -> str:
    parts = ["Z"] * rank + [f"Z/{t}" for t in torsion]
    return " + ".join(parts) if parts else "0"


def cohomology_entry(group, n: int) -> dict:
    rank, torsion = group.normal_form()
    return {"degree": n, "rank": rank, "torsion": list(torsion)}


# validate -----------------------------------------------------------

def cmd_validate(args):
    setup = _loading(load_setup, args.complex, args.coeffs,
                     args.twist, args.action)
    payload = {"ok": True, "checked": setup.checked}
    lines = ["ok"] + [f"checked: {c}" for c in setup.checked]
    return payload, lines


# fixedpoints --------------------------------------------------------

def cmd_fixedpoints(args):
    setup = _loading(load_setup, args.complex)
    entries = []
    for s in sorted(setup.cat.subgroups, key=lambda s: (s.order, s.key)):
        fc = setup.ph.complexes[s.key]
        cells = {str(q): sorted(fc.cells[q]) for q in range(fc.truncation + 1)}
        entries.append({"subgroup": s.key, "order": s.order, "cells": cells})
    payload = {"subgroups": entries}
    lines = []
    for e in entries:
        counts = ", ".join(f"dim {q}: {len(ids)}"
                           for q, ids in sorted(e["cells"].items(),
                                                key=lambda kv: int(kv[0])))
        lines.append(f"fixed complex of ({e['subgroup']}): {counts}")
    return payload, lines


# cohomology commands ------------------------------------------------

def _degree_list(args):
    if args.degree is None and args.nmax is None:
        raise InputError("give either --degree or --nmax")
    if args.degree is not None and args.nmax is not None:
        raise InputError("--degree and --nmax exclude each other")
    if args.degree is not None:
        if args.degree < 0:
            raise InputError("--degree must be nonnegative")
        return [args.degree]
    if args.nmax < 0:
        raise InputError("--nmax must be nonnegative")
    return list(range(args.nmax + 1))


def _cochain_setup(setup, degrees):
    ecn = min(setup.gx.space.truncation, max(degrees) + 1)
    return EquivariantCochains(setup.gx, setup.cat, setup.system, ecn)


def _cohomology_payload(args, cc, ec, degrees):
    entries = []
    for n in degrees:
        if n <= ec.nmax:
            group = cc.cohomology(n).group
            entries.append(cohomology_entry(group, n))
        else:
            entries.append({"degree": n, "rank": 0, "torsion": []})
    lines = [f"H^{e['degree']} = " + group_text(e["rank"], e["torsion"])
             for e in entries]
    if args.degree is not None:
        return entries[0], lines
    return {"cohomology": entries}, lines


def cmd_bredon(args):
    degrees = _degree_list(args)
    setup = _loading(load_setup, args.complex, args.coeffs)
    ec = _cochain_setup(setup, degrees)
    cc = _computing(untwisted_complex, ec)
    return _cohomology_payload(args, cc, ec, degrees)


def cmd_twisted(args):
    degrees = _degree_list(args)
    setup = _loading(load_setup, args.complex, args.coeffs,
                     args.twist, args.action)
    ec = _cochain_setup(setup, degrees)
    cc = _computing(twisted_complex, ec, setup.provider)
    return _cohomology_payload(args, cc, ec, degrees)


# cartan-check -------------------------------------------------------

def _parse_bounds(text):
    m = re.fullmatch(r"(\d+),(\d+)", text.strip())
    if not m:
        raise ValueError("--bounds must look like 'i,p'")
    bounds = int(m.group(1)), int(m.group(2))
    if min(bounds) < 1:
        raise ValueError("theory bounds must be positive")
    return bounds


def cmd_cartan_check(args):
    if args.group and args.complex:
        raise InputError("--group and --complex exclude each other")

    def load():
        with parsing():
            if args.group:
                grp = FiniteGroup.from_json(load_json(args.group))
            elif args.complex:
                grp = GSimplicialSet.from_json(load_json(args.complex)).group
            else:
                grp = FiniteGroup.trivial()
        cat = OrbitCategory(grp)
        with parsing():
            system = CoefficientSystem.from_json(cat, load_json(args.coeffs))
        th = load_theory_data(args.theory)
        i_max, p_max = th["i_max"], th["p_max"]
        if args.bounds:
            i_max, p_max = _parse_bounds(args.bounds)
        return cat, system, i_max, p_max

    cat, system, i_max, p_max = _loading(load)
    theory = _computing(canonical_theory, cat, system, i_max, p_max)
    rep = _computing(check_axioms, theory)
    payload = {
        "i_max": i_max,
        "p_max": p_max,
        "all_ok": rep.all_ok,
        "axioms": [{"axiom": a,
                    "ok": rep.ok(a),
                    "failures": [str(f) for f in rep.failures[a]],
                    "info": [str(i) for i in rep.info[a]]}
                   for a in rep.AXIOMS],
    }
    return payload, rep.lines()


# crosscheck ---------------------------------------------------------

def cmd_crosscheck(args):
    setup = _loading(load_setup, args.complex, args.coeffs,
                     args.twist, args.action)
    truncation = setup.gx.space.truncation
    nmax = args.nmax if args.nmax is not None else min(2, truncation)
    if nmax < 0:
        raise InputError("--nmax must be nonnegative")
    if nmax > truncation:
        raise InputError(f"--nmax exceeds the truncation {truncation} "
                         "of the complex")
    theory = None
    if args.theory:
        th = _loading(load_theory_data, args.theory)
        if th["i_max"] < nmax + 1:
            raise InputError("theory bounds truncate below --nmax + 1")
        theory = _computing(canonical_theory, setup.cat, setup.system,
                            th["i_max"], th["p_max"])
    report = _computing(crosscheck_theorem, setup.gx, setup.cat,
                        setup.system, setup.provider, nmax, theory)
    lines = []
    for e in report["degrees"]:
        verdict = "match" if e["match"] else "MISMATCH"
        lines.append(f"H^{e['degree']}: bredon {e['bredon']}, "
                     f"lift {e['lift']}: {verdict}")
    lines.append("all degrees match" if report["all_match"]
                 else "normal forms disagree")
    if report.get("iso") is not None:
        lines.append(f"cochain level iso: {report['iso']}, "
                     f"commutes with differentials: {report['commutes']}")
    return report, lines


# em-info ------------------------------------------------------------

def _finite_order(group):
    rank, torsion = group.normal_form()
    if rank:
        raise ValueError("cocycle level is infinite")
    order = 1
    for t in torsion:
        order *= t
    return order


def cmd_em_info(args):
    def load():
        m = re.fullmatch(r"Z(\d+)", args.A)
        if not m or int(m.group(1)) < 1:
            raise ValueError("--A must name a finite cyclic group like Z2")
        if args.n < 1:
            raise ValueError("--n must be at least 1")
        if args.q < 0:
            raise ValueError("--q must be nonnegative")
        return FgAbGroup.from_relations(1, [[int(m.group(1))]])

    a = _loading(load)
    model = _computing(CocycleModel, a, args.n, args.q)
    orders = [_finite_order(g) for g in model.levels]
    payload = {"A": args.A, "n": args.n, "q": args.q, "orders": orders}
    lines = [f"levels of K({args.A}, {args.n}) up to dimension {args.q}: "
             + ", ".join(str(o) for o in orders)]
    return payload, lines


# wiring -------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="eqtwist",
        description="Exact twisted Bredon cohomology of finite "
                    "G-simplicial sets")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "text"],
                        default="json")
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="bound on assembled generator columns")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="parse and cross validate input files")
    p.add_argument("--complex", required=True)
    p.add_argument("--coeffs")
    p.add_argument("--twist")
    p.add_argument("--action")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("fixedpoints", parents=[common],
                       help="list the fixed complexes over the orbit "
                            "category")
    p.add_argument("--complex", required=True)
    p.set_defaults(fn=cmd_fixedpoints)

    p = sub.add_parser("bredon", parents=[common],
                       help="untwisted equivariant cohomology")
    p.add_argument("--complex", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--degree", type=int)
    p.add_argument("--nmax", type=int)
    p.set_defaults(fn=cmd_bredon)

    p = sub.add_parser("twisted", parents=[common],
                       help="twisted equivariant cohomology")
    p.add_argument("--complex", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--twist", required=True)
    p.add_argument("--action")
    p.add_argument("--degree", type=int)
    p.add_argument("--nmax", type=int)
    p.set_defaults(fn=cmd_twisted)

    p = sub.add_parser("cartan-check", parents=[common],
                       help="check the theory axioms within bounds")
    p.add_argument("--theory", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--group")
    p.add_argument("--complex")
    p.add_argument("--bounds", help="override the bounds, as 'i,p'")
    p.set_defaults(fn=cmd_cartan_check)

    p = sub.add_parser("crosscheck", parents=[common],
                       help="compare twisted cohomology with the lift "
                            "complex of the theory")
    p.add_argument("--complex", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--twist")
    p.add_argument("--action")
    p.add_argument("--theory")
    p.add_argument("--nmax", type=int)
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser("em-info", parents=[common],
                       help="level cardinalities of an Eilenberg-MacLane "
                            "complex")
    p.add_argument("--A", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=cmd_em_info)
    return parser


# parsing leaves the parser as it was, and building it costs far more
# than a parse, so every call of `main` reuses the first one built
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as ex:
        # argparse exits 2 on usage errors; that code is reserved for
        # exhausted budgets, so fold them into the input error code
        return 0 if ex.code in (0, None) else 1
    try:
        if args.budget < 0:
            raise InputError("--budget must be nonnegative")
        with column_budget(args.budget):
            payload, lines = args.fn(args)
    except InputError as ex:
        sys.stderr.write(f"error: {ex}\n")
        return 1
    except BudgetExceeded as ex:
        sys.stderr.write(f"budget exhausted: {ex}\n")
        return 2
    except InternalError as ex:
        sys.stderr.write(f"internal invariant breach: {ex}\n")
        return 3
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True))
        sys.stdout.write("\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
