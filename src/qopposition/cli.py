"""Command-line front door.

Subcommands: classify, square, hexagon, prob, attribute,
lp {postulate,chain,check}, scenario {list,show,run}.

Output formats: text (default), json (canonical, byte-stable), dot
(Graphviz, polygon commands only).  Exit codes: 0 ok, 1 UNSAT,
2 usage/input error, 4 consequence false.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import lp, scenarios
from .linalg import EPS, LinalgError
from .opposition import (DEFAULT_SEED, DEFAULT_TRIALS, OppositionError,
                         Relation, build_hexagon, build_square, classify)
from .quantum import (QuantumError, born, minimal_attribution,
                      paraconsistent_attribution, truth)
from .scenarios import (BUILTIN_NAMES, ScenarioError, Scenario, builtin,
                        canonical_json, load_file, run_all, serialize)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_UNSAT = 1
EXIT_USAGE = 2
EXIT_NOT_CONSEQUENCE = 4


class CliError(Exception):
    pass


def _load(name: str, eps: float) -> Scenario:
    if name in BUILTIN_NAMES:
        return builtin(name)
    if os.path.exists(name):
        return load_file(name, eps)
    raise CliError(f"no builtin or scenario file named {name!r} "
                   f"(builtins: {', '.join(BUILTIN_NAMES)})")


def _report(args, command: str, **results) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "eps": args.eps,
        "seed": args.seed,
        "trials": args.trials,
        "results": results,
        "warnings": results.pop("warnings", []),
    }


def _vec_out(v):
    return [[float(x.real), float(x.imag)] for x in v]


def _witness_out(w):
    return {"state": _vec_out(w.state.vector), "pattern": list(w.pattern)}


def _emit(report: dict, fmt: str, dot: str | None = None) -> None:
    if fmt == "json":
        print(canonical_json(report))
        return
    if fmt == "dot":
        if dot is None:
            raise CliError("dot output is only available for square/hexagon")
        print(dot)
        return
    print(f"# {report['command']}  (eps={report['eps']:g}, seed={report['seed']}, "
          f"trials={report['trials']})")
    for w in report["warnings"]:
        print(f"warning: {w}")
    _emit_text(report["results"])


def _inline(v) -> bool:
    """True for values that render on one line (scalars and nested lists
    that contain no dicts)."""
    if isinstance(v, dict):
        return not v
    if isinstance(v, list):
        return not v or all(_inline(x) and not isinstance(x, dict) for x in v)
    return True


def _emit_text(obj, indent: str = "") -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            if _inline(v):
                print(f"{indent}{k}: {_scalar(v)}")
            else:
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
    elif isinstance(obj, list):
        for v in obj:
            if _inline(v):
                print(f"{indent}- {_scalar(v)}")
            else:
                print(f"{indent}-")
                _emit_text(v, indent + "  ")
    else:
        print(f"{indent}{_scalar(obj)}")


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, list):
        return "[" + ", ".join(_scalar(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{}"
    return str(v)


# --- DOT rendering --------------------------------------------------------

_DOT_STYLE = {
    Relation.CONTRADICTORY: 'style=dashed, dir=none',
    Relation.CONTRARY: 'style=solid, dir=none',
    Relation.SUBCONTRARY: 'style=dotted, dir=none',
    Relation.EQUIVALENT: 'style=bold, dir=both',
    Relation.INDEPENDENT: 'style=solid, color=gray, dir=none',
}


def polygon_dot(poly, title: str) -> str:
    lines = [f'digraph "{title}" {{', '  node [shape=box];']
    for name, prop in poly.positions.items():
        lines.append(f'  "{name}" [label="{name}: {prop.display()}"];')
    for (x, y), c in sorted(poly.relations.items()):
        label = c.relation.value.lower()
        if c.relation is Relation.SUBALTERN:
            a, b = (x, y) if c.direction == "forward" else (y, x)
            lines.append(f'  "{a}" -> "{b}" [label="subaltern"];')
        else:
            lines.append(f'  "{x}" -> "{y}" [label="{label}", '
                         f'{_DOT_STYLE[c.relation]}];')
    lines.append("}")
    return "\n".join(lines)


# --- subcommands ----------------------------------------------------------

def cmd_classify(args) -> int:
    sc = _load(args.scenario, args.eps)
    p = sc.resolve_proposition(args.prop_a)
    q = sc.resolve_proposition(args.prop_b)

    if args.check_witness is not None:
        raw = json.loads(args.check_witness)
        from .quantum import State
        psi = State.normalized([complex(a, b) for a, b in raw["state"]], args.eps)
        pattern = [bool(x) for x in raw["pattern"]]
        actual = [truth(p, psi, args.eps), truth(q, psi, args.eps)]
        valid = actual == pattern
        report = _report(args, "classify --check-witness",
                         claimed=pattern, observed=actual, valid=valid,
                         warnings=sc.warnings)
        _emit(report, args.format)
        return EXIT_OK if valid else EXIT_USAGE

    c = classify(p, q, args.eps)
    report = _report(
        args, f"classify {args.scenario} {args.prop_a} {args.prop_b}",
        relation=c.describe(args.prop_a, args.prop_b),
        witnesses={k: _witness_out(w) for k, w in sorted(c.witnesses.items())},
        warnings=sc.warnings)
    _emit(report, args.format)
    return EXIT_OK


def _cmd_polygon(args, which: str) -> int:
    sc = _load(args.scenario, args.eps)
    a = sc.resolve_proposition(args.prop_a)
    e = sc.resolve_proposition(args.prop_e)
    build = build_square if which == "square" else build_hexagon
    poly = build(a, e, args.eps)
    relations = {}
    for (x, y), c in sorted(poly.relations.items()):
        relations[f"{x}-{y}"] = {
            "relation": c.describe(x, y),
            "witnesses": {k: _witness_out(w) for k, w in sorted(c.witnesses.items())},
        }
    report = _report(
        args, f"{which} {args.scenario} {args.prop_a} {args.prop_e}",
        positions={n: p.display() for n, p in poly.positions.items()},
        relations=relations,
        deviations=[list(d) for d in poly.deviations],
        warnings=sc.warnings)
    _emit(report, args.format, dot=polygon_dot(poly, which))
    return EXIT_OK


def cmd_square(args) -> int:
    return _cmd_polygon(args, "square")


def cmd_hexagon(args) -> int:
    return _cmd_polygon(args, "hexagon")


def cmd_prob(args) -> int:
    sc = _load(args.scenario, args.eps)
    psi = sc.resolve_state(args.state)
    fam = sc.resolve_family(args.family)
    probs = {lab: born(psi, sub) for lab, sub in fam.members}
    report = _report(args, f"prob {args.scenario} {args.state} {args.family}",
                     probabilities=probs, total=sum(probs.values()),
                     warnings=sc.warnings)
    _emit(report, args.format)
    return EXIT_OK


def cmd_attribute(args) -> int:
    sc = _load(args.scenario, args.eps)
    psi = sc.resolve_state(args.state)
    fam = sc.resolve_family(args.family)
    if args.semantics == "minimal":
        attributed = minimal_attribution(psi, fam, args.eps)
    else:
        attributed = paraconsistent_attribution(psi, fam, args.eps)
    report = _report(
        args, f"attribute {args.scenario} {args.state} {args.family}",
        semantics=args.semantics,
        attributed=sorted(attributed),
        weights={lab: born(psi, sub) for lab, sub in fam.members},
        warnings=sc.warnings)
    _emit(report, args.format)
    return EXIT_OK


def _lp_exit(model, verdict) -> int:
    if verdict is not None:
        return EXIT_OK if verdict else EXIT_NOT_CONSEQUENCE
    return EXIT_OK if model is not None else EXIT_UNSAT


def _run_lp(args, constraints, command: str) -> int:
    results = {
        "mode": args.mode,
        "constraints": [str(f) for f in constraints],
    }
    model = lp.satisfiable(constraints, args.mode)
    results["satisfiable"] = model is not None
    if model is not None:
        results["model"] = {k: str(v) for k, v in sorted(model.items())}
    verdict = None
    if args.conclude:
        conclusion = lp.parse_formula(args.conclude)
        verdict = lp.consequence(constraints, conclusion, args.mode)
        results["conclusion"] = str(conclusion)
        results["consequence"] = verdict
    if args.models:
        results["models"] = [{k: str(v) for k, v in sorted(m.items())}
                             for m in lp.models(constraints, args.mode)]
    report = _report(args, command, **results)
    _emit(report, args.format)
    return _lp_exit(model, verdict)


def cmd_lp(args) -> int:
    if args.lp_command == "postulate":
        constraints = lp.postulate_of_contradiction(args.labels)
        return _run_lp(args, constraints, f"lp postulate {' '.join(args.labels)}")
    if args.lp_command == "chain":
        constraints = lp.equivalence_chain(args.labels)
        return _run_lp(args, constraints, f"lp chain {' '.join(args.labels)}")
    constraints = [lp.parse_formula(c) for c in args.constraint or []]
    return _run_lp(args, constraints, "lp check")


def cmd_scenario(args) -> int:
    if args.scenario_command == "list":
        report = _report(args, "scenario list", builtins=list(BUILTIN_NAMES))
        _emit(report, args.format)
        return EXIT_OK
    sc = _load(args.name, args.eps)
    if args.scenario_command == "show":
        if args.format == "json":
            print(serialize(sc))
        else:
            print(f"# scenario {sc.name} (dim {sc.dim})")
            print(f"states: {', '.join(sorted(sc.states))}")
            print(f"families: {', '.join(sorted(sc.families))}")
            print(f"propositions: {', '.join(sorted(sc.propositions))}")
            print(f"queries: {len(sc.queries)}")
        return EXIT_OK
    results = run_all(sc, args.eps)
    report = _report(args, f"scenario run {args.name}",
                     scenario=sc.name, queries=results, warnings=sc.warnings)
    _emit(report, args.format)
    return EXIT_OK


# --- argument parsing -----------------------------------------------------

def _global_flags(p, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # subparser copies use SUPPRESS so they do not clobber earlier values
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    p.add_argument("--eps", type=float, default=d(EPS),
                   help="decision tolerance (default 1e-9)")
    p.add_argument("--seed", type=int, default=d(DEFAULT_SEED),
                   help="echoed in the output header only; no decision "
                        "uses it (default 42)")
    p.add_argument("--trials", type=int, default=d(DEFAULT_TRIALS),
                   help="echoed in the output header only; no decision "
                        "uses it (default 2000)")
    p.add_argument("--format", choices=("text", "json", "dot"),
                   default=d("text"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qopp",
        description="Opposition relations, hexagons, and LP checks for "
                    "quantum propositions.")
    _global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="opposition relation between two propositions")
    p.add_argument("scenario")
    p.add_argument("prop_a")
    p.add_argument("prop_b")
    p.add_argument("--check-witness", metavar="JSON",
                   help='validate a witness: {"state": [[re,im],...], "pattern": [..]}')
    p.set_defaults(func=cmd_classify)

    for which, fn in (("square", cmd_square), ("hexagon", cmd_hexagon)):
        p = sub.add_parser(which, parents=[common],
                           help=f"build the {which} of opposition")
        p.add_argument("scenario")
        p.add_argument("prop_a", help="the A corner")
        p.add_argument("prop_e", help="the E corner")
        p.set_defaults(func=fn)

    p = sub.add_parser("prob", parents=[common],
                       help="Born probabilities over a family")
    p.add_argument("scenario")
    p.add_argument("state")
    p.add_argument("family")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("attribute", parents=[common],
                       help="property attribution at a state")
    p.add_argument("scenario")
    p.add_argument("state")
    p.add_argument("family")
    p.add_argument("--semantics", choices=("minimal", "paraconsistent"),
                   default="minimal")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("lp", help="three-valued / classical model checking")
    lpsub = p.add_subparsers(dest="lp_command", required=True)
    for name, helptext in (("postulate", "K and not-K per component"),
                           ("chain", "pairwise equivalences p_i <-> !p_j")):
        q = lpsub.add_parser(name, parents=[common], help=helptext)
        q.add_argument("labels", nargs="+")
        _lp_flags(q)
    q = lpsub.add_parser("check", parents=[common],
                         help="check explicit constraint formulas")
    q.add_argument("-c", "--constraint", action="append", metavar="FORMULA")
    _lp_flags(q)
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("scenario", help="list, show, or run scenarios")
    ssub = p.add_subparsers(dest="scenario_command", required=True)
    ssub.add_parser("list", parents=[common])
    q = ssub.add_parser("show", parents=[common])
    q.add_argument("name")
    q = ssub.add_parser("run", parents=[common])
    q.add_argument("name")
    p.set_defaults(func=cmd_scenario)

    return parser


def _lp_flags(p) -> None:
    p.add_argument("--mode", choices=(lp.CLASSICAL, lp.LP), default=lp.LP)
    p.add_argument("--conclude", metavar="FORMULA",
                   help="also check this formula as a consequence")
    p.add_argument("--models", action="store_true",
                   help="list every designating valuation")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        from .linalg import check_eps
        check_eps(args.eps)
        return args.func(args)
    except (CliError, ScenarioError, QuantumError, LinalgError, lp.LogicError,
            OppositionError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
