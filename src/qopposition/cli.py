"""Command-line front door.

Subcommands: classify, square, hexagon, prob, attribute,
lp {postulate,chain,check}, scenario {list,show,run}.

Each of classify, square, hexagon, prob, attribute and lp is one query:
the subcommand builds a query dict from its arguments, runs it through
`scenarios.run_query` (the executor `scenario run` uses too) and renders
the result without its op/args echo.  Only loading the scenario,
`classify --check-witness` and rendering happen here.

Output formats: text (default), json (canonical, byte-stable), dot
(Graphviz, polygon commands only).  Exit codes: 0 ok, 1 UNSAT,
2 usage/input error, 4 consequence false, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import lp
from .linalg import EPS, check_eps
from .quantum import State, truth
from .scenarios import (BUILTIN_NAMES, Scenario, builtin, canonical_json,
                        load_scenario, run_all, run_query, serialize)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_UNSAT = 1
EXIT_USAGE = 2
EXIT_NOT_CONSEQUENCE = 4
EXIT_PIPE = 141  # the shell's code for a process killed by SIGPIPE


class CliError(ValueError):
    pass


def _load(name: str, eps: float) -> Scenario:
    if name in BUILTIN_NAMES:
        return builtin(name)
    if os.path.exists(name):
        try:
            with open(name, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:  # a directory, or a file this user cannot read
            raise CliError(f"cannot read scenario file {name!r}: {exc.strerror}") from None
        return load_scenario(text, eps)
    raise CliError(f"no builtin or scenario file named {name!r} "
                   f"(builtins: {', '.join(BUILTIN_NAMES)})")


def _emit(args, command: str, results: dict, warnings=()) -> None:
    """Print the report on a command in the requested format."""
    if args.format == "json":
        print(canonical_json({"schema": SCHEMA_VERSION, "command": command,
                              "eps": args.eps, "results": results,
                              "warnings": list(warnings)}))
        return
    if args.format == "dot":
        print(polygon_dot(results, args.op))
        return
    print(f"# {command}  (eps={args.eps:g})")
    for w in warnings:
        print(f"warning: {w}")
    _emit_text(results)


def _inline(v) -> bool:
    """True for values that render on one line (scalars and nested lists
    that contain no dicts)."""
    if isinstance(v, dict):
        return not v
    if isinstance(v, list):
        return not v or all(_inline(x) and not isinstance(x, dict) for x in v)
    return True


def _emit_text(obj, indent: str = "") -> None:
    pairs = ([(f"{k}:", v) for k, v in obj.items()] if isinstance(obj, dict)
             else [("-", v) for v in obj])
    for head, v in pairs:
        if _inline(v):
            print(f"{indent}{head} {_scalar(v)}")
        else:
            print(f"{indent}{head}")
            _emit_text(v, indent + "  ")


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
    "Contradictory": 'style=dashed, dir=none',
    "Contrary": 'style=solid, dir=none',
    "Subcontrary": 'style=dotted, dir=none',
    "Equivalent": 'style=bold, dir=both',
    "Independent": 'style=solid, color=gray, dir=none',
}


def polygon_dot(result: dict, title: str) -> str:
    """Graphviz for a square/hexagon query result."""
    lines = [f'digraph "{title}" {{', '  node [shape=box];']
    for name, display in result["positions"].items():
        lines.append(f'  "{name}" [label="{name}: {display}"];')
    for pair, r in result["relations"].items():
        x, y = pair.split("-")
        relation = r["relation"]
        if relation.startswith("Subaltern"):
            # "Subaltern (a -> b)": the edge runs from the entailing corner
            a, b = relation[len("Subaltern ("):-1].split(" -> ")
            lines.append(f'  "{a}" -> "{b}" [label="subaltern"];')
        else:
            lines.append(f'  "{x}" -> "{y}" [label="{relation.lower()}", '
                         f'{_DOT_STYLE[relation]}];')
    lines.append("}")
    return "\n".join(lines)


# --- subcommands ----------------------------------------------------------

def _check_witness(args, sc: Scenario) -> int:
    """Replay a claimed witness against the two propositions."""
    p = sc.resolve_proposition(args.p)
    q = sc.resolve_proposition(args.q)
    raw = json.loads(args.check_witness)
    state = raw.get("state") if isinstance(raw, dict) else None
    pattern = raw.get("pattern") if isinstance(raw, dict) else None
    number = lambda x: isinstance(x, (int, float)) and not isinstance(x, bool)
    if not (isinstance(state, list)
            and all(isinstance(c, list) and len(c) == 2 and all(map(number, c))
                    for c in state)
            and isinstance(pattern, list) and len(pattern) == 2
            and all(isinstance(b, bool) for b in pattern)):
        raise CliError('--check-witness expects {"state": [[re, im], ...], '
                       '"pattern": [bool, bool]}')
    psi = State.normalized([complex(a, b) for a, b in state], args.eps)
    observed = [truth(p, psi, args.eps), truth(q, psi, args.eps)]
    valid = observed == pattern
    _emit(args, "classify --check-witness",
          {"claimed": pattern, "observed": observed, "valid": valid}, sc.warnings)
    return EXIT_OK if valid else EXIT_USAGE


def cmd_query(args) -> int:
    """Run the subcommand's query and render its result."""
    sc = _load(args.scenario, args.eps) if "scenario" in args else None
    if getattr(args, "check_witness", None) is not None:
        return _check_witness(args, sc)
    # unset options stay out of the query; an empty --conclude asks nothing
    query_args = {k: v for k in args.keys
                  if (v := getattr(args, k)) is not None and v is not False and v != ""}
    result = run_query(sc, {"op": args.op, "args": query_args}, args.eps)
    del result["op"], result["args"]
    words = [args.op.replace("_", " ")]
    for name in args.words:
        value = getattr(args, name)
        words += value if isinstance(value, list) else [value]
    _emit(args, " ".join(words), result, sc.warnings if sc else ())
    if "consequence" in result:
        return EXIT_OK if result["consequence"] else EXIT_NOT_CONSEQUENCE
    return EXIT_OK if result.get("satisfiable", True) else EXIT_UNSAT


def cmd_scenario(args) -> int:
    if args.scenario_command == "list":
        _emit(args, "scenario list", {"builtins": list(BUILTIN_NAMES)})
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
    results = {"scenario": sc.name, "queries": run_all(sc, args.eps)}
    _emit(args, f"scenario run {args.name}", results, sc.warnings)
    return EXIT_OK


# --- argument parsing -----------------------------------------------------

def _global_flags(p, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # subparser copies use SUPPRESS so they do not clobber earlier values
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    p.add_argument("--eps", type=float, default=d(EPS),
                   help="decision tolerance (default 1e-9)")
    p.add_argument("--format", choices=("text", "json", "dot"),
                   default=d("text"))


def _query_parser(sub, common, op: str, words, keys, **kw):
    """The subcommand that runs one `op` query.  `words` name the arguments
    that follow the op in the command title; `keys` name the arguments the
    query takes."""
    p = sub.add_parser(op.removeprefix("lp_"), parents=[common], **kw)
    p.set_defaults(func=cmd_query, op=op, words=words, keys=keys)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qopp",
        description="Opposition relations, hexagons, and LP checks for "
                    "quantum propositions.")
    _global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _query_parser(sub, common, "classify", ("scenario", "p", "q"), ("p", "q"),
                      help="opposition relation between two propositions")
    p.add_argument("scenario")
    p.add_argument("p", metavar="prop_a")
    p.add_argument("q", metavar="prop_b")
    p.add_argument("--check-witness", metavar="JSON",
                   help='validate a witness: {"state": [[re,im],...], "pattern": [..]}')

    for which in ("square", "hexagon"):
        p = _query_parser(sub, common, which, ("scenario", "a", "e"), ("a", "e"),
                          help=f"build the {which} of opposition")
        p.add_argument("scenario")
        p.add_argument("a", metavar="prop_a", help="the A corner")
        p.add_argument("e", metavar="prop_e", help="the E corner")

    words = ("scenario", "state", "family")
    prob = _query_parser(sub, common, "prob", words, ("state", "family"),
                         help="Born probabilities over a family")
    attribute = _query_parser(sub, common, "attribute", words,
                              ("state", "family", "semantics"),
                              help="property attribution at a state")
    for p in (prob, attribute):
        for name in words:
            p.add_argument(name)
    attribute.add_argument("--semantics", choices=("minimal", "paraconsistent"),
                           default="minimal")

    p = sub.add_parser("lp", help="three-valued / classical model checking")
    lpsub = p.add_subparsers(dest="lp_command", required=True)
    lp_keys = ("mode", "conclude", "models")
    for name, helptext in (("postulate", "K and not-K per component"),
                           ("chain", "pairwise equivalences p_i <-> !p_j")):
        q = _query_parser(lpsub, common, f"lp_{name}", ("labels",),
                          ("labels",) + lp_keys, help=helptext)
        q.add_argument("labels", nargs="+")
        _lp_flags(q)
    q = _query_parser(lpsub, common, "lp_check", (), ("constraints",) + lp_keys,
                      help="check explicit constraint formulas")
    q.add_argument("-c", "--constraint", dest="constraints", action="append",
                   default=[], metavar="FORMULA")
    _lp_flags(q)

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
        check_eps(args.eps)
        # refused before anything is loaded or run
        if args.format == "dot" and getattr(args, "op", None) not in ("square", "hexagon"):
            raise CliError("dot output is only available for square/hexagon")
        with np.errstate(over="ignore"):  # _norm's first sum overflows above ~1e154
            status = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return status
    except ValueError as exc:  # every refused input; the library's errors included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # an LP formula nested deeper than the recursive parser and
        # evaluators reach; propositions are bounded when a file is loaded
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout (`| head`): the final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
