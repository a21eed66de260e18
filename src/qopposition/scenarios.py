"""Built-in desk-scale scenarios, the JSON scenario loader that reads them
and scenario files alike, and the one query executor, `run_query`, that
`scenario run` and every other `qopp` subcommand share.

A scenario bundles named states, observables, orthogonal families,
propositions, and queries into a reproducible unit.  Serialization is
canonical (keys sorted, floats at 17 significant digits) so golden files
are byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .linalg import EPS, MAX_DIM, Subspace, _norm, gram_schmidt
from .opposition import build_hexagon, build_square, classify
from .quantum import (And, Literal, Observable, Or, OrthoFamily, Proposition,
                      State, born, minimal_attribution,
                      paraconsistent_attribution, superpose)

# and/or levels a proposition may nest.  The evaluators and the JSON writer
# recurse; refusing deeper ones at load gives every command the same limit
MAX_NESTING = 100

class ScenarioError(ValueError):
    pass


def _named(table: dict, kind: str, name):
    """table[name], or a ScenarioError listing table's names; name may be a JSON list."""
    try:
        return table[name]
    except (KeyError, TypeError):
        raise ScenarioError(f"unknown {kind} {name!r} (have {sorted(table)})") from None


@dataclass
class Scenario:
    name: str
    dim: int
    states: dict = field(default_factory=dict)
    observables: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    propositions: dict = field(default_factory=dict)
    queries: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def resolve_state(self, name: str) -> State:
        return _named(self.states, "state", name)

    def resolve_family(self, name: str) -> OrthoFamily:
        return _named(self.families, "family", name)

    def resolve_proposition(self, text: str) -> Proposition:
        """Resolve a proposition reference: a named proposition or a
        family.member path, either with a leading '!' for negation."""
        text = text.strip()
        negated = text.startswith("!")
        if negated:
            text = text[1:].strip()
        if "." in text and text not in self.propositions:
            fam_name, member = text.split(".", 1)
            fam = self.resolve_family(fam_name)
            if member not in fam:
                raise ScenarioError(
                    f"family {fam_name!r} has no member {member!r} (have {fam.labels})")
            p = Literal(fam.subspace(member), True, fam, member, member)
        else:
            p = _named(self.propositions, "proposition", text)
        return p.negate() if negated else p


# --- canonical JSON -------------------------------------------------------

def canonical_json(obj) -> str:
    """Canonical rendering: keys sorted, floats at 17 significant digits."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{canonical_json(v)}"
                              for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(x) for x in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, (int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _vec_out(v) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def _prop_out(p: Proposition, fam_names: dict):
    """A proposition as the loader reads it; fam_names maps each of the
    scenario's families (hashed by identity) to its key."""
    if isinstance(p, Literal):
        if p.family not in fam_names or p.member is None:
            raise ScenarioError("only members of the scenario's families are serializable")
        ref = f"{fam_names[p.family]}.{p.member}"
        return ref if p.asserted else "!" + ref
    key = "and" if isinstance(p, And) else "or"
    return {key: [_prop_out(x, fam_names) for x in p.parts]}


def serialize(sc: Scenario) -> str:
    fam_names = {f: n for n, f in sc.families.items()}
    doc = {
        "name": sc.name,
        "dim": sc.dim,
        "states": {n: _vec_out(s.vector) for n, s in sc.states.items()},
        "observables": {n: [_vec_out(row) for row in o.matrix]
                        for n, o in sc.observables.items()},
        "families": {n: {"members": [[lab, [_vec_out(f.members[i][1].basis[:, j])
                                             for j in range(f.members[i][1].dim)]]
                                     for i, (lab, _) in enumerate(f.members)]}
                     for n, f in sc.families.items()},
        "propositions": {n: _prop_out(p, fam_names) for n, p in sc.propositions.items()},
        "queries": sc.queries,
    }
    return canonical_json(doc)


# --- loading --------------------------------------------------------------

def _vec_in(raw, dim: int, what: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ScenarioError(f"{what}: expected {dim} components of [re, im]")
    comps = []
    for pair in raw:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                        for x in pair)):
            raise ScenarioError(f"{what}: components must be [re, im] pairs")
        comps.append(complex(float(pair[0]), float(pair[1])))
    return np.array(comps, dtype=complex)


def _section(doc: dict, key: str) -> dict:
    """A top-level section of named entries: an object, empty if absent."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{key!r} must be an object, got {value!r}")
    return value


def load_scenario(text: str, eps: float = EPS) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"parse error at line {exc.lineno}, column {exc.colno}: "
                            f"{exc.msg}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    for key in ("name", "dim"):
        if key not in doc:
            raise ScenarioError(f"missing top-level key {key!r}")
    dim = doc["dim"]
    if not (isinstance(dim, int) and not isinstance(dim, bool) and 1 <= dim <= MAX_DIM):
        raise ScenarioError(f"'dim' must be an integer in 1..{MAX_DIM}, got {dim!r}")
    sc = Scenario(name=str(doc["name"]), dim=dim)

    for sname, raw in sorted(_section(doc, "states").items()):
        v = _vec_in(raw, dim, f"state {sname!r}")
        n = _norm(v)
        if n == 0.0:
            raise ScenarioError(f"state {sname!r} is (near-)zero and cannot be normalized")
        if abs(n - 1.0) <= eps:
            # already unit within tolerance: keep the components bit-exact
            sc.states[sname] = State(v, eps)
        else:
            sc.warnings.append(f"state {sname!r} renormalized (norm was {n:.6g})")
            sc.states[sname] = State.normalized(v, eps)

    for oname, rows in sorted(_section(doc, "observables").items()):
        if not isinstance(rows, list) or len(rows) != dim:
            raise ScenarioError(f"observable {oname!r}: expected {dim} rows")
        m = np.array([_vec_in(r, dim, f"observable {oname!r} row") for r in rows])
        sc.observables[oname] = Observable(m, oname)

    for fname, raw_fam in sorted(_section(doc, "families").items()):
        if not (isinstance(raw_fam, dict) and isinstance(raw_fam.get("members"), list)):
            raise ScenarioError(f"family {fname!r}: expected a 'members' list")
        members = []
        for entry in raw_fam["members"]:
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)):
                raise ScenarioError(f"family {fname!r}: members are [label, vectors] pairs")
            label, vecs = entry
            if not vecs:
                members.append((str(label), Subspace.zero(dim)))
                continue
            basis = [_vec_in(v, dim, f"family {fname!r} member {label!r}") for v in vecs]
            mat = np.column_stack(basis)
            gram = mat.conj().T @ mat
            if float(np.max(np.abs(gram - np.eye(len(basis))))) <= eps:
                # already orthonormal: keep the components bit-exact so
                # serialize(load(text)) reproduces text byte for byte
                sub = Subspace(dim, mat, eps)
            else:
                sub = gram_schmidt(basis, eps)
            members.append((str(label), sub))
        sc.families[fname] = OrthoFamily(dim, members, eps)

    for pname, raw in sorted(_section(doc, "propositions").items()):
        p = _parse_prop(raw, sc, pname)
        # a positive literal displays as the proposition's name; a negated one
        # and the literals of a compound keep the names of their members
        sc.propositions[pname] = (Literal(p.subspace, True, p.family, p.member, pname)
                                  if isinstance(p, Literal) and p.asserted else p)

    queries = doc.get("queries", [])
    if not isinstance(queries, list):
        raise ScenarioError("'queries' must be a list")
    sc.queries = queries
    return sc


def _parse_prop(raw, sc: Scenario, pname: str, depth: int = 0) -> Proposition:
    if isinstance(raw, str):
        try:
            return sc.resolve_proposition(raw)
        except ScenarioError as exc:
            raise ScenarioError(f"proposition {pname!r}: {exc}") from None
    if isinstance(raw, dict) and len(raw) == 1:
        key, parts = next(iter(raw.items()))
        if key in ("and", "or") and isinstance(parts, list) and parts:
            if depth == MAX_NESTING:
                raise ScenarioError("input is nested too deeply")
            sub = tuple(_parse_prop(x, sc, pname, depth + 1) for x in parts)
            return And(sub) if key == "and" else Or(sub)
    raise ScenarioError(f"proposition {pname!r}: expected 'family.member', "
                        "'!family.member', or a {'and'|'or': [...]} object")


# --- builtins -------------------------------------------------------------
#
# Each builtin is a scenario document, read by load_scenario as a file is.

_R = 1.0 / math.sqrt(2.0)
# the x lines hold sqrt(0.5), one ulp above 1/sqrt(2): that is what
# gram_schmidt makes of [r, r], and the builtins' decisions and printed
# bases keep those bits
_X = math.sqrt(0.5)
_SPIN_STATES = {"up_z": _vec_out([1, 0]), "down_z": _vec_out([0, 1]),
                "up_x": _vec_out([_R, _R]), "down_x": _vec_out([_R, -_R])}
_X_FAMILY = {"x": {"members": [["up_x", [_vec_out([_X, _X])]],
                               ["down_x", [_vec_out([_X, -_X])]]]}}
_X_PROPOSITIONS = {"u_x": "x.up_x", "d_x": "x.down_x"}

_BUILTINS = {
    "spin_half_x": {
        "dim": 2,
        "states": _SPIN_STATES,
        "observables": {"X": [_vec_out([0, 1]), _vec_out([1, 0])]},
        "families": _X_FAMILY,
        "propositions": _X_PROPOSITIONS,
        "queries": [
            {"op": "classify", "args": {"p": "u_x", "q": "d_x"}},
            {"op": "classify", "args": {"p": "u_x", "q": "!u_x"}},
            {"op": "classify", "args": {"p": "!u_x", "q": "!d_x"}},
            {"op": "hexagon", "args": {"a": "u_x", "e": "d_x"}},
            {"op": "attribute", "args": {"state": "up_z", "family": "x",
                                         "semantics": "minimal"}},
            {"op": "attribute", "args": {"state": "up_z", "family": "x",
                                         "semantics": "paraconsistent"}},
            {"op": "prob", "args": {"state": "up_z", "family": "x"}},
        ],
    },
    "double_slit": {
        "dim": 2,
        "states": {"psi_1": _vec_out([1, 0]), "psi_2": _vec_out([0, 1]),
                   # equal weights are the symmetric default; a scenario
                   # file can vary them
                   "Psi": _vec_out([_R, _R])},
        "families": {"slit": {"members": [["slit_1", [_vec_out([1, 0])]],
                                          ["slit_2", [_vec_out([0, 1])]]]}},
        "propositions": {"went_1": "slit.slit_1", "went_2": "slit.slit_2"},
        "queries": [
            {"op": "classify", "args": {"p": "went_1", "q": "went_2"}},
            {"op": "hexagon", "args": {"a": "went_1", "e": "went_2"}},
            {"op": "attribute", "args": {"state": "Psi", "family": "slit",
                                         "semantics": "paraconsistent"}},
            {"op": "lp_postulate", "args": {"labels": ["s1", "s2"], "mode": "lp"}},
        ],
    },
    "cat": {
        "dim": 2,
        "states": {"C_d": _vec_out([1, 0]), "C_a": _vec_out([0, 1]),
                   "Phi": _vec_out([_R, _R])},
        "families": {"fate": {"members": [["dead", [_vec_out([1, 0])]],
                                          ["alive", [_vec_out([0, 1])]]]}},
        "propositions": {"dead": "fate.dead", "alive": "fate.alive"},
        "queries": [
            {"op": "classify", "args": {"p": "dead", "q": "alive"}},
            {"op": "hexagon", "args": {"a": "dead", "e": "alive"}},
            {"op": "attribute", "args": {"state": "Phi", "family": "fate",
                                         "semantics": "paraconsistent"}},
        ],
    },
    "three_level": {
        "dim": 3,
        "states": {"a": _vec_out([1, 0, 0]), "b": _vec_out([0, 1, 0]),
                   "c": _vec_out([0, 0, 1]),
                   "abc": _vec_out([1.0 / math.sqrt(3.0)] * 3)},
        "families": {"level": {"members": [["a", [_vec_out([1, 0, 0])]],
                                           ["b", [_vec_out([0, 1, 0])]],
                                           ["c", [_vec_out([0, 0, 1])]]]}},
        "propositions": {"p_a": "level.a", "p_b": "level.b", "p_c": "level.c"},
        "queries": [
            {"op": "classify", "args": {"p": "p_a", "q": "p_b"}},
            {"op": "hexagon", "args": {"a": "p_a", "e": "p_b"}},
            {"op": "lp_chain", "args": {"labels": ["a", "b", "c"],
                                        "conclude": "p_a <-> !p_a",
                                        "mode": "classical"}},
            {"op": "lp_chain", "args": {"labels": ["a", "b", "c"], "mode": "lp"}},
        ],
    },
    "skewed": {
        "dim": 2,
        "states": dict(_SPIN_STATES, skewed=_vec_out(superpose(
            [2.0 / math.sqrt(7.0), math.sqrt(3.0 / 7.0)],
            [State([_R, _R]), State([_R, -_R])]).vector)),
        "families": _X_FAMILY,
        "propositions": _X_PROPOSITIONS,
        "queries": [
            {"op": "prob", "args": {"state": "skewed", "family": "x"}},
            {"op": "attribute", "args": {"state": "skewed", "family": "x",
                                         "semantics": "minimal"}},
            {"op": "attribute", "args": {"state": "skewed", "family": "x",
                                         "semantics": "paraconsistent"}},
        ],
    },
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Scenario:
    """One of the bundled scenarios; see BUILTIN_NAMES.  Its document goes
    through JSON text, so every call returns fresh objects, and it is read
    at the default EPS."""
    return load_scenario(json.dumps(dict(_named(_BUILTINS, "builtin", name), name=name)))


# --- query execution ------------------------------------------------------

def _witnesses_out(c) -> dict:
    return {k: {"state": _vec_out(w.state.vector), "pattern": list(w.pattern)}
            for k, w in sorted(c.witnesses.items())}


def _ref(args: dict, key: str) -> str:
    """A string argument: a proposition, state or family name, or a formula."""
    value = args.get(key)
    if not isinstance(value, str):
        raise ScenarioError(f"query argument {key!r} must be a string, got {value!r}")
    return value


def _strings(args: dict, key: str) -> list:
    value = args.get(key)
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
        raise ScenarioError(f"query argument {key!r} must be a list of strings, "
                            f"got {value!r}")
    return value


def run_query(sc: Scenario | None, query: dict, eps: float = EPS) -> dict:
    """Execute one query and return its full JSON-compatible result: the
    op and args, then what the op computed (witnesses with their
    patterns, polygon positions, the probability total, LP models when
    asked).  The LP ops need no scenario."""
    if not (isinstance(query, dict) and "op" in query):
        raise ScenarioError(f"malformed query {query!r}")
    op = query["op"]
    args = query.get("args", {})
    if not isinstance(args, dict):
        raise ScenarioError(f"query {op!r}: 'args' must be an object, got {args!r}")
    out = {"op": op, "args": args}

    if op == "classify":
        p_ref, q_ref = _ref(args, "p"), _ref(args, "q")
        c = classify(sc.resolve_proposition(p_ref), sc.resolve_proposition(q_ref), eps)
        out["relation"] = c.describe(p_ref, q_ref)
        out["witnesses"] = _witnesses_out(c)
    elif op in ("square", "hexagon"):
        a = sc.resolve_proposition(_ref(args, "a"))
        e = sc.resolve_proposition(_ref(args, "e"))
        build = build_square if op == "square" else build_hexagon
        poly = build(a, e, eps)
        out["positions"] = {n: p.display() for n, p in poly.positions.items()}
        out["relations"] = {f"{x}-{y}": {"relation": c.describe(x, y),
                                         "witnesses": _witnesses_out(c)}
                            for (x, y), c in sorted(poly.relations.items())}
        out["deviations"] = [list(d) for d in poly.deviations]
    elif op in ("prob", "attribute"):
        psi = sc.resolve_state(_ref(args, "state"))
        fam = sc.resolve_family(_ref(args, "family"))
        weights = {lab: born(psi, sub) for lab, sub in fam.members}
        if op == "prob":
            out["probabilities"] = weights
            out["total"] = sum(weights.values())
        else:
            semantics = args.get("semantics", "minimal")
            attribute = _named({"minimal": minimal_attribution,
                                "paraconsistent": paraconsistent_attribution},
                               "semantics", semantics)
            out["semantics"] = semantics
            out["attributed"] = sorted(attribute(psi, fam, eps))
            out["weights"] = weights
    elif op in ("lp_postulate", "lp_chain", "lp_check"):
        if op == "lp_check":
            constraints = [lp.parse_formula(f) for f in _strings(args, "constraints")]
        else:
            make = (lp.postulate_of_contradiction if op == "lp_postulate"
                    else lp.equivalence_chain)
            constraints = make(_strings(args, "labels"))
        mode = args.get("mode", "lp")
        out["constraints"] = [str(f) for f in constraints]
        out["mode"] = mode
        # when models are asked for, their first is the one satisfiable finds
        every = lp.models(constraints, mode) if args.get("models") else None
        if every is None:
            model = lp.satisfiable(constraints, mode)
        else:
            model = every[0] if every else None
        out["satisfiable"] = model is not None
        if model is not None:
            out["model"] = {k: str(v) for k, v in sorted(model.items())}
        if "conclude" in args:
            conclusion = lp.parse_formula(_ref(args, "conclude"))
            out["conclusion"] = str(conclusion)
            out["consequence"] = lp.consequence(constraints, conclusion, mode)
        if every is not None:
            out["models"] = [{k: str(v) for k, v in sorted(m.items())} for m in every]
    else:
        raise ScenarioError(f"unknown query op {op!r}")
    return out


def _brief(result: dict) -> dict:
    """A run_query result in the `scenario run` shape: bare witness
    states, bare relation strings, no positions and no total."""
    out = dict(result)
    if out["op"] == "classify":
        out["witnesses"] = {k: w["state"] for k, w in out["witnesses"].items()}
    elif out["op"] in ("square", "hexagon"):
        del out["positions"]
        out["relations"] = {k: r["relation"] for k, r in out["relations"].items()}
    elif out["op"] == "prob":
        del out["total"]
    return out


def run_all(sc: Scenario, eps: float = EPS) -> list:
    return [_brief(run_query(sc, q, eps)) for q in sc.queries]
