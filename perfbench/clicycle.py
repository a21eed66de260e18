"""cli: one request is one `python -m qopposition.cli` subprocess, over a
fixed cycle of commands.  The `qopp` script is not installed, so each
child runs with PYTHONPATH=src.

Checks: exit codes, JSON that parses, relations against the classical
pattern, witnesses replayed against the scenario's own member vectors
(from `scenario show`), byte-identical repeats, and a `scenario show` file
that reloads and re-runs to the same results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from common import Mismatch
from hexagons import PATTERN, member

LP_CHAIN_LABELS = 7


def _describe(x: str, y: str, relation: str, direction) -> str:
    if relation == "Subaltern":
        a, b = (x, y) if direction == "forward" else (y, x)
        return f"Subaltern ({a} -> {b})"
    return relation


HEXAGON_TEXT = {f"{x}-{y}": _describe(x, y, *want) for (x, y), want in PATTERN.items()}


def generate(rng) -> dict:
    letters = list("abcdefghijklmnopqrstuvwxyz")
    labels = set()
    while len(labels) < LP_CHAIN_LABELS:
        labels.add("".join(rng.choice(letters, 4)))
    return {"scenario": rng.random(), "pair": rng.random(2),
            "negated": bool(rng.integers(0, 2)), "labels": sorted(labels)}


class Cycle:
    """The generated command cycle and what the checks need to know."""

    def __init__(self, q, data: dict, workdir: str):
        self.builtins = list(q.scenarios.BUILTIN_NAMES)
        self.scenario = self.builtins[int(data["scenario"] * len(self.builtins))]
        props = sorted(q.builtin(self.scenario).propositions)
        a = props[int(data["pair"][0] * len(props))]
        others = [p for p in props if p != a]
        e = others[int(data["pair"][1] * len(others))]
        # two distinct members of one family are Contrary; their negations
        # Subcontrary; both relations come with a witness to check
        negated = data["negated"]
        self.classify_pair = (f"!{a}", f"!{e}") if negated else (a, e)
        self.classify_relation = "Subcontrary" if negated else "Contrary"
        self.hexagon_pair = (a, e)
        self.labels = data["labels"]
        self.file = os.path.join(workdir, f"scenario-{os.getpid()}.json")
        fmt = ["--format", "json"]
        self.argvs = [["scenario", "run", name] + fmt for name in self.builtins]
        self.argvs += [["hexagon", self.scenario, a, e, "--format", "dot"],
                       ["hexagon", self.scenario, a, e] + fmt,
                       ["classify", self.scenario, *self.classify_pair] + fmt,
                       None,  # classify --check-witness, filled from the classify output
                       ["lp", "chain", *self.labels] + fmt,
                       ["scenario", "show", self.scenario] + fmt,
                       ["scenario", "run", self.file] + fmt]
        self.check_at = self.argvs.index(None)

    def __len__(self):
        return len(self.argvs)

    def __getitem__(self, i):
        return self.argvs[i]

    def fill(self, classify_stdout: str) -> None:
        witnesses = json.loads(classify_stdout)["results"]["witnesses"]
        witness = next(iter(witnesses.values()))
        self.argvs[self.check_at] = ["classify", self.scenario, *self.classify_pair,
                                     "--check-witness", json.dumps(witness),
                                     "--format", "json"]


def build(q, data: dict, workdir: str) -> Cycle:
    return Cycle(q, data, workdir)


def run_subprocess(root: str, argv: list):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-m", "qopposition.cli", *argv], cwd=root,
                          env=env, capture_output=True, text=True, check=False)
    return done.returncode, done.stdout


def run_in_process(q, argv: list):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = q.cli.main(argv)
    return code, buf.getvalue()


# --- checks -----------------------------------------------------------------

def _scenario_props(doc: dict) -> dict:
    """Proposition name -> member basis (numpy columns) from `scenario show`."""
    members = {}
    for fam, body in doc["families"].items():
        for label, vectors in body["members"]:
            cols = np.array([[complex(re, im) for re, im in v] for v in vectors]).T
            members[f"{fam}.{label}"] = cols
    return {name: members[ref] for name, ref in doc["propositions"].items()}


def _holds(props: dict, text: str, psi) -> bool:
    if text.startswith("!"):
        return not member(props[text[1:]], psi)
    return member(props[text], psi)


def _hexagon_corners(a: str, e: str) -> dict:
    # each corner as (disjunction of conjunctions) of literal texts
    return {"A": [[a]], "E": [[e]], "I": [[f"!{e}"]], "O": [[f"!{a}"]],
            "U": [[a], [e]], "Y": [[f"!{e}", f"!{a}"]]}


def _corner_holds(props, corner, psi) -> bool:
    return any(all(_holds(props, lit, psi) for lit in conj) for conj in corner)


def _state(raw) -> np.ndarray:
    return np.array([complex(re, im) for re, im in raw])


def _check_witness(w: dict, holds_first, holds_second, where: str) -> None:
    psi = _state(w["state"])
    if [holds_first(psi), holds_second(psi)] != w["pattern"]:
        raise Mismatch(f"{where}: witness does not replay")


def _check_relation_query(result: dict) -> None:
    p, q_ = result["args"]["p"], result["args"]["q"]
    if p.lstrip("!") == q_.lstrip("!"):
        want = "Contradictory"
    else:
        want = "Subcontrary" if p.startswith("!") else "Contrary"
    if result["relation"] != want:
        raise Mismatch(f"scenario classify {p} {q_}: {result['relation']}, expected {want}")


def _check_scenario_run(doc: dict) -> None:
    """Relations and LP facts in the queries of a builtin scenario.  Every
    builtin proposition is a member of one orthogonal family."""
    for r in doc["results"]["queries"]:
        if r["op"] == "classify":
            _check_relation_query(r)
        elif r["op"] == "hexagon":
            if r["relations"] != HEXAGON_TEXT or r["deviations"]:
                raise Mismatch(f"scenario hexagon {r['args']}: {r['relations']}")
        elif r["op"] == "lp_postulate" and r["mode"] == "lp":
            if not r["satisfiable"] or set(r["model"].values()) != {"B"}:
                raise Mismatch("scenario lp_postulate: LP model is not all B")
        elif r["op"] == "lp_chain":
            if r["satisfiable"] != (r["mode"] == "lp") or r.get("consequence", True) is not True:
                raise Mismatch(f"scenario lp_chain ({r['mode']}): {r}")


def verify_round(cycle: Cycle, outputs: list) -> None:
    """Check one round of (exit code, stdout) pairs, one per argv."""
    for argv, (code, out) in zip(cycle.argvs, outputs):
        if code != 0:
            raise Mismatch(f"qopp {' '.join(argv[:3])}: exit code {code}")
    docs = [json.loads(out) if "dot" not in argv else None
            for argv, (_, out) in zip(cycle.argvs, outputs)]
    n = len(cycle.builtins)
    runs, dot = docs[:n], outputs[n][1]
    hexagon, classify, checked, chain, show, rerun = docs[n + 1:]
    for doc in runs:
        _check_scenario_run(doc)
    if show["name"] != cycle.scenario:
        raise Mismatch("scenario show: wrong name")
    original = runs[cycle.builtins.index(cycle.scenario)]
    if rerun["results"] != original["results"] or rerun["warnings"] != original["warnings"]:
        raise Mismatch("scenario run on the shown file differs from the builtin")
    props = _scenario_props(show)

    a, e = cycle.hexagon_pair
    for key, text in HEXAGON_TEXT.items():
        x, y = key.split("-")
        if text.startswith("Subaltern"):
            src, dst = (x, y) if PATTERN[(x, y)][1] == "forward" else (y, x)
            edge = f'"{src}" -> "{dst}" [label="subaltern"]'
        else:
            edge = f'"{x}" -> "{y}" [label="{text.lower()}"'
        if edge not in dot:
            raise Mismatch(f"hexagon dot: no edge {edge}")
    corners = _hexagon_corners(a, e)
    for key, rel in hexagon["results"]["relations"].items():
        if rel["relation"] != HEXAGON_TEXT[key]:
            raise Mismatch(f"hexagon {key}: {rel['relation']}, expected {HEXAGON_TEXT[key]}")
        x, y = key.split("-")
        for w in rel["witnesses"].values():
            _check_witness(w, lambda s: _corner_holds(props, corners[x], s),
                           lambda s: _corner_holds(props, corners[y], s), f"hexagon {key}")

    classify = classify["results"]
    p, q_ = cycle.classify_pair
    if classify["relation"] != cycle.classify_relation or not classify["witnesses"]:
        raise Mismatch(f"classify {p} {q_}: {classify['relation']}")
    for w in classify["witnesses"].values():
        _check_witness(w, lambda s: _holds(props, p, s), lambda s: _holds(props, q_, s),
                       "classify")
    checked = checked["results"]
    if checked["valid"] is not True or checked["observed"] != checked["claimed"]:
        raise Mismatch("classify --check-witness rejected the printed witness")

    chain = chain["results"]
    atoms = sorted(f"p_{lab}" for lab in cycle.labels)
    first = {name: ("F" if i == 0 else "B") for i, name in enumerate(atoms)}
    if chain["satisfiable"] is not True or chain["model"] != first:
        raise Mismatch(f"lp chain: first model {chain.get('model')}, expected {first}")
