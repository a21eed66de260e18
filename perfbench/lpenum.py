"""lp-enumerate: one request is the bundle `qopp lp chain --conclude
--models` runs (satisfiable, models, consequence), in both modes, on one
equivalence chain, one postulate of contradiction and RANDOM_SETS random
formulas, all over ATOMS atoms.

The engine stops early in `all()` over constraints, in `satisfiable` and
in a consequence that fails, so the cost of a random request would swing
from seed to seed.  A random set is therefore one formula of fixed size
(every atom once, NEGATIONS negations), designated at a share of the LP
valuations inside LP_BAND, and concluding itself or'ed with a random
formula: a conclusion that always follows, so it is checked over every
valuation.

Chain and postulate results are checked against closed forms derived by
hand; random sets against a vectorised three-valued evaluator written
here.
"""

from __future__ import annotations

import itertools
import string

import numpy as np

from common import Mismatch

ATOMS = 6
REQUESTS = 24
RANDOM_SETS = 3
NEGATIONS = 2
CONCLUSION_LEAVES = 3
# the middle of the designated shares that random formulas of this size have
LP_BAND = (0.8, 0.9)
MODES = ("lp", "classical")
# satisfiable + models + one consequence per conclusion, in both modes:
# chain 1 conclusion, postulate 2, each random set 1
OPS_PER_REQUEST = len(MODES) * (3 + 4 + 3 * RANDOM_SETS)

F, B, T = 0, 1, 2


def _labels(rng, k: int) -> list:
    letters = np.array(list(string.ascii_lowercase))
    out = set()
    while len(out) < k:
        out.add("".join(rng.choice(letters, 3)))
    return sorted(out)


# --- random formulas, held as tuples so the check does not use the library

def _random_tree(rng, leaves: list):
    """A random binary formula over the given leaf atoms, in order."""
    if len(leaves) == 1:
        return ("atom", leaves[0])
    cut = int(rng.integers(1, len(leaves)))
    op = ("and", "or", "imp", "iff")[int(rng.integers(0, 4))]
    return (op, _random_tree(rng, leaves[:cut]), _random_tree(rng, leaves[cut:]))


def _negate(node, targets: set, counter: list):
    """Negate the nodes whose preorder index is in targets."""
    index = counter[0]
    counter[0] += 1
    if node[0] != "atom":
        node = (node[0], _negate(node[1], targets, counter), _negate(node[2], targets, counter))
    return ("not", node) if index in targets else node


_SYMBOL = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def render(node) -> str:
    if node[0] == "atom":
        return node[1]
    if node[0] == "not":
        return "!" + render(node[1])
    return f"({render(node[1])} {_SYMBOL[node[0]]} {render(node[2])})"


def evaluate(node, columns: dict) -> np.ndarray:
    """Three-valued value of a formula at every valuation at once
    (F=0 < B=1 < T=2; negation 2-x; and/or min/max)."""
    kind = node[0]
    if kind == "atom":
        return columns[node[1]]
    if kind == "not":
        return 2 - evaluate(node[1], columns)
    a, b = evaluate(node[1], columns), evaluate(node[2], columns)
    if kind == "and":
        return np.minimum(a, b)
    if kind == "or":
        return np.maximum(a, b)
    if kind == "imp":
        return np.maximum(2 - a, b)
    return np.minimum(np.maximum(2 - a, b), np.maximum(2 - b, a))


def truth_table(names: list, mode: str):
    """Every valuation in the engine's documented order (sorted atoms,
    F < (B) < T, last atom fastest), as one int8 column per atom."""
    values = (F, T) if mode == "classical" else (F, B, T)
    rows = np.array(list(itertools.product(values, repeat=len(names))), dtype=np.int8)
    return rows, {name: rows[:, i] for i, name in enumerate(names)}


def _random_set(rng, k: int):
    names = [f"{lab}_{i}" for i, lab in enumerate(_labels(rng, k))]
    _, columns = truth_table(sorted(names), "lp")
    while True:
        tree = _random_tree(rng, list(rng.permutation(names)))
        tree = _negate(tree, set(rng.choice(2 * k - 1, NEGATIONS, replace=False)), [0])
        share = float(np.mean(evaluate(tree, columns) > F))
        if LP_BAND[0] <= share <= LP_BAND[1]:
            break
    extra = _random_tree(rng, list(rng.choice(names, CONCLUSION_LEAVES)))
    return names, [tree], ("or", tree, extra)


def generate(rng) -> list:
    """Each request: [(kind, what the check needs, constraint labels or
    texts, conclusion texts)] for the chain, the postulate and the random
    sets."""
    requests = []
    for _ in range(REQUESTS):
        chain_labels = _labels(rng, ATOMS)
        x = chain_labels[int(rng.integers(0, ATOMS))]
        post_labels = _labels(rng, ATOMS)
        y = post_labels[int(rng.integers(0, ATOMS))]
        items = [("chain", chain_labels, chain_labels, [f"p_{x} <-> !p_{x}"]),
                 ("postulate", post_labels, post_labels,
                  [f"K_{y} | !K_{y}", f"unrelated_{y}"])]
        for _ in range(RANDOM_SETS):
            names, trees, conclusion = _random_set(rng, ATOMS)
            items.append(("random", (names, trees, conclusion),
                          [render(t) for t in trees], [render(conclusion)]))
        requests.append(items)
    return requests


def build(q, data) -> list:
    """The same items with the library's constraint and conclusion formulas."""
    lp = q.lp
    make = {"chain": lp.equivalence_chain, "postulate": lp.postulate_of_contradiction,
            "random": lambda texts: [lp.parse_formula(t) for t in texts]}
    return [[(kind, info, make[kind](given), [lp.parse_formula(t) for t in conclusions])
             for kind, info, given, conclusions in items]
            for items in data]


def run(q, request):
    lp = q.lp
    return [[(lp.satisfiable(constraints, mode), lp.models(constraints, mode),
              [lp.consequence(constraints, c, mode) for c in conclusions])
             for mode in MODES]
            for _, _, constraints, conclusions in request]


def _as_rows(valuations, names) -> list:
    return [tuple(int(v[n]) for n in names) for v in valuations]


def _expect(kind, mode, got, want) -> None:
    if got != want:
        raise Mismatch(f"{kind} ({mode}): got {got}, expected {want}")


def verify(q, request, out) -> int:
    for (kind, info, _, _), (lp_out, classical_out) in zip(request, out):
        {"chain": _verify_chain, "postulate": _verify_postulate,
         "random": _verify_random}[kind](info, lp_out, classical_out)
    return 0


def _verify_chain(labels, lp_out, classical_out) -> None:
    # equivalence chain on k >= 3 labels: LP models are the valuations with
    # at most one T and at most one F, the rest B (k^2 + k + 1 of them; the
    # first in enumeration order sets the first atom F); classically
    # unsatisfiable, so every classical consequence holds vacuously
    names = sorted(f"p_{lab}" for lab in labels)
    k = len(names)
    sat, mods, cons = lp_out
    rows = _as_rows(mods, names)
    _expect("chain", "lp", len(rows), k * k + k + 1)
    if any(r.count(T) > 1 or r.count(F) > 1 for r in rows) or len(set(rows)) != len(rows):
        raise Mismatch("chain (lp): a model has two T or two F atoms")
    _expect("chain", "lp", _as_rows([sat], names)[0], (F,) + (B,) * (k - 1))
    # p_x <-> !p_x is designated only where p_x = B; a model with p_x = T exists
    _expect("chain", "lp", cons, [False])
    _expect("chain", "classical", classical_out, (None, [], [True]))


def _verify_postulate(labels, lp_out, classical_out) -> None:
    # K and !K are both designated only at B, so the single LP model is all
    # B and there is no classical model; K_y | !K_y is designated at every
    # value, an unrelated atom is not
    names = sorted(f"K_{lab}" for lab in labels)
    sat, mods, cons = lp_out
    _expect("postulate", "lp", _as_rows(mods, names), [(B,) * len(names)])
    _expect("postulate", "lp", _as_rows([sat], names), [(B,) * len(names)])
    _expect("postulate", "lp", cons, [True, False])
    _expect("postulate", "classical", classical_out, (None, [], [True, True]))


def _verify_random(info, lp_out, classical_out) -> None:
    names, trees, conclusion = info
    names = sorted(names)
    for mode, (sat, mods, cons) in zip(MODES, (lp_out, classical_out)):
        table, columns = truth_table(names, mode)
        ok = np.ones(len(table), dtype=bool)
        for t in trees:
            ok &= evaluate(t, columns) > F
        want_models = [tuple(int(x) for x in r) for r in table[ok]]
        follows = bool(np.all(evaluate(conclusion, columns)[ok] > F))
        _expect("random", mode, _as_rows(mods, names), want_models)
        _expect("random", mode, None if sat is None else _as_rows([sat], names)[0],
                want_models[0] if want_models else None)
        _expect("random", mode, cons, [follows])


def _valuation(v) -> tuple | None:
    return None if v is None else tuple(sorted((k, int(x)) for k, x in v.items()))


def fingerprint(out) -> tuple:
    return tuple((_valuation(sat), tuple(_valuation(m) for m in mods), tuple(cons))
                 for per_set in out for sat, mods, cons in per_set)
