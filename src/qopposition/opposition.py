"""Opposition relations between quantum propositions.

The truth of a proposition at a state depends only on which of its leaf
subspaces contain the state.  Every decision enumerates those membership
patterns over the distinct leaf subspaces S_1..S_k of both propositions:
a pattern I is realizable iff T_I, the meet of the S_i with i in I (the
whole space when I is empty), holds a state that `contains` puts in no
S_j with j outside I.  A complex space is never a finite union of proper
subspaces, so a short deterministic search over T_I finds that state
whenever T_I lies in no such S_j.  `classify` decides a pair by bit tests
on int truth masks over the realizable patterns, which `quantum.evaluate`
folds from the leaves' masks as `truth` does at one state; each nonempty
both-true or both-false mask gives its first pattern's witness.  The
questions `can_both_be_true` and `can_both_be_false` read `classify`, and
`entails` tests the masks itself.  A polygon's corners other than A and E
take their masks by complement, since negation is set complement.  The
walk visits each nonzero meet once: orthogonal leaves have few, while k
generic hyperplanes have up to 2^k, so a decision is refused once it has
visited more than MEET_BUDGET of them.

`random_witness_search` samples Haar-random states.  It tests membership
on its own, vectorized over the samples, and shares only the And/Or fold
of `evaluate`.  No decision uses it; the tests keep it as an oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import EPS, _norm, _unit, check_eps
from .quantum import (And, Or, Proposition, State, ambient_dim_of, evaluate,
                      leaves, truth)

DEFAULT_TRIALS = 2000
MEET_BUDGET = 2 ** 12


class OppositionError(ValueError):
    pass


class Relation(enum.Enum):
    CONTRADICTORY = "Contradictory"
    CONTRARY = "Contrary"
    SUBCONTRARY = "Subcontrary"
    SUBALTERN = "Subaltern"
    EQUIVALENT = "Equivalent"
    INDEPENDENT = "Independent"

    def __str__(self):
        return self.value


@dataclass(slots=True)
class Witness:
    """A concrete state realizing a truth-value pattern on some propositions."""
    state: State
    props: tuple
    pattern: tuple

    def replay(self, eps: float = EPS) -> bool:
        return all(truth(p, self.state, eps) == want
                   for p, want in zip(self.props, self.pattern))


@dataclass(slots=True)
class Classification:
    relation: Relation
    # for SUBALTERN: "forward" means the first argument entails the second
    direction: str | None = None
    witnesses: dict = field(default_factory=dict, compare=False)

    def describe(self, first: str = "p", second: str = "q") -> str:
        if self.relation is Relation.SUBALTERN:
            a, b = (first, second) if self.direction == "forward" else (second, first)
            return f"Subaltern ({a} -> {b})"
        return self.relation.value


# --- membership patterns ----------------------------------------------------

def _candidates(basis: np.ndarray, k: int):
    """Unit vectors spanned by the d columns of basis: the columns, then the
    moment curve sum_m s^m b_m at the k*d + 1 roots of unity
    s = exp(2 pi i t / (k*d + 1)).  Any d points of the curve are
    independent (Vandermonde at distinct nodes), so a proper subspace of the
    span holds fewer than d of them and k such subspaces cannot hold all.
    The nodes have unit modulus, so every coefficient has size 1/sqrt(d)
    and no point drifts towards a coordinate hyperplane as d grows; t = 0
    is the equal-weight superposition of the columns.  For d = 1 every
    point of the curve is the column itself."""
    d = basis.shape[1]
    for m in range(d):
        yield basis[:, m]
    if d > 1:
        nodes = k * d + 1
        for t in range(nodes):
            c = np.exp(2j * np.pi * t / nodes * np.arange(d))
            c = _unit(c, _norm(c))
            v = sum(x * basis[:, m] for m, x in enumerate(c))
            yield _unit(v, _norm(v))


def _patterns(props, eps: float):
    """(truth masks, witness states) over the realizable patterns of the
    leaves of props[0] and props[1].

    A pattern is the set of distinct leaf subspaces that hold its witness
    state, keyed by the Subspace objects themselves (they hash by
    identity).  A depth-first walk over subsets finds them, skipping every
    superset of an empty meet and raising OppositionError past MEET_BUDGET
    nonzero meets.  The i-th pattern of the walk, whose witness is
    states[i], sets bit i in the mask of each of its subspaces, and a
    prop's truth table is the int that `evaluate` folds from those masks.
    For the empty pattern the whole space is spanned by the eigenbasis of the
    first leaf's orthogonal family when it has one, so that witness is an
    eigenstate, or an equal-weight superposition of eigenstates, of the
    observable in play."""
    lits = leaves(props[0]) + leaves(props[1])
    masks = dict.fromkeys((lit.subspace for lit in lits), 0)
    subs = list(masks)
    n = ambient_dim_of(subs)
    check_eps(eps)
    fam = lits[0].family
    whole = fam.basis if fam is not None else np.eye(n, dtype=complex)
    states = []
    visited = 0

    def walk(inside: frozenset, meet, start: int) -> None:
        nonlocal visited
        visited += 1
        if visited > MEET_BUDGET:
            raise OppositionError(
                f"{len(subs)} leaf subspaces have more than {MEET_BUDGET} nonzero "
                f"meets (the meet budget); deciding visits each of them")
        basis = whole if meet is None else meet.basis
        for v in _candidates(basis, len(subs)):
            if all(sub._contains(v, eps) == (sub in inside) for sub in subs):
                for sub in inside:
                    masks[sub] |= 1 << len(states)
                states.append(State(v, eps))
                break
        for j in range(start, len(subs)):
            nxt = subs[j] if meet is None else meet.intersect(subs[j], eps)
            if not nxt.is_zero():
                walk(inside | {subs[j]}, nxt, j + 1)

    walk(frozenset(), None, 0)
    return [evaluate(p, masks.get, (1 << len(states)) - 1) for p in props], states


def _classify(p: Proposition, q: Proposition, tp: int, tq: int, states: list) -> Classification:
    # a witness per nonempty both-true or both-false mask: its first pattern's state
    witnesses = {}
    if mask := tp & tq:
        witnesses["both_true"] = Witness(
            states[(mask & -mask).bit_length() - 1], (p, q), (True, True))
    if mask := ~(tp | tq) & ((1 << len(states)) - 1):
        witnesses["both_false"] = Witness(
            states[(mask & -mask).bit_length() - 1], (p, q), (False, False))
    if not witnesses:
        return Classification(Relation.CONTRADICTORY, witnesses=witnesses)
    if "both_true" not in witnesses:
        return Classification(Relation.CONTRARY, witnesses=witnesses)
    if "both_false" not in witnesses:
        return Classification(Relation.SUBCONTRARY, witnesses=witnesses)
    fwd, bwd = not tp & ~tq, not tq & ~tp
    if fwd and bwd:
        return Classification(Relation.EQUIVALENT, witnesses=witnesses)
    if fwd:
        return Classification(Relation.SUBALTERN, "forward", witnesses)
    if bwd:
        return Classification(Relation.SUBALTERN, "backward", witnesses)
    return Classification(Relation.INDEPENDENT, witnesses=witnesses)


# --- public decision procedures ------------------------------------------

def random_witness_search(props, pattern, seed: int,
                          trials: int = DEFAULT_TRIALS, eps: float = EPS) -> Witness | None:
    """Sample seeded Haar-like random unit states until one realizes the
    requested truth pattern; None if the budget runs out.  States are
    drawn in batches; the returned witness is the first match in the
    sampled stream, so a fixed seed gives an identical outcome."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    props = tuple(props)
    pattern = tuple(bool(b) for b in pattern)
    if len(props) != len(pattern):
        raise ValueError("props and pattern lengths differ")
    n = ambient_dim_of(lit.subspace for p in props for lit in leaves(p))
    goal = And(tuple(p if want else p.negate() for p, want in zip(props, pattern)))
    rng = np.random.default_rng(seed)
    remaining = trials
    while remaining > 0:
        m = min(remaining, 512)
        z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        z /= np.linalg.norm(z, axis=0)
        inside = lambda s: np.linalg.norm(z - s.basis @ (s._bh @ z), axis=0) < eps
        hits = np.flatnonzero(evaluate(goal, inside, True))
        if hits.size:
            return Witness(State(z[:, hits[0]], eps), props, pattern)
        remaining -= m
    return None


def can_both_be_true(p: Proposition, q: Proposition, eps: float = EPS):
    """(answer, witness): (True, a state making both true) or (False, None)."""
    w = classify(p, q, eps).witnesses.get("both_true")
    return w is not None, w


def can_both_be_false(p: Proposition, q: Proposition, eps: float = EPS):
    """(answer, witness): (True, a state making both false) or (False, None)."""
    w = classify(p, q, eps).witnesses.get("both_false")
    return w is not None, w


def entails(p: Proposition, q: Proposition, eps: float = EPS) -> bool:
    """Does every state making p true make q true?"""
    (tp, tq), _ = _patterns((p, q), eps)
    return not tp & ~tq


def classify(p: Proposition, q: Proposition, eps: float = EPS) -> Classification:
    """Classify the opposition relation between two propositions."""
    (tp, tq), states = _patterns((p, q), eps)
    return _classify(p, q, tp, tq, states)


# --- square and hexagon ---------------------------------------------------

# the classical hexagon pattern the construction is checked against
_SUB = lambda d: (Relation.SUBALTERN, d)
HEXAGON_PATTERN = {
    ("A", "E"): (Relation.CONTRARY, None),
    ("A", "I"): _SUB("forward"),
    ("A", "O"): (Relation.CONTRADICTORY, None),
    ("A", "U"): _SUB("forward"),
    ("A", "Y"): (Relation.CONTRARY, None),
    ("E", "I"): (Relation.CONTRADICTORY, None),
    ("E", "O"): _SUB("forward"),
    ("E", "U"): _SUB("forward"),
    ("E", "Y"): (Relation.CONTRARY, None),
    ("I", "O"): (Relation.SUBCONTRARY, None),
    ("I", "U"): (Relation.SUBCONTRARY, None),
    ("I", "Y"): _SUB("backward"),
    ("O", "U"): (Relation.SUBCONTRARY, None),
    ("O", "Y"): _SUB("backward"),
    ("U", "Y"): (Relation.CONTRADICTORY, None),
}
SQUARE_PATTERN = {k: v for k, v in HEXAGON_PATTERN.items() if not {"U", "Y"} & set(k)}


@dataclass(slots=True)
class Polygon:
    """A square or hexagon of opposition: named positions plus the
    classification of every unordered pair, and any deviations from the
    classical pattern."""
    positions: dict
    relations: dict
    deviations: tuple


def _build(a: Proposition, e: Proposition, pattern, eps) -> Polygon:
    # the corners are the pattern's keys; one walk over a and e serves them all
    (ta, te), states = _patterns((a, e), eps)
    full = (1 << len(states)) - 1
    positions = {"A": a, "E": e, "I": e.negate(), "O": a.negate()}
    tables = {"A": ta, "E": te, "I": full & ~te, "O": full & ~ta}
    if ("U", "Y") in pattern:
        positions["U"] = Or((a, e))
        positions["Y"] = And((positions["I"], positions["O"]))
        tables["U"], tables["Y"] = ta | te, full & ~(ta | te)
    base = _classify(a, e, ta, te, states)
    if base.relation is not Relation.CONTRARY:
        raise OppositionError(
            f"base pair is {base.describe('A', 'E')}, not Contrary; "
            "cannot place it at the A and E corners")
    relations, deviations = {}, []
    for (x, y), (want_rel, want_dir) in pattern.items():
        c = base if (x, y) == ("A", "E") else _classify(
            positions[x], positions[y], tables[x], tables[y], states)
        relations[(x, y)] = c
        if (c.relation, c.direction) != (want_rel, want_dir):
            deviations.append((x, y, want_rel.value, c.describe(x, y)))
    return Polygon(positions, relations, tuple(deviations))


def build_square(a: Proposition, e: Proposition, eps: float = EPS) -> Polygon:
    return _build(a, e, SQUARE_PATTERN, eps)


def build_hexagon(a: Proposition, e: Proposition, eps: float = EPS) -> Polygon:
    return _build(a, e, HEXAGON_PATTERN, eps)
