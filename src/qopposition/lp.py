"""Three-valued paraconsistent propositional engine (logic of paradox),
with classical two-valued evaluation as the comparison mode.

Truth values are ordered F < B < T with designated set {T, B}; negation
swaps T and F and fixes B; conjunction and disjunction are min and max in
that order.  Satisfiability and consequence are decided by exhaustive
enumeration of valuations in a fixed order (sorted atoms, F < (B) < T,
last atom fastest).  Valuations are taken in chunks of CHUNK_SIZE, each an
int8 table of atom values; every formula node is evaluated once per chunk
as a column over all of its valuations.  Constraint sets with more than
VALUATION_BUDGET valuations in the chosen mode are refused up front.
`eval3` is the reference semantics for a single valuation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# a full pass over 3^15 valuations takes seconds, and each further LP atom
# triples it
VALUATION_BUDGET = 3 ** 15
# valuations per enumeration chunk
CHUNK_SIZE = 3 ** 10

CLASSICAL = "classical"
LP = "lp"
MODES = (CLASSICAL, LP)


class LogicError(Exception):
    pass


class TV(enum.IntEnum):
    """Truth value: F < B < T; T and B are designated."""
    F = 0
    B = 1
    T = 2

    @property
    def designated(self) -> bool:
        return self is not TV.F

    def neg(self) -> "TV":
        return TV(2 - self.value)

    def __str__(self):
        return self.name


# --- formulas -------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    name: str

    def __post_init__(self):
        if not self.name:
            raise LogicError("atom name must be nonempty")

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not:
    arg: "Formula"

    def __str__(self):
        return f"!{_wrap(self.arg)}"


@dataclass(frozen=True)
class BinOp:
    left: "Formula"
    right: "Formula"

    SYMBOL = "?"

    def __str__(self):
        return f"({self.left} {self.SYMBOL} {self.right})"


class AndF(BinOp):
    SYMBOL = "&"


class OrF(BinOp):
    SYMBOL = "|"


class Imp(BinOp):
    SYMBOL = "->"


class Iff(BinOp):
    SYMBOL = "<->"


Formula = Atom | Not | AndF | OrF | Imp | Iff


def atoms(f: Formula) -> set:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, Not):
        return atoms(f.arg)
    return atoms(f.left) | atoms(f.right)


def eval3(f: Formula, valuation: dict) -> TV:
    """Evaluate under a (total) valuation.  Implication is material
    (!a | b); the biconditional is the conjunction of both implications."""
    if isinstance(f, Atom):
        try:
            return valuation[f.name]
        except KeyError:
            raise LogicError(f"valuation misses atom {f.name!r}") from None
    if isinstance(f, Not):
        return eval3(f.arg, valuation).neg()
    a, b = eval3(f.left, valuation), eval3(f.right, valuation)
    if isinstance(f, AndF):
        return min(a, b)
    if isinstance(f, OrF):
        return max(a, b)
    if isinstance(f, Imp):
        return max(a.neg(), b)
    if isinstance(f, Iff):
        return min(max(a.neg(), b), max(b.neg(), a))
    raise TypeError(f"not a formula: {f!r}")


_VALUES = {CLASSICAL: (TV.F, TV.T), LP: (TV.F, TV.B, TV.T)}


def _checked_atoms(formulas, mode) -> list:
    if mode not in MODES:
        raise LogicError(f"unknown mode {mode!r} (expected one of {MODES})")
    names = sorted(set().union(*[atoms(f) for f in formulas]) if formulas else set())
    count = len(_VALUES[mode]) ** len(names)
    if count > VALUATION_BUDGET:
        raise LogicError(f"{len(names)} atoms give {count} valuations in {mode} mode, "
                         f"over the enumeration budget of {VALUATION_BUDGET}")
    return names


def _column(f: Formula, columns: dict) -> np.ndarray:
    """The values of f at every valuation of a chunk, by the rules of eval3."""
    if isinstance(f, Atom):
        return columns[f.name]
    if isinstance(f, Not):
        return 2 - _column(f.arg, columns)
    a, b = _column(f.left, columns), _column(f.right, columns)
    if isinstance(f, AndF):
        return np.minimum(a, b)
    if isinstance(f, OrF):
        return np.maximum(a, b)
    if isinstance(f, Imp):
        return np.maximum(2 - a, b)
    if isinstance(f, Iff):
        return np.minimum(np.maximum(2 - a, b), np.maximum(2 - b, a))
    raise TypeError(f"not a formula: {f!r}")


def _scan(premises, mode, conclusion=None):
    """Every valuation over the sorted atoms of the premises (and the
    conclusion), in enumeration order, as chunks (names, table, ok): table
    is an int8 table of shape (atoms, valuations) holding TV values, at
    most CHUNK_SIZE valuations, and ok marks the valuations that designate
    every premise and, when a conclusion is given, leave it at F."""
    premises = list(premises)
    names = _checked_atoms(premises + ([] if conclusion is None else [conclusion]), mode)
    values = np.array(_VALUES[mode], dtype=np.int8)
    base = len(values)
    total = base ** len(names)
    for start in range(0, total, CHUNK_SIZE):
        index = np.arange(start, min(start + CHUNK_SIZE, total))
        table = np.empty((len(names), len(index)), dtype=np.int8)
        for i in reversed(range(len(names))):
            index, digit = np.divmod(index, base)
            table[i] = values[digit]
        columns = dict(zip(names, table))
        ok = np.ones(table.shape[1], dtype=bool)
        for f in premises:
            # designated is above F; an int operand spares numpy probing the enum
            ok &= _column(f, columns) > 0
        if conclusion is not None:
            ok &= _column(conclusion, columns) == 0
        yield names, table, ok


# the TV members indexed by value, to turn a table into TV members at once
_TV_MEMBERS = np.array(list(TV), dtype=object)


def _as_dicts(names, table) -> list:
    """The valuations of a table's columns, as dicts of TV members."""
    return [dict(zip(names, values)) for values in _TV_MEMBERS[table.T].tolist()]


def satisfiable(constraints, mode: str = LP) -> dict | None:
    """First valuation (in enumeration order) designating every constraint,
    or None."""
    for names, table, ok in _scan(constraints, mode):
        if ok.any():
            return _as_dicts(names, table[:, [ok.argmax()]])[0]
    return None


def models(constraints, mode: str = LP) -> list:
    """All valuations designating every constraint, in enumeration order."""
    return [v for names, table, ok in _scan(constraints, mode)
            for v in _as_dicts(names, table[:, ok])]


def consequence(premises, conclusion: Formula, mode: str = LP) -> bool:
    """Designation-preserving consequence: every valuation designating all
    premises designates the conclusion."""
    return not any(ok.any() for _, _, ok in _scan(premises, mode, conclusion))


def postulate_of_contradiction(labels) -> list:
    """For each superposition component s, the pair K_s and !K_s."""
    labels = [str(x) for x in labels]
    if not labels:
        raise LogicError("at least one component label is required")
    if len(set(labels)) != len(labels):
        raise LogicError(f"duplicate component labels: {labels}")
    out = []
    for lab in labels:
        k = Atom(f"K_{lab}")
        out.extend([k, Not(k)])
    return out


def equivalence_chain(labels) -> list:
    """The biconditional p_i <-> !p_j for every unordered pair of distinct
    component labels."""
    labels = [str(x) for x in labels]
    if len(labels) < 2:
        raise LogicError("the equivalence chain needs at least two labels")
    if len(set(labels)) != len(labels):
        raise LogicError(f"duplicate component labels: {labels}")
    out = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            out.append(Iff(Atom(f"p_{a}"), Not(Atom(f"p_{b}"))))
    return out


# --- concrete syntax ------------------------------------------------------
#
# atoms are identifiers; connectives ! & | -> <->, parentheses, whitespace
# insensitive; precedence ! > & > | > -> > <->, arrows right-associative.

class ParseError(LogicError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


def _wrap(f: Formula) -> str:
    return str(f) if isinstance(f, (Atom, Not)) else f"({f})"


# (symbol, node, right-associative) for each binary connective, from the
# loosest binding to the tightest
_BINARY = (("<->", Iff, True), ("->", Imp, True), ("|", OrF, False), ("&", AndF, False))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def eat(self, s: str) -> bool:
        """Skip whitespace, then consume s if it comes next."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def parse(self) -> Formula:
        f = self.binary(0)
        self.eat("")  # trailing whitespace
        if self.pos != len(self.text):
            raise ParseError(f"unexpected input {self.text[self.pos:]!r}", self.pos)
        return f

    def binary(self, level: int) -> Formula:
        """A chain of the connective at `level` over operands one level
        tighter."""
        if level == len(_BINARY):
            return self.unary()
        symbol, node, right = _BINARY[level]
        f = self.binary(level + 1)
        while self.eat(symbol):
            # a right-associative connective takes the rest of its chain as
            # its right operand, so the loop then runs once
            f = node(f, self.binary(level if right else level + 1))
        return f

    def unary(self) -> Formula:
        if self.eat("!"):
            return Not(self.unary())
        if self.eat("("):
            f = self.binary(0)
            if not self.eat(")"):
                raise ParseError("expected ')'", self.pos)
            return f
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
            self.pos += 1
        if self.pos == start:
            found = self.text[start:start + 1] or "end of input"
            raise ParseError(f"expected an atom, found {found!r}", start)
        return Atom(self.text[start:self.pos])


def parse_formula(text: str) -> Formula:
    """Parse the CLI formula syntax into a formula tree."""
    return _Parser(text).parse()
