"""Three-valued paraconsistent propositional engine (logic of paradox),
with classical two-valued evaluation as the comparison mode.

Truth values are ordered F < B < T with designated set {T, B}; negation
swaps T and F and fixes B; conjunction and disjunction are min and max in
that order.  Satisfiability and consequence are decided by exhaustive
enumeration of valuations in a fixed order (sorted atoms, F < (B) < T,
last atom fastest).  A formula's atom names are walked once per formula
object, on their first use, and kept with it.  A chunk of at most
CHUNK_SIZE valuations fixes the leading atoms; each formula node is
evaluated once per chunk as two integer bit masks, where it is designated
and where it is at most B (Belnap 1977, Priest 1979); the atoms' masks
come from a table built once per chunk shape.  Models are decoded in
blocks of at most BLOCK_SIZE valuations, each one a dict built from a row
of (name, value) pairs, with the standard library only.  Constraint sets
with more than VALUATION_BUDGET valuations in the chosen mode are refused
up front.  `eval3` is the reference semantics for a single valuation.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from itertools import compress, product

# a full LP pass over 3^15 valuations (models of the 15-label equivalence
# chain) takes about 0.035 s on a 2-core Xeon VM; each further atom triples it
VALUATION_BUDGET = 3 ** 15
# valuations per enumeration chunk
CHUNK_SIZE = 3 ** 10

CLASSICAL = "classical"
LP = "lp"
MODES = (CLASSICAL, LP)


class LogicError(ValueError):
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

class _Node:
    """A formula node.  Nodes are frozen, so the atom names of one never
    change: `atom_names` walks them on its first read and keeps them in the
    instance's __dict__, outside ==, hash and repr."""

    @functools.cached_property
    def atom_names(self) -> frozenset:
        return _walk_atoms(self)


@dataclass(frozen=True)
class Atom(_Node):
    name: str

    def __post_init__(self):
        # the parser's atom, a nonempty run of letters, digits and _, so that
        # every atom prints as text that reads back
        if not (isinstance(self.name, str) and self.name.replace("_", "a").isalnum()):
            raise LogicError(f"atom name {self.name!r} is not letters, digits and _ only")

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not(_Node):
    arg: "Formula"

    def __str__(self):
        return _text(self)


@dataclass(frozen=True)
class BinOp(_Node):
    left: "Formula"
    right: "Formula"

    SYMBOL = "?"

    def __str__(self):
        return _text(self)


class AndF(BinOp):
    SYMBOL = "&"


class OrF(BinOp):
    SYMBOL = "|"


class Imp(BinOp):
    SYMBOL = "->"


class Iff(BinOp):
    SYMBOL = "<->"


Formula = Atom | Not | AndF | OrF | Imp | Iff
# the binary nodes as a tuple, which isinstance tests faster than the
# union; a bare BinOp is in neither
_BINARY_NODES = (AndF, OrF, Imp, Iff)


def _text(f) -> str:
    """f with each binary connective parenthesized, written from an explicit
    stack as `_walk_atoms` walks, so a long chain takes no stack frame per
    node."""
    out, todo = [], [f]
    while todo:
        f = todo.pop()
        if isinstance(f, Not):
            todo += (f.arg, "!")
        elif isinstance(f, BinOp):
            todo += (")", f.right, f" {f.SYMBOL} ", f.left, "(")
        else:  # an atom, or text pushed above
            out.append(str(f))
    return "".join(out)


def _walk_atoms(f) -> frozenset:
    """The atom names under f, in one walk that refuses non-formulas."""
    names, todo = set(), [f]
    while todo:
        f = todo.pop()
        if isinstance(f, Atom):
            names.add(f.name)
        elif isinstance(f, Not):
            todo.append(f.arg)
        elif isinstance(f, _BINARY_NODES):
            todo += (f.left, f.right)
        else:
            raise TypeError(f"not a formula: {f!r}")
    return frozenset(names)


def atoms(*formulas) -> set:
    """The atom names of the formulas, each formula's walked once per object
    (its `atom_names`); a non-formula, at the top or nested, is refused."""
    names = set()
    for f in reversed(formulas):  # the last first, as one walk pops them
        if not isinstance(f, _Node):  # a bare BinOp is refused by its walk
            raise TypeError(f"not a formula: {f!r}")
        names |= f.atom_names
    return names


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
    if not isinstance(f, _BINARY_NODES):
        raise TypeError(f"not a formula: {f!r}")
    a, b = eval3(f.left, valuation), eval3(f.right, valuation)
    if isinstance(f, AndF):
        return min(a, b)
    if isinstance(f, OrF):
        return max(a, b)
    if isinstance(f, Imp):
        return max(a.neg(), b)
    return min(max(a.neg(), b), max(b.neg(), a))  # Iff


# the values of each mode in enumeration order, indexed by digit
_VALUES = {CLASSICAL: (TV.F, TV.T), LP: (TV.F, TV.B, TV.T)}
# valuations per block at most when models are decoded
BLOCK_SIZE = 1024


def _masks(node: Formula, atom_masks: dict) -> tuple:
    """The masks (t, f) of a formula over a chunk, by the rules of eval3:
    bit i of t is set where the chunk's i-th valuation designates it (T or
    B), bit i of f where it leaves it at most B (F or B)."""
    if isinstance(node, Atom):
        return atom_masks[node.name]
    if isinstance(node, Not):
        t, f = _masks(node.arg, atom_masks)
        return f, t
    (ta, fa), (tb, fb) = _masks(node.left, atom_masks), _masks(node.right, atom_masks)
    if isinstance(node, AndF):
        return ta & tb, fa | fb
    if isinstance(node, OrF):
        return ta | tb, fa & fb
    if isinstance(node, Imp):
        return fa | tb, ta & fb
    return (fa | tb) & (fb | ta), (ta & fb) | (tb & fa)  # Iff: atoms() refused the rest


@functools.cache
def _layout(base: int, fast: int) -> tuple:
    """A chunk's masks by its shape: full; the (t, f) pair of the k-th fast
    atom from the last, which holds each digit on a run of base^k
    valuations, repeated with period base^(k+1); and a slow atom's pair at
    each digit.  F < (B) < T: the designated digits are the top base - 1,
    those at most B the bottom base - 1."""
    full, fast_masks = (1 << base ** fast) - 1, []
    for run in (base ** k for k in range(fast)):
        f = ((1 << (base - 1) * run) - 1) * (full // ((1 << base * run) - 1))
        fast_masks.append((f << run, f))
    return full, tuple(fast_masks), tuple((full * (d > 0), full * (d < base - 1))
                                          for d in range(base))


def _scan(premises, mode, conclusion=None):
    """Every valuation over the sorted atoms of the premises (and the
    conclusion), in enumeration order, as chunks (columns, start, ok): a
    chunk holds the valuations start, start + 1, ... of the order, and bit
    i of the integer ok is set where valuation start + i designates every
    premise and, when a conclusion is given, leaves it at F; columns holds
    each sorted atom's (name, value) pairs in value order, built on the
    first chunk whose ok is nonzero, and is None before it and with a
    conclusion, since a consequence decodes no valuation.  The atom names
    come from `atoms`, which walks each formula object once, not once per
    scan.  The atoms' masks are _layout's: a fast atom's by its place, a
    slow one's by its digit."""
    if mode not in MODES:
        raise LogicError(f"unknown mode {mode!r} (expected one of {MODES})")
    premises = list(premises)
    names = sorted(atoms(*premises, *([] if conclusion is None else [conclusion])))
    base = len(_VALUES[mode])
    if base ** len(names) > VALUATION_BUDGET:
        raise LogicError(f"{len(names)} atoms give {base ** len(names)} valuations in {mode} "
                         f"mode, over the enumeration budget of {VALUATION_BUDGET}")
    columns = None
    fast = 0
    while fast < len(names) and base ** (fast + 1) <= CHUNK_SIZE:
        fast += 1
    width = base ** fast
    full, fast_masks, digit_masks = _layout(base, fast)
    slow = names[:len(names) - fast]
    atom_masks = dict(zip(reversed(names), fast_masks))
    for start in range(0, base ** len(names), width):
        digits = start // width
        for name in reversed(slow):
            digits, d = divmod(digits, base)
            atom_masks[name] = digit_masks[d]
        ok = full
        for f in premises:
            if ok:
                ok &= _masks(f, atom_masks)[0]
        if ok and conclusion is not None:
            ok &= ~_masks(conclusion, atom_masks)[0]
        elif ok and columns is None:  # the first chunk with a model to decode
            columns = [[(name, v) for v in _VALUES[mode]] for name in names]
        yield columns, start, ok


def _as_dicts(columns, mode, start, ok) -> list:
    """The valuations start + i for the set bits i of ok, in enumeration
    order, as dicts of TV members.  In blocks of base^k valuations, base^k
    dividing start, the leading atoms' (name, value) pairs are fixed and the
    bits pick each model's items out of the product of the last k columns."""
    base, k = len(_VALUES[mode]), len(columns)
    while base ** k > BLOCK_SIZE or start % base ** k:
        k -= 1
    size, out = base ** k, []
    while ok:
        skip = (ok & -ok).bit_length() - 1  # to the block of the lowest set bit
        skip -= skip % size
        ok, start = ok >> skip, start + skip
        fixed = [(col[start // base ** j % base],)
                 for col, j in zip(columns, range(len(columns) - 1, k - 1, -1))]
        bits = format(ok & (1 << size) - 1, "b")[::-1].encode().replace(b"0", b"\0")
        out += map(dict, compress(product(*fixed, *columns[len(columns) - k:]), bits))
        ok, start = ok >> size, start + size
    return out


def satisfiable(constraints, mode: str = LP) -> dict | None:
    """First valuation (in enumeration order) designating every constraint,
    or None."""
    for columns, start, ok in _scan(constraints, mode):
        if ok:
            return _as_dicts(columns, mode, start, ok & -ok)[0]
    return None


def models(constraints, mode: str = LP) -> list:
    """All valuations designating every constraint, in enumeration order."""
    return [v for columns, start, ok in _scan(constraints, mode) if ok
            for v in _as_dicts(columns, mode, start, ok)]


def consequence(premises, conclusion: Formula, mode: str = LP) -> bool:
    """Designation-preserving consequence: every valuation designating all
    premises designates the conclusion."""
    return not any(ok for _, _, ok in _scan(premises, mode, conclusion))


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
# The text is tokenized once by _TOKEN, whose \w and \s are the classes of
# str.isalnum() (with _) and str.isspace(), and the parser walks the token
# list.  Any other character is a token of its own, which no rule accepts,
# and the list ends with an empty token.  A column is found again only for
# an error, since a formula that parses needs none.

class ParseError(LogicError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


_TOKEN = re.compile(r"\s*(<->|->|[!&|()]|\w+|\S|$)")
# symbol: (level, node, level of the right operand) for each binary
# connective, from the loosest binding (level 0) to the tightest; the right
# operand of a right-associative one may use the connective again
_BINARY = {"<->": (0, Iff, 0), "->": (1, Imp, 1), "|": (2, OrF, 3), "&": (3, AndF, 4)}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.i = 0

    def column(self, i: int) -> int:
        """The column where the i-th token starts."""
        return [m.start(1) for m in _TOKEN.finditer(self.text)][i]

    def parse(self) -> Formula:
        f = self.binary(0)
        if self.tokens[self.i]:
            column = self.column(self.i)
            raise ParseError(f"unexpected input {self.text[column:]!r}", column)
        return f

    def binary(self, level: int) -> Formula:
        """A chain of connectives at `level` or tighter, by precedence
        climbing: each right operand is the chain of connectives binding
        tighter than its own, or as tight for a right-associative one."""
        f = self.unary()
        while (op := _BINARY.get(self.tokens[self.i])) and op[0] >= level:
            self.i += 1
            f = op[1](f, self.binary(op[2]))
        return f

    def unary(self) -> Formula:
        token = self.tokens[self.i]
        self.i += 1
        if token == "!":
            return Not(self.unary())
        if token == "(":
            f = self.binary(0)
            if self.tokens[self.i] != ")":
                raise ParseError("expected ')'", self.column(self.i))
            self.i += 1
            return f
        if not token.replace("_", "a").isalnum():  # the rule Atom checks
            raise ParseError(f"expected an atom, found {token[:1] or 'end of input'!r}",
                             self.column(self.i - 1))
        return Atom(token)


def parse_formula(text: str) -> Formula:
    """Parse the CLI formula syntax into a formula tree."""
    return _Parser(text).parse()
