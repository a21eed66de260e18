"""Three-valued paraconsistent propositional engine (logic of paradox),
with classical two-valued evaluation as the comparison mode.

Truth values are ordered F < B < T with designated set {T, B}; negation
swaps T and F and fixes B; conjunction and disjunction are min and max in
that order.  Satisfiability and consequence are decided by exhaustive
enumeration of valuations in a fixed order (sorted atoms, F < (B) < T,
last atom fastest).  A chunk of at most CHUNK_SIZE valuations fixes the
leading atoms; each formula node is evaluated once per chunk as two integer
bit masks, where it is designated and where it is at most B (Belnap 1977,
Priest 1979).  Models are decoded in blocks of at most BLOCK_SIZE
valuations, with the standard library only.  Constraint sets with more
than VALUATION_BUDGET valuations in the chosen mode are refused up front.
`eval3` is the reference semantics for a single valuation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress, product

# a full LP pass over 3^15 valuations (models of the 15-label equivalence
# chain) takes about 0.05 s on a 2-core Xeon VM; each further atom triples it
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

    def __str__(self):  # a run of "!" in a loop, not a stack frame each
        k, inner = 1, self.arg
        while isinstance(inner, Not):
            k, inner = k + 1, inner.arg
        return "!" * k + (str(inner) if isinstance(inner, Atom) else f"({inner})")


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


def atoms(*formulas) -> set:
    """The atom names of the formulas, in one walk that refuses non-formulas."""
    names, todo = set(), list(formulas)
    while todo:
        f = todo.pop()
        if isinstance(f, Atom):
            names.add(f.name)
        elif isinstance(f, Formula):
            todo += (f.arg,) if isinstance(f, Not) else (f.left, f.right)
        else:
            raise TypeError(f"not a formula: {f!r}")
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
    if not isinstance(f, Formula):
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


def _scan(premises, mode, conclusion=None):
    """Every valuation over the sorted atoms of the premises (and the
    conclusion), in enumeration order, as chunks (names, start, ok): a
    chunk holds the valuations start, start + 1, ... of the order, and bit
    i of the integer ok is set where valuation start + i designates every
    premise and, when a conclusion is given, leaves it at F."""
    if mode not in MODES:
        raise LogicError(f"unknown mode {mode!r} (expected one of {MODES})")
    premises = list(premises)
    names = sorted(atoms(*premises, *([] if conclusion is None else [conclusion])))
    base = len(_VALUES[mode])
    if base ** len(names) > VALUATION_BUDGET:
        raise LogicError(f"{len(names)} atoms give {base ** len(names)} valuations in {mode} "
                         f"mode, over the enumeration budget of {VALUATION_BUDGET}")
    fast = 0
    while fast < len(names) and base ** (fast + 1) <= CHUNK_SIZE:
        fast += 1
    width = base ** fast
    full = (1 << width) - 1
    slow = names[:len(names) - fast]
    # F < (B) < T: the designated digits are the top base - 1, those at most
    # B the bottom base - 1.  The k-th fast atom from the last holds each
    # digit on a run of base^k valuations, repeated with period base^(k+1)
    atom_masks = {}
    for k, name in enumerate(reversed(names[len(slow):])):
        run = base ** k
        block = (1 << (base - 1) * run) - 1
        repeat = full // ((1 << base * run) - 1)
        atom_masks[name] = ((block << run) * repeat, block * repeat)
    for start in range(0, base ** len(names), width):
        # a slow atom holds one value over the whole chunk
        digits = start // width
        for name in reversed(slow):
            digits, d = divmod(digits, base)
            atom_masks[name] = (full * (d > 0), full * (d < base - 1))
        ok = full
        for f in premises:
            if ok:
                ok &= _masks(f, atom_masks)[0]
        if ok and conclusion is not None:
            ok &= ~_masks(conclusion, atom_masks)[0]
        yield names, start, ok


def _as_dicts(names, mode, start, ok) -> list:
    """The valuations start + i for the set bits i of ok, in enumeration
    order, as dicts of TV members.  In blocks of base^k valuations, base^k
    dividing start, the leading atoms are fixed and the bits pick the
    values of the last k from their product."""
    values = _VALUES[mode]
    base, k = len(values), len(names)
    while base ** k > BLOCK_SIZE or start % base ** k:
        k -= 1
    size, out = base ** k, []
    while ok:
        skip = (ok & -ok).bit_length() - 1  # to the block of the lowest set bit
        skip -= skip % size
        ok, start = ok >> skip, start + skip
        fixed = [(values[start // base ** j % base],) for j in range(len(names) - 1, k - 1, -1)]
        bits = format(ok & (1 << size) - 1, "b")[::-1].encode().replace(b"0", b"\0")
        out += [dict(zip(names, row)) for row in compress(product(*fixed, *[values] * k), bits)]
        ok, start = ok >> size, start + size
    return out


def satisfiable(constraints, mode: str = LP) -> dict | None:
    """First valuation (in enumeration order) designating every constraint,
    or None."""
    for names, start, ok in _scan(constraints, mode):
        if ok:
            return _as_dicts(names, mode, start, ok & -ok)[0]
    return None


def models(constraints, mode: str = LP) -> list:
    """All valuations designating every constraint, in enumeration order."""
    return [v for names, start, ok in _scan(constraints, mode) if ok
            for v in _as_dicts(names, mode, start, ok)]


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

class ParseError(LogicError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


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
        """A chain of connectives at `level` or tighter, by precedence
        climbing: each right operand is the chain of connectives binding
        tighter than its own, or as tight for a right-associative one."""
        f = self.unary()
        while (i := next((i for i in range(level, len(_BINARY))
                          if self.eat(_BINARY[i][0])), None)) is not None:
            _, node, right = _BINARY[i]
            f = node(f, self.binary(i if right else i + 1))
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
