import copy
import itertools
import pickle
import random
import sys

import pytest

from qopposition import lp
from qopposition.lp import (CLASSICAL, LP, TV, AndF, Atom, Iff, Imp, LogicError,
                            Not, OrF, ParseError, atoms, consequence,
                            equivalence_chain, eval3, models,
                            parse_formula, postulate_of_contradiction,
                            satisfiable)


def classical_eval(f, v):
    """Independent two-valued oracle using Python booleans."""
    if isinstance(f, Atom):
        return v[f.name]
    if isinstance(f, Not):
        return not classical_eval(f.arg, v)
    a, b = classical_eval(f.left, v), classical_eval(f.right, v)
    if isinstance(f, AndF):
        return a and b
    if isinstance(f, OrF):
        return a or b
    if isinstance(f, Imp):
        return (not a) or b
    return a == b


def random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Atom(names[rng.randrange(len(names))])
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, names, depth - 1))
    ctor = (AndF, OrF, Imp, Iff)[kind - 1]
    return ctor(random_formula(rng, names, depth - 1),
                random_formula(rng, names, depth - 1))


# binding level of each binary connective, from the loosest
LEVEL = {Iff: 0, Imp: 1, OrF: 2, AndF: 3}


def chained_formula(rng, depth):
    """A random tree with runs of ! and chains of one connective that group
    to the right."""
    if depth == 0 or rng.random() < 0.2:
        return Atom(rng.choice(["a", "b", "p_1"]))
    f = chained_formula(rng, depth - 1)
    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 3)):
            f = Not(f)
        return f
    node = rng.choice(list(LEVEL))
    for _ in range(rng.randint(1, 3)):
        f = node(chained_formula(rng, depth - 1), f)
    return f


def bare_text(f, level=0):
    """f's text with only the parentheses that precedence and grouping
    need, for a context binding at `level` (4 under a !)."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + bare_text(f.arg, 4)
    own = LEVEL[type(f)]
    left, right = (own + 1, own) if isinstance(f, (Imp, Iff)) else (own, own + 1)
    text = f"{bare_text(f.left, left)} {f.SYMBOL} {bare_text(f.right, right)}"
    return text if own >= level else f"({text})"


class TestEval3:
    def test_contradiction_designated_at_b(self):
        k = Atom("k")
        assert eval3(AndF(k, Not(k)), {"k": TV.B}) is TV.B
        assert eval3(AndF(k, Not(k)), {"k": TV.B}).designated

    def test_contradiction_false_classically(self):
        k = Atom("k")
        assert eval3(AndF(k, Not(k)), {"k": TV.T}) is TV.F

    def test_iff_classical_case(self):
        f = Iff(Atom("a"), Not(Atom("b")))
        assert eval3(f, {"a": TV.T, "b": TV.F}) is TV.T

    def test_negation_involution_fixing_b(self):
        assert TV.T.neg() is TV.F
        assert TV.F.neg() is TV.T
        assert TV.B.neg() is TV.B

    def test_and_or_are_min_max(self):
        # exhaustive 9-pair table
        a, b = Atom("a"), Atom("b")
        for x, y in itertools.product(TV, TV):
            v = {"a": x, "b": y}
            assert eval3(AndF(a, b), v) is TV(min(x, y))
            assert eval3(OrF(a, b), v) is TV(max(x, y))

    def test_missing_atom(self):
        with pytest.raises(LogicError):
            eval3(Atom("a"), {})

    def test_classical_restriction_agrees(self):
        import random
        rng = random.Random(12345)
        names = ["p", "q", "r", "s"]
        for _ in range(200):
            f = random_formula(rng, names, 4)
            for combo in itertools.product([TV.F, TV.T], repeat=4):
                v = dict(zip(names, combo))
                want = classical_eval(f, {k: val is TV.T for k, val in v.items()})
                assert (eval3(f, v) is TV.T) == want


class TestSatisfiable:
    def test_postulate_classically_unsat(self):
        assert satisfiable(postulate_of_contradiction(["s1", "s2"]), CLASSICAL) is None

    def test_postulate_lp_sat_forces_b(self):
        got = satisfiable(postulate_of_contradiction(["s1", "s2"]), LP)
        assert got == {"K_s1": TV.B, "K_s2": TV.B}

    def test_empty_constraints(self):
        assert satisfiable([], CLASSICAL) == {}

    def test_first_model_deterministic_order(self):
        # atoms sorted, values cycling F < B < T: first model of {p | q}
        # has p=F, q=B under LP
        got = satisfiable([OrF(Atom("p"), Atom("q"))], LP)
        assert got == {"p": TV.F, "q": TV.B}

    def test_atom_budget(self):
        constraints = [Atom(f"a{i}") for i in range(21)]
        with pytest.raises(LogicError):
            satisfiable(constraints, LP)

    def test_valuation_budget_refuses_16_lp_atoms(self):
        constraints = [Atom(f"a{i}") for i in range(16)]
        for check in (lambda: satisfiable(constraints, LP),
                      lambda: models(constraints, LP),
                      lambda: consequence(constraints, Atom("a0"), LP)):
            with pytest.raises(LogicError, match="43046721"):
                check()

    def test_valuation_budget_admits_21_classical_atoms(self):
        # 2^21 valuations in 64 chunks of 2^15, over six slow atoms: each
        # call reads every chunk, and only the last valuation designates all
        constraints = [Atom(f"a{i}") for i in range(21)]
        every_t = {f"a{i}": TV.T for i in range(21)}
        assert satisfiable(constraints, CLASSICAL) == every_t
        assert models(constraints, CLASSICAL) == [every_t]
        assert consequence(constraints, AndF(Atom("a0"), Atom("a20")), CLASSICAL) is True
        assert consequence(constraints, Not(Atom("a7")), CLASSICAL) is False


class TestModels:
    def test_contradiction_models_lp(self):
        k = Atom("K1")
        got = models([k, Not(k)], LP)
        assert got == [{"K1": TV.B}]

    def test_single_atom_classical(self):
        assert models([Atom("p")], CLASSICAL) == [{"p": TV.T}]

    def test_explicit_contradiction_classical(self):
        p = Atom("p")
        assert models([AndF(p, Not(p))], CLASSICAL) == []

    def test_postulate_lp_all_models_assign_b(self):
        got = models(postulate_of_contradiction(["s1", "s2"]), LP)
        assert got == [{"K_s1": TV.B, "K_s2": TV.B}]


class TestConsequence:
    def test_chain_classical_consequence_vacuous(self):
        premises = equivalence_chain(["a", "b", "c"])
        conclusion = Iff(Atom("p_a"), Not(Atom("p_a")))
        assert satisfiable(premises, CLASSICAL) is None
        assert consequence(premises, conclusion, CLASSICAL) is True

    def test_chain_lp_verdict_matches_enumeration(self):
        premises = equivalence_chain(["a", "b", "c"])
        conclusion = Iff(Atom("p_a"), Not(Atom("p_a")))
        names = sorted(set().union(*[atoms(f) for f in premises]))
        verdict = True
        for combo in itertools.product([TV.F, TV.B, TV.T], repeat=len(names)):
            v = dict(zip(names, combo))
            if all(eval3(f, v).designated for f in premises):
                if not eval3(conclusion, v).designated:
                    verdict = False
        assert consequence(premises, conclusion, LP) is verdict
        # the all-B valuation designates premises and conclusion alike
        all_b = {n: TV.B for n in names}
        assert all(eval3(f, all_b).designated for f in premises)
        assert eval3(conclusion, all_b).designated

    def test_excluded_middle_classical(self):
        p = Atom("p")
        assert consequence([], OrF(p, Not(p)), CLASSICAL) is True

    def test_lp_has_no_explosion(self):
        p, q = Atom("p"), Atom("q")
        assert consequence([p, Not(p)], q, LP) is False

    def test_classical_explosion(self):
        p, q = Atom("p"), Atom("q")
        assert consequence([p, Not(p)], q, CLASSICAL) is True


def oracle(formulas, mode):
    """Valuations over the atoms of formulas in the documented order (sorted
    atoms, F < (B) < T, last atom fastest), by itertools and eval3."""
    names = sorted(set().union(*[atoms(f) for f in formulas]))
    values = (TV.F, TV.T) if mode == CLASSICAL else (TV.F, TV.B, TV.T)
    return [dict(zip(names, combo))
            for combo in itertools.product(values, repeat=len(names))]


class TestOracle:
    """The chunked column engine against one eval3 call per valuation."""

    @pytest.mark.parametrize("chunk", [1, 7, lp.CHUNK_SIZE])
    @pytest.mark.parametrize("mode", [LP, CLASSICAL])
    def test_matches_brute_force(self, monkeypatch, chunk, mode):
        import random
        monkeypatch.setattr(lp, "CHUNK_SIZE", chunk)
        rng = random.Random(2024)
        names = ["p", "q", "r", "s"]
        for _ in range(60):
            constraints = [random_formula(rng, names, 3)
                           for _ in range(rng.randrange(4))]
            conclusion = random_formula(rng, names, 3)
            want = [v for v in oracle(constraints, mode)
                    if all(eval3(f, v).designated for f in constraints)]
            got = models(constraints, mode)
            assert got == want
            assert all(type(x) is TV and x is want[i][k]
                       for i, m in enumerate(got) for k, x in m.items())
            first = satisfiable(constraints, mode)
            assert first == (want[0] if want else None)
            assert first is None or all(x is want[0][k] for k, x in first.items())
            follows = all(eval3(conclusion, v).designated
                          for v in oracle(constraints + [conclusion], mode)
                          if all(eval3(f, v).designated for f in constraints))
            assert consequence(constraints, conclusion, mode) is follows
            assert consequence([], conclusion, mode) is all(
                eval3(conclusion, v).designated for v in oracle([conclusion], mode))

    # models are decoded in blocks of up to 1024 valuations: 7 LP atoms fill
    # three 729-blocks, 11 classical atoms two 1024-blocks and 12 four, of
    # which "a <-> b" and the first-or-last case leave the middle two empty;
    # chunks of 1, 3 or 4 and 81 or 64 valuations are narrower than a block,
    # and from the second chunk of 81 on, not aligned to a 729-block; chunks
    # of one valuation are decoded in LP only, where they cost the least
    @pytest.mark.parametrize("mode, n, chunks", [(LP, 7, (1, 7, 100)), (CLASSICAL, 11, (7, 100)),
                                                 (CLASSICAL, 12, (7, 100))])
    def test_decode_across_blocks(self, monkeypatch, mode, n, chunks):
        import random
        rng = random.Random(n)
        names = "abcdefghijkl"[:n]
        every_atom = parse_formula(" | ".join(names) + " | !a")  # designated everywhere
        cases = ["a | !a", "a <-> b", names[-1], " & ".join(names[1:]),
                 " & ".join(names) + " | " + " & ".join("!" + x for x in names)]
        for text in cases + [str(random_formula(rng, names, 4)) for _ in range(3)]:
            constraints = [parse_formula(text), every_atom]
            # every_atom is not evaluated here: were it not designated
            # everywhere, models() would drop a valuation that want keeps
            want = [v for v in oracle(constraints, mode) if eval3(constraints[0], v).designated]
            for chunk in (*chunks, lp.CHUNK_SIZE):
                monkeypatch.setattr(lp, "CHUNK_SIZE", chunk)
                got = models(constraints, mode)
                assert got == want, (text, chunk)
                assert all(list(m) == sorted(names) for m in got)
                assert all(x is want[i][k] for i, m in enumerate(got) for k, x in m.items())
                assert satisfiable(constraints, mode) == (want[0] if want else None)
                # each model is a dict of its own, built afresh by each call
                if got:
                    got[0].clear()
                    assert got[1:] == want[1:] and models(constraints, mode) == want

    # chunks of 3^2: the first model of three LP atoms, all B, is the 14th
    # valuation and of four classical atoms, all T, the 16th, so each sits in
    # the second chunk, and the columns are built there, not before it
    @pytest.mark.parametrize("mode, names", [(LP, "abc"), (CLASSICAL, "abcd")])
    def test_columns_built_on_the_first_model(self, monkeypatch, mode, names):
        constraints = [Atom(x) for x in names]
        want = [v for v in oracle(constraints, mode)
                if all(eval3(f, v).designated for f in constraints)]
        first, every = satisfiable(constraints, mode), models(constraints, mode)
        monkeypatch.setattr(lp, "CHUNK_SIZE", 3 ** 2)
        chunks = list(lp._scan(constraints, mode))
        assert [columns is None for columns, _, _ in chunks] == [True] + [False] * (len(chunks) - 1)
        assert chunks[0][2] == 0 and chunks[1][2]
        assert all(columns is None for columns, _, _ in lp._scan(constraints, mode, Atom("a")))
        assert satisfiable(constraints, mode) == first == want[0]
        assert models(constraints, mode) == every == want


class TestLayout:
    """The table of chunk masks against masks built bit by bit from each
    valuation's digits, and its size against the chunk shapes scanned."""

    @pytest.mark.parametrize("base, fast", [(base, fast) for base in (2, 3) for fast in range(12)
                                            if base ** fast <= 3 ** 7])
    def test_masks_match_the_digits(self, base, fast):
        width = base ** fast

        def pair(digits):
            # bit i of t where the i-th valuation's digit is above F, of f
            # where it is below T
            return (sum(1 << i for i, d in enumerate(digits) if d > 0),
                    sum(1 << i for i, d in enumerate(digits) if d < base - 1))

        full, fast_masks, digit_masks = lp._layout(base, fast)
        assert full == (1 << width) - 1
        assert fast_masks == tuple(pair([i // base ** k % base for i in range(width)])
                                   for k in range(fast))
        assert digit_masks == tuple(pair([d] * width) for d in range(base))

    def test_one_entry_per_chunk_shape(self, monkeypatch):
        # no two sets share an atom name, so a table keyed by anything but
        # the shape would grow with each scan
        lp._layout.cache_clear()
        rng, chunks, shapes = random.Random(37), (1, 7, lp.CHUNK_SIZE), set()
        for i in range(200):
            mode, chunk = rng.choice(lp.MODES), rng.choice(chunks)
            names = [f"x{i}_{j}" for j in range(rng.randint(1, 8))]
            premises = [random_formula(rng, names, 3) for _ in range(2)]
            conclusion = random_formula(rng, names, 3)
            monkeypatch.setattr(lp, "CHUNK_SIZE", chunk)
            models(premises, mode)
            consequence(premises, conclusion, mode)
            base = 2 if mode == CLASSICAL else 3
            for n in (len(atoms(*premises)), len(atoms(*premises, conclusion))):
                shapes.add((base, min(n, max(k for k in range(9) if base ** k <= chunk))))
        assert lp._layout.cache_info().currsize == len(shapes)


class TestBudgetScale:
    """The equivalence chain on 15 labels has 3^15 LP valuations, the whole
    budget, so the scan runs its chunks over leading atoms fixed at one
    value each."""

    LABELS = [f"l{i:02d}" for i in range(15)]

    def test_lp_models_are_the_closed_form(self):
        # at most one T and at most one F, the rest B: k^2 + k + 1 models,
        # the first setting the first atom F
        premises = equivalence_chain(self.LABELS)
        names = sorted(atoms(*premises))
        got = models(premises, LP)
        rows = [tuple(m[n] for n in names) for m in got]
        assert len(rows) == len(set(rows)) == 15 * 15 + 15 + 1
        assert rows == sorted(rows)
        assert all(r.count(TV.T) <= 1 and r.count(TV.F) <= 1 for r in rows)
        assert all(type(x) is TV for r in rows for x in r)
        assert rows[0] == (TV.F,) + (TV.B,) * 14
        assert satisfiable(premises, LP) == got[0]

    def test_leading_atoms_keep_their_order(self):
        # the chain is symmetric in its atoms; designating the first one
        # breaks the symmetry, drops the 15 models that set it F, and makes
        # the first model set the second atom F
        premises = equivalence_chain(self.LABELS) + [Atom("p_l00")]
        want = {f"p_{lab}": TV.B for lab in self.LABELS}
        want["p_l01"] = TV.F
        got = models(premises, LP)
        assert len(got) == 15 * 15 + 15 + 1 - 15
        assert got[0] == satisfiable(premises, LP) == want

    def test_lp_consequences_over_every_chunk(self):
        premises = equivalence_chain(self.LABELS)
        first, last = Atom("p_l00"), Atom("p_l14")
        # no two atoms are both T, nor both F
        assert consequence(premises, Not(AndF(first, last)), LP) is True
        assert consequence(premises, OrF(first, last), LP) is True
        assert consequence(premises, Iff(first, Not(first)), LP) is False

    def test_classically_empty(self):
        premises = equivalence_chain(self.LABELS)
        assert satisfiable(premises, CLASSICAL) is None
        assert models(premises, CLASSICAL) == []
        assert consequence(premises, AndF(Atom("x"), Not(Atom("x"))), CLASSICAL) is True


class TestDepth:
    """The deepest formulas the parser accepts are decided, not refused for
    the evaluator's stack."""

    @pytest.mark.parametrize("text", ["(p & " * 150 + "q" + ")" * 150, "!" * 300 + "p"],
                             ids=["parentheses", "negations"])
    @pytest.mark.parametrize("mode", [LP, CLASSICAL])
    def test_deep_formulas_are_decided(self, text, mode):
        f = parse_formula(text)
        want = [v for v in oracle([f], mode) if eval3(f, v).designated]
        assert want
        assert models([f], mode) == want
        assert satisfiable([f], mode) == want[0]
        assert consequence([f], Atom("p"), mode) is True
        assert consequence([Atom("p")], f, mode) is ("q" not in text)


class TestGenerators:
    def test_postulate_two_components(self):
        got = [str(f) for f in postulate_of_contradiction(["s1", "s2"])]
        assert got == ["K_s1", "!K_s1", "K_s2", "!K_s2"]

    def test_postulate_single_component(self):
        assert len(postulate_of_contradiction(["s1"])) == 2

    def test_postulate_three_components(self):
        assert len(postulate_of_contradiction(["s1", "s2", "s3"])) == 6

    def test_postulate_duplicates_rejected(self):
        with pytest.raises(LogicError):
            postulate_of_contradiction(["s", "s"])

    def test_chain_three_labels(self):
        got = [str(f) for f in equivalence_chain(["a", "b", "c"])]
        assert got == ["(p_a <-> !p_b)", "(p_a <-> !p_c)", "(p_b <-> !p_c)"]

    def test_chain_two_labels(self):
        assert len(equivalence_chain(["a", "b"])) == 1

    def test_chain_four_labels(self):
        assert len(equivalence_chain(["a", "b", "c", "d"])) == 6

    def test_chain_needs_two(self):
        with pytest.raises(LogicError):
            equivalence_chain(["a"])

    def test_chain_satisfiability_by_size(self):
        # classically satisfiable for n = 2, unsatisfiable for n >= 3
        labels = ["a", "b", "c", "d", "e"]
        assert satisfiable(equivalence_chain(labels[:2]), CLASSICAL) is not None
        for n in (3, 4, 5):
            assert satisfiable(equivalence_chain(labels[:n]), CLASSICAL) is None


class TestParser:
    def test_atoms_and_connectives(self):
        assert parse_formula("p") == Atom("p")
        assert parse_formula("!p") == Not(Atom("p"))
        assert parse_formula("p & q") == AndF(Atom("p"), Atom("q"))
        assert parse_formula("p | q") == OrF(Atom("p"), Atom("q"))
        assert parse_formula("p -> q") == Imp(Atom("p"), Atom("q"))
        assert parse_formula("p <-> q") == Iff(Atom("p"), Atom("q"))

    def test_precedence(self):
        # ! > & > | > -> > <->
        got = parse_formula("!a & b | c -> d <-> e")
        assert got == Iff(Imp(OrF(AndF(Not(Atom("a")), Atom("b")), Atom("c")),
                              Atom("d")),
                          Atom("e"))

    def test_imp_right_associative(self):
        assert parse_formula("a -> b -> c") == Imp(Atom("a"), Imp(Atom("b"), Atom("c")))

    def test_parentheses(self):
        assert parse_formula("(a | b) & c") == AndF(OrF(Atom("a"), Atom("b")), Atom("c"))

    @pytest.mark.parametrize("formula, text", [
        (Not(AndF(Atom("a"), Atom("b"))), "!(a & b)"),
        (Not(Not(OrF(Atom("a"), Atom("b")))), "!!(a | b)")])
    def test_negated_compound_prints_its_parentheses_once(self, formula, text):
        assert str(formula) == text
        assert parse_formula(text) == formula

    def test_whitespace_insensitive(self):
        assert parse_formula("p_a<->!p_a") == parse_formula("  p_a  <->  !  p_a ")

    def test_parse_error_reports_position(self):
        for text, message, column in (
                ("p & ", "expected an atom, found 'end of input'", 5),
                ("(p", "expected ')'", 3),
                ("p & q)", "unexpected input ')'", 6),
                # token edge cases
                ("a <- b", "unexpected input '<- b'", 3),
                ("a --> b", "unexpected input '--> b'", 3),
                ("a || b", "expected an atom, found '|'", 4),
                ("a - > b", "unexpected input '- > b'", 3),
                ("a<->-b", "expected an atom, found '-'", 5),
                ("a\u00a0b", "unexpected input 'b'", 3),  # NBSP is whitespace
                ("a\u200bb", "unexpected input '\\u200bb'", 2),  # ZWSP is not
                ("a & \u200bb", "expected an atom, found '\\u200b'", 5),
                ("p & #", "expected an atom, found '#'", 5),
                ("", "expected an atom, found 'end of input'", 1),
                ("   ", "expected an atom, found 'end of input'", 4),
                ("!", "expected an atom, found 'end of input'", 2),
                ("p)", "unexpected input ')'", 2)):
            with pytest.raises(ParseError) as exc:
                parse_formula(text)
            assert str(exc.value) == f"{message} (at column {column})"
            assert exc.value.position == column - 1

    def test_an_atom_is_a_name_the_parser_reads(self):
        names = ["", "_", "!a", "a b"] + ["a" + chr(i) for i in range(32, 127)] \
            + ["a\u00e9", "a\u00b2", "a\u00a0", "a\u200b"]
        for name in names:
            try:
                f = parse_formula(name)
            except ParseError:
                f = None
            if isinstance(f, Atom) and f.name == name:
                assert str(Atom(name)) == name
            else:
                with pytest.raises(LogicError, match="not letters, digits and _ only"):
                    Atom(name)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("p q")

    @pytest.mark.parametrize("text, formula", [
        ("p\t->\nq", Imp(Atom("p"), Atom("q"))),
        ("a\u00a0&\u00a0b", AndF(Atom("a"), Atom("b"))),
        ("\u00e9", Atom("\u00e9")),
        ("a\u00b2", Atom("a\u00b2")),
    ], ids=["tab-newline", "nbsp", "accented-atom", "superscript-atom"])
    def test_token_edge_cases_parsed(self, text, formula):
        assert parse_formula(text) == formula

    def test_token_classes_are_the_str_predicates(self):
        # over every code point c but !, the text a c ! splits into a c and
        # ! where c.isalnum() or c is _, into a and ! where c.isspace(), and
        # into a, c and ! otherwise: an atom token is a name Atom accepts,
        # and the whitespace skipped is what str.isspace() calls so
        chars = [chr(i) for i in range(sys.maxunicode + 1) if i != ord("!")]
        want = []
        for c in chars:
            want += ["a" + c] if c.isalnum() or c == "_" else ["a"] if c.isspace() else ["a", c]
            want.append("!")
        got = lp._TOKEN.findall("".join(f"a{c}!" for c in chars))
        assert got[-1] == ""
        assert next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None) is None
        assert len(got) == len(want) + 1

    def test_round_trip(self):
        # both the printer's text, every binary connective in parentheses,
        # and the text with only the parentheses that precedence needs
        rng = random.Random(3)
        for _ in range(300):
            f = chained_formula(rng, 4)
            assert parse_formula(str(f)) == f
            assert parse_formula(bare_text(f)) == f


class TestRefusals:
    @pytest.mark.parametrize("make, error", [
        (lambda: Atom(""), LogicError),
        (lambda: Atom(5), LogicError),
        (lambda: satisfiable([Atom("p")], "fuzzy"), LogicError),
        (lambda: postulate_of_contradiction([]), LogicError),
        (lambda: equivalence_chain(["a", "a"]), LogicError),
        (lambda: postulate_of_contradiction(["s1", "x y"]), LogicError),
        (lambda: equivalence_chain(["a", "b.c"]), LogicError),
        (lambda: eval3(lp.BinOp(Atom("p"), Atom("p")), {"p": TV.T}), TypeError),
        (lambda: satisfiable([lp.BinOp(Atom("p"), Atom("p"))]), TypeError),
        (lambda: eval3("p", {}), TypeError),
        (lambda: satisfiable(["p"]), TypeError),
        (lambda: satisfiable([None]), TypeError),
        (lambda: consequence([], "p"), TypeError),
    ], ids=["atom-empty", "atom-not-a-string", "mode-unknown", "postulate-no-labels",
            "chain-duplicate-labels", "postulate-unreadable-label",
            "chain-unreadable-label", "eval3-non-formula", "masks-non-formula",
            "eval3-string", "satisfiable-string", "satisfiable-none",
            "consequence-string"])
    def test_refused_input_raises_its_type(self, make, error):
        # the CLI's choices hide the unknown mode; the library still refuses it
        with pytest.raises(error) as exc:
            make()
        assert type(exc.value) is error
        assert isinstance(exc.value, ValueError) == (error is not TypeError)


def reference_atoms(f):
    """The atom names under f, by recursion over its fields."""
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, Not):
        return reference_atoms(f.arg)
    return reference_atoms(f.left) | reference_atoms(f.right)


class TestAtomNames:
    """A formula's atom names are walked on the first read of its
    atom_names and kept outside its value."""

    FORMULAS = [Atom("p"), Not(Atom("p")), AndF(Atom("p"), Not(Atom("q"))),
                parse_formula("(a -> b) <-> !(c | a) & d"), parse_formula("!" * 50 + "p")]

    @pytest.mark.parametrize("f", FORMULAS, ids=str)
    def test_memo_is_not_part_of_the_value(self, f):
        fresh = parse_formula(str(f))
        assert f.atom_names == reference_atoms(f) and "atom_names" in vars(f)
        assert "atom_names" not in vars(fresh)
        for other in (fresh, pickle.loads(pickle.dumps(f)), copy.copy(f)):
            assert other == f and f == other
            assert hash(other) == hash(f) and repr(other) == repr(f)
            assert atoms(other) == reference_atoms(f)

    def test_only_scanned_formulas_keep_it(self):
        f = parse_formula("(p & " * 40 + "q" + ")" * 40)
        satisfiable([f])
        assert "atom_names" in vars(f)
        nodes, kept = [f.left, f.right], 0
        while nodes:
            node = nodes.pop()
            kept += "atom_names" in vars(node)
            nodes += [node.left, node.right] if isinstance(node, AndF) else []
        assert kept == 0

    # the last formula of each list holds a non-formula, or is a bare BinOp
    @pytest.mark.parametrize("formulas", [
        [Not(lp.BinOp(Atom("p"), Atom("p")))],
        [AndF(Atom("p"), "q")],
        [Atom("p"), OrF(Not(None), Atom("p"))],
        [Imp(Atom("p"), 5)],
        [Iff(Atom("p"), Not(Not([Atom("q")])))],
        [lp.BinOp(Atom("p"), Atom("q"))],
    ], ids=["nested-binop", "nested-string", "nested-none", "nested-int", "nested-list", "binop"])
    def test_non_formula_refused_on_every_call(self, formulas):
        bad = formulas[-1]
        for _ in range(3):
            for check in (lambda: satisfiable(formulas), lambda: models(formulas, CLASSICAL),
                          lambda: consequence(formulas, Atom("p")),
                          lambda: consequence([Atom("p")], bad), lambda: atoms(*formulas),
                          lambda: bad.atom_names):
                with pytest.raises(TypeError, match="not a formula"):
                    check()
        assert "atom_names" not in vars(bad)

    def test_refusal_names_the_node_one_walk_reaches_first(self):
        # the last formula is walked first, depth first from its right
        bad = AndF("x", Not("y"))
        with pytest.raises(TypeError, match="'y'"):
            atoms(bad)
        with pytest.raises(TypeError, match="'z'"):
            atoms(bad, Atom("p"), "z")
        with pytest.raises(TypeError, match="'y'"):
            atoms("z", bad, Atom("p"))
        assert "atom_names" not in vars(bad)

    def test_matches_a_reference_walk(self):
        rng = random.Random(38)
        names = ["a", "b", "c", "p_1", "K_x"]
        pool = [random_formula(rng, names, 4) for _ in range(40)]
        for _ in range(300):
            # premise lists share whole formulas and subformulas from the pool
            a, b = rng.choice(pool), rng.choice(pool)
            f = rng.choice((AndF, OrF, Imp, Iff))(a, Not(b))
            fs = [f, a] + rng.sample(pool, rng.randrange(3))
            want = set().union(*map(reference_atoms, fs))
            for _ in range(2):
                got = atoms(*fs)
                assert type(got) is set and got == want
            assert all(g.atom_names == reference_atoms(g) for g in fs)
