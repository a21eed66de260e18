import itertools
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qopposition.linalg import EPS, DimensionMismatch, Subspace, gram_schmidt
from qopposition import opposition
from qopposition.opposition import (MEET_BUDGET, Classification, OppositionError,
                                    Polygon, Relation, Witness, build_hexagon, build_square,
                                    can_both_be_false, can_both_be_true,
                                    classify, entails, random_witness_search)
from qopposition.quantum import (And, Literal, Or, OrthoFamily, QuantumError, State,
                                 leaves, truth, minimal_attribution)
from qopposition.scenarios import BUILTIN_NAMES, builtin

from helpers import (apply_unitary_literal, apply_unitary_subspace, haar_unitary,
                     random_literal, random_state, random_subspace)

R2 = 1.0 / math.sqrt(2.0)
# a Subaltern's direction under swapping the pair, or negating both sides
_FLIP = {"forward": "backward", "backward": "forward", None: None}


def x_family():
    return OrthoFamily(2, [("up_x", gram_schmidt([[R2, R2]])),
                           ("down_x", gram_schmidt([[R2, -R2]]))])


def lit(fam, member, asserted=True):
    return Literal(fam.subspace(member), asserted, fam, member, member)


@pytest.fixture
def fam():
    return x_family()


@pytest.fixture
def u_x(fam):
    return lit(fam, "up_x")


@pytest.fixture
def d_x(fam):
    return lit(fam, "down_x")


class TestCanBothBeTrue:
    def test_orthogonal_members_cannot(self, u_x, d_x):
        got, w = can_both_be_true(u_x, d_x)
        assert got is False and w is None

    def test_negations_can(self, u_x, d_x):
        got, w = can_both_be_true(u_x.negate(), d_x.negate())
        assert got is True
        assert w.replay()

    def test_literal_and_its_negation_cannot(self, u_x):
        got, _ = can_both_be_true(u_x, u_x.negate())
        assert got is False


class TestCanBothBeFalse:
    def test_orthogonal_members_can(self, u_x, d_x):
        got, w = can_both_be_false(u_x, d_x)
        assert got is True
        assert w.replay()

    def test_negations_cannot(self, u_x, d_x):
        # both-false here would make the system up and down at once
        got, _ = can_both_be_false(u_x.negate(), d_x.negate())
        assert got is False

    def test_literal_and_its_negation_cannot(self, u_x):
        got, _ = can_both_be_false(u_x, u_x.negate())
        assert got is False


class TestEntails:
    def test_up_entails_not_down(self, u_x, d_x):
        assert entails(u_x, d_x.negate()) is True

    def test_not_down_does_not_entail_up(self, u_x, d_x):
        assert entails(d_x.negate(), u_x) is False

    def test_reflexive(self, u_x):
        assert entails(u_x, u_x) is True


class TestClassify:
    def test_contrary(self, u_x, d_x):
        assert classify(u_x, d_x).relation is Relation.CONTRARY

    def test_contradictory(self, u_x):
        assert classify(u_x, u_x.negate()).relation is Relation.CONTRADICTORY

    def test_subcontrary(self, u_x, d_x):
        assert classify(u_x.negate(), d_x.negate()).relation is Relation.SUBCONTRARY

    def test_subaltern_direction(self, u_x, d_x):
        c = classify(u_x, d_x.negate())
        assert c.relation is Relation.SUBALTERN and c.direction == "forward"
        c = classify(d_x.negate(), u_x)
        assert c.relation is Relation.SUBALTERN and c.direction == "backward"

    def test_equivalent(self, u_x):
        assert classify(u_x, u_x).relation is Relation.EQUIVALENT

    def test_independent_lines_in_dim3(self):
        # two non-orthogonal distinct lines: both can be true only at...
        # they intersect in zero, so pick planes instead
        s = Literal(gram_schmidt([[1, 0, 0], [0, 1, 0]]))
        t = Literal(gram_schmidt([[0, 1, 0], [0, 0, 1]]))
        assert classify(s, t).relation is Relation.INDEPENDENT

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            p, q = random_literal(n, rng), random_literal(n, rng)
            c, s = classify(p, q), classify(q, p)
            assert (s.relation, s.direction) == (c.relation, _FLIP[c.direction])

    def test_unitary_invariance(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            p, q = random_literal(n, rng), random_literal(n, rng)
            base = classify(p, q)
            u = haar_unitary(n, rng)
            moved = classify(apply_unitary_literal(u, p), apply_unitary_literal(u, q))
            assert (base.relation, base.direction) == (moved.relation, moved.direction)

    def test_leaves_of_mixed_dimensions_refused(self, u_x):
        # across the pair, and inside one proposition
        line3 = Literal(gram_schmidt([[1, 0, 0]]))
        for p, q in ((u_x, line3), (And((u_x, line3)), u_x)):
            with pytest.raises(DimensionMismatch):
                classify(p, q)
            with pytest.raises(DimensionMismatch):
                random_witness_search((p, q), (True, True), seed=0)

    def test_family_members_pairwise_contrary(self):
        rng = np.random.default_rng(73)
        for n in (2, 3, 4):
            u = haar_unitary(n, rng)
            fam = OrthoFamily(n, [(f"m{i}", gram_schmidt([u[:, i]]))
                                  for i in range(n)])
            for i in range(n):
                for j in range(i + 1, n):
                    c = classify(lit(fam, f"m{i}"), lit(fam, f"m{j}"))
                    assert c.relation is Relation.CONTRARY


class TestWitnesses:
    def test_emitted_witnesses_replay(self):
        rng = np.random.default_rng(79)
        for _ in range(80):
            n = int(rng.integers(2, 5))
            p, q = random_literal(n, rng), random_literal(n, rng)
            for w in classify(p, q).witnesses.values():
                assert w.replay()

    def test_two_proper_subspaces_never_cover(self):
        # both-false of two asserted literals is possible iff neither
        # subspace is full; search must always confirm
        rng = np.random.default_rng(83)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            s = random_subspace(n, int(rng.integers(0, n)), rng)
            t = random_subspace(n, int(rng.integers(0, n)), rng)
            p, q = Literal(s), Literal(t)
            got, w = can_both_be_false(p, q)
            assert got is True and w.replay()
            found = random_witness_search((p, q), (False, False), seed=5, trials=2000)
            assert found is not None


# principal angles log-uniform in [1e-12, 1e-3], plus angles within 1e-6
# relative of eps, where the meet and membership decide at the threshold
ANGLES = st.one_of(st.floats(-12.0, -3.0).map(lambda x: 10.0 ** x),
                   st.floats(-1e-6, 1e-6).map(lambda r: EPS * (1.0 + r)))


@st.composite
def near_parallel_pair(draw):
    """Two literals on lines or planes in C^2..C^4 whose first principal
    angle is drawn from ANGLES; a shared second direction, if any, is
    exact, and the other principal angle is pi/2."""
    n = draw(st.integers(2, 4))
    ka = draw(st.integers(1, n - 1))
    kb = draw(st.integers(1, n - 1))
    theta = draw(ANGLES)
    u = haar_unitary(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    a = gram_schmidt([u[:, i] for i in range(ka)])
    tilted = math.cos(theta) * u[:, 0] + math.sin(theta) * u[:, n - 1]
    b = gram_schmidt([tilted] + [u[:, i] for i in range(1, kb)])
    p = Literal(a, draw(st.booleans()))
    q = Literal(b, draw(st.booleans()))
    return (q, p) if draw(st.booleans()) else (p, q)


class TestNearParallel:
    def test_lines_1e5_apart_are_contrary(self):
        p = Literal(gram_schmidt([[1, 0]]))
        q = Literal(gram_schmidt([[math.cos(1e-5), math.sin(1e-5)]]))
        assert can_both_be_true(p, q) == (False, None)
        assert classify(p, q).relation is Relation.CONTRARY

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(near_parallel_pair())
    def test_witnesses_replay_and_order_is_irrelevant(self, pair):
        p, q = pair
        for _, w in (can_both_be_true(p, q), can_both_be_false(p, q)):
            assert w is None or w.replay()
        c = classify(p, q)
        for w in c.witnesses.values():
            assert w.replay()
        s = classify(q, p)
        assert (s.relation, s.direction) == (c.relation, _FLIP[c.direction])
        meet = p.subspace.intersect(q.subspace)
        assert meet.dim == q.subspace.intersect(p.subspace).dim
        assert all(p.subspace.contains(v) and q.subspace.contains(v)
                   for v in meet.basis.T)


class TestWitnessSearch:
    def test_finds_double_negation_witness(self, u_x, d_x):
        w = random_witness_search((u_x, d_x), (False, False), seed=1, trials=1000)
        assert w is not None and w.replay()

    def test_never_finds_empty_cell(self, u_x, d_x):
        assert random_witness_search((u_x, d_x), (True, True), seed=1,
                                     trials=1000) is None

    def test_deterministic_for_fixed_seed(self, u_x, d_x):
        a = random_witness_search((u_x, d_x), (False, False), seed=9, trials=500)
        b = random_witness_search((u_x, d_x), (False, False), seed=9, trials=500)
        assert np.array_equal(a.state.vector, b.state.vector)

    @pytest.mark.parametrize("search", [
        lambda u, d: random_witness_search((u, d), (True, True), seed=0, trials=0),
        lambda u, d: random_witness_search((u,), (True, True), seed=0),
    ], ids=["no-trials", "lengths-differ"])
    def test_refused_input_raises_value_error(self, u_x, d_x, search):
        with pytest.raises(ValueError) as exc:
            search(u_x, d_x)
        assert type(exc.value) is ValueError


class TestSquare:
    def test_spin_square_pattern(self, u_x, d_x):
        sq = build_square(u_x, d_x)
        rel = {k: v.relation for k, v in sq.relations.items()}
        assert rel[("A", "E")] is Relation.CONTRARY
        assert rel[("A", "O")] is Relation.CONTRADICTORY
        assert rel[("E", "I")] is Relation.CONTRADICTORY
        assert rel[("I", "O")] is Relation.SUBCONTRARY
        assert rel[("A", "I")] is Relation.SUBALTERN
        assert rel[("E", "O")] is Relation.SUBALTERN
        assert sq.deviations == ()

    def test_equivalent_base_pair_rejected(self, u_x):
        with pytest.raises(OppositionError, match="Equivalent"):
            build_square(u_x, u_x)

    def test_three_level_square(self):
        fam = OrthoFamily(3, [("a", gram_schmidt([[1, 0, 0]])),
                              ("b", gram_schmidt([[0, 1, 0]])),
                              ("c", gram_schmidt([[0, 0, 1]]))])
        sq = build_square(lit(fam, "a"), lit(fam, "b"))
        assert sq.deviations == ()


class TestHexagon:
    def test_spin_hexagon_no_deviations(self, u_x, d_x):
        hx = build_hexagon(u_x, d_x)
        assert hx.deviations == ()
        assert set(hx.positions) == {"A", "E", "I", "O", "U", "Y"}
        assert len(hx.relations) == 15

    def test_bottom_true_exactly_at_superpositions(self, fam, u_x, d_x):
        hx = build_hexagon(u_x, d_x)
        y = hx.positions["Y"]
        rng = np.random.default_rng(89)
        for _ in range(300):
            psi = random_state(2, rng)
            assert truth(y, psi) == (minimal_attribution(psi, fam) == set())

    def test_top_true_exactly_at_eigenstates(self, fam, u_x, d_x):
        hx = build_hexagon(u_x, d_x)
        top = hx.positions["U"]
        rng = np.random.default_rng(97)
        for _ in range(100):
            psi = random_state(2, rng)
            assert truth(top, psi) == (minimal_attribution(psi, fam) != set())
        assert truth(top, random_state(2, rng).__class__([R2, R2]))

    def test_degenerate_family_reports_deviation(self):
        fam = OrthoFamily(2, [("all", Subspace.full(2)), ("none", Subspace.zero(2))])
        with pytest.raises(OppositionError):
            # E is unsatisfiable: the base pair is not contrary
            build_hexagon(lit(fam, "all"), lit(fam, "none"))

    @staticmethod
    def assert_hexagon_is_classify(a, e):
        # the hexagon decides all 15 pairs from per-corner truth tables over
        # one walk; each pair must get what classify gives it on its own
        hx = build_hexagon(a, e)
        for (x, y), c in hx.relations.items():
            d = classify(hx.positions[x], hx.positions[y])
            assert (c.relation, c.direction) == (d.relation, d.direction)
            assert sorted(c.witnesses) == sorted(d.witnesses)
            for key, w in c.witnesses.items():
                assert w.state.vector.tobytes() == d.witnesses[key].state.vector.tobytes()

    def test_relations_are_classify_on_builtin_contrary_pairs(self):
        count = 0
        for name in BUILTIN_NAMES:
            props = builtin(name).propositions.values()
            for a, e in itertools.permutations(props, 2):
                if classify(a, e).relation is Relation.CONTRARY:
                    self.assert_hexagon_is_classify(a, e)
                    count += 1
        assert count > 0

    def test_relations_are_classify_on_seeded_c8_pairs(self):
        rng = np.random.default_rng(53)
        for ra, re_ in ((1, 1), (1, 7), (2, 3), (3, 5), (4, 4), (6, 2)):
            a = Literal(random_subspace(8, ra, rng), name="A")
            e = Literal(random_subspace(8, re_, rng), name="E")
            self.assert_hexagon_is_classify(a, e)


class TestRecords:
    """Witness, Classification and Polygon are slotted dataclasses: they take
    no new attribute, and keep their fields, equality and repr."""

    def test_constructor_signatures(self, u_x, d_x):
        assert [f.name for f in fields(Witness)] == ["state", "props", "pattern"]
        assert [f.name for f in fields(Classification)] == ["relation", "direction",
                                                             "witnesses"]
        assert [f.name for f in fields(Polygon)] == ["positions", "relations", "deviations"]
        c = Classification(Relation.CONTRARY)
        assert c.direction is None and c.witnesses == {}
        assert Classification(Relation.CONTRARY).witnesses is not c.witnesses
        assert repr(c) == ("Classification(relation=<Relation.CONTRARY: 'Contrary'>, "
                           "direction=None, witnesses={})")
        w = Witness(State([1, 0]), (u_x, d_x), (False, False))
        assert Witness(state=w.state, props=w.props, pattern=w.pattern) == w
        s = Classification(Relation.SUBALTERN, "forward", {"both_true": w})
        assert (s.direction, s.witnesses) == ("forward", {"both_true": w})
        assert s.describe("A", "I") == "Subaltern (A -> I)"
        poly = Polygon({"A": u_x}, {("A", "E"): c}, ())
        assert (poly.positions, poly.relations, poly.deviations) == (
            {"A": u_x}, {("A", "E"): c}, ())

    def test_classification_equality_ignores_witnesses(self, u_x, d_x):
        c = classify(u_x, d_x)
        assert c.witnesses and c == Classification(Relation.CONTRARY)
        assert c != Classification(Relation.SUBCONTRARY)
        assert (Classification(Relation.SUBALTERN, "forward")
                != Classification(Relation.SUBALTERN, "backward"))

    def test_no_new_attribute(self, u_x, d_x):
        hx = build_hexagon(u_x, d_x)
        c = hx.relations[("A", "E")]
        for record in (c.witnesses["both_false"], c, hx):
            with pytest.raises(AttributeError):
                record.note = "unknown field"
            assert not hasattr(record, "__dict__")

    def test_hexagon_witnesses_replay(self, u_x, d_x):
        hx = build_hexagon(u_x, d_x)
        count = 0
        for (x, y), c in hx.relations.items():
            for key, w in c.witnesses.items():
                assert w.props == (hx.positions[x], hx.positions[y])
                assert w.pattern == {"both_true": (True, True), "both_false": (False, False)}[key]
                assert w.replay()
                assert not Witness(w.state, w.props, tuple(not b for b in w.pattern)).replay()
                count += 1
        # three Contrary and three Subcontrary pairs hold one witness each,
        # six Subaltern pairs two, three Contradictory pairs none
        assert count == 18


@pytest.mark.parametrize("eps", [0.0, -1e-9, 1e-3, 0.5, math.nan])
@pytest.mark.parametrize("decide", [classify, can_both_be_true, can_both_be_false,
                                    entails, build_square, build_hexagon])
def test_every_decision_checks_eps(u_x, d_x, decide, eps):
    with pytest.raises(ValueError, match="eps"):
        decide(u_x, d_x, eps)


class TestRefusals:
    @pytest.mark.parametrize("make, error", [
        (lambda u: classify(u, "x"), TypeError),
        (lambda u: classify(And((u, None)), u), TypeError),
        (lambda u: entails("x", u), TypeError),
        (lambda u: build_square(u, 3), TypeError),
        (lambda u: random_witness_search(["x"], [True], 0), TypeError),
        # a pair with no leaf has no ambient dimension to decide in
        (lambda u: classify(Or(()), Or(())), QuantumError),
        (lambda u: random_witness_search([], [], 0), QuantumError),
    ], ids=["classify-non-proposition", "classify-and-none-part",
            "entails-non-proposition", "square-non-proposition",
            "search-non-proposition", "classify-no-leaf", "search-no-leaf"])
    def test_refused_input_raises_its_type(self, u_x, make, error):
        with pytest.raises(error) as exc:
            make(u_x)
        assert type(exc.value) is error
        assert isinstance(exc.value, ValueError) == (error is not TypeError)

    def test_one_leaf_is_enough_to_decide(self, u_x):
        # And(()) holds at every state: both can be true, and never both false
        assert classify(And(()), u_x).relation is Relation.SUBCONTRARY


@pytest.mark.xfail(strict=True, raises=QuantumError, reason=(
    "the constructor's 10*eps Gram slack admits a basis column of norm "
    "1 + 4.5e-9, which the walk's membership test rejects in its own leaf "
    "and State() then refuses (ROADMAP item 12)"))
def test_family_column_at_the_gram_slack_is_decided():
    a = Subspace(2, [[math.sqrt(1 + 9e-9)], [0]])
    b = Subspace(2, [[0], [1]])
    fam = OrthoFamily(2, [("a", a), ("b", b)])
    c = classify(lit(fam, "a"), lit(fam, "b"))
    assert c.relation is Relation.CONTRARY
    assert all(w.replay() for w in c.witnesses.values())


def generic_cell(props, pattern):
    """True when the truth pattern is a positive-measure event under Haar
    sampling: each conjunct must hold at almost every state (membership in
    a proper subspace is a measure-zero event, so search can confirm it
    only through the constructed witnesses, not by sampling)."""
    for p, want in zip(props, pattern):
        inside_needed = want == p.asserted
        if inside_needed and p.subspace.dim < p.subspace.ambient_dim:
            return False
        if not inside_needed and p.subspace.dim == p.subspace.ambient_dim:
            return False
    return True


class TestOracleAgreement:
    def test_exact_decisions_match_search(self):
        # lighter version of the acceptance run: 120 random pairs
        rng = np.random.default_rng(101)
        for _ in range(120):
            n = int(rng.integers(2, 5))
            p, q = random_literal(n, rng), random_literal(n, rng)
            for pattern, (got, w) in (
                ((True, True), can_both_be_true(p, q)),
                ((False, False), can_both_be_false(p, q)),
            ):
                found = random_witness_search((p, q), pattern,
                                              seed=int(rng.integers(1 << 31)),
                                              trials=2000)
                if not got:
                    # an empty cell must never be contradicted by search
                    assert found is None, (p, q, pattern)
                    continue
                # nonempty: the constructed witness always confirms; the
                # sampler confirms whenever the cell has positive measure
                assert w is not None and w.replay(), (p, q, pattern)
                if generic_cell((p, q), pattern):
                    assert found is not None, (p, q, pattern)


# --- the exact pattern decider ----------------------------------------------

def line(*vec):
    return gram_schmidt([np.asarray(vec, dtype=complex)])


# which witnesses each relation implies: (both true possible, both false possible)
POSSIBLE = {
    Relation.CONTRARY: (False, True),
    Relation.SUBCONTRARY: (True, False),
    Relation.CONTRADICTORY: (False, False),
    Relation.SUBALTERN: (True, True),
}


class TestMixedSubspaces:
    def test_or_of_non_orthogonal_lines_is_subaltern(self):
        up_z, up_x = Literal(line(1, 0)), Literal(line(R2, R2))
        c = classify(Or((up_z, up_x)), up_z)
        assert (c.relation, c.direction) == (Relation.SUBALTERN, "backward")
        assert set(c.witnesses) == {"both_true", "both_false"}
        assert all(w.replay() for w in c.witnesses.values())

    @pytest.mark.parametrize("n", [2, 4])
    def test_untagged_orthogonal_lines_hexagon(self, n):
        a = Literal(line(*np.eye(n)[0]), name="A")
        e = Literal(line(*np.eye(n)[1]), name="E")
        hx = build_hexagon(a, e)
        assert hx.deviations == ()
        for (x, y), c in hx.relations.items():
            if "U" in (x, y) or "Y" in (x, y):
                present = ("both_true" in c.witnesses, "both_false" in c.witnesses)
                assert present == POSSIBLE[c.relation], (x, y)
            assert all(w.replay() for w in c.witnesses.values()), (x, y)

    def test_state_in_no_line_is_the_equal_weight_superposition(self):
        # both basis vectors of C^2 lie in a line, so the witness for "in
        # neither" comes from the moment curve at s = 1
        a, e = Literal(line(1, 0)), Literal(line(0, 1))
        got, w = can_both_be_false(a, e)
        assert got is True
        assert np.allclose(w.state.vector, [R2, R2])

    def test_state_in_none_of_five_lines(self):
        # the lines through [1, 0], [0, 1] and [1, w^t], w = exp(2 pi i / 3),
        # hold both basis columns and the moment curve at the 3 cube roots
        # of unity; only a curve of more than k(d - 1) = 5 nodes is sure to
        # leave them, so this pins the node count of _candidates
        w3 = np.exp(2j * np.pi / 3)
        lines = ([1, 0], [0, 1], [1, 1], [1, w3], [1, w3 ** 2])
        p = Or(tuple(Literal(line(*v)) for v in lines))
        got, w = can_both_be_false(p, p)
        assert got is True and w.replay()


    def test_state_in_no_hyperplane_of_c16(self):
        # C holds e_0 and the first three points of the real moment curve
        # (1, s, ..., s^15)/|.|; A = span(e_1..e_15) holds every such point
        # with s >= 4 to within eps, since its first coefficient is below
        # 1e-9.  A generic state of C^16 lies in neither.
        n = 16
        curve = [float(s) ** np.arange(n) for s in (1, 2, 3)]
        held = np.array([np.eye(n)[0]] + [c / np.linalg.norm(c) for c in curve])
        normal = np.linalg.svd(held)[2][-1].conj()
        a = Literal(Subspace(n, np.eye(n, dtype=complex)[:, 1:]))
        c = Literal(gram_schmidt([normal]).orthocomplement())
        got, w = can_both_be_false(a, c)
        assert got is True and w.replay()
        assert classify(a, c).relation is Relation.INDEPENDENT


def generic_hyperplanes(n, k):
    rng = np.random.default_rng(131)
    return [Literal(random_subspace(n, n - 1, rng)) for _ in range(k)]


def halves(ls):
    return Or(tuple(ls[:len(ls) // 2])), Or(tuple(ls[len(ls) // 2:]))


class TestMeetBudget:
    def test_generic_hyperplanes_past_the_budget_are_refused(self):
        # 13 generic hyperplanes of C^14 have 2^13 nonzero meets
        p, q = halves(generic_hyperplanes(14, 13))
        with pytest.raises(OppositionError, match="4096") as err:
            classify(p, q)
        assert "13 leaf subspaces" in str(err.value)

    def test_every_entry_point_stops_at_the_budget(self, monkeypatch):
        # 2^7 nonzero meets refused and 2^6 decided at a budget of 2^6
        monkeypatch.setattr(opposition, "MEET_BUDGET", 2 ** 6)
        p, q = halves(generic_hyperplanes(8, 7))
        for decide in (classify, can_both_be_true, can_both_be_false, entails,
                       build_square, build_hexagon):
            with pytest.raises(OppositionError, match="64"):
                decide(p, q)
        p, q = halves(generic_hyperplanes(8, 6))
        assert classify(p, q).relation is Relation.INDEPENDENT

    def test_many_lines_of_c2_are_decided(self):
        # pairwise meets of distinct lines are zero: k + 1 nonzero meets
        p, q = halves(generic_hyperplanes(2, 16))
        c = classify(p, q)
        assert c.relation is Relation.CONTRARY
        assert c.witnesses["both_false"].replay()
        assert build_hexagon(p, q).deviations == ()

    def test_single_family_compound_of_13_members_is_decided(self):
        n = 16
        basis = np.eye(n, dtype=complex)
        family = OrthoFamily(n, [(f"m{j}", Subspace(n, basis[:, j:j + 1]))
                                 for j in range(n)])
        members = [lit(family, f"m{j}") for j in range(n)]
        p = Or(tuple(members[:13]))
        c = classify(p, members[13])
        assert c.relation is Relation.CONTRARY
        assert c.witnesses["both_false"].replay()
        c = classify(p, Or(tuple(members[:14])))
        assert (c.relation, c.direction) == (Relation.SUBALTERN, "forward")
        assert build_hexagon(p, members[13]).deviations == ()


def meet_basis(subspaces, n):
    """Orthonormal basis of the intersection, as the numpy null space of
    the stacked I - P_i (the whole space for no subspaces)."""
    if not subspaces:
        return np.eye(n, dtype=complex)
    stacked = np.vstack([np.eye(n) - s.projector() for s in subspaces])
    _, sv, vh = np.linalg.svd(stacked)
    return vh[int(np.sum(sv > 1e-8)):].conj().T


def holds(p, psi):
    """Truth at a state, folded here rather than by the library's evaluator;
    only leaf membership comes from Subspace.contains."""
    if isinstance(p, Literal):
        return p.subspace.contains(psi.vector) == p.asserted
    return (all if isinstance(p, And) else any)([holds(part, psi) for part in p.parts])


def realizable_pairs(p, q, rng):
    """Truth pairs seen at Haar-random states drawn inside every meet of
    the leaf subspaces: a random state of a meet lies in no further leaf
    unless the whole meet does, so every realizable pattern shows up."""
    subs = list({id(l.subspace): l.subspace for l in leaves(p) + leaves(q)}.values())
    n = subs[0].ambient_dim
    seen = set()
    for mask in range(1 << len(subs)):
        basis = meet_basis([s for j, s in enumerate(subs) if mask >> j & 1], n)
        for _ in range(3 if basis.shape[1] else 0):
            z = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
            psi = State.normalized(basis @ z)
            seen.add((holds(p, psi), holds(q, psi)))
    return seen


def relation_of(pairs):
    """The square-of-opposition taxonomy over a set of realizable pairs."""
    tt, ff = (True, True) in pairs, (False, False) in pairs
    if not (tt or ff):
        return Relation.CONTRADICTORY, None
    if not tt:
        return Relation.CONTRARY, None
    if not ff:
        return Relation.SUBCONTRARY, None
    fwd, bwd = (True, False) not in pairs, (False, True) not in pairs
    if fwd and bwd:
        return Relation.EQUIVALENT, None
    if fwd or bwd:
        return Relation.SUBALTERN, "forward" if fwd else "backward"
    return Relation.INDEPENDENT, None


@st.composite
def compound_pair(draw):
    """Two And/Or compounds of depth <= 2 over 1-3 random subspaces of
    C^2..C^4 (trivial ones included); sometimes the last subspace is the
    first joined with a random line, so that one leaf nests in another."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subs = [random_subspace(n, draw(st.integers(0, n)), rng)
            for _ in range(draw(st.integers(1, 3)))]
    if len(subs) > 1 and draw(st.booleans()):
        line = random_subspace(n, 1, rng)
        subs[-1] = gram_schmidt(list(subs[0].basis.T) + list(line.basis.T))

    def prop(depth):
        if depth == 0 or draw(st.booleans()):
            return Literal(subs[draw(st.integers(0, len(subs) - 1))], draw(st.booleans()))
        parts = tuple(prop(depth - 1) for _ in range(draw(st.integers(2, 3))))
        return And(parts) if draw(st.booleans()) else Or(parts)

    return prop(2), prop(2), draw(st.integers(0, 2**32 - 1))


class TestExactOracle:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(compound_pair())
    def test_decisions_match_sampling_inside_meets(self, case):
        p, q, seed = case
        want = realizable_pairs(p, q, np.random.default_rng(seed))
        got = set()
        for value, (ok, w) in ((True, can_both_be_true(p, q)),
                               (False, can_both_be_false(p, q))):
            assert (w is not None) == ok and (w is None or w.replay())
            if ok:
                got.add((value, value))
        if not entails(p, q):
            got.add((True, False))
        if not entails(q, p):
            got.add((False, True))
        assert got == want
        c = classify(p, q)
        assert (c.relation, c.direction) == relation_of(want)
        assert set(c.witnesses) == {k for k, v in (("both_true", True), ("both_false", False))
                                    if (v, v) in want}
        assert all(w.replay() for w in c.witnesses.values())
        s = classify(q, p)
        assert (s.relation, s.direction) == (c.relation, _FLIP[c.direction])


def seeded_compound(subs, rng, depth=2):
    """An And/Or compound of depth <= depth over literals of subs, each of
    either polarity, drawn from a numpy Generator."""
    if depth == 0 or rng.integers(2):
        return Literal(subs[int(rng.integers(len(subs)))], bool(rng.integers(2)))
    parts = tuple(seeded_compound(subs, rng, depth - 1) for _ in range(int(rng.integers(2, 4))))
    return And(parts) if rng.integers(2) else Or(parts)


class TestCompoundOracleAgreement:
    def test_search_hits_are_decided_yes(self):
        # the sampler tests membership on its own, vectorized, apart from
        # the pattern walk: wherever it finds a state, the exact answer is
        # yes, and every yes carries a witness that replays
        rng = np.random.default_rng(113)
        compound_hits = 0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            subs = [random_subspace(n, int(rng.integers(0, n + 1)), rng)
                    for _ in range(int(rng.integers(1, 4)))]
            p, q = seeded_compound(subs, rng), seeded_compound(subs, rng)
            for pattern, (got, w) in (((True, True), can_both_be_true(p, q)),
                                      ((False, False), can_both_be_false(p, q))):
                assert (w is not None) == got and (w is None or w.replay())
                found = random_witness_search((p, q), pattern,
                                              seed=int(rng.integers(1 << 31)), trials=2000)
                if found is not None:
                    assert got and found.replay(), (p, q, pattern)
                    compound_hits += not isinstance(p, Literal) and not isinstance(q, Literal)
        assert compound_hits > 0  # not vacuous: the compound branches were sampled


class TestCompoundCorners:
    def test_corners_of_compound_pairs_are_classify(self):
        # the polygon derives I, O, U and Y from the truth masks of A and E
        # by complement; on compound A and E every pair must still get
        # classify's relation.  classify walks the pair's own leaves, so its
        # witnesses may be other states: each is checked by replay instead
        rng = np.random.default_rng(83)
        built = 0
        for _ in range(120):
            n = int(rng.integers(2, 6))
            subs = [random_subspace(n, int(rng.integers(0, n + 1)), rng) for _ in range(3)]
            a, e = seeded_compound(subs, rng), seeded_compound(subs, rng)
            try:
                polygons = (build_hexagon(a, e), build_square(a, e))
            except OppositionError:
                continue
            built += not isinstance(a, Literal) or not isinstance(e, Literal)
            for poly in polygons:
                for (x, y), c in poly.relations.items():
                    d = classify(poly.positions[x], poly.positions[y])
                    assert (c.relation, c.direction) == (d.relation, d.direction), (x, y)
                    assert sorted(c.witnesses) == sorted(d.witnesses)
                    assert all(w.replay() for w in c.witnesses.values())
        assert built >= 30  # polygons with a compound corner at A or E


_DUAL = {Relation.CONTRARY: Relation.SUBCONTRARY, Relation.SUBCONTRARY: Relation.CONTRARY}


def full_scale_pairs(count, seed):
    """Compound pairs over 1-3 subspaces of C^5..C^16 (trivial ones
    included), 40% of the subspaces spanned by standard basis vectors."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(5, 17))
        subs = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(0, n + 1))
            if rng.random() < 0.4:
                cols = np.sort(rng.choice(n, k, replace=False))
                subs.append(Subspace(n, np.eye(n, dtype=complex)[:, cols]))
            else:
                subs.append(random_subspace(n, k, rng))
        yield seeded_compound(subs, rng), seeded_compound(subs, rng)


def shuffled(p, rng):
    """p with the parts of every And/Or in a seeded random order."""
    if isinstance(p, Literal):
        return p
    parts = [shuffled(x, rng) for x in p.parts]
    return type(p)(tuple(parts[i] for i in rng.permutation(len(parts))))


def rotated(p, images):
    """p with each leaf subspace replaced by its image, keyed by identity,
    so leaves shared by both sides of a pair stay shared."""
    if isinstance(p, Literal):
        return Literal(images[id(p.subspace)], p.asserted)
    return type(p)(tuple(rotated(x, images) for x in p.parts))


class TestMetamorphic:
    def test_negation_duality(self):
        # negation is set complement: negating both sides swaps both-true
        # with both-false and p-without-q with q-without-p
        for p, q in full_scale_pairs(300, 89):
            c, d = classify(p, q), classify(p.negate(), q.negate())
            assert (d.relation, d.direction) == (_DUAL.get(c.relation, c.relation),
                                                 _FLIP[c.direction])
            assert all(w.replay() for w in d.witnesses.values())

    def test_swap_symmetry(self):
        for p, q in full_scale_pairs(300, 97):
            c, s = classify(p, q), classify(q, p)
            assert (s.relation, s.direction) == (c.relation, _FLIP[c.direction])
            assert sorted(s.witnesses) == sorted(c.witnesses)

    def test_leaf_order_permutation(self):
        # the relation depends on the truth functions alone; witnesses may
        # move, so each is replayed against the shuffled pair
        rng = np.random.default_rng(101)
        for p, q in full_scale_pairs(300, 103):
            c, d = classify(p, q), classify(shuffled(p, rng), shuffled(q, rng))
            assert (d.relation, d.direction) == (c.relation, c.direction)
            assert all(w.replay() for w in d.witnesses.values())

    def test_unitary_invariance(self):
        # one Haar unitary on every leaf of both sides, up to C^16
        rng = np.random.default_rng(107)
        for p, q in full_scale_pairs(300, 109):
            subs = {id(x.subspace): x.subspace for x in leaves(p) + leaves(q)}
            u = haar_unitary(next(iter(subs.values())).ambient_dim, rng)
            images = {k: apply_unitary_subspace(u, s) for k, s in subs.items()}
            c, d = classify(p, q), classify(rotated(p, images), rotated(q, images))
            assert (d.relation, d.direction) == (c.relation, c.direction)
            assert all(w.replay() for w in d.witnesses.values())
