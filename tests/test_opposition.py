import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qopposition.linalg import EPS, Subspace, gram_schmidt
from qopposition.opposition import (OppositionError, Relation, build_hexagon,
                                    build_square, can_both_be_false,
                                    can_both_be_true, classify, entails,
                                    random_witness_search)
from qopposition.quantum import (And, Literal, Or, OrthoFamily, truth,
                                 minimal_attribution)

from helpers import (apply_unitary_literal, haar_unitary, random_literal,
                     random_state, random_subspace)

R2 = 1.0 / math.sqrt(2.0)


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
            assert classify(p, q) == classify(q, p).swapped()

    def test_unitary_invariance(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            p, q = random_literal(n, rng), random_literal(n, rng)
            base = classify(p, q)
            u = haar_unitary(n, rng)
            moved = classify(apply_unitary_literal(u, p), apply_unitary_literal(u, q))
            assert (base.relation, base.direction) == (moved.relation, moved.direction)

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
        assert c == classify(q, p).swapped()
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


def generic_cell(props, pattern):
    """True when the truth pattern is a positive-measure event under Haar
    sampling: each conjunct must hold at almost every state (membership in
    a proper subspace is a measure-zero event, so search can confirm it
    only through the constructed witnesses, not by sampling)."""
    for p, want in zip(props, pattern):
        inside_needed = want == p.asserted
        if inside_needed and not p.subspace.is_full():
            return False
        if not inside_needed and p.subspace.is_full():
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
