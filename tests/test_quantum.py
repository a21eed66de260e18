import math

import numpy as np
import pytest

from qopposition.linalg import (DimensionMismatch, Subspace, gram_schmidt,
                                hermitian_eig)
from qopposition.quantum import (And, Literal, Observable, Or, OrthoFamily,
                                 QuantumError, State, born,
                                 family_from_observable, minimal_attribution,
                                 paraconsistent_attribution, superpose, truth)

from helpers import apply_unitary_subspace, haar_unitary, random_state

R2 = 1.0 / math.sqrt(2.0)
UP_X = State([R2, R2])
DOWN_X = State([R2, -R2])
UP_Z = State([1, 0])


def x_family():
    return OrthoFamily(2, [("up_x", gram_schmidt([[R2, R2]])),
                           ("down_x", gram_schmidt([[R2, -R2]]))])


def lit(fam, member, asserted=True):
    return Literal(fam.subspace(member), asserted, fam, member, member)


class TestState:
    def test_unit_required(self):
        with pytest.raises(QuantumError):
            State([1, 1])

    def test_normalized_constructor(self):
        assert np.allclose(State.normalized([3, 0]).vector, [1, 0])

    def test_normalized_follows_the_relative_rule(self):
        # only the zero vector is refused, whatever the scale
        assert np.array_equal(State.normalized([1e-10, 0]).vector, [1, 0])
        assert State.normalized([1e-160, 0]).vector.tolist() == [1, 0]
        # subnormal norms: 1/n would overflow, so the vector is first
        # scaled by an exact power of two
        assert State.normalized([5e-324, 0]).vector.tolist() == [1, 0]
        assert State.normalized([1e-310, 0]).vector.tolist() == [1, 0]
        with pytest.raises(QuantumError, match="zero"):
            State.normalized([0, 0])

    @pytest.mark.parametrize("tiny", [1e-155, 1e-160, 1e-300])
    def test_normalized_below_the_square_underflow(self, tiny):
        # the squares of these components are subnormal or zero; the norm
        # rescales by the largest component instead of losing their bits
        psi = State.normalized([tiny, 0], eps=1e-15)
        assert abs(psi.vector[0] - 1) <= 2e-16 and psi.vector[1] == 0


class TestSuperpose:
    def test_basis_conversion_back_to_up_z(self):
        # (up_x + down_x)/sqrt2 = up_z
        got = superpose([R2, R2], [UP_X, DOWN_X])
        assert np.allclose(got.vector, [1, 0])

    def test_destructive_cancellation(self):
        with pytest.raises(QuantumError):
            superpose([1, -1], [UP_X, UP_X])

    def test_rounding_cancellation(self):
        # 1/sqrt(2) and sqrt(0.5) differ by one ulp: what is left is noise,
        # below eps times the sum of the |c_i|, not a state
        x = State([math.sqrt(0.5), math.sqrt(0.5)])
        with pytest.raises(QuantumError, match="cancels"):
            superpose([1, -1], [UP_X, x])

    def test_small_combination_is_normalized(self):
        # the rule is relative to the weights: a small weight is not cancellation
        assert superpose([1e-10], [UP_Z]).vector.tolist() == [1, 0]

    def test_skewed_weights(self):
        psi = superpose([2 / math.sqrt(7), math.sqrt(3 / 7)], [UP_X, DOWN_X])
        fam = x_family()
        assert abs(born(psi, fam.subspace("up_x")) - 4 / 7) < 1e-12
        assert abs(born(psi, fam.subspace("down_x")) - 3 / 7) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            superpose([1, 1], [UP_Z, State([1, 0, 0])])


class TestBorn:
    def test_eigenstate_gives_one(self):
        fam = x_family()
        assert born(UP_X, fam.subspace("up_x")) == pytest.approx(1.0, abs=1e-12)

    def test_up_z_against_x_line(self):
        # |<up_x|up_z>|^2 = 1/2 by hand
        assert born(UP_Z, x_family().subspace("up_x")) == pytest.approx(0.5, abs=1e-12)

    def test_zero_subspace_gives_zero(self):
        assert born(UP_Z, Subspace.zero(2)) == 0.0

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(41)
        fam = x_family()
        for _ in range(200):
            psi = random_state(2, rng)
            s = fam.subspace("up_x")
            assert abs(born(psi, s) + born(psi, s.orthocomplement()) - 1) < 1e-9

    def test_family_normalization_1000_states(self):
        rng = np.random.default_rng(43)
        fam = x_family()
        for _ in range(1000):
            psi = random_state(2, rng)
            total = sum(born(psi, sub) for _, sub in fam.members)
            assert abs(total - 1.0) < 1e-7


class TestTruth:
    def test_eigenstate_literal(self):
        fam = x_family()
        assert truth(lit(fam, "up_x"), UP_X)

    def test_superposed_state_satisfies_negation(self):
        # a state neither up nor down in x satisfies both negations
        fam = x_family()
        psi = superpose([R2, R2], [UP_X, DOWN_X])
        assert truth(lit(fam, "up_x", asserted=False), psi)
        assert truth(lit(fam, "down_x", asserted=False), psi)

    def test_conjunction_never_true(self):
        fam = x_family()
        both = And((lit(fam, "up_x"), lit(fam, "down_x")))
        rng = np.random.default_rng(47)
        for _ in range(100):
            assert not truth(both, random_state(2, rng))

    def test_compound_truth_tables(self):
        fam = x_family()
        u, d = lit(fam, "up_x"), lit(fam, "down_x")
        assert truth(Or((u, d)), UP_X)
        assert not truth(Or((u, d)), UP_Z)
        assert truth(And((u.negate(), d.negate())), UP_Z)

    def test_exactly_one_of_literal_and_negation(self):
        rng = np.random.default_rng(53)
        fam = x_family()
        u = lit(fam, "up_x")
        for _ in range(200):
            psi = random_state(2, rng)
            assert truth(u, psi) != truth(u.negate(), psi)


class TestAttribution:
    def test_minimal_on_eigenstate(self):
        assert minimal_attribution(UP_X, x_family()) == {"up_x"}

    def test_minimal_empty_on_superposition(self):
        assert minimal_attribution(UP_Z, x_family()) == set()

    def test_paraconsistent_on_superposition(self):
        assert paraconsistent_attribution(UP_Z, x_family()) == {"up_x", "down_x"}

    def test_paraconsistent_on_eigenstate(self):
        assert paraconsistent_attribution(UP_X, x_family()) == {"up_x"}

    def test_paraconsistent_ignores_skew(self):
        psi = superpose([2 / math.sqrt(7), math.sqrt(3 / 7)], [UP_X, DOWN_X])
        assert paraconsistent_attribution(psi, x_family()) == {"up_x", "down_x"}

    def test_agreement_on_eigenstates(self):
        rng = np.random.default_rng(59)
        fam = x_family()
        for _ in range(200):
            member = fam.members[int(rng.integers(0, 2))]
            phase = np.exp(2j * np.pi * rng.random())
            psi = State(phase * member[1].basis[:, 0])
            mi = minimal_attribution(psi, fam)
            assert mi and mi == paraconsistent_attribution(psi, fam)

    @pytest.mark.parametrize("semantics", [minimal_attribution, paraconsistent_attribution])
    def test_state_of_the_wrong_dimension_is_refused(self, semantics):
        with pytest.raises(DimensionMismatch):
            semantics(State([1, 0, 0]), x_family())

    def test_unitary_covariance(self):
        rng = np.random.default_rng(61)
        fam = x_family()
        for _ in range(50):
            psi = random_state(2, rng)
            u = haar_unitary(2, rng)
            fam_u = OrthoFamily(2, [(lab, apply_unitary_subspace(u, sub))
                                    for lab, sub in fam.members])
            assert (minimal_attribution(State(u @ psi.vector), fam_u)
                    == minimal_attribution(psi, fam))


class TestFamilyFromObservable:
    def test_pauli_z(self):
        fam = family_from_observable(Observable(np.diag([1.0, -1.0]), "Z"))
        assert fam.labels == ["-1", "1"]
        assert fam.subspace("1").contains([1, 0])
        assert fam.subspace("-1").contains([0, 1])

    def test_identity_degenerate(self):
        fam = family_from_observable(Observable(np.eye(2), "I"))
        assert len(fam.members) == 1
        s = fam.members[0][1]
        assert s.dim == s.ambient_dim

    def test_pauli_x(self):
        fam = family_from_observable(Observable(np.array([[0, 1], [1, 0]],
                                                         dtype=complex), "X"))
        assert fam.subspace("1").contains([R2, R2])
        assert fam.subspace("-1").contains([R2, -R2])

    def test_non_hermitian_rejected(self):
        with pytest.raises(QuantumError):
            Observable(np.array([[0, 1], [0, 0]], dtype=complex), "bad")

    def test_repeated_eigenvalue_gives_one_rank2_member(self):
        u = haar_unitary(3, np.random.default_rng(37))
        obs = Observable(u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T, "D")
        fam = family_from_observable(obs)
        assert fam.labels == ["1", "2"]
        for label, cols in (("1", u[:, :2]), ("2", u[:, 2:])):
            assert np.allclose(fam.subspace(label).projector(),
                               cols @ cols.conj().T, atol=1e-9)
        again = family_from_observable(obs)
        for (_, s), (_, t) in zip(fam.members, again.members):
            assert np.array_equal(s.basis, t.basis)

    @pytest.mark.parametrize("spectrum, labels, dims", [
        # each gap is below eps: the chain merges although its ends are
        # 2.7e-9 apart, and the label is the mean
        ([0.0, 9e-10, 1.8e-9, 2.7e-9], ["1.35e-09"], [4]),
        ([0.0, 6e-10, 1.2e-9, 3.0], ["6e-10", "3"], [3, 1]),
        # a gap of exactly eps splits
        ([0.0, 1e-9], ["0", "1e-09"], [1, 1]),
        ([0.0, 1e-9, 1.5e-9, 3.0], ["0", "1.25e-09", "3"], [1, 2, 1]),
    ])
    def test_eigenvalues_group_at_gaps_of_eps(self, spectrum, labels, dims):
        fam = family_from_observable(Observable(np.diag(spectrum), "D"))
        assert fam.labels == labels
        assert [s.dim for _, s in fam.members] == dims

    def test_member_bases_are_the_eigenvectors(self):
        # each member's basis is its block of hermitian_eig's columns, bit
        # for bit: no second orthonormalization
        rng = np.random.default_rng(43)
        u = haar_unitary(4, rng)
        for m in (np.array([[0, 1], [1, 0]], dtype=complex),
                  u @ np.diag([1.0, 1.0, 2.0, 3.0]) @ u.conj().T,
                  u @ np.diag([-1.0, 2.0, 2.0, 2.0]) @ u.conj().T):
            fam = family_from_observable(Observable(m, "M"))
            _, vecs = hermitian_eig(m)
            assert np.array_equal(np.hstack([s.basis for _, s in fam.members]), vecs)


class TestOrthoFamilyInvariants:
    def test_non_orthogonal_rejected(self):
        with pytest.raises(QuantumError):
            OrthoFamily(2, [("a", gram_schmidt([[1, 0]])),
                            ("b", gram_schmidt([[R2, R2]]))])

    @pytest.mark.parametrize("spans, pair", [
        # p's first column meets r before its second meets q, yet (p, q)
        # comes first in member order; z has no columns; 2 + 0 + 1 + 1 > 3
        ({"p": [[1, 0, 0], [0, 1, 0]], "z": [], "q": [[0, 1, 1]], "r": [[1, 0, 0]]},
         ("p", "q")),
        # the first member's only offending partner is the last one
        ({"a": [[0, 0, 1]], "b": [[1, 0, 0]], "c": [[0, 1, 0]], "d": [[0, 1, 1]]},
         ("a", "d")),
        ({"z": [], "a": [[1, 0, 0]], "b": [[0, 1, 0]], "c": [[0, 1, 1]]}, ("b", "c")),
    ])
    def test_first_offending_pair_is_named(self, spans, pair):
        members = [(lab, gram_schmidt(vs) if vs else Subspace.zero(3))
                   for lab, vs in spans.items()]
        with pytest.raises(QuantumError,
                           match=f"^members {pair[0]!r} and {pair[1]!r} are not orthogonal$"):
            OrthoFamily(3, members)

    def test_incomplete_rejected(self):
        with pytest.raises(QuantumError):
            OrthoFamily(3, [("a", gram_schmidt([[1, 0, 0]])),
                            ("b", gram_schmidt([[0, 1, 0]]))])


class TestRefusals:
    @pytest.mark.parametrize("make, error", [
        (lambda: OrthoFamily(2, []), QuantumError),
        (lambda: OrthoFamily(2, [("a", Subspace.full(2)), ("a", Subspace.zero(2))]),
         QuantumError),
        (lambda: OrthoFamily(2, [("a", Subspace.full(2)), ("z", Subspace.zero(3))]),
         DimensionMismatch),
        (lambda: superpose([], []), QuantumError),
        (lambda: truth("up_x", UP_X), TypeError),
        # every part is evaluated: no literal's value short-circuits a stray part
        (lambda: truth(And((lit(x_family(), "up_x"), "x")), UP_Z), TypeError),
        (lambda: truth(Or((lit(x_family(), "up_x"), "x")), UP_X), TypeError),
    ], ids=["family-empty", "family-duplicate-labels", "family-mixed-ambient",
            "superpose-empty", "truth-non-proposition", "truth-and-false-part",
            "truth-or-true-part"])
    def test_refused_input_raises_its_type(self, make, error):
        with pytest.raises(error) as exc:
            make()
        assert type(exc.value) is error
        assert isinstance(exc.value, ValueError) == (error is not TypeError)
