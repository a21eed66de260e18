import math

import numpy as np
import pytest

from qopposition.linalg import (DimensionMismatch, Subspace, _norm, gram_schmidt,
                                hermitian_eig)
from qopposition.quantum import (And, Observable, Or, OrthoFamily,
                                 QuantumError, State, born,
                                 family_from_observable, minimal_attribution,
                                 paraconsistent_attribution, superpose, truth)

from qopposition.scenarios import BUILTIN_NAMES, EPS, builtin

from helpers import (BAD_EPS, BAD_EPS_IDS, R2, apply_unitary_subspace, complex_parts,
                     haar_unitary, lit, normal_scalings, random_state, x_family)

UP_X = State([R2, R2])
DOWN_X = State([R2, -R2])
UP_Z = State([1, 0])


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
        # subnormal components: the vector is first scaled by exact powers
        # of two, so no norm is subnormal and 1/n never overflows
        assert State.normalized([5e-324, 0]).vector.tolist() == [1, 0]
        assert State.normalized([1e-310, 0]).vector.tolist() == [1, 0]
        with pytest.raises(QuantumError, match="zero"):
            State.normalized([0, 0])

    @pytest.mark.parametrize("tiny", [1e-155, 1e-160, 1e-300])
    def test_normalized_below_the_square_underflow(self, tiny):
        # the squares of these components would be subnormal or zero; the
        # vector is scaled into [1/2, 1) by powers of two before its norm is taken
        psi = State.normalized([tiny, 0], eps=1e-13)
        assert abs(psi.vector[0] - 1) <= 2e-16 and psi.vector[1] == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("vector", [[1.5e308, 1.5e308], [1e308, 1.5e308j, -1e308]])
    def test_normalized_refuses_a_norm_that_overflows(self, vector):
        # finite components whose norm is no double are normalized, not
        # refused: the vector is scaled by 2^-1024 first, and no numpy warning
        v = np.array(vector, complex) * 2.0 ** -1024
        assert State.normalized(vector).vector.tobytes() == (v / _norm(v)).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_normalized_keeps_the_bits_of_a_finite_norm(self):
        # a finite norm of a vector above 2^280 is taken after the same
        # power-of-two scaling, not of the vector as given
        big = np.array([1e308, 1e308, 1e307j])
        v = big * 2.0 ** -1024
        assert State.normalized(big).vector.tobytes() == (v / _norm(v)).tobytes()

    @pytest.mark.parametrize("vector", [[1e200, 0], [1.5e308, 1.5e308j], [1e-300, 0],
                                        [5e-324, 5e-324]])
    def test_out_of_range_vector_is_refused_as_such(self, vector):
        # no unit vector has a part above 2^280 or all parts below 2^-280;
        # the sum of squares of the first two would overflow
        with pytest.raises(QuantumError, match="out of range"):
            State(vector)

    @pytest.mark.parametrize("vector, error, message", [
        ([0.5, 0], QuantumError, "state vector has norm 0.5, expected 1"),
        ([2, 0], QuantumError, "state vector has norm 2.0, expected 1"),
        ([math.nextafter(0.5, 0), 0], QuantumError,
         "state vector has norm 0.49999999999999994, expected 1"),
        ([math.nextafter(2, 3), 0], QuantumError,
         "state vector has norm 2.0000000000000004, expected 1"),
        ([math.nan, 0], ValueError, "vector has non-finite components"),
        ([complex(0, math.inf), 0], ValueError, "vector has non-finite components"),
        ([1e200, 0], QuantumError, "state vector is out of range: its norm is far from 1"),
        ([1e-300, 0], QuantumError, "state vector is out of range: its norm is far from 1"),
        ([], ValueError, "vector must have at least one component"),
        (np.eye(17)[0], DimensionMismatch, "dimension 17 exceeds supported maximum 16"),
    ], ids=["norm-half", "norm-two", "below-half", "above-two", "nan", "imaginary-inf",
            "huge", "tiny", "empty", "unit-of-17"])
    def test_refusals_around_the_norm_screen(self, vector, error, message):
        # State screens |v|^2 in [1/4, 4] by one np.vdot: inside, only the unit
        # check refuses; outside, each check refuses with its own type and message
        with pytest.raises(error) as exc:
            State(vector)
        assert type(exc.value) is error and str(exc.value) == message

    def test_screened_vectors_are_decided_by_the_unit_check(self):
        # a 2-D column is a vector; a few ulps either side of |n - 1| = eps,
        # State accepts exactly where _norm's n is within eps of 1
        assert State([[1], [0]]).vector.tolist() == [1, 0]
        decided = set()
        for x in (1 + EPS, 1 - EPS):
            for k in range(-4, 5):
                y = x + k * math.ulp(x)
                for v in (np.array([y, 0]), np.array([0.6 * y, 0.8j * y])):
                    want = abs(_norm(v) - 1.0) <= EPS
                    try:
                        State(v)
                    except QuantumError as exc:
                        assert str(exc).startswith("state vector has norm")
                        got = False
                    else:
                        got = True
                    assert got == want, (x, k)
                    decided.add(want)
        assert decided == {True, False}

    def test_subnormal_components_normalize_to_equal_components(self):
        # their norm, taken unscaled, is subnormal and keeps a few bits
        for tiny in (5e-324, 1e-320):
            psi = State.normalized([tiny, tiny])
            assert psi.vector[0] == psi.vector[1] == State.normalized([1, 1]).vector[0]

    def test_normalized_is_scale_free(self):
        # 2^k v gives the bytes of v at every k at which every nonzero part
        # of 2^k v is a normal double, from the subnormal end to the overflow
        # end; zero parts of either sign included
        rng = np.random.default_rng(67)
        vectors = [complex_parts(rng, n) for n in range(1, 17)]
        vectors += [np.array([3, -7j, 0, 1 + 2j]), np.array([1e-3, 1e3j])]
        for v in vectors:
            want = State.normalized(v).vector.tobytes()
            for k, (w,) in normal_scalings(v):
                assert State.normalized(w).vector.tobytes() == want, k


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

    @pytest.mark.filterwarnings("error")  # numpy's overflow in the sum is no warning
    @pytest.mark.parametrize("coefficients, refused",
                             [([1e308, 1e308], False), ([1.5e308, 1.5e308j], False),
                              ([math.inf], True), ([math.nan], True),
                              ([math.inf, -math.inf], True)],
                             ids=["sum-overflows", "modulus-overflows", "inf", "nan",
                                  "inf-minus-inf"])
    def test_non_finite_combination_overflows(self, coefficients, refused):
        # finite coefficients are scaled by powers of two first, so their sum
        # cannot overflow; a coefficient that is not finite is refused
        # before the cancellation test, which inf <= eps * inf would pass
        states = [UP_Z] * len(coefficients)
        if refused:
            with pytest.raises(QuantumError, match="coefficients must be finite"):
                superpose(coefficients, states)
        else:
            small = [c * 2.0 ** -1024 for c in coefficients]
            assert (superpose(coefficients, states).vector.tobytes()
                    == superpose(small, states).vector.tobytes())

    def test_superpose_is_scale_free(self):
        # 2^k c gives the bytes of c wherever every nonzero part of 2^k c is normal
        rng = np.random.default_rng(71)
        for n, k in ((1, 1), (2, 1), (2, 2), (3, 3), (4, 2), (5, 4), (8, 8), (16, 3)):
            states = [random_state(n, rng) for _ in range(k)]
            c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            want = superpose(c, states).vector.tobytes()
            for j, (w,) in normal_scalings(c):
                assert superpose(w, states).vector.tobytes() == want, j


class TestBorn:
    def test_eigenstate_gives_one(self):
        fam = x_family()
        assert born(UP_X, fam.subspace("up_x")) == pytest.approx(1.0, abs=1e-12)

    def test_up_z_against_x_line(self):
        # |<up_x|up_z>|^2 = 1/2 by hand
        assert born(UP_Z, x_family().subspace("up_x")) == pytest.approx(0.5, abs=1e-12)

    def test_zero_subspace_gives_zero(self):
        assert born(UP_Z, Subspace(2)) == 0.0

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

    def test_presence_is_the_membership_threshold(self):
        # psi = u + a v for unit u, v in two members: minimal finds no member
        # (psi is outside u's member) exactly when paraconsistent finds both
        # (v's Born weight a^2 / (1 + a^2) is at least eps^2), on every
        # two-member builtin family, with a log-spread over [1e-12, 1e-2]
        rng = np.random.default_rng(79)
        families = [fam for name in BUILTIN_NAMES for fam in builtin(name).families.values()
                    if len(fam.members) == 2]
        assert len(families) == 4
        checked = 0
        for fam in families:
            for (lu, su), (lv, sv) in (fam.members, fam.members[::-1]):
                for a in 10.0 ** rng.uniform(-12, -2, 100):
                    if abs(a - EPS) <= 1e-6 * EPS:
                        continue
                    phase = np.exp(2j * np.pi * rng.random())
                    psi = State.normalized(su.basis[:, 0] + a * phase * sv.basis[:, 0])
                    want = (set(), {lu, lv}) if a > EPS else ({lu}, {lu})
                    got = minimal_attribution(psi, fam), paraconsistent_attribution(psi, fam)
                    assert got == want, (fam, lu, a)
                    checked += 1
        assert checked == 800

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

    def test_hermitian_at_its_own_eps(self):
        # an asymmetry of 5e-7 is Hermitian at eps 1e-6, as hermitian_eig
        # decides there, and not at the default eps
        m = np.array([[0, 1], [1.0000005, 0]])
        obs = Observable(m, "X", 1e-6)
        assert obs.eps == 1e-6 and "eps" not in repr(obs)
        assert family_from_observable(obs, 1e-6).labels == ["-1", "1"]
        with pytest.raises(QuantumError, match="not Hermitian"):
            Observable(m, "X")

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
        # gaps and sums that are no doubles: taken at 1/16 they are exact
        ([1.7e308, -1.7e308], ["-1.7e+308", "1.7e+308"], [1, 1]),
        ([1.7e308, 1.7e308, 1], ["1", "1.7e+308"], [1, 2]),
        ([1.7e308] * 3, ["1.7e+308"], [3]),
    ])
    def test_eigenvalues_group_at_gaps_of_eps(self, spectrum, labels, dims):
        fam = family_from_observable(Observable(np.diag(spectrum), "D"))
        assert fam.labels == labels
        assert [s.dim for _, s in fam.members] == dims

    @pytest.mark.parametrize("spectrum, labels", [
        ([1, 1 + 1e-8, 2], ["1", "1.00000001", "2"]),  # at :g, '1' twice
        ([1e6, 1e6 + 0.5], ["1000000", "1000000.5"]),
        ([-3e-3, -3e-3 + 2e-9, 5], ["-0.003", "-0.002999998", "5"]),
        ([0.1, 0.1 + 2 ** -29, 0.1 + 2 ** -28], ["0.1", "0.100000002", "0.100000004"]),
    ])
    def test_labels_take_the_digits_that_tell_them_apart(self, spectrum, labels):
        # eigenvalues split at gaps of eps, which 6 significant digits can
        # merge into one label; every label gets the fewest digits that part them
        assert family_from_observable(Observable(np.diag(spectrum), "D")).labels == labels

    def test_labels_that_differ_at_6_digits_keep_their_bytes(self):
        # three separated eigenvalues and one more at 1.3e-9..1e-2 above the
        # first: the labels are :g's wherever those differ, and differ always
        rng = np.random.default_rng(83)
        kept = moved = 0
        while kept + moved < 300:
            base = np.round(rng.uniform(-50, 50, 3), int(rng.integers(0, 4)))
            if len(set(base)) < 3:
                continue
            spectrum = np.append(base, base[0] + 10.0 ** rng.uniform(-8.9, -2))
            evals, _ = hermitian_eig(np.diag(spectrum))
            labels = family_from_observable(Observable(np.diag(spectrum), "D")).labels
            g = [f"{x:g}" for x in evals]
            assert len(set(labels)) == 4
            if len(set(g)) == 4:
                assert labels == g
                kept += 1
            else:
                moved += 1
        assert kept > 100 and moved > 50

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
        members = [(lab, gram_schmidt(vs) if vs else Subspace(3))
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
        (lambda: OrthoFamily(2, [("a", Subspace(2, np.eye(2))), ("a", Subspace(2))]),
         QuantumError),
        (lambda: OrthoFamily(2, [("a", Subspace(2, np.eye(2))), ("z", Subspace(3))]),
         DimensionMismatch),
        (lambda: superpose([], []), QuantumError),
        (lambda: truth("up_x", UP_X), TypeError),
        # every part is evaluated: no literal's value short-circuits a stray part
        (lambda: truth(And((lit(x_family(), "up_x"), "x")), UP_Z), TypeError),
        (lambda: truth(Or((lit(x_family(), "up_x"), "x")), UP_X), TypeError),
        # every entry that takes eps refuses a bad one
        *[(lambda eps=eps: State([1, 0], eps), ValueError) for eps in BAD_EPS],
        *[(lambda eps=eps: paraconsistent_attribution(UP_X, x_family(), eps), ValueError)
          for eps in BAD_EPS],
        *[(lambda eps=eps: Observable(np.eye(2), "X", eps), ValueError) for eps in BAD_EPS],
    ], ids=["family-empty", "family-duplicate-labels", "family-mixed-ambient",
            "superpose-empty", "truth-non-proposition", "truth-and-false-part",
            "truth-or-true-part", *(f"state-eps-{i}" for i in BAD_EPS_IDS),
            *(f"paraconsistent-eps-{i}" for i in BAD_EPS_IDS),
            *(f"observable-eps-{i}" for i in BAD_EPS_IDS)])
    def test_refused_input_raises_its_type(self, make, error):
        with pytest.raises(error) as exc:
            make()
        assert type(exc.value) is error
        assert isinstance(exc.value, ValueError) == (error is not TypeError)
