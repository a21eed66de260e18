import math

import numpy as np
import pytest

from qopposition.linalg import (EPS, ConvergenceError, DimensionMismatch,
                                LinalgError, Subspace, _norm, as_matrix, as_vector,
                                gram_schmidt, hermitian_eig)
from qopposition.quantum import Observable, family_from_observable

from helpers import haar_unitary, random_hermitian, random_subspace, random_state

R2 = 1.0 / math.sqrt(2.0)
_SVD = np.linalg.svd


class TestGramSchmidt:
    def test_full_space(self):
        s = gram_schmidt([[1, 0], [0, 1]])
        assert s.dim == s.ambient_dim == 2

    def test_dependent_vector_dropped(self):
        s = gram_schmidt([[1, 0], [2, 0]])
        assert s.dim == 1
        assert s.contains([1, 0])

    def test_hand_orthonormalization(self):
        s = gram_schmidt([[1, 1], [1, -1]])
        assert s.dim == 2
        expected = np.array([[R2, R2], [R2, -R2]]).T
        assert np.allclose(np.abs(s.basis.conj().T @ expected), np.eye(2))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("vectors, dim", [
        ([[1e-10, 0]], 1),  # tiny but independent: kept
        ([[1e6, 0], [1e6, 1e-4]], 1),  # contains puts the second in the first line
        ([[0, 0], [1, 0]], 1),  # a zero vector is dropped, not divided by zero
        ([[1e-170, 0]], 1),  # its square underflows; the rescaled norm keeps it
        ([[1e200, 0], [1e200, 1e195]], 2),  # squares overflow; residual 1e195 > eps·1e200
        ([[1e-310, 0]], 1),  # subnormal norm: 1/r overflows unless rescaled
        ([[5e-324, 0]], 1),  # the smallest subnormal
    ], ids=[f"vectors{i}" for i in range(7)])
    def test_drops_by_the_relative_rule_of_contains(self, vectors, dim):
        s = gram_schmidt(vectors)
        assert s.dim == dim and s.contains([1, 0])
        assert np.isfinite(s.basis).all()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            gram_schmidt([])

    def test_nearly_parallel_vectors_come_out_orthonormal(self):
        # [1, 1, 1] + 1e-8 e_i: one orthogonalization pass leaves the output
        # about 1e-8 from orthonormal, past the constructor's 10*eps slack
        s = gram_schmidt([np.ones(3) + 1e-8 * e for e in np.eye(3)])
        assert s.dim == 3
        assert np.max(np.abs(s.basis.conj().T @ s.basis - np.eye(3))) <= 10 * EPS

    def test_output_satisfies_subspace_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, n + 2))
            vecs = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    for _ in range(k)]
            s = gram_schmidt(vecs)
            gram = s.basis.conj().T @ s.basis
            assert np.max(np.abs(gram - np.eye(s.dim))) < 1e-10
            assert 0 <= s.dim <= n


class TestHermitianEig:
    def test_identity(self):
        evals, _ = hermitian_eig(np.eye(2))
        assert np.allclose(evals, [1, 1])

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1
        evals, vecs = hermitian_eig([[0, 1], [1, 0]])
        assert np.allclose(evals, [-1, 1])
        assert np.allclose(np.abs(vecs[:, 0]), [R2, R2])
        assert np.allclose(vecs[:, 0] / vecs[0, 0], [1, -1])
        assert np.allclose(vecs[:, 1] / vecs[0, 1], [1, 1])

    def test_already_diagonal(self):
        evals, _ = hermitian_eig(np.diag([3.0, -2.0]))
        assert np.allclose(evals, [-2, 3])

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eig([[0, 1], [0, 0]])

    def test_reconstruction_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            m = random_hermitian(n, rng)
            evals, vecs = hermitian_eig(m)
            rebuilt = (vecs * evals) @ vecs.conj().T
            assert np.max(np.abs(rebuilt - m)) < 1e-7

    def test_eigenpair_residuals(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(4, rng)
        evals, vecs = hermitian_eig(m)
        for i in range(4):
            assert np.linalg.norm(m @ vecs[:, i] - evals[i] * vecs[:, i]) < 10 * EPS * 100

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(3, rng)
        u = haar_unitary(3, rng)
        for h in (m, u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T):
            a = hermitian_eig(h)
            b = hermitian_eig(h)
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            evals, _ = hermitian_eig(random_hermitian(4, rng))
            assert all(evals[i] <= evals[i + 1] for i in range(3))

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            hermitian_eig(np.eye(2))
        assert issubclass(ConvergenceError, LinalgError)


class TestSubspaceCalculus:
    def test_non_finite_basis_rejected(self):
        # a NaN Gram entry fails the orthonormality check, not passes it
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(2, np.array([[np.nan], [0]]))

    def test_contains_member(self):
        s = gram_schmidt([[1, 0]])
        assert s.contains([1, 0])

    def test_contains_orthogonal(self):
        s = gram_schmidt([[1, 0]])
        assert not s.contains([0, 1])

    def test_superposed_state_not_contained(self):
        # residual norm 1/sqrt2 for the equal superposition against a line
        s = gram_schmidt([[1, 0]])
        assert not s.contains([R2, R2])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            gram_schmidt([[1, 0]]).contains([0, 0])

    def test_zero_subspace_contains_nothing(self):
        assert not Subspace.zero(3).contains([1, 2, 3])

    def test_tiny_vectors_follow_the_relative_rule(self):
        # gram_schmidt keeps [1e-10, 0] as a line, and contains decides the
        # same vector by the same rule: only the zero vector is refused
        line = gram_schmidt([[1e-10, 0]])
        assert line.contains([1e-10, 0])
        assert not line.contains([1e-10, 1e-10])
        with pytest.raises(ValueError, match="zero vector"):
            line.contains([0, 0])

    def test_contains_rejects_a_wrong_size_vector(self):
        with pytest.raises(DimensionMismatch):
            gram_schmidt([[1, 0]]).contains([1, 0, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
    def test_contains_rejects_non_finite_vectors(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            gram_schmidt([[1, 0]]).contains([1, bad])

    def test_zero_vector_of_the_wrong_size_is_refused_as_zero(self):
        # the zero check comes before the size check
        with pytest.raises(ValueError, match="zero vector"):
            gram_schmidt([[1, 0]]).contains([0, 0, 0])

    def test_zero_subset_of_anything(self):
        assert Subspace.zero(2).is_subset(gram_schmidt([[1, 0]]))

    @pytest.mark.parametrize("eps", [math.nan, 0.0, 1e-3])
    def test_zero_subset_checks_eps(self, eps):
        # the zero subspace has no basis column to hand to contains
        with pytest.raises(ValueError, match="eps must lie"):
            Subspace.zero(2).is_subset(gram_schmidt([[1, 0]]), eps=eps)

    def test_line_subset_of_full(self):
        assert gram_schmidt([[1, 0]]).is_subset(Subspace.full(2))

    def test_line_not_subset_of_other_line(self):
        assert not gram_schmidt([[1, 0]]).is_subset(gram_schmidt([[R2, R2]]))

    def test_intersect_orthogonal_lines(self):
        assert gram_schmidt([[1, 0]]).intersect(gram_schmidt([[0, 1]])).is_zero()

    def test_intersect_idempotent(self):
        rng = np.random.default_rng(13)
        s = random_subspace(3, 2, rng)
        assert np.allclose(s.intersect(s).projector(), s.projector(), atol=1e-9)

    def test_intersect_planes_in_dim3(self):
        s = gram_schmidt([[1, 0, 0], [0, 1, 0]])
        t = gram_schmidt([[0, 1, 0], [0, 0, 1]])
        got = s.intersect(t)
        assert got.dim == 1 and got.contains([0, 1, 0])

    @pytest.mark.parametrize("theta, meet_dim", [(1e-5, 0), (1e-12, 1)])
    def test_near_parallel_lines_meet_by_contains(self, theta, meet_dim):
        # the meet keeps a direction iff contains() accepts it: lines 1e-5
        # rad apart have residual 1e-5 > eps, lines 1e-12 apart 1e-12 < eps
        a = gram_schmidt([[1, 0]])
        b = gram_schmidt([[math.cos(theta), math.sin(theta)]])
        assert a.intersect(b).dim == b.intersect(a).dim == meet_dim
        assert a.contains(b.basis[:, 0]) == (meet_dim == 1)

    def test_orthocomplement_of_line(self):
        got = gram_schmidt([[R2, R2]]).orthocomplement()
        assert got.dim == 1 and got.contains([R2, -R2])

    def test_orthocomplement_laws(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            s = random_subspace(n, int(rng.integers(0, n + 1)), rng)
            c = s.orthocomplement()
            assert s.dim + c.dim == n
            assert s.intersect(c).is_zero()

    def test_zero_and_full_flags(self):
        assert Subspace.zero(2).is_zero()
        s = Subspace.full(3)
        assert s.dim == s.ambient_dim

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Subspace.zero(2).intersect(Subspace.zero(3))

    def test_modular_law_on_common_orthogonal_family(self):
        # spans of subsets of one orthonormal family always satisfy
        # dim(S^T) + dim(S v T) = dim S + dim T
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            u = haar_unitary(n, rng)
            idx_s = [i for i in range(n) if rng.integers(0, 2)]
            idx_t = [i for i in range(n) if rng.integers(0, 2)]
            mk = lambda idx: (gram_schmidt([u[:, i] for i in idx]) if idx
                              else Subspace.zero(n))
            s, t = mk(idx_s), mk(idx_t)
            # the join of two such spans is the span of the union
            join_dim = len(set(idx_s) | set(idx_t))
            assert s.intersect(t).dim + join_dim == s.dim + t.dim

    def test_never_in_both_s_and_complement(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            s = random_subspace(n, int(rng.integers(0, n + 1)), rng)
            c = s.orthocomplement()
            v = random_state(n, rng).vector
            assert not (s.contains(v) and c.contains(v))

    def test_vector_sum_not_idempotent(self):
        # ||psi + psi|| = 2 for every unit psi (conjunction would be
        # idempotent; vector sum is not)
        rng = np.random.default_rng(31)
        for _ in range(20):
            psi = random_state(3, rng).vector
            assert abs(np.linalg.norm(psi + psi) - 2.0) < 1e-12


class TestMembershipKernel:
    def test_norm_is_numpys_bit_for_bit(self):
        # the walk and the meet decide membership with _norm; it must give
        # np.linalg.norm's exact value, on contiguous vectors and on the
        # strided column views that Subspace.intersect passes
        rng = np.random.default_rng(41)
        for n in range(1, 17):
            for scale in 10.0 ** np.arange(-150, 151, 25):
                m = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) * scale
                for i in range(3):
                    for v in (m[:, i], m[:, i].copy()):
                        assert _norm(v) == float(np.linalg.norm(v))

    def test_tiny_member_of_a_line(self):
        # 1e-165 squared underflows to zero; the rescaled norm does not
        line = gram_schmidt([[1, 0]])
        assert line.contains([1e-165, 0])
        assert not line.contains([1e-165, 1e-165])

    def test_residual_at_the_bound_is_outside(self):
        # membership is strict: [1, 1e-9] has residual exactly eps·|v| = 1e-9
        assert not Subspace(2, [[1], [0]]).contains([1, 1e-9])

    def test_zero_residual_of_the_smallest_subnormal(self):
        # eps·|v| underflows to 0 at 5e-324; a residual of exactly 0 is in
        line = gram_schmidt([[5e-324, 0]])
        assert line.contains([5e-324, 0])
        assert not line.contains([5e-324, 5e-324])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_membership_is_scale_free(self):
        # the plain sum of squares overflows above about 1e154 (numpy warns)
        # and underflows below about 1e-154; _norm rescales only there
        rng = np.random.default_rng(43)
        scales = 10.0 ** np.arange(-300, 301, 20)
        for n, k in ((2, 1), (5, 2), (16, 7)):
            s = random_subspace(n, k, rng)
            inside = s.basis @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            outside = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for v, want in ((inside, True), (outside, False)):
                assert s.contains(v) == want
                for c in scales:
                    assert s.contains(c * v) == want, (n, k, c)


def _certificate_limit(eps):
    # the bound on the largest squared cosine that Subspace.intersect derives
    return 1.0 - max(400.0 * eps, 1e-4)


def _residual_svd_meet(s, t, eps):
    """The meet's basis as the residual SVD alone computes it."""
    a, b = sorted((s, t), key=lambda x: (x.dim, x.basis.tobytes()))
    residual = a.basis - b.basis @ (b._bh @ a.basis)
    _, _, vh = _SVD(residual, full_matrices=False)
    dirs = a.basis @ vh[::-1].conj().T
    return dirs[:, [i for i in range(dirs.shape[1]) if b._contains(dirs[:, i], eps)]]


def _at_slack(basis, eps, rng):
    """The same span on a basis whose Gram matrix strays about 9*eps per
    entry, just inside the 10*eps the Subspace constructor allows."""
    k = basis.shape[1]
    h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    h = h + h.conj().T
    return basis @ (np.eye(k) + 4.5 * eps * h / np.max(np.abs(h)))


def _angled_pair(n, k, sin2, rng):
    """Bases of two k-dim subspaces of C^n (2k <= n) whose smallest
    principal angle has squared sine sin2; the others lie in [pi/4, pi/2)."""
    u = haar_unitary(n, rng)
    angles = [math.asin(math.sqrt(sin2)), *rng.uniform(math.pi / 4, math.pi / 2, k - 1)]
    b = [math.cos(x) * u[:, j] + math.sin(x) * u[:, k + j] for j, x in enumerate(angles)]
    return u[:, :k], np.column_stack(b)


class TestMeetCertificate:
    """Subspace.intersect returns the zero meet without the residual SVD
    when the cosines of the cross-Gram matrix show that no direction can
    pass the membership kernel."""

    @pytest.mark.parametrize("eps", [1e-13, EPS, 2.5e-7, 1e-6, 9.9e-4])
    def test_sound_and_bit_exact(self, eps, monkeypatch):
        residual_svds = []

        def counting_svd(m, *args, compute_uv=True, **kwargs):
            residual_svds.append(compute_uv)
            return _SVD(m, *args, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rng = np.random.default_rng(67)
        gap = 1.0 - _certificate_limit(eps)
        for n in range(2, 17):
            u = haar_unitary(n, rng)
            ka = int(rng.integers(1, n))
            kb = int(rng.integers(1, n - ka + 1))
            cases = [(u[:, :ka], u[:, n - kb:], None),             # orthogonal
                     (u[:, :ka], u[:, ka - 1:ka - 1 + kb], None),  # one shared direction
                     (u[:, :ka], random_subspace(n, kb, rng).basis, None)]  # generic
            k = int(rng.integers(1, n // 2 + 1))
            for side in (1 + 1e-3, 1 - 1e-3):
                a, b = _angled_pair(n, k, gap * side, rng)
                cases += [(a, b, side > 1), (_at_slack(a, eps, rng), _at_slack(b, eps, rng), None)]
            for a, b, fires in cases:
                s, t = Subspace(n, a, eps), Subspace(n, b, eps)
                for x, y in ((s, t), (t, s)):
                    residual_svds.clear()
                    got = x.intersect(y, eps).basis
                    fired = True not in residual_svds
                    want = _residual_svd_meet(x, y, eps)
                    if fired:
                        assert want.shape[1] == 0, (n, x.dim, y.dim)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                    if fires is not None:
                        assert fired == fires, (n, k, side)

    def test_empty_meets_skip_the_residual_svd(self, monkeypatch):
        # a later edit must not drop the certificate: the meets of members
        # of one family and of lines at least 0.1 rad apart are settled by
        # the Frobenius norm alone, with no SVD at all
        def no_svd(*args, **kwargs):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        rng = np.random.default_rng(61)
        for n in range(2, 17):
            u = haar_unitary(n, rng)
            spectrum = rng.integers(0, 4, n).astype(float)
            fam = family_from_observable(Observable((u * spectrum) @ u.conj().T))
            subs = [sub for _, sub in fam.members]
            for s in subs:
                for t in subs:
                    if s is not t:
                        assert s.intersect(t).is_zero()
            for theta in (0.1, 0.5, math.pi / 2):
                a = gram_schmidt([u[:, 0]])
                b = gram_schmidt([math.cos(theta) * u[:, 0] + math.sin(theta) * u[:, 1]])
                assert a.intersect(b).is_zero() and b.intersect(a).is_zero()


class TestZeroSubspace:
    """The constructor's path for a basis with no columns: it skips the Gram
    check but keeps every other one."""

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    @pytest.mark.parametrize("make", [lambda n: Subspace(n, np.zeros((n, 0))),
                                      Subspace.zero, Subspace],
                             ids=["zeros-basis", "zero", "no-basis"])
    def test_empty_basis_is_the_zero_subspace(self, make, n):
        s = make(n)
        assert s.ambient_dim == n and s.dim == 0 and s.is_zero()
        assert s.basis.shape == (n, 0) and s.basis.dtype == complex
        assert not s.basis.flags.writeable
        assert not s.contains(np.ones(n))
        assert s.is_subset(Subspace.full(n)) and Subspace.full(n).intersect(s).is_zero()

    @pytest.mark.parametrize("eps", [0.0, -1e-9, 1e-3, math.nan])
    @pytest.mark.parametrize("make", [lambda eps: Subspace(2, np.zeros((2, 0)), eps),
                                      lambda eps: Subspace(2, None, eps)],
                             ids=["zeros-basis", "no-basis"])
    def test_bad_eps_refused(self, make, eps):
        with pytest.raises(ValueError, match="eps"):
            make(eps)

    @pytest.mark.parametrize("n", [0, -1, 17])
    @pytest.mark.parametrize("make", [lambda n: Subspace(n, np.zeros((max(n, 0), 0))),
                                      Subspace.zero],
                             ids=["zeros-basis", "zero"])
    def test_bad_ambient_dimension_refused(self, make, n):
        with pytest.raises(ValueError, match="ambient_dim") as exc:
            make(n)
        assert type(exc.value) is ValueError


class TestRefusals:
    @pytest.mark.parametrize("make, error", [
        (lambda: as_vector([]), ValueError),
        (lambda: as_vector(np.ones(17)), DimensionMismatch),
        (lambda: as_matrix(np.ones((2, 3))), ValueError),
        (lambda: as_matrix(np.eye(17)), DimensionMismatch),
        (lambda: as_matrix([[1, np.nan], [0, 1]]), ValueError),
        (lambda: Subspace(0), ValueError),
        (lambda: Subspace(17), ValueError),
        (lambda: Subspace(3, np.eye(2)), DimensionMismatch),
        (lambda: Subspace(2, np.ones((2, 3))), ValueError),
        # a Gram deviation of 5e-8 lies between the 10*eps slack and 100*eps
        (lambda: Subspace(2, [[math.sqrt(1 + 5e-8)], [0]]), ValueError),
        (lambda: gram_schmidt([[1, 0], [1, 0, 0]]), DimensionMismatch),
    ], ids=["vector-empty", "vector-17", "matrix-not-square", "matrix-17",
            "matrix-nan", "ambient-0", "ambient-17", "basis-height",
            "basis-too-wide", "basis-not-orthonormal", "vectors-mixed-sizes"])
    def test_refused_input_raises_its_type(self, make, error):
        with pytest.raises(error) as exc:
            make()
        assert type(exc.value) is error and isinstance(exc.value, ValueError)
