import math
import warnings

import numpy as np
import pytest

from qopposition.linalg import (EPS, ConvergenceError, DimensionMismatch,
                                LinalgError, Subspace, _norm, as_matrix, as_vector,
                                gram_schmidt, hermitian_eig, is_hermitian)
from qopposition.quantum import Observable, State, family_from_observable

from helpers import (BAD_EPS, BAD_EPS_IDS, R2, angled_pair, at_slack, complex_parts,
                     haar_unitary, normal_scalings, random_hermitian, random_subspace,
                     random_state)

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("vectors, dim", [
        ([[1e-10, 0]], 1),  # tiny but independent: kept
        ([[1e6, 0], [1e6, 1e-4]], 1),  # contains puts the second in the first line
        ([[0, 0], [1, 0]], 1),  # a zero vector is dropped, not divided by zero
        ([[1e-170, 0]], 1),  # scaled first, as its square would underflow
        ([[1e200, 0], [1e200, 1e195]], 2),  # scaled first; residual 1e195 > eps·1e200
        ([[1e-310, 0]], 1),  # subnormal: scaled by powers of two before its norm
        ([[5e-324, 0]], 1),  # the smallest subnormal
    ], ids=[f"vectors{i}" for i in range(7)])
    def test_drops_by_the_relative_rule_of_contains(self, vectors, dim):
        s = gram_schmidt(vectors)
        assert s.dim == dim and s.contains([1, 0])
        assert np.isfinite(s.basis).all()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            gram_schmidt([])

    def test_nearly_dependent_subnormal_pair_spans_the_plane(self):
        # the second residual, about 1e-6 s, would be subnormal and keep a few
        # bits; scaled first, the pair is the one at scale 1
        s = 2.0 ** -1030
        assert gram_schmidt([[s, s], [s, s * (1 + 1e-6)]]).dim == 2

    def test_basis_is_scale_free(self):
        # 2^k times every vector gives the basis bytes of k = 0 at every k at
        # which every nonzero part is a normal double, zeros of either sign included
        rng = np.random.default_rng(73)
        for n in range(1, 9):
            vecs = [complex_parts(rng, n) for _ in range(int(rng.integers(1, n + 2)))]
            vecs.append(vecs[0] * 2 + 1e-7 * complex_parts(rng, n))  # nearly dependent
            want = gram_schmidt(vecs).basis.tobytes()
            for k, scaled in normal_scalings(*vecs):
                assert gram_schmidt(scaled).basis.tobytes() == want, (n, k)

    def test_nearly_parallel_vectors_come_out_orthonormal(self):
        # [1, 1, 1] + 1e-8 e_i: one orthogonalization pass leaves the output
        # about 1e-8 from orthonormal, past the constructor's 3/4 eps bound
        s = gram_schmidt([np.ones(3) + 1e-8 * e for e in np.eye(3)])
        assert s.dim == 3
        assert np.linalg.norm(s.basis.conj().T @ s.basis - np.eye(3)) <= 0.75 * EPS

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

    def test_phase_is_the_per_column_loop_bit_for_bit(self, monkeypatch):
        # the reference is the loop over columns: each times abs(x)/x for its
        # first entry x above eps, by numpy's scalar abs and division (np.abs
        # on an array rounds differently for some x).  LAPACK's first row is
        # real, so eigh is replaced by unitaries whose leading entries are
        # often zero or under eps, to make the first entry above eps complex.
        # n = 1 is left out: LAPACK's 1x1 eigenvector is 1, and numpy rounds a
        # one-element complex product differently by memory layout
        rng = np.random.default_rng(11)
        for n in range(2, 17):
            for eps in (EPS, 1e-6):
                v, h = haar_unitary(n, rng), n // 2
                v[:h] *= (rng.random((h, n)) < 0.3) + (rng.random((h, n)) < 0.3) * eps
                monkeypatch.setattr(np.linalg, "eigh", lambda _: (np.arange(n * 1.0), v))
                want = []
                for col in v.T:
                    x = next(x for x in col if abs(x) > eps)
                    want.append(col * (abs(x) / x))
                _, vecs = hermitian_eig(np.eye(n), eps)
                assert vecs.tobytes() == np.column_stack(want).tobytes()

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

    def test_extreme_finite_entries_do_not_overflow(self):
        # A + A^H and A - A^H overflow here; by halves they are exact
        evals, vecs = hermitian_eig([[1.7e308, 0], [0, -1.7e308]])
        assert evals.tolist() == [-1.7e308, 1.7e308]
        assert vecs.tolist() == [[0, 1], [1, 0]]
        assert not is_hermitian([[0, 1.7e308], [-1.7e308, 0]])
        assert is_hermitian([[1.7e308, 1.7e308j], [-1.7e308j, -1.7e308]])

    def test_spectrum_beyond_the_double_range_is_refused(self):
        # finite entries whose eigenvalue 2e308 is no double
        with pytest.raises(LinalgError, match="eigenvalue beyond the double range") as exc:
            hermitian_eig([[1e308, 1e308], [1e308, 1e308]])
        assert type(exc.value) is LinalgError


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
        assert not Subspace(3).contains([1, 2, 3])

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

    def test_zero_subset_of_anything(self):
        assert Subspace(2).is_subset(gram_schmidt([[1, 0]]))

    @pytest.mark.parametrize("eps", [math.nan, 0.0, 1e-3, 9.9e-14, 1e-16, 5e-324])
    def test_zero_subset_checks_eps(self, eps):
        # the zero subspace has no basis column to hand to contains
        with pytest.raises(ValueError, match="eps must lie"):
            Subspace(2).is_subset(gram_schmidt([[1, 0]]), eps=eps)

    def test_line_subset_of_full(self):
        assert gram_schmidt([[1, 0]]).is_subset(Subspace(2, np.eye(2)))

    def test_line_not_subset_of_other_line(self):
        assert not gram_schmidt([[1, 0]]).is_subset(gram_schmidt([[R2, R2]]))

    def test_intersect_orthogonal_lines(self):
        assert gram_schmidt([[1, 0]]).intersect(gram_schmidt([[0, 1]])).dim == 0

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
            assert s.intersect(c).dim == 0

    def test_zero_and_full_flags(self):
        assert Subspace(2).dim == 0
        s = Subspace(3, np.eye(3))
        assert s.dim == s.ambient_dim

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Subspace(2).intersect(Subspace(3))

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
                              else Subspace(n))
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
        # State, superpose, born, gram_schmidt and the loader take norms
        # with _norm; it must give np.linalg.norm's exact value, on
        # contiguous vectors and on strided column views, and numpy's inf or
        # nan on non-finite components, also beside tiny or huge finite ones
        rng = np.random.default_rng(41)
        for n in range(1, 17):
            for scale in 10.0 ** np.arange(-150, 151, 25):
                m = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) * scale
                for i in range(3):
                    for v in (m[:, i], m[:, i].copy()):
                        assert _norm(v) == float(np.linalg.norm(v))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's own inf - inf
            for bad in (math.inf, -math.inf, complex(0, math.inf), math.nan,
                        complex(math.nan, 1), complex(math.inf, math.nan)):
                for rest in ([], [0], [1e-200], [1], [1e200, 1e200j]):
                    for v in (np.array([bad, *rest], complex), np.array([*rest, bad], complex)):
                        want = float(np.linalg.norm(v))
                        assert _norm(v) == want or math.isnan(want) and math.isnan(_norm(v))

    def test_tiny_member_of_a_line(self):
        # 1e-165 squared underflows to zero; contains rescales v first
        line = gram_schmidt([[1, 0]])
        assert line.contains([1e-165, 0])
        assert not line.contains([1e-165, 1e-165])

    def test_residual_at_the_bound_is_outside(self):
        # membership is strict: [1, 1e-9] has residual exactly eps·|v| = 1e-9
        assert not Subspace(2, [[1], [0]]).contains([1, 1e-9])

    def test_zero_residual_of_the_smallest_subnormal(self):
        # contains scales 5e-324 up into [1/2, 1), so its bound eps^2 |v|^2
        # is at least 1e-26 / 4 and a residual of exactly 0 lies below it;
        # an eps small enough for that bound to underflow is refused
        line = gram_schmidt([[5e-324, 0]])
        assert line.contains([5e-324, 0])
        assert not line.contains([5e-324, 5e-324])
        with pytest.raises(ValueError, match="eps must lie"):
            line.contains([5e-324, 0], eps=1e-200)

    def test_membership_is_scale_free(self):
        # squares overflow above about 1e154 and underflow below about
        # 1e-154; contains rescales v by a power of two outside 2^(+-280)
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

    def test_membership_at_every_power_of_two(self):
        # integer components scale by 2^k exactly, from the subnormal end
        # (multiples of 2^-1074) to where the largest part would overflow
        a, b = np.array([1, 2j, 0, 3]), np.array([0, 1, 1 - 1j, 0])
        w = np.array([3, 0, 0, -1])  # orthogonal to a and b
        s = gram_schmidt([a, b])
        # relative offsets along w: 0, 7e-13, 7e-10, 1.4e-9, 7e-7; then generic
        cases = [(2 ** 40 * (a + b) + j * w, j < 2000) for j in (0, 1, 1000, 2000, 10 ** 6)]
        cases.append((a + w, False))
        for v, want in cases:
            assert s.contains(v) == want
            top = 1025 - math.frexp(float(np.max(np.abs(v.view(float)))))[1]
            for k in range(-1074, top):
                assert s.contains(2.0 ** k * v) == want, (v, k)

    def test_no_overflow_warning_at_large_scales(self):
        s = gram_schmidt([[1, 1j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert s.contains([1e300, 1e300j]) and not s.contains([1e300, -1e300j])
            # |v_0| rounds to inf although both of its parts are finite
            assert s.contains([1.5e308 * (1 + 1j), 1.5e308 * (1j - 1)])

    def test_agrees_with_the_numpy_residual_oracle(self):
        # members, near-members offset by a relative 1e-11..1e-7 into the
        # orthocomplement, and generic vectors, in subspaces of C^1..C^16:
        # contains decides as |v - B B^H v| < eps |v| with np.linalg.norm
        # wherever that ratio is not within 1e-6 (relative) of eps
        rng = np.random.default_rng(47)
        offsets = (1e-11, 1e-10, 5e-10, 0.999e-9, 1e-9, 1.001e-9, 2e-9, 1e-8, 1e-7)
        compared = skipped = 0
        for n in range(1, 17):
            for k in sorted({0, 1, n // 2, n - 1, n}):
                u = haar_unitary(n, rng)
                s = Subspace(n, u[:, :k])
                vs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)]
                for _ in range(3 if k else 0):
                    m = u[:, :k] @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
                    vs.append(m)
                    for c in u[:, k:].T[:2]:
                        vs += [m + t * np.linalg.norm(m) * c for t in offsets]
                for v in vs:
                    res = np.linalg.norm(v - s.basis @ (s.basis.conj().T @ v))
                    if abs(res / np.linalg.norm(v) - EPS) <= 1e-6 * EPS:
                        skipped += 1
                        continue
                    compared += 1
                    assert s.contains(v) == (res < EPS * np.linalg.norm(v)), (n, k, res)
        # 2,259 cases: only the 207 offsets of exactly 1e-9 lie within 1e-6 of eps
        assert (compared, skipped) == (2052, 207)


def _certificate_limit(eps):
    # the bound on the largest squared cosine that Subspace.intersect derives
    return 1.0 - 400.0 * eps


def _residual_svd_meet(s, t, eps):
    """The meet's basis as the residual SVD alone computes it."""
    a, b = sorted((s, t), key=lambda x: (x.dim, x.basis.tobytes()))
    residual = a.basis - b.basis @ (b._bh @ a.basis)
    _, _, vh = _SVD(residual, full_matrices=False)
    dirs = a.basis @ vh[::-1].conj().T
    return dirs[:, [i for i, d in enumerate(dirs.T)
                    if b._contains(d, eps * eps * float(np.vdot(d, d).real))]]


def _meet_cases(eps):
    """Seeded (n, k, side, s, t, fires) in C^2..C^16: orthogonal, sharing
    and generic pairs, then an angled pair whose smallest squared sine lies
    just above (fires, the certificate must settle it) or just below the
    certificate's gap, each also on bases at the Gram slack (fires None);
    last, two lines of C^2 1e-6 rad apart, whose residual 1e-6 is above
    eps = 1e-9 but whose squared residual is below it."""
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
            a, b = angled_pair(n, k, gap * side, rng)
            cases += [(a, b, side > 1), (at_slack(a, eps, rng), at_slack(b, eps, rng), None)]
        for a, b, fires in cases:
            yield n, k, side, Subspace(n, a, eps), Subspace(n, b, eps), fires
    line = [[math.cos(1e-6)], [math.sin(1e-6)]]
    yield 2, 1, None, Subspace(2, [[1], [0]], eps), Subspace(2, line, eps), None


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
        for n, k, side, s, t, fires in _meet_cases(eps):
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

    @pytest.mark.parametrize("eps", [1e-13, EPS, 2.5e-7, 1e-6, 9.9e-4])
    def test_meet_is_intersect_with_none_for_zero(self, eps):
        # the walk's _meet builds no zero subspace and is intersect otherwise
        empty = nonzero = 0
        for n, k, side, s, t, _ in _meet_cases(eps):
            for x, y in ((s, t), (t, s)):
                got, want = x._meet(y, eps), x.intersect(y, eps)
                assert (got is None) == (want.dim == 0), (n, k, side)
                if got is None:
                    empty += 1
                else:
                    nonzero += 1
                    assert got.ambient_dim == n and got.basis.shape == want.basis.shape
                    assert got.basis.tobytes() == want.basis.tobytes()
        assert empty and nonzero

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
                        assert s.intersect(t).dim == 0
            for theta in (0.1, 0.5, math.pi / 2):
                a = gram_schmidt([u[:, 0]])
                b = gram_schmidt([math.cos(theta) * u[:, 0] + math.sin(theta) * u[:, 1]])
                assert a.intersect(b).dim == b.intersect(a).dim == 0


class TestOrthonormalityRule:
    """The Subspace constructor's one orthonormality rule, |B^H B - I|_F <=
    3/4 eps: every column it accepts is a unit state inside its own span,
    and the library's own orthonormal bases pass it."""

    @pytest.mark.parametrize("eps", [1e-13, EPS, 1e-6, 9.9e-4])
    def test_accepted_columns_are_states_in_their_own_span(self, eps):
        # seeded bases at Frobenius distances of about 0.4..1.6 times the
        # bound, by a Hermitian factor B (I + t H) or an additive B + t N
        rng = np.random.default_rng(71)
        accepted = refused = 0
        worst = 0.0
        for n in range(1, 17):
            for k in sorted({1, (n + 1) // 2, n}):
                u = haar_unitary(n, rng)[:, :k]
                for t in (0.2, 0.3, 0.36, 0.37, 0.38, 0.5, 0.8):
                    h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                    h = h + h.conj().T
                    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
                    for b in (u @ (np.eye(k) + t * eps * h / np.linalg.norm(h)),
                              u + 2 * t * eps * z / np.linalg.norm(z)):
                        try:
                            s = Subspace(n, b, eps)
                        except ValueError:
                            refused += 1
                            continue
                        accepted += 1
                        for c in s.basis.T:
                            State(c, eps)
                            bound = eps * eps * float(np.vdot(c, c).real)
                            assert s._contains(c, bound), (n, k, t)
                            r = c - s.basis @ (s._bh @ c)
                            worst = max(worst, float(np.vdot(r, r).real) / bound)
        assert accepted > 300 and refused > 150, (accepted, refused)
        # the constructor's docstring bounds the ratio by 0.57, before rounding
        assert worst < 0.6

    @pytest.mark.parametrize("eps", [1e-13, EPS])
    def test_factorized_bases_are_accepted(self, eps):
        # bases from gram_schmidt, QR, hermitian_eig and intersect in C^1..C^16
        rng = np.random.default_rng(73)
        for n in range(1, 17):
            for _ in range(4):
                k = int(rng.integers(1, n + 1))
                z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
                assert gram_schmidt(list(z.T), eps).dim == k
                Subspace(n, np.linalg.qr(z)[0], eps)
                Subspace(n, hermitian_eig(random_hermitian(n, rng), eps)[1], eps)
                if k < n:
                    u = haar_unitary(n, rng) @ haar_unitary(n, rng)
                    a = gram_schmidt(list((u[:, :k] @ z[:k]).T), eps)
                    b = gram_schmidt(list(u[:, k - 1:].T), eps)
                    assert a.intersect(b, eps).dim == 1 and b.intersect(a, eps).dim == 1

    def test_basis_wider_than_the_space_is_refused(self):
        # n rows of a unitary of C^(n+1): B B^H = I, the closest that n + 1
        # columns come to orthonormal, and still |B^H B - I|_F = 1
        rng = np.random.default_rng(89)
        for n in range(1, 17):
            b = haar_unitary(n + 1, rng)[:n]
            e = b.conj().T @ b - np.eye(n + 1)
            assert abs(np.vdot(e, e).real - 1) < 1e-12
            with pytest.raises(ValueError) as exc:
                Subspace(n, b, 9.9e-4)
            assert type(exc.value) is ValueError

    @pytest.mark.parametrize("basis", [[[1e200], [0]], [[1e200, 0], [0, 1e200]],
                                       [[math.inf], [0]], [[math.nan], [0]]],
                             ids=["huge-column", "huge-plane", "inf", "nan"])
    def test_basis_beyond_the_double_range_is_refused_as_such(self, basis):
        # |B|_F^2 is taken by np.vdot, which does not warn, before B^H B is
        # formed, whose overflow or invalid value would reach the caller
        with pytest.raises(ValueError) as exc:
            Subspace(2, basis)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "basis is not orthonormal within tolerance"

    @pytest.mark.parametrize("eps", [1e-13, EPS])
    def test_gram_schmidt_at_the_eps_floor(self, eps):
        # 640 seeded sets of 1..n vectors in C^1..C^16; at eps 1e-15, below
        # check_eps's floor, gram_schmidt built bases that this rule refused
        rng = np.random.default_rng(79)
        for n in range(1, 17):
            for _ in range(40):
                k = int(rng.integers(1, n + 1))
                z = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
                assert gram_schmidt(list(z), eps).dim == k


class TestZeroSubspace:
    """The constructor's path for a basis with no columns: it skips the Gram
    check but keeps every other one."""

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    @pytest.mark.parametrize("make", [lambda n: Subspace(n, np.zeros((n, 0))),
                                      lambda n: Subspace(n, [[]] * n),
                                      Subspace],
                             ids=["zeros-basis", "empty-rows", "no-basis"])
    def test_empty_basis_is_the_zero_subspace(self, make, n):
        s = make(n)
        assert s.ambient_dim == n and s.dim == 0
        assert s.basis.shape == (n, 0) and s.basis.dtype == complex
        assert not s.basis.flags.writeable
        assert not s.contains(np.ones(n))
        assert s.is_subset(Subspace(n, np.eye(n))) and Subspace(n, np.eye(n)).intersect(s).dim == 0
        # the meet's certificate and the SVD decide the zero subspace with no
        # case of their own: it meets anything, on either side, in zero, and
        # its orthocomplement is spanned by the identity, bit for bit
        rng = np.random.default_rng(n)
        for other in [s, Subspace(n), Subspace(n, np.eye(n)),
                      *(random_subspace(n, k, rng) for k in range(1, n + 1))]:
            for meet in (s.intersect(other), other.intersect(s)):
                assert meet.ambient_dim == n and meet.dim == 0
        full = s.orthocomplement().basis
        assert full.dtype == complex and full.shape == (n, n)
        assert full.tobytes() == np.eye(n, dtype=complex).tobytes()

    @pytest.mark.parametrize("eps", [0.0, -1e-9, 1e-3, math.nan, 9.9e-14, 1e-16, 5e-324])
    @pytest.mark.parametrize("make", [lambda eps: Subspace(2, np.zeros((2, 0)), eps),
                                      lambda eps: Subspace(2, None, eps)],
                             ids=["zeros-basis", "no-basis"])
    def test_bad_eps_refused(self, make, eps):
        with pytest.raises(ValueError, match="eps"):
            make(eps)

    @pytest.mark.parametrize("n", [0, -1, 17])
    @pytest.mark.parametrize("make", [lambda n: Subspace(n, np.zeros((max(n, 0), 0))),
                                      Subspace],
                             ids=["zeros-basis", "no-basis"])
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
        # an array is judged by its shape, (ambient_dim, k), also when empty
        (lambda: Subspace(3, np.zeros((2, 0))), DimensionMismatch),
        (lambda: Subspace(3, np.zeros((5, 0))), DimensionMismatch),
        (lambda: Subspace(3, np.array([])), DimensionMismatch),
        (lambda: Subspace(2, []), DimensionMismatch),
        (lambda: Subspace(2, np.ones((2, 3))), ValueError),
        # a Gram deviation of 5e-8 lies far past the 3/4 eps bound
        (lambda: Subspace(2, [[math.sqrt(1 + 5e-8)], [0]]), ValueError),
        # the size is checked before the zero vector is refused
        (lambda: Subspace(2, [[1], [0]]).contains(np.zeros(3)), DimensionMismatch),
        (lambda: gram_schmidt([[1, 0], [1, 0, 0]]), DimensionMismatch),
        *[(lambda eps=eps: is_hermitian(np.eye(2), eps), ValueError) for eps in BAD_EPS],
    ], ids=["vector-empty", "vector-17", "matrix-not-square", "matrix-17",
            "matrix-nan", "ambient-0", "ambient-17", "basis-height",
            "empty-basis-short", "empty-basis-tall", "empty-basis-flat", "empty-basis-list",
            "basis-too-wide", "basis-not-orthonormal", "contains-zero-wrong-size",
            "vectors-mixed-sizes", *(f"is-hermitian-eps-{i}" for i in BAD_EPS_IDS)])
    def test_refused_input_raises_its_type(self, make, error):
        with pytest.raises(error) as exc:
            make()
        assert type(exc.value) is error and isinstance(exc.value, ValueError)
