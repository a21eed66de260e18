"""Small-dimension complex linear algebra: vectors, a LAPACK-backed
eigensolver for Hermitian matrices, and the subspace calculus
(membership, containment, intersection, orthocomplement).

Intersections and orthocomplements come from singular value decompositions.
Membership is one kernel, the squared residual against eps^2 |v|^2 at one
eps (default EPS), and orthonormality one rule, the Subspace constructor's,
derived from that eps.  `contains` validates and rescales its input; the meet,
`is_subset` and the walk pass it unit vectors.  Subspaces immutable, functions pure.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# the tolerance has a module of its own, so this one loads no scenario loader
from ._eps import EPS, check_eps

MAX_DIM = 16


class LinalgError(ValueError):
    pass


class DimensionMismatch(LinalgError):
    pass


class ConvergenceError(LinalgError):
    pass


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-d complex array, rejecting NaN/Inf components."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.size < 1:
        raise ValueError("vector must have at least one component")
    if a.size > MAX_DIM:
        raise DimensionMismatch(f"dimension {a.size} exceeds supported maximum {MAX_DIM}")
    if not np.isfinite(a).all():
        raise ValueError("vector has non-finite components")
    return a


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a 1-d complex array, bit for bit, without its
    dispatch; rescaled by max |x_i| only where the plain sum of squares is
    below the smallest normal double or infinite and that max is finite and nonzero."""
    re, im = x.real, x.imag
    s = re.dot(re) + im.dot(im)
    if sys.float_info.min <= s < math.inf:
        return math.sqrt(s)
    m = float(np.max(np.abs(x)))
    return m * _norm(np.abs(x) / m) if 0.0 < m < math.inf else math.sqrt(s)


def _scaled(v: np.ndarray) -> np.ndarray:
    """v where m = max |v_i| lies in (2^-280, 2^280); else v times two exact
    powers of two (2^1073 alone overflows) that bring min(m, max double) into [1/2, 1)."""
    m = float(np.abs(v).max())
    if 2.0 ** -280 < m < 2.0 ** 280:
        return v
    h = -math.frexp(min(m, sys.float_info.max))[1]
    parts = np.ascontiguousarray(v).view(float)  # a complex product can turn -0.0 to +0.0
    return (parts * 2.0 ** (h // 2) * 2.0 ** (h - h // 2)).view(complex)


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise DimensionMismatch(f"dimension {a.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def is_hermitian(m, eps: float = EPS) -> bool:
    check_eps(eps)
    a = as_matrix(m) / 2.0  # by halves, exact on normal doubles: A - A^H cannot overflow
    return float(np.max(np.abs(a - a.conj().T))) < eps / 2.0


def hermitian_eig(m, eps: float = EPS):
    """Eigendecomposition of a Hermitian matrix by LAPACK (np.linalg.eigh)
    on its symmetrized form, taken by halves (exact on normal doubles) so
    that it cannot overflow; a spectrum that is not finite is refused.

    Returns (eigenvalues, eigenvectors): eigenvalues ascending as a real
    array, eigenvectors as columns of a unitary matrix, each column times
    |x|/x for its first component x above eps (a unit vector has one, of
    size >= 1/sqrt(MAX_DIM) = 1/4), so x turns real positive; |x| is np.hypot,
    which rounds as abs() of a numpy complex scalar does (np.abs on an array
    does not always).  Ties in the eigenvalue sort are broken by the
    eigenvector components, compared as (re, im) pairs in order.
    """
    if not is_hermitian(m, eps):
        raise ValueError("matrix is not Hermitian within eps")
    a = as_matrix(m)
    n = a.shape[0]
    try:
        evals, v = np.linalg.eigh(a / 2.0 + a.conj().T / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh failed: {exc}") from None
    if not np.isfinite(evals).all():
        raise LinalgError("matrix has an eigenvalue beyond the double range")
    size = np.hypot(v.real, v.imag)
    first = np.argmax(size > eps, axis=0), np.arange(n)
    vecs = v * (size[first] / v[first])
    # np.lexsort sorts by its last key first: evals, then re v_0i, im v_0i, re v_1i, ...
    keys = np.stack([vecs.real, vecs.imag], axis=1).reshape(2 * n, n)[::-1]
    order = np.lexsort(np.vstack([keys, evals]))
    return evals[order], np.ascontiguousarray(vecs[:, order])  # C order, as stacked


class Subspace:
    """A subspace of C^n held as a basis B (columns) whose E = B^H B - I
    has |E|_F <= d = 3/4 eps, the library's one orthonormality rule.  So a
    column c = B e_j has ||c|^2 - 1| = |E_jj| <= d, and State takes it; its
    residual r = c - B B^H c = -B E e_j has |r|^2 <= (1 + d) d^2 < 0.57 eps^2
    |c|^2, inside its own span for _contains by a margin above rounding (about
    n 2^-53).  |E|_F is invariant under unitary mixing of the columns and does
    not grow on dropping some, so the meet's directions pass too.  The zero
    subspace has an empty basis and an explicit ambient dimension."""

    def __init__(self, ambient_dim: int, basis: np.ndarray | None = None, eps: float = EPS):
        check_eps(eps)
        if not (1 <= ambient_dim <= MAX_DIM):
            raise ValueError(f"ambient_dim must be in 1..{MAX_DIM}")
        basis = np.asarray(np.zeros((ambient_dim, 0)) if basis is None else basis, complex)
        if basis.ndim != 2 or basis.shape[0] != ambient_dim:
            raise DimensionMismatch(
                f"basis shape {basis.shape} incompatible with ambient dim {ambient_dim}")
        if basis.shape[1] > ambient_dim:  # the rule below refuses it too, at k^2 memory
            raise ValueError("basis has more vectors than the ambient dimension")
        self._bh = basis.conj().T
        # |B|_F^2 = tr(B^H B) is k within eps; np.vdot takes it without an overflow warning
        k = basis.shape[1]
        if k and not (np.vdot(basis, basis).real <= 2 * k and np.vdot(
                e := self._bh @ basis - np.eye(k), e).real <= (0.75 * eps) ** 2):
            raise ValueError("basis is not orthonormal within tolerance")
        self.ambient_dim = int(ambient_dim)
        self.basis = basis
        self.basis.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def contains(self, v, eps: float = EPS) -> bool:
        """Membership: residual of v against the subspace below eps*|v|,
        at every scale, as v is first `_scaled`.  The zero vector is refused."""
        check_eps(eps)
        v = as_vector(v)
        if v.size != self.ambient_dim:
            raise DimensionMismatch(f"vector dim {v.size} vs ambient {self.ambient_dim}")
        v = _scaled(v)
        q = float(np.vdot(v, v).real)  # at least 2^-560 unless v is zero
        if q == 0.0:
            raise ValueError("membership is undefined for the zero vector")
        return self._contains(v, eps * eps * q)

    def _contains(self, v: np.ndarray, bound: float) -> bool:
        """The membership kernel: |v - B B^H v|^2 below bound = eps^2 |v|^2;
        v finite, nonzero, of the ambient size, its squares neither under- nor overflowing."""
        r = v - self.basis.dot(self._bh.dot(v))
        return float(np.vdot(r, r).real) < bound

    def is_subset(self, other: "Subspace", eps: float = EPS) -> bool:
        check_eps(eps)
        self._check_ambient(other)
        return all(other._contains(c, eps * eps * float(np.vdot(c, c).real))
                   for c in self.basis.T)

    def intersect(self, other: "Subspace", eps: float = EPS) -> "Subspace":
        """Meet of two subspaces by principal angles (Bjorck & Golub 1973).

        Of the two arguments, a is the one of smaller dimension (ties go to
        the smaller basis bytes), so the result does not depend on their
        order.  For each right singular vector v of the residual
        (I - P_b) B_a, the unit direction B_a v lies in a and its residual
        against b is the matching singular value.  The meet is spanned by
        the directions that the membership kernel of `contains` accepts in
        b: a singular value below eps, decided by the same test at the same
        eps as truth(), so rounding at the threshold cannot emit a meet
        vector that fails membership.  Smallest residual first.

        Empty meets are certified first.  With C = B_b^H B_a, a direction
        d = B_a x that the kernel accepts has |B_b C x| > (1 - eps)|d|; as
        the constructor bounds |B^H B - I|_2 <= |B^H B - I|_F <= s = 3/4 eps,
        sigma_max(C)^2 > (1 - eps)^2 (1 - s)/(1 + s) > 1 - 4*eps.  So the
        meet is zero when |C|_F^2, or else sigma_max(C)^2, is at most
        1 - 400*eps, 396*eps >= 3.96e-11 under the bound: a margin far
        above rounding.  A zero subspace gives an empty C, |C|_F = 0.
        `_meet` is this meet, but None where it is zero: the walk builds no empty meet."""
        return self._meet(other, eps) or Subspace(self.ambient_dim)

    def _meet(self, other: "Subspace", eps: float) -> "Subspace | None":
        self._check_ambient(other)
        check_eps(eps)
        cross = other._bh.dot(self.basis)
        limit = 1.0 - 400.0 * eps
        if (np.vdot(cross, cross).real <= limit
                or np.linalg.svd(cross, compute_uv=False)[0] ** 2 <= limit):
            return None
        a, b = sorted((self, other), key=lambda s: (s.dim, s.basis.tobytes()))
        residual = a.basis - b.basis @ (b._bh @ a.basis)
        _, _, vh = np.linalg.svd(residual, full_matrices=False)
        dirs = a.basis @ vh[::-1].conj().T
        keep = [i for i, d in enumerate(dirs.T)
                if b._contains(d, eps * eps * float(np.vdot(d, d).real))]
        return Subspace(self.ambient_dim, dirs[:, keep], eps) if keep else None

    def orthocomplement(self, eps: float = EPS) -> "Subspace":
        """The trailing left singular vectors of the basis (for n x 0, all of np.eye(n))."""
        check_eps(eps)
        u, _, _ = np.linalg.svd(self.basis)
        return Subspace(self.ambient_dim, u[:, self.dim:], eps)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dims differ: {self.ambient_dim} vs {other.ambient_dim}")

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def gram_schmidt(vectors, eps: float = EPS) -> Subspace:
    """Orthonormalize (modified Gram-Schmidt) the `_scaled` vectors, so no
    norm is subnormal and 2^k v gives the bits of v.  A vector whose residual
    is at most eps times its own norm (the rule of `contains`) is dropped,
    zero vectors included.  The input list must be nonempty (the zero
    subspace is Subspace(ambient_dim), which names its ambient dimension)."""
    check_eps(eps)
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        raise ValueError("empty vector list: use Subspace(ambient_dim)")
    n = vecs[0].size
    if any(v.size != n for v in vecs):
        raise DimensionMismatch("vectors do not share a dimension")
    basis: list[np.ndarray] = []
    for v in map(_scaled, vecs):
        w = v
        for _ in range(2):  # one re-orthogonalization pass for stability
            for b in basis:
                w = w - np.vdot(b, w) * b
        r = _norm(w)
        if r > eps * _norm(v):
            basis.append(w / r)
    return Subspace(n, np.column_stack(basis) if basis else None, eps)
