"""Small-dimension complex linear algebra: vectors, a LAPACK-backed
eigensolver for Hermitian matrices, and the subspace calculus
(membership, containment, intersection, orthocomplement).

Intersections and orthocomplements come from singular value
decompositions.  Every membership decision, the meet's included, is the
`contains` residual test at one eps; the single global default is EPS.
Inputs are validated once, at the public boundary; the meet and the
opposition walk share its kernel.  Subspaces are immutable values, functions pure.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# the tolerance lives with the numpy-free loader, so `qopp lp` reads it too
from .scenarios import EPS, check_eps

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
    below the smallest normal double (zero included) or infinite."""
    re, im = x.real, x.imag
    s = re.dot(re) + im.dot(im)
    if sys.float_info.min <= s < math.inf:
        return math.sqrt(s)
    m = float(np.max(np.abs(x)))
    return m * _norm(np.abs(x) / m) if m else 0.0


def _unit(v: np.ndarray, n: float) -> np.ndarray:
    """v / n for n = _norm(v) > 0; both scaled by 2^1022 first where 1/n overflows."""
    return v * 2.0 ** 1022 / (n * 2.0 ** 1022) if n < sys.float_info.min else v / n


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise DimensionMismatch(f"dimension {a.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix has non-finite entries")
    return a


def is_hermitian(m, eps: float = EPS) -> bool:
    a = as_matrix(m)
    return float(np.max(np.abs(a - a.conj().T))) < eps


def _canonical_phase(v: np.ndarray, eps: float) -> np.ndarray:
    """Rotate the global phase so the first component above eps is real and
    positive: a unit vector has one, of size >= 1/sqrt(MAX_DIM) = 1/4."""
    for x in v:
        if abs(x) > eps:
            return v * (abs(x) / x)


def hermitian_eig(m, eps: float = EPS):
    """Eigendecomposition of a Hermitian matrix by LAPACK (np.linalg.eigh)
    on its symmetrized form.

    Returns (eigenvalues, eigenvectors): eigenvalues ascending as a real
    array, eigenvectors as columns of a unitary matrix, phases fixed so
    the first nonzero component of each vector is real positive.  Ties in
    the eigenvalue sort are broken by the eigenvector components, compared
    as (re, im) pairs in order.
    """
    check_eps(eps)
    a = as_matrix(m)
    n = a.shape[0]
    if not is_hermitian(a, eps):
        raise ValueError("matrix is not Hermitian within eps")
    try:
        evals, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh failed: {exc}") from None
    vecs = np.column_stack([_canonical_phase(v[:, i].copy(), eps) for i in range(n)])
    # np.lexsort sorts by its last key first: evals, then re v_0i, im v_0i, re v_1i, ...
    keys = np.stack([vecs.real, vecs.imag], axis=1).reshape(2 * n, n)[::-1]
    order = np.lexsort(np.vstack([keys, evals]))
    return evals[order], np.ascontiguousarray(vecs[:, order])  # C order, as stacked


class Subspace:
    """A subspace of C^n held as an orthonormal basis (columns).

    The zero subspace has an empty basis; the ambient dimension is always
    carried explicitly.
    """

    def __init__(self, ambient_dim: int, basis: np.ndarray | None = None, eps: float = EPS):
        check_eps(eps)
        if not (1 <= ambient_dim <= MAX_DIM):
            raise ValueError(f"ambient_dim must be in 1..{MAX_DIM}")
        if basis is None or (hasattr(basis, "size") and basis.size == 0):
            basis = np.zeros((ambient_dim, 0), dtype=complex)
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != ambient_dim:
            raise DimensionMismatch(
                f"basis shape {basis.shape} incompatible with ambient dim {ambient_dim}")
        if basis.shape[1] > ambient_dim:
            raise ValueError("basis has more vectors than the ambient dimension")
        self._bh = basis.conj().T
        if basis.shape[1] and not np.max(
                np.abs(self._bh @ basis - np.eye(basis.shape[1]))) <= 10 * eps:
            raise ValueError("basis is not orthonormal within tolerance")
        self.ambient_dim = int(ambient_dim)
        self.basis = basis
        self.basis.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.eye(ambient_dim, dtype=complex))

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def contains(self, v, eps: float = EPS) -> bool:
        """Membership: residual of v against the subspace below eps*|v| (or
        0 where that underflows), at every scale; the zero vector is refused."""
        check_eps(eps)
        v = as_vector(v)
        if _norm(v) == 0.0:
            raise ValueError("membership is undefined for the zero vector")
        if v.size != self.ambient_dim:
            raise DimensionMismatch(f"vector dim {v.size} vs ambient {self.ambient_dim}")
        return self._contains(v, eps)

    def _contains(self, v: np.ndarray, eps: float) -> bool:
        """The membership kernel: v finite, nonzero, of the ambient size; eps checked."""
        return (r := _norm(v - self.basis @ (self._bh @ v))) < eps * _norm(v) or r == 0.0

    def is_subset(self, other: "Subspace", eps: float = EPS) -> bool:
        check_eps(eps)
        self._check_ambient(other)
        return all(other._contains(self.basis[:, i], eps) for i in range(self.dim))

    def is_zero(self) -> bool:
        return self.dim == 0

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
        bases may stray 10*eps per Gram entry (s = 160*eps over 16 columns),
        sigma_max(C)^2 > (1 - eps)^2 (1 - s)/(1 + s) > 1 - 324*eps.  So the
        meet is zero when |C|_F^2, or else sigma_max(C)^2, is at most
        1 - max(400*eps, 1e-4), which is at least 1.9e-5 and 76*eps under
        the bound: a margin far above rounding."""
        self._check_ambient(other)
        check_eps(eps)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim)
        cross = other._bh @ self.basis
        limit = 1.0 - max(400.0 * eps, 1e-4)
        if (np.vdot(cross, cross).real <= limit
                or np.linalg.svd(cross, compute_uv=False)[0] ** 2 <= limit):
            return Subspace.zero(self.ambient_dim)
        a, b = sorted((self, other), key=lambda s: (s.dim, s.basis.tobytes()))
        residual = a.basis - b.basis @ (b._bh @ a.basis)
        _, _, vh = np.linalg.svd(residual, full_matrices=False)
        dirs = a.basis @ vh[::-1].conj().T
        keep = [i for i in range(dirs.shape[1]) if b._contains(dirs[:, i], eps)]
        return Subspace(self.ambient_dim, dirs[:, keep], eps)

    def orthocomplement(self, eps: float = EPS) -> "Subspace":
        """The trailing left singular vectors of the basis."""
        check_eps(eps)
        if self.is_zero():
            return Subspace.full(self.ambient_dim)
        u, _, _ = np.linalg.svd(self.basis)
        return Subspace(self.ambient_dim, u[:, self.dim:], eps)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dims differ: {self.ambient_dim} vs {other.ambient_dim}")

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def gram_schmidt(vectors, eps: float = EPS) -> Subspace:
    """Orthonormalize (modified Gram-Schmidt).  A vector whose residual is
    at most eps times its own norm (the rule of `contains`) is dropped,
    zero vectors included.  The input list must be nonempty (the zero
    subspace is requested through Subspace.zero, which carries the ambient
    dimension explicitly)."""
    check_eps(eps)
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        raise ValueError("empty vector list: use Subspace.zero(ambient_dim)")
    n = vecs[0].size
    if any(v.size != n for v in vecs):
        raise DimensionMismatch("vectors do not share a dimension")
    basis: list[np.ndarray] = []
    for v in vecs:
        w = v.copy()
        for _ in range(2):  # one re-orthogonalization pass for stability
            for b in basis:
                w = w - np.vdot(b, w) * b
        r = _norm(w)
        if r > eps * _norm(v):
            basis.append(_unit(w, r))
    return Subspace(n, np.column_stack(basis) if basis else None, eps)
