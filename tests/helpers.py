"""Shared constructions for the test suite and tests/identity.py.

Everything here is seeded: each randomized helper takes a numpy Generator
so tests stay reproducible.
"""

import math

import numpy as np

from qopposition.linalg import Subspace, gram_schmidt
from qopposition.quantum import Literal, OrthoFamily, State

# each lies outside check_eps's interval [1e-13, 1e-3); the last three lie
# just below its floor, where the Subspace constructor's proof fails
BAD_EPS = [math.nan, -1e-9, 0.0, 1e-3, 9.9e-14, 1e-16, 5e-324]
BAD_EPS_IDS = ["nan", "negative", "zero", "1e-3", "9.9e-14", "1e-16", "5e-324"]

R2 = 1.0 / math.sqrt(2.0)


def x_family():
    return OrthoFamily(2, [("up_x", gram_schmidt([[R2, R2]])),
                           ("down_x", gram_schmidt([[R2, -R2]]))])


def lit(fam, member, asserted=True):
    return Literal(fam.subspace(member), asserted, fam, member, member)


def random_state(n, rng):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return State.normalized(z)


def complex_parts(rng, n):
    """n complex numbers whose real and imaginary parts are each standard
    normal or, with probability 1/4, a zero of either sign."""
    parts = rng.standard_normal((n, 2))
    return np.where(rng.random((n, 2)) < 0.25, 0.0 * parts, parts).view(complex)[:, 0]


def normal_scalings(*arrays):
    """(k, [2^k a for a in arrays]) for every k at which every nonzero real
    and imaginary part of every 2^k a is a normal double, from the subnormal
    end to the overflow end; each part is scaled exactly by np.ldexp."""
    parts = [np.array(a, complex).view(float) for a in arrays]
    flat = np.concatenate(parts)
    e = np.frexp(flat[flat != 0])[1]
    for k in range(-1021 - int(e.min()), 1025 - int(e.max())):
        yield k, [np.ldexp(p, k).view(complex) for p in parts]


def haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def at_slack(basis, eps, rng):
    """The same span on a basis B (I + t H), |H|_F = 1 Hermitian and
    t = 0.37 eps, whose Gram matrix strays 2t + t^2 = 0.74 eps in the
    Frobenius norm, just inside the 3/4 eps the Subspace constructor allows."""
    k = basis.shape[1]
    h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    h = h + h.conj().T
    return basis @ (np.eye(k) + 0.37 * eps * h / np.linalg.norm(h))


def angled_pair(n, k, sin2, rng):
    """Bases of two k-dim subspaces of C^n (2k <= n) whose smallest
    principal angle has squared sine sin2; the others lie in [pi/4, pi/2)."""
    u = haar_unitary(n, rng)
    angles = [math.asin(math.sqrt(sin2)), *rng.uniform(math.pi / 4, math.pi / 2, k - 1)]
    b = [math.cos(x) * u[:, j] + math.sin(x) * u[:, k + j] for j, x in enumerate(angles)]
    return u[:, :k], np.column_stack(b)


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def random_subspace(n, k, rng):
    if k == 0:
        return Subspace(n)
    u = haar_unitary(n, rng)
    return gram_schmidt([u[:, i] for i in range(k)])


def random_literal(n, rng, allow_trivial=True):
    lo = 0 if allow_trivial else 1
    hi = n if allow_trivial else n - 1
    k = int(rng.integers(lo, hi + 1))
    return Literal(random_subspace(n, k, rng), asserted=bool(rng.integers(0, 2)))


def apply_unitary_subspace(u, s):
    if s.dim == 0:
        return Subspace(s.ambient_dim)
    return gram_schmidt([u @ s.basis[:, i] for i in range(s.dim)])


def apply_unitary_literal(u, lit):
    return Literal(apply_unitary_subspace(u, lit.subspace), lit.asserted)


def generic_cell(props, pattern):
    """True when the truth pattern is a positive-measure event under Haar
    sampling: no literal pins the state inside a proper subspace or outside
    the whole space (membership in a proper subspace is a measure-zero
    event, so search can confirm it only through the constructed witnesses,
    not by sampling)."""
    for p, want in zip(props, pattern):
        inside_needed = want == p.asserted
        if inside_needed and p.subspace.dim < p.subspace.ambient_dim:
            return False
        if not inside_needed and p.subspace.dim == p.subspace.ambient_dim:
            return False
    return True
