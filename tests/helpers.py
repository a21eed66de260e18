"""Shared randomized constructions for the test suite.

Everything here is seeded: each helper takes a numpy Generator so tests
stay reproducible.
"""

import math

import numpy as np

from qopposition.linalg import Subspace, gram_schmidt
from qopposition.quantum import Literal, State

# each lies outside check_eps's interval [1e-13, 1e-3); the last three lie
# just below its floor, where the Subspace constructor's proof fails
BAD_EPS = [math.nan, -1e-9, 0.0, 1e-3, 9.9e-14, 1e-16, 5e-324]
BAD_EPS_IDS = ["nan", "negative", "zero", "1e-3", "9.9e-14", "1e-16", "5e-324"]


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


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def random_subspace(n, k, rng):
    if k == 0:
        return Subspace.zero(n)
    u = haar_unitary(n, rng)
    return gram_schmidt([u[:, i] for i in range(k)])


def random_literal(n, rng, allow_trivial=True):
    lo = 0 if allow_trivial else 1
    hi = n if allow_trivial else n - 1
    k = int(rng.integers(lo, hi + 1))
    return Literal(random_subspace(n, k, rng), asserted=bool(rng.integers(0, 2)))


def apply_unitary_subspace(u, s):
    if s.is_zero():
        return Subspace.zero(s.ambient_dim)
    return gram_schmidt([u @ s.basis[:, i] for i in range(s.dim)])


def apply_unitary_literal(u, lit):
    return Literal(apply_unitary_subspace(u, lit.subspace), lit.asserted)
