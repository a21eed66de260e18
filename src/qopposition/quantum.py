"""States, observables, propositions-as-projectors, Born probabilities,
and the two rival property-attribution semantics.

A proposition is an eigenspace plus a polarity.  Negation is read as set
complement on the unit sphere ("the system does not have the property"),
not as the orthocomplement subspace: a superposed state satisfies both
negations, which is what keeps contraries distinct from contradictories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

import numpy as np

from .linalg import (EPS, MAX_DIM, DimensionMismatch, Subspace, _norm, _scaled, as_vector,
                     as_matrix, check_eps, hermitian_eig, is_hermitian)


class QuantumError(ValueError):
    pass


class State:
    """A pure state: a unit vector."""

    def __init__(self, vector, eps: float = EPS):
        check_eps(eps)
        v = np.asarray(vector, dtype=complex).reshape(-1)
        # np.vdot does not warn on overflow; a finite |v|^2 in [1/4, 4] puts max |v_i| in [1/8, 2]
        if not (v.size <= MAX_DIM and 0.25 <= np.vdot(v, v).real <= 4.0):
            v = as_vector(v)
            if _scaled(v) is not v:  # no unit vector has a part above 2^280 or all below 2^-280
                raise QuantumError("state vector is out of range: its norm is far from 1")
        n = _norm(v)
        if abs(n - 1.0) > eps:
            raise QuantumError(f"state vector has norm {n}, expected 1")
        self.vector = v
        self.vector.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vector.size

    @staticmethod
    def normalized(vector, eps: float = EPS) -> "State":
        """vector / its norm, `_scaled` first: 2^k v gives the bits of v."""
        v = _scaled(as_vector(vector))
        n = _norm(v)
        if n == 0.0:
            raise QuantumError("cannot normalize a (near-)zero vector")
        return State(v / n, eps)

    def __repr__(self):
        return f"State({self.vector.tolist()})"


@dataclass(frozen=True)
class Observable:
    matrix: np.ndarray
    label: str = ""
    eps: float = field(default=EPS, compare=False, repr=False)  # of the Hermitian check

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if not is_hermitian(m, self.eps):
            raise QuantumError(f"observable {self.label!r} is not Hermitian")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class OrthoFamily:
    """An ordered family of pairwise-orthogonal labeled subspaces that
    jointly span the whole space (the eigenspace decomposition of some
    observable)."""

    def __init__(self, ambient_dim: int, members, eps: float = EPS):
        check_eps(eps)
        members = [(str(label), sub) for label, sub in members]
        if not members:
            raise QuantumError("an orthogonal family needs at least one member")
        labels = [lab for lab, _ in members]
        if len(set(labels)) != len(labels):
            raise QuantumError(f"duplicate member labels in family: {labels}")
        for lab, sub in members:
            if sub.ambient_dim != ambient_dim:
                raise DimensionMismatch(f"member {lab!r} has wrong ambient dimension")
        self.basis = np.hstack([sub.basis for _, sub in members])  # the eigenbasis
        # one Gram matrix for every pair of members: a zero-dimensional member
        # owns no column, and min() names the first offending pair in order
        owner = np.repeat(np.arange(len(members)), [sub.dim for _, sub in members])
        gram = np.abs(self.basis.conj().T @ self.basis)
        rows, cols = np.nonzero((gram > eps) & (owner[:, None] < owner))
        if rows.size:
            i, j = min(zip(owner[rows], owner[cols]))
            raise QuantumError(f"members {labels[i]!r} and {labels[j]!r} are not orthogonal")
        # orthonormal bases of pairwise-orthogonal members are linearly
        # independent, so they span C^n exactly when their dimensions add
        # up to n; a sum above n cannot pass the orthogonality check
        if self.basis.shape[1] != ambient_dim:
            raise QuantumError("family members do not span the whole space")
        self.ambient_dim = int(ambient_dim)
        self.members = tuple(members)
        self.basis.setflags(write=False)

    @property
    def labels(self):
        return [lab for lab, _ in self.members]

    def subspace(self, label: str) -> Subspace:
        for lab, sub in self.members:
            if lab == label:
                return sub
        raise KeyError(f"no member {label!r} in family (have {self.labels})")

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __repr__(self):
        return f"OrthoFamily(dim={self.ambient_dim}, members={self.labels})"


@dataclass(frozen=True)
class Literal:
    """An atomic quantum proposition: membership (or non-membership) of the
    state in an eigenspace."""
    subspace: Subspace
    asserted: bool = True
    family: OrthoFamily | None = field(default=None, compare=False)
    member: str | None = None
    name: str | None = None

    def negate(self) -> "Literal":
        return Literal(self.subspace, not self.asserted, self.family,
                       self.member, self.name)

    def display(self) -> str:
        base = self.name or self.member or "p"
        return base if self.asserted else "!" + base


@dataclass(frozen=True)
class And:
    parts: tuple

    def negate(self):
        return Or(tuple(p.negate() for p in self.parts))

    def display(self) -> str:
        return "(" + " & ".join(p.display() for p in self.parts) + ")"


@dataclass(frozen=True)
class Or:
    parts: tuple

    def negate(self):
        return And(tuple(p.negate() for p in self.parts))

    def display(self) -> str:
        return "(" + " | ".join(p.display() for p in self.parts) + ")"


Proposition = Literal | And | Or


def leaves(p: Proposition):
    if isinstance(p, Literal):
        return [p]
    if not isinstance(p, (And, Or)):
        raise TypeError(f"not a proposition: {p!r}")
    return [leaf for part in p.parts for leaf in leaves(part)]


def ambient_dim_of(subspaces) -> int:
    """The ambient dimension that every subspace given shares."""
    dims = {s.ambient_dim for s in subspaces}
    if not dims:
        raise QuantumError("no leaf subspace, so no ambient dimension to decide in")
    if len(dims) != 1:
        raise DimensionMismatch(f"leaves mix ambient dimensions {sorted(dims)}")
    return dims.pop()


def evaluate(p: Proposition, leaf, full):
    """The truth of p, folded from leaf(subspace), the truth of membership
    in each leaf: a bool at one state (full=True), an int with one bit per
    membership pattern (full has every bit), or a numpy bool array over
    sampled states.  Negation is set complement, full ^ leaf(...), and And
    and Or fold their parts with & and |, every part evaluated."""
    if isinstance(p, Literal):
        inside = leaf(p.subspace)
        return inside if p.asserted else full ^ inside
    if isinstance(p, And):
        return reduce(and_, (evaluate(part, leaf, full) for part in p.parts), full)
    if isinstance(p, Or):
        return reduce(or_, (evaluate(part, leaf, full) for part in p.parts), False)
    raise TypeError(f"not a proposition: {p!r}")


def truth(p: Proposition, psi: State, eps: float = EPS) -> bool:
    """Classical truth of a proposition at a state: a literal holds iff the
    state lies in (resp. out of) its eigenspace; compounds by truth tables
    over the leaf values."""
    return evaluate(p, lambda s: s.contains(psi.vector, eps), True)


def superpose(coefficients, states, eps: float = EPS) -> State:
    """Normalized linear combination of states.  Raises on a coefficient that
    is not finite and on cancellation: a norm at most eps times the sum of the
    |c_i|, a rule that unit states make scale-free, so c is `_scaled` first."""
    coefficients = [complex(c) for c in coefficients]
    states = list(states)
    if not states or len(coefficients) != len(states):
        raise QuantumError("coefficients and states must be matching nonempty lists")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise DimensionMismatch(f"states mix dimensions {dims}")
    if not np.isfinite(coefficients).all():
        raise QuantumError(f"coefficients must be finite, got {coefficients}")
    c = _scaled(np.array(coefficients)).tolist()
    v = sum(x * s.vector for x, s in zip(c, states))
    if _norm(v) <= eps * sum(map(abs, c)):
        raise QuantumError("superposition cancels to the zero vector")
    return State.normalized(v, eps)


def born(psi: State, s: Subspace) -> float:
    """Born probability |P_S psi|^2 of finding the state in the subspace."""
    if psi.dim != s.ambient_dim:
        raise DimensionMismatch(f"state dim {psi.dim} vs ambient {s.ambient_dim}")
    return min(_norm(s.basis @ (s._bh @ psi.vector)) ** 2, 1.0)


def minimal_attribution(psi: State, family: OrthoFamily, eps: float = EPS) -> set:
    """Labels of the family members whose eigenspace contains the state.
    Empty exactly when the state is superposed across members."""
    return {lab for lab, sub in family.members if sub.contains(psi.vector, eps)}


def paraconsistent_attribution(psi: State, family: OrthoFamily, eps: float = EPS) -> set:
    """Labels of every member present in the superposition, regardless of
    how skewed the weights are: Born weight at least eps^2, so the state is
    not inside the member's orthocomplement by the rule of `contains`."""
    check_eps(eps)
    return {lab for lab, sub in family.members if born(psi, sub) >= eps * eps}


def family_from_observable(obs: Observable, eps: float = EPS) -> OrthoFamily:
    """Eigenspace decomposition of an observable: one member per distinct
    eigenvalue (values within eps merged), ascending, labeled by their mean
    at the fewest significant digits, 6 (as :g) up to 17, that tell all apart."""
    evals, vecs = hermitian_eig(obs.matrix, eps)
    part = evals / MAX_DIM  # exact, a power of two: its gaps and sums cannot overflow
    # a group ends wherever the next eigenvalue is at least eps higher
    cuts = [0, *(np.flatnonzero(np.diff(part) >= eps / MAX_DIM) + 1), len(evals)]
    means = [float(np.mean(part[i:j])) * MAX_DIM for i, j in zip(cuts, cuts[1:])]
    d = next((d for d in range(6, 17) if len({f"{m:.{d}g}" for m in means}) == len(means)), 17)
    members = [(f"{m:.{d}g}", Subspace(obs.dim, vecs[:, i:j], eps))
               for m, i, j in zip(means, cuts, cuts[1:])]
    return OrthoFamily(obs.dim, members, eps)
