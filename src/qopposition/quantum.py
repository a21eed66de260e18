"""States, observables, propositions-as-projectors, Born probabilities,
and the two rival property-attribution semantics.

A proposition is an eigenspace plus a polarity.  Negation is read as set
complement on the unit sphere ("the system does not have the property"),
not as the orthocomplement subspace: a superposed state satisfies both
negations, which is what keeps contraries distinct from contradictories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (EPS, DimensionMismatch, Subspace, _norm, _unit, as_vector,
                     as_matrix, check_eps, hermitian_eig, is_hermitian)


class QuantumError(Exception):
    pass


class State:
    """A pure state: a unit vector."""

    def __init__(self, vector, eps: float = EPS):
        v = as_vector(vector)
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
        v = as_vector(vector)
        n = _norm(v)
        if n == 0.0:
            raise QuantumError("cannot normalize a (near-)zero vector")
        return State(_unit(v, n), eps)

    def __repr__(self):
        return f"State({self.vector.tolist()})"


@dataclass(frozen=True)
class Observable:
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if not is_hermitian(m):
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
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i][1], members[j][1]
                if a.dim and b.dim:
                    cross = np.abs(a.basis.conj().T @ b.basis)
                    if float(cross.max()) > eps:
                        raise QuantumError(
                            f"members {members[i][0]!r} and {members[j][0]!r} "
                            "are not orthogonal")
        # orthonormal bases of pairwise-orthogonal members are linearly
        # independent, so they span C^n exactly when their dimensions add
        # up to n; a sum above n cannot pass the orthogonality check
        if sum(sub.dim for _, sub in members) != ambient_dim:
            raise QuantumError("family members do not span the whole space")
        self.ambient_dim = int(ambient_dim)
        self.members = tuple(members)
        self.basis = np.hstack([sub.basis for _, sub in members])  # the eigenbasis
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
    out = []
    for part in p.parts:
        out.extend(leaves(part))
    return out


def ambient_dim_of(subspaces) -> int:
    """The ambient dimension that every subspace given shares."""
    dims = {s.ambient_dim for s in subspaces}
    if len(dims) != 1:
        raise DimensionMismatch(f"leaves mix ambient dimensions {sorted(dims)}")
    return dims.pop()


def truth(p: Proposition, psi: State, eps: float = EPS) -> bool:
    """Classical truth of a proposition at a state: a literal holds iff the
    state lies in (resp. out of) its eigenspace; compounds by truth tables
    over the leaf values."""
    if isinstance(p, Literal):
        inside = p.subspace.contains(psi.vector, eps)
        return inside if p.asserted else not inside
    if isinstance(p, And):
        return all(truth(part, psi, eps) for part in p.parts)
    if isinstance(p, Or):
        return any(truth(part, psi, eps) for part in p.parts)
    raise TypeError(f"not a proposition: {p!r}")


def superpose(coefficients, states, eps: float = EPS) -> State:
    """Normalized linear combination of states.  Raises on cancellation:
    a combination of norm at most eps times the sum of the |c_i| (the
    states are unit vectors, so the rule is scale-free, like contains)."""
    coefficients = [complex(c) for c in coefficients]
    states = list(states)
    if not states or len(coefficients) != len(states):
        raise QuantumError("coefficients and states must be matching nonempty lists")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise DimensionMismatch(f"states mix dimensions {dims}")
    v = sum(c * s.vector for c, s in zip(coefficients, states))
    if _norm(v) <= eps * sum(map(abs, coefficients)):
        raise QuantumError("superposition cancels to the zero vector")
    return State.normalized(v, eps)


def born(psi: State, s: Subspace) -> float:
    """Born probability |P_S psi|^2 of finding the state in the subspace."""
    if psi.dim != s.ambient_dim:
        raise DimensionMismatch(f"state dim {psi.dim} vs ambient {s.ambient_dim}")
    return min(_norm(s.basis @ (s.basis.conj().T @ psi.vector)) ** 2, 1.0)


def minimal_attribution(psi: State, family: OrthoFamily, eps: float = EPS) -> set:
    """Labels of the family members whose eigenspace contains the state.
    Empty exactly when the state is superposed across members."""
    if psi.dim != family.ambient_dim:
        raise DimensionMismatch("state and family dimensions differ")
    return {lab for lab, sub in family.members
            if sub.dim and sub.contains(psi.vector, eps)}


def paraconsistent_attribution(psi: State, family: OrthoFamily, eps: float = EPS) -> set:
    """Labels of every member present in the superposition (Born weight
    above eps), regardless of how skewed the weights are."""
    if psi.dim != family.ambient_dim:
        raise DimensionMismatch("state and family dimensions differ")
    return {lab for lab, sub in family.members if born(psi, sub) > eps}


def family_from_observable(obs: Observable, eps: float = EPS) -> OrthoFamily:
    """Eigenspace decomposition of an observable: one member per distinct
    eigenvalue (values within eps merged), labeled by the eigenvalue,
    ascending."""
    evals, vecs = hermitian_eig(obs.matrix, eps)
    members = []
    i, n = 0, len(evals)
    while i < n:
        j = i
        while j + 1 < n and evals[j + 1] - evals[j] < eps:
            j += 1
        value = float(np.mean(evals[i:j + 1]))
        members.append((f"{value:g}", Subspace(obs.dim, vecs[:, i:j + 1], eps)))
        i = j + 1
    return OrthoFamily(obs.dim, members, eps)
