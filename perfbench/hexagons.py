"""decide-family and decide-geometric: one request is one build_hexagon on
a contrary pair A, E (A and E cannot both be true, both are proper).

Every hexagon is checked against the classical pattern written out below
and every witness is replayed with a numpy residual computed here, not
with the library's truth().
"""

from __future__ import annotations

import numpy as np

from common import Mismatch

# The classical hexagon of opposition, from the square A/E/I/O (I = not E,
# O = not A) plus U = A or E and Y = I and O.  A pair is Contrary when the
# two cannot both be true but can both be false, Subcontrary for the dual,
# Contradictory when exactly one holds at every state, and Subaltern when
# the first entails the second ("forward") or the reverse ("backward").
PATTERN = {
    ("A", "E"): ("Contrary", None),
    ("A", "I"): ("Subaltern", "forward"),
    ("A", "O"): ("Contradictory", None),
    ("A", "U"): ("Subaltern", "forward"),
    ("A", "Y"): ("Contrary", None),
    ("E", "I"): ("Contradictory", None),
    ("E", "O"): ("Subaltern", "forward"),
    ("E", "U"): ("Subaltern", "forward"),
    ("E", "Y"): ("Contrary", None),
    ("I", "O"): ("Subcontrary", None),
    ("I", "U"): ("Subcontrary", None),
    ("I", "Y"): ("Subaltern", "backward"),
    ("O", "U"): ("Subcontrary", None),
    ("O", "Y"): ("Subaltern", "backward"),
    ("U", "Y"): ("Contradictory", None),
}
# which witnesses each relation implies: (both true possible, both false possible)
POSSIBLE = {
    "Contrary": (False, True),
    "Subcontrary": (True, False),
    "Contradictory": (False, False),
    "Subaltern": (True, True),
}
OPS_PER_HEXAGON = len(PATTERN)

# membership of a unit vector in a subspace: residual below IN_TOL is in,
# above OUT_TOL is out, anything between is too close to call
IN_TOL = 1e-7
OUT_TOL = 1e-4


def haar_unitary(n: int, rng) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    qm, r = np.linalg.qr(z)
    d = np.diag(r)
    return qm * (d / np.abs(d))


def member(basis: np.ndarray, psi: np.ndarray) -> bool:
    psi = psi / np.linalg.norm(psi)
    residual = float(np.linalg.norm(psi - basis @ (basis.conj().T @ psi))) if basis.size \
        else 1.0
    if residual < IN_TOL:
        return True
    if residual > OUT_TOL:
        return False
    raise Mismatch(f"witness residual {residual:.3g} is too close to the membership threshold")


def holds(q, p, psi: np.ndarray) -> bool:
    if isinstance(p, q.Literal):
        return member(p.subspace.basis, psi) == p.asserted
    if isinstance(p, q.And):
        return all(holds(q, x, psi) for x in p.parts)
    if isinstance(p, q.Or):
        return any(holds(q, x, psi) for x in p.parts)
    raise Mismatch(f"unexpected proposition {p!r}")


def verify_hexagon(q, a, e, poly, undecided_ok: bool) -> int:
    """Check one hexagon; returns the number of Undecided relations, which
    are allowed (as failed operations) only on pairs touching U or Y and
    only when undecided_ok."""
    pos = poly.positions
    if tuple(pos) != ("A", "E", "I", "O", "U", "Y") or pos["A"] is not a or pos["E"] is not e:
        raise Mismatch(f"hexagon corners are {tuple(pos)}")
    for name, base in (("I", e), ("O", a)):
        lit = pos[name]
        if not (isinstance(lit, q.Literal) and lit.subspace is base.subspace
                and lit.asserted != base.asserted):
            raise Mismatch(f"corner {name} is not the negation of its base")
    if not (isinstance(pos["U"], q.Or) and pos["U"].parts == (a, e)
            and isinstance(pos["Y"], q.And) and pos["Y"].parts == (pos["I"], pos["O"])):
        raise Mismatch("corners U and Y are not A|E and I&O")
    failed = 0
    for (x, y), (want, direction) in PATTERN.items():
        c = poly.relations[(x, y)]
        got = c.relation.value
        if got == "Undecided":
            if not (undecided_ok and ("U" in (x, y) or "Y" in (x, y))):
                raise Mismatch(f"{x}-{y} is Undecided")
            failed += 1
        elif (got, c.direction) != (want, direction):
            raise Mismatch(f"{x}-{y} is {got} {c.direction}, expected {want} {direction}")
        else:
            present = ("both_true" in c.witnesses, "both_false" in c.witnesses)
            if present != POSSIBLE[want]:
                raise Mismatch(f"{x}-{y} ({got}) has witnesses {sorted(c.witnesses)}")
        for key, w in c.witnesses.items():
            value = key == "both_true"
            if w.pattern != (value, value) or w.props[0] is not pos[x] or w.props[1] is not pos[y]:
                raise Mismatch(f"{x}-{y} {key} witness describes another question")
            psi = np.asarray(w.state.vector)
            if holds(q, pos[x], psi) != value or holds(q, pos[y], psi) != value:
                raise Mismatch(f"{x}-{y} {key} witness does not replay")
    return failed


def fingerprint(poly) -> tuple:
    return tuple((k, c.relation.value, c.direction,
                  tuple((wk, w.state.vector.tobytes()) for wk, w in sorted(c.witnesses.items())))
                 for k, c in sorted(poly.relations.items()))


# --- decide-family ----------------------------------------------------------

FAMILY_DIMS = (2, 4, 8, 16)
PER_DIM = 8


def generate_family(rng) -> list:
    """Seeded observables U diag(spectrum) U^H: PER_DIM in each dimension,
    their member counts spread evenly over 2..n (a family hexagon costs more
    with more members, so a fixed mix keeps the cost the same for every
    seed), with random multiplicities, so member ranks are mixed."""
    shapes = [(n, 2 + j * (n - 2) // (PER_DIM - 1))
              for n in FAMILY_DIMS for j in range(PER_DIM)]
    data = []
    for i in rng.permutation(len(shapes)):
        n, m = shapes[i]
        cuts = np.sort(rng.choice(np.arange(1, n), m - 1, replace=False))
        ranks = np.diff(np.r_[0, cuts, n])
        values = np.sort(rng.choice(np.arange(-12, 13), m, replace=False)) * 0.5
        u = haar_unitary(n, rng)
        matrix = (u * np.repeat(values, ranks)) @ u.conj().T
        data.append((matrix, ranks, u))
    return data


def build_family(q, data) -> list:
    """A and E are the members of the lowest and the highest eigenvalue.
    The family calculus scans members in order, so fixed positions keep a
    hexagon's cost the same for every seed."""
    pairs = []
    for k, (matrix, _, _) in enumerate(data):
        fam = q.family_from_observable(q.Observable(matrix, f"obs{k}"))
        la, le = fam.members[0][0], fam.members[-1][0]
        pairs.append((q.Literal(fam.subspace(la), True, fam, la, la),
                      q.Literal(fam.subspace(le), True, fam, le, le)))
    return pairs


def verify_families(data, pairs) -> None:
    """Each family must be the eigenspaces of its generated observable."""
    for k, ((_, ranks, u), (a, _)) in enumerate(zip(data, pairs)):
        members = a.family.members
        if len(members) != len(ranks):
            raise Mismatch(f"observable {k}: {len(members)} members, expected {len(ranks)}")
        start = 0
        for (label, sub), rank in zip(members, ranks):
            cols = u[:, start:start + rank]
            start += rank
            if sub.dim != rank or not np.allclose(sub.projector(), cols @ cols.conj().T,
                                                  atol=1e-7):
                raise Mismatch(f"observable {k}: member {label} is not its eigenspace")


# --- decide-geometric -------------------------------------------------------

GEOMETRIC_DIM = 8
# every rank pair (dim A, dim E) with A and E proper and dim A + dim E <= 8,
# twice per round: the cost of a hexagon depends mostly on the ranks, so a
# balanced round keeps the cost mix the same for every seed, and two draws
# of each pair average out how fast the eigensolver converges on them
GEOMETRIC_RANKS = [(ra, re_) for ra in range(1, GEOMETRIC_DIM)
                   for re_ in range(1, GEOMETRIC_DIM - ra + 1)] * 2
# smallest principal angle allowed between A and E: far above sqrt(eps), so
# the near-parallel threshold mismatch in Subspace.intersect stays out
MIN_ANGLE = 0.1


def generate_geometric(rng) -> list:
    """For each rank pair, in seeded order, ra + re_ seeded Gaussian vectors
    of C^n: in general position, so A ∩ E = 0 because ra + re_ <= n."""
    n = GEOMETRIC_DIM
    data = []
    for i in rng.permutation(len(GEOMETRIC_RANKS)):
        ra, re_ = GEOMETRIC_RANKS[i]
        while True:
            z = rng.standard_normal((n, ra + re_)) + 1j * rng.standard_normal((n, ra + re_))
            qa = np.linalg.qr(z[:, :ra])[0]
            qe = np.linalg.qr(z[:, ra:])[0]
            cos_max = float(np.linalg.svd(qa.conj().T @ qe, compute_uv=False).max())
            if np.arccos(min(cos_max, 1.0)) >= MIN_ANGLE:
                break
        data.append((ra, z))
    return data


def build_geometric(q, data) -> list:
    return [(q.Literal(q.gram_schmidt(list(z[:, :ra].T)), True, name="A"),
             q.Literal(q.gram_schmidt(list(z[:, ra:].T)), True, name="E"))
            for ra, z in data]


def run(q, pair):
    return q.build_hexagon(*pair)
