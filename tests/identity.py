"""Bit-identity corpus for the library's decisions.

Runs seeded cases through the library in-process and prints one line per
area: its name, the number of cases and the SHA-256 of their results.  The
last line is the SHA-256 of all the lines before it.  A result is the exact
bytes of every array the library returns (eigenvalues, eigenvectors,
bases, witness states), every bool and relation it decides, and the type
and message of every error it raises, so two checkouts print the same
lines exactly when no case moves by a single bit.

    PYTHONPATH=src python tests/identity.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/identity.py > old.txt
    diff old.txt new.txt

The areas:

- hermitian_eig: random, degenerate and integer Hermitian matrices in
  C^1..C^16;
- gram_schmidt: sets with dependent and nearly dependent vectors, whose
  residual lies within a factor 2 of eps, at scales from 2^-1000 to 2^1000;
- intersect: orthogonal, sharing, generic and near-parallel pairs, both
  argument orders, on bases at the constructor's slack;
- intersect_band: meets whose smallest squared principal sine lies between
  400*eps and 1e-4 (the meet is zero, with or without its certificate);
- orthocomplement: every dimension in C^1..C^16;
- contains: vectors whose residual lies within a factor 2 of eps*|v|, or
  exactly at it, at scales from the subnormal end to the overflow end;
- decide: classify, build_square and build_hexagon over seeded compound
  pairs whose leaves are random (zero-dimensional and full included),
  nested, planes of a pencil in C^3, spans of Gaussian-integer vectors, or
  eigenspaces of an observable;
- lp: satisfiable, models and consequence over seeded formulas, in both
  modes;
- parse: parse_formula over seeded texts, half of them formulas written
  with the fewest parentheses and random whitespace (some with one junk
  piece put in), half of them random runs of tokens and junk.

Every eps lies in [1e-13, 1e-3).  The bits depend on the BLAS that numpy
links, so compare two checkouts on one machine, never against a digest
recorded elsewhere.  The run takes about 10 s on a 2-core VM.  The file
name keeps it out of pytest collection.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time

import numpy as np

from qopposition.linalg import Subspace, gram_schmidt, hermitian_eig
from qopposition.lp import consequence, models, parse_formula, satisfiable
from qopposition.opposition import build_hexagon, build_square, classify
from qopposition.quantum import And, Literal, Observable, Or, family_from_observable

from helpers import angled_pair, at_slack, haar_unitary


def _gauss(n, rng):
    """A vector of Gaussian integers a + bi with a, b in {-1, 0, 1}."""
    return rng.integers(-1, 2, n) + 1j * rng.integers(-1, 2, n)


def _rec(x):
    """A result as hashable text: arrays by dtype, shape and bytes."""
    if isinstance(x, np.ndarray):
        return f"{x.dtype}{x.shape}{np.ascontiguousarray(x).tobytes().hex()}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_rec(y) for y in x) + ")"
    return repr(x)


def _run(fn, *args, render=lambda out: out):
    """render(fn(*args)), or the type and message of the exception fn raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # a refusal or a crash: both are results
        return f"{type(exc).__name__}: {exc}"
    return render(out)


# --- areas: each yields one record per case ---------------------------------

def area_hermitian_eig():
    rng = np.random.default_rng(1)
    for n in range(1, 17):
        for eps in (1e-13, 1e-9, 1e-6):
            for _ in range(25):
                z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                u = haar_unitary(n, rng)
                spectrum = rng.integers(0, 3, n).astype(float)
                for m in ((z + z.conj().T) / 2,                        # generic
                          (u * spectrum) @ u.conj().T,                 # degenerate
                          np.diag(spectrum).astype(complex),           # ties by vectors
                          (u * (spectrum + rng.uniform(-2, 2, n) * eps)) @ u.conj().T):
                    yield _run(hermitian_eig, m, eps)


def _near_dependent(basis_vecs, f, eps, rng):
    """A combination of basis_vecs (fewer than their length) plus a
    perpendicular part whose size is f*eps times the whole vector's norm."""
    a = np.column_stack(basis_vecs)
    n, k = a.shape
    q, _ = np.linalg.qr(np.column_stack([a, rng.standard_normal(n) + 0j]))
    inside = a @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    t = f * eps / math.sqrt(1 - (f * eps) ** 2)
    return inside + t * np.linalg.norm(inside) * q[:, k]


def area_gram_schmidt():
    rng = np.random.default_rng(2)
    for n in range(1, 17):
        for eps in (1e-13, 1e-9, 1e-6, 9.9e-4):
            for f in (0.5, 0.999, 1.0, 1.001, 2.0):
                k = int(rng.integers(1, n + 1))
                vecs = list(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
                vecs.append(vecs[0] * (2 - 1j) + (vecs[-1] if k > 1 else 0))  # dependent
                vecs.append(np.zeros(n))
                if n > 1:
                    vecs.append(_near_dependent(vecs[:min(k, n - 1)], f, eps, rng))
                for scale in (1.0, 2.0 ** -1000, 2.0 ** 1000, 2.0 ** -500):
                    yield _run(gram_schmidt, [v * scale for v in vecs], eps,
                               render=lambda s: s.basis)


def _meets(a, b, eps):
    s, t = _run(Subspace, a.shape[0], a, eps), _run(Subspace, b.shape[0], b, eps)
    if isinstance(s, str) or isinstance(t, str):
        return s, t
    return tuple(_run(x.intersect, y, eps, render=lambda m: m.basis) for x, y in ((s, t), (t, s)))


def area_intersect():
    rng = np.random.default_rng(3)
    for n in range(2, 17):
        for eps in (1e-13, 1e-9, 1e-6, 9.9e-4):
            for _ in range(4):
                u = haar_unitary(n, rng)
                ka = int(rng.integers(1, n))
                kb = int(rng.integers(1, n - ka + 1))
                generic = haar_unitary(n, rng)[:, :int(rng.integers(1, n + 1))]
                pairs = [(u[:, :ka], u[:, n - kb:]),              # orthogonal
                         (u[:, :ka], u[:, ka - 1:ka - 1 + kb]),   # one shared direction
                         (u[:, :ka], generic),
                         (np.zeros((n, 0)), generic)]
                k = int(rng.integers(1, n // 2 + 1))
                for sin2 in (eps * eps * 0.25, eps * eps * 4, 4 * eps, 400 * eps * 0.999,
                             400 * eps * 1.001, 1e-2):
                    a, b = angled_pair(n, k, min(sin2, 0.5), rng)
                    pairs += [(a, b), (at_slack(a, eps, rng), at_slack(b, eps, rng))]
                for a, b in pairs:
                    yield _meets(a, b, eps)


def area_intersect_band():
    rng = np.random.default_rng(4)
    for eps in (1e-13, 1e-11, 1e-9, 1e-7):
        lo, hi = math.log(400 * eps), math.log(1e-4)
        for i in range(300):
            n = 2 + i % 15
            k = int(rng.integers(1, n // 2 + 1))
            a, b = angled_pair(n, k, math.exp(rng.uniform(lo, hi)), rng)
            yield _meets(a, b, eps)


def area_orthocomplement():
    rng = np.random.default_rng(5)
    for n in range(1, 17):
        for eps in (1e-13, 1e-9, 9.9e-4):
            for k in range(n + 1):
                s = Subspace(n, haar_unitary(n, rng)[:, :k], eps)
                yield _run(s.orthocomplement, eps, render=lambda c: c.basis)


def area_contains():
    rng = np.random.default_rng(6)
    scales = [2.0 ** e for e in (-1074, -1060, -1000, -600, -281, -280, 0, 279, 280, 600, 1023)]
    for n in range(1, 17):
        eye = np.eye(n, dtype=complex)
        for eps in (1e-13, 1e-9, 1e-6, 9.9e-4):
            for k in range(n):
                u = haar_unitary(n, rng)
                c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                # a generic subspace, and a coordinate one, on which v = e_0 +
                # eps e_k has a residual of exactly eps |v| for eps <= 1e-8
                for b, inside in ((u, u[:, :k] @ c), (eye, eye[:, 0] * (k > 0))):
                    s = Subspace(n, b[:, :k], eps)
                    norm = float(np.linalg.norm(inside)) or 1.0
                    for f in (0.5, 0.999, 1.0, 1.001, 2.0):
                        v = inside + f * eps * norm * b[:, k]
                        v = v / np.max(np.abs(v))  # its largest component is 1
                        for scale in scales:
                            yield _run(s.contains, v * scale, eps)


def _compound(leaves, rng, depth=2):
    if depth == 0 or rng.integers(2):
        lit = leaves[int(rng.integers(len(leaves)))]
        return lit if rng.integers(2) else lit.negate()
    parts = tuple(_compound(leaves, rng, depth - 1) for _ in range(int(rng.integers(2, 4))))
    return And(parts) if rng.integers(2) else Or(parts)


def _leaves(kind, rng, eps):
    if kind == "random":  # zero-dimensional and full ones included, sometimes nested
        n = int(rng.integers(2, 6))
        subs = [Subspace(n, haar_unitary(n, rng)[:, :int(rng.integers(0, n + 1))], eps)
                for _ in range(int(rng.integers(1, 4)))]
        if len(subs) > 1 and rng.integers(2):
            extra = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            subs[-1] = gram_schmidt([*subs[0].basis.T, extra], eps)
    elif kind == "pencil":  # planes of C^3 through one line
        line = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        subs = [gram_schmidt([line, rng.standard_normal(3) + 1j * rng.standard_normal(3)], eps)
                for _ in range(int(rng.integers(2, 5)))]
    elif kind == "gauss":  # exact coincidences: zero vectors, repeats, nested spans
        n = int(rng.integers(2, 5))
        subs = [gram_schmidt([_gauss(n, rng) for _ in range(int(rng.integers(1, n + 1)))], eps)
                for _ in range(int(rng.integers(1, 4)))]
    else:  # eigenspaces of a degenerate observable, tagged with their family
        n = int(rng.integers(2, 6))
        u = haar_unitary(n, rng)
        m = (u * rng.integers(0, 3, n)) @ u.conj().T
        fam = family_from_observable(Observable((m + m.conj().T) / 2, "M", eps), eps)
        return [Literal(sub, True, fam, label) for label, sub in fam.members]
    return [Literal(s) for s in subs]


def _decision(c):
    return (c.relation.value, c.direction,
            tuple((k, w.state.vector, w.pattern) for k, w in sorted(c.witnesses.items())))


def _polygon(poly):
    return (tuple(sorted((n, p.display()) for n, p in poly.positions.items())),
            tuple((xy, _decision(c)) for xy, c in sorted(poly.relations.items())),
            poly.deviations)


def area_decide():
    rng = np.random.default_rng(7)
    for eps in (1e-13, 1e-9, 1e-6):
        for kind in ("random", "pencil", "gauss", "family"):
            for _ in range(150):
                leaves = _leaves(kind, rng, eps)
                p, q = _compound(leaves, rng), _compound(leaves, rng)
                yield (_run(classify, p, q, eps, render=_decision),
                       _run(build_square, p, q, eps, render=_polygon),
                       _run(build_hexagon, p, q, eps, render=_polygon))


_OPS = ("&", "|", "->", "<->")


def _formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return atoms[int(rng.integers(len(atoms)))]
    if rng.random() < 0.25:
        return "!" + _formula(rng, atoms, depth - 1)
    op = _OPS[int(rng.integers(len(_OPS)))]
    return f"({_formula(rng, atoms, depth - 1)} {op} {_formula(rng, atoms, depth - 1)})"


def _valuation(model):
    return None if model is None else tuple((k, str(v)) for k, v in sorted(model.items()))


def area_lp():
    rng = np.random.default_rng(8)
    for _ in range(300):
        atoms = list("abcde"[:int(rng.integers(1, 6))])
        constraints = [parse_formula(_formula(rng, atoms, 3))
                       for _ in range(int(rng.integers(1, 4)))]
        conclusion = parse_formula(_formula(rng, atoms, 2))
        for mode in ("lp", "classical"):
            yield (mode, [str(f) for f in constraints], str(conclusion),
                   _run(satisfiable, constraints, mode, render=_valuation),
                   _run(models, constraints, mode, render=lambda ms: [_valuation(m) for m in ms]),
                   _run(consequence, constraints, conclusion, mode))


# whitespace, and pieces no rule accepts, alone or next to a token
_SPACES = ("", " ", "  ", "\t", "\n", "\u00a0")
_JUNK = ("\u200b", "\u00e9", "\u00b2", "<-", "-->", "||", "#", "-", ">", ")", "(")


def _bare(rng, depth, level=0):
    """A formula text with only the parentheses that precedence needs, for
    a context binding at `level` (4 under a !)."""
    if depth == 0 or rng.random() < 0.25:
        return ["a", "b", "p_1", "x9"][int(rng.integers(4))]
    if rng.random() < 0.2:
        return "!" * int(rng.integers(1, 4)) + _bare(rng, depth - 1, 4)
    own = int(rng.integers(4))
    op = _OPS[3 - own]
    left, right = (own + 1, own) if op in ("->", "<->") else (own, own + 1)
    spaces = [_SPACES[int(rng.integers(len(_SPACES)))] for _ in range(2)]
    text = (_bare(rng, depth - 1, left) + spaces[0] + op + spaces[1]
            + _bare(rng, depth - 1, right))
    return text if own >= level else f"({text})"


def _parsed(text):
    """The parsed formula's text, or the error's type, message and position."""
    try:
        return str(parse_formula(text))
    except Exception as exc:  # a refusal or a crash: both are results
        return f"{type(exc).__name__}: {exc} @{getattr(exc, 'position', None)}"


def area_parse():
    rng = np.random.default_rng(9)
    pieces = ["a", "p_1", "!", "&", "|", "->", "<->", "(", ")", *_SPACES[1:], *_JUNK]
    for i in range(2000):
        if i % 2:
            text = "".join(pieces[int(j)] for j in rng.integers(len(pieces), size=rng.integers(16)))
        else:
            text = _bare(rng, 4)
            if rng.random() < 0.3:
                at = int(rng.integers(len(text) + 1))
                text = text[:at] + _JUNK[int(rng.integers(len(_JUNK)))] + text[at:]
        yield text, _parsed(text)


AREAS = [area_hermitian_eig, area_gram_schmidt, area_intersect, area_intersect_band,
         area_orthocomplement, area_contains, area_decide, area_lp, area_parse]


def main() -> None:
    total = hashlib.sha256()
    start = time.perf_counter()
    # for checkouts whose gram_schmidt takes norms of unscaled vectors, as
    # this corpus is compared against older ones: there _norm's plain sum of
    # squares overflows at 2^1000 before it rescales, and numpy would warn
    np.seterr(over="ignore")
    for area in AREAS:
        digest, count = hashlib.sha256(), 0
        for record in area():
            digest.update((_rec(record) + "\n").encode())
            count += 1
        line = f"{area.__name__[len('area_'):]} {count} {digest.hexdigest()}"
        total.update((line + "\n").encode())
        print(line, flush=True)
    print(f"total {total.hexdigest()}")
    print(f"# {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
