"""End-to-end acceptance checks, one test per numbered criterion.

Each test is self-contained and runs in seconds; conftest.py prints a
PASS/FAIL line per criterion in the terminal summary.
"""

import json

import numpy as np
import pytest

from qopposition.cli import main
from qopposition.lp import (CLASSICAL, LP, TV, Atom, Iff, Not,
                            equivalence_chain, eval3, models,
                            postulate_of_contradiction, satisfiable)
from qopposition.opposition import (Relation, build_hexagon, can_both_be_false,
                                    can_both_be_true, classify, entails,
                                    random_witness_search)
from qopposition.quantum import (State, born, minimal_attribution,
                                 paraconsistent_attribution, truth)
from qopposition.scenarios import BUILTIN_NAMES, builtin

from helpers import (apply_unitary_literal, generic_cell, haar_unitary, random_hermitian,
                     random_literal, random_state)


def spin_props():
    sc = builtin("spin_half_x")
    return sc, sc.propositions["u_x"], sc.propositions["d_x"]


def test_criterion_1_square_relations():
    sc, u, d = spin_props()
    assert classify(u, d).relation is Relation.CONTRARY
    assert classify(u, u.negate()).relation is Relation.CONTRADICTORY
    assert classify(d, d.negate()).relation is Relation.CONTRADICTORY
    assert classify(u.negate(), d.negate()).relation is Relation.SUBCONTRARY
    assert entails(u, d.negate()) is True and entails(d, u.negate()) is True
    assert entails(d.negate(), u) is False and entails(u.negate(), d) is False


def test_criterion_2_hexagon_pattern():
    sc, u, d = spin_props()
    poly = build_hexagon(u, d)
    assert list(poly.deviations) == []

    def rel(x, y):
        c = poly.relations[(x, y) if (x, y) in poly.relations else (y, x)]
        return c.relation

    for pair in (("U", "Y"), ("A", "O"), ("E", "I")):
        assert rel(*pair) is Relation.CONTRADICTORY
    for pair in (("A", "E"), ("A", "Y"), ("E", "Y")):
        assert rel(*pair) is Relation.CONTRARY
    for pair in (("I", "O"), ("I", "U"), ("O", "U")):
        assert rel(*pair) is Relation.SUBCONTRARY
    for sup, sub in (("A", "I"), ("A", "U"), ("E", "O"),
                     ("E", "U"), ("Y", "I"), ("Y", "O")):
        c = poly.relations[(sup, sub) if (sup, sub) in poly.relations
                           else (sub, sup)]
        assert c.relation is Relation.SUBALTERN
        assert (c.direction == "forward") == ((sup, sub) in poly.relations)

    # the bottom corner marks exactly the superposed states
    y = poly.positions["Y"]
    fam = sc.families["x"]
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        psi = random_state(2, rng)
        assert truth(y, psi) == (minimal_attribution(psi, fam) == set())


def test_criterion_3_contradiction_postulate():
    constraints = postulate_of_contradiction(["s1", "s2"])
    assert satisfiable(constraints, CLASSICAL) is None
    lp_models = models(constraints, LP)
    assert lp_models == [{"K_s1": TV.B, "K_s2": TV.B}]


def test_criterion_4_equivalence_chain():
    premises = equivalence_chain(["a", "b", "c"])
    assert satisfiable(premises, CLASSICAL) is None
    conclusion = Iff(Atom("p_a"), Not(Atom("p_a")))
    # classical consequence is vacuous: no classical model of the premises
    from qopposition.lp import consequence
    assert consequence(premises, conclusion, CLASSICAL) is True
    all_b = {f"p_{x}": TV.B for x in "abc"}
    assert all(eval3(f, all_b).designated for f in premises)


def test_criterion_5_born_probabilities():
    sc = builtin("skewed")
    fam = sc.families["x"]
    psi = sc.states["skewed"]
    assert born(psi, fam.subspace("up_x")) == pytest.approx(4 / 7, abs=1e-9)
    assert born(psi, fam.subspace("down_x")) == pytest.approx(3 / 7, abs=1e-9)
    up_z = State([1, 0])
    assert born(up_z, fam.subspace("up_x")) == pytest.approx(0.5, abs=1e-9)
    assert born(up_z, fam.subspace("down_x")) == pytest.approx(0.5, abs=1e-9)

    rng = np.random.default_rng(5)
    for name in BUILTIN_NAMES:
        case = builtin(name)
        for fname, family in case.families.items():
            for _ in range(1000):
                state = random_state(case.dim, rng)
                total = sum(born(state, sub) for _, sub in family.members)
                assert abs(total - 1.0) < 1e-7, (name, fname)


def test_criterion_6_attribution_semantics():
    sc = builtin("spin_half_x")
    fam = sc.families["x"]
    up_z = sc.states["up_z"]
    assert minimal_attribution(up_z, fam) == set()
    assert paraconsistent_attribution(up_z, fam) == {"up_x", "down_x"}

    rng = np.random.default_rng(6)
    cases = [(builtin(name), f) for name in BUILTIN_NAMES
             for f in builtin(name).families.values()]
    for i in range(500):
        case, fam = cases[i % len(cases)]
        label, sub = fam.members[int(rng.integers(len(fam.members)))]
        coeffs = rng.standard_normal(sub.dim) + 1j * rng.standard_normal(sub.dim)
        psi = State.normalized(sub.basis @ coeffs)
        got_min = minimal_attribution(psi, fam)
        got_para = paraconsistent_attribution(psi, fam)
        assert got_min == got_para == {label}


def test_criterion_7_exact_vs_search_oracle():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(2, 5))
        p, q = random_literal(n, rng), random_literal(n, rng)
        for pattern, (got, w) in (
            ((True, True), can_both_be_true(p, q)),
            ((False, False), can_both_be_false(p, q)),
        ):
            found = random_witness_search((p, q), pattern,
                                          seed=int(rng.integers(1 << 31)),
                                          trials=2000)
            if not got:
                assert found is None, (p, q, pattern)
                continue
            assert w is not None and w.replay(), (p, q, pattern)
            if generic_cell((p, q), pattern):
                assert found is not None, (p, q, pattern)


def test_criterion_8_invariance_and_eigensolver():
    from qopposition.linalg import hermitian_eig

    for seed in range(100):
        rng = np.random.default_rng(800 + seed)
        n = 2 + seed % 3
        p, q = random_literal(n, rng), random_literal(n, rng)
        u = haar_unitary(n, rng)
        before = classify(p, q)
        after = classify(apply_unitary_literal(u, p), apply_unitary_literal(u, q))
        assert (before.relation, before.direction) == (after.relation,
                                                       after.direction)

    sc, u_x, _ = spin_props()
    rng = np.random.default_rng(888)
    for _ in range(1000):
        psi = random_state(2, rng)
        assert truth(u_x, psi) != truth(u_x.negate(), psi)

    for seed in range(100):
        rng = np.random.default_rng(8000 + seed)
        n = int(rng.integers(2, 9))
        h = random_hermitian(n, rng)
        vals, vecs = hermitian_eig(h)
        err = np.max(np.abs(vecs @ np.diag(vals) @ vecs.conj().T - h))
        assert err < 1e-7


def test_criterion_9_cli_determinism(capsys):
    commands = [
        ["classify", "spin_half_x", "u_x", "d_x", "--format", "json"],
        ["hexagon", "spin_half_x", "u_x", "d_x", "--format", "json"],
        ["hexagon", "spin_half_x", "u_x", "d_x", "--format", "dot"],
        ["square", "three_level", "p_a", "p_b", "--format", "json"],
        ["prob", "skewed", "skewed", "x", "--format", "json"],
        ["attribute", "cat", "Phi", "fate", "--semantics", "paraconsistent",
         "--format", "json"],
        ["lp", "postulate", "s1", "s2", "--format", "json"],
        ["lp", "chain", "a", "b", "c", "--conclude", "p_a <-> !p_a",
         "--mode", "classical", "--format", "json"],
        ["scenario", "show", "double_slit", "--format", "json"],
        ["scenario", "run", "spin_half_x", "--format", "json"],
    ]
    for argv in commands:
        first_code = main(argv)
        first = capsys.readouterr().out
        second_code = main(argv)
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first == second, argv
        if "json" in argv:
            json.loads(first)
