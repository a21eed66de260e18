import json
import math

import numpy as np
import pytest

from qopposition import lp
from qopposition.linalg import Subspace
from qopposition.quantum import And, Literal, Or, OrthoFamily, QuantumError, State, superpose
from qopposition.scenarios import (BUILTIN_NAMES, Scenario, ScenarioError, builtin,
                                   canonical_json, load_scenario, run_all,
                                   run_query, serialize)

from helpers import BAD_EPS, BAD_EPS_IDS, random_state


class TestCanonicalJson:
    def test_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_17_digits(self):
        r = 1.0 / math.sqrt(2.0)
        assert canonical_json(r) == "0.70710678118654746"

    def test_nested(self):
        assert canonical_json([1, {"x": [True, None]}]) == '[1,{"x":[true,null]}]'

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestBuiltins:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_round_trip_byte_identical(self, name):
        sc = builtin(name)
        text = serialize(sc)
        again = load_scenario(text)
        assert serialize(again) == text

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_queries_run(self, name):
        sc = builtin(name)
        results = run_all(sc)
        assert len(results) == len(sc.queries)
        # every result is JSON-serializable in canonical form
        canonical_json(results)

    def test_each_call_is_fresh(self):
        before = serialize(builtin("cat"))
        sc = builtin("cat")
        sc.queries[0]["args"]["p"] = "alive"
        sc.queries.append({"op": "teleport"})
        sc.states.clear()
        assert serialize(builtin("cat")) == before

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError):
            builtin("nope")

    def test_skewed_weights(self):
        sc = builtin("skewed")
        out = run_query(sc, sc.queries[0])
        assert out["probabilities"]["up_x"] == pytest.approx(4.0 / 7.0, abs=1e-12)
        assert out["probabilities"]["down_x"] == pytest.approx(3.0 / 7.0, abs=1e-12)

    def test_skewed_state_is_the_superposition_bit_for_bit(self):
        # the builtin writes the state out as numbers, so that loading the
        # scenarios imports no numpy; they must be superpose's own bits
        r = 1.0 / math.sqrt(2.0)
        want = superpose([2.0 / math.sqrt(7.0), math.sqrt(3.0 / 7.0)],
                         [State([r, r]), State([r, -r])])
        got = builtin("skewed").states["skewed"]
        assert got.vector.tobytes() == want.vector.tobytes()

    def test_skewed_attribution_ignores_weights(self):
        sc = builtin("skewed")
        minimal = run_query(sc, sc.queries[1])
        para = run_query(sc, sc.queries[2])
        assert minimal["attributed"] == []
        assert para["attributed"] == ["down_x", "up_x"]

    def test_spin_half_x_relations(self):
        sc = builtin("spin_half_x")
        results = run_all(sc)
        assert results[0]["relation"].startswith("Contrary")
        assert results[1]["relation"].startswith("Contradictory")
        assert results[2]["relation"].startswith("Subcontrary")
        assert results[3]["deviations"] == []

    def test_three_level_chain_queries(self):
        sc = builtin("three_level")
        results = run_all(sc)
        classical = results[2]
        assert classical["satisfiable"] is False
        assert classical["consequence"] is True
        lp_run = results[3]
        assert lp_run["satisfiable"] is True
        assert lp_run["model"] == {"p_a": "F", "p_b": "B", "p_c": "B"}

    def test_run_deterministic(self):
        sc = builtin("spin_half_x")
        a = canonical_json(run_all(sc))
        b = canonical_json(run_all(builtin("spin_half_x")))
        assert a == b


class TestResolution:
    def test_family_member_path(self):
        sc = builtin("spin_half_x")
        p = sc.resolve_proposition("x.up_x")
        assert isinstance(p, Literal) and p.asserted

    def test_negated_reference(self):
        sc = builtin("spin_half_x")
        p = sc.resolve_proposition("!u_x")
        assert isinstance(p, Literal) and not p.asserted

    def test_unknown_state(self):
        with pytest.raises(ScenarioError, match="unknown state"):
            builtin("cat").resolve_state("ghost")

    def test_unknown_proposition(self):
        with pytest.raises(ScenarioError, match="unknown proposition"):
            builtin("cat").resolve_proposition("ghost")

    def test_unknown_family_member(self):
        with pytest.raises(ScenarioError, match="no member"):
            builtin("cat").resolve_proposition("fate.ghost")


def random_doc(rng, dim):
    """Build a random scenario document around an orthonormal frame."""
    from helpers import haar_unitary
    u = haar_unitary(dim, rng)
    cols = [[[float(u[i, j].real), float(u[i, j].imag)] for i in range(dim)]
            for j in range(dim)]
    members = [[f"m{j}", [cols[j]]] for j in range(dim)]
    states = {f"s{k}": [[float(x.real), float(x.imag)]
                        for x in random_state(dim, rng).vector]
              for k in range(2)}
    props = {"first": "f.m0", "not_first": "!f.m0"}
    if dim >= 2:
        props["either"] = {"or": ["f.m0", "f.m1"]}
    return {
        "name": f"rand{dim}",
        "dim": dim,
        "states": states,
        "observables": {},
        "families": {"f": {"members": members}},
        "propositions": props,
        "queries": [{"op": "prob", "args": {"state": "s0", "family": "f"}}],
    }


def _code_family():
    return OrthoFamily(2, [("up", Subspace(2, np.array([[1], [0]]))),
                           ("down", Subspace(2, np.array([[0], [1]])))])


def _hand_built(fam) -> Scenario:
    """A scenario assembled in code, its family stored under the key 'spin'."""
    up, down = (Literal(fam.subspace(m), True, fam, m, m) for m in fam.labels)
    return Scenario("hand", 2, families={"spin": fam},
                    propositions={"up": up, "either": Or((up, down.negate()))})


class TestLoading:
    @pytest.mark.parametrize("make_family", [
        _code_family,  # a family built in code
        lambda: builtin("spin_half_x").families["x"],  # loaded under another key
    ], ids=["code", "renamed"])
    def test_hand_built_scenario_round_trips(self, make_family):
        sc = _hand_built(make_family())
        text = serialize(sc)
        again = load_scenario(text)
        assert serialize(again) == text
        assert json.loads(text)["propositions"]["up"] == f"spin.{sc.families['spin'].labels[0]}"
        assert again.propositions["up"].family is again.families["spin"]

    def test_literal_outside_the_families_not_serializable(self):
        sc = _hand_built(_code_family())
        sc.families = {"spin": _code_family()}
        with pytest.raises(ScenarioError, match="families"):
            serialize(sc)

    def test_randomized_round_trips(self):
        rng = np.random.default_rng(777)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            doc = random_doc(rng, dim)
            sc = load_scenario(json.dumps(doc))
            out = serialize(sc)
            assert serialize(load_scenario(out)) == out
            run_all(sc)

    def test_parse_error_position(self):
        with pytest.raises(ScenarioError, match=r"line 2, column"):
            load_scenario('{\n "dim": }')

    def test_missing_keys(self):
        with pytest.raises(ScenarioError, match="missing top-level key"):
            load_scenario('{"name": "x"}')

    def test_non_unit_state_renormalized_with_warning(self):
        doc = {"name": "t", "dim": 2,
               "states": {"s": [[1.0, 0.0], [1.0, 0.0]]},
               "families": {}, "propositions": {}, "queries": []}
        sc = load_scenario(json.dumps(doc))
        assert any("renormalized" in w for w in sc.warnings)
        assert np.linalg.norm(sc.states["s"].vector) == pytest.approx(1.0)

    def test_unit_state_kept_bit_exact(self):
        r = 1.0 / math.sqrt(2.0)
        doc = {"name": "t", "dim": 2,
               "states": {"s": [[r, 0.0], [r, 0.0]]},
               "families": {}, "propositions": {}, "queries": []}
        sc = load_scenario(json.dumps(doc))
        assert sc.states["s"].vector[0].real == r
        assert sc.warnings == []

    def test_tiny_state_renormalized_with_warning(self):
        doc = {"name": "t", "dim": 2, "states": {"s": [[1e-7, 0.0], [0.0, 0.0]]}}
        sc = load_scenario(json.dumps(doc))
        assert any("renormalized" in w for w in sc.warnings)
        assert np.array_equal(sc.states["s"].vector, [1, 0])

    def test_subnormal_member_basis_orthonormalized(self):
        doc = {"name": "t", "dim": 2, "states": {},
               "families": {"f": {"members": [["a", [[[1e-310, 0.0], [0.0, 0.0]]]],
                                              ["b", [[[0.0, 0.0], [1.0, 0.0]]]]]}}}
        a = load_scenario(json.dumps(doc)).families["f"].members[0][1]
        assert a.dim == 1 and a.basis[:, 0].tolist() == [1, 0]

    @pytest.mark.parametrize("stray, exact", [(0.74e-9, True), (0.76e-9, False)])
    def test_member_basis_kept_bit_exact_when_the_constructor_takes_it(self, stray, exact):
        # a column of squared norm 1 + stray: within 3/4 eps of orthonormal its
        # bits are kept; past it gram_schmidt normalizes the column
        s = math.sqrt(1 + stray)
        doc = {"name": "t", "dim": 2,
               "families": {"f": {"members": [["a", [[[s, 0.0], [0.0, 0.0]]]],
                                              ["b", [[[0.0, 0.0], [1.0, 0.0]]]]]}}}
        a = load_scenario(json.dumps(doc)).families["f"].subspace("a")
        assert (a.basis[0, 0] == s) == exact and abs(a.basis[0, 0] - 1) < 1e-9
        assert a.contains(a.basis[:, 0])

    @pytest.mark.filterwarnings("error")
    def test_huge_entries_load_without_a_numpy_warning(self):
        # each overflows numpy on the way to a rescale or a refusal, which the
        # loader keeps quiet for every caller, not only for qopp
        axes = {"f": {"members": [["a", [[[1, 0], [0, 0]]]], ["b", [[[0, 0], [1, 0]]]]]}}
        big_state = {"name": "t", "dim": 2, "states": {"s": [[1e200, 0], [1e200, 0]]},
                     "families": axes}
        sc = load_scenario(json.dumps(big_state))
        assert sc.states["s"].vector.tobytes() == State.normalized([1, 1]).vector.tobytes()
        big_member = {"name": "t", "dim": 2, "families": {"f": {"members": [
            ["a", [[[1e200, 0], [1e200, 0]]]], ["b", [[[1e200, 0], [-1e200, 0]]]]]}}}
        f = load_scenario(json.dumps(big_member)).families["f"]
        assert f.subspace("a").contains([1, 1]) and f.subspace("b").contains([1, -1])
        skew = {"name": "t", "dim": 2,
                "observables": {"X": [[[0, 0], [1.7e308, 0]], [[-1.7e308, 0], [0, 0]]]}}
        with pytest.raises(QuantumError, match="'X' is not Hermitian"):
            load_scenario(json.dumps(skew))

    def test_zero_state_rejected(self):
        doc = {"name": "t", "dim": 2,
               "states": {"s": [[0.0, 0.0], [0.0, 0.0]]}}
        with pytest.raises(ScenarioError, match="zero"):
            load_scenario(json.dumps(doc))

    def test_wrong_component_count(self):
        doc = {"name": "t", "dim": 3, "states": {"s": [[1.0, 0.0], [0.0, 0.0]]}}
        with pytest.raises(ScenarioError, match="expected 3 components"):
            load_scenario(json.dumps(doc))

    def test_unresolved_proposition_reference(self):
        doc = {"name": "t", "dim": 2, "states": {}, "families": {},
               "propositions": {"p": "nowhere.m"}, "queries": []}
        with pytest.raises(ScenarioError, match="unknown family"):
            load_scenario(json.dumps(doc))

    def test_compound_propositions_round_trip(self):
        doc = random_doc(np.random.default_rng(3), 3)
        doc["propositions"]["both"] = {"and": ["f.m0", "!f.m1"]}
        sc = load_scenario(json.dumps(doc))
        assert isinstance(sc.propositions["both"], And)
        assert isinstance(sc.propositions["either"], Or)
        text = serialize(sc)
        assert serialize(load_scenario(text)) == text


class TestQueries:
    def test_malformed_query(self):
        with pytest.raises(ScenarioError, match="malformed"):
            run_query(builtin("cat"), {"args": {}})

    def test_unknown_op(self):
        with pytest.raises(ScenarioError, match="unknown query op"):
            run_query(builtin("cat"), {"op": "teleport"})

    def test_unknown_semantics(self):
        with pytest.raises(ScenarioError, match="unknown semantics"):
            run_query(builtin("cat"), {"op": "attribute",
                                       "args": {"state": "Phi", "family": "fate",
                                                "semantics": "modal"}})

    def test_classify_emits_witnesses(self):
        sc = builtin("spin_half_x")
        out = run_query(sc, {"op": "classify", "args": {"p": "u_x", "q": "d_x"}})
        assert out["witnesses"]["both_false"]["pattern"] == [False, False]

    def test_run_all_keeps_the_brief_shape(self):
        sc = builtin("spin_half_x")
        classify, hexagon = run_all(sc)[0], run_all(sc)[3]
        full = run_query(sc, sc.queries[3])
        assert classify["witnesses"]["both_false"] == [[1.0, 0.0], [0.0, 0.0]]
        assert "positions" not in hexagon and "positions" in full
        assert hexagon["relations"] == {k: r["relation"]
                                        for k, r in full["relations"].items()}

    @pytest.mark.parametrize("mode", ["lp", "classical"])
    def test_lp_models_give_the_model(self, monkeypatch, mode):
        # with "models" the first model is taken from the models list, so
        # the constraints are scanned once less; keys keep their order
        args = {"labels": ["a", "b", "c"], "conclude": "p_a", "mode": mode}
        plain = run_query(None, {"op": "lp_chain", "args": args})

        def never(*_):
            raise AssertionError("satisfiable was called")
        monkeypatch.setattr(lp, "satisfiable", never)
        full = run_query(None, {"op": "lp_chain", "args": {**args, "models": True}})
        assert list(full) == [*plain, "models"]
        assert all(full[k] == plain[k] for k in plain if k != "args")
        assert full["models"][:1] == ([plain["model"]] if plain["satisfiable"] else [])

    def test_prob_sums_to_one(self):
        sc = builtin("three_level")
        out = run_query(sc, {"op": "prob", "args": {"state": "abc",
                                                    "family": "level"}})
        assert sum(out["probabilities"].values()) == pytest.approx(1.0, abs=1e-12)


class TestRefusals:
    @pytest.mark.parametrize("doc", [
        [],
        {"name": "t", "dim": 2, "observables": {"X": [[[0, 0], [1, 0]]]}},
        {"name": "t", "dim": 2, "queries": {}},
        {"name": "t", "dim": 2,
         "families": {"f": {"members": [["a", [[[1, 0], [0, 0]]]],
                                        ["b", [[[0, 0], [1, 0]]]]]}},
         "propositions": {"p": {"xor": ["f.a", "f.b"]}}},
    ], ids=["document-list", "observable-rows", "queries-object", "proposition-xor"])
    def test_refused_document_raises_scenario_error(self, doc):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(json.dumps(doc))
        assert type(exc.value) is ScenarioError and isinstance(exc.value, ValueError)

    # a document with nothing that reaches State, and queries that take no
    # state at eps (prob, and the LP ops), still refuse a bad eps
    @pytest.mark.parametrize("eps", BAD_EPS, ids=BAD_EPS_IDS)
    @pytest.mark.parametrize("make", [
        lambda eps: load_scenario('{"name": "t", "dim": 2}', eps),
        lambda eps: run_query(builtin("cat"), {"op": "prob", "args": {
            "state": "Phi", "family": "fate"}}, eps),
        lambda eps: run_query(None, {"op": "lp_chain", "args": {"labels": ["a", "b"]}}, eps),
    ], ids=["load-empty", "query-prob", "query-lp"])
    def test_bad_eps_refused(self, make, eps):
        with pytest.raises(ValueError, match="eps must lie") as exc:
            make(eps)
        assert type(exc.value) is ValueError

    def test_one_tolerance_for_the_loader_and_the_numeric_modules(self):
        from qopposition import linalg, scenarios
        assert scenarios.EPS is linalg.EPS
        assert scenarios.check_eps is linalg.check_eps

    @pytest.mark.parametrize("make, message", [
        (lambda: builtin("nope"),
         "unknown builtin 'nope' (have ['cat', 'double_slit', 'skewed', "
         "'spin_half_x', 'three_level'])"),
        (lambda: run_query(builtin("cat"), {"op": "attribute", "args": {
            "state": "Phi", "family": "fate", "semantics": "modal"}}),
         "unknown semantics 'modal' (have ['minimal', 'paraconsistent'])"),
        # a query read from a file may hold any JSON value, a list included
        (lambda: run_query(builtin("cat"), {"op": "attribute", "args": {
            "state": "Phi", "family": "fate", "semantics": ["minimal"]}}),
         "unknown semantics ['minimal'] (have ['minimal', 'paraconsistent'])"),
    ], ids=["builtin-unknown", "semantics-unknown", "semantics-list"])
    def test_unknown_name_lists_the_names_there_are(self, make, message):
        with pytest.raises(ScenarioError) as exc:
            make()
        assert type(exc.value) is ScenarioError and str(exc.value) == message
