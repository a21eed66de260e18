import io
import json
import os
import sys
import warnings

import pytest

from qopposition.cli import (EXIT_NOT_CONSEQUENCE, EXIT_OK, EXIT_PIPE, EXIT_UNSAT,
                             EXIT_USAGE, CliError, main)
from qopposition.linalg import ConvergenceError, DimensionMismatch, LinalgError
from qopposition.lp import LogicError, ParseError
from qopposition.opposition import OppositionError
from qopposition.quantum import QuantumError
from qopposition.scenarios import ScenarioError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


class TestClassify:
    def test_contrary_pair(self, capsys):
        code, doc = run_json(capsys, "classify", "spin_half_x", "u_x", "d_x")
        assert code == EXIT_OK
        assert doc["results"]["relation"].startswith("Contrary")
        assert doc["schema"] == 1

    def test_contradictory_pair(self, capsys):
        code, doc = run_json(capsys, "classify", "spin_half_x", "u_x", "!u_x")
        assert code == EXIT_OK
        assert doc["results"]["relation"].startswith("Contradictory")
        assert doc["results"]["witnesses"] == {}

    def test_subaltern_reports_direction(self, capsys):
        code, doc = run_json(capsys, "classify", "spin_half_x", "u_x", "!d_x")
        assert code == EXIT_OK
        assert "Subaltern" in doc["results"]["relation"]

    def test_text_output_header(self, capsys):
        code, out, err = run(capsys, "classify", "spin_half_x", "u_x", "d_x")
        assert code == EXIT_OK
        assert out.startswith("# classify")
        assert "relation: Contrary" in out

    def test_check_witness_valid(self, capsys):
        witness = {"state": [[1.0, 0.0], [0.0, 0.0]], "pattern": [False, False]}
        code, doc = run_json(capsys, "classify", "spin_half_x", "u_x", "d_x",
                             "--check-witness", json.dumps(witness))
        assert code == EXIT_OK
        assert doc["results"]["valid"] is True

    def test_check_witness_invalid(self, capsys):
        witness = {"state": [[1.0, 0.0], [0.0, 0.0]], "pattern": [True, True]}
        code, doc = run_json(capsys, "classify", "spin_half_x", "u_x", "d_x",
                             "--check-witness", json.dumps(witness))
        assert code == EXIT_USAGE
        assert doc["results"]["valid"] is False

    @pytest.mark.parametrize("witness", [
        "[]",
        '{"state": 5, "pattern": [true, false]}',
        '{"state": [[1, 0], [0, 0]], "pattern": [true]}',
        '{"state": [[1, 0, 0], [0, 0]], "pattern": [true, false]}',
        '{"state": [[1, 0], [0, 0]], "pattern": [1, 0]}',
    ], ids=["list", "state-number", "one-entry-pattern", "three-part-component",
            "integer-pattern"])
    def test_check_witness_malformed(self, capsys, witness):
        code, out, err = run(capsys, "classify", "spin_half_x", "u_x", "d_x",
                             "--check-witness", witness)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: --check-witness expects")

    def test_printed_witnesses_replay(self, capsys):
        """Every witness the command prints must validate via --check-witness."""
        _, doc = run_json(capsys, "classify", "spin_half_x", "u_x", "d_x")
        for w in doc["results"]["witnesses"].values():
            code, check = run_json(capsys, "classify", "spin_half_x", "u_x", "d_x",
                                   "--check-witness", json.dumps(w))
            assert code == EXIT_OK and check["results"]["valid"] is True


class TestPolygons:
    def test_hexagon_json(self, capsys):
        code, doc = run_json(capsys, "hexagon", "spin_half_x", "u_x", "d_x")
        assert code == EXIT_OK
        assert doc["results"]["deviations"] == []
        assert len(doc["results"]["relations"]) == 15
        assert set(doc["results"]["positions"]) == {"A", "E", "I", "O", "U", "Y"}

    def test_square_json(self, capsys):
        code, doc = run_json(capsys, "square", "spin_half_x", "u_x", "d_x")
        assert code == EXIT_OK
        assert len(doc["results"]["relations"]) == 6
        assert set(doc["results"]["positions"]) == {"A", "E", "I", "O"}

    @pytest.mark.parametrize("op", ["square", "hexagon"])
    @pytest.mark.parametrize("a, e, want", [
        # the literals of a compound keep their member names
        ("both", "f.c", {"A": "(a & !c)", "E": "c", "I": "!c", "O": "(!a | c)",
                         "U": "((a & !c) | c)", "Y": "(!c & (!a | c))"}),
        # a negated bare reference keeps the member's name, so !nb is b
        ("a", "!nb", {"A": "a", "E": "b", "I": "!b", "O": "!a",
                      "U": "(a | b)", "Y": "(!b & !a)"}),
    ], ids=["compound", "negated"])
    def test_file_propositions_display_their_members(self, capsys, tmp_path, op, a, e, want):
        lines = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
        doc = {"name": "t", "dim": 3,
               "families": {"f": {"members": [[m, [v]] for m, v in zip("abc", lines)]}},
               "propositions": {"a": "f.a", "nb": "!f.b", "both": {"and": ["f.a", "!f.c"]}}}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, op, str(path), a, e)
        assert code == EXIT_OK
        assert out["results"]["positions"] == {k: v for k, v in want.items()
                                               if op == "hexagon" or k in "AEIO"}

    def test_hexagon_dot(self, capsys):
        code, out, _ = run(capsys, "hexagon", "spin_half_x", "u_x", "d_x",
                           "--format", "dot")
        assert code == EXIT_OK
        assert out.startswith("digraph")
        nodes = [l for l in out.splitlines() if "[label=" in l and "shape" not in l
                 and "->" not in l]
        edges = [l for l in out.splitlines() if "->" in l]
        assert len(nodes) == 6
        assert len(edges) == 15

    def test_square_dot_counts(self, capsys):
        code, out, _ = run(capsys, "square", "spin_half_x", "u_x", "d_x",
                           "--format", "dot")
        assert code == EXIT_OK
        assert len([l for l in out.splitlines() if "->" in l]) == 6

    def test_dot_rejected_elsewhere(self, capsys):
        code, out, err = run(capsys, "prob", "spin_half_x", "up_z", "x",
                             "--format", "dot")
        assert code == EXIT_USAGE
        assert "dot" in err

    def test_scenario_show_refuses_dot(self, capsys):
        code, out, err = run(capsys, "scenario", "show", "cat", "--format", "dot")
        assert code == EXIT_USAGE and out == ""
        assert "only available for square/hexagon" in err

    def test_dot_refused_before_the_query_runs(self, capsys, monkeypatch):
        from qopposition import cli

        def never(*_):
            raise AssertionError("run_query was called")
        monkeypatch.setattr(cli, "run_query", never)
        code, out, err = run(capsys, "lp", "chain", "a", "b", "--models",
                             "--format", "dot")
        assert code == EXIT_USAGE and out == ""
        assert "only available for square/hexagon" in err

    def test_equivalent_base_pair_rejected(self, capsys):
        code, out, err = run(capsys, "hexagon", "spin_half_x", "u_x", "u_x")
        assert code == EXIT_USAGE
        assert "Equivalent" in err


class TestProbAttribute:
    def test_prob_skewed(self, capsys):
        code, doc = run_json(capsys, "prob", "skewed", "skewed", "x")
        assert code == EXIT_OK
        assert doc["results"]["probabilities"]["up_x"] == pytest.approx(4 / 7)
        assert doc["results"]["total"] == pytest.approx(1.0)

    def test_attribute_minimal(self, capsys):
        code, doc = run_json(capsys, "attribute", "spin_half_x", "up_z", "x")
        assert code == EXIT_OK
        assert doc["results"]["attributed"] == []

    def test_attribute_paraconsistent(self, capsys):
        code, doc = run_json(capsys, "attribute", "spin_half_x", "up_z", "x",
                             "--semantics", "paraconsistent")
        assert code == EXIT_OK
        assert doc["results"]["attributed"] == ["down_x", "up_x"]

    def test_huge_components_warn_nothing(self, capsys, tmp_path):
        # the norm of [1e200, 1e200] overflows numpy's plain sum of squares
        # before it is rescaled; qopp must print the weights and nothing else
        doc = {"name": "t", "dim": 2, "states": {"big": [[1e200, 0], [1e200, 0]]},
               "families": {"f": {"members": [["a", [[[1, 0], [0, 0]]]],
                                              ["b", [[[0, 0], [1, 0]]]]]}}}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "prob", str(path), "big", "f")
        assert code == EXIT_OK and err == ""
        assert out.endswith("probabilities:\n  a: 0.5\n  b: 0.5\ntotal: 1\n")

    def test_unknown_state(self, capsys):
        code, out, err = run(capsys, "prob", "spin_half_x", "ghost", "x")
        assert code == EXIT_USAGE
        assert "unknown state" in err


class TestLp:
    def test_postulate_classical_unsat(self, capsys):
        code, doc = run_json(capsys, "lp", "postulate", "s1", "s2",
                             "--mode", "classical")
        assert code == EXIT_UNSAT
        assert doc["results"]["satisfiable"] is False

    def test_postulate_lp_sat(self, capsys):
        code, doc = run_json(capsys, "lp", "postulate", "s1", "s2")
        assert code == EXIT_OK
        assert doc["results"]["model"] == {"K_s1": "B", "K_s2": "B"}

    def test_chain_classical_consequence(self, capsys):
        code, doc = run_json(capsys, "lp", "chain", "a", "b", "c",
                             "--mode", "classical",
                             "--conclude", "p_a <-> !p_a")
        assert code == EXIT_OK
        assert doc["results"]["consequence"] is True

    def test_chain_lp_consequence_fails(self, capsys):
        code, doc = run_json(capsys, "lp", "chain", "a", "b", "c",
                             "--conclude", "p_a <-> !p_a")
        assert code == EXIT_NOT_CONSEQUENCE
        assert doc["results"]["consequence"] is False

    def test_check_with_models(self, capsys):
        code, doc = run_json(capsys, "lp", "check", "-c", "K1", "-c", "!K1",
                             "--models")
        assert code == EXIT_OK
        assert doc["results"]["models"] == [{"K1": "B"}]

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "lp", "check", "-c", "p &")
        assert code == EXIT_USAGE
        assert "column" in err

    def test_duplicate_labels(self, capsys):
        code, out, err = run(capsys, "lp", "postulate", "s", "s")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("formula", [
        "(" * 3000 + "p" + ")" * 3000,
        "!" * 3000 + "p",
        " -> ".join(["p"] * 3000),
    ], ids=["parentheses", "negations", "arrows"])
    def test_deep_formula_is_a_usage_error(self, capsys, formula):
        code, out, err = run(capsys, "lp", "check", "-c", formula)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: input is nested too deeply\n"

    @pytest.mark.parametrize("depth", [600, 900])
    @pytest.mark.parametrize("mode", ["lp", "classical"])
    def test_deep_negations_are_decided(self, capsys, depth, mode):
        # the printer writes a run of "!" in a loop, so the parser's stack
        # sets the bound, near 990 negations
        code, doc = run_json(capsys, "lp", "check", "-c", "!" * depth + "p",
                             "--mode", mode)
        assert code == EXIT_OK
        # an even run of "!" is p; B precedes T in the documented order
        assert doc["results"]["model"] == {"p": {"lp": "B", "classical": "T"}[mode]}

    def test_closed_pipe_exits_quietly(self, capsys, monkeypatch, tmp_path):
        # `qopp lp chain ... --models | head -n 2`: the reader closed the pipe,
        # so main must move stdout's descriptor (here a file's) to devnull
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            code = main(["lp", "chain", *"abcdefgh", "--models"])
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert code == EXIT_PIPE
        assert capsys.readouterr().err == ""

    def test_nested_parentheses_are_decided(self, capsys):
        # the parser spends two frames per parenthesis level, so 400 levels
        # stay well inside the default recursion limit
        formula = "(" * 400 + "p & !p" + ")" * 400
        code, doc = run_json(capsys, "lp", "check", "-c", formula)
        assert code == EXIT_OK
        assert doc["results"]["model"] == {"p": "B"}

    def test_valuation_budget(self, capsys):
        labels = [f"l{i}" for i in range(16)]
        code, out, err = run(capsys, "lp", "chain", *labels)
        assert code == EXIT_USAGE
        assert "43046721 valuations" in err


class TestScenario:
    def test_list(self, capsys):
        code, doc = run_json(capsys, "scenario", "list")
        assert code == EXIT_OK
        assert "spin_half_x" in doc["results"]["builtins"]

    def test_show_json_is_serialization(self, capsys):
        from qopposition.scenarios import builtin, serialize
        code, out, _ = run(capsys, "scenario", "show", "cat", "--format", "json")
        assert code == EXIT_OK
        assert out.strip() == serialize(builtin("cat"))

    def test_show_text(self, capsys):
        code, out, _ = run(capsys, "scenario", "show", "cat")
        assert code == EXIT_OK
        assert "dim 2" in out

    def test_run_builtin(self, capsys):
        code, doc = run_json(capsys, "scenario", "run", "double_slit")
        assert code == EXIT_OK
        assert len(doc["results"]["queries"]) == 4

    def test_run_file(self, capsys, tmp_path):
        from qopposition.scenarios import builtin, serialize
        path = tmp_path / "sc.json"
        path.write_text(serialize(builtin("three_level")))
        code, doc = run_json(capsys, "scenario", "run", str(path))
        assert code == EXIT_OK
        assert doc["results"]["scenario"] == "three_level"

    @pytest.mark.parametrize("query", [
        {"op": "classify", "args": []},
        {"op": "lp_postulate", "args": {"labels": 5}},
        {"op": "prob", "args": {"state": ["a"], "family": "x"}},
        {"op": "hexagon", "args": {"a": 1, "e": "d_x"}},
    ], ids=["args-list", "labels-number", "state-list", "proposition-number"])
    def test_malformed_query_is_a_usage_error(self, capsys, tmp_path, query):
        from qopposition.scenarios import builtin, serialize
        doc = json.loads(serialize(builtin("spin_half_x")))
        doc["queries"] = [query]
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "scenario", "run", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("doc", [
        {"dim": 2, "states": []},
        {"dim": 2, "propositions": []},
        {"dim": 2, "families": {"f": {"members": [["a", 5]]}}},
        {"dim": 2, "families": {"f": {"members": 5}}},
        {"dim": 0},
        {"dim": True},
        {"dim": 2.5},
        {"dim": 2, "states": {"s": [[None, 0], [1, 0]]}},
    ], ids=["states-list", "propositions-list", "member-vectors-number",
            "members-number", "dim-zero", "dim-bool", "dim-float", "component-null"])
    def test_malformed_file_is_a_usage_error(self, capsys, tmp_path, doc):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps({"name": "t", **doc}))
        code, out, err = run(capsys, "scenario", "run", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ")

    def test_deep_proposition_is_a_usage_error(self, capsys, tmp_path):
        deep = "f.a"
        for _ in range(400):
            deep = {"and": [deep, "f.a"]}
        doc = {"name": "t", "dim": 2,
               "families": {"f": {"members": [["a", [[[1, 0], [0, 0]]]],
                                              ["b", [[[0, 0], [1, 0]]]]]}},
               "propositions": {"deep": deep, "a": "f.a"}}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "classify", str(path), "deep", "a")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: input is nested too deeply\n"

    @pytest.mark.parametrize("argv", [
        ("classify", "FILE", "deep", "b"),
        ("classify", "FILE", "!deep", "b"),
        ("square", "FILE", "deep", "b"),
        ("hexagon", "FILE", "deep", "b"),
        ("scenario", "show", "FILE"),
        ("scenario", "show", "FILE", "--format", "json"),
        ("scenario", "run", "FILE"),
        ("scenario", "run", "FILE", "--format", "json"),
        ("prob", "FILE", "s", "f"),
        ("classify", "FILE", "deep", "b", "--check-witness",
         '{"state": [[1, 0], [0, 0]], "pattern": [true, false]}'),
    ], ids=["classify", "classify-negated", "square", "hexagon", "show-text",
            "show-json", "run-text", "run-json", "prob", "check-witness"])
    @pytest.mark.parametrize("depth", [100, 101, 400])
    def test_nesting_limit_is_the_same_for_every_command(self, capsys, tmp_path,
                                                          argv, depth):
        # an and/or chain over f.a, alternating the connective: it holds
        # exactly where f.a does, so it is Contrary to f.b at every depth
        deep = "f.a"
        for level in range(depth):
            deep = {"and" if level % 2 else "or": [deep, "f.a"]}
        doc = {"name": "t", "dim": 2, "states": {"s": [[1, 0], [0, 0]]},
               "families": {"f": {"members": [["a", [[[1, 0], [0, 0]]]],
                                              ["b", [[[0, 0], [1, 0]]]]]}},
               "propositions": {"deep": deep, "b": "f.b"},
               "queries": [{"op": "classify", "args": {"p": "deep", "q": "b"}},
                           {"op": "hexagon", "args": {"a": "deep", "e": "b"}}]}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
        if depth <= 100:
            assert code == EXIT_OK and err == "" and "nested" not in out
        else:
            assert code == EXIT_USAGE and out == ""
            assert err == "error: input is nested too deeply\n"

    @pytest.mark.parametrize("argv", [("scenario", "show", "DIR"),
                                      ("classify", "DIR", "a", "b")],
                             ids=["show", "classify"])
    def test_directory_is_a_usage_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *(str(tmp_path) if a == "DIR" else a for a in argv))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: cannot read scenario file {str(tmp_path)!r}: ")

    def test_zero_dimensional_member(self, capsys, tmp_path):
        # a member with no vectors is the zero subspace: a state never lies in
        # it, so z is Contrary to a and Contradictory to its own negation
        from qopposition.scenarios import load_scenario, serialize
        doc = {"name": "t", "dim": 2,
               "families": {"f": {"members": [["a", [[[1, 0], [0, 0]]]],
                                              ["b", [[[0, 0], [1, 0]]]], ["z", []]]}},
               "propositions": {"a": "f.a", "z": "f.z"}}
        sc = load_scenario(json.dumps(doc))
        assert sc.families["f"].subspace("z").is_zero()
        path = tmp_path / "sc.json"
        path.write_text(serialize(sc))
        code, out, _ = run(capsys, "scenario", "show", str(path), "--format", "json")
        assert code == EXIT_OK and out == path.read_text() + "\n"
        assert '["z",[]]' in out
        code, doc = run_json(capsys, "classify", str(path), "a", "z")
        assert code == EXIT_OK and doc["results"]["relation"] == "Contrary"
        code, doc = run_json(capsys, "classify", str(path), "z", "!z")
        assert code == EXIT_OK and doc["results"]["relation"] == "Contradictory"
        assert doc["results"]["witnesses"] == {}

    def test_lp_check_query_matches_lp_check(self, capsys, tmp_path):
        from qopposition.scenarios import builtin, serialize
        doc = json.loads(serialize(builtin("cat")))
        doc["queries"] = [{"op": "lp_check",
                           "args": {"constraints": ["K1", "!K1 | p"], "models": True}}]
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        code, ran = run_json(capsys, "scenario", "run", str(path))
        assert code == EXIT_OK
        [result] = ran["results"]["queries"]
        code, direct = run_json(capsys, "lp", "check", "-c", "K1", "-c", "!K1 | p",
                                "--models")
        assert code == EXIT_OK and len(direct["results"]["models"]) > 1
        assert {k: v for k, v in result.items() if k not in ("op", "args")} \
            == direct["results"]

    def test_missing_scenario(self, capsys):
        code, out, err = run(capsys, "classify", "nope", "a", "b")
        assert code == EXIT_USAGE
        assert "no builtin" in err

    def test_bad_file_reports_location(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "dim": }')
        code, out, err = run(capsys, "scenario", "run", str(path))
        assert code == EXIT_USAGE
        assert "line 2" in err


class TestErrorContract:
    @pytest.mark.parametrize("error", [
        LinalgError, DimensionMismatch, ConvergenceError, QuantumError, OppositionError,
        LogicError, ParseError, ScenarioError, CliError], ids=lambda e: e.__name__)
    def test_every_library_error_is_a_value_error(self, error):
        assert issubclass(error, ValueError)

    def test_a_key_error_is_a_defect_not_a_usage_error(self, monkeypatch):
        # main turns refused input (ValueError) into exit 2; a KeyError is
        # raised by no input path, so one from the library must escape
        from qopposition import cli

        def broken(*args, **kwargs):
            raise KeyError("defect")
        monkeypatch.setattr(cli, "run_query", broken)
        with pytest.raises(KeyError):
            main(["classify", "spin_half_x", "u_x", "d_x"])


class TestGlobalFlags:
    def test_flags_before_subcommand(self, capsys):
        code, doc = run_json(capsys, "--eps", "1e-8",
                             "classify", "spin_half_x", "u_x", "d_x")
        assert code == EXIT_OK
        assert doc["eps"] == 1e-8 and "seed" not in doc
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "7", "classify", "spin_half_x", "u_x", "d_x"])
        assert exc.value.code == EXIT_USAGE

    def test_flags_after_subcommand(self, capsys):
        code, doc = run_json(capsys, "classify", "spin_half_x", "u_x", "d_x",
                             "--eps", "1e-8")
        assert code == EXIT_OK
        assert doc["eps"] == 1e-8 and "seed" not in doc
        with pytest.raises(SystemExit) as exc:
            main(["classify", "spin_half_x", "u_x", "d_x", "--seed", "7"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_eps(self, capsys):
        code, out, err = run(capsys, "--eps", "0.5",
                             "classify", "spin_half_x", "u_x", "d_x")
        assert code == EXIT_USAGE

    def test_json_output_deterministic(self, capsys):
        argv = ("hexagon", "spin_half_x", "u_x", "d_x")
        _, first = run_json(capsys, *argv)
        _, second = run_json(capsys, *argv)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_json_is_canonical_bytes(self, capsys):
        argv = ("prob", "skewed", "skewed", "x", "--format", "json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
