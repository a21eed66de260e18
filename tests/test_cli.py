import io
import json
import math
import os
import subprocess
import sys

import pytest

import qopposition
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

    def test_text_output_of_no_witnesses(self, capsys):
        code, out, err = run(capsys, "classify", "spin_half_x", "u_x", "!u_x")
        assert code == EXIT_OK and err == ""
        assert out == ("# classify spin_half_x u_x !u_x  (eps=1e-09)\n"
                       "relation: Contradictory\n"
                       "witnesses: {}\n")

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
        # the state goes through the loader's rule: finite doubles only
        '{"state": [[1%s, 0], [0, 0]], "pattern": [true, false]}' % ("0" * 400),
        '{"state": [[NaN, 0], [1, 0]], "pattern": [false, false]}',
        '{"state": [[1, 0], [0, Infinity]], "pattern": [true, false]}',
        '{"state": [[1e999, 0], [0, 0]], "pattern": [true, false]}',
        # the state has the scenario's dimension, 2
        '{"state": [[1, 0], [0, 0], [0, 0]], "pattern": [true, false]}',
    ], ids=["list", "state-number", "one-entry-pattern", "three-part-component",
            "integer-pattern", "int-1e400", "NaN", "Infinity", "1e999", "state-three-rows"])
    def test_check_witness_malformed(self, capsys, witness):
        code, out, err = run(capsys, "classify", "spin_half_x", "u_x", "d_x",
                             "--check-witness", witness)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: --check-witness expects") and err.count("\n") == 1

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
        code, out, err = run(capsys, "prob", str(path), "big", "f")
        assert code == EXIT_OK and err == ""
        assert out.endswith("probabilities:\n  a: 0.5\n  b: 0.5\ntotal: 1\n")

    def test_state_whose_norm_overflows_is_refused_as_such(self, capsys, tmp_path):
        # finite components whose norm is no double: the state is scaled by
        # powers of two before it is normalized, so it is not refused
        doc = {"name": "t", "dim": 2, "states": {"big": [[1.5e308, 0], [1.5e308, 0]]},
               "families": {"f": {"members": [["a", [[[1, 0], [0, 0]]]],
                                              ["b", [[[0, 0], [1, 0]]]]]}}}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "prob", str(path), "big", "f")
        assert code == EXIT_OK and err == ""
        assert out.endswith("probabilities:\n  a: 0.5\n  b: 0.5\ntotal: 1\n")

    @pytest.mark.parametrize("tiny", [5e-324, 1e-320])
    def test_subnormal_state_is_normalized(self, capsys, tmp_path, tiny):
        # its norm, taken unscaled, is subnormal and keeps a few bits, so that
        # dividing by it leaves "norm 1.0001286688480586": it is scaled first
        doc = {"name": "t", "dim": 2, "states": {"tiny": [[tiny, 0], [tiny, 0]]},
               "families": {"f": {"members": [["a", [[[1, 0], [0, 0]]]],
                                              ["b", [[[0, 0], [1, 0]]]]]}}}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "prob", str(path), "tiny", "f")
        assert code == EXIT_OK and err == ""
        assert out.endswith("probabilities:\n  a: 0.5\n  b: 0.5\ntotal: 1\n")

    @pytest.mark.parametrize("eps, code", [("1e-6", EXIT_OK), (None, EXIT_USAGE)],
                             ids=["eps-1e-6", "default-eps"])
    def test_observable_is_checked_at_the_load_eps(self, capsys, tmp_path, eps, code):
        # an asymmetry of 5e-7: Hermitian at eps 1e-6, not at the default 1e-9
        doc = {"name": "t", "dim": 2,
               "observables": {"X": [[[0, 0], [1, 0]], [[1.0000005, 0], [0, 0]]]}}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        got, out, err = run(capsys, *(["--eps", eps] if eps else []),
                            "scenario", "show", str(path))
        assert got == code
        assert err == ("" if eps else "error: observable 'X' is not Hermitian\n")

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

    @pytest.mark.parametrize("argv, atom", [
        (["chain", "x y", "z"], "p_x y"), (["chain", "a-b", "c"], "p_a-b"),
        (["postulate", "s1", "s.2"], "K_s.2")], ids=["space", "dash", "dot"])
    def test_label_that_makes_an_unreadable_atom_is_refused(self, capsys, argv, atom):
        code, out, err = run(capsys, "lp", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: atom name {atom!r} is not letters, digits and _ only\n"

    @pytest.mark.parametrize("formula", [
        "(" * 3000 + "p" + ")" * 3000,
        "!" * 3000 + "p",
        " -> ".join(["p"] * 3000),
    ], ids=["parentheses", "negations", "arrows"])
    def test_deep_formula_is_a_usage_error(self, capsys, formula):
        code, out, err = run(capsys, "lp", "check", "-c", formula)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: input is nested too deeply\n"

    @pytest.mark.parametrize("n", [3, 900])
    @pytest.mark.parametrize("op", ["&", "|", "->", "<->"])
    def test_flat_chains_are_decided_and_echoed(self, capsys, op, n):
        # the printer writes from an explicit stack, so it takes any chain
        # the parser and the evaluator take; & and | group to the left,
        # -> and <-> to the right
        names = ["p", "q"] * (n // 2) + ["p"] * (n % 2)
        if op in ("&", "|"):  # ((p & q) & p)
            want = "(" * (n - 1) + names[0] + "".join(f" {op} {x})" for x in names[1:])
        else:  # (p -> (q -> p))
            want = "".join(f"({x} {op} " for x in names[:-1]) + names[-1] + ")" * (n - 1)
        code, doc = run_json(capsys, "lp", "check", "-c", f" {op} ".join(names))
        assert code == EXIT_OK
        assert doc["results"]["constraints"] == [want]

    @pytest.mark.parametrize("depth", [600, 900])
    @pytest.mark.parametrize("mode", ["lp", "classical"])
    def test_deep_negations_are_decided(self, capsys, depth, mode):
        # the printer writes from an explicit stack, so the parser's stack
        # sets the bound, near 990 negations
        code, doc = run_json(capsys, "lp", "check", "-c", "!" * depth + "p",
                             "--mode", mode)
        assert code == EXIT_OK
        # an even run of "!" is p; B precedes T in the documented order
        assert doc["results"]["model"] == {"p": {"lp": "B", "classical": "T"}[mode]}

    def test_text_output_lists_models(self, capsys):
        code, out, err = run(capsys, "lp", "check", "-c", "p | !p", "--models")
        assert code == EXIT_OK and err == ""
        assert out == ("# lp check  (eps=1e-09)\n"
                       "constraints: [(p | !p)]\n"
                       "mode: lp\n"
                       "satisfiable: true\n"
                       "model:\n"
                       "  p: F\n"
                       "models:\n"
                       "  -\n"
                       "    p: F\n"
                       "  -\n"
                       "    p: B\n"
                       "  -\n"
                       "    p: T\n")

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

    LP_CHAIN = ["lp", "chain", *"abcdefgh", "--models"]

    @pytest.mark.parametrize("argv, lines, unbuffered", [
        (LP_CHAIN, 2, True), (LP_CHAIN, 0, True), (LP_CHAIN, 2, False), (LP_CHAIN, 0, False),
        (["classify", "spin_half_x", "u_x", "d_x"], 0, False),
    ], ids=["head-n-2", "true", "head-n-2-buffered", "true-buffered", "classify-true-buffered"])
    def test_closed_pipe_in_a_process_leaves_stderr_empty(self, argv, lines, unbuffered):
        # `| head -n 2` and `| true`: the reader closes the pipe after two
        # lines, or before the first write.  No traceback, and no "Exception
        # ignored" from the interpreter's final flush, with stdout unbuffered
        # and with the block-buffered stdout that a shell's pipe gives.  The
        # lp chain's 13.5 kB leave nothing in the buffer when the write fails;
        # classify's few lines stay there, so only devnull quiets the flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qopposition.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qopposition.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(lines):
            proc.stdout.readline()
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        code = proc.wait()
        assert err == b""
        if not lines:
            assert code == EXIT_PIPE

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

    @pytest.mark.parametrize("where, what", [
        ("state", "state 't'"), ("observable", "observable 'X' row"),
        ("member", "family 'f' member 'a'")], ids=["state", "observable", "member"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400],
                             ids=["NaN", "Infinity", "-Infinity", "int-1e400"])
    def test_non_finite_number_is_a_usage_error(self, capsys, tmp_path, where, what, bad):
        # json reads NaN, Infinity and -Infinity, and integers of any size
        up, down, row = [[1, 0], [0, 0]], [[0, 0], [1, 0]], [[bad, 0], [1, 0]]
        doc = {"name": "t", "dim": 2, "states": {"t": up}, "observables": {"X": [down, up]},
               "families": {"f": {"members": [["a", [up]], ["b", [down]]]}}}
        if where == "state":
            doc["states"]["t"] = row
        elif where == "observable":
            doc["observables"]["X"][0] = row
        else:
            doc["families"]["f"]["members"][0][1][0] = row
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "prob", str(path), "t", "f")
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {what}: component {[bad, 0]} is not a finite double\n"

    def test_member_basis_near_orthonormal_is_decided_consistently(self, capsys, tmp_path):
        # m's vectors stray 9e-10 per Gram entry from orthonormal, 1.8e-9 in
        # the Frobenius norm: past the constructor's 3/4 eps, so the loader
        # orthonormalizes them, and m contains e1 for prob, attribute and classify
        e = lambda i, x=0.0: [[1.0 if j == i else x if j == 0 else 0.0, 0.0] for j in range(4)]
        doc = {"name": "t", "dim": 4, "states": {"b1": e(0)},
               "families": {"f": {"members": [["m", [e(0), e(1, 9e-10), e(2, 9e-10)]],
                                              ["n", [e(3)]]]}}}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        code, prob = run_json(capsys, "prob", str(path), "b1", "f")
        assert code == EXIT_OK and prob["results"]["probabilities"] == {"m": 1, "n": 0}
        code, attr = run_json(capsys, "attribute", str(path), "b1", "f")
        assert code == EXIT_OK and attr["results"]["attributed"] == ["m"]
        code, cls = run_json(capsys, "classify", str(path), "f.m", "f.n")
        assert code == EXIT_OK and cls["results"]["relation"] == "Contrary"
        from qopposition.scenarios import load_scenario
        fam = load_scenario(path.read_text()).families["f"]
        witness = [complex(*c) for c in cls["results"]["witnesses"]["both_false"]["state"]]
        assert not any(sub.contains(witness) for _, sub in fam.members)

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
        assert sc.families["f"].subspace("z").dim == 0
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

    @pytest.mark.parametrize("op", ["lp_chain", "lp_postulate"])
    def test_lp_label_that_makes_an_unreadable_atom_is_refused(self, capsys, tmp_path, op):
        from qopposition.scenarios import builtin, serialize
        doc = json.loads(serialize(builtin("cat")))
        doc["queries"] = [{"op": op, "args": {"labels": ["a", "b c"]}}]
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "scenario", "run", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        atom = "p_b c" if op == "lp_chain" else "K_b c"
        assert err == f"error: atom name {atom!r} is not letters, digits and _ only\n"

    @pytest.mark.parametrize("ask", ["no", 1, None], ids=["string", "number", "null"])
    def test_lp_check_models_must_be_a_boolean(self, capsys, tmp_path, ask):
        from qopposition.scenarios import builtin, serialize
        doc = json.loads(serialize(builtin("cat")))
        doc["queries"] = [{"op": "lp_check", "args": {"constraints": ["p"], "models": ask}}]
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "scenario", "run", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: query argument 'models' must be true or false, got {ask!r}\n"

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
        # an LP command takes the same check without loading the linear algebra
        code, out, err = run(capsys, "lp", "chain", "a", "b", "--eps", "0.5")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: eps must lie in [1e-13, 1e-3), got 0.5\n"

    def test_eps_below_the_floor(self, capsys):
        # below 1e-13 gram_schmidt's bases can fail the Subspace constructor's
        # orthonormality rule, so such an eps is refused up front
        code, out, err = run(capsys, "--eps", "1e-15", "classify", "cat", "dead", "alive")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: eps must lie in [1e-13, 1e-3), got 1e-15\n"
        code, out, err = run(capsys, "--eps", "1e-13", "classify", "cat", "dead", "alive")
        assert code == EXIT_OK and "Contrary" in out and err == ""

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


# --- what an import loads ---------------------------------------------------

def _fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports this package; its stdout."""
    src = os.path.dirname(os.path.dirname(qopposition.__file__))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportLayering:
    """A `qopp` command imports only the library modules it runs."""

    @pytest.mark.parametrize("argv, loaded, absent", [
        (["lp", "chain", "a", "b", "--format", "json"], {"qopposition.lp"},
         {"numpy", "qopposition.linalg", "qopposition.quantum", "qopposition.opposition"}),
        (["hexagon", "cat", "dead", "alive"], {"numpy", "qopposition.opposition"},
         {"qopposition.lp"}),
        (["scenario", "show", "cat", "--format", "json"], {"qopposition.quantum"},
         {"qopposition.lp", "qopposition.opposition"}),
        (["scenario", "list"], {"qopposition.scenarios"},
         {"numpy", "qopposition.linalg", "qopposition.quantum", "qopposition.opposition",
          "qopposition.lp"}),
    ], ids=["lp-chain", "hexagon", "scenario-show", "scenario-list"])
    def test_command_loads_only_what_it_runs(self, argv, loaded, absent):
        out = _fresh_python("import runpy, sys\n"
                            f"sys.argv = ['qopp', *{argv!r}]\n"
                            "try:\n"
                            "    runpy.run_module('qopposition.cli', run_name='__main__')\n"
                            "except SystemExit as exc:\n"
                            "    assert exc.code == 0, exc.code\n"
                            "print(*sorted(sys.modules))\n")
        modules = set(out.splitlines()[-1].split())
        assert loaded <= modules
        assert not absent & modules


# every re-exported name, by the submodule that defines it
_EXPORTS = {
    "linalg": "EPS Subspace gram_schmidt hermitian_eig",
    "quantum": "And Literal Observable Or OrthoFamily State born family_from_observable "
               "minimal_attribution paraconsistent_attribution superpose truth",
    "opposition": "Classification Relation Witness build_hexagon build_square "
                  "can_both_be_false can_both_be_true classify entails",
    "lp": "TV Atom Not AndF OrF Imp Iff consequence equivalence_chain eval3 models "
          "parse_formula postulate_of_contradiction satisfiable",
    "scenarios": "Scenario builtin load_scenario serialize",
}


# the submodules each one imports, itself included
_CLOSURES = {
    "linalg": ["linalg"],
    "quantum": ["linalg", "quantum"],
    "opposition": ["linalg", "opposition", "quantum"],
    "lp": ["lp"],
    "scenarios": ["scenarios"],
}


class TestLazyPackage:
    """`import qopposition` loads nothing; the first use of a library name
    loads only the submodule that defines it, with that submodule's own
    imports."""

    def _run(self, body: str) -> str:
        return _fresh_python(f"""\
import importlib, sys
EXPORTS = {_EXPORTS!r}
CLOSURES = {_CLOSURES!r}
MODULES = list(EXPORTS)

def fresh():
    for m in [m for m in sys.modules if m.split(".")[0] == "qopposition"]:
        del sys.modules[m]
    return importlib.import_module("qopposition")

def loaded():
    return sorted(m for m in MODULES if "qopposition." + m in sys.modules)
{body}""")

    def test_import_loads_no_submodule(self):
        out = self._run("import qopposition\n"
                        "print(*sorted(m for m in sys.modules if m.startswith('qopposition.')))\n"
                        "print('numpy' in sys.modules)\n")
        assert out == "\nFalse\n"

    def test_first_use_of_a_name_loads_its_submodule(self):
        self._run("""
names = [n for m in MODULES for n in EXPORTS[m].split()]
assert len(names) == 43 and sorted(fresh().__all__) == sorted(names)
for m in MODULES:
    # the table is each submodule's import closure
    fresh()
    importlib.import_module("qopposition." + m)
    assert loaded() == CLOSURES[m], (m, loaded())
    for name in [m, *EXPORTS[m].split()]:
        q = fresh()
        value = getattr(q, name)
        assert loaded() == CLOSURES[m], (name, loaded())
        module = sys.modules["qopposition." + m]
        assert value is (module if name == m else getattr(module, name)), name
""")

    def test_star_import_binds_every_name(self):
        out = _fresh_python("from qopposition import *\n"
                            "import qopposition\n"
                            "names = qopposition.__all__\n"
                            "print(len(names), all(globals()[n] is getattr(qopposition, n)"
                            " for n in names))\n")
        assert out == "43 True\n"

    def test_lp_use_loads_no_numpy(self):
        out = _fresh_python("import sys\n"
                            "import qopposition as q\n"
                            "assert q.satisfiable([q.parse_formula('a & !a')]) == {'a': q.TV.B}\n"
                            "print(*sorted(m for m in sys.modules"
                            " if m == 'numpy' or m.startswith('qopposition')))\n")
        assert out == "qopposition qopposition.lp\n"

    def test_quantum_use_loads_no_scenario_loader(self):
        out = _fresh_python("import sys\n"
                            "import qopposition as q\n"
                            "a, b = q.gram_schmidt([[1, 0]]), q.gram_schmidt([[0, 1]])\n"
                            "a, b = q.Literal(a), q.Literal(b)\n"
                            "assert len(q.build_hexagon(a, b).positions) == 6\n"
                            "assert q.classify(a, b).relation is q.Relation.CONTRARY\n"
                            "print(*sorted(m for m in sys.modules"
                            " if m == 'json' or m.startswith('qopposition')))\n")
        assert out == ("qopposition qopposition._eps qopposition.linalg"
                       " qopposition.opposition qopposition.quantum\n")

    def test_other_names_load_nothing(self):
        # perfbench's tracer relies on `cli` reading None until it is imported
        self._run("""
q = fresh()
assert getattr(q, "cli", None) is None and getattr(q, "nope", None) is None
assert loaded() == []
q.classify
assert getattr(q, "cli", None) is None
import qopposition.cli
assert q.cli is sys.modules["qopposition.cli"]
""")
