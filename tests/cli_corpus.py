"""Byte-identity corpus for the `qopp` command line.

Runs a fixed set of commands in-process through `qopposition.cli.main` and
prints one line per command: the exit code, the SHA-256 of its stdout plus
stderr, and the argv.  A command that raises out of `main` prints `exc`
and the SHA-256 of the exception's type and message instead, so a checkout
that crashes on some input still runs the whole corpus.  The last line is
the SHA-256 of all the lines before it.  Two checkouts print the same
lines exactly when every command gives the same exit code and the same
bytes.

    PYTHONPATH=src python tests/cli_corpus.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/cli_corpus.py > old.txt
    diff old.txt new.txt

The file name keeps it out of pytest collection.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

# argparse wraps its usage messages to the terminal width
os.environ["COLUMNS"] = "80"

from qopposition.cli import main  # noqa: E402
from qopposition.scenarios import BUILTIN_NAMES, builtin  # noqa: E402

FORMATS = ("text", "json")

# a file scenario with a non-orthonormal member basis (the loader's
# Gram-Schmidt fallback) and compound propositions
MIXED = {
    "name": "mixed",
    "dim": 3,
    "states": {"e0": [[1, 0], [0, 0], [0, 0]], "tilt": [[1, 0], [1, 0], [1, 0]]},
    "families": {"f": {"members": [
        ["ab", [[[1, 0], [0, 0], [0, 0]], [[1, 0], [2, 0], [0, 0]]]],
        ["c", [[[0, 0], [0, 0], [1, 0]]]]]}},
    "propositions": {
        "ab": "f.ab",
        "c": "f.c",
        "both": {"and": ["f.ab", "!f.c"]},
        "either": {"or": ["f.ab", "f.c"]},
    },
    "queries": [{"op": "hexagon", "args": {"a": "both", "e": "c"}},
                {"op": "prob", "args": {"state": "tilt", "family": "f"}}],
}

FORMULAS_BAD = ["p &", "(p", "p & q)", "p ->", "", "!", "p q", "p - q",
                "p <- q", "&p", "p | | q", "((p)"]

# nested deeper than the recursive parser reaches
FORMULAS_DEEP = ["(" * 3000 + "p" + ")" * 3000, "!" * 3000 + "p",
                 " -> ".join(["p"] * 3000)]


def _refs(name: str) -> list:
    """Each proposition of a scenario, for a builtin also the first member
    of each family as a path, and the negations of all of them."""
    sc = builtin(name) if name in BUILTIN_NAMES else None
    if sc is None:
        refs = sorted(MIXED["propositions"])
    else:
        refs = sorted(sc.propositions)
        refs += [f"{f}.{sc.families[f].labels[0]}" for f in sorted(sc.families)]
    return refs + ["!" + r for r in refs]


def _states_families(name: str):
    if name in BUILTIN_NAMES:
        sc = builtin(name)
        return sorted(sc.states), sorted(sc.families)
    return sorted(MIXED["states"]), sorted(MIXED["families"])


def commands() -> list:
    scenarios = list(BUILTIN_NAMES) + ["mixed.json"]
    cmds = []
    for fmt in FORMATS:
        cmds.append(["scenario", "list", "--format", fmt])
        for name in scenarios + ["nosuch"]:
            cmds.append(["scenario", "show", name, "--format", fmt])
            cmds.append(["scenario", "run", name, "--format", fmt])
    for name in scenarios:
        refs = _refs(name)
        for p in refs:
            for q in refs:
                for fmt in FORMATS:
                    cmds.append(["classify", name, p, q, "--format", fmt])
                for op in ("square", "hexagon"):
                    for fmt in FORMATS + ("dot",):
                        cmds.append([op, name, p, q, "--format", fmt])
        states, families = _states_families(name)
        for state in states + ["nosuch"]:
            for family in families + ["nosuch"]:
                for fmt in FORMATS:
                    cmds.append(["prob", name, state, family, "--format", fmt])
                    for sem in ("minimal", "paraconsistent"):
                        cmds.append(["attribute", name, state, family,
                                     "--semantics", sem, "--format", fmt])
    for op in ("classify", "square", "hexagon"):
        cmds.append([op, "nosuch", "a", "b"])
        cmds.append([op, "cat", "dead", "nosuch"])
    cmds += _lp_commands()
    cmds += _witness_commands()
    cmds += [
        ["--eps", "1e-8", "classify", "spin_half_x", "u_x", "d_x"],
        ["classify", "spin_half_x", "u_x", "d_x", "--eps", "1e-8"],
        ["--format", "json", "hexagon", "cat", "dead", "alive"],
        ["--eps", "1e-8", "--format", "json", "prob", "skewed", "skewed", "x"],
        ["--eps", "0.1", "classify", "spin_half_x", "u_x", "d_x"],
        ["--eps", "0", "scenario", "list"],
        ["--format", "yaml", "scenario", "list"],
        ["classify", "spin_half_x", "u_x"],
        ["nosuch"],
        [],
    ]
    return cmds


def _lp_commands() -> list:
    cmds = []
    tails = [[], ["--models"], ["--conclude", "K_s1"], ["--conclude", "K_s1 & !K_s1"],
             ["--conclude", ""], ["--conclude", "p &"], ["--models", "--conclude", "p_a"]]
    for mode in ("lp", "classical"):
        for fmt in FORMATS:
            for tail in tails:
                cmds.append(["lp", "postulate", "s1", "s2", "--mode", mode,
                             "--format", fmt] + tail)
                cmds.append(["lp", "chain", "a", "b", "c", "--mode", mode,
                             "--format", fmt] + tail)
                cmds.append(["lp", "check", "-c", "p & !p", "-c", "q | r",
                             "--mode", mode, "--format", fmt] + tail)
            cmds.append(["lp", "postulate", "s1", "s2", "s3", "s4", "--mode", mode,
                         "--format", fmt, "--models"])
            cmds.append(["lp", "chain", "a", "b", "--mode", mode, "--format", fmt,
                         "--conclude", "p_a <-> !p_a"])
            cmds.append(["lp", "check", "--mode", mode, "--format", fmt])
            cmds.append(["lp", "check", "-c", "(a -> b) <-> (!b -> !a)", "-c", "a",
                         "--mode", mode, "--format", fmt, "--models",
                         "--conclude", "b"])
            # associativity and precedence show in the printed constraints
            cmds.append(["lp", "check", "-c", "a -> b -> c", "-c", "a <-> b <-> !c",
                         "-c", "a | b & !c | d", "-c", "!!a & b & c",
                         "--mode", mode, "--format", fmt, "--models"])
            for bad in FORMULAS_BAD:
                cmds.append(["lp", "check", "-c", bad, "--mode", mode, "--format", fmt])
    cmds += [["lp", "postulate", "s1", "s1"], ["lp", "chain", "a"],
             ["lp", "check", "-c", "p", "--mode", "fuzzy"],
             ["lp", "postulate"],
             ["lp", "check", "-c", " & ".join(f"x{i}" for i in range(16))]]
    cmds += [["lp", "check", "-c", deep] for deep in FORMULAS_DEEP]
    return cmds


def _witness_commands() -> list:
    cases = [
        {"state": [[1.0, 0.0], [0.0, 0.0]], "pattern": [False, False]},
        {"state": [[1.0, 0.0], [0.0, 0.0]], "pattern": [True, False]},
        {"state": [[1.0, 0.0], [0.0, 0.0]], "pattern": [True, True]},
        {"state": [[0.6, 0.0], [0.0, 0.8]], "pattern": [False, False]},
        {"state": [[0.0, 0.0], [0.0, 0.0]], "pattern": [False, False]},
        {"state": [[1.0, 0.0]], "pattern": [True, False]},
        {"state": 5, "pattern": [True, False]},
        {"state": [[1.0, 0.0], [0.0, 0.0]], "pattern": [True]},
        {"state": [[1.0, 0.0], [0.0, 0.0]], "pattern": [1, 0]},
        [],
    ]
    cmds = []
    for case in cases:
        for fmt in FORMATS:
            cmds.append(["classify", "spin_half_x", "u_x", "d_x", "--format", fmt,
                         "--check-witness", json.dumps(case)])
    cmds.append(["classify", "spin_half_x", "u_x", "d_x", "--check-witness", "{"])
    return cmds


def run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a crash: its type and message stand for the output
            crash = f"{type(exc).__name__}: {exc}"
            return "exc", hashlib.sha256(crash.encode()).hexdigest()
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main_corpus() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with open("mixed.json", "w", encoding="utf-8") as fh:
                json.dump(MIXED, fh)
            for argv in commands():
                code, digest = run(argv)
                line = f"{code} {digest} {json.dumps(argv)}"
                total.update((line + "\n").encode())
                print(line)
        finally:
            os.chdir(cwd)
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    sys.exit(main_corpus())
