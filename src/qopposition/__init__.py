"""Opposition relations between quantum propositions, the hexagon of
opposition, and a paraconsistent (LP) propositional engine.

`import qopposition` loads no submodule.  The first use of a name below,
or of one of the five library submodules, loads the whole library, so the
package then looks as if it had imported everything.  The `qopp` command
line (`qopposition.cli`) imports only what each command runs."""

# the library's submodules in import order, and the names each re-exports
_EXPORTS = {
    "linalg": ("EPS", "Subspace", "gram_schmidt", "hermitian_eig"),
    "quantum": ("And", "Literal", "Observable", "Or", "OrthoFamily", "State", "born",
                "family_from_observable", "minimal_attribution",
                "paraconsistent_attribution", "superpose", "truth"),
    "opposition": ("Classification", "Relation", "Witness", "build_hexagon",
                   "build_square", "can_both_be_false", "can_both_be_true",
                   "classify", "entails"),
    "lp": ("TV", "Atom", "Not", "AndF", "OrF", "Imp", "Iff", "consequence",
           "equivalence_chain", "eval3", "models", "parse_formula",
           "postulate_of_contradiction", "satisfiable"),
    "scenarios": ("Scenario", "builtin", "load_scenario", "serialize"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name: str):
    # called only for names not yet in the package's globals
    if name not in _EXPORTS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    for module_name, names in _EXPORTS.items():
        # importing a submodule also binds it in these globals
        module = importlib.import_module(f"{__name__}.{module_name}")
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]
