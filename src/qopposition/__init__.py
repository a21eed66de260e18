"""Opposition relations between quantum propositions, the hexagon of
opposition, and a paraconsistent (LP) propositional engine."""

from .linalg import EPS, Subspace, gram_schmidt, hermitian_eig
from .quantum import (And, Literal, Observable, Or, OrthoFamily, State, born,
                      family_from_observable, minimal_attribution,
                      paraconsistent_attribution, superpose, truth)
from .opposition import (Classification, Relation, Witness, build_hexagon,
                         build_square, can_both_be_false, can_both_be_true,
                         classify, entails)
from .lp import (TV, Atom, Not, AndF, OrF, Imp, Iff, consequence,
                 equivalence_chain, eval3, models, parse_formula,
                 postulate_of_contradiction, satisfiable)
from .scenarios import Scenario, builtin, load_scenario, serialize

__version__ = "0.1.0"
