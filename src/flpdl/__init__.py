"""Finitely-valued propositional dynamic logic over finite FL-algebras.

The package is organised bottom-up: `algebra` builds and validates the
truth-value algebras, `syntax`/`parser` define formulas and programs,
`kernel` evaluates them over batches of models, `relations` and
`semantics` serve single relations and models from it, `filtration`
compresses models through formula closures, `decision` decides validity
and searches for countermodels, `proofs` checks Hilbert-style proof
scripts, `oracles` holds the independent cross-checks, and `selftest`
re-runs the whole verification suite. `cli.main` exposes everything as the fl-pdl command.
"""

from .algebra import (FLAlgebra, PropertyCheck, PropertyReport,
                      algebra_to_json, bool2, build_algebra,
                      check_algebra_properties, cost_chain, is_commutative,
                      is_integral, load_algebra, product, resolve_builtin)
from .algebra_search import find_non_commutative, find_non_integral
from .decision import (Countermodel, ExactVerdict, NoCountermodelUpTo, ValidByExhaustion,
                       decide_bounded, decide_exact, default_budget, theoretical_bound)
from .errors import (AtomBudgetExceeded, BudgetExceeded, DimensionMismatch,
                     FLPDLError, FormulaSyntaxError, InvalidAlgebra,
                     NotClosed, UnknownAtom, UnknownConstant)
from .filtration import Partition, filtrate, phi_partition
from .parser import parse_action, parse_formula
from .proofs import (ByAxiom, ByLog, ByRMon, ByRPlus, ProofLine, ProofScript,
                     Verdict, canonical_axiom_name, check_proof, load_proof,
                     log_consequence, match_axiom, matches_axiom,
                     proof_to_json)
from .relations import (XRelation, bottom_relation, identity_relation,
                        path_value, refl_trans_closure, rel_compose,
                        rel_union, transitive_closure)
from .selftest import run_selftest
from .semantics import (Frame, Model, derived_relation, evaluate, load_model,
                        model_to_json, valid_in_model)
from .syntax import (ActionExp, And, Atom, Box, Choice, Const, Formula, Fuse,
                     LDiv, Or, Plus, RDiv, Seq, Var, closure_of, diamond,
                     format_action, format_formula, iff, is_closed, neg,
                     star_box, subformulas)

__version__ = "0.1.0"

__all__ = [
    "FLAlgebra", "PropertyCheck", "PropertyReport", "algebra_to_json",
    "bool2", "build_algebra", "check_algebra_properties", "cost_chain",
    "is_commutative", "is_integral", "load_algebra", "product",
    "resolve_builtin",
    "find_non_commutative", "find_non_integral",
    "Countermodel", "ExactVerdict", "NoCountermodelUpTo", "ValidByExhaustion",
    "decide_bounded", "decide_exact", "default_budget", "theoretical_bound",
    "AtomBudgetExceeded", "BudgetExceeded", "DimensionMismatch",
    "FLPDLError", "FormulaSyntaxError", "InvalidAlgebra", "NotClosed",
    "UnknownAtom", "UnknownConstant",
    "Partition", "filtrate", "phi_partition",
    "parse_action", "parse_formula",
    "ByAxiom", "ByLog", "ByRMon", "ByRPlus", "ProofLine", "ProofScript",
    "Verdict", "canonical_axiom_name", "check_proof", "load_proof",
    "log_consequence", "match_axiom", "matches_axiom", "proof_to_json",
    "XRelation", "bottom_relation", "identity_relation", "path_value",
    "refl_trans_closure", "rel_compose", "rel_union", "transitive_closure",
    "run_selftest",
    "Frame", "Model", "derived_relation", "evaluate", "load_model",
    "model_to_json", "valid_in_model",
    "ActionExp", "And", "Atom", "Box", "Choice", "Const", "Formula",
    "Fuse", "LDiv", "Or", "Plus", "RDiv", "Seq", "Var", "closure_of",
    "diamond", "format_action", "format_formula", "iff", "is_closed", "neg",
    "star_box", "subformulas",
    "__version__",
]
