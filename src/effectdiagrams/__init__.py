"""Effect/value presentations of monadic computations.

The library models computations over six concrete monad instances,
splits any monadic value into a generic effect plus a row of result
values, composes such presentations sequentially, evaluates a small
call-by-value lambda calculus into them, and ships an executable law
suite for the whole calculus.
"""

from .monads import (ArityError, DIST, DIVERGE, Diverge, KindError, MAYBE,
                     MonadKind, MonadValue, OpDescriptor, POWERSET, Present,
                     Raised, bind, bottom, canonical_key, exception_kind,
                     is_bottom, leq, map_carrier, mass, op_apply,
                     output_kind, signature, state_kind, stores, support,
                     unit)
from .presentations import (ArityCapError, GenericEffect, MAX_ARITY,
                            Presentation, decompose, diagram_eq, diagram_leq,
                            extend, interpret, render)
from .algebra import (DerivedOperation, basic_effects, bottom_effect,
                      descriptor_op, effect_to_op, op_to_effect, seq_compose,
                      trivial_effect)
from .lang import (Abs, App, DEFAULT_PRELUDE, EvalError, Op, ParseError,
                   SignatureError, Term, Var, default_defs, eval_diagram,
                   eval_monadic_term, evaluate, free_vars, is_closed,
                   is_value, parse, parse_defs, substitute)
from .lawcheck import (ALL_LAWS, EXPECTED_FAIL, LawResult, LawSuiteConfig,
                       SuiteReport, check_algebraic, check_commutative,
                       default_kinds, expected_pass, replay, run_law_suite)

__version__ = "0.1.0"

__all__ = [
    "ALL_LAWS", "Abs", "App", "ArityCapError", "ArityError",
    "DEFAULT_PRELUDE", "DIST", "DIVERGE", "DerivedOperation", "Diverge",
    "EXPECTED_FAIL", "EvalError", "GenericEffect", "KindError",
    "LawResult", "LawSuiteConfig", "MAX_ARITY", "MAYBE", "MonadKind",
    "MonadValue", "Op", "OpDescriptor", "POWERSET", "ParseError",
    "Present", "Presentation", "Raised", "SignatureError", "SuiteReport",
    "Term", "Var", "basic_effects", "bind", "bottom", "bottom_effect",
    "canonical_key", "check_algebraic",
    "check_commutative", "decompose", "default_defs", "default_kinds",
    "descriptor_op", "diagram_eq", "diagram_leq", "effect_to_op",
    "eval_diagram", "eval_monadic_term", "evaluate", "exception_kind",
    "expected_pass", "extend", "free_vars", "interpret", "is_bottom",
    "is_closed", "is_value", "leq", "map_carrier", "mass", "op_apply",
    "op_to_effect", "output_kind", "parse", "parse_defs", "render",
    "replay", "run_law_suite", "seq_compose", "signature", "state_kind",
    "stores", "substitute", "support", "trivial_effect", "unit",
]
