"""The OPS5 production-system language substrate.

This package implements the language the paper studies (Section 2):
working memory, condition elements, productions, the LEX/MEA
conflict-resolution strategies, a parser for OPS5 source text, and the
recognize--act interpreter.  Matching itself is pluggable -- see
:mod:`repro.rete`, :mod:`repro.treat`, and :mod:`repro.naive`.
"""

from .actions import (
    Action,
    Bind,
    Compute,
    Constant,
    Expression,
    Halt,
    Make,
    Modify,
    Remove,
    VariableRef,
    Write,
)
from .condition import (
    Bindings,
    CEAnalysis,
    ConditionElement,
    ConjunctiveTest,
    ConstantTest,
    DisjunctiveTest,
    JoinTest,
    Predicate,
    PredicateTest,
    Test,
    VariableTest,
    analyze_lhs,
    wme_passes_alpha,
)
from .conflict import ConflictSet, LexStrategy, MeaStrategy, Strategy, strategy_named
from .engine import (
    BatchResult,
    CycleRecord,
    DEFAULT_MATCHER,
    EngineListener,
    MATCHER_NAMES,
    ProductionSystem,
    RunResult,
    matcher_named,
)
from .errors import (
    DuplicateProductionError,
    ExecutionError,
    Ops5Error,
    ParseError,
    ValidationError,
    WorkingMemoryError,
)
from .matcher import ChangeRecord, Matcher, MatchStats
from .parser import Program, parse_production, parse_program, parse_wme_specs
from .production import Instantiation, Production
from .unparse import (
    unparse_action,
    unparse_condition,
    unparse_production,
    unparse_program,
    unparse_test,
)
from .watch import CHANGES, CompositeListener, FIRINGS, SILENT, WatchListener
from .wme import NIL, Value, WME, WorkingMemory, make_wme

__all__ = [
    "Action",
    "Bind",
    "Bindings",
    "CEAnalysis",
    "ChangeRecord",
    "Compute",
    "ConditionElement",
    "ConflictSet",
    "ConjunctiveTest",
    "Constant",
    "ConstantTest",
    "CHANGES",
    "CompositeListener",
    "BatchResult",
    "CycleRecord",
    "DEFAULT_MATCHER",
    "DisjunctiveTest",
    "DuplicateProductionError",
    "EngineListener",
    "ExecutionError",
    "Expression",
    "FIRINGS",
    "Halt",
    "Instantiation",
    "JoinTest",
    "LexStrategy",
    "MATCHER_NAMES",
    "Make",
    "Matcher",
    "MatchStats",
    "MeaStrategy",
    "Modify",
    "NIL",
    "Ops5Error",
    "ParseError",
    "Predicate",
    "PredicateTest",
    "Production",
    "ProductionSystem",
    "Program",
    "Remove",
    "RunResult",
    "SILENT",
    "Strategy",
    "Test",
    "ValidationError",
    "Value",
    "WatchListener",
    "VariableRef",
    "VariableTest",
    "WME",
    "WorkingMemory",
    "WorkingMemoryError",
    "Write",
    "analyze_lhs",
    "make_wme",
    "matcher_named",
    "parse_production",
    "parse_program",
    "parse_wme_specs",
    "strategy_named",
    "unparse_action",
    "unparse_condition",
    "unparse_production",
    "unparse_program",
    "unparse_test",
    "wme_passes_alpha",
]
