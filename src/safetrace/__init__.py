"""Finite-trace temporal-logic monitoring and safety metrics for rollouts.

The package is organized bottom-up:

- :mod:`safetrace.formulas`: formula syntax, parser/printer, reference
  semantics over finite traces.
- :mod:`safetrace.automata`: progression-based compilation into minimized
  DFAs with permanence-classified states.
- :mod:`safetrace.monitor`: stepwise four-valued monitoring of one DFA over
  one trace.
- :mod:`safetrace.properties`: the ten manipulation-safety templates, their
  categories, and task spec documents.
- :mod:`safetrace.rollouts`: rollout wire format, scripted scenario
  generator, bundled corpus.
- :mod:`safetrace.metrics`: success/safety outcome decomposition and report
  aggregation.
- :mod:`safetrace.cli`: the ``safetrace`` command.
"""

__version__ = "0.1.0"

from .errors import (
    AlphabetMismatchError,
    AlphabetTooLargeError,
    BindingError,
    FormulaSyntaxError,
    MonitorError,
    RolloutFormatError,
    SafetraceError,
    ScenarioError,
    TaskSpecError,
    TemplateError,
)
from .formulas import (
    FALSE,
    TRUE,
    Always,
    And,
    Eventually,
    FalseFormula,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Trace,
    TrueFormula,
    Until,
    WeakNext,
    evaluate,
    format_formula,
    parse,
    propositions,
    to_nnf,
)
from .automata import (
    MAX_PROPOSITIONS,
    Dfa,
    Permanence,
    compile_formula,
    dfa_to_json,
    equivalent,
    minimize,
    to_dot,
)
from .monitor import Monitor, MonitorResult, Verdict, run_trace
from .properties import (
    CUSTOM_TEMPLATE,
    HORIZONS,
    SUITES,
    TEMPLATE_IDS,
    PropertyInstance,
    PropertyTemplate,
    SafetyCategory,
    TaskSpec,
    get_template,
    instantiate,
    instantiate_custom,
    list_templates,
    load_task_spec,
)
from .rollouts import (
    DETERMINISTIC_SCENARIOS,
    SCENARIOS,
    Diagnostic,
    RolloutRecord,
    ScenarioInfo,
    ScenarioParams,
    build_corpus,
    corpus_composition,
    generate_scenario,
    load_rollout,
    scenario_spec_document,
    scenario_task_spec,
    serialize_rollout,
    validate_rollout,
)
from .metrics import (
    EvaluationReport,
    Outcome,
    PolicyRow,
    ReportTally,
    RolloutEvaluation,
    TableRow,
    aggregate,
    evaluate_rollout,
    export_plot_data,
    export_report,
    export_report_csv,
    export_report_json,
    load_report,
    monitor_report_document,
    monitor_report_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
