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

Each module loads on first use: ``import safetrace`` imports none of them,
and ``safetrace.X`` or ``from safetrace import X`` imports the module that
defines ``X`` (PEP 562), so a process compiles only the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The names the package re-exports, by the module that defines them.
_EXPORTS = {
    "errors": (
        "AlphabetMismatchError", "AlphabetTooLargeError", "BindingError", "FormulaSyntaxError",
        "MonitorError", "RolloutFormatError", "SafetraceError", "ScenarioError", "TaskSpecError",
        "TemplateError",
    ),
    "formulas": (
        "FALSE", "TRUE", "Always", "And", "Eventually", "FalseFormula", "Formula", "Implies", "Next",
        "Not", "Or", "Prop", "Release", "Trace", "TrueFormula", "Until", "WeakNext", "evaluate",
        "format_formula", "parse", "propositions", "to_nnf",
    ),
    "automata": (
        "MAX_PROPOSITIONS", "Dfa", "Permanence", "compile_formula", "dfa_to_json", "equivalent",
        "minimize", "to_dot",
    ),
    "monitor": ("MonitorResult", "Verdict", "run_trace"),
    "properties": (
        "CUSTOM_TEMPLATE", "HORIZONS", "SUITES", "TEMPLATE_IDS", "PropertyInstance",
        "PropertyTemplate", "SafetyCategory", "TaskSpec", "get_template", "instantiate",
        "instantiate_custom", "list_templates", "load_task_spec",
    ),
    "rollouts": (
        "DETERMINISTIC_SCENARIOS", "SCENARIOS", "Diagnostic", "RolloutRecord", "ScenarioInfo",
        "ScenarioParams", "build_corpus", "corpus_composition", "generate_scenario", "load_rollout",
        "scenario_spec_document", "scenario_task_spec", "serialize_rollout", "validate_rollout",
    ),
    "metrics": (
        "EvaluationReport", "Outcome", "PolicyRow", "ReportTally", "RolloutEvaluation", "TableRow",
        "aggregate", "evaluate_rollout", "export_plot_data", "export_report", "export_report_csv",
        "export_report_json", "load_report", "monitor_report_document", "monitor_report_json",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    """Import ``name``'s module, then keep ``name`` as a plain global, so
    this runs once per name."""
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
