"""The package namespace: what ``safetrace`` exports, and what importing it loads."""

import os
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import safetrace

EXPORTED = [
    "AlphabetMismatchError", "AlphabetTooLargeError", "Always", "And", "BindingError",
    "CUSTOM_TEMPLATE", "DETERMINISTIC_SCENARIOS", "Dfa", "Diagnostic", "EvaluationReport",
    "Eventually", "FALSE", "FalseFormula", "Formula", "FormulaSyntaxError", "HORIZONS", "Implies",
    "MAX_PROPOSITIONS", "Monitor", "MonitorError", "MonitorResult", "Next", "Not", "Or", "Outcome",
    "Permanence", "PolicyRow", "Prop", "PropertyInstance", "PropertyTemplate", "Release",
    "ReportTally", "RolloutEvaluation", "RolloutFormatError", "RolloutRecord", "SCENARIOS",
    "SUITES", "SafetraceError", "SafetyCategory", "ScenarioError", "ScenarioInfo",
    "ScenarioParams", "TEMPLATE_IDS", "TRUE", "TableRow", "TaskSpec", "TaskSpecError",
    "TemplateError", "Trace", "TrueFormula", "Until", "Verdict", "WeakNext", "aggregate",
    "automata", "build_corpus", "compile_formula", "corpus_composition", "dfa_to_json",
    "equivalent", "errors", "evaluate", "evaluate_rollout", "export_plot_data", "export_report",
    "export_report_csv", "export_report_json", "format_formula", "formulas", "generate_scenario",
    "get_template", "instantiate", "instantiate_custom", "list_templates", "load_report",
    "load_rollout", "load_task_spec", "metrics", "minimize", "monitor", "monitor_report_document",
    "monitor_report_json", "parse", "properties", "propositions", "rollouts", "run_trace",
    "scenario_spec_document", "scenario_task_spec", "serialize_rollout", "to_dot", "to_nnf",
    "validate_rollout",
]
MODULES = ["automata", "errors", "formulas", "metrics", "monitor", "properties", "rollouts"]


def test_all_lists_the_exported_names():
    assert len(EXPORTED) == 93
    assert safetrace.__all__ == EXPORTED
    assert set(dir(safetrace)) >= set(EXPORTED)


def test_each_name_is_its_home_modules_object_and_looked_up_once(monkeypatch):
    for module, names in safetrace._EXPORTS.items():
        home = import_module(f"safetrace.{module}")
        assert set(names) <= set(home.__all__), module
        for name in names:
            assert getattr(safetrace, name) is getattr(home, name), name
    for module in MODULES:
        assert getattr(safetrace, module) is import_module(f"safetrace.{module}")

    def fail(name):
        raise AssertionError(f"__getattr__ called again for {name!r}")

    monkeypatch.setattr(safetrace, "__getattr__", fail)
    for name in EXPORTED:
        assert name in vars(safetrace)
        getattr(safetrace, name)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from safetrace import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTED)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError) as caught:
        safetrace.no_such_name
    assert str(caught.value) == "module 'safetrace' has no attribute 'no_such_name'"
    assert not hasattr(safetrace, "no_such_name")
    with pytest.raises(ImportError):
        exec("from safetrace import no_such_name", {})


def test_names_reached_through_the_package_pickle():
    for value in (safetrace.RolloutRecord, safetrace.load_task_spec, safetrace.Verdict.FALSE):
        assert pickle.loads(pickle.dumps(value)) is value
    prop = safetrace.Prop("a")
    assert pickle.loads(pickle.dumps(prop)) == prop


def test_a_fresh_process_imports_only_the_modules_it_uses():
    # Each step is measured against what the interpreter had loaded before it
    # started, since `site` may preload standard modules (pathlib, random).
    script = (
        "import sys\n"
        "base = set(sys.modules)\n"
        "def new():\n"
        "    print(' '.join(sorted(set(sys.modules) - base)))\n"
        "import safetrace\n"
        "new()\n"
        "from safetrace.properties import load_task_spec\n"
        "new()\n"
        "from safetrace.metrics import load_report\n"
        "new()\n"
    )
    src = str(Path(safetrace.__file__).resolve().parent.parent)
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    package, spec, report = (set(line.split()) for line in completed.stdout.splitlines())
    assert {m for m in package if m.startswith("safetrace")} == {"safetrace"}
    assert not spec & {
        "safetrace.rollouts", "safetrace.metrics", "safetrace.monitor", "csv", "fractions", "decimal"
    }
    assert "safetrace.properties" in spec
    assert "safetrace.metrics" in report and "safetrace.rollouts" not in report
