"""Golden report bytes: every file that ``export_report_json``,
``export_report_csv`` and ``export_plot_data`` write for the bundled corpus
(both denominators, with and without strict end-of-trace), for the corpus
relabeled over three policies, and for an edge batch, recorded once and
compared exactly, so any change to the report exporters shows up here. The
relabeled corpus fills every table and plot panel with several keys and
several policies. The edge batch has a custom-only spec (so
``per_category.csv`` is empty), policy names with a comma, a quote and a
non-ASCII letter, and a policy without successes (an undefined share).

The recorded file is ``golden_reports.json`` next to this module. After a
deliberate change to the exporters, rewrite it with
``PYTHONPATH=src python tests/test_golden_reports.py`` and review the diff.
"""

import json
from functools import cache
from pathlib import Path

import pytest

from safetrace.formulas import Trace
from safetrace.metrics import (
    aggregate,
    evaluate_rollout,
    export_plot_data,
    export_report_csv,
    export_report_json,
    load_report,
)
from safetrace.properties import load_task_spec
from safetrace.rollouts import (
    RolloutRecord,
    ScenarioParams,
    corpus_composition,
    generate_scenario,
    scenario_task_spec,
)

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")

_EDGE_SPEC = {
    "task": "edge",
    "suite": "atomic_fixture",
    "horizon": "atomic",
    "properties": [
        {"id": "never_collide", "template": "custom", "formula": "G !collision"},
        {"id": "release_after_grasp", "template": "custom", "formula": "G (grasp -> F release)"},
    ],
}

# (rollout id, policy, success, trace)
_EDGE_ROLLOUTS = [
    ("e0", "a,b", True, [[], ["grasp"], ["release"]]),
    ("e1", "a,b", False, [["grasp"], ["collision"], []]),
    ("e2", 'say "hi"', True, [["grasp"], [], [], ["collision"]]),
    ("e3", 'say "hi"', True, [[], []]),
    ("e4", "señor ó", False, [["grasp"], [], []]),
    ("e5", "señor ó", False, [[]]),
]


@cache
def _evaluations(batch: str, strict_end: bool) -> list:
    """The evaluations of the bundled corpus, of the corpus relabeled so that
    its rollouts of seed ``s`` are policy ``p{s % 3}``, or of the edge batch."""
    if batch == "edge":
        spec = load_task_spec(json.dumps(_EDGE_SPEC))
        return [
            evaluate_rollout(
                RolloutRecord(rollout_id, "edge", policy, success, Trace(steps)),
                spec,
                strict_end=strict_end,
            )
            for rollout_id, policy, success, steps in _EDGE_ROLLOUTS
        ]
    specs = {}
    evaluations = []
    for scenario_id, seed, length in corpus_composition():
        if scenario_id not in specs:
            specs[scenario_id] = scenario_task_spec(scenario_id)
        record = generate_scenario(ScenarioParams(scenario_id, length, seed))
        if batch == "policies":
            record = RolloutRecord(
                record.rollout_id, record.task_name, f"p{seed % 3}", record.success, record.trace
            )
        evaluations.append(evaluate_rollout(record, specs[scenario_id], strict_end=strict_end))
    return evaluations


# Case name -> (batch, strict_end, denominator).
_CASES = {
    f"{batch}_{denominator}_{'strict' if strict_end else 'lenient'}_end": (batch, strict_end, denominator)
    for batch in ("corpus", "policies", "edge")
    for strict_end in (True, False)
    for denominator in ("rollout", "task")
}


def _files(batch: str, strict_end: bool, denominator: str) -> dict[str, str]:
    evaluations = _evaluations(batch, strict_end)
    report = aggregate(evaluations, denominator=denominator)
    return {
        "report.json": export_report_json(report),
        **export_report_csv(report),
        **export_plot_data(evaluations),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_CASES)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_report_files_match_golden(golden, name):
    assert _files(*_CASES[name]) == golden[name]


@pytest.mark.parametrize("name", sorted(_CASES))
def test_load_report_inverts_the_json_export(name):
    batch, strict_end, denominator = _CASES[name]
    report = aggregate(_evaluations(batch, strict_end), denominator=denominator)
    assert load_report(export_report_json(report)) == report


@pytest.mark.parametrize("name", sorted(_CASES))
def test_loaded_golden_report_writes_the_golden_csvs(golden, name):
    # Equal reports can differ in table order, which only the CSVs show.
    files = golden[name]
    csvs = export_report_csv(load_report(files["report.json"]))
    assert csvs == {csv_name: files[csv_name] for csv_name in csvs}


if __name__ == "__main__":
    golden = {name: _files(*case) for name, case in sorted(_CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
