"""Outcome decomposition, aggregation identities, and report export."""

import csv
import io
import json
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from safetrace import metrics
from safetrace.automata import CODE_FALSE, CODE_PRESUMABLY_FALSE, CODE_PRESUMABLY_TRUE, CODE_TRUE
from safetrace.errors import SafetraceError, TemplateError
from safetrace.formulas import Trace
from safetrace.metrics import (
    InstanceMeta,
    Outcome,
    ReportTally,
    RolloutEvaluation,
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
from safetrace.monitor import MonitorResult
from safetrace.properties import (
    CUSTOM_TEMPLATE,
    HORIZONS,
    SUITES,
    TEMPLATE_IDS,
    PropertyInstance,
    SafetyCategory,
    TaskSpec,
    get_template,
    load_task_spec,
)
from safetrace.rollouts import (
    RolloutRecord,
    ScenarioParams,
    generate_scenario,
    scenario_task_spec,
)

from oracles import reference_monitor_text, reference_report

SPEC = load_task_spec(
    json.dumps(
        {
            "task": "demo",
            "suite": "atomic_fixture",
            "horizon": "atomic",
            "properties": [
                {
                    "id": "inv",
                    "template": "phi1",
                    "bindings": {"Collision": "collision", "BadContact": "bad_contact"},
                },
                {
                    "id": "settle",
                    "template": "phi3",
                    "bindings": {"ObjReleased": "released", "Settled": "settled"},
                },
            ],
        }
    )
)


def _record(rollout_id, steps, success, task="demo"):
    return RolloutRecord(rollout_id, task, "unit", success, Trace(steps))


# ---------------------------------------------------------------------------
# evaluate_rollout
# ---------------------------------------------------------------------------


def test_success_and_safe():
    evaluation = evaluate_rollout(_record("r0", [set(), set()], True), SPEC)
    assert evaluation.outcome is Outcome.SUCCESS_SAFE
    assert not evaluation.unsafe
    assert evaluation.rollout_exposure == 0


def test_success_but_unsafe_product():
    steps = [set(), set(), set(), {"collision"}, set()]
    evaluation = evaluate_rollout(_record("r1", steps, True), SPEC)
    assert evaluation.outcome is Outcome.SUCCESS_UNSAFE
    assert evaluation.unsafe
    assert evaluation.per_instance["inv"].violation_timestep == 3


def test_rollout_exposure_is_union_of_instance_unsafe_steps():
    # inv unsafe at steps {2, 3}: collision at 2 absorbs... use disjoint props:
    # released at 2 (unsettled through 4 -> settle at 5), collision at 3.
    steps = [set() for _ in range(10)]
    steps[2].add("released")
    steps[5].add("settled")
    steps[3].add("collision")
    evaluation = evaluate_rollout(_record("r2", steps, True), SPEC)
    flags_settle = evaluation.per_instance["settle"].unsafe_flags()
    flags_inv = evaluation.per_instance["inv"].unsafe_flags()
    assert flags_settle == bytes([0, 0, 1, 1, 1, 0, 0, 0, 0, 0])
    assert flags_inv == bytes([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])
    # union {2,3,4} | {3..9} = {2..9} -> 8 of 10
    assert evaluation.rollout_exposure == Fraction(8, 10)


def test_union_exposure_hand_example():
    # Two instances with unsafe-step sets {2,3} and {3,4} on 10 steps -> 3/10.
    # Pending-obligation windows give exactly those sets.
    spec = load_task_spec(
        json.dumps(
            {
                "task": "demo",
                "suite": "atomic_fixture",
                "horizon": "atomic",
                "properties": [
                    {"id": "a", "template": "custom", "formula": "G(ta -> F da)"},
                    {"id": "b", "template": "custom", "formula": "G(tb -> F db)"},
                ],
            }
        )
    )
    steps = [set() for _ in range(10)]
    steps[2].add("ta")
    steps[4].add("da")  # a pending at {2,3}
    steps[3].add("tb")
    steps[5].add("db")  # b pending at {3,4}
    evaluation = evaluate_rollout(_record("r3", steps, True), spec)
    assert evaluation.per_instance["a"].unsafe_flags() == bytes(
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0]
    )
    assert evaluation.per_instance["b"].unsafe_flags() == bytes(
        [0, 0, 0, 1, 1, 0, 0, 0, 0, 0]
    )
    assert evaluation.rollout_exposure == Fraction(3, 10)


def test_exposure_bounds_against_instances():
    rng = random.Random(77)
    for _ in range(50):
        steps = [
            {p for p in ("collision", "released", "settled") if rng.random() < 0.25}
            for _ in range(rng.randint(1, 12))
        ]
        evaluation = evaluate_rollout(_record("rb", steps, True), SPEC)
        exposures = [r.exposure for r in evaluation.per_instance.values()]
        assert max(exposures) <= evaluation.rollout_exposure <= min(1, sum(exposures))


def test_task_mismatch_guard():
    with pytest.raises(SafetraceError, match="does not match"):
        evaluate_rollout(_record("rx", [set()], True, task="other"), SPEC)


def test_strict_end_flag_changes_outcome():
    steps = [set() for _ in range(6)]
    steps[2].add("released")  # never settles
    strict = evaluate_rollout(_record("re", steps, True), SPEC)
    lax = evaluate_rollout(_record("re", steps, True), SPEC, strict_end=False)
    assert strict.unsafe and strict.outcome is Outcome.SUCCESS_UNSAFE
    assert not lax.unsafe and lax.outcome is Outcome.SUCCESS_SAFE


# Per-instance results are built from the run when first read.

_NAMES = ("a", "b", "c", "d", "e")
_CUSTOM_FORMULAS = ("G (a -> F b)", "F c", "G !(d & e)", "a U b", "X a | WX b")


@st.composite
def _specs(draw):
    """A task spec of up to five instances: bound templates (shapes repeat)
    and custom formulas, over five names."""
    properties = []
    for i in range(draw(st.integers(0, 5))):
        template = draw(st.sampled_from(TEMPLATE_IDS + (CUSTOM_TEMPLATE,)))
        if template == CUSTOM_TEMPLATE:
            properties.append(
                {"id": f"i{i}", "template": template, "formula": draw(st.sampled_from(_CUSTOM_FORMULAS))}
            )
        else:
            slots = get_template(template).slots
            names = draw(st.permutations(_NAMES))[: len(slots)]
            properties.append({"id": f"i{i}", "template": template, "bindings": dict(zip(slots, names))})
    return load_task_spec(
        {
            "task": "t",
            "suite": draw(st.sampled_from(SUITES)),
            "horizon": draw(st.sampled_from(HORIZONS)),
            "properties": properties,
        }
    )


@st.composite
def _traces(draw, lengths=st.sampled_from((1, 255, 256, 257, 1000)) | st.integers(1, 12)):
    """A trace over the five names, with runs of repeated steps."""
    length = draw(lengths)
    rng = random.Random(draw(st.integers()))
    steps = [frozenset(p for p in _NAMES if rng.random() < 0.3)]
    for _ in range(length - 1):
        repeat = rng.random() < 0.7
        steps.append(steps[-1] if repeat else frozenset(p for p in _NAMES if rng.random() < 0.3))
    return Trace(steps)


def _eager_meta(inst, result, strict_end):
    return InstanceMeta(
        template_id=inst.template_id,
        category=inst.category,
        violated=result.violates(strict_end),
        unsafe_flag_bytes=result.unsafe_flags(),
    )


def _rebuilt(evaluation: RolloutEvaluation, **changes) -> RolloutEvaluation:
    """``evaluation`` built again through the public constructor, with the
    fields named in ``changes`` replaced."""
    fields = {name: getattr(evaluation, name) for name in RolloutEvaluation.__match_args__}
    return RolloutEvaluation(**{**fields, **changes})


@given(_specs(), _traces(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_per_instance_results_built_on_read_equal_the_eager_ones(spec, trace, strict_end):
    record = RolloutRecord("r", "t", "p", True, trace)
    evaluation = evaluate_rollout(record, spec, strict_end=strict_end)
    unread = pickle.dumps(evaluation)
    results = {}
    for inst in spec.instances:
        codes, state = inst.dfa.run(record.masks(inst.dfa.props))
        results[inst.instance_id] = MonitorResult(codes, state in inst.dfa.accepting)
    meta = {inst.instance_id: _eager_meta(inst, results[inst.instance_id], strict_end) for inst in spec.instances}
    runs = {
        i: (result.verdict_codes, result.final_satisfied, m.template_id, m.category, m.violated)
        for (i, result), m in zip(results.items(), meta.values())
    }
    assert evaluation == _rebuilt(evaluation, runs=runs) == evaluation
    assert evaluation.unsafe == any(m.violated for m in meta.values())
    # Each view holds the instances in spec order and equals the eager values.
    views = (evaluation.per_instance, evaluation.instance_meta)
    assert dict(views[0]) == results and dict(views[1]) == meta
    assert list(views[0]) == list(views[1]) == list(results)
    # A view is built once, is read-only and is left out of the pickle.
    assert evaluation.per_instance is views[0] and evaluation.instance_meta is views[1]
    assert pickle.dumps(evaluation) == unread
    for view in views:
        for key in [*view, "missing"]:
            with pytest.raises(TypeError):
                view[key] = None
        with pytest.raises(KeyError):
            view["missing"]
    again = pickle.loads(unread)
    assert again == evaluation and dict(again.per_instance) == results and dict(again.instance_meta) == meta


def test_monitor_report_document_shape():
    steps = [set(), {"collision"}]
    document = monitor_report_document(evaluate_rollout(_record("rd", steps, False), SPEC))
    assert document["outcome"] == "fail_unsafe"
    entry = {i["property_id"]: i for i in document["instances"]}["inv"]
    assert set(entry) == {
        "property_id",
        "category",
        "violated",
        "violation_kind",
        "violation_timestep",
        "unsafe_steps",
        "exposure",
        "final_satisfied",
        "verdicts",
    }
    assert entry["violated"] is True
    assert entry["violation_kind"] == "mid"
    assert entry["verdicts"] == ["pt", "F"]


# Texts JSON must escape: quotes, backslashes, control and non-ASCII
# characters, characters beyond the BMP, and lone surrogates.
_AWKWARD_TEXT = st.one_of(
    st.text(st.characters() | st.characters(categories=["Cs"]), max_size=8),
    st.sampled_from(['"', "\\", "\x00\n\t\x1f\x7f", "p\u00f3licy", "p\ud800", "\u2028\U0001f600"]),
)
_CODES = (CODE_TRUE, CODE_FALSE, CODE_PRESUMABLY_TRUE, CODE_PRESUMABLY_FALSE)


def _drawn_codes(rng: random.Random, alphabet: list[int], length: int, structured: bool) -> bytes:
    """``length`` verdict codes from ``alphabet``: independent draws, whose
    runs are almost all one step long, or runs of equal codes averaging
    about 2, 8 or 200 steps, as monitors write them, so that the report
    writer takes each of its two ways of writing verdicts."""
    if not structured:
        return bytes(rng.choices(alphabet, k=length))
    codes = bytearray()
    while len(codes) < length:
        codes += bytes((rng.choice(alphabet),)) * rng.randint(1, rng.choice((4, 16, 400)))
    return bytes(codes[:length])


@st.composite
def _monitor_evaluations(draw):
    """An evaluation built field by field, so that any verdict sequence,
    template, category, violation and identifier text can occur in it."""
    length = draw(st.sampled_from((1, 1000)) | st.integers(1, 12) | st.integers(13, 3000))
    strict_end = draw(st.booleans())
    runs = {}
    for instance_id in draw(st.lists(_AWKWARD_TEXT, unique=True, max_size=4)):
        alphabet = sorted(draw(st.sets(st.sampled_from(_CODES), min_size=1)))
        rng = random.Random(draw(st.integers()))
        runs[instance_id] = (
            _drawn_codes(rng, alphabet, length, draw(st.booleans())),
            draw(st.booleans()),
            draw(st.sampled_from(TEMPLATE_IDS + (CUSTOM_TEMPLATE,))),
            draw(st.none() | st.sampled_from(SafetyCategory)),
            draw(st.booleans()),
        )
    success = draw(st.booleans())
    unsafe = any(violated for *_, violated in runs.values())
    return RolloutEvaluation(
        rollout_id=draw(_AWKWARD_TEXT),
        task_name=draw(_AWKWARD_TEXT),
        suite=SUITES[0],
        horizon=HORIZONS[0],
        policy=draw(_AWKWARD_TEXT),
        success=success,
        unsafe=unsafe,
        rollout_exposure=Fraction(draw(st.integers(0, length)), length),
        length=length,
        strict_end=strict_end,
        runs=runs,
        groups={},
    )


def _one_instance(codes: bytes) -> RolloutEvaluation:
    """An evaluation of one instance whose verdict codes are ``codes``."""
    violated = CODE_FALSE in codes
    return RolloutEvaluation(
        rollout_id="r",
        task_name="t",
        suite=SUITES[0],
        horizon=HORIZONS[0],
        policy="p",
        success=True,
        unsafe=violated,
        rollout_exposure=Fraction(codes.count(CODE_FALSE) + codes.count(CODE_PRESUMABLY_FALSE), len(codes)),
        length=len(codes),
        strict_end=True,
        runs={"i": (codes, False, CUSTOM_TEMPLATE, None, violated)},
        groups={},
    )


_T, _F, _PT, _PF = (bytes((code,)) for code in _CODES)


@given(_monitor_evaluations())
@example(_one_instance(_PT * 1000))  # one run
@example(_one_instance(_PT * 999 + _PF))  # a last run of one step
@example(_one_instance(_PF * 10 + _T * 990))  # ends in code 0, which marks no run end
@example(_one_instance((_PT + _PF) * 500))  # runs of one step
@example(_one_instance(_F))  # one step
@settings(max_examples=200, deadline=None)
def test_monitor_report_json_matches_the_reference(evaluation):
    assert monitor_report_json(evaluation) == reference_monitor_text(evaluation)


class _CountingLines(list):
    """A verdict line table that counts its lookups."""

    lookups = 0

    def __getitem__(self, code):
        self.lookups += 1
        return super().__getitem__(code)


@pytest.mark.parametrize(
    ("codes", "lookups"),
    [
        ((_PT * 20 + _PF * 20) * 25, 50),  # 50 runs of 20 steps: one lookup a run
        ((_PT + _PF) * 500, 999),  # runs of one step: one lookup a step
        (_PT * 1000, 1),  # one run
    ],
)
def test_monitor_report_looks_up_one_verdict_line_per_run(monkeypatch, codes, lookups):
    # Both ways write the same text, so only the count tells a writer that
    # goes step by step on runs of 20 (999 lookups) from one that goes run
    # by run (50); the last verdict is written from another table.
    table = _CountingLines(metrics._VERDICT_LINE)
    monkeypatch.setattr(metrics, "_VERDICT_LINE", table)
    evaluation = _one_instance(codes)
    assert monitor_report_json(evaluation) == reference_monitor_text(evaluation)
    assert table.lookups == lookups


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


def _eval_for(outcome, rollout_id, policy="unit", suite_spec=SPEC):
    success = outcome in (Outcome.SUCCESS_SAFE, Outcome.SUCCESS_UNSAFE)
    unsafe = outcome in (Outcome.SUCCESS_UNSAFE, Outcome.FAIL_UNSAFE)
    steps = [set(), {"collision"} if unsafe else set(), set()]
    record = RolloutRecord(rollout_id, "demo", policy, success, Trace(steps))
    return evaluate_rollout(record, suite_spec)


def test_aggregate_four_way_counting():
    evals = [
        _eval_for(Outcome.SUCCESS_SAFE, "a"),
        _eval_for(Outcome.SUCCESS_UNSAFE, "b"),
        _eval_for(Outcome.FAIL_SAFE, "c"),
        _eval_for(Outcome.FAIL_UNSAFE, "d"),
    ]
    report = aggregate(evals)
    assert report.task_success_rate == Fraction(1, 2)
    assert report.overall_violation_rate == Fraction(1, 2)
    assert all(share == Fraction(1, 4) for share in report.outcome_shares.values())
    assert report.unsafe_success_share == Fraction(1, 2)


def test_aggregate_degenerate_all_fail_safe():
    evals = [_eval_for(Outcome.FAIL_SAFE, f"r{i}") for i in range(5)]
    report = aggregate(evals)
    assert report.unsafe_success_share is None
    assert report.overall_violation_rate == 0


def test_aggregate_empty_is_an_error():
    with pytest.raises(SafetraceError, match="empty"):
        aggregate([])
    with pytest.raises(SafetraceError, match="empty"):
        export_plot_data([])
    merged = ReportTally()
    merged.merge(ReportTally())
    for build in (merged.report, merged.plot_data):
        with pytest.raises(SafetraceError, match="^cannot aggregate an empty evaluation collection$"):
            build()


def test_aggregate_duplicate_ids_rejected():
    evals = [_eval_for(Outcome.FAIL_SAFE, "same"), _eval_for(Outcome.FAIL_SAFE, "same")]
    with pytest.raises(SafetraceError, match="duplicate"):
        aggregate(evals)
    evals += [_eval_for(Outcome.FAIL_SAFE, i) for i in ("b", "a", "b", "c")]
    with pytest.raises(SafetraceError, match=r"\['b', 'same'\]"):
        aggregate(evals)
    # The plot panels come from the same fold and reject the same batch
    # instead of counting the rollout twice.
    with pytest.raises(SafetraceError, match=r"\['b', 'same'\]"):
        export_plot_data(evals)


def test_aggregate_permutation_invariance():
    rng = random.Random(3)
    evals = [
        _eval_for(rng.choice(list(Outcome)), f"r{i}", policy=rng.choice("xy"))
        for i in range(24)
    ]
    report_a = export_report_json(aggregate(evals))
    rng.shuffle(evals)
    report_b = export_report_json(aggregate(evals))
    assert report_a == report_b


def test_aggregate_partition_refinement():
    evals = []
    for i, sid in enumerate(("clean_pick_place", "grasp_drop", "transfer_spill")):
        for seed in range(4):
            record = generate_scenario(ScenarioParams(sid, 12 if sid != "transfer_spill" else 20, seed))
            evals.append(evaluate_rollout(record, scenario_task_spec(sid)))
    report = aggregate(evals)
    assert sum(row.applicable_rollouts for row in report.per_suite.values()) == report.n_rollouts
    assert sum(row.applicable_rollouts for row in report.per_horizon.values()) == report.n_rollouts
    assert sum(row.rollouts for row in report.per_policy.values()) == report.n_rollouts


def test_aggregate_monotonicity_adding_fail_unsafe():
    evals = [_eval_for(Outcome.SUCCESS_SAFE, f"r{i}") for i in range(6)]
    base = aggregate(evals).overall_violation_rate
    grown = aggregate(evals + [_eval_for(Outcome.FAIL_UNSAFE, "z")]).overall_violation_rate
    assert grown >= base


@given(st.lists(st.sampled_from(list(Outcome)), min_size=1, max_size=40))
@settings(max_examples=120, deadline=None)
def test_metric_identities_fuzzed(outcomes):
    evals = [_eval_for(o, f"r{i}") for i, o in enumerate(outcomes)]
    report = aggregate(evals)
    assert sum(report.outcome_shares.values()) == 1
    assert (
        report.overall_violation_rate
        == report.outcome_shares[Outcome.SUCCESS_UNSAFE]
        + report.outcome_shares[Outcome.FAIL_UNSAFE]
    )
    assert (
        report.task_success_rate
        == report.outcome_shares[Outcome.SUCCESS_SAFE]
        + report.outcome_shares[Outcome.SUCCESS_UNSAFE]
    )
    successes = [e for e in evals if e.success]
    if successes:
        assert report.unsafe_success_share == Fraction(
            sum(1 for e in successes if e.unsafe), len(successes)
        )
    else:
        assert report.unsafe_success_share is None


def test_applicability_denominators():
    # grasp_drop monitors only phi2; clean_pick_place monitors phi1-3. The
    # phi2 denominator counts both, phi1 only clean_pick_place.
    evals = []
    for seed in range(3):
        record = generate_scenario(ScenarioParams("clean_pick_place", 12, seed))
        evals.append(evaluate_rollout(record, scenario_task_spec("clean_pick_place")))
    for seed in range(2):
        record = generate_scenario(ScenarioParams("grasp_drop", 12, seed))
        evals.append(evaluate_rollout(record, scenario_task_spec("grasp_drop")))
    report = aggregate(evals)
    assert report.per_template["phi1"].applicable_rollouts == 3
    assert report.per_template["phi2"].applicable_rollouts == 5
    assert report.per_template["phi2"].violation_rate == Fraction(2, 5)
    assert report.per_category["grasp_stability"].applicable_rollouts == 5
    assert "phi4" not in report.per_template


def test_denominator_task_mode_macro_averages():
    evals = []
    for seed in range(4):
        record = generate_scenario(ScenarioParams("grasp_drop", 12, seed))
        evals.append(evaluate_rollout(record, scenario_task_spec("grasp_drop")))
    for seed in range(2):
        record = generate_scenario(ScenarioParams("clean_pick_place", 12, seed))
        evals.append(evaluate_rollout(record, scenario_task_spec("clean_pick_place")))
    rollout_mode = aggregate(evals, denominator="rollout")
    task_mode = aggregate(evals, denominator="task")
    # phi2: rollout mode 4/6; task mode mean(1, 0) = 1/2.
    assert rollout_mode.per_template["phi2"].violation_rate == Fraction(4, 6)
    assert task_mode.per_template["phi2"].violation_rate == Fraction(1, 2)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _sample_report():
    evals = [
        _eval_for(Outcome.SUCCESS_SAFE, "a", policy="p1"),
        _eval_for(Outcome.SUCCESS_UNSAFE, "b", policy="p1"),
        _eval_for(Outcome.FAIL_SAFE, "c", policy="p2"),
        _eval_for(Outcome.FAIL_UNSAFE, "d", policy="p2"),
    ]
    return aggregate(evals), evals


def test_export_json_deterministic_and_round_trips():
    report, _ = _sample_report()
    text_a = export_report_json(report)
    text_b = export_report_json(report)
    assert text_a == text_b
    loaded = load_report(text_a)
    assert loaded == report
    # Float approximations land within 1e-12 of the exact rates.
    doc = json.loads(text_a)
    assert abs(doc["task_success_rate"]["approx"] - float(report.task_success_rate)) < 1e-12


@pytest.mark.parametrize("template_id", [*TEMPLATE_IDS, CUSTOM_TEMPLATE, "made_up", "PHI1", ""])
def test_every_instance_the_constructor_accepts_round_trips_its_report(template_id):
    """An instance built directly, not through a spec, is checked as a
    loaded one: its report loads back, or its template id is an error."""
    base = SPEC.instances[0]
    fields = (base.instance_id, template_id, base.bindings, base.formula, base.category, base.dfa)
    if template_id not in (*TEMPLATE_IDS, CUSTOM_TEMPLATE):
        with pytest.raises(TemplateError) as expected:
            get_template(template_id)
        with pytest.raises(TemplateError, match=re.escape(str(expected.value))):
            PropertyInstance(*fields)
        return
    spec = TaskSpec(SPEC.task_name, SPEC.suite, SPEC.horizon, (PropertyInstance(*fields),))
    report = aggregate([evaluate_rollout(_record("r", [["collision"], []], False), spec)])
    assert load_report(export_report_json(report)) == report


def test_load_report_raises_one_error_on_text_that_is_not_a_report():
    report, _ = _sample_report()
    doc = json.loads(export_report_json(report))
    missing_key = {k: v for k, v in doc.items() if k != "n_rollouts"}
    zero_denominator = dict(doc, task_success_rate=dict(doc["task_success_rate"], exact="1/0"))
    template, row = next(iter(doc["per_template"].items()))
    rate = doc["task_success_rate"]
    category, category_row = next(iter(doc["per_category"].items()))
    wrong_fields = [
        dict(doc, n_rollouts="x"),
        dict(doc, n_rollouts=2.0),
        dict(doc, n_rollouts=True),
        dict(doc, denominator_mode=5),
        dict(doc, denominator_mode="policy"),
        dict(doc, per_template={**doc["per_template"], template: dict(row, applicable_rollouts=False)}),
    ]
    # Each of these loaded before, though a re-export would differ from it.
    unwritten = [
        dict(doc, task_success_rate=dict(rate, approx=rate["approx"] + 0.25)),
        dict(doc, task_success_rate="x"),
        dict(doc, task_success_rate=None),
        dict(doc, task_success_rate={"exact": "1/1", "approx": 1}),
        dict(doc, task_success_rate={"exact": "2/4", "approx": 0.5}),
        dict(doc, outcome_shares=dict(doc["outcome_shares"], unknown=rate)),
        dict(doc, per_category={**doc["per_category"], "no_such_category": category_row}),
        dict(doc, per_category={**doc["per_category"], category: dict(category_row, note="x")}),
        dict(doc, note="x"),
    ]
    texts = map(json.dumps, [missing_key, zero_denominator, *wrong_fields, *unwritten])
    for text in ("x", "[]", "{}", *texts):
        with pytest.raises(SafetraceError) as info:
            load_report(text)
        assert type(info.value) is SafetraceError
        assert str(info.value).startswith(("not a report export: ", "invalid JSON: "))
    not_an_integer = "^not a report export: TypeError: 'n_rollouts' must be an integer, got 'x'$"
    with pytest.raises(SafetraceError, match=not_an_integer):
        load_report(json.dumps(wrong_fields[0]))
    with pytest.raises(SafetraceError, match="^not a report export: ValueError: unknown denominator mode 5$"):
        load_report(json.dumps(wrong_fields[3]))
    with pytest.raises(SafetraceError, match="^invalid JSON: "):
        load_report("x")
    with pytest.raises(SafetraceError, match="^not a report export: ValueError: 'task_success_rate' must be "):
        load_report(json.dumps(unwritten[0]))
    no_such_category = "^not a report export: ValueError: unknown category 'no_such_category' in 'per_category'$"
    with pytest.raises(SafetraceError, match=no_such_category):
        load_report(json.dumps(unwritten[6]))
    with pytest.raises(SafetraceError, match="^not a report export: ValueError: unknown key 'note'$"):
        load_report(json.dumps(unwritten[-1]))
    # A repeated key is an error, not last-wins.
    text = export_report_json(report)
    with pytest.raises(SafetraceError, match="^invalid JSON: duplicate key 'n_rollouts'$"):
        load_report(text.replace('"n_rollouts": ', '"n_rollouts": 0, "n_rollouts": '))


def test_export_csv_tables_and_headers():
    report, _ = _sample_report()
    files = export_report_csv(report)
    assert set(files) == {
        "overall.csv",
        "per_template.csv",
        "per_category.csv",
        "per_suite.csv",
        "per_horizon.csv",
        "per_policy.csv",
    }
    category_lines = files["per_category.csv"].strip().splitlines()
    assert category_lines[0] == (
        "category,applicable_rollouts,violation_rate_exact,violation_rate,"
        "mean_exposure_exact,mean_exposure"
    )
    # Both monitored categories applicable for all rollouts here.
    assert len(category_lines) == 3


def test_csv_has_eight_category_rows_when_all_applicable():
    evals = []
    for sid in (
        "clean_pick_place",
        "contamination_sanitized",
        "onset_unsafe",
        "mechanism_hit_recover",
        "transfer_contained",
        "enclosure_double_insert",
        "reach_half_open",
    ):
        info_length = 20
        record = generate_scenario(ScenarioParams(sid, info_length, 0))
        evals.append(evaluate_rollout(record, scenario_task_spec(sid)))
    report = aggregate(evals)
    lines = export_report_csv(report)["per_category.csv"].strip().splitlines()
    assert len(lines) == 1 + 8


def test_null_share_serializes_as_null_not_zero():
    evals = [_eval_for(Outcome.FAIL_UNSAFE, "only")]
    doc = json.loads(export_report_json(aggregate(evals)))
    assert doc["unsafe_success_share"] is None
    files = export_report_csv(aggregate(evals))
    row = [l for l in files["overall.csv"].splitlines() if l.startswith("unsafe_success_share")]
    assert row == ["unsafe_success_share,,"]


def test_export_report_dispatch():
    report, _ = _sample_report()
    assert set(export_report(report, "json")) == {"report.json"}
    assert "per_template.csv" in export_report(report, "csv")
    with pytest.raises(SafetraceError, match="unknown report format"):
        export_report(report, "xml")


def test_plot_data_files():
    _, evals = _sample_report()
    files = export_plot_data(evals)
    assert set(files) == {
        "plot_success_vs_violation.csv",
        "plot_outcome_shares.csv",
        "plot_category_heatmap.csv",
        "plot_horizon_lines.csv",
        "plot_suite_heatmap.csv",
    }
    scatter = files["plot_success_vs_violation.csv"].strip().splitlines()
    assert scatter[0] == "policy,task_success_rate,violation_rate"
    assert len(scatter) == 3  # two policies
    # p2 has zero successes -> empty unsafe_success_share cell in the panels.
    suite_lines = files["plot_suite_heatmap.csv"].strip().splitlines()
    p2_rows = [l for l in suite_lines if ",p2," in l]
    assert p2_rows and all(l.endswith(",") for l in p2_rows)


# Aggregation against the rollout-by-rollout reference in tests/oracles.py.


def _spec(task, suite, horizon, properties):
    return load_task_spec({"task": task, "suite": suite, "horizon": horizon, "properties": properties})


def _bound(instance_id, template, **bindings):
    return {"id": instance_id, "template": template, "bindings": bindings}


# Templates and categories overlap within and across specs: two phi3
# instances, three enclosure_access templates, phi1 in two specs, and a
# custom formula without a category.
_REFERENCE_SPECS = (
    _spec("t0", "atomic_fixture", "atomic", [
        _bound("inv", "phi1", Collision="a", BadContact="b"),
        _bound("settle", "phi3", ObjReleased="c", Settled="d"),
        _bound("settle2", "phi3", ObjReleased="a", Settled="b"),
        {"id": "cust", "template": "custom", "formula": "G (a -> F b)"},
    ]),
    _spec("t1", "beverage_serving", "medium", [
        _bound("inv", "phi1", Collision="a", BadContact="c"),
        _bound("enclose", "phi8", ItemInEnclosure="a", InsertItem="b", EnclosureCleared="c"),
        _bound("reach", "phi9", ReachIn="c", FixOpen="d"),
        _bound("insert", "phi10", PlaceInOnset="b", Released="a", ObjInside="d"),
    ]),
    _spec("t2", "atomic_fixture", "long", [
        _bound("grasp", "phi2", ObjGrasped="a", StableGrasp="b", ObjReleased="c"),
        _bound("transfer", "phi7", Transfer="d", Contained="a"),
        _bound("reach", "phi9", ReachIn="b", FixOpen="a"),
    ]),
    _spec("t3", "beverage_serving", "medium", [
        _bound("settle", "phi3", ObjReleased="b", Settled="c"),
    ]),
)


@st.composite
def _evaluation_batches(draw):
    evaluations = []
    for i in range(draw(st.integers(1, 12))):
        spec = draw(st.sampled_from(_REFERENCE_SPECS))
        steps = draw(st.lists(st.frozensets(st.sampled_from("abcd")), min_size=1, max_size=10))
        record = RolloutRecord(
            f"r{i}", spec.task_name, draw(st.sampled_from(("p1", "p2", "p3"))), draw(st.booleans()),
            Trace(steps),
        )
        evaluations.append(evaluate_rollout(record, spec, strict_end=draw(st.booleans())))
    return evaluations


# Pairwise coprime trace lengths: a cell's exposure sum then has the product
# of its lengths as its denominator.
_COPRIME_LENGTHS = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


@st.composite
def _coprime_length_batches(draw):
    """Up to 30 rollouts of many distinct, pairwise coprime lengths."""
    evaluations = []
    lengths = st.sampled_from(_COPRIME_LENGTHS)
    for i in range(draw(st.integers(1, 30))):
        spec = draw(st.sampled_from(_REFERENCE_SPECS))
        trace = Trace([step & set("abcd") for step in draw(_traces(lengths))])
        record = RolloutRecord(
            f"r{i}", spec.task_name, draw(st.sampled_from(("p1", "p2"))), draw(st.booleans()), trace
        )
        evaluations.append(evaluate_rollout(record, spec, strict_end=draw(st.booleans())))
    return evaluations


def _approx(value):
    return repr(float(value))


def _reference_plot_rows(evaluations) -> dict[str, list[list[str]]]:
    """Every plot panel's rows, each value a fraction of `reference_report`
    over the rollouts the panel cell covers."""
    per_policy = reference_report(evaluations, "rollout").per_policy
    rows = {
        "plot_success_vs_violation.csv": [
            [p, _approx(row.success_rate), _approx(row.violation_rate)]
            for p, row in per_policy.items()
        ],
        "plot_outcome_shares.csv": [
            [p] + [_approx(row.outcome_shares[o]) for o in Outcome] for p, row in per_policy.items()
        ],
        "plot_category_heatmap.csv": [],
        "plot_horizon_lines.csv": [],
        "plot_suite_heatmap.csv": [],
    }
    for category in [c.value for c in SafetyCategory]:
        for p in per_policy:
            own = reference_report([e for e in evaluations if e.policy == p], "rollout")
            row = own.per_category.get(category)
            if row is not None:
                rows["plot_category_heatmap.csv"].append(
                    [category, p, str(row.applicable_rollouts), _approx(row.violation_rate),
                     _approx(row.mean_exposure)]
                )
    for name, keys, key_of in (
        ("plot_horizon_lines.csv", HORIZONS, lambda e: e.horizon),
        ("plot_suite_heatmap.csv", SUITES, lambda e: e.suite),
    ):
        for key in keys:
            for p in per_policy:
                group = [e for e in evaluations if e.policy == p and key_of(e) == key]
                if group:
                    row = reference_report(group, "rollout").per_policy[p]
                    share = row.unsafe_success_share
                    rows[name].append(
                        [key, p, str(row.rollouts), _approx(row.violation_rate),
                         "" if share is None else _approx(share)]
                    )
    return rows


@given(_evaluation_batches())
@settings(max_examples=150, deadline=None)
def test_aggregate_and_plot_data_match_the_reference(evaluations):
    for mode in ("rollout", "task"):
        report = aggregate(evaluations, denominator=mode)
        expected = reference_report(evaluations, mode)
        assert report == expected
        # Equal reports with equal row order export to equal bytes.
        assert export_report_csv(report) == export_report_csv(expected)
    files = export_plot_data(evaluations)
    for name, rows in _reference_plot_rows(evaluations).items():
        assert list(csv.reader(io.StringIO(files[name])))[1:] == rows, name


@st.composite
def _split_batches(draw):
    """A batch, and its evaluations dealt into parts (some maybe empty) that
    are listed in any order."""
    evaluations = draw(_evaluation_batches() | _coprime_length_batches())
    n_parts = draw(st.integers(1, 5))
    owners = draw(st.lists(st.integers(0, n_parts - 1), min_size=len(evaluations), max_size=len(evaluations)))
    parts = [[e for e, owner in zip(evaluations, owners) if owner == p] for p in range(n_parts)]
    return evaluations, draw(st.permutations(parts))


def _error(build) -> str:
    with pytest.raises(SafetraceError) as excinfo:
        build()
    return str(excinfo.value)


@given(_split_batches(), st.data())
@settings(max_examples=150, deadline=None)
def test_merged_tallies_of_any_split_export_the_whole_batch(split, data):
    evaluations, parts = split
    tallies = [ReportTally(part) for part in parts]
    merged = ReportTally()
    for tally in tallies:
        merged.merge(tally)
    for mode in ("rollout", "task"):
        report = merged.report(mode)
        whole = aggregate(evaluations, denominator=mode)
        assert report == reference_report(evaluations, mode)
        assert export_report_json(report) == export_report_json(whole)
        assert export_report_csv(report) == export_report_csv(whole)
    assert merged.plot_data() == export_plot_data(evaluations)
    # A rollout in two parts is the duplicate that one batch would be.
    again = data.draw(st.sampled_from(evaluations))
    merged.add(again)
    merged.merge(ReportTally([again]))
    expected = _error(lambda: aggregate(evaluations + [again, again]))
    assert expected.startswith("duplicate rollout_id in evaluation batch: ")
    assert _error(merged.report) == _error(merged.plot_data) == expected
    # Merging copies cells: after adding to the merged tally, each part
    # still reports on itself alone.
    for part, tally in zip(parts, tallies):
        if part:
            assert tally.report() == aggregate(part)


def _fixed_batch():
    """One rollout of each coprime length, over the reference specs."""
    rng = random.Random(5)
    evaluations = []
    for i, length in enumerate(_COPRIME_LENGTHS):
        spec = _REFERENCE_SPECS[i % len(_REFERENCE_SPECS)]
        steps = [frozenset(p for p in "abcd" if rng.random() < 0.4) for _ in range(length)]
        record = RolloutRecord(f"r{i}", spec.task_name, ("p1", "p2")[i % 2], i % 3 == 0, Trace(steps))
        evaluations.append(evaluate_rollout(record, spec))
    return evaluations


_REFERENCE_BATCH = _fixed_batch()


def test_merge_copies_the_other_tallys_counts():
    batch = _REFERENCE_BATCH
    part = ReportTally(batch[:3])
    before = {k: [*cell[:4], Counter(cell[4])] for k, cell in part.cells.items()}
    merged = ReportTally()
    merged.merge(part)
    merged.merge(ReportTally(batch[3:]))
    merged.merge(part)
    merged.add(_rebuilt(batch[0], rollout_id="again"))
    assert part.cells == before
    for coordinates, cell in merged.cells.items():
        assert cell[4] is not part.cells.get(coordinates, [None] * 5)[4]
    assert part.report() == aggregate(batch[:3])


def test_exposure_sums_are_integer_counts_per_length():
    tally = ReportTally(_REFERENCE_BATCH)
    for *_, unsafe_steps in tally.cells.values():
        assert isinstance(unsafe_steps, Counter)
        assert set(unsafe_steps) <= set(_COPRIME_LENGTHS)
        assert all(type(n) is int for n in unsafe_steps.values())
    for mode in ("rollout", "task"):
        assert tally.report(mode) == reference_report(_REFERENCE_BATCH, mode)
