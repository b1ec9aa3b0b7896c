"""Every record class of the package behaves as the frozen dataclass it
replaced: each is checked against its mirror in ``oracles.RECORD_MIRRORS``
for repr, equality, hash, pickling, copying, immutability and construction."""

import copy
import dataclasses
import itertools
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import safetrace
from safetrace import automata, formulas, metrics, monitor, properties, rollouts
from safetrace._record import Record
from safetrace.automata import compile_formula
from safetrace.formulas import And, Prop, Trace, parse
from safetrace.metrics import aggregate, evaluate_rollout
from safetrace.properties import TEMPLATE_IDS, get_template
from safetrace.rollouts import (
    SCENARIOS,
    RolloutRecord,
    ScenarioParams,
    generate_scenario,
    load_rollout,
    scenario_task_spec,
)

from oracles import RECORD_MIRRORS

RECORD_CLASSES = sorted(
    (
        obj
        for module in (automata, formulas, metrics, monitor, properties, rollouts)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == module.__name__
        and not obj.__name__.startswith("_")
    ),
    key=lambda cls: cls.__name__,
)


def _field_names(name: str) -> list[str]:
    return [f.name for f in dataclasses.fields(RECORD_MIRRORS[name])]


def _arguments(record) -> dict:
    """The constructor arguments that build ``record`` again."""
    return {name: getattr(record, name) for name in _field_names(type(record).__name__)}


def _samples() -> dict[str, list[dict]]:
    """Record class name -> constructor arguments of a few distinct records."""
    a, b = Prop("a"), Prop("b")
    spec = scenario_task_spec("clean_pick_place")
    evaluations = [
        evaluate_rollout(generate_scenario(ScenarioParams("clean_pick_place", 40, seed)), spec)
        for seed in (0, 1)
    ]
    report = aggregate(evaluations)
    first, second = spec.instances[:2]
    info, other_info = list(SCENARIOS.values())[:2]
    unary = [{"operand": a}, {"operand": And(a, b)}]
    binary = [{"left": a, "right": b}, {"left": b, "right": a}]
    rollout = {"rollout_id": "r", "task_name": "t", "policy": "p", "success": True}
    dfa = {"props": ("a",), "initial": 0, "accepting": [0], "transitions": [[0, 1], [1, 1]]}
    compiled = compile_formula(parse("G (a -> F b)"))
    samples = {
        **{name: [{}] for name in ("Formula", "TrueFormula", "FalseFormula")},
        "Prop": [{"name": "a"}, {"name": "b"}],
        # One name per step at most: a frozenset of several names can print
        # in another order once unpickled, the dataclass mirror's as well.
        "Trace": [{"steps": [["a"], []]}, {"steps": [["a"], [], ["b"]]}, {"steps": (frozenset("b"),)}],
        "Dfa": [
            dfa,
            # Equal to the first: labels are neither compared nor shown.
            {**dfa, "state_labels": ["G a", "false"]},
            {**dfa, "accepting": [1]},
            {**dfa, "props": ("b",)},
            {name: getattr(compiled, name) for name in ("props", "initial", "accepting", "transitions", "state_labels")},
            # More than 256 states: the successor table is an array('H').
            {"props": (), "initial": 0, "accepting": [299], "transitions": [[min(s + 1, 299)] for s in range(300)]},
        ],
        **dict.fromkeys(("Not", "Next", "WeakNext", "Always", "Eventually"), unary),
        **dict.fromkeys(("And", "Or", "Implies", "Until", "Release"), binary),
        "InstanceMeta": list(evaluations[0].instance_meta.values()),
        "RolloutEvaluation": evaluations,
        "TableRow": list(report.per_template.values()),
        "PolicyRow": list(report.per_policy.values()),
        "EvaluationReport": [report, aggregate(evaluations[:1])],
        "MonitorResult": list(evaluations[0].per_instance.values()),
        "PropertyTemplate": [get_template("phi1"), get_template("phi2")],
        # The last instance differs from the first only in its DFA.
        "PropertyInstance": [first, second, {**_arguments(first), "dfa": second.dfa}],
        "TaskSpec": [spec, scenario_task_spec("grasp_drop")],
        "RolloutRecord": [
            {**rollout, "trace": [["a"], [], ["a", "b"]]},
            {**rollout, "trace": [["a"], [], ["a", "b"]], "declared_props": ("a", "b")},
            # More than 256 distinct valuations: the ids are a tuple, which hash covers.
            {**rollout, "success": False, "trace": [[f"p{i}"] for i in range(300)]},
        ],
        "Diagnostic": [{"code": "c", "message": "m"}, {"code": "d", "message": "m"}],
        "ScenarioParams": [
            {"scenario_id": "grasp_drop", "length": 40, "seed": 0},
            {"scenario_id": "grasp_drop", "length": 40, "seed": 0, "flip_rate": 0.5},
        ],
        # The last entry differs from the first only in its script.
        "ScenarioInfo": [info, other_info, {**_arguments(info), "script": other_info.script}],
    }
    return {
        name: [s if isinstance(s, dict) else _arguments(s) for s in entries]
        for name, entries in samples.items()
    }


SAMPLES = _samples()


def _result(operation, value):
    try:
        return "value", operation(value)
    except TypeError:
        return "TypeError", None


def test_every_record_class_has_a_mirror_and_samples():
    assert len(RECORD_CLASSES) == 29
    assert {cls.__name__ for cls in RECORD_CLASSES} == set(RECORD_MIRRORS) == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_records_behave_as_their_dataclass_mirrors(cls):
    mirror = RECORD_MIRRORS[cls.__name__]
    names = _field_names(cls.__name__)
    assert cls.__match_args__ == mirror.__match_args__
    records = [cls(**arguments) for arguments in SAMPLES[cls.__name__]]
    mirrors = [mirror(**{name: getattr(r, name) for name in names}) for r in records]
    for r, m in zip(records, mirrors):
        assert repr(r) == repr(m)
        assert _result(hash, r) == _result(hash, m)
        assert r.__eq__(object()) is NotImplemented and m.__eq__(object()) is NotImplemented
        assert r != object()
        for again in (pickle.loads(pickle.dumps(r)), copy.copy(r)):
            assert type(again) is cls
            assert again == r and repr(again) == repr(r)
            assert _result(hash, again) == _result(hash, r)
        assert all(getattr(copy.copy(r), name) is getattr(r, name) for name in names)
        for name in [*names, "unknown"]:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
    for (r1, m1), (r2, m2) in itertools.product(zip(records, mirrors), repeat=2):
        assert (r1 == r2) == (m1 == m2)
        assert (r1 != r2) == (m1 != m2)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_records_construct_as_their_dataclass_mirrors(cls):
    names = _field_names(cls.__name__)
    defaults = {
        f.name: f.default
        for f in dataclasses.fields(RECORD_MIRRORS[cls.__name__])
        if f.default is not dataclasses.MISSING
    }
    for arguments in SAMPLES[cls.__name__]:
        by_keyword = cls(**arguments)
        by_position = cls(*arguments.values())
        assert all(getattr(by_position, name) == getattr(by_keyword, name) for name in names)
        for name in defaults.keys() & arguments.keys():
            omitted = cls(**{k: v for k, v in arguments.items() if k != name})
            assert getattr(omitted, name) == defaults[name]
        with pytest.raises(TypeError):
            cls(**arguments, unknown=None)
        with pytest.raises(TypeError):
            cls(*range(len(names) + 2))
        if arguments:
            first, *rest = arguments
            with pytest.raises(TypeError):
                cls(**{k: arguments[k] for k in rest})
            with pytest.raises(TypeError):
                cls(arguments[first], **arguments)


def test_records_store_only_what_their_producers_measure():
    # Formula nodes compare and hash through Record; a monitor result keeps
    # its verdict runs and end state; an evaluation's outcome is read from
    # its `success` and `unsafe`, and its constructor is the generic one.
    nodes = [cls for cls in RECORD_CLASSES if issubclass(cls, formulas.Formula)]
    assert len(nodes) == 14
    assert all(cls.__eq__ is Record.__eq__ and cls.__hash__ is Record.__hash__ for cls in nodes)
    assert monitor.MonitorResult._fields == ("codes", "ends", "final_satisfied")
    assert "__init__" not in vars(metrics.RolloutEvaluation)
    assert "outcome" not in metrics.RolloutEvaluation._fields


def test_traces_and_automata_take_their_value_semantics_from_record():
    protocol = {"__eq__", "__hash__", "__setattr__", "__delattr__", "__reduce__", "__repr__"}
    for cls in (Trace, automata.Dfa):
        assert not protocol & vars(cls).keys()
    # A state's permanence is read from its verdict code, stored once.
    assert isinstance(vars(automata.Dfa)["permanence"], property)
    assert "permanence" not in automata.Dfa._fields


def test_a_trace_reads_the_same_under_any_hash_seed_and_after_pickling():
    # A step's names print sorted, whatever order its frozenset iterates in.
    script = (
        "import pickle\n"
        "from safetrace.formulas import Trace\n"
        "t = Trace([['a'], [], ['a', 'b'], ['c', 'b', 'a']])\n"
        "print(repr(t))\n"
        "print(repr(pickle.loads(pickle.dumps(t))))\n"
    )
    src = str(Path(safetrace.__file__).resolve().parent.parent)
    outputs = set()
    for seed in ("0", "7", "24"):
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.update(completed.stdout.splitlines())
    assert outputs == {
        "Trace(steps=(frozenset({'a'}), frozenset(), frozenset({'a', 'b'}), frozenset({'a', 'b', 'c'})))"
    }


def test_compiled_automata_refuse_assignment():
    dfa = compile_formula(get_template("phi2").formula)
    for name in ("props", "successors", "_labels"):
        with pytest.raises(AttributeError):
            setattr(dfa, name, getattr(dfa, name))


@pytest.mark.parametrize("template_id", TEMPLATE_IDS)
def test_automata_hash_as_their_structure_did(template_id):
    d = compile_formula(get_template(template_id).formula)
    assert hash(d) == hash((d.props, d.initial, d.accepting, d.transitions))


def test_rollout_records_past_256_distinct_valuations_hash():
    record = RolloutRecord(**SAMPLES["RolloutRecord"][-1])
    assert len(record.valuations) == 300 and type(record.run_ids) is tuple
    assert _result(hash, record)[0] == "value"


def test_rollout_records_read_their_cached_trace_after_pickling_and_copying():
    record = RolloutRecord("r", "t", "p", True, [["a"], [], ["a", "b"], ["b"]])
    expected = (record.trace, list(record.mask_runs([("a", "b")])))
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert (again.trace, list(again.mask_runs([("a", "b")]))) == expected


def test_decoded_rollout_records_copy_after_their_trace_is_read():
    # A decoded record builds its `Trace` when first read and keeps it.
    document = {"rollout_id": "r", "task": "t", "policy": "p", "success": True}
    record = load_rollout(json.dumps({**document, "trace": [["a"], [], ["a", "b"], ["b"]]}))
    pair = (record, record.trace)
    shallow = (copy.copy(record), copy.copy(record.trace))
    for again_record, again_trace in (pickle.loads(pickle.dumps(pair)), shallow, copy.deepcopy(pair)):
        assert again_record == record and type(again_trace) is Trace
        assert again_record.trace == again_trace == record.trace
