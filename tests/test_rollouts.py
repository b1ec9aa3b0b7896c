"""Rollout wire format, validation diagnostics, and the scenario generator."""

import json
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from safetrace import rollouts
from safetrace.automata import Dfa
from safetrace.errors import BindingError, RolloutFormatError, ScenarioError
from safetrace.formulas import Prop, Trace, is_valid_proposition
from safetrace.metrics import evaluate_rollout
from safetrace.monitor import run_trace, trace_masks
from safetrace.properties import instantiate, load_task_spec
from safetrace.rollouts import (
    DETERMINISTIC_SCENARIOS,
    SCENARIOS,
    RolloutRecord,
    ScenarioParams,
    corpus_composition,
    generate_scenario,
    load_rollout,
    scenario_task_spec,
    serialize_rollout,
    validate_rollout,
)

from oracles import ReferenceDecodeError, reference_run, reference_trace

# ---------------------------------------------------------------------------
# load / serialize
# ---------------------------------------------------------------------------

BASE_DOC = {
    "rollout_id": "r1",
    "task": "wipe_counter",
    "policy": "demo",
    "success": True,
    "trace": [["a"], [], ["a", "b"]],
}


def test_load_sparse_rollout():
    record = load_rollout(json.dumps(BASE_DOC))
    assert len(record.trace) == 3
    assert record.trace[2] == {"a", "b"}
    assert record.declared_props is None


def test_load_dense_boolean_steps():
    doc = dict(BASE_DOC, trace=[{"a": True, "b": False}, {"b": True}])
    record = load_rollout(doc)
    assert record.trace[0] == {"a"}
    assert record.trace[1] == {"b"}


def test_load_timestep_objects_any_order():
    doc = dict(
        BASE_DOC,
        trace=[{"t": 2, "props": ["b"]}, {"t": 0, "props": ["a"]}, {"t": 1, "props": []}],
    )
    record = load_rollout(doc)
    assert record.trace.steps == (frozenset({"a"}), frozenset(), frozenset({"b"}))


def test_duplicate_timestep_is_an_error():
    doc = dict(BASE_DOC, trace=[{"t": 0, "props": []}, {"t": 0, "props": ["a"]}])
    with pytest.raises(RolloutFormatError, match="duplicate timestep"):
        load_rollout(doc)


def test_boolean_timestep_is_an_error():
    doc = dict(BASE_DOC, trace=[{"t": 0, "props": []}, {"t": True, "props": ["a"]}])
    with pytest.raises(RolloutFormatError, match="invalid timestep True"):
        load_rollout(doc)


def test_missing_timestep_is_an_error():
    doc = dict(BASE_DOC, trace=[{"t": 0, "props": []}, {"t": 2, "props": []}])
    with pytest.raises(RolloutFormatError, match="missing timesteps"):
        load_rollout(doc)


def test_huge_timestep_gap_names_the_first_gaps_without_scanning_to_it():
    doc = dict(BASE_DOC, trace=[{"t": 0}, {"t": 2}, {"t": 10**12}])
    with pytest.raises(RolloutFormatError, match=r"missing timesteps: \[1, 3, 4, 5, 6\]$"):
        load_rollout(doc)
    doc = dict(BASE_DOC, trace=[{"t": 0}, {"t": 4}])
    with pytest.raises(RolloutFormatError, match=r"missing timesteps: \[1, 2, 3\]$"):
        load_rollout(doc)


def test_empty_trace_is_an_error():
    with pytest.raises(RolloutFormatError, match="at least one step"):
        load_rollout(dict(BASE_DOC, trace=[]))


def test_undeclared_proposition_names_the_step():
    doc = dict(BASE_DOC, declared_props=["a", "b"], trace=[["a"], ["colision"]])
    with pytest.raises(RolloutFormatError, match="step 1.*colision"):
        load_rollout(doc)


def test_schema_violations():
    with pytest.raises(RolloutFormatError, match="missing keys"):
        load_rollout({"rollout_id": "x"})
    with pytest.raises(RolloutFormatError, match="unknown keys"):
        load_rollout(dict(BASE_DOC, bogus=1))
    with pytest.raises(RolloutFormatError, match="'success'"):
        load_rollout(dict(BASE_DOC, success="yes"))
    with pytest.raises(RolloutFormatError, match="invalid proposition"):
        load_rollout(dict(BASE_DOC, trace=[["9bad"]]))
    with pytest.raises(RolloutFormatError, match="invalid JSON"):
        load_rollout("{nope")
    with pytest.raises(RolloutFormatError, match="invalid JSON: Exceeds the limit"):
        load_rollout('{"rollout_id": ' + "1" * 5000 + "}")
    with pytest.raises(RolloutFormatError, match=r"unknown keys: \[1, 'z'\]"):
        load_rollout({**BASE_DOC, "z": 0, 1: 0})


@pytest.mark.parametrize("key", ["rollout_id", "task", "policy"])
def test_identifiers_utf8_cannot_encode_are_rejected(key):
    # Valid JSON: the escape decodes to a lone surrogate.
    text = json.dumps(dict(BASE_DOC, **{key: "p\ud800"}))
    with pytest.raises(RolloutFormatError, match=f"'{key}' contains a surrogate code point"):
        load_rollout(text)
    record = load_rollout(dict(BASE_DOC, **{key: "p\u00f3\U0001f600"}))
    assert getattr(record, {"task": "task_name"}.get(key, key)) == "p\u00f3\U0001f600"


# Interned decoding against the step-by-step reference.

_NAMES = ("a", "b", "grasped_mug", "x1")
_BAD_ENTRIES = (1, None, True, 2.5, ["a"], {"a": True}, "G", "true", "9bad", "", "a b", "late_name")


def _encode(steps, form, rng):
    if form == "sparse":
        return steps
    if form == "dense":
        dense = []
        for step in steps:
            valuation = {}
            for p in step:
                if isinstance(p, (list, dict)):
                    valuation["b"] = "yes"  # unhashable here: a non-boolean value instead
                else:
                    valuation[p] = True
            valuation.setdefault("off", False)
            dense.append(valuation)
        return dense
    entries = [{"t": t, "props": step} for t, step in enumerate(steps)]
    rng.shuffle(entries)
    return entries


@st.composite
def _rollout_documents(draw):
    distinct = draw(st.lists(st.lists(st.sampled_from(_NAMES), max_size=4), min_size=1, max_size=5))
    order = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=150))
    steps = [list(distinct[i]) for i in order]
    for _ in range(draw(st.integers(0, 2))):
        t = draw(st.integers(0, len(steps) - 1))
        steps[t].insert(draw(st.integers(0, len(steps[t]))), draw(st.sampled_from(_BAD_ENTRIES)))
    form = draw(st.sampled_from(("sparse", "dense", "timestep")))
    trace = _encode(steps, form, random.Random(draw(st.integers(0, 2**16))))
    declared = draw(st.one_of(st.none(), st.just(list(_NAMES)), st.lists(st.sampled_from(_NAMES))))
    doc = dict(BASE_DOC, trace=trace)
    if declared is not None:
        doc["declared_props"] = declared
    return doc


_LATE_UNDECLARED = dict(
    BASE_DOC, declared_props=["a", "b"], trace=[["a"], ["a", "b"]] * 100 + [["b", "late_name"]]
)


@given(_rollout_documents())
@example(dict(BASE_DOC, trace=[["a"]] * 50 + [["a", 7]]))  # a non-string entry
@example(dict(BASE_DOC, trace=[["a"]] * 50 + [[["a"]]]))  # an unhashable entry
@example(dict(BASE_DOC, trace=[["a"]] * 50 + [["b", "G"]]))  # a reserved word
@example(dict(BASE_DOC, trace=[["G"], [["a"]]]))  # invalid before unhashable
@example(_LATE_UNDECLARED)
@example(dict(BASE_DOC, trace=[{1: "x", "a": "y"}]))  # mixed key types, non-boolean values
@example(dict(BASE_DOC, trace=[{"t": 0, "props": []}, {"t": 1, "prop": ["a"], 2: 0}]))  # a typo
@settings(max_examples=400, deadline=None)
def test_decode_matches_step_by_step_reference(doc):
    try:
        expected = reference_trace(doc["trace"], doc.get("declared_props"))
    except ReferenceDecodeError as exc:
        with pytest.raises(RolloutFormatError) as info:
            load_rollout(doc)
        assert str(info.value) == str(exc)
    else:
        assert load_rollout(doc).trace == Trace(expected)


def test_dense_step_with_mixed_key_types_names_its_bad_keys():
    with pytest.raises(RolloutFormatError, match=r"step 0: non-boolean values for \[1, 'a'\]"):
        load_rollout(dict(BASE_DOC, trace=[{1: "x", "a": "y"}]))
    with pytest.raises(RolloutFormatError, match=r"non-boolean values for \['a', 'b'\]"):
        load_rollout(dict(BASE_DOC, trace=[{"b": 1, "a": "y"}]))


def test_repeated_steps_share_one_valuation():
    record = load_rollout(dict(BASE_DOC, trace=[["a", "b"], [], ["a", "b"], ["b", "a"]]))
    steps = record.trace.steps
    assert steps[0] is steps[2] is steps[3]
    assert steps[0] == {"a", "b"}
    # Key-order twins share one valuation id.
    assert record.valuations == (frozenset({"a", "b"}), frozenset())
    assert record.valuation_ids == bytes([0, 1, 0, 0])


def test_each_distinct_name_is_validated_once(monkeypatch):
    checked = []
    is_valid = rollouts.is_valid_proposition

    def counting(name):
        checked.append(name)
        return is_valid(name)

    monkeypatch.setattr(rollouts, "is_valid_proposition", counting)
    names = ["a", "b", "c", "d"]
    rng = random.Random(3)
    trace = [sorted(rng.sample(names, rng.randint(0, 4))) for _ in range(300)]
    declared = names + ["e"]
    record = load_rollout(dict(BASE_DOC, declared_props=declared, trace=trace))
    assert record.trace == Trace(trace)
    assert len({frozenset(step) for step in trace}) > len(names)  # many distinct steps
    assert len(checked) <= len(names) + len(declared)


# The valuation index and its table projection, against the per-step
# projection `monitor.trace_masks` over the steps as generated.

_POOL = tuple(f"p{i}" for i in range(10))

_PROJECTION_SPEC = load_task_spec(
    json.dumps(
        {
            "task": "wipe_counter",
            "suite": "atomic_fixture",
            "horizon": "atomic",
            "properties": [
                {"id": "one", "template": "custom", "formula": "F p9"},
                {"id": "two", "template": "custom", "formula": "G (p0 -> F p1)"},
                {"id": "three", "template": "custom", "formula": "G !(p2 & p3 & p4)"},
                {"id": "four", "template": "custom", "formula": "(p5 U p6) | G (p7 -> X p8)"},
                {
                    "id": "eight",
                    "template": "custom",
                    "formula": "G ((p0 | p2 | p4 | p6) -> F (p1 & p3 & !p5 & p9))",
                },
            ],
        }
    )
)


def _encode_all_forms(steps, rng):
    """One rollout per input form: sparse lists in random entry order (so
    key-order twins occur), dense maps, shuffled ``{"t", "props"}`` objects,
    and records built directly from a ``Trace`` and from a list of sets."""
    sparse = [rng.sample(sorted(step), len(step)) for step in steps]
    dense = [dict({p: True for p in step}, off=False) for step in steps]
    timed = [{"t": t, "props": sorted(step)} for t, step in enumerate(steps)]
    rng.shuffle(timed)
    loaded = [load_rollout(dict(BASE_DOC, trace=trace)) for trace in (sparse, dense, timed)]
    fields = (BASE_DOC["rollout_id"], BASE_DOC["task"], BASE_DOC["policy"], BASE_DOC["success"])
    direct = [RolloutRecord(*fields, Trace(steps)), RolloutRecord(*fields, [set(s) for s in steps])]
    return loaded + direct


@given(
    distinct=st.sampled_from((1, 2, 255, 256, 257)) | st.integers(1, 400),
    repeats=st.integers(0, 300),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_table_projection_matches_per_step_projection(distinct, repeats, seed):
    rng = random.Random(seed)
    codes = rng.sample(range(1 << len(_POOL)), distinct)
    codes += [rng.choice(codes) for _ in range(repeats)]
    rng.shuffle(codes)
    steps = [frozenset(p for i, p in enumerate(_POOL) if code >> i & 1) for code in codes]
    records = _encode_all_forms(steps, rng)
    reference = evaluate_rollout(records[-2], _PROJECTION_SPEC)
    for record in records:
        assert len(record.valuations) == distinct
        assert isinstance(record.valuation_ids, bytes) == (distinct <= 256)
        assert record == records[0] and hash(record) == hash(records[0])
        assert record.trace == Trace(steps)
        for inst in _PROJECTION_SPEC.instances:
            assert record.masks(inst.dfa.props) == trace_masks(inst.dfa, steps)
        assert evaluate_rollout(record, _PROJECTION_SPEC) == reference


@st.composite
def _run_traces(draw) -> list:
    """A rollout document's trace, drawn as runs of equal valuations over
    ``_POOL``: runs of random length, every run one step long, one run, or
    more than 256 distinct valuations. Steps are written as sparse lists
    (a run may switch mid-way to a key-order twin of its spelling, such
    as ``["a", "b"]`` then ``["b", "a", "a"]``), dense maps or shuffled
    ``{"t", "props"}`` objects."""
    shape = draw(st.sampled_from(("runs", "ones", "single", "wide")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if shape == "wide":
        codes = rng.sample(range(1 << len(_POOL)), rng.randint(257, 300))
    else:
        pool = rng.sample(range(1 << len(_POOL)), rng.randint(1, 6))
        codes = [rng.choice(pool) for _ in range(1 if shape == "single" else rng.randint(2, 40))]
        if shape == "ones":  # every neighbour differs, so every run is one step
            codes = [c for i, c in enumerate(codes) if i == 0 or c != codes[i - 1]]
    steps = []
    for code in codes:
        names = [p for i, p in enumerate(_POOL) if code >> i & 1]
        spellings = [names, names[::-1], names[::-1] + names[:1]]
        length = 1 if shape in ("ones", "wide") else rng.choice((1, 2, 3, rng.randint(4, 80)))
        twin_from = rng.randint(1, length)
        first, twin = rng.sample(spellings, 2)
        steps += [list(first if t < twin_from else twin) for t in range(length)]
    form = draw(st.sampled_from(("sparse", "dense", "timed")))
    if form == "dense":
        return [dict({p: True for p in step}, off=False) for step in steps]
    if form == "timed":
        timed = [{"t": t, "props": step} for t, step in enumerate(steps)]
        rng.shuffle(timed)
        return timed
    return steps


@given(_run_traces())
@example([["p0", "p1"], ["p1", "p0", "p0"], ["p1", "p0"], ["p1"]])
@settings(max_examples=150, deadline=None)
def test_the_run_form_expands_to_the_reference_steps_and_monitors_as_they_do(raw_trace):
    record = load_rollout(dict(BASE_DOC, trace=raw_trace))
    steps = reference_trace(raw_trace)
    ids, ends = record.run_ids, record.run_ends
    assert isinstance(ids, bytes) == (len(record.valuations) <= 256)
    # Maximal runs: each ends after the last, and neighbours name different sets.
    assert len(ids) == len(ends) and all(a < b for a, b in zip((0, *ends), ends))
    assert all(a != b for a, b in zip(ids, ids[1:]))
    starts = (0, *ends[:-1])
    assert [record.valuations[i] for i, a, b in zip(ids, starts, ends) for _ in range(a, b)] == steps
    direct = RolloutRecord(BASE_DOC["rollout_id"], BASE_DOC["task"], BASE_DOC["policy"], BASE_DOC["success"], steps)
    assert direct == record and hash(direct) == hash(record)
    for again in (pickle.loads(pickle.dumps(record)), pickle.loads(pickle.dumps(direct))):
        assert again == record and again.run_ends == ends and again.trace == Trace(steps)
    evaluation = evaluate_rollout(record, _PROJECTION_SPEC)
    bases = [inst.dfa.props for inst in _PROJECTION_SPEC.instances]
    for inst, mask_runs in zip(_PROJECTION_SPEC.instances, record.mask_runs(bases)):
        codes, state = reference_run(inst.dfa, trace_masks(inst.dfa, steps))
        assert inst.dfa.run(*mask_runs) == (codes, state)
        assert evaluation.runs[inst.instance_id][:2] == (codes, state in inst.dfa.accepting)


def test_projection_past_65536_distinct_valuations():
    names = [f"p{i}" for i in range(17)]
    steps = [
        frozenset(p for i, p in enumerate(names[:16]) if code >> i & 1) for code in range(1 << 16)
    ]
    steps.append(frozenset({"p16"}))
    random.Random(17).shuffle(steps)
    spec = load_task_spec(
        json.dumps(
            {
                "task": "wipe_counter",
                "suite": "atomic_fixture",
                "horizon": "atomic",
                "properties": [
                    {"id": "low", "template": "custom", "formula": "G (p0 -> F p9)"},
                    {"id": "top", "template": "custom", "formula": "G !(p15 & p16)"},
                    {
                        "id": "wide",
                        "template": "custom",
                        "formula": "G ((p1 | p3) -> F (p8 & p10 & !p12 & p14 & p16 & p5))",
                    },
                ],
            }
        )
    )
    direct = RolloutRecord("wide", "wipe_counter", "demo", True, Trace(steps))
    loaded = load_rollout(serialize_rollout(direct))
    assert len(loaded.valuations) == 65537
    evaluation = evaluate_rollout(loaded, spec)
    for inst in spec.instances:
        assert evaluation.per_instance[inst.instance_id] == run_trace(inst.dfa, Trace(steps))
    assert evaluate_rollout(direct, spec) == evaluation


def test_directly_built_record_coerces_its_trace():
    record = RolloutRecord("r", "t", "p", True, trace=[{"a"}], declared_props=("a",))
    assert record.trace == Trace([{"a"}])
    doc = dict(BASE_DOC, rollout_id="r", task="t", policy="p", trace=[["a"]], declared_props=["a"])
    assert record == load_rollout(doc)
    for bad in ([], 7, (["a"],)):
        with pytest.raises(RolloutFormatError) as from_document:
            load_rollout(dict(doc, trace=bad))
        with pytest.raises(RolloutFormatError) as direct_error:
            RolloutRecord("r", "t", "p", True, trace=bad)
        assert str(direct_error.value) == str(from_document.value)
    assert str(direct_error.value) == "'trace' must be a list of steps"
    with pytest.raises(RolloutFormatError, match="^invalid trace: 'int' object is not iterable$"):
        RolloutRecord("r", "t", "p", True, trace=[5])
    with pytest.raises(RolloutFormatError, match=r"step 1 uses undeclared propositions: \['b'\]"):
        RolloutRecord("r", "t", "p", True, trace=[{"a"}, {"a", "b"}], declared_props=("a",))


def test_directly_built_record_rejects_names_load_rollout_rejects():
    direct = RolloutRecord("r", "t", "p", True, [["ok"], ["ok", "b_2"]])
    assert load_rollout(serialize_rollout(direct)) == direct
    fields = {"rollout_id": "r", "task": "t", "policy": "p", "success": True}
    for trace in (
        [["G", "ok"]],
        [["ok"], ["ok"], ["ok", "true", "F", "1x"], ["U"]],
        [{"ok"}] * 300 + [{"ok", "_x"}],
        [{"ok"}, {7}],
    ):
        sparse = [sorted(step, key=str) for step in trace]
        with pytest.raises(RolloutFormatError) as from_document:
            load_rollout(dict(fields, trace=sparse))
        with pytest.raises(RolloutFormatError) as direct_error:
            RolloutRecord("r", "t", "p", True, trace)
        assert str(direct_error.value) == str(from_document.value)
    assert str(direct_error.value) == "step 1: invalid proposition 7"


_DIRECT_ENTRIES = ("G", "true", "9bad", "", "late_name", 1, True, None, 2.5, ("a",))


@given(
    steps=st.lists(
        st.sets(st.sampled_from(_NAMES) | st.sampled_from(_DIRECT_ENTRIES), max_size=4),
        min_size=1,
        max_size=60,
    ),
    declared=st.none() | st.lists(st.sampled_from(_NAMES)),
)
@example(steps=[{"a"}, {"b", "late_name"}, {"G"}], declared=["a", "b"])  # invalid beats undeclared
@example(steps=[{"a", 1, "9bad", None}], declared=None)  # the smallest bad name by str
@settings(max_examples=300, deadline=None)
def test_direct_errors_match_step_by_step_reference_over_sorted_steps(steps, declared):
    try:
        expected = reference_trace([sorted(step, key=str) for step in steps], declared)
    except ReferenceDecodeError as exc:
        with pytest.raises(RolloutFormatError) as info:
            RolloutRecord("r", "t", "p", True, steps, declared)
        assert str(info.value) == str(exc)
    else:
        record = RolloutRecord("r", "t", "p", True, steps, declared)
        assert record.trace == Trace(expected)
        assert record.declared_props == (None if declared is None else tuple(sorted(set(declared))))


def test_direct_record_checks_rollout_id_before_the_trace():
    for trace in ([["G"]], [{"a"}, {7}], 7, []):
        with pytest.raises(RolloutFormatError, match="^'rollout_id' must be a nonempty string$"):
            RolloutRecord("", "t", "p", True, trace)
    with pytest.raises(RolloutFormatError, match="^'rollout_id' must be a nonempty string$"):
        RolloutRecord("", "t", "p", True, [["a"]], declared_props=("a",))


def test_direct_record_keeps_declared_props_as_load_rollout_does():
    record = RolloutRecord("r", "t", "p", True, [["a"], ["b"]], declared_props=("b", "a", "a"))
    assert record.declared_props == ("a", "b")
    assert load_rollout(serialize_rollout(record)) == record
    from_list = RolloutRecord("r", "t", "p", True, [["a"], ["b"]], declared_props=["a", "b"])
    assert from_list == record and hash(from_list) == hash(record)
    fields = {"rollout_id": "r", "task": "t", "policy": "p", "success": True, "trace": [["a"]]}
    for declared in (["a", "G", "9x"], ["a", "a b"]):
        with pytest.raises(RolloutFormatError) as from_document:
            load_rollout(dict(fields, declared_props=declared))
        with pytest.raises(RolloutFormatError) as direct_error:
            RolloutRecord("r", "t", "p", True, [["a"]], declared_props=declared)
        assert str(direct_error.value) == str(from_document.value)
    assert str(direct_error.value) == "invalid declared proposition 'a b'"
    with pytest.raises(RolloutFormatError, match="'declared_props' must be a list of strings"):
        RolloutRecord("r", "t", "p", True, [["a"]], declared_props="ab")


def test_direct_record_checks_its_labels_as_load_rollout_does():
    fields = {"rollout_id": "r", "task": "t", "policy": "p", "success": True, "trace": [["a"]]}
    for key, value in [
        ("success", "yes"), ("success", 1), ("rollout_id", 5), ("task", ""),
        ("policy", None), ("policy", "p\ud800"),
    ]:
        document = dict(fields, **{key: value})
        with pytest.raises(RolloutFormatError) as from_document:
            load_rollout(document)
        with pytest.raises(RolloutFormatError) as direct_error:
            RolloutRecord(*(document[k] for k in ("rollout_id", "task", "policy", "success", "trace")))
        assert str(direct_error.value) == str(from_document.value)
    assert str(direct_error.value) == (
        "'policy' contains a surrogate code point, which UTF-8 cannot encode"
    )
    for declared in (7, {"a": True}, ["a", 5]):
        with pytest.raises(RolloutFormatError, match="^'declared_props' must be a list of strings$"):
            RolloutRecord("r", "t", "p", True, [["a"]], declared_props=declared)


def test_a_non_string_name_raises_each_entry_points_own_error():
    assert not is_valid_proposition(5)
    with pytest.raises(ValueError, match="^invalid proposition name: 5$"):
        Prop(5)
    with pytest.raises(ValueError, match="^invalid proposition name: 5$"):
        Dfa((5,), 0, [0], [[0, 0]])
    with pytest.raises(BindingError, match="slot 'Collision' bound to invalid proposition 5$"):
        instantiate("phi1", {"Collision": 5, "BadContact": "b"})
    with pytest.raises(RolloutFormatError, match="^step 1: invalid proposition 5$"):
        RolloutRecord("r", "t", "p", True, [["a"], ["a", 5]])


def test_a_string_step_is_an_invalid_trace_not_its_characters():
    with pytest.raises(RolloutFormatError, match="^invalid trace: step 0 is the string 'grasped'"):
        RolloutRecord("r", "t", "p", True, ["grasped"])
    with pytest.raises(RolloutFormatError, match="step 0: expected a list or mapping, got str"):
        load_rollout(dict(BASE_DOC, trace=["grasped"]))


def test_a_mapping_step_is_an_invalid_trace_not_its_keys():
    # The wire format reads the dense step {"a": false} as `a` false; read as
    # its keys it would make `a` true, so the constructor refuses it.
    with pytest.raises(RolloutFormatError, match=r"^invalid trace: step 0 is the mapping \{'a': False\}"):
        RolloutRecord("r", "t", "p", True, [{"a": False}])
    assert load_rollout(dict(BASE_DOC, trace=[{"a": False}])).valuations == (frozenset(),)


def test_a_repeated_key_is_an_error_not_last_wins():
    text = json.dumps(BASE_DOC)
    trace = json.dumps(BASE_DOC["trace"])
    cases = {
        "success": text.replace('"success": true', '"success": true, "success": false'),
        "props": text.replace(trace, '[{"t": 0, "props": ["a"], "props": []}]'),
        "a": text.replace(trace, '[{"a": true, "a": false}]'),
    }
    for key, repeated in cases.items():
        assert repeated != text
        with pytest.raises(RolloutFormatError, match=f"^invalid JSON: duplicate key '{key}'$"):
            load_rollout(repeated)


def test_serialize_round_trip_fuzzed():
    rng = random.Random(404)
    props = ["alpha", "beta", "gamma", "delta"]
    for i in range(60):
        steps = [
            frozenset(p for p in props if rng.random() < 0.4)
            for _ in range(rng.randint(1, 15))
        ]
        record = RolloutRecord(
            rollout_id=f"fz{i}",
            task_name="task",
            policy="p",
            success=rng.random() < 0.5,
            trace=Trace(steps),
            declared_props=tuple(sorted(props)) if rng.random() < 0.5 else None,
        )
        assert load_rollout(serialize_rollout(record)) == record


def test_serialize_is_deterministic():
    record = load_rollout(json.dumps(BASE_DOC))
    assert serialize_rollout(record) == serialize_rollout(record)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_flags_bound_but_never_observed():
    spec = scenario_task_spec("clean_pick_place")
    record = generate_scenario(ScenarioParams("clean_pick_place", 12, 0))
    # Remove all settled_mug occurrences.
    steps = [set(s) - {"settled_mug"} for s in record.trace]
    broken = RolloutRecord(
        record.rollout_id, record.task_name, record.policy, record.success, Trace(steps)
    )
    codes = [d.code for d in validate_rollout(broken, spec)]
    assert "bound_never_true" in codes


def test_validate_consistent_pair_mostly_silent():
    spec = scenario_task_spec("grasp_drop")
    record = generate_scenario(ScenarioParams("grasp_drop", 12, 1))
    diagnostics = validate_rollout(record, spec)
    # grasp_drop never releases, and carries a noise prop; both are reported
    # as informational, task name matches.
    assert all(d.code != "task_mismatch" for d in diagnostics)


def test_validate_task_mismatch():
    spec = scenario_task_spec("grasp_drop")
    record = generate_scenario(ScenarioParams("clean_pick_place", 12, 0))
    codes = [d.code for d in validate_rollout(record, spec)]
    assert codes.count("task_mismatch") == 1


def test_validate_never_mutates():
    spec = scenario_task_spec("clean_pick_place")
    record = generate_scenario(ScenarioParams("clean_pick_place", 12, 3))
    before = serialize_rollout(record)
    validate_rollout(record, spec)
    assert serialize_rollout(record) == before


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def test_scenario_catalog_contents():
    assert set(SCENARIOS) == {
        "clean_pick_place",
        "grasp_drop",
        "release_unsettled",
        "contamination_then_clean_contact",
        "contamination_sanitized",
        "onset_unsafe",
        "mechanism_hit_recover",
        "mechanism_hit_no_recover",
        "transfer_spill",
        "transfer_contained",
        "enclosure_double_insert",
        "reach_half_open",
        "release_outside_enclosure",
        "random_walk",
    }
    assert len(DETERMINISTIC_SCENARIOS) == 13


def test_every_category_is_covered_by_the_catalog():
    covered = set()
    for info in SCENARIOS.values():
        covered.update(info.categories)
    assert len(covered) == 8


def test_unknown_scenario():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        generate_scenario(ScenarioParams("teleport", 10, 0))


def test_too_short_length():
    with pytest.raises(ScenarioError, match="too short"):
        generate_scenario(ScenarioParams("clean_pick_place", 3, 0))


@pytest.mark.parametrize("flip_rate", [-0.01, 1.5, float("nan"), float("inf")])
def test_flip_rate_outside_unit_interval(flip_rate):
    with pytest.raises(ScenarioError, match=r"flip rate .* outside \[0, 1\]"):
        generate_scenario(ScenarioParams("random_walk", 20, 0, flip_rate=flip_rate))


def test_flip_rate_bounds_are_allowed():
    for flip_rate in (0, 0.0, 1, 1.0):
        generate_scenario(ScenarioParams("random_walk", 20, 0, flip_rate=flip_rate))


def test_generator_determinism_bytes():
    a = generate_scenario(ScenarioParams("grasp_drop", 10, 7))
    b = generate_scenario(ScenarioParams("grasp_drop", 10, 7))
    assert serialize_rollout(a) == serialize_rollout(b)
    c = generate_scenario(ScenarioParams("grasp_drop", 10, 8))
    assert serialize_rollout(a) != serialize_rollout(c)


def test_grasp_drop_violates_phi2():
    spec = scenario_task_spec("grasp_drop")
    record = generate_scenario(ScenarioParams("grasp_drop", 10, 7))
    result = run_trace(spec.instances[0].dfa, record.trace)
    assert result.violated


def test_clean_pick_place_satisfies_all_three_instances():
    spec = scenario_task_spec("clean_pick_place")
    assert [inst.instance_id for inst in spec.instances] == ["phi1", "phi2", "phi3"]
    record = generate_scenario(ScenarioParams("clean_pick_place", 10, 3))
    for inst in spec.instances:
        result = run_trace(inst.dfa, record.trace)
        assert result.final_satisfied and not result.violated, inst.instance_id


def test_generator_soundness_hundred_seed_sweep():
    # Documented outcome must hold for every seed and several lengths.
    for sid in DETERMINISTIC_SCENARIOS:
        info = SCENARIOS[sid]
        spec = scenario_task_spec(sid)
        for length in (info.min_length, info.default_length, info.default_length + 5):
            for seed in range(100 if length == info.default_length else 10):
                record = generate_scenario(ScenarioParams(sid, length, seed))
                evaluation = evaluate_rollout(record, spec)
                assert evaluation.unsafe == info.violates, (sid, seed, length)
                assert record.success == info.success
                if info.violates:
                    target = evaluation.per_instance[info.target_template]
                    assert target.violation_kind == info.violation_kind, (sid, seed, length)


def test_closed_world_stability():
    # Declaring an always-false proposition changes no verdict.
    spec = scenario_task_spec("grasp_drop")
    record = generate_scenario(ScenarioParams("grasp_drop", 12, 5))
    widened = RolloutRecord(
        record.rollout_id,
        record.task_name,
        record.policy,
        record.success,
        record.trace,
        declared_props=tuple(sorted(set(record.declared_props) | {"phantom_prop"})),
    )
    a = evaluate_rollout(record, spec)
    b = evaluate_rollout(widened, spec)
    assert {k: v.verdict_codes for k, v in a.per_instance.items()} == {
        k: v.verdict_codes for k, v in b.per_instance.items()
    }


def test_corpus_composition_has_two_hundred_known_rollouts():
    triples = corpus_composition()
    assert len(triples) == 200
    scenario_ids = {sid for sid, _, _ in triples}
    assert scenario_ids == set(DETERMINISTIC_SCENARIOS)
    assert len({(sid, seed) for sid, seed, _ in triples}) == 200
    for sid, seed, length in triples:
        assert length >= SCENARIOS[sid].min_length
