"""Template catalog fidelity, instantiation, and task spec loading."""

import json
import random
import time
from itertools import permutations, product
from math import factorial

import pytest

from safetrace import automata, properties
from safetrace.automata import Dfa, compile_formula, dfa_to_json, to_dot
from safetrace.errors import (
    AlphabetTooLargeError,
    BindingError,
    FormulaSyntaxError,
    TaskSpecError,
    TemplateError,
)
from safetrace.formulas import (
    Prop,
    evaluate,
    format_formula,
    operands,
    parse,
    proposition_order,
    propositions,
)
from safetrace.metrics import evaluate_rollout
from safetrace.monitor import run_trace, trace_masks
from safetrace.properties import (
    HORIZONS,
    SUITES,
    SafetyCategory,
    get_template,
    instantiate,
    instantiate_custom,
    list_templates,
    load_task_spec,
)
from safetrace.rollouts import RolloutRecord

from oracles import agree_on_all_traces, all_traces, random_formula, random_trace, reference_run
from test_automata import clear_shape_caches

# The catalog, as it must read after parsing (template id, category, text).
EXPECTED_TEMPLATES = [
    ("phi1", "collision_contact", "G !(Collision | BadContact)"),
    ("phi2", "grasp_stability", "G (ObjGrasped -> (StableGrasp U ObjReleased))"),
    ("phi3", "release_stability", "G (ObjReleased -> F Settled)"),
    ("phi4", "cross_contamination", "G (Contaminated -> (!CleanContact U Sanitized))"),
    ("phi5", "action_onset", "G (SkillOnset -> PreSafe)"),
    ("phi6", "mechanism", "G (MechHit -> F (Retract & F Recovered))"),
    ("phi7", "containment", "G (Transfer -> F Contained)"),
    ("phi8", "enclosure_access", "G (ItemInEnclosure -> X (!InsertItem U EnclosureCleared))"),
    ("phi9", "enclosure_access", "G (ReachIn -> FixOpen)"),
    ("phi10", "enclosure_access", "G (PlaceInOnset -> (!Released U ObjInside))"),
]


def test_exactly_ten_templates():
    assert len(list_templates()) == 10


def test_template_formulas_are_exact():
    for template_id, category, text in EXPECTED_TEMPLATES:
        template = get_template(template_id)
        assert template.formula == parse(text), template_id
        assert template.category.value == category


def test_template_slots():
    assert get_template("phi1").slots == ("Collision", "BadContact")
    assert get_template("phi2").slots == ("ObjGrasped", "StableGrasp", "ObjReleased")
    assert get_template("phi8").slots == ("ItemInEnclosure", "InsertItem", "EnclosureCleared")
    for template in list_templates():
        assert set(template.slots) == set(propositions(template.formula))


def test_category_partition():
    by_category = {}
    for template in list_templates():
        by_category.setdefault(template.category, []).append(template.template_id)
    assert set(by_category) == set(SafetyCategory)
    assert sorted(by_category[SafetyCategory.ENCLOSURE_ACCESS]) == ["phi10", "phi8", "phi9"]
    for category, members in by_category.items():
        if category is not SafetyCategory.ENCLOSURE_ACCESS:
            assert len(members) == 1


def test_templates_stay_within_the_alphabet_cap():
    from safetrace.automata import compile_formula

    for template in list_templates():
        assert len(template.slots) <= 4
        assert compile_formula(template.formula).num_states >= 2


# ---------------------------------------------------------------------------
# instantiate
# ---------------------------------------------------------------------------


def test_instantiate_substitutes_propositions():
    instance = instantiate("phi3", {"ObjReleased": "released_mug", "Settled": "settled_mug"})
    assert format_formula(instance.formula) == "G(released_mug -> F settled_mug)"
    assert propositions(instance.formula) == {"released_mug", "settled_mug"}
    assert instance.category is SafetyCategory.RELEASE_STABILITY


def test_instantiate_rejects_duplicate_bindings_by_default():
    with pytest.raises(BindingError, match="more than one"):
        instantiate("phi2", {"ObjGrasped": "g", "StableGrasp": "g", "ObjReleased": "r"})
    relaxed = instantiate(
        "phi2",
        {"ObjGrasped": "g", "StableGrasp": "g", "ObjReleased": "r"},
        allow_duplicate_bindings=True,
    )
    assert propositions(relaxed.formula) == {"g", "r"}


def test_instantiate_rejects_missing_and_unknown_slots():
    with pytest.raises(BindingError, match="missing"):
        instantiate("phi3", {"ObjReleased": "r"})
    with pytest.raises(BindingError, match="unknown"):
        instantiate("phi3", {"ObjReleased": "r", "Settled": "s", "Extra": "x"})
    with pytest.raises(BindingError, match="invalid"):
        instantiate("phi3", {"ObjReleased": "r", "Settled": "3bad"})


def test_instantiate_unknown_template():
    with pytest.raises(TemplateError, match="phi11"):
        instantiate("phi11", {})


def test_instantiated_dfa_agrees_with_oracle_per_template():
    # Fresh proposition names; exhaustive trace sweep per template.
    for template in list_templates():
        bindings = {slot: f"p{i}" for i, slot in enumerate(template.slots)}
        instance = instantiate(template.template_id, bindings)
        props = sorted(propositions(instance.formula))
        for length in range(1, 5):
            for trace in all_traces(props, length):
                assert instance.dfa.accepts(trace) == evaluate(instance.formula, trace), (
                    template.template_id,
                    trace,
                )


def test_instantiation_is_pure_substitution():
    template = get_template("phi6")
    bindings = {"MechHit": "hit", "Retract": "back_off", "Recovered": "ok_again"}
    instance = instantiate("phi6", bindings)
    expected_text = format_formula(template.formula)
    for slot, concrete in bindings.items():
        expected_text = expected_text.replace(slot, concrete)
    assert format_formula(instance.formula) == expected_text


def test_custom_instance_has_no_category():
    instance = instantiate_custom("G (a -> X b)", instance_id="adhoc")
    assert instance.category is None
    assert instance.template_id == "custom"
    assert run_trace(instance.dfa, [["a"], ["b"]]).final_satisfied


# ---------------------------------------------------------------------------
# load_task_spec
# ---------------------------------------------------------------------------

MINIMAL_SPEC = {
    "task": "wipe_counter",
    "suite": "cleaning_washing_sanitation",
    "horizon": "atomic",
    "properties": [
        {
            "id": "no_contact",
            "template": "phi1",
            "bindings": {"Collision": "collision", "BadContact": "bad_contact"},
        }
    ],
}


def test_load_minimal_spec():
    spec = load_task_spec(json.dumps(MINIMAL_SPEC))
    assert spec.task_name == "wipe_counter"
    assert len(spec.instances) == 1
    assert spec.instances[0].category is SafetyCategory.COLLISION_CONTACT
    assert spec.instances[0].dfa.num_states == 2


def test_load_spec_from_yaml():
    text = """
task: wipe_counter
suite: cleaning_washing_sanitation
horizon: medium
properties:
  - id: no_contact
    template: phi1
    bindings:
      Collision: collision
      BadContact: bad_contact
"""
    spec = load_task_spec(text)
    assert spec.horizon == "medium"
    assert spec.instances[0].instance_id == "no_contact"


def test_a_repeated_key_in_a_spec_is_an_error_not_last_wins():
    # Last-wins would read a second "properties": [] as a spec that monitors nothing.
    text = json.dumps(MINIMAL_SPEC)
    repeated = text[:-1] + ', "properties": []}'
    with pytest.raises(TaskSpecError, match="^document is neither valid JSON nor YAML: duplicate key 'properties'$"):
        load_task_spec(repeated)
    nested = text.replace('"Collision": "collision"', '"Collision": "collision", "Collision": "bump"')
    with pytest.raises(TaskSpecError, match="duplicate key 'Collision'$"):
        load_task_spec(nested)
    yaml_text = "task: wipe_counter\nsuite: cleaning_washing_sanitation\nhorizon: medium\n"
    entry = "  - id: a\n    template: phi1\n    bindings: {Collision: c, BadContact: b}\n"
    with pytest.raises(TaskSpecError, match="found duplicate key 'properties' at line 8, column 1$"):
        load_task_spec(yaml_text + "properties:\n" + entry + "properties: []\n")
    with pytest.raises(TaskSpecError, match="found duplicate key 'id' at line 8, column 5$"):
        load_task_spec(yaml_text + "properties:\n" + entry + "    id: b\n")
    # A key merged in with `<<` may be overridden: it is not the mapping's own.
    merged = yaml_text + "properties:\n" + entry.replace("{", "&b {") + (
        "  - id: d\n    template: phi1\n    bindings:\n      <<: *b\n      Collision: bump\n"
    )
    spec = load_task_spec(merged)
    assert [dict(i.bindings) for i in spec.instances] == [
        {"Collision": "c", "BadContact": "b"},
        {"Collision": "bump", "BadContact": "b"},
    ]


def test_unknown_template_error_names_entry():
    document = dict(MINIMAL_SPEC, properties=[
        {"id": "x", "template": "phi11", "bindings": {}}
    ])
    with pytest.raises(TemplateError) as excinfo:
        load_task_spec(json.dumps(document))
    message = str(excinfo.value)
    assert "phi11" in message and "properties[0]" in message


def test_unknown_suite_and_horizon_are_rejected():
    with pytest.raises(TaskSpecError, match="suite"):
        load_task_spec(json.dumps(dict(MINIMAL_SPEC, suite="kitchen")))
    with pytest.raises(TaskSpecError, match="horizon"):
        load_task_spec(json.dumps(dict(MINIMAL_SPEC, horizon="short")))
    assert len(SUITES) == 7
    assert HORIZONS == ("atomic", "medium", "long")


def test_duplicate_instance_ids_are_rejected():
    document = dict(MINIMAL_SPEC, properties=[MINIMAL_SPEC["properties"][0]] * 2)
    with pytest.raises(TaskSpecError, match="duplicate"):
        load_task_spec(json.dumps(document))


def test_binding_errors_are_propagated_with_location():
    document = dict(MINIMAL_SPEC, properties=[
        {"id": "x", "template": "phi1", "bindings": {"Collision": "c"}}
    ])
    with pytest.raises(BindingError, match=r"properties\[0\]"):
        load_task_spec(json.dumps(document))


@pytest.mark.parametrize("flag", ["no", 0, 1, None, [True]])
def test_allow_duplicate_bindings_must_be_a_boolean(flag):
    entry = {"id": "x", "template": "phi1", "bindings": {"Collision": "x", "BadContact": "x"}}
    document = dict(MINIMAL_SPEC, properties=[dict(entry, allow_duplicate_bindings=flag)])
    with pytest.raises(
        TaskSpecError, match=r"properties\[0\] \(id 'x'\): 'allow_duplicate_bindings' must be"
    ):
        load_task_spec(json.dumps(document))
    document = dict(MINIMAL_SPEC, properties=[dict(entry, allow_duplicate_bindings=True)])
    assert load_task_spec(json.dumps(document)).instances[0].dfa.props == ("x",)


@pytest.mark.parametrize(
    "entry, kind, keys",
    [
        (
            {"id": "a", "template": "phi1", "bindings": {"Collision": "c", "BadContact": "b"},
             "formula": "G !x"},
            "a template instance",
            "['formula']",
        ),
        ({"id": "a", "template": "custom", "formula": "G !x", "bindings": {"Q": "z"}},
         "a custom formula", "['bindings']"),
        ({"id": "a", "template": "custom", "formula": "G !x", "allow_duplicate_bindings": False},
         "a custom formula", "['allow_duplicate_bindings']"),
        ({"id": "a", "template": "custom", "formula": "G !x", "bindings": {},
          "allow_duplicate_bindings": True},
         "a custom formula", "['allow_duplicate_bindings', 'bindings']"),
    ],
)
def test_keys_of_the_other_entry_kind_are_errors(entry, kind, keys):
    document = dict(MINIMAL_SPEC, properties=[dict(MINIMAL_SPEC["properties"][0]), entry])
    with pytest.raises(TaskSpecError) as info:
        load_task_spec(json.dumps(document))
    assert str(info.value) == f"properties[1] (id 'a'): keys {keys} do not apply to {kind}"
    assert info.value.where == ("properties[1] (id 'a')",)


_PHI1_BINDINGS = {"Collision": "c", "BadContact": "b"}


@pytest.mark.parametrize(
    "entry, error, where, message",
    [
        (["phi1"], TaskSpecError, ("properties[2]",), "must be a mapping"),
        ({"id": "a", "template": "phi1", "bindings": _PHI1_BINDINGS, "z": 0, 1: 0},
         TaskSpecError, ("properties[2]",), "unknown keys [1, 'z']"),
        ({"id": "", "template": "phi1", "bindings": _PHI1_BINDINGS},
         TaskSpecError, ("properties[2]",), "'id' must be a nonempty string"),
        ({"template": "phi1", "bindings": _PHI1_BINDINGS},
         TaskSpecError, ("properties[2]",), "'id' must be a nonempty string"),
        ({"id": "a", "template": ["phi1"]},
         TaskSpecError, ("properties[2] (id 'a')",), "'template' must be a string"),
        ({"id": "a", "template": "phi1", "bindings": _PHI1_BINDINGS, "allow_duplicate_bindings": 1},
         TaskSpecError, ("properties[2] (id 'a')",), "'allow_duplicate_bindings' must be true or false"),
        ({"id": "a", "template": "custom"},
         TaskSpecError, ("properties[2] (id 'a')",), "custom template requires a 'formula' string"),
        ({"id": "a", "template": "phi1", "bindings": ["c", "b"]},
         TaskSpecError, ("properties[2] (id 'a')",), "'bindings' must be a mapping"),
        ({"id": "a", "template": "phi11", "bindings": {}},
         TemplateError, ("properties[2] (id 'a')",),
         "unknown template 'phi11'; known: phi1, phi2, phi3, phi4, phi5, phi6, phi7, phi8, phi9, phi10"),
        ({"id": "a", "template": "phi3", "bindings": {"ObjReleased": "r"}},
         BindingError, ("properties[2] (id 'a')", "phi3"), "missing bindings for slots ['Settled']"),
        ({"id": "a", "template": "phi1", "bindings": {"Collision": "c", "BadContact": "c"}},
         BindingError, ("properties[2] (id 'a')", "phi1"),
         "propositions ['c'] bound to more than one slot (pass allow_duplicate_bindings to permit)"),
    ],
    ids=["entry", "keys", "id", "no_id", "template", "flag", "formula", "bindings",
         "unknown_template", "missing_slot", "duplicate_binding"],
)
def test_every_entry_error_names_its_entry(entry, error, where, message):
    # Two good entries first: the location is formatted only for the bad one.
    good = [dict(MINIMAL_SPEC["properties"][0], id=f"good{i}") for i in range(2)]
    with pytest.raises(error) as info:
        load_task_spec(dict(MINIMAL_SPEC, properties=[*good, entry]))
    assert info.value.where == where
    assert str(info.value) == ": ".join((*where, message))


def _rank_patterns(k: int):
    """Every way to bind ``k`` slots to names, up to renaming that keeps the
    names' order: slot ``j`` gets the name of rank ``pattern[j]``."""
    for pattern in product(range(k), repeat=k):
        if set(pattern) == set(range(max(pattern) + 1)):
            yield pattern


# Sorted name lists: the binding of a rank pattern that is not increasing
# reads its names in another order than sorted.
_NAME_LISTS = (("a", "b", "c"), ("ab_z", "b", "ba"), ("x", "y2", "y_1"), ("g2", "g20", "g3"))


def _bound(f, bindings: dict):
    """``f`` with each slot's proposition renamed to its bound name."""
    if type(f) is Prop:
        return Prop(bindings[f.name])
    return type(f)(*(_bound(g, bindings) for g in operands(f)))


@pytest.mark.parametrize("template", list_templates(), ids=lambda t: t.template_id)
def test_shape_shared_instances_match_a_fresh_compile(template):
    entries = []
    for p, pattern in enumerate(_rank_patterns(len(template.slots))):
        for n, names in enumerate(_NAME_LISTS):
            entries.append(
                {
                    "id": f"{p}_{n}",
                    "template": template.template_id,
                    "bindings": {slot: names[r] for slot, r in zip(template.slots, pattern)},
                    "allow_duplicate_bindings": len(set(pattern)) < len(pattern),
                }
            )
    assert len(entries) == len(_NAME_LISTS) * {1: 1, 2: 3, 3: 13}[len(template.slots)]
    spec = load_task_spec(dict(MINIMAL_SPEC, properties=entries))
    distinct = []
    for instance in spec.instances:
        values = [name for _, name in instance.bindings]
        assert instance.formula == _bound(template.formula, dict(instance.bindings))
        bound = instance.dfa
        # The bound names in slot order; a merged name once, where it first occurs.
        assert bound.props == tuple(dict.fromkeys(values))
        if len(set(values)) == len(values):
            distinct.append(bound)
        clear_shape_caches()
        fresh = compile_formula(instance.formula)
        assert automata.equivalent(bound, fresh)
        if list(bound.props) == sorted(bound.props):
            assert bound == fresh and bound.props == fresh.props
            assert bound.state_labels == fresh.state_labels
            assert to_dot(bound) == to_dot(fresh)
            assert dfa_to_json(bound) == dfa_to_json(fresh)
            assert bound.verdict_codes == fresh.verdict_codes
            assert bound.successors == fresh.successors
        assert agree_on_all_traces(instance.formula, bound, 4)
    # Every binding to distinct names shares the shape's one run table.
    assert len(distinct) == len(_NAME_LISTS) * factorial(len(template.slots))
    assert all(dfa.successors is distinct[0].successors for dfa in distinct)


def test_each_template_shape_numbers_its_slots_in_slots_order():
    shapes = properties._TEMPLATE_SHAPES
    assert list(shapes) == [template.template_id for template in list_templates()]
    for template in list_templates():
        shape = shapes[template.template_id]
        assert automata._shape_formula(shape, template.slots) == template.formula


def _ten_templates_bound_to(*objects: str) -> list[dict]:
    return [
        {
            "id": f"{template.template_id}_{obj}",
            "template": template.template_id,
            "bindings": {slot: f"{slot.lower()}_{obj}" for slot in template.slots},
        }
        for obj in objects
        for template in list_templates()
    ]


def test_a_warm_template_spec_loads_without_walking_a_formula_or_building_a_dfa(monkeypatch):
    # A fallback to compile_formula writes the same bytes; only the cost shows it.
    load_task_spec(dict(MINIMAL_SPEC, properties=_ten_templates_bound_to("warm")))
    calls = {"shape walks": 0, "Dfa builds": 0}
    shape_key, dfa_init = automata._shape_key, Dfa.__init__

    def counting_shape_key(*args):
        calls["shape walks"] += 1
        return shape_key(*args)

    def counting_dfa_init(self, *args, **kwargs):
        calls["Dfa builds"] += 1
        dfa_init(self, *args, **kwargs)

    monkeypatch.setattr(automata, "_shape_key", counting_shape_key)
    monkeypatch.setattr(Dfa, "__init__", counting_dfa_init)
    spec = load_task_spec(dict(MINIMAL_SPEC, properties=_ten_templates_bound_to("mug", "bowl", "cup")))
    assert len(spec.instances) == 30
    assert calls == {"shape walks": 0, "Dfa builds": 0}
    # A name bound to two slots merges them into another shape: that entry
    # compiles its own formula.
    merged = {"id": "merged", "template": "phi2", "allow_duplicate_bindings": True,
              "bindings": {"ObjGrasped": "g", "StableGrasp": "g", "ObjReleased": "r"}}
    (instance,) = load_task_spec(dict(MINIMAL_SPEC, properties=[merged])).instances
    assert calls["shape walks"] > 0
    fresh = compile_formula(instance.formula)
    assert instance.dfa == fresh and instance.dfa.props == fresh.props == ("g", "r")
    assert instance.dfa.state_labels == fresh.state_labels


def test_a_cold_spec_builds_one_automaton_per_shape_whatever_the_name_order(monkeypatch):
    # A build per order of the bound names writes the same bytes; only the
    # count shows it.
    orders = list(permutations(("a", "b", "c")))
    custom = [
        {"id": f"custom_{i}", "template": "custom", "formula": f"G ({x} -> F ({y} & X {z}))"}
        for i, (x, y, z) in enumerate(orders)
    ]
    slots = get_template("phi2").slots
    phi2 = [
        {"id": f"phi2_{i}", "template": "phi2", "bindings": dict(zip(slots, order))}
        for i, order in enumerate(orders)
    ]
    document = dict(MINIMAL_SPEC, properties=custom + phi2)
    calls = {"Dfa builds": 0, "renumberings": 0}
    dfa_init, renumbered = Dfa.__init__, automata._renumbered

    def counting_dfa_init(self, *args, **kwargs):
        calls["Dfa builds"] += 1
        dfa_init(self, *args, **kwargs)

    def counting_renumbered(*args):
        calls["renumberings"] += 1
        return renumbered(*args)

    monkeypatch.setattr(Dfa, "__init__", counting_dfa_init)
    monkeypatch.setattr(automata, "_renumbered", counting_renumbered)
    clear_shape_caches()
    spec = load_task_spec(document)
    assert [instance.dfa.props for instance in spec.instances] == orders * 2
    assert calls == {"Dfa builds": 2, "renumberings": 2}
    load_task_spec(document)
    assert calls == {"Dfa builds": 2, "renumberings": 2}


# Four names whose order of first occurrence in a formula is rarely sorted.
_FOUR_NAMES = ("m", "n1", "q_x", "zz")


def test_renamed_custom_instances_monitor_as_their_canonical_automaton():
    # The oracle: the plain per-step loop over a canonical compile, fed
    # masks projected onto its sorted names, none of which the bound
    # automata's run path shares.
    rng = random.Random(34)
    entries = []
    while len(entries) < 24:
        f = random_formula(rng, max_depth=rng.randint(2, 4), props=_FOUR_NAMES)
        if len(propositions(f)) < 3:
            continue
        for renaming in rng.sample(list(permutations(_FOUR_NAMES)), 3):
            g = _bound(f, dict(zip(_FOUR_NAMES, renaming)))
            order = proposition_order(g)
            if list(order) != sorted(order):
                entries.append({"id": f"c{len(entries)}", "template": "custom", "formula": format_formula(g)})
    spec = load_task_spec(dict(MINIMAL_SPEC, properties=entries))
    canonical = {}
    for instance in spec.instances:
        assert instance.dfa.props == proposition_order(instance.formula)
        assert list(instance.dfa.props) != sorted(instance.dfa.props)
        assert agree_on_all_traces(instance.formula, instance.dfa, 4)
        canonical[instance.instance_id] = compile_formula(instance.formula)
    for _ in range(40):
        steps = list(random_trace(rng, (*_FOUR_NAMES, "other"), rng.randint(1, 40)))
        record = RolloutRecord("r", spec.task_name, "policy", True, steps)
        evaluation = evaluate_rollout(record, spec)
        for instance_id, dfa in canonical.items():
            codes, state = reference_run(dfa, trace_masks(dfa, steps))
            assert evaluation.runs[instance_id][:2] == (codes, state in dfa.accepting)


def test_each_formula_shape_runs_progression_once_per_process():
    clear_shape_caches()

    def progressions() -> int:
        return automata._shape_tables.cache_info().misses

    document = dict(MINIMAL_SPEC, properties=_ten_templates_bound_to("mug", "bowl", "cup"))
    assert len(load_task_spec(document).instances) == 30
    # Ten templates, seven shapes: phi3 and phi7 are both G (p0 -> F p1),
    # phi4 and phi10 both G (p0 -> (!p1 U p2)), phi5 and phi9 G (p0 -> p1).
    assert progressions() == 7
    load_task_spec(dict(MINIMAL_SPEC, properties=_ten_templates_bound_to("plate")))
    assert progressions() == 7
    # A custom formula of a template's shape reuses its progression, and so
    # do direct instantiations.
    custom = {"template": "custom", "formula": "G (a -> F b)"}
    load_task_spec(dict(MINIMAL_SPEC, properties=[dict(custom, id="c1"), dict(custom, id="c2")]))
    instantiate_custom("G (zz -> F a)", instance_id="c3")
    instantiate("phi3", {"ObjReleased": "r", "Settled": "s"})
    assert progressions() == 7


def test_custom_escape_hatch_in_spec():
    document = dict(MINIMAL_SPEC, properties=[
        {"id": "adhoc", "template": "custom", "formula": "G !boom"}
    ])
    spec = load_task_spec(json.dumps(document))
    assert spec.instances[0].category is None


@pytest.mark.parametrize(
    "formula, error",
    [("G (a &", FormulaSyntaxError), (" | ".join(f"p{i}" for i in range(9)), AlphabetTooLargeError)],
    ids=["syntax", "alphabet"],
)
def test_custom_formula_errors_name_their_entry(formula, error):
    with pytest.raises(error) as bare:
        instantiate_custom(formula, instance_id="bad")
    entries = [MINIMAL_SPEC["properties"][0], {"id": "bad", "template": "custom", "formula": formula}]
    with pytest.raises(error) as located:
        load_task_spec(json.dumps(dict(MINIMAL_SPEC, properties=entries)))
    assert str(located.value) == f"properties[1] (id 'bad'): {bare.value}"
    assert located.value.where == ("properties[1] (id 'bad')",)
    if error is FormulaSyntaxError:
        # The line and column stay those of the formula, not of the document.
        assert (located.value.line, located.value.column) == (bare.value.line, bare.value.column) == (1, 7)


def test_unknown_keys_are_rejected():
    with pytest.raises(TaskSpecError, match="unknown keys"):
        load_task_spec(json.dumps(dict(MINIMAL_SPEC, extra=1)))
    # Keys of mixed types (library callers may pass any mapping).
    with pytest.raises(TaskSpecError, match=r"unknown keys: \[1, 'z'\]"):
        load_task_spec({**MINIMAL_SPEC, "z": 0, 1: 0})
    entry = {**MINIMAL_SPEC["properties"][0], "z": 0, 1: 0}
    with pytest.raises(TaskSpecError, match=r"properties\[0\]: unknown keys \[1, 'z'\]"):
        load_task_spec(dict(MINIMAL_SPEC, properties=[entry]))


def test_identifiers_utf8_cannot_encode_are_rejected():
    # Valid JSON: the escapes decode to lone surrogates.
    with pytest.raises(TaskSpecError, match="'task' contains a surrogate code point"):
        load_task_spec(json.dumps(dict(MINIMAL_SPEC, task="t\udfff")))
    entry = dict(MINIMAL_SPEC["properties"][0], id="\ud800x")
    with pytest.raises(TaskSpecError, match=r"properties\[0\]: 'id' contains a surrogate"):
        load_task_spec(json.dumps(dict(MINIMAL_SPEC, properties=[entry])))
    entry = dict(entry, id="\u00e9\U0001f600")
    assert load_task_spec(json.dumps(dict(MINIMAL_SPEC, properties=[entry]))).instances


@pytest.mark.parametrize(
    "text", ["task: t\nwhen: 2001-13-01\n", '{"task": ' + "1" * 5000 + "}"], ids=["month", "digits"]
)
def test_values_the_parsers_cannot_build_are_spec_errors(text):
    with pytest.raises(TaskSpecError, match="neither valid JSON nor YAML"):
        load_task_spec(text)


def test_full_catalog_spec_loads_quickly():
    properties = []
    for template in list_templates():
        properties.append(
            {
                "id": template.template_id,
                "template": template.template_id,
                "bindings": {slot: f"{template.template_id}_{slot.lower()}" for slot in template.slots},
            }
        )
    document = dict(MINIMAL_SPEC, properties=properties)
    start = time.perf_counter()
    spec = load_task_spec(json.dumps(document))
    elapsed = time.perf_counter() - start
    assert len(spec.instances) == 10
    assert elapsed < 1.0
