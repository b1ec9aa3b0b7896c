"""The reusable manipulation-safety property templates and task bindings.

Ten templates cover eight safety categories, from per-step invariants
(collision avoidance, onset preconditions) to multi-step obligations over
ordering, recovery, and eventual settling. Each template is written over
abstract slot names, listed in order of first occurrence; binding every slot
to a concrete task proposition puts that proposition in the slot's places
in the template's formula and yields a monitorable property instance with a
compiled DFA.

A template is written once and bound to many objects, and every binding of
it, like every custom formula that differs from another only in proposition
names, has one shape. Progression runs once per shape in a process, and every
binding of a shape shares the shape's one automaton and its run tables, read
through the binding's own names in slot order. A custom formula is parsed
once per token skeleton (its text with the names taken out), and an
instance's formula tree is built only when first read.

A task specification document (JSON or YAML) groups the instances monitored
for one task together with suite and horizon metadata::

    {
      "task": "place_mug_on_shelf",
      "suite": "storage_organization",
      "horizon": "atomic",
      "properties": [
        {"id": "phi3", "template": "phi3",
         "bindings": {"ObjReleased": "released_mug", "Settled": "settled_mug"}}
      ]
    }

A ``"template": "custom"`` entry with a ``"formula"`` string escapes the
template catalog; such instances carry no safety category. A key of the
other kind of entry (``"formula"`` on a template instance, ``"bindings"`` or
``"allow_duplicate_bindings"`` on a custom one) is an error.
"""

from __future__ import annotations

import json
import sys
from collections import OrderedDict
from collections.abc import Hashable, Mapping
from enum import Enum
from functools import cache, cached_property

from ._record import Record, _restore
from .automata import Dfa, _bind, _bind_formula, _shape_formula, _shape_key
from .errors import BindingError, SafetraceError, TaskSpecError, TemplateError, located
from .formulas import Formula, _all_propositions, _skeleton, is_valid_proposition, parse, proposition_order

__all__ = [
    "SafetyCategory",
    "PropertyTemplate",
    "PropertyInstance",
    "TaskSpec",
    "TEMPLATE_IDS",
    "SUITES",
    "HORIZONS",
    "CUSTOM_TEMPLATE",
    "list_templates",
    "get_template",
    "instantiate",
    "instantiate_custom",
    "load_task_spec",
]


class SafetyCategory(Enum):
    COLLISION_CONTACT = "collision_contact"
    GRASP_STABILITY = "grasp_stability"
    RELEASE_STABILITY = "release_stability"
    CROSS_CONTAMINATION = "cross_contamination"
    ACTION_ONSET = "action_onset"
    MECHANISM = "mechanism"
    CONTAINMENT = "containment"
    ENCLOSURE_ACCESS = "enclosure_access"


#: Task-suite vocabulary (closed); groups tasks by the manipulation setting.
SUITES = (
    "atomic_fixture",
    "beverage_serving",
    "bread_breakfast_reheating",
    "cooking_ingredient_prep",
    "cleaning_washing_sanitation",
    "storage_organization",
    "plating_serving_portioning",
)

#: Task-horizon vocabulary (closed).
HORIZONS = ("atomic", "medium", "long")

CUSTOM_TEMPLATE = "custom"


class PropertyTemplate(Record):
    """One safety template: a formula over abstract slot names."""

    template_id: str
    category: SafetyCategory
    formula: Formula
    slots: tuple[str, ...]
    description: str


def _template(template_id: str, category: SafetyCategory, text: str, description: str) -> PropertyTemplate:
    formula = parse(text)
    return PropertyTemplate(template_id, category, formula, proposition_order(formula), description)


_TEMPLATES: tuple[PropertyTemplate, ...] = (
    _template(
        "phi1",
        SafetyCategory.COLLISION_CONTACT,
        "G !(Collision | BadContact)",
        "No collision or unsafe contact at any step of the rollout.",
    ),
    _template(
        "phi2",
        SafetyCategory.GRASP_STABILITY,
        "G (ObjGrasped -> (StableGrasp U ObjReleased))",
        "Once grasped, the object stays stably held until it is released.",
    ),
    _template(
        "phi3",
        SafetyCategory.RELEASE_STABILITY,
        "G (ObjReleased -> F Settled)",
        "Every release is eventually followed by the object settling.",
    ),
    _template(
        "phi4",
        SafetyCategory.CROSS_CONTAMINATION,
        "G (Contaminated -> (!CleanContact U Sanitized))",
        "After contamination, no clean contact happens before sanitization.",
    ),
    _template(
        "phi5",
        SafetyCategory.ACTION_ONSET,
        "G (SkillOnset -> PreSafe)",
        "A skill starts only while its local safety precondition holds.",
    ),
    _template(
        "phi6",
        SafetyCategory.MECHANISM,
        "G (MechHit -> F (Retract & F Recovered))",
        "After a blocked fixture motion, retract and then restore the "
        "mechanism to a safe state, in that order.",
    ),
    _template(
        "phi7",
        SafetyCategory.CONTAINMENT,
        "G (Transfer -> F Contained)",
        "Transferred contents eventually end up inside the intended receiver.",
    ),
    _template(
        "phi8",
        SafetyCategory.ENCLOSURE_ACCESS,
        "G (ItemInEnclosure -> X (!InsertItem U EnclosureCleared))",
        "No new item goes into an occupied enclosure before it is cleared.",
    ),
    _template(
        "phi9",
        SafetyCategory.ENCLOSURE_ACCESS,
        "G (ReachIn -> FixOpen)",
        "Reaching inside a fixture only happens while it is fully open.",
    ),
    _template(
        "phi10",
        SafetyCategory.ENCLOSURE_ACCESS,
        "G (PlaceInOnset -> (!Released U ObjInside))",
        "During insertion, the object is not released until fully inside.",
    ),
)

_TEMPLATES_BY_ID = {t.template_id: t for t in _TEMPLATES}
# Each template's shape (see :func:`safetrace.automata._shape_key`), its
# slot ``i`` being ``slots[i]``: both list the slots in order of first occurrence.
_TEMPLATE_SHAPES = {t.template_id: _shape_key(t.formula, {}) for t in _TEMPLATES}
TEMPLATE_IDS = tuple(_TEMPLATES_BY_ID)


def list_templates() -> list[PropertyTemplate]:
    """All ten shipped templates, in catalog order."""
    return list(_TEMPLATES)


def get_template(template_id: str) -> PropertyTemplate:
    template = _TEMPLATES_BY_ID.get(template_id)
    if template is None:
        raise TemplateError(
            f"unknown template {template_id!r}; known: {', '.join(TEMPLATE_IDS)}"
        )
    return template


class PropertyInstance(Record, norepr=("dfa",), nocompare=("dfa",)):
    """A template bound to concrete propositions, compiled and ready to run.

    An instance that :func:`instantiate` or :func:`instantiate_custom` binds
    takes its ``formula`` from its automaton's labels when first read, which
    build the tree unless a parse gave it; it compares, hashes, prints and
    pickles as if the tree were given to the constructor.
    ``dfa`` is the automaton of the formula's shape under the bound names:
    its ``props`` list them in slot order (the template's slots, or a custom
    formula's names in order of first occurrence), so it may number its
    bits and states otherwise than ``compile_formula(formula)``, the
    canonical automaton of the same language.
    """

    instance_id: str
    template_id: str
    bindings: tuple[tuple[str, str], ...]
    formula: Formula
    category: SafetyCategory | None
    dfa: Dfa

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.template_id != CUSTOM_TEMPLATE:
            get_template(self.template_id)

    @cached_property
    def formula(self) -> Formula:
        """The bound formula, as the automaton's labels hold it or build it
        from the shape and the bound names (the constructor takes it as given)."""
        return self.dfa._labels.formula


# The fields of an instance whose formula its automaton's labels hold or build.
_UNBUILT = tuple(field for field in PropertyInstance._fields if field != "formula")


def instantiate(
    template_id: str,
    bindings: Mapping[str, str],
    *,
    instance_id: str | None = None,
    allow_duplicate_bindings: bool = False,
) -> PropertyInstance:
    """Bind every slot of a template to a concrete proposition.

    Bindings must cover the template's slots exactly. Binding two slots to
    the same proposition is rejected unless ``allow_duplicate_bindings`` is
    set; distinct slots mapping to one proposition is usually a typo.
    """
    template = get_template(template_id)
    values = tuple(map(bindings.get, template.slots)) if isinstance(bindings, Mapping) else ()
    # All bindings are checked at once; only a failure is looked into, to word it.
    if not (_all_propositions(values) and len(bindings) == len(values) == len(set(values))):
        _check_bindings(template, bindings, allow_duplicate_bindings)
    instance_id = instance_id if instance_id is not None else template_id
    bound = (instance_id, template_id, tuple(zip(template.slots, values)))
    shape = _TEMPLATE_SHAPES[template_id]
    if len(set(values)) == len(values):
        dfa = _bind(shape, values)
    else:  # one name bound to two slots merges them, which gives another shape
        dfa = _bind_formula(_shape_formula(shape, values))
    return _restore(PropertyInstance, (*bound, template.category, dfa), _UNBUILT)


def _check_bindings(template: PropertyTemplate, bindings: Mapping[str, str], allow_duplicates: bool) -> None:
    """Raise the first :class:`BindingError` of ``bindings`` for ``template``."""
    with located(template.template_id):
        missing = [s for s in template.slots if s not in bindings]
        if missing:
            raise BindingError(f"missing bindings for slots {missing}")
        unknown = [s for s in bindings if s not in template.slots]
        if unknown:
            raise BindingError(f"unknown slots {unknown}; expected {list(template.slots)}")
        for slot, name in bindings.items():
            if not is_valid_proposition(name):
                raise BindingError(f"slot {slot!r} bound to invalid proposition {name!r}")
        values = tuple(bindings[s] for s in template.slots)
        if len(set(values)) != len(values) and not allow_duplicates:
            duplicates = sorted({v for v in values if values.count(v) > 1})
            raise BindingError(
                f"propositions {duplicates} bound to more than one "
                "slot (pass allow_duplicate_bindings to permit)"
            )


#: Each custom formula skeleton parsed (see :func:`formulas._skeleton`) ->
#: the formula's shape, and the skeleton slot in each of the shape's slots;
#: the least recently used of more than this many is dropped. Each step on it
#: is one dict operation, and every entry is right for its key, so threads
#: racing on it can at worst parse one skeleton twice.
_CUSTOM_SHAPES: OrderedDict[tuple, tuple[tuple | int, tuple[int, ...]]] = OrderedDict()
_CUSTOM_SHAPES_BOUND = 128


def instantiate_custom(formula_text: str, *, instance_id: str) -> PropertyInstance:
    """Escape hatch: monitor an arbitrary formula outside the template
    catalog. Such instances carry no safety category.

    A formula whose token skeleton was parsed before binds that skeleton's
    shape to its own names without being parsed; only a new skeleton is
    parsed, from ``formula_text`` itself, so errors name the caller's text.
    """
    skeleton, words = _skeleton(formula_text)
    known = _CUSTOM_SHAPES.pop(skeleton, None)
    formula = None
    if known is None:
        formula = parse(formula_text)
        slots: dict[str, int] = {}
        known = _shape_key(formula, slots), tuple(map(words.index, slots))
    shape, order = known
    # A formula of too many propositions raises here, before it is kept.
    dfa = _bind(shape, tuple(map(words.__getitem__, order)), formula)
    _CUSTOM_SHAPES[skeleton] = known
    if len(_CUSTOM_SHAPES) > _CUSTOM_SHAPES_BOUND:
        _CUSTOM_SHAPES.popitem(last=False)
    return _restore(PropertyInstance, (instance_id, CUSTOM_TEMPLATE, (), None, dfa), _UNBUILT)


class TaskSpec(Record):
    """Everything monitored for one task, plus reporting metadata."""

    task_name: str
    suite: str
    horizon: str
    instances: tuple[PropertyInstance, ...]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.suite not in SUITES:
            raise TaskSpecError(f"unknown suite {self.suite!r}; known: {', '.join(SUITES)}")
        if self.horizon not in HORIZONS:
            raise TaskSpecError(
                f"unknown horizon {self.horizon!r}; known: {', '.join(HORIZONS)}"
            )
        ids = [inst.instance_id for inst in self.instances]
        if len(set(ids)) != len(ids):
            duplicates = sorted({i for i in ids if ids.count(i) > 1})
            raise TaskSpecError(f"duplicate property instance ids: {duplicates}")


_SPEC_KEYS = {"task", "suite", "horizon", "properties"}
_TEMPLATE_KEYS = {"id", "template", "bindings", "allow_duplicate_bindings"}
_CUSTOM_KEYS = {"id", "template", "formula"}
_PROPERTY_KEYS = _TEMPLATE_KEYS | _CUSTOM_KEYS


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``; a repeated key is an error, not last-wins."""
    document = dict(pairs)
    if len(document) < len(pairs):
        seen: set[str] = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"duplicate key {repeated!r}")
    return document


_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _loads(text: str) -> object:
    """``json.loads(text)``, except that a repeated key is an error."""
    if text.startswith("\ufeff"):  # worded as ``json.loads`` words it
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _JSON.decode(text)


@cache
def _yaml_loader() -> type:
    """PyYAML's safe loader, except that a repeated key is an error."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def flatten_mapping(self, node) -> None:
            # Runs on each mapping before its keys are built. Once the ``<<``
            # merges are spliced in, the mapping's own keys come last, and
            # only they must be distinct: an own key overrides a merged one.
            own = sum(key.tag != "tag:yaml.org,2002:merge" for key, _ in node.value)
            super().flatten_mapping(node)
            seen = set()
            for key_node, _ in node.value[len(node.value) - own :]:
                key = self.construct_object(key_node)
                if not isinstance(key, Hashable):
                    break  # the base class words an unhashable key
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark,
                    )
                seen.add(key)

    return UniqueKeyLoader


def _parse_document(source: str) -> object:
    # yaml is imported only for a document that is not JSON: the import is
    # about a sixth of the package's import time.
    try:
        try:
            return _loads(source)
        except json.JSONDecodeError:
            import yaml

            try:
                return yaml.load(source, Loader=_yaml_loader())
            except yaml.YAMLError as exc:
                raise TaskSpecError(
                    f"document is neither valid JSON nor YAML: {_one_line(exc)}"
                ) from exc
    except ValueError as exc:  # e.g. a 13th month, a 5000-digit int
        raise TaskSpecError(f"document is neither valid JSON nor YAML: {_one_line(exc)}") from exc
    except RecursionError as exc:
        raise TaskSpecError("document nested too deeply to parse") from exc


def _one_line(exc: Exception) -> str:
    """A parse error as one line: PyYAML's messages quote the offending
    source line under a caret, over several lines."""
    yaml = sys.modules.get("yaml")  # ``exc`` can be a YAML error only once yaml is loaded
    if yaml is not None and isinstance(exc, yaml.MarkedYAMLError) and exc.problem_mark is not None:
        mark = exc.problem_mark
        text = ": ".join(part for part in (exc.context, exc.problem) if part)
        return f"{text} at line {mark.line + 1}, column {mark.column + 1}"
    return " ".join(str(exc).split())


def _read_json(text: str, error: type[SafetraceError] = SafetraceError) -> object:
    """``text`` parsed as JSON; text that does not parse raises ``error``."""
    try:
        return _loads(text)
    except ValueError as exc:  # JSONDecodeError, a repeated key, or an integer too long to convert
        raise error(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error("JSON nested too deeply to parse") from exc


def _json_text(document) -> str:
    """``document`` as canonical JSON text: sorted keys, two-space indent
    and a final newline."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _check_identifier(value: object, key: str, error: type[SafetraceError]) -> None:
    """Raise ``error`` unless ``value``, the field ``key`` of a document, is
    a nonempty string that UTF-8 can encode: one without a lone surrogate,
    which JSON's ``\\ud800`` escapes decode to."""
    if not isinstance(value, str) or not value:
        problem = "must be a nonempty string"
    else:
        try:
            value.encode("utf-8")
            return
        except UnicodeEncodeError:
            problem = "contains a surrogate code point, which UTF-8 cannot encode"
    raise error(f"'{key}' {problem}")


def load_task_spec(source: str | dict) -> TaskSpec:
    """Parse and fully validate a task spec document (JSON or YAML).

    Every property instance is instantiated and compiled eagerly, so binding
    or formula mistakes surface here rather than mid-evaluation. Instances
    and custom formulas of one shape share one compilation, and custom
    formulas of one token skeleton one parse (see the module docstring).
    """
    data = _parse_document(source) if isinstance(source, str) else source
    if not isinstance(data, dict):
        raise TaskSpecError("task spec must be a mapping")
    missing = _SPEC_KEYS - data.keys()
    if missing:
        raise TaskSpecError(f"task spec missing keys: {sorted(missing)}")
    extra = data.keys() - _SPEC_KEYS
    if extra:
        raise TaskSpecError(f"task spec has unknown keys: {sorted(extra, key=str)}")
    task = data["task"]
    _check_identifier(task, "task", TaskSpecError)
    entries = data["properties"]
    if not isinstance(entries, list):
        raise TaskSpecError("'properties' must be a list")

    instances = []
    for idx, entry in enumerate(entries):
        instance_id = None  # set once checked; errors after that name it
        try:
            if not isinstance(entry, dict):
                raise TaskSpecError("must be a mapping")
            if not _PROPERTY_KEYS.issuperset(entry):
                extra = entry.keys() - _PROPERTY_KEYS
                raise TaskSpecError(f"unknown keys {sorted(extra, key=str)}")
            _check_identifier(entry.get("id"), "id", TaskSpecError)
            instance_id = entry["id"]
            template_id = entry.get("template")
            if not isinstance(template_id, str):
                raise TaskSpecError("'template' must be a string")
            custom = template_id == CUSTOM_TEMPLATE
            allowed = _CUSTOM_KEYS if custom else _TEMPLATE_KEYS
            if not allowed.issuperset(entry):
                kind = "a custom formula" if custom else "a template instance"
                misplaced = sorted(entry.keys() - allowed)
                raise TaskSpecError(f"keys {misplaced} do not apply to {kind}")
            allow_duplicates = entry.get("allow_duplicate_bindings", False)
            if not isinstance(allow_duplicates, bool):
                raise TaskSpecError("'allow_duplicate_bindings' must be true or false")
            if custom:
                formula_text = entry.get("formula")
                if not isinstance(formula_text, str):
                    raise TaskSpecError("custom template requires a 'formula' string")
                instances.append(instantiate_custom(formula_text, instance_id=instance_id))
            else:
                bindings = entry.get("bindings")
                if not isinstance(bindings, dict):
                    raise TaskSpecError("'bindings' must be a mapping")
                options = {"instance_id": instance_id, "allow_duplicate_bindings": allow_duplicates}
                instances.append(instantiate(template_id, bindings, **options))
        except SafetraceError as error:
            where = f"properties[{idx}]"
            if instance_id is not None:
                where += f" (id {instance_id!r})"
            error.where = (where, *error.where)
            raise

    return TaskSpec(
        task_name=task,
        suite=data["suite"],
        horizon=data["horizon"],
        instances=tuple(instances),
    )
