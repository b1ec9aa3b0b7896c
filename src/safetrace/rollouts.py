"""Rollout ingestion, validation, and scripted synthetic scenarios.

A rollout is one finite policy execution: a symbolic trace (per step, the set
of true propositions) plus a task-success flag and labels. The on-disk form
is JSON::

    {
      "rollout_id": "clean_pick_place-0003",
      "task": "place_mug_on_shelf",
      "policy": "scripted",
      "success": true,
      "declared_props": ["collision", "grasped_mug", ...],
      "trace": [["grasped_mug"], ["grasped_mug", "stable_grasp_mug"], ...]
    }

``trace[t]`` lists the propositions true at step ``t`` (sparse form). Dense
boolean maps and explicit ``{"t": ..., "props": [...]}`` step objects are
accepted on input and normalized. When ``declared_props`` is present, any
undeclared proposition in the trace is an error; this guards against binding
typos.

The scenario catalog generates labeled rollouts for every safety category
without any simulator: each scripted scenario provably satisfies or violates
its target property template (verified across seeds in the test suite), and
``random_walk`` produces unlabeled noise traces. ``build_corpus`` writes the
bundled 200-rollout corpus with task specs and a manifest.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import chain, compress, count, islice
from operator import ne
from pathlib import Path
from typing import NoReturn

from ._record import Record, _restore
from .automata import _per_step
from .errors import RolloutFormatError, ScenarioError
from .formulas import Trace, _all_propositions, is_valid_proposition
from .properties import TaskSpec, _check_identifier, _json_text, _read_json, get_template, load_task_spec

__all__ = [
    "RolloutRecord",
    "Diagnostic",
    "ScenarioParams",
    "ScenarioInfo",
    "SCENARIOS",
    "DETERMINISTIC_SCENARIOS",
    "load_rollout",
    "serialize_rollout",
    "validate_rollout",
    "generate_scenario",
    "scenario_spec_document",
    "scenario_task_spec",
    "corpus_composition",
    "build_corpus",
]


class RolloutRecord(Record, norepr=("valuations", "run_ids", "run_ends")):
    """One rollout: symbolic trace plus success flag and labels.

    The record keeps the trace as its distinct valuations and its maximal
    runs of equal valuations: one valuation id and one end offset per run.
    :attr:`trace` and :attr:`valuation_ids` are per-step views built from
    them. The constructor takes the trace as a :class:`Trace` or a nonempty
    list of steps. It checks the labels, ``declared_props`` and the trace's
    shape with :func:`load_rollout`'s rules and messages, builds the runs as
    :func:`load_rollout` does, and keeps ``declared_props`` sorted and
    without repeats.
    """

    rollout_id: str
    task_name: str
    policy: str
    success: bool
    #: The trace's distinct valuations, in order of first occurrence.
    valuations: tuple[frozenset[str], ...]
    #: Each run's index into ``valuations``; neighbouring runs differ.
    #: ``bytes`` while there are at most 256 distinct valuations, else a tuple.
    run_ids: bytes | tuple[int, ...]
    #: Each run's end offset, the step after its last; the last is the
    #: trace's length.
    run_ends: tuple[int, ...]
    declared_props: tuple[str, ...] | None = None

    def __init__(
        self,
        rollout_id: str,
        task_name: str,
        policy: str,
        success: bool,
        trace: Trace | list[Iterable[str]],
        declared_props: Iterable[str] | None = None,
    ) -> None:
        _check_labels(rollout_id, task_name, policy, success)
        declared = _declared_names(declared_props)
        if not isinstance(trace, Trace):
            _check_trace_shape(trace)
            try:
                trace = Trace(trace)
            except (TypeError, ValueError) as exc:
                raise RolloutFormatError(f"invalid trace: {exc}") from exc
        steps = trace.steps
        # Sorted steps word an invalid name as the smallest one of its step.
        index = _valuation_index(*_runs(steps), declared, lambda: [sorted(s, key=str) for s in steps])
        Record.__init__(self, rollout_id, task_name, policy, success, *index, declared)
        self.__dict__["trace"] = trace

    @cached_property
    def trace(self) -> Trace:
        """The steps, built from the runs when first read."""
        return Trace(map(self.valuations.__getitem__, self.valuation_ids))

    @property
    def valuation_ids(self) -> bytes | tuple[int, ...]:
        """Each step's index into ``valuations``, of the type of ``run_ids``."""
        ids = chain.from_iterable(_per_step(zip(self.run_ids), self.run_ends))
        return bytes(ids) if isinstance(self.run_ids, bytes) else tuple(ids)

    def mask_runs(self, bases: Iterable[Sequence[str]]) -> Iterator[tuple[bytes, tuple[int, ...]]]:
        """For each basis of at most 8 propositions, the trace projected
        onto it (bit ``i`` set when ``basis[i]`` is true) in the run form
        :meth:`Dfa.run` takes: the mask of each of the record's runs, and
        ``run_ends``. Neighbouring runs may project to equal masks;
        :meth:`Dfa.run` walks them as one.

        Once per call, the ids of the valuations each proposition is true
        in are listed. Per basis, the mask of each distinct valuation goes
        into a table, and the runs' valuation ids are mapped through it in
        one pass.
        """
        holds_in: dict[str, list[int]] = {}
        for i, valuation in enumerate(self.valuations):
            for p in valuation:
                holds_in.setdefault(p, []).append(i)
        ids, ends = self.run_ids, self.run_ends
        size = max(256, len(self.valuations))
        for props in bases:
            table = bytearray(size)
            for bit, p in enumerate(props):
                flag = 1 << bit
                for i in holds_in.get(p, ()):
                    table[i] |= flag
            yield (ids.translate(table) if isinstance(ids, bytes) else bytes(map(table.__getitem__, ids))), ends


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def _check_labels(rollout_id, task, policy, success) -> None:
    """The rules for a rollout's labels, checked in this order: ``success``
    is a boolean, and each other label a nonempty string UTF-8 can encode."""
    if not isinstance(success, bool):
        raise RolloutFormatError("'success' must be a boolean")
    _check_identifier(rollout_id, "rollout_id", RolloutFormatError)
    _check_identifier(task, "task", RolloutFormatError)
    _check_identifier(policy, "policy", RolloutFormatError)


def _declared_names(declared) -> tuple[str, ...] | None:
    """The declared propositions as a record keeps them, sorted and without
    repeats. They must be a collection of strings (neither a string nor a
    mapping), and each is then checked in the order given.

    One regex match checks them all (:func:`formulas._all_propositions`);
    only a bad name is looked for name by name, to word it.
    """
    if declared is None:
        return None
    listed = isinstance(declared, Iterable) and not isinstance(declared, (str, Mapping))
    names = list(declared) if listed else []
    if not listed or not all(isinstance(p, str) for p in names):
        raise RolloutFormatError("'declared_props' must be a list of strings")
    if names and not _all_propositions(names):
        for p in names:
            if not is_valid_proposition(p):
                raise RolloutFormatError(f"invalid declared proposition {p!r}")
    return tuple(sorted(set(names)))


def _normalize_step(step, t: int) -> frozenset[str]:
    if isinstance(step, list):
        props = step
    elif isinstance(step, dict):
        props = [p for p, v in step.items() if v is True]
        bad = [p for p, v in step.items() if not isinstance(v, bool)]
        if bad:
            raise RolloutFormatError(f"step {t}: non-boolean values for {sorted(bad, key=str)}")
    else:
        raise RolloutFormatError(f"step {t}: expected a list or mapping, got {type(step).__name__}")
    for p in props:
        if not is_valid_proposition(p):
            raise RolloutFormatError(f"step {t}: invalid proposition {p!r}")
    return frozenset(props)


def _raise_first_error(steps: Iterable, declared: tuple[str, ...] | None) -> NoReturn:
    """Raise the first error of a step-by-step decode of ``steps``: an
    invalid step or name (:func:`_normalize_step`), else the first step
    with an undeclared name."""
    valuations = [_normalize_step(step, t) for t, step in enumerate(steps)]
    for t, valuation in enumerate(valuations):
        undeclared = valuation.difference(declared or ())
        if undeclared:
            raise RolloutFormatError(f"step {t} uses undeclared propositions: {sorted(undeclared)}")
    raise AssertionError("the trace has no invalid or undeclared proposition")


def _runs(steps: Sequence) -> tuple[list, list[int]]:
    """The first step and the end offset of each maximal run of equal
    ``steps``, found in one C-level pass that compares each step with the
    next: the bytes ``changes`` are 1 where step ``t + 1`` differs from
    step ``t``, so the runs end where they are 1, and at the last step."""
    changes = bytes(map(ne, steps, islice(steps, 1, None)))
    return list(compress(steps, b"\x01" + changes)), list(compress(range(1, len(steps) + 1), changes + b"\x01"))


def _valuation_index(
    keys: Iterable[Hashable], stops: list[int], declared: tuple[str, ...] | None, steps: Callable[[], Iterable]
) -> tuple[tuple[frozenset[str], ...], bytes | tuple[int, ...], tuple[int, ...]]:
    """Index a trace's runs by their distinct valuations, checking their names.

    ``keys`` holds one key per maximal run of equal steps, a collection of
    the run's names (a tuple or a frozenset), and ``stops`` each run's end
    offset (see :func:`_runs`). The distinct keys are numbered in one pass,
    in order of first occurrence, and keys with the same names share one
    valuation id. The union of the names is then checked once: each must
    be one of ``declared`` when it is given (each declared name is valid),
    else a valid proposition. Problems are found over the distinct values,
    and worded by :func:`_raise_first_error` over ``steps()``, the trace's
    steps in a form :func:`_normalize_step` decodes; an unhashable key is
    one such problem.

    Returns the distinct valuations in order of first occurrence, each
    run's id, its index into them (``bytes`` for at most 256 distinct
    valuations, else a tuple), and the runs' end offsets. Keys with the
    same names in another order (``["a", "b"]``, ``["b", "a"]``) differ as
    steps but not as valuations, so neighbouring runs of such twins are
    merged into one.
    """
    key_ids: dict[Hashable, int] = defaultdict(count().__next__)
    try:
        index = list(map(key_ids.__getitem__, keys))
    except TypeError:  # an unhashable key
        _raise_first_error(steps(), declared)
    ids: dict[frozenset[str], int] = {}
    id_of_key = [ids.setdefault(frozenset(key), len(ids)) for key in key_ids]
    names = frozenset().union(*ids)
    if not (all(map(is_valid_proposition, names)) if declared is None else names.issubset(declared)):
        _raise_first_error(steps(), declared)
    if len(ids) < len(id_of_key):
        index = list(map(id_of_key.__getitem__, index))
        changes = bytes(map(ne, index, islice(index, 1, None)))
        index = list(compress(index, b"\x01" + changes))
        stops = list(compress(stops, changes + b"\x01"))
    return tuple(ids), (bytes if len(ids) <= 256 else tuple)(index), tuple(stops)


def _check_trace_shape(trace) -> None:
    """The rule for a rollout's trace as a whole: a nonempty list."""
    if not isinstance(trace, list):
        raise RolloutFormatError("'trace' must be a list of steps")
    if not trace:
        raise RolloutFormatError("'trace' must contain at least one step")


def _steps_from_document(
    raw_trace, declared: tuple[str, ...] | None
) -> tuple[tuple[frozenset[str], ...], bytes | tuple[int, ...], tuple[int, ...]]:
    _check_trace_shape(raw_trace)
    if not (isinstance(raw_trace[0], dict) and "t" in raw_trace[0]):
        if isinstance(raw_trace[0], list):
            heads, stops = _runs(raw_trace)
            # A JSON value equal to a list is a list with equal items, so only
            # the first step of each run needs its type checked and its key hashed.
            if set(map(type, heads)) == {list}:
                return _valuation_index(map(tuple, heads), stops, declared, lambda: raw_trace)
        steps = [_normalize_step(step, t) for t, step in enumerate(raw_trace)]
        return _valuation_index(*_runs(steps), declared, lambda: raw_trace)

    by_time: dict[int, frozenset[str]] = {}
    for entry in raw_trace:
        if not isinstance(entry, dict) or "t" not in entry:
            raise RolloutFormatError("mixed step forms: every step needs a 't' field here")
        t = entry["t"]
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise RolloutFormatError(f"invalid timestep {t!r}")
        if t in by_time:
            raise RolloutFormatError(f"duplicate timestep {t}")
        extra = entry.keys() - {"t", "props"}
        if extra:
            raise RolloutFormatError(f"step {t}: unknown keys {sorted(extra, key=str)}")
        by_time[t] = _normalize_step(entry.get("props", []), t)
    horizon = max(by_time)
    # The first five gaps lie below len(by_time) + 5; never scan up to a huge t.
    missing = [t for t in range(min(horizon, len(by_time) + 4) + 1) if t not in by_time]
    if missing:
        raise RolloutFormatError(f"missing timesteps: {missing[:5]}")
    steps = [by_time[t] for t in range(horizon + 1)]
    return _valuation_index(*_runs(steps), declared, lambda: list(map(list, steps)))


def load_rollout(source: str | dict) -> RolloutRecord:
    """Parse and validate a rollout document (JSON text or parsed mapping)."""
    data = _read_json(source, RolloutFormatError) if isinstance(source, str) else source
    if not isinstance(data, dict):
        raise RolloutFormatError("rollout document must be a mapping")
    required = {"rollout_id", "task", "policy", "success", "trace"}
    missing = required - data.keys()
    if missing:
        raise RolloutFormatError(f"rollout missing keys: {sorted(missing)}")
    extra = data.keys() - required - {"declared_props"}
    if extra:
        raise RolloutFormatError(f"rollout has unknown keys: {sorted(extra, key=str)}")
    labels = (data["rollout_id"], data["task"], data["policy"], data["success"])
    _check_labels(*labels)
    declared = _declared_names(data.get("declared_props"))
    index = _steps_from_document(data["trace"], declared)
    return _restore(RolloutRecord, (*labels, *index, declared))


def serialize_rollout(r: RolloutRecord) -> str:
    """Canonical JSON rendering: sorted keys, sorted sparse steps, trailing
    newline. Identical records serialize to identical bytes."""
    doc = {
        "rollout_id": r.rollout_id,
        "task": r.task_name,
        "policy": r.policy,
        "success": r.success,
        "trace": [sorted(step) for step in r.trace],
    }
    if r.declared_props is not None:
        doc["declared_props"] = list(r.declared_props)
    return _json_text(doc)


class Diagnostic(Record):
    """A non-fatal finding from cross-checking a rollout against a spec."""

    code: str
    message: str


def validate_rollout(r: RolloutRecord, spec: TaskSpec) -> list[Diagnostic]:
    """Cross-check a rollout against a task spec without mutating either.

    Reports: task-name mismatches, propositions bound in the spec that are
    never observed true (possible grounding gap), and trace propositions no
    monitored instance looks at.
    """
    diagnostics = []
    if r.task_name != spec.task_name:
        diagnostics.append(
            Diagnostic(
                "task_mismatch",
                f"rollout task {r.task_name!r} does not match spec task {spec.task_name!r}",
            )
        )
    observed = frozenset().union(*r.valuations)
    monitored = frozenset().union(*(inst.dfa.props for inst in spec.instances))
    for p in sorted(monitored - observed):
        diagnostics.append(
            Diagnostic("bound_never_true", f"bound proposition {p!r} never observed true")
        )
    for p in sorted(observed - monitored):
        diagnostics.append(
            Diagnostic("unmonitored_prop", f"trace proposition {p!r} unused by any instance")
        )
    return diagnostics


# ---------------------------------------------------------------------------
# Scenario catalog
# ---------------------------------------------------------------------------


class ScenarioParams(Record):
    """Parameters for :func:`generate_scenario`.

    ``flip_rate``, a probability in [0, 1], only affects the
    ``random_walk`` scenario and the benign noise proposition.
    """

    scenario_id: str
    length: int
    seed: int
    flip_rate: float = 0.05


class ScenarioInfo(Record, norepr=("script",), nocompare=("script",)):
    """Catalog entry: script, monitored templates, and the documented label.

    ``script(rng, length)`` returns the scenario's events as
    ``(proposition, first step, last step)`` spans, inclusive;
    :func:`generate_scenario` builds the steps from them, adds the benign
    noise proposition and takes ``success`` from the entry. ``random_walk``,
    the one entry whose ``success`` is ``None``, has a script
    ``(rng, length, flip_rate) -> (steps, success)`` of its own.
    """

    scenario_id: str
    task_name: str
    suite: str
    horizon: str
    min_length: int
    default_length: int
    success: bool | None  # None: decided per seed (random_walk)
    violates: bool | None  # None: undetermined (random_walk)
    violation_kind: str | None  # "mid" | "end" | None
    target_template: str | None
    properties: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    description: str
    script: Callable

    @property
    def categories(self) -> tuple[str, ...]:
        return tuple(get_template(t).category.value for t, _ in self.properties)


_NOISE_PROP = "arm_moving"


def _clean_pick_place(rng, length):
    release_t = length - 4
    settle_t = release_t + 1 + rng.randint(0, 1)
    return [
        ("grasped_mug", 2, release_t - 1),
        ("stable_grasp_mug", 2, release_t - 1),
        ("released_mug", release_t, release_t),
        ("settled_mug", settle_t, length - 1),
    ]


def _grasp_drop(rng, length):
    drop_t = 4 + rng.randint(0, 1)
    return [("grasped_bottle", 2, drop_t), ("stable_grasp_bottle", 2, drop_t - 1)]


def _release_unsettled(rng, length):
    release_t = length // 2
    return [("grasped_plate", 2, release_t - 1), ("released_plate", release_t, release_t)]


def _contamination_then_clean_contact(rng, length):
    contact_t = 5 + rng.randint(0, 1)
    return [("contaminated_gripper", 3, length - 1), ("clean_contact", contact_t, contact_t)]


def _contamination_sanitized(rng, length):
    sanitize_t = 6 + rng.randint(0, 1)
    return [
        ("contaminated_gripper", 3, sanitize_t - 1),
        ("sanitized_gripper", sanitize_t, sanitize_t),
        ("clean_contact", sanitize_t + 1, sanitize_t + 1),
    ]


def _onset_unsafe(rng, length):
    return [("burner_clear", 1, 2), ("place_onset", length // 2, length // 2)]


def _mechanism_hit_recover(rng, length):
    retract_t = 5 + rng.randint(0, 1)
    return [
        ("mech_hit", 3, 3),
        ("retract", retract_t, retract_t),
        ("mech_recovered", retract_t + 2, length - 1),
    ]


def _mechanism_hit_no_recover(rng, length):
    return [("mech_hit", 3, 3), ("retract", 5, 5)]


def _transfer_spill(rng, length):
    return [("transfer_started", 4, 4), ("spilled", 5, length - 1)]


def _transfer_contained(rng, length):
    contained_t = 6 + rng.randint(0, 1)
    return [("transfer_started", 4, 4), ("contents_contained", contained_t, length - 1)]


def _enclosure_double_insert(rng, length):
    insert_t = 4 + rng.randint(0, 1)
    return [("item_in_microwave", 2, 2), ("insert_new_item", insert_t, insert_t)]


def _reach_half_open(rng, length):
    reach_t = 5 + rng.randint(0, 1)
    return [("drawer_fully_open", 2, 3), ("reach_into_drawer", reach_t, reach_t)]


def _release_outside_enclosure(rng, length):
    released_t = 5 + rng.randint(0, 1)
    return [("insert_onset", 3, 3), ("released_obj", released_t, released_t)]


_RANDOM_WALK_PROPS = ("collision", "bad_contact", _NOISE_PROP, "gripper_closed", "near_fixture")


def _random_walk(rng, length, flip_rate):
    state = {p: False for p in _RANDOM_WALK_PROPS}
    steps = []
    for _ in range(length):
        step = set()
        for p in _RANDOM_WALK_PROPS:
            if rng.random() < flip_rate:
                state[p] = not state[p]
            if state[p]:
                step.add(p)
        steps.append(step)
    return steps, rng.random() < 0.5


def _info(*fields) -> ScenarioInfo:
    """A catalog row: the :class:`ScenarioInfo` fields in order, each
    property's bindings given as a mapping."""
    *head, properties, description, script = fields
    bindings = tuple((t, tuple(sorted(b.items()))) for t, b in properties)
    return ScenarioInfo(*head, bindings, description, script)


# Bindings that two catalog rows share.
_CONTAMINATION = (
    "phi4",
    {
        "Contaminated": "contaminated_gripper",
        "CleanContact": "clean_contact",
        "Sanitized": "sanitized_gripper",
    },
)
_MECHANISM = ("phi6", {"MechHit": "mech_hit", "Retract": "retract", "Recovered": "mech_recovered"})
_TRANSFER = ("phi7", {"Transfer": "transfer_started", "Contained": "contents_contained"})


SCENARIOS: dict[str, ScenarioInfo] = {
    info.scenario_id: info
    for info in (
        _info(
            "clean_pick_place",
            "place_mug_on_shelf",
            "storage_organization",
            "atomic",
            8,
            12,
            True,
            False,
            None,
            None,
            [
                ("phi1", {"Collision": "collision", "BadContact": "bad_contact"}),
                (
                    "phi2",
                    {
                        "ObjGrasped": "grasped_mug",
                        "StableGrasp": "stable_grasp_mug",
                        "ObjReleased": "released_mug",
                    },
                ),
                ("phi3", {"ObjReleased": "released_mug", "Settled": "settled_mug"}),
            ],
            "Nominal pick-and-place: grasp stays stable, release settles, no contact events.",
            _clean_pick_place,
        ),
        _info(
            "grasp_drop",
            "carry_bottle",
            "beverage_serving",
            "atomic",
            8,
            12,
            False,
            True,
            "mid",
            "phi2",
            [
                (
                    "phi2",
                    {
                        "ObjGrasped": "grasped_bottle",
                        "StableGrasp": "stable_grasp_bottle",
                        "ObjReleased": "released_bottle",
                    },
                )
            ],
            "Grasp stability breaks before any release: the bottle is dropped mid-carry.",
            _grasp_drop,
        ),
        _info(
            "release_unsettled",
            "set_down_plate",
            "plating_serving_portioning",
            "atomic",
            8,
            12,
            True,
            True,
            "end",
            "phi3",
            [("phi3", {"ObjReleased": "released_plate", "Settled": "settled_plate"})],
            "The plate is released but never observed settled before the horizon.",
            _release_unsettled,
        ),
        _info(
            "contamination_then_clean_contact",
            "prep_raw_then_plate",
            "cooking_ingredient_prep",
            "medium",
            8,
            20,
            True,
            True,
            "mid",
            "phi4",
            [_CONTAMINATION],
            "Clean contact happens while the gripper is still contaminated.",
            _contamination_then_clean_contact,
        ),
        _info(
            "contamination_sanitized",
            "prep_raw_sanitize_plate",
            "cleaning_washing_sanitation",
            "medium",
            10,
            20,
            True,
            False,
            None,
            "phi4",
            [_CONTAMINATION],
            "Contamination is sanitized before the next clean contact.",
            _contamination_sanitized,
        ),
        _info(
            "onset_unsafe",
            "place_pot_on_burner",
            "cooking_ingredient_prep",
            "atomic",
            8,
            12,
            False,
            True,
            "mid",
            "phi5",
            [("phi5", {"SkillOnset": "place_onset", "PreSafe": "burner_clear"})],
            "The place skill starts while the target burner is occupied.",
            _onset_unsafe,
        ),
        _info(
            "mechanism_hit_recover",
            "close_drawer_blocked",
            "atomic_fixture",
            "atomic",
            10,
            12,
            False,
            False,
            None,
            "phi6",
            [_MECHANISM],
            "A blocked drawer motion is retracted and the mechanism recovers; "
            "the task itself is left incomplete.",
            _mechanism_hit_recover,
        ),
        _info(
            "mechanism_hit_no_recover",
            "close_cabinet_blocked",
            "atomic_fixture",
            "atomic",
            8,
            12,
            False,
            True,
            "end",
            "phi6",
            [_MECHANISM],
            "After a blocked motion the mechanism retracts but never recovers.",
            _mechanism_hit_no_recover,
        ),
        _info(
            "transfer_spill",
            "pour_water_to_cup",
            "beverage_serving",
            "medium",
            8,
            20,
            False,
            True,
            "end",
            "phi7",
            [_TRANSFER],
            "A transfer starts but the contents never end up contained.",
            _transfer_spill,
        ),
        _info(
            "transfer_contained",
            "pour_cereal_to_bowl",
            "bread_breakfast_reheating",
            "medium",
            8,
            20,
            True,
            False,
            None,
            "phi7",
            [_TRANSFER],
            "A transfer completes with the contents inside the receiver.",
            _transfer_contained,
        ),
        _info(
            "enclosure_double_insert",
            "load_microwave",
            "bread_breakfast_reheating",
            "long",
            8,
            30,
            True,
            True,
            "mid",
            "phi8",
            [
                (
                    "phi8",
                    {
                        "ItemInEnclosure": "item_in_microwave",
                        "InsertItem": "insert_new_item",
                        "EnclosureCleared": "microwave_cleared",
                    },
                )
            ],
            "A second item is inserted before the occupied enclosure is cleared.",
            _enclosure_double_insert,
        ),
        _info(
            "reach_half_open",
            "fetch_from_drawer",
            "storage_organization",
            "atomic",
            8,
            12,
            False,
            True,
            "mid",
            "phi9",
            [("phi9", {"ReachIn": "reach_into_drawer", "FixOpen": "drawer_fully_open"})],
            "The gripper reaches into a drawer that is no longer fully open.",
            _reach_half_open,
        ),
        _info(
            "release_outside_enclosure",
            "stow_in_cabinet",
            "storage_organization",
            "long",
            8,
            30,
            False,
            True,
            "mid",
            "phi10",
            [
                (
                    "phi10",
                    {
                        "PlaceInOnset": "insert_onset",
                        "Released": "released_obj",
                        "ObjInside": "obj_inside_cabinet",
                    },
                )
            ],
            "The object is released halfway in, before being fully inside.",
            _release_outside_enclosure,
        ),
        _info(
            "random_walk",
            "random_kitchen_walk",
            "cleaning_washing_sanitation",
            "long",
            1,
            30,
            None,
            None,
            None,
            "phi1",
            [("phi1", {"Collision": "collision", "BadContact": "bad_contact"})],
            "Independent per-step proposition flips at the configured rate; "
            "outcome depends on the seed.",
            _random_walk,
        ),
    )
}

#: Scenarios whose satisfy/violate outcome is fixed by the script.
DETERMINISTIC_SCENARIOS = tuple(
    sid for sid, info in SCENARIOS.items() if info.violates is not None
)


def generate_scenario(params: ScenarioParams) -> RolloutRecord:
    """Produce the scripted rollout for a scenario.

    Identical parameters (including the seed) yield byte-identical serialized
    rollouts. Seeds vary benign timing and noise, never the documented
    satisfy/violate outcome.
    """
    info = SCENARIOS.get(params.scenario_id)
    if info is None:
        raise ScenarioError(
            f"unknown scenario {params.scenario_id!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
    if params.length < info.min_length:
        raise ScenarioError(
            f"{params.scenario_id}: length {params.length} too short for the "
            f"scenario's event schedule (minimum {info.min_length})"
        )
    if not 0 <= params.flip_rate <= 1:  # also rejects NaN
        raise ScenarioError(f"flip rate {params.flip_rate} outside [0, 1]")
    rng = random.Random(f"{params.scenario_id}:{params.seed}")
    if info.success is None:  # random_walk: its own steps and a per-seed label
        steps, success = info.script(rng, params.length, params.flip_rate)
    else:
        steps = [set() for _ in range(params.length)]
        for prop, first, last in info.script(rng, params.length):
            for t in range(first, last + 1):
                steps[t].add(prop)
        on = False  # the benign noise proposition, toggled at the flip rate
        for step in steps:
            if rng.random() < params.flip_rate:
                on = not on
            if on:
                step.add(_NOISE_PROP)
        success = info.success

    declared = {_NOISE_PROP}
    for _, bindings in info.properties:
        declared.update(name for _, name in bindings)
    for step in steps:
        declared.update(step)

    return RolloutRecord(
        rollout_id=f"{params.scenario_id}-{params.seed:04d}",
        task_name=info.task_name,
        policy="random-walk" if params.scenario_id == "random_walk" else "scripted",
        success=success,
        trace=Trace(steps),
        declared_props=tuple(sorted(declared)),
    )


def scenario_spec_document(scenario_id: str) -> dict:
    """The task spec document (as a plain mapping) matching a scenario."""
    info = SCENARIOS.get(scenario_id)
    if info is None:
        raise ScenarioError(f"unknown scenario {scenario_id!r}")
    return {
        "task": info.task_name,
        "suite": info.suite,
        "horizon": info.horizon,
        "properties": [
            {"id": template_id, "template": template_id, "bindings": dict(bindings)}
            for template_id, bindings in info.properties
        ],
    }


def scenario_task_spec(scenario_id: str) -> TaskSpec:
    """The compiled task spec matching a scenario's generated rollouts."""
    return load_task_spec(scenario_spec_document(scenario_id))


# ---------------------------------------------------------------------------
# Bundled corpus
# ---------------------------------------------------------------------------

_CORPUS_BASE_SEEDS = 15
_CORPUS_EXTRA_CLEAN = 5


def corpus_composition() -> list[tuple[str, int, int]]:
    """The bundled corpus recipe as (scenario_id, seed, length) triples.

    13 label-deterministic scenarios x 15 seeds, plus 5 extra seeds of
    ``clean_pick_place``: 200 rollouts with known per-scenario outcomes.
    """
    triples = []
    for sid in DETERMINISTIC_SCENARIOS:
        info = SCENARIOS[sid]
        for seed in range(_CORPUS_BASE_SEEDS):
            triples.append((sid, seed, info.default_length + seed % 3))
    clean = SCENARIOS["clean_pick_place"]
    for seed in range(_CORPUS_BASE_SEEDS, _CORPUS_BASE_SEEDS + _CORPUS_EXTRA_CLEAN):
        triples.append(("clean_pick_place", seed, clean.default_length + seed % 3))
    return triples


def build_corpus(out_dir: str | Path) -> Path:
    """Write the bundled synthetic corpus under ``out_dir``.

    Layout: ``specs/<scenario>.json``, ``rollouts/<rollout_id>.json``, and a
    ``manifest.json`` pairing each rollout with its task spec (paths relative
    to the manifest). Returns the manifest path. Output is deterministic.
    """
    out = Path(out_dir)
    (out / "specs").mkdir(parents=True, exist_ok=True)
    (out / "rollouts").mkdir(parents=True, exist_ok=True)
    written_specs: set[str] = set()
    pairs = []
    for sid, seed, length in corpus_composition():
        if sid not in written_specs:
            spec_text = _json_text(scenario_spec_document(sid))
            (out / "specs" / f"{sid}.json").write_text(spec_text, encoding="utf-8")
            written_specs.add(sid)
        record = generate_scenario(ScenarioParams(scenario_id=sid, length=length, seed=seed))
        rollout_rel = f"rollouts/{record.rollout_id}.json"
        (out / rollout_rel).write_text(serialize_rollout(record), encoding="utf-8")
        pairs.append({"rollout": rollout_rel, "task_spec": f"specs/{sid}.json"})
    manifest = out / "manifest.json"
    manifest.write_text(_json_text({"pairs": pairs}), encoding="utf-8")
    return manifest
