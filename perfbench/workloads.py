"""Seeded input generators for the three benchmark workloads.

Each generator writes only input files (rollouts, task specs, and a manifest
or JSONL stream) under a work directory and returns a :class:`Workload`
holding what the benchmark needs to check the program's outputs: the
expected outcome of every rollout and the gate call list.
The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from safetrace.properties import TEMPLATE_IDS, get_template
from safetrace.rollouts import SCENARIOS, ScenarioParams, generate_scenario, scenario_spec_document, serialize_rollout

#: Rollouts in ``corpus_files``: enough that per-process start-up is a small
#: share of one ``evaluate`` run, few enough for several runs per measurement.
CORPUS_ROLLOUTS = 2000
CORPUS_LENGTH = 300
#: Rollouts in ``dense_jsonl`` and the horizon of each.
DENSE_ROLLOUTS = 200
DENSE_LENGTH = 1000
DENSE_OBJECTS = ("mug", "bowl", "plate")
DENSE_POLICIES = ("act", "diffusion", "pi0", "scripted")
#: Dense gate calls are ~30 ms each, so a pass monitors only this many; the
#: run pools passes until the percentiles rest on enough calls.
DENSE_GATE_CALLS = 50
#: Calls per gate pass: at least 200, so p95 rests on 10 samples beyond it.
GATE_CALLS = 200
GATE_LENGTH = 200


@dataclass(frozen=True)
class Expected:
    """What a correct evaluation reports for one rollout."""

    success: bool
    unsafe: bool
    #: Instance ids that must be violated; every other instance holds.
    #: ``None`` when only the rollout-level outcome is known.
    violated: frozenset[str] | None = None
    #: Instance id -> whether the whole trace satisfies it, when known.
    holds: dict[str, bool] | None = None


@dataclass
class Workload:
    """Generated inputs plus the ground truth the benchmark checks against."""

    name: str
    #: ``evaluate`` arguments after the subcommand, minus ``--out``.
    evaluate_args: list[str]
    #: Task spec files every rollout of the workload shares (set-up cost).
    shared_specs: list[str]
    #: (rollout path, spec path) for the library pipeline, in input order.
    pairs: list[tuple[str, str]]
    #: (rollout path, spec path) for the per-call gate loop.
    gate_pairs: list[tuple[str, str]]
    expected: dict[str, Expected]
    #: Rollout id -> list of steps (sets of propositions), for reference checks.
    traces: dict[str, list[frozenset[str]]] = field(default_factory=dict, repr=False)
    #: Rollout id -> {instance id: formula text}, for the reference evaluator.
    formulas: dict[str, dict[str, str]] = field(default_factory=dict, repr=False)
    jsonl: bool = False


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# corpus_files: many small scenario rollouts, one file each
# ---------------------------------------------------------------------------


def corpus_files(seed: int, root: Path) -> Workload:
    """Scenario-generator rollouts over all 14 scenarios, one file each."""
    rng = random.Random(f"corpus_files:{seed}")
    scenario_ids = sorted(SCENARIOS)
    for sid in scenario_ids:
        _write_json(root / "specs" / f"{sid}.json", scenario_spec_document(sid))
    (root / "rollouts").mkdir(parents=True, exist_ok=True)
    pairs, expected, traces = [], {}, {}
    for i in range(CORPUS_ROLLOUTS):
        sid = scenario_ids[i % len(scenario_ids)]
        length = CORPUS_LENGTH + rng.randint(-10, 10)
        record = generate_scenario(
            ScenarioParams(scenario_id=sid, length=length, seed=seed * 100_000 + i)
        )
        rel = f"rollouts/{record.rollout_id}.json"
        (root / rel).write_text(serialize_rollout(record))
        pairs.append({"rollout": rel, "task_spec": f"specs/{sid}.json"})
        steps = list(record.trace)
        info = SCENARIOS[sid]
        if info.violates is None:
            # random_walk monitors phi1 only: unsafe exactly when a collision
            # or bad contact is ever observed.
            unsafe = any("collision" in s or "bad_contact" in s for s in steps)
        else:
            unsafe = info.violates
        expected[record.rollout_id] = Expected(success=record.success, unsafe=unsafe)
        traces[record.rollout_id] = steps
    _write_json(root / "manifest.json", {"pairs": pairs})
    abs_pairs = [(str(root / p["rollout"]), str(root / p["task_spec"])) for p in pairs]
    return Workload(
        name="corpus_files",
        evaluate_args=[str(root / "manifest.json")],
        shared_specs=[str(root / "specs" / f"{sid}.json") for sid in scenario_ids],
        pairs=abs_pairs,
        gate_pairs=abs_pairs[:GATE_CALLS],
        expected=expected,
        traces=traces,
    )


# ---------------------------------------------------------------------------
# dense_jsonl: long multi-object traces against one 30-instance spec
# ---------------------------------------------------------------------------

# Proposition for each template slot, per object.
_SLOT_PROPS = {
    "Collision": "collision",
    "BadContact": "bad_contact",
    "ObjGrasped": "grasped",
    "StableGrasp": "stable_grasp",
    "ObjReleased": "released",
    "Settled": "settled",
    "Contaminated": "contaminated",
    "CleanContact": "clean_contact",
    "Sanitized": "sanitized",
    "SkillOnset": "skill_onset",
    "PreSafe": "pre_safe",
    "MechHit": "mech_hit",
    "Retract": "retract",
    "Recovered": "recovered",
    "Transfer": "transfer",
    "Contained": "contained",
    "ItemInEnclosure": "item_in_enclosure",
    "InsertItem": "insert_item",
    "EnclosureCleared": "enclosure_cleared",
    "ReachIn": "reach_in",
    "FixOpen": "fix_open",
    "PlaceInOnset": "place_in_onset",
    "Released": "released",
    "ObjInside": "obj_inside",
}


def _prop(slot: str, obj: str) -> str:
    return f"{_SLOT_PROPS[slot]}_{obj}"


def dense_spec_document() -> dict:
    properties = []
    for obj in DENSE_OBJECTS:
        for template_id in TEMPLATE_IDS:
            slots = get_template(template_id).slots
            properties.append(
                {
                    "id": f"{template_id}_{obj}",
                    "template": template_id,
                    "bindings": {slot: _prop(slot, obj) for slot in slots},
                }
            )
    return {
        "task": "multi_object_kitchen",
        "suite": "bread_breakfast_reheating",
        "horizon": "long",
        "properties": properties,
    }


def _episode(kind: str, obj: str, start: int) -> list[tuple[int, str]]:
    """(offset-from-start, proposition) events of one episode that satisfies
    every template; each episode ends within 24 steps and leaves nothing
    pending."""

    def p(name: str) -> str:
        return f"{name}_{obj}"

    if kind == "carry":
        out = [(t, p("grasped")) for t in range(0, 12)]
        out += [(t, p("stable_grasp")) for t in range(0, 12)]
        out += [(12, p("released"))] + [(t, p("settled")) for t in range(13, 17)]
    elif kind == "wash":
        out = [(t, p("contaminated")) for t in range(0, 8)]
        out += [(8, p("sanitized")), (9, p("clean_contact"))]
    elif kind == "onset":
        out = [(t, p("pre_safe")) for t in range(0, 5)] + [(2, p("skill_onset"))]
    elif kind == "mechanism":
        out = [(0, p("mech_hit")), (3, p("retract"))]
        out += [(t, p("recovered")) for t in range(5, 9)]
    elif kind == "pour":
        out = [(0, p("transfer"))] + [(t, p("contained")) for t in range(4, 10)]
    elif kind == "enclosure":
        out = [(t, p("item_in_enclosure")) for t in range(0, 6)]
        out += [(6, p("enclosure_cleared")), (8, p("insert_item"))]
    elif kind == "reach":
        out = [(t, p("fix_open")) for t in range(0, 8)]
        out += [(t, p("reach_in")) for t in range(2, 6)]
    elif kind == "place_in":
        out = [(0, p("place_in_onset"))] + [(t, p("obj_inside")) for t in range(3, 7)]
        out += [(8, p("released"))] + [(t, p("settled")) for t in range(9, 12)]
    else:
        raise ValueError(kind)
    return [(start + dt, prop) for dt, prop in out]


_EPISODES = ("carry", "wash", "onset", "mechanism", "pour", "enclosure", "reach", "place_in")
_EPISODE_SPAN = 24


def dense_jsonl(seed: int, root: Path) -> Workload:
    """Long traces with sparse episodes per object and planted collisions."""
    rng = random.Random(f"dense_jsonl:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    spec_path = root / "spec.json"
    _write_json(spec_path, dense_spec_document())
    declared = sorted(
        {_prop(slot, obj) for obj in DENSE_OBJECTS for slot in _SLOT_PROPS} | {"arm_moving"}
    )
    lines, expected, traces = [], {}, {}
    gate_pairs = []
    for i in range(DENSE_ROLLOUTS):
        steps: list[set[str]] = [set() for _ in range(DENSE_LENGTH)]
        for obj in DENSE_OBJECTS:
            # Non-overlapping episode slots, sparse over the horizon.
            slots = rng.sample(range(DENSE_LENGTH // _EPISODE_SPAN - 1), 6)
            for slot in slots:
                start = slot * _EPISODE_SPAN + rng.randint(0, 4)
                for t, prop in _episode(rng.choice(_EPISODES), obj, start):
                    steps[t].add(prop)
        on = False
        for step in steps:
            if rng.random() < 0.05:
                on = not on
            if on:
                step.add("arm_moving")
        violated: set[str] = set()
        if rng.random() < 0.25:
            obj = rng.choice(DENSE_OBJECTS)
            t = rng.randrange(DENSE_LENGTH)
            steps[t].add(_prop(rng.choice(("Collision", "BadContact")), obj))
            violated.add(f"phi1_{obj}")
        rollout_id = f"dense-{seed}-{i:04d}"
        success = rng.random() < 0.6
        doc = {
            "rollout_id": rollout_id,
            "task": "multi_object_kitchen",
            "policy": DENSE_POLICIES[i % len(DENSE_POLICIES)],
            "success": success,
            "declared_props": declared,
            "trace": [sorted(s) for s in steps],
        }
        lines.append(json.dumps(doc, sort_keys=True))
        expected[rollout_id] = Expected(
            success=success, unsafe=bool(violated), violated=frozenset(violated)
        )
        traces[rollout_id] = [frozenset(s) for s in steps]
    jsonl_path = root / "rollouts.jsonl"
    jsonl_path.write_text("\n".join(lines) + "\n")
    # The gate loop needs one file per rollout; it monitors the first few.
    gate_dir = root / "gate"
    gate_dir.mkdir(exist_ok=True)
    for i, line in enumerate(lines[:DENSE_GATE_CALLS]):
        path = gate_dir / f"{i:04d}.json"
        path.write_text(line + "\n")
        gate_pairs.append((str(path), str(spec_path)))
    return Workload(
        name="dense_jsonl",
        evaluate_args=["--jsonl", str(jsonl_path), "--task-spec", str(spec_path)],
        shared_specs=[str(spec_path)],
        pairs=[],
        gate_pairs=gate_pairs,
        expected=expected,
        traces=traces,
        jsonl=True,
    )


# ---------------------------------------------------------------------------
# gate_custom: one fresh custom spec per monitor call
# ---------------------------------------------------------------------------

_GATE_PROPS = (
    "gripper_closed",
    "near_fixture",
    "door_open",
    "holding_tool",
    "human_near",
    "speed_limited",
    "force_high",
    "handover",
)

_GATE_TRACE_PROPS = _GATE_PROPS + ("collision", "bad_contact")

# Formula shapes over slots a..f; each uses 5 or 6 distinct propositions.
_GATE_SHAPES = (
    "G (({a} & {b}) -> ({c} U ({d} | {e})))",
    "G ({a} -> F ({b} & X ({c} | {d} | !{e})))",
    "G (({a} | {b}) -> X (!{c} U ({d} & !{e})))",
    "G ({a} -> ({b} R ({c} | {d}))) & F ({e} | {f})",
    "G ({a} -> F {b}) & G (({c} & {d}) -> !{e})",
    "(!{a} U {b}) | G (({c} -> {d}) & ({e} -> WX {f}))",
    "G ({a} -> (({b} & !{c}) U ({d} | {e})))",
    "F ({a} & {b}) -> G ({c} -> F ({d} | {e} | {f}))",
)


def _gate_formula(rng: random.Random, shape: str) -> str:
    names = rng.sample(_GATE_PROPS, 6)
    return shape.format(**dict(zip("abcdef", names)))


def gate_custom(seed: int, root: Path) -> Workload:
    """Sequential per-rollout gate calls, each with its own custom spec."""
    rng = random.Random(f"gate_custom:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    seen: set[str] = set()
    pairs, expected, traces, formulas = [], {}, {}, {}
    manifest = []
    for i in range(GATE_CALLS):
        # Every shape is used equally often, so compile cost varies little
        # between seeds; no formula text repeats within a run.
        texts = []
        while len(texts) < 2:
            text = _gate_formula(rng, _GATE_SHAPES[(2 * i + len(texts)) % len(_GATE_SHAPES)])
            if text not in seen:
                seen.add(text)
                texts.append(text)
        task = f"gate_task_{i:04d}"
        spec = {
            "task": task,
            "suite": "atomic_fixture",
            "horizon": "atomic",
            "properties": [
                {"id": "custom_a", "template": "custom", "formula": texts[0]},
                {"id": "custom_b", "template": "custom", "formula": texts[1]},
                {
                    "id": "no_contact",
                    "template": "phi1",
                    "bindings": {"Collision": "collision", "BadContact": "bad_contact"},
                },
            ],
        }
        rates = {p: rng.choice((0.02, 0.05, 0.1)) for p in _GATE_TRACE_PROPS}
        rates["collision"] = rates["bad_contact"] = rng.choice((0.0, 0.0, 0.002))
        state = {p: False for p in _GATE_TRACE_PROPS}
        steps = []
        for _ in range(GATE_LENGTH):
            for p in _GATE_TRACE_PROPS:
                if rng.random() < rates[p]:
                    state[p] = not state[p]
            steps.append(frozenset(p for p in _GATE_TRACE_PROPS if state[p]))
        rollout_id = f"gate-{seed}-{i:04d}"
        success = rng.random() < 0.5
        doc = {
            "rollout_id": rollout_id,
            "task": task,
            "policy": "ci",
            "success": success,
            "declared_props": sorted(_GATE_TRACE_PROPS),
            "trace": [sorted(s) for s in steps],
        }
        spec_path = root / "specs" / f"{i:04d}.json"
        rollout_path = root / "rollouts" / f"{i:04d}.json"
        _write_json(spec_path, spec)
        _write_json(rollout_path, doc)
        pairs.append((str(rollout_path), str(spec_path)))
        manifest.append({"rollout": f"rollouts/{i:04d}.json", "task_spec": f"specs/{i:04d}.json"})
        # Filled in from the reference evaluator before checking.
        expected[rollout_id] = Expected(success=success, unsafe=False)
        traces[rollout_id] = steps
        formulas[rollout_id] = {
            "custom_a": texts[0],
            "custom_b": texts[1],
            "no_contact": "G !(collision | bad_contact)",
        }
    _write_json(root / "manifest.json", {"pairs": manifest})
    return Workload(
        name="gate_custom",
        evaluate_args=[str(root / "manifest.json")],
        shared_specs=[],
        pairs=pairs,
        gate_pairs=pairs,
        expected=expected,
        traces=traces,
        formulas=formulas,
    )


GENERATORS = {
    "corpus_files": corpus_files,
    "dense_jsonl": dense_jsonl,
    "gate_custom": gate_custom,
}
