"""Independent oracles and sweep helpers shared by the test suite.

`naive_evaluate` re-implements the satisfaction relation directly from the
quantifier definitions (explicit witness searches, no memoization, no shared
code with the package) and anchors the chain of trust: the package evaluator
is checked against it on small exhaustive spaces, the vectorized bulk oracle
is checked against the package evaluator, and the automaton pipeline is then
checked against the bulk oracle at scale.

`reference_trace` decodes a rollout's ``trace`` field the plain way, one
step at a time with every name checked at every occurrence, to anchor the
interned decoder in ``safetrace.rollouts``.

`reference_report` rebuilds an aggregate report straight from the
definitions in the ``safetrace.metrics`` docstring, rollout by rollout, with
exposures taken from the per-step verdict codes as sets of step indices, to
anchor the count fold in ``safetrace.metrics``.

`reference_run` is the plain per-step DFA loop, one table lookup per mask,
to anchor the run-wise loop in ``safetrace.automata.Dfa.run``; `runs_of`
and `per_step` convert between its per-step codes and the run form
``Dfa.run`` returns, one step at a time.

`reference_monitor_result` reads every derived value of a monitor result
off its verdict codes one step at a time, to anchor the properties of
``safetrace.monitor.MonitorResult``.

`reference_monitor_text` builds the monitor report as a document, with each
verdict decoded through its ``Verdict`` enum and every count read off the
per-step verdict codes, and dumps it with ``json.dumps``, to anchor the
fixed-shape writer ``safetrace.metrics.monitor_report_json``.

`RECORD_MIRRORS` holds, for each record class of the package, a frozen
dataclass with the same name, fields, field order, defaults and field
options, to anchor the generic record base in ``safetrace._record``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

from safetrace.automata import CODE_FALSE, CODE_PRESUMABLY_FALSE, CODE_PRESUMABLY_TRUE, CODE_TRUE

from safetrace.formulas import (
    FALSE,
    TRUE,
    Always,
    And,
    Eventually,
    FalseFormula,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Trace,
    TrueFormula,
    Until,
    WeakNext,
)
from safetrace.metrics import EvaluationReport, Outcome, PolicyRow, TableRow
from safetrace.properties import CUSTOM_TEMPLATE, HORIZONS, SUITES, TEMPLATE_IDS, SafetyCategory


def naive_evaluate(f: Formula, trace: Trace, i: int = 0) -> bool:
    """Literal reading of the semantics: until/release/always/eventually via
    explicit quantification over witness positions."""
    n = len(trace)
    if isinstance(f, TrueFormula):
        return True
    if isinstance(f, FalseFormula):
        return False
    if isinstance(f, Prop):
        return f.name in trace[i]
    if isinstance(f, Not):
        return not naive_evaluate(f.operand, trace, i)
    if isinstance(f, And):
        return naive_evaluate(f.left, trace, i) and naive_evaluate(f.right, trace, i)
    if isinstance(f, Or):
        return naive_evaluate(f.left, trace, i) or naive_evaluate(f.right, trace, i)
    if isinstance(f, Implies):
        return (not naive_evaluate(f.left, trace, i)) or naive_evaluate(f.right, trace, i)
    if isinstance(f, Next):
        return i + 1 < n and naive_evaluate(f.operand, trace, i + 1)
    if isinstance(f, WeakNext):
        return i + 1 >= n or naive_evaluate(f.operand, trace, i + 1)
    if isinstance(f, Until):
        return any(
            naive_evaluate(f.right, trace, j)
            and all(naive_evaluate(f.left, trace, k) for k in range(i, j))
            for j in range(i, n)
        )
    if isinstance(f, Release):
        # Dual of until by definition.
        return not naive_evaluate(Until(Not(f.left), Not(f.right)), trace, i)
    if isinstance(f, Always):
        return all(naive_evaluate(f.operand, trace, j) for j in range(i, n))
    if isinstance(f, Eventually):
        return any(naive_evaluate(f.operand, trace, j) for j in range(i, n))
    raise TypeError(f"not a formula: {f!r}")


def all_traces(props: list[str], length: int):
    """Every trace of exactly `length` over the closed proposition set."""
    valuations = [
        frozenset(p for p, keep in zip(props, bits) if keep)
        for bits in itertools.product([False, True], repeat=len(props))
    ]
    for combo in itertools.product(valuations, repeat=length):
        yield Trace(combo)


@lru_cache(maxsize=None)
def _symbol_grid(num_props: int, length: int) -> tuple:
    """Per-position symbol indices across all V**length traces; trace j has
    symbol (j // V**(length-1-t)) % V at position t."""
    width = 1 << num_props
    count = width**length
    trace_ids = np.arange(count)
    return tuple(
        (trace_ids // width ** (length - 1 - t)) % width for t in range(length)
    )


def bulk_evaluate(f: Formula, props: list[str], length: int) -> np.ndarray:
    """Initial-position truth of `f` on every trace of exactly `length` over
    `props` (bit i of a symbol = props[i]), as a bool vector indexed like
    `_symbol_grid`. Vectorized backward pass over positions."""
    grid = _symbol_grid(len(props), length)
    count = len(grid[0]) if length else 1
    bit_of = {p: i for i, p in enumerate(props)}
    memo: dict[int, list[np.ndarray]] = {}

    def columns(node: Formula) -> list[np.ndarray]:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, TrueFormula):
            result = [np.ones(count, dtype=bool)] * length
        elif isinstance(node, FalseFormula):
            result = [np.zeros(count, dtype=bool)] * length
        elif isinstance(node, Prop):
            bit = bit_of[node.name]
            result = [(grid[t] >> bit & 1).astype(bool) for t in range(length)]
        elif isinstance(node, Not):
            result = [~c for c in columns(node.operand)]
        elif isinstance(node, And):
            result = [a & b for a, b in zip(columns(node.left), columns(node.right))]
        elif isinstance(node, Or):
            result = [a | b for a, b in zip(columns(node.left), columns(node.right))]
        elif isinstance(node, Implies):
            result = [~a | b for a, b in zip(columns(node.left), columns(node.right))]
        elif isinstance(node, Next):
            inner = columns(node.operand)
            result = [inner[t + 1] if t + 1 < length else np.zeros(count, dtype=bool) for t in range(length)]
        elif isinstance(node, WeakNext):
            inner = columns(node.operand)
            result = [inner[t + 1] if t + 1 < length else np.ones(count, dtype=bool) for t in range(length)]
        elif isinstance(node, (Until, Release)):
            left, right = columns(node.left), columns(node.right)
            result = [None] * length
            result[length - 1] = right[length - 1]
            for t in range(length - 2, -1, -1):
                if isinstance(node, Until):
                    result[t] = right[t] | (left[t] & result[t + 1])
                else:
                    result[t] = right[t] & (left[t] | result[t + 1])
        elif isinstance(node, (Always, Eventually)):
            inner = columns(node.operand)
            result = [None] * length
            result[length - 1] = inner[length - 1]
            for t in range(length - 2, -1, -1):
                if isinstance(node, Always):
                    result[t] = inner[t] & result[t + 1]
                else:
                    result[t] = inner[t] | result[t + 1]
        else:
            raise TypeError(f"not a formula: {node!r}")
        memo[id(node)] = result
        return result

    return columns(f)[0]


def bulk_accept(dfa, length: int) -> np.ndarray:
    """DFA acceptance on every trace of exactly `length`, indexed like
    `bulk_evaluate(..., list(dfa.props), length)`."""
    grid = _symbol_grid(len(dfa.props), length)
    transitions = np.asarray(dfa.transitions)
    count = len(grid[0]) if length else 1
    state = np.full(count, dfa.initial)
    for t in range(length):
        state = transitions[state, grid[t]]
    accepting = np.zeros(dfa.num_states, dtype=bool)
    for s in dfa.accepting:
        accepting[s] = True
    return accepting[state]


def agree_on_all_traces(formula: Formula, dfa, max_length: int) -> bool:
    """Exhaustive DFA-vs-oracle agreement over every trace up to max_length."""
    props = list(dfa.props)
    for length in range(1, max_length + 1):
        if not np.array_equal(bulk_evaluate(formula, props, length), bulk_accept(dfa, length)):
            return False
    return True


def reference_run(d, masks) -> tuple[bytes, int]:
    """What ``d.run(masks)`` returns, stepping every mask: the verdict code
    after each step, and the state the run ended in (the first permanently
    decided one, whose code then fills the rest of the trace)."""
    successors = d.successors
    verdict_codes = d.verdict_codes
    width = d.alphabet_size
    permanent_below = CODE_PRESUMABLY_TRUE
    state = d.initial
    codes = bytearray()
    append = codes.append
    for mask in masks:
        state = successors[state * width + mask]
        code = verdict_codes[state]
        append(code)
        if code < permanent_below:
            codes += bytes((code,)) * (len(masks) - len(codes))
            break
    return bytes(codes), state


def runs_of(codes: bytes) -> tuple[bytes, tuple[int, ...]]:
    """Per-step verdict codes in the run form ``Dfa.run`` returns: one code
    per maximal run of equal codes, and each run's end offset."""
    run_codes, ends = bytearray(), []
    for t, code in enumerate(codes):
        if run_codes and run_codes[-1] == code:
            ends[-1] = t + 1
        else:
            run_codes.append(code)
            ends.append(t + 1)
    return bytes(run_codes), tuple(ends)


def per_step(codes: bytes, ends) -> bytes:
    """The run form ``codes``, ``ends`` as one code per step."""
    steps = bytearray()
    for code, end in zip(codes, ends, strict=True):
        while len(steps) < end:
            steps.append(code)
    return bytes(steps)


#: The verdict each ``CODE_*`` byte stands for, as the monitor report writes it.
_VERDICT_TEXTS = {CODE_TRUE: "T", CODE_FALSE: "F", CODE_PRESUMABLY_TRUE: "pt", CODE_PRESUMABLY_FALSE: "pf"}


def reference_monitor_result(codes: bytes, final_satisfied: bool) -> dict:
    """Every value a monitor result derives from its verdict ``codes`` and
    ``final_satisfied``, by name, read from the definitions in the
    ``safetrace.monitor`` docstring one step at a time."""
    verdicts = [_VERDICT_TEXTS[code] for code in codes]
    false_steps = [t for t, v in enumerate(verdicts) if v == "F"]
    unsafe = [v in ("F", "pf") for v in verdicts]
    violated = bool(false_steps)
    return {
        "verdicts": verdicts,
        "violated": violated,
        "violation_timestep": false_steps[0] if false_steps else None,
        "unsafe_steps": sum(unsafe),
        "length": len(verdicts),
        "exposure": Fraction(sum(unsafe), len(verdicts)),
        "violation_kind": "mid" if violated else None if final_satisfied else "end",
        "violates(True)": violated or not final_satisfied,
        "violates(False)": violated,
    }


_LEAF_PROPS = ("a", "b", "c", "d")


def random_formula(rng: random.Random, max_depth: int, props=_LEAF_PROPS) -> Formula:
    """Structural fuzzer over the full operator set."""
    if max_depth == 0 or rng.random() < 0.18:
        roll = rng.random()
        if roll < 0.08:
            return TRUE
        if roll < 0.16:
            return FALSE
        return Prop(rng.choice(props))
    kind = rng.randrange(10)
    if kind == 0:
        return Not(random_formula(rng, max_depth - 1, props))
    if kind == 1:
        return Next(random_formula(rng, max_depth - 1, props))
    if kind == 2:
        return WeakNext(random_formula(rng, max_depth - 1, props))
    if kind == 3:
        return Always(random_formula(rng, max_depth - 1, props))
    if kind == 4:
        return Eventually(random_formula(rng, max_depth - 1, props))
    binary = (And, Or, Implies, Until, Release)[kind - 5]
    return binary(
        random_formula(rng, max_depth - 1, props),
        random_formula(rng, max_depth - 1, props),
    )


def random_trace(rng: random.Random, props, length: int) -> Trace:
    return Trace(
        [frozenset(p for p in props if rng.random() < 0.4) for _ in range(length)]
    )


class ReferenceDecodeError(ValueError):
    """Raised by `reference_trace`; the message matches the package's."""


_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_RESERVED = {"true", "false", "U", "R", "X", "WX", "G", "F"}


def _reference_valuation(step, t: int) -> frozenset:
    if isinstance(step, list):
        names = step
    elif isinstance(step, dict):
        names = [p for p, v in step.items() if v is True]
        bad = [p for p, v in step.items() if not isinstance(v, bool)]
        if bad:
            raise ReferenceDecodeError(f"step {t}: non-boolean values for {sorted(bad, key=str)}")
    else:
        raise ReferenceDecodeError(
            f"step {t}: expected a list or mapping, got {type(step).__name__}"
        )
    for p in names:
        if not (isinstance(p, str) and _NAME.fullmatch(p) and p not in _RESERVED):
            raise ReferenceDecodeError(f"step {t}: invalid proposition {p!r}")
    return frozenset(names)


def reference_trace(raw_trace, declared=None) -> list[frozenset]:
    """The valuations of a rollout document's ``trace`` (sparse lists, dense
    boolean maps or ``{"t", "props"}`` objects), decoded step by step and
    checked against ``declared`` names when given."""
    if not isinstance(raw_trace, list):
        raise ReferenceDecodeError("'trace' must be a list of steps")
    if not raw_trace:
        raise ReferenceDecodeError("'trace' must contain at least one step")
    if isinstance(raw_trace[0], dict) and "t" in raw_trace[0]:
        by_time = {}
        for entry in raw_trace:
            if not isinstance(entry, dict) or "t" not in entry:
                raise ReferenceDecodeError("mixed step forms: every step needs a 't' field here")
            t = entry["t"]
            if type(t) is not int or t < 0:
                raise ReferenceDecodeError(f"invalid timestep {t!r}")
            if t in by_time:
                raise ReferenceDecodeError(f"duplicate timestep {t}")
            unknown = [key for key in entry if key not in ("t", "props")]
            if unknown:
                raise ReferenceDecodeError(f"step {t}: unknown keys {sorted(unknown, key=str)}")
            by_time[t] = _reference_valuation(entry.get("props", []), t)
        missing = [t for t in range(max(by_time) + 1) if t not in by_time]
        if missing:
            raise ReferenceDecodeError(f"missing timesteps: {missing[:5]}")
        steps = [by_time[t] for t in range(len(by_time))]
    else:
        steps = [_reference_valuation(step, t) for t, step in enumerate(raw_trace)]
    if declared is not None:
        declared = set(declared)
        for t, valuation in enumerate(steps):
            undeclared = valuation - declared
            if undeclared:
                raise ReferenceDecodeError(
                    f"step {t} uses undeclared propositions: {sorted(undeclared)}"
                )
    return steps


def _violated(evaluation, instance_id) -> bool:
    result = evaluation.per_instance[instance_id]
    return result.violated or (evaluation.strict_end and not result.final_satisfied)


def _exposure(evaluation, instance_ids) -> Fraction:
    """Share of steps at which at least one of the instances is unsafe."""
    unsafe_steps = set()
    for instance_id in instance_ids:
        codes = evaluation.per_instance[instance_id].verdict_codes
        unsafe_steps |= {t for t, c in enumerate(codes) if c in (CODE_FALSE, CODE_PRESUMABLY_FALSE)}
    return Fraction(len(unsafe_steps), evaluation.length)


def _reference_table(rows, denominator, preferred) -> dict:
    """Table rows from (key, task, violated, exposure) tuples."""
    keys = {key for key, _, _, _ in rows}
    table = {}
    for key in [k for k in preferred if k in keys] + sorted(keys - set(preferred)):
        members = [(task, violated, exposure) for k, task, violated, exposure in rows if k == key]
        if denominator == "task":
            tasks = sorted({task for task, _, _ in members})
            per_task = [[(v, x) for t, v, x in members if t == task] for task in tasks]
            violation_rate = sum(Fraction(sum(v for v, _ in g), len(g)) for g in per_task) / len(tasks)
            mean_exposure = sum(sum(x for _, x in g) / len(g) for g in per_task) / len(tasks)
        else:
            violation_rate = Fraction(sum(v for _, v, _ in members), len(members))
            mean_exposure = sum(x for _, _, x in members) / len(members)
        table[key] = TableRow(len(members), Fraction(violation_rate), Fraction(mean_exposure))
    return table


def _reference_pooled(rollouts) -> PolicyRow:
    """Pooled rates from (success, unsafe, exposure) triples."""
    n = len(rollouts)
    outcomes = {
        Outcome.SUCCESS_SAFE: (True, False),
        Outcome.SUCCESS_UNSAFE: (True, True),
        Outcome.FAIL_SAFE: (False, False),
        Outcome.FAIL_UNSAFE: (False, True),
    }
    successes = [unsafe for success, unsafe, _ in rollouts if success]
    return PolicyRow(
        rollouts=n,
        success_rate=Fraction(len(successes), n),
        violation_rate=Fraction(sum(unsafe for _, unsafe, _ in rollouts), n),
        mean_exposure=Fraction(sum(x for _, _, x in rollouts)) / n,
        outcome_shares={
            o: Fraction(sum((s, u) == pair for s, u, _ in rollouts), n)
            for o, pair in outcomes.items()
        },
        unsafe_success_share=Fraction(sum(successes), len(successes)) if successes else None,
    )


def reference_report(evaluations, denominator) -> EvaluationReport:
    """The aggregate report of ``evaluations``, one rollout at a time."""
    tables = {"template": [], "category": [], "suite": [], "horizon": []}
    pooled = []
    for e in evaluations:
        members = {"template": {}, "category": {}}
        for instance_id, m in e.instance_meta.items():
            members["template"].setdefault(m.template_id, []).append(instance_id)
            if m.category is not None:
                members["category"].setdefault(m.category.value, []).append(instance_id)
        for dimension, groups in members.items():
            for key, ids in groups.items():
                violated = any(_violated(e, i) for i in ids)
                tables[dimension].append((key, e.task_name, violated, _exposure(e, ids)))
        unsafe = any(_violated(e, i) for i in e.per_instance)
        exposure = _exposure(e, e.per_instance)
        tables["suite"].append((e.suite, e.task_name, unsafe, exposure))
        tables["horizon"].append((e.horizon, e.task_name, unsafe, exposure))
        pooled.append((e.policy, (e.success, unsafe, exposure)))
    overall = _reference_pooled([r for _, r in pooled])
    policies = sorted({policy for policy, _ in pooled})
    return EvaluationReport(
        n_rollouts=overall.rollouts,
        task_success_rate=overall.success_rate,
        overall_violation_rate=overall.violation_rate,
        mean_rollout_exposure=overall.mean_exposure,
        outcome_shares=overall.outcome_shares,
        unsafe_success_share=overall.unsafe_success_share,
        per_template=_reference_table(
            tables["template"], denominator, list(TEMPLATE_IDS) + [CUSTOM_TEMPLATE]
        ),
        per_category=_reference_table(
            tables["category"], denominator, [c.value for c in SafetyCategory]
        ),
        per_suite=_reference_table(tables["suite"], denominator, SUITES),
        per_horizon=_reference_table(tables["horizon"], denominator, HORIZONS),
        per_policy={
            policy: _reference_pooled([r for p, r in pooled if p == policy]) for policy in policies
        },
        denominator_mode=denominator,
    )


def reference_monitor_text(evaluation) -> str:
    """The monitor report of one evaluation: a document of dicts and lists,
    dumped with sorted keys and two-space indents."""
    instances = []
    for instance_id in sorted(evaluation.per_instance):
        result = evaluation.per_instance[instance_id]
        m = evaluation.instance_meta[instance_id]
        # Read off the per-step codes, not from the result's run readers.
        codes = result.verdict_codes
        first_false = codes.find(CODE_FALSE)
        unsafe = codes.count(CODE_FALSE) + codes.count(CODE_PRESUMABLY_FALSE)
        kind = "mid" if first_false != -1 else None if result.final_satisfied else "end"
        instances.append(
            {
                "property_id": instance_id,
                "category": m.category.value if m.category is not None else None,
                "violated": m.violated,
                "violation_kind": kind if (kind == "mid" or m.violated) else None,
                "violation_timestep": first_false if first_false != -1 else None,
                "unsafe_steps": unsafe,
                "exposure": float(Fraction(unsafe, len(codes))),
                "final_satisfied": result.final_satisfied,
                "verdicts": [v.value for v in result.verdicts],
            }
        )
    # Read from the instances, not from the evaluation's ``unsafe`` and ``rollout_exposure``.
    unsafe = any(m.violated for m in evaluation.instance_meta.values())
    outcome = ("success_" if evaluation.success else "fail_") + ("unsafe" if unsafe else "safe")
    document = {
        "rollout_id": evaluation.rollout_id,
        "task": evaluation.task_name,
        "policy": evaluation.policy,
        "success": evaluation.success,
        "unsafe": unsafe,
        "outcome": outcome,
        "rollout_exposure": float(_exposure(evaluation, evaluation.per_instance)),
        "instances": instances,
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _mirror(name: str, *fields, **options) -> type:
    """A frozen dataclass ``name`` with ``fields``: each a name, or a
    ``(name, default)`` or ``(name, dataclasses.field(...))`` pair."""
    specs = [(f, object) if isinstance(f, str) else (f[0], object, f[1]) for f in fields]
    return dataclasses.make_dataclass(name, specs, frozen=True, **options)


_UNARY = ("Not", "Next", "WeakNext", "Always", "Eventually")
_BINARY = ("And", "Or", "Implies", "Until", "Release")

#: Record class name -> its dataclass mirror.
RECORD_MIRRORS = {
    mirror.__name__: mirror
    for mirror in (
        *(_mirror(name, slots=True) for name in ("Formula", "TrueFormula", "FalseFormula")),
        _mirror("Prop", "name", slots=True),
        _mirror("Trace", "steps", slots=True),
        _mirror(
            "Dfa", "props", "initial", "accepting", "transitions",
            *((name, dataclasses.field(compare=False, repr=False)) for name in ("successors", "verdict_codes", "_labels")),
        ),
        *(_mirror(name, "operand", slots=True) for name in _UNARY),
        *(_mirror(name, "left", "right", slots=True) for name in _BINARY),
        _mirror("InstanceMeta", "template_id", "category", "violated", "unsafe_flag_bytes"),
        _mirror(
            "RolloutEvaluation", "rollout_id", "task_name", "suite", "horizon", "policy",
            "success", "length", "strict_end", "runs",
        ),
        _mirror("TableRow", "applicable_rollouts", "violation_rate", "mean_exposure"),
        _mirror(
            "PolicyRow", "rollouts", "success_rate", "violation_rate", "mean_exposure",
            "outcome_shares", "unsafe_success_share",
        ),
        _mirror(
            "EvaluationReport", "n_rollouts", "task_success_rate", "overall_violation_rate",
            "mean_rollout_exposure", "outcome_shares", "unsafe_success_share", "per_template",
            "per_category", "per_suite", "per_horizon", "per_policy", "denominator_mode",
        ),
        _mirror("MonitorResult", "codes", "ends", "final_satisfied"),
        _mirror("PropertyTemplate", "template_id", "category", "formula", "slots", "description"),
        _mirror(
            "PropertyInstance", "instance_id", "template_id", "bindings", "formula", "category",
            ("dfa", dataclasses.field(compare=False, repr=False)),
        ),
        _mirror("TaskSpec", "task_name", "suite", "horizon", "instances"),
        _mirror(
            "RolloutRecord", "rollout_id", "task_name", "policy", "success",
            ("valuations", dataclasses.field(repr=False)),
            ("run_ids", dataclasses.field(repr=False)),
            ("run_ends", dataclasses.field(repr=False)),
            ("declared_props", None),
        ),
        _mirror("Diagnostic", "code", "message"),
        _mirror(
            "ScenarioParams", "scenario_id", "length", "seed", ("flip_rate", 0.05)
        ),
        _mirror(
            "ScenarioInfo", "scenario_id", "task_name", "suite", "horizon", "min_length",
            "default_length", "success", "violates", "violation_kind", "target_template",
            "properties", "description", ("script", dataclasses.field(compare=False, repr=False)),
        ),
    )
}
