"""Joint task-success / temporal-safety metrics over rollout collections.

Each rollout is monitored against every property instance of its task spec.
A rollout is unsafe when at least one instance is violated; crossing that
with the environment success flag gives the four-way outcome decomposition
(success-and-safe, success-but-unsafe, fail-but-safe, fail-and-unsafe).
Rollout-level unsafe-state exposure is the fraction of timesteps at which at
least one instance sat in an unsafe verdict (the union of per-instance unsafe
steps, so overlapping violations are not double-counted).

Aggregation reports overall rates plus per-template, per-category, per-suite,
per-horizon, and per-policy tables. Per-template and per-category rates only
count rollouts whose spec actually monitored that template or category
("applicable" rollouts). Conditional metrics with an empty denominator (the
unsafe share among successes when nothing succeeded) are reported as
``None``/``null``, never as zero. All rates are exact fractions; exports
carry both the exact form and a float approximation.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import SafetraceError
from .monitor import MonitorResult, run_masks
from .properties import SafetyCategory, TaskSpec, TEMPLATE_IDS, CUSTOM_TEMPLATE, SUITES, HORIZONS
from .rollouts import RolloutRecord

__all__ = [
    "Outcome",
    "InstanceMeta",
    "RolloutEvaluation",
    "TableRow",
    "PolicyRow",
    "EvaluationReport",
    "evaluate_rollout",
    "aggregate",
    "monitor_report_document",
    "export_report",
    "export_report_json",
    "export_report_csv",
    "export_plot_data",
    "load_report",
]


class Outcome(Enum):
    SUCCESS_SAFE = "success_safe"
    SUCCESS_UNSAFE = "success_unsafe"
    FAIL_SAFE = "fail_safe"
    FAIL_UNSAFE = "fail_unsafe"


def _outcome(success: bool, unsafe: bool) -> Outcome:
    if success:
        return Outcome.SUCCESS_UNSAFE if unsafe else Outcome.SUCCESS_SAFE
    return Outcome.FAIL_UNSAFE if unsafe else Outcome.FAIL_SAFE


@dataclass(frozen=True)
class InstanceMeta:
    template_id: str
    category: SafetyCategory | None
    violated: bool  # effective, under the evaluation's end-of-trace rule
    unsafe_flag_bytes: bytes  # per-step 0/1


@dataclass(frozen=True)
class RolloutEvaluation:
    """One rollout crossed with one task spec: monitor results and outcome."""

    rollout_id: str
    task_name: str
    suite: str
    horizon: str
    policy: str
    success: bool
    unsafe: bool
    outcome: Outcome
    rollout_exposure: Fraction
    length: int
    strict_end: bool
    per_instance: dict[str, MonitorResult]
    instance_meta: dict[str, InstanceMeta]


def evaluate_rollout(
    record: RolloutRecord,
    spec: TaskSpec,
    *,
    strict_end: bool = True,
    allow_task_mismatch: bool = False,
) -> RolloutEvaluation:
    """Monitor every instance of ``spec`` over the rollout's trace.

    ``strict_end`` controls whether ending in a rejecting state (an unmet
    obligation at the horizon) counts as a violation alongside absorbing
    mid-trace failures.
    """
    if record.task_name != spec.task_name and not allow_task_mismatch:
        raise SafetraceError(
            f"rollout task {record.task_name!r} does not match spec task "
            f"{spec.task_name!r} (pass allow_task_mismatch to override)"
        )
    n = len(record.trace)
    # Sparse occurrence lists: proposition -> steps where it is true.
    occurrences: dict[str, list[int]] = {}
    for t, valuation in enumerate(record.trace):
        for p in valuation:
            occurrences.setdefault(p, []).append(t)

    per_instance: dict[str, MonitorResult] = {}
    meta: dict[str, InstanceMeta] = {}
    union_flags = 0
    for inst in spec.instances:
        masks = bytearray(n)
        for bit, prop in enumerate(inst.dfa.props):
            flag = 1 << bit
            for t in occurrences.get(prop, ()):
                masks[t] |= flag
        result = run_masks(inst.dfa, masks)
        per_instance[inst.instance_id] = result
        flags = result.unsafe_flags()
        union_flags |= int.from_bytes(flags, "big")
        meta[inst.instance_id] = InstanceMeta(
            template_id=inst.template_id,
            category=inst.category,
            violated=result.violates(strict_end),
            unsafe_flag_bytes=flags,
        )

    unsafe_steps = sum(union_flags.to_bytes(n, "big"))
    unsafe = any(m.violated for m in meta.values())
    return RolloutEvaluation(
        rollout_id=record.rollout_id,
        task_name=record.task_name,
        suite=spec.suite,
        horizon=spec.horizon,
        policy=record.policy,
        success=record.success,
        unsafe=unsafe,
        outcome=_outcome(record.success, unsafe),
        rollout_exposure=Fraction(unsafe_steps, n),
        length=n,
        strict_end=strict_end,
        per_instance=per_instance,
        instance_meta=meta,
    )


def monitor_report_document(evaluation: RolloutEvaluation) -> dict:
    """JSON-ready per-instance monitor report for one rollout."""
    instances = []
    for instance_id in sorted(evaluation.per_instance):
        result = evaluation.per_instance[instance_id]
        m = evaluation.instance_meta[instance_id]
        kind = result.violation_kind
        instances.append(
            {
                "property_id": instance_id,
                "category": m.category.value if m.category is not None else None,
                "violated": m.violated,
                "violation_kind": kind if (kind == "mid" or m.violated) else None,
                "violation_timestep": result.violation_timestep,
                "unsafe_steps": result.unsafe_steps,
                "exposure": float(result.exposure),
                "final_satisfied": result.final_satisfied,
                "verdicts": [v.value for v in result.verdicts],
            }
        )
    return {
        "rollout_id": evaluation.rollout_id,
        "task": evaluation.task_name,
        "policy": evaluation.policy,
        "success": evaluation.success,
        "unsafe": evaluation.unsafe,
        "outcome": evaluation.outcome.value,
        "rollout_exposure": float(evaluation.rollout_exposure),
        "instances": instances,
    }


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    applicable_rollouts: int
    violation_rate: Fraction
    mean_exposure: Fraction


@dataclass(frozen=True)
class PolicyRow:
    rollouts: int
    success_rate: Fraction
    violation_rate: Fraction
    mean_exposure: Fraction
    outcome_shares: dict[Outcome, Fraction]
    unsafe_success_share: Fraction | None


@dataclass(frozen=True)
class EvaluationReport:
    n_rollouts: int
    task_success_rate: Fraction
    overall_violation_rate: Fraction
    mean_rollout_exposure: Fraction
    outcome_shares: dict[Outcome, Fraction]
    unsafe_success_share: Fraction | None
    per_template: dict[str, TableRow]
    per_category: dict[str, TableRow]
    per_suite: dict[str, TableRow]
    per_horizon: dict[str, TableRow]
    per_policy: dict[str, PolicyRow]
    denominator_mode: str


def _union_exposure(evaluation: RolloutEvaluation, instance_ids: Iterable[str]) -> Fraction:
    union = 0
    for instance_id in instance_ids:
        union |= int.from_bytes(evaluation.instance_meta[instance_id].unsafe_flag_bytes, "big")
    return Fraction(sum(union.to_bytes(evaluation.length, "big")), evaluation.length)


def _mean(values: Sequence[Fraction]) -> Fraction:
    return sum(values, Fraction(0)) / len(values)


def _grouped_table(
    per_rollout: list[tuple[str, str, bool, Fraction]], mode: str
) -> dict[str, TableRow]:
    """Rows keyed by group from (group_key, task_name, violated, exposure)
    tuples, one per applicable rollout. ``mode`` selects the denominator:
    ``rollout`` pools rollouts; ``task`` macro-averages per-task rates."""
    grouped: dict[str, list[tuple[str, bool, Fraction]]] = {}
    for key, task, violated, exposure in per_rollout:
        grouped.setdefault(key, []).append((task, violated, exposure))
    table = {}
    for key, rows in grouped.items():
        if mode == "task":
            by_task: dict[str, list[tuple[bool, Fraction]]] = {}
            for task, violated, exposure in rows:
                by_task.setdefault(task, []).append((violated, exposure))
            rates = []
            exposures = []
            for entries in by_task.values():
                rates.append(Fraction(sum(1 for v, _ in entries if v), len(entries)))
                exposures.append(_mean([e for _, e in entries]))
            violation_rate = _mean(rates)
            mean_exposure = _mean(exposures)
        else:
            violation_rate = Fraction(sum(1 for _, v, _ in rows if v), len(rows))
            mean_exposure = _mean([e for _, _, e in rows])
        table[key] = TableRow(
            applicable_rollouts=len(rows),
            violation_rate=violation_rate,
            mean_exposure=mean_exposure,
        )
    return table


def _ordered(table: dict[str, TableRow], preferred: Sequence[str]) -> dict[str, TableRow]:
    ordered = {k: table[k] for k in preferred if k in table}
    for k in sorted(table):
        ordered.setdefault(k, table[k])
    return ordered


def aggregate(
    evaluations: Sequence[RolloutEvaluation], *, denominator: str = "rollout"
) -> EvaluationReport:
    """Fold per-rollout evaluations into the full report.

    Order-independent; raises on an empty collection or duplicate rollout
    ids. ``denominator`` selects per-template/per-category denominators:
    ``"rollout"`` pools applicable rollouts, ``"task"`` macro-averages the
    per-task rates.
    """
    if not evaluations:
        raise SafetraceError("cannot aggregate an empty evaluation collection")
    if denominator not in ("rollout", "task"):
        raise SafetraceError(f"unknown denominator mode {denominator!r}")
    ids = Counter(e.rollout_id for e in evaluations)
    if len(ids) != len(evaluations):
        duplicates = sorted(i for i, count in ids.items() if count > 1)
        raise SafetraceError(f"duplicate rollout_id in evaluation batch: {duplicates}")
    evaluations = sorted(evaluations, key=lambda e: e.rollout_id)

    n = len(evaluations)
    counts = {outcome: 0 for outcome in Outcome}
    for e in evaluations:
        counts[e.outcome] += 1
    shares = {outcome: Fraction(c, n) for outcome, c in counts.items()}
    successes = counts[Outcome.SUCCESS_SAFE] + counts[Outcome.SUCCESS_UNSAFE]
    unsafe_successes = counts[Outcome.SUCCESS_UNSAFE]

    template_rows = []
    category_rows = []
    for e in evaluations:
        by_template: dict[str, list[str]] = {}
        by_category: dict[str, list[str]] = {}
        for instance_id, m in e.instance_meta.items():
            by_template.setdefault(m.template_id, []).append(instance_id)
            if m.category is not None:
                by_category.setdefault(m.category.value, []).append(instance_id)
        for template_id, instance_ids in by_template.items():
            violated = any(e.instance_meta[i].violated for i in instance_ids)
            template_rows.append(
                (template_id, e.task_name, violated, _union_exposure(e, instance_ids))
            )
        for category, instance_ids in by_category.items():
            violated = any(e.instance_meta[i].violated for i in instance_ids)
            category_rows.append(
                (category, e.task_name, violated, _union_exposure(e, instance_ids))
            )

    suite_rows = [(e.suite, e.task_name, e.unsafe, e.rollout_exposure) for e in evaluations]
    horizon_rows = [(e.horizon, e.task_name, e.unsafe, e.rollout_exposure) for e in evaluations]

    per_policy = {}
    for policy in sorted({e.policy for e in evaluations}):
        group = [e for e in evaluations if e.policy == policy]
        g_counts = {outcome: 0 for outcome in Outcome}
        for e in group:
            g_counts[e.outcome] += 1
        g_n = len(group)
        g_successes = g_counts[Outcome.SUCCESS_SAFE] + g_counts[Outcome.SUCCESS_UNSAFE]
        per_policy[policy] = PolicyRow(
            rollouts=g_n,
            success_rate=Fraction(g_successes, g_n),
            violation_rate=Fraction(sum(1 for e in group if e.unsafe), g_n),
            mean_exposure=_mean([e.rollout_exposure for e in group]),
            outcome_shares={o: Fraction(c, g_n) for o, c in g_counts.items()},
            unsafe_success_share=(
                Fraction(g_counts[Outcome.SUCCESS_UNSAFE], g_successes) if g_successes else None
            ),
        )

    category_order = [c.value for c in SafetyCategory]
    return EvaluationReport(
        n_rollouts=n,
        task_success_rate=Fraction(successes, n),
        overall_violation_rate=shares[Outcome.SUCCESS_UNSAFE] + shares[Outcome.FAIL_UNSAFE],
        mean_rollout_exposure=_mean([e.rollout_exposure for e in evaluations]),
        outcome_shares=shares,
        unsafe_success_share=Fraction(unsafe_successes, successes) if successes else None,
        per_template=_ordered(
            _grouped_table(template_rows, denominator), list(TEMPLATE_IDS) + [CUSTOM_TEMPLATE]
        ),
        per_category=_ordered(_grouped_table(category_rows, denominator), category_order),
        per_suite=_ordered(_grouped_table(suite_rows, denominator), SUITES),
        per_horizon=_ordered(_grouped_table(horizon_rows, denominator), HORIZONS),
        per_policy=per_policy,
        denominator_mode=denominator,
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _rate_json(value: Fraction | None):
    if value is None:
        return None
    return {
        "exact": f"{value.numerator}/{value.denominator}",
        "approx": float(value),
    }


def _rate_from_json(value) -> Fraction | None:
    if value is None:
        return None
    numerator, denominator = value["exact"].split("/")
    return Fraction(int(numerator), int(denominator))


def export_report_json(report: EvaluationReport) -> str:
    """Canonical JSON: sorted keys, exact fractions alongside floats,
    byte-identical across repeated exports of equal reports."""

    def table_json(table: Mapping[str, TableRow]) -> dict:
        return {
            key: {
                "applicable_rollouts": row.applicable_rollouts,
                "violation_rate": _rate_json(row.violation_rate),
                "mean_exposure": _rate_json(row.mean_exposure),
            }
            for key, row in table.items()
        }

    doc = {
        "n_rollouts": report.n_rollouts,
        "task_success_rate": _rate_json(report.task_success_rate),
        "overall_violation_rate": _rate_json(report.overall_violation_rate),
        "mean_rollout_exposure": _rate_json(report.mean_rollout_exposure),
        "outcome_shares": {
            o.value: _rate_json(report.outcome_shares[o]) for o in Outcome
        },
        "unsafe_success_share": _rate_json(report.unsafe_success_share),
        "per_template": table_json(report.per_template),
        "per_category": table_json(report.per_category),
        "per_suite": table_json(report.per_suite),
        "per_horizon": table_json(report.per_horizon),
        "per_policy": {
            policy: {
                "rollouts": row.rollouts,
                "success_rate": _rate_json(row.success_rate),
                "violation_rate": _rate_json(row.violation_rate),
                "mean_exposure": _rate_json(row.mean_exposure),
                "outcome_shares": {
                    o.value: _rate_json(row.outcome_shares[o]) for o in Outcome
                },
                "unsafe_success_share": _rate_json(row.unsafe_success_share),
            }
            for policy, row in report.per_policy.items()
        },
        "denominator_mode": report.denominator_mode,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_report(text: str) -> EvaluationReport:
    """Rebuild a report from its JSON export (exact rates included)."""
    doc = json.loads(text)

    def table_rows(data: dict) -> dict[str, TableRow]:
        return {
            key: TableRow(
                applicable_rollouts=row["applicable_rollouts"],
                violation_rate=_rate_from_json(row["violation_rate"]),
                mean_exposure=_rate_from_json(row["mean_exposure"]),
            )
            for key, row in data.items()
        }

    return EvaluationReport(
        n_rollouts=doc["n_rollouts"],
        task_success_rate=_rate_from_json(doc["task_success_rate"]),
        overall_violation_rate=_rate_from_json(doc["overall_violation_rate"]),
        mean_rollout_exposure=_rate_from_json(doc["mean_rollout_exposure"]),
        outcome_shares={o: _rate_from_json(doc["outcome_shares"][o.value]) for o in Outcome},
        unsafe_success_share=_rate_from_json(doc["unsafe_success_share"]),
        per_template=table_rows(doc["per_template"]),
        per_category=table_rows(doc["per_category"]),
        per_suite=table_rows(doc["per_suite"]),
        per_horizon=table_rows(doc["per_horizon"]),
        per_policy={
            policy: PolicyRow(
                rollouts=row["rollouts"],
                success_rate=_rate_from_json(row["success_rate"]),
                violation_rate=_rate_from_json(row["violation_rate"]),
                mean_exposure=_rate_from_json(row["mean_exposure"]),
                outcome_shares={
                    o: _rate_from_json(row["outcome_shares"][o.value]) for o in Outcome
                },
                unsafe_success_share=_rate_from_json(row["unsafe_success_share"]),
            )
            for policy, row in doc["per_policy"].items()
        },
        denominator_mode=doc["denominator_mode"],
    )


def export_report(report: EvaluationReport, format: str) -> dict[str, str]:
    """Dispatch on ``format`` (``json`` or ``csv``); returns file name ->
    content. Unknown formats are an error."""
    if format == "json":
        return {"report.json": export_report_json(report)}
    if format == "csv":
        return export_report_csv(report)
    raise SafetraceError(f"unknown report format {format!r} (expected json or csv)")


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _rate_cells(value: Fraction | None) -> list[str]:
    if value is None:
        return ["", ""]
    return [f"{value.numerator}/{value.denominator}", repr(float(value))]


def export_report_csv(report: EvaluationReport) -> dict[str, str]:
    """One CSV per table, keyed by file name, with stable headers."""
    files = {}
    overall_rows = [
        ["n_rollouts", str(report.n_rollouts), str(report.n_rollouts)],
        ["task_success_rate", *_rate_cells(report.task_success_rate)],
        ["overall_violation_rate", *_rate_cells(report.overall_violation_rate)],
        ["mean_rollout_exposure", *_rate_cells(report.mean_rollout_exposure)],
        *[
            [f"share_{o.value}", *_rate_cells(report.outcome_shares[o])]
            for o in Outcome
        ],
        ["unsafe_success_share", *_rate_cells(report.unsafe_success_share)],
    ]
    files["overall.csv"] = _csv_text(["metric", "exact", "approx"], overall_rows)

    def table_csv(name: str, key_header: str, table: Mapping[str, TableRow]) -> None:
        rows = [
            [
                key,
                str(row.applicable_rollouts),
                *_rate_cells(row.violation_rate),
                *_rate_cells(row.mean_exposure),
            ]
            for key, row in table.items()
        ]
        files[name] = _csv_text(
            [
                key_header,
                "applicable_rollouts",
                "violation_rate_exact",
                "violation_rate",
                "mean_exposure_exact",
                "mean_exposure",
            ],
            rows,
        )

    table_csv("per_template.csv", "template", report.per_template)
    table_csv("per_category.csv", "category", report.per_category)
    table_csv("per_suite.csv", "suite", report.per_suite)
    table_csv("per_horizon.csv", "horizon", report.per_horizon)

    policy_rows = [
        [
            policy,
            str(row.rollouts),
            *_rate_cells(row.success_rate),
            *_rate_cells(row.violation_rate),
            *_rate_cells(row.mean_exposure),
            *_rate_cells(row.unsafe_success_share),
        ]
        for policy, row in report.per_policy.items()
    ]
    files["per_policy.csv"] = _csv_text(
        [
            "policy",
            "rollouts",
            "success_rate_exact",
            "success_rate",
            "violation_rate_exact",
            "violation_rate",
            "mean_exposure_exact",
            "mean_exposure",
            "unsafe_success_share_exact",
            "unsafe_success_share",
        ],
        policy_rows,
    )
    return files


def export_plot_data(evaluations: Sequence[RolloutEvaluation]) -> dict[str, str]:
    """Per-panel CSVs for downstream plotting.

    - success-vs-violation scatter, one point per policy;
    - stacked outcome shares per policy;
    - category heatmap cells (category x policy);
    - horizon and suite panels with the unsafe share among successes (cells
      with zero successes are left empty, marking the undefined metric).
    """
    evaluations = sorted(evaluations, key=lambda e: e.rollout_id)
    policies = sorted({e.policy for e in evaluations})

    def rate(group: list[RolloutEvaluation], predicate) -> Fraction:
        return Fraction(sum(1 for e in group if predicate(e)), len(group))

    files = {}
    scatter_rows = []
    share_rows = []
    for policy in policies:
        group = [e for e in evaluations if e.policy == policy]
        scatter_rows.append(
            [
                policy,
                repr(float(rate(group, lambda e: e.success))),
                repr(float(rate(group, lambda e: e.unsafe))),
            ]
        )
        n = len(group)
        share_rows.append(
            [policy]
            + [
                repr(float(Fraction(sum(1 for e in group if e.outcome is o), n)))
                for o in Outcome
            ]
        )
    files["plot_success_vs_violation.csv"] = _csv_text(
        ["policy", "task_success_rate", "violation_rate"], scatter_rows
    )
    files["plot_outcome_shares.csv"] = _csv_text(
        ["policy"] + [o.value for o in Outcome], share_rows
    )

    heat_rows = []
    for category in [c.value for c in SafetyCategory]:
        for policy in policies:
            cells = []
            for e in evaluations:
                if e.policy != policy:
                    continue
                instance_ids = [
                    i for i, m in e.instance_meta.items()
                    if m.category is not None and m.category.value == category
                ]
                if not instance_ids:
                    continue
                violated = any(e.instance_meta[i].violated for i in instance_ids)
                cells.append((violated, _union_exposure(e, instance_ids)))
            if not cells:
                continue
            heat_rows.append(
                [
                    category,
                    policy,
                    str(len(cells)),
                    repr(float(Fraction(sum(1 for v, _ in cells if v), len(cells)))),
                    repr(float(_mean([x for _, x in cells]))),
                ]
            )
    files["plot_category_heatmap.csv"] = _csv_text(
        ["category", "policy", "applicable_rollouts", "violation_rate", "mean_exposure"],
        heat_rows,
    )

    def panel(keys: Sequence[str], key_of, name: str, key_header: str) -> None:
        rows = []
        for key in keys:
            for policy in policies:
                group = [e for e in evaluations if e.policy == policy and key_of(e) == key]
                if not group:
                    continue
                successes = [e for e in group if e.success]
                unsafe_share = (
                    repr(float(rate(successes, lambda e: e.unsafe))) if successes else ""
                )
                rows.append(
                    [
                        key,
                        policy,
                        str(len(group)),
                        repr(float(rate(group, lambda e: e.unsafe))),
                        unsafe_share,
                    ]
                )
        files[name] = _csv_text(
            [key_header, "policy", "rollouts", "violation_rate", "unsafe_success_share"],
            rows,
        )

    panel(HORIZONS, lambda e: e.horizon, "plot_horizon_lines.csv", "horizon")
    panel(SUITES, lambda e: e.suite, "plot_suite_heatmap.csv", "suite")
    return files
