"""Joint task-success / temporal-safety metrics over rollout collections.

Each rollout is monitored against every property instance of its task spec.
A rollout is unsafe when at least one instance is violated; crossing that
with the environment success flag gives the four-way outcome decomposition
(success-and-safe, success-but-unsafe, fail-but-safe, fail-and-unsafe).
Exposure of a set of instances is the fraction of timesteps at which at
least one of them sat in an unsafe verdict (FALSE or PRESUMABLY_FALSE; the
union of their unsafe steps, so overlapping violations are not
double-counted); rollout exposure is that of all instances.

Aggregation reports overall rates plus per-template, per-category, per-suite,
per-horizon, and per-policy tables. Per-template and per-category rows only
count rollouts whose spec actually monitored that template or category
("applicable" rollouts); such a rollout is violated there when one of those
instances is, with the exposure of those instances. A row's violation rate
and mean exposure pool its rollouts, or, with ``denominator="task"``, are
the mean of the per-task rates (overall and per-policy rates always pool).
Conditional metrics with an empty denominator (the unsafe share among
successes when nothing succeeded) are reported as ``None``/``null``, never
as zero. All rates are exact fractions.

The record classes ``EvaluationReport``, ``TableRow`` and ``PolicyRow`` are
the report's schema: the exporters and ``load_report`` read their fields,
so the keys of ``report.json`` and the columns of the table CSVs are the
field names. A count is written as it is; a rate as its exact form and a
float approximation (``{"exact": "n/d", "approx": x}`` in JSON, the columns
``<field>_exact`` and ``<field>`` in CSV, both empty when undefined); a
nested row as an object of its fields, and ``overall.csv`` has a row per
count and rate field (``share_<outcome>`` for each outcome share).

Every table and plot panel is a projection of one fold, `ReportTally`:
count cells keyed by (dimension, key, policy, task) holding rollouts,
violated rollouts, successes, violated successes and the unsafe-step counts
per trace length, from which a projection builds the exact sum of
exposures. Projections add cells up, and `_pooled` alone turns a summed
cell into rates. An evaluation keeps per instance only what its monitor
found (``runs``: the verdict codes, whether the run ended accepting, the
instance's template, category and violation); all else is read from it, and
`ReportTally.add` unites the unsafe steps of each row a rollout counts in.
Integer counts make every projection independent of the evaluations'
order, and let tallies of parts of a batch merge into the tally of the
whole.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ._record import Record
from .automata import CODE_FALSE, CODE_PRESUMABLY_FALSE, _changes
from .errors import SafetraceError
from .monitor import _UNSAFE_FLAG_TABLE, MonitorResult, Verdict
from .properties import SafetyCategory, TaskSpec, TEMPLATE_IDS, CUSTOM_TEMPLATE, SUITES, HORIZONS
from .properties import _json_text, _read_json

if TYPE_CHECKING:  # an annotation only: importing rollouts compiles the scenario catalog
    from .rollouts import RolloutRecord

__all__ = [
    "Outcome",
    "InstanceMeta",
    "RolloutEvaluation",
    "TableRow",
    "PolicyRow",
    "EvaluationReport",
    "ReportTally",
    "evaluate_rollout",
    "aggregate",
    "monitor_report_json",
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


class InstanceMeta(Record):
    template_id: str
    category: SafetyCategory | None
    violated: bool  # effective, under the evaluation's end-of-trace rule
    unsafe_flag_bytes: bytes  # per-step 0/1


class RolloutEvaluation(Record):
    """One rollout crossed with one task spec: its monitor ``runs``, from which all else is read."""

    rollout_id: str
    task_name: str
    suite: str
    horizon: str
    policy: str
    success: bool
    length: int
    strict_end: bool
    # Instance id -> (verdict codes, ended accepting, template id, category,
    # violated under ``strict_end``), in spec order.
    runs: dict[str, tuple[bytes, bool, str, SafetyCategory | None, bool]]

    @property
    def unsafe(self) -> bool:
        return any(violated for *_, violated in self.runs.values())

    @property
    def rollout_exposure(self) -> Fraction:
        """The share of steps at which at least one instance was unsafe."""
        union = reduce(int.__or__, [_unsafe_bits(codes) for codes, *_ in self.runs.values()], 0)
        return Fraction(union.bit_count(), self.length)

    @property
    def outcome(self) -> Outcome:
        if self.success:
            return Outcome.SUCCESS_UNSAFE if self.unsafe else Outcome.SUCCESS_SAFE
        return Outcome.FAIL_UNSAFE if self.unsafe else Outcome.FAIL_SAFE

    # The views below are built from ``runs`` when first read and kept; they
    # are not fields, so they are neither compared nor pickled.
    @cached_property
    def per_instance(self) -> Mapping[str, MonitorResult]:
        """Instance id -> its monitor result, read-only."""
        results = {i: MonitorResult(codes, accepting) for i, (codes, accepting, *_) in self.runs.items()}
        return MappingProxyType(results)

    @cached_property
    def instance_meta(self) -> Mapping[str, InstanceMeta]:
        """Instance id -> its template, category, violation and unsafe flags, read-only."""
        meta = {
            i: InstanceMeta(template_id, category, violated, codes.translate(_UNSAFE_FLAG_TABLE))
            for i, (codes, _, template_id, category, violated) in self.runs.items()
        }
        return MappingProxyType(meta)


def evaluate_rollout(
    record: RolloutRecord,
    spec: TaskSpec,
    *,
    strict_end: bool = True,
) -> RolloutEvaluation:
    """Monitor every instance of ``spec`` over the rollout's trace: each
    instance's automaton runs over the record's runs, projected onto its
    propositions by :meth:`RolloutRecord.mask_runs`, once per run of equal
    masks (see :meth:`Dfa.run`).

    ``strict_end`` controls whether ending in a rejecting state (an unmet
    obligation at the horizon) counts as a violation alongside absorbing
    mid-trace failures. A rollout of another task than the spec's raises
    :class:`SafetraceError`.
    """
    if record.task_name != spec.task_name:
        raise SafetraceError(
            f"rollout task {record.task_name!r} does not match spec task {spec.task_name!r}"
        )
    runs: dict[str, tuple] = {}
    instances = spec.instances
    for inst, mask_runs in zip(instances, record.mask_runs(inst.dfa.props for inst in instances)):
        dfa = inst.dfa
        codes, state = dfa.run(*mask_runs)
        accepting = state in dfa.accepting
        violated = CODE_FALSE in codes or (strict_end and not accepting)
        runs[inst.instance_id] = (codes, accepting, inst.template_id, inst.category, violated)
    return RolloutEvaluation(
        rollout_id=record.rollout_id,
        task_name=record.task_name,
        suite=spec.suite,
        horizon=spec.horizon,
        policy=record.policy,
        success=record.success,
        length=record.run_ends[-1],
        strict_end=strict_end,
        runs=runs,
    )


def _unsafe_bits(codes: bytes) -> int:
    """The unsafe steps of ``codes`` as bits, the first step the highest."""
    return int.from_bytes(codes.translate(_UNSAFE_FLAG_TABLE), "big")


# The JSON text of the verdict each ``CODE_*`` byte stands for, and that
# text as a line of a report's ``"verdicts"`` array other than its last.
# ``_VERDICT_LINE`` is a list: the per-step path maps codes through its
# ``__getitem__``, a direct method on a list but a slot wrapper on a tuple,
# which ``map`` calls about half as fast.
_VERDICT_JSON = [json.dumps(v.value) for v in Verdict]
_VERDICT_LINE = [text + ",\n        " for text in _VERDICT_JSON]
# Numbers and booleans are written as ``json.dumps`` writes them (the repr
# of an int or a finite float, ``true``, ``false``, ``null``) without
# calling it: for anything but a string, ``json.dumps`` builds an encoder
# per call, about three times the cost of a string, and a report writes six
# such scalars per instance.
_JSON_BOOL = ("false", "true")


def _verdict_lines(codes: bytes, out: list[str]) -> None:
    """Append to ``out`` the verdicts of ``codes`` as the lines of a
    monitor report's ``"verdicts"`` array, without its brackets.

    A verdict repeats once it settles, so the lines are written one
    repeated string per run of equal codes, found as :meth:`Dfa.run` finds
    runs of equal masks. When runs average under 8 steps, one table entry
    per step is cheaper (a run costs about as much as 10 steps); both ways
    write the same text."""
    body = codes[:-1]  # every verdict but the last is followed by a comma
    changes = _changes(body)
    if changes.count(1) * 8 > len(body):
        out += map(_VERDICT_LINE.__getitem__, body)
    else:
        n, start = len(body), 0
        while start < n:
            stop = changes.find(1, start) + 1 or n
            out.append(_VERDICT_LINE[body[start]] * (stop - start))
            start = stop
    out.append(_VERDICT_JSON[codes[-1]])


def monitor_report_json(evaluation: RolloutEvaluation) -> str:
    """The per-instance monitor report for one rollout, as JSON text.

    The document has a fixed shape: eight top-level keys, and per property
    instance (in id order) nine keys, among them one verdict per timestep.
    The text is what ``json.dumps(document, sort_keys=True, indent=2)``
    writes for it, plus a newline; it is built from ``evaluation.runs``
    directly, and only strings go through ``json.dumps``.
    """
    dumps = json.dumps
    runs = evaluation.runs
    out = ['{\n  "instances": [']
    separator = "\n    "
    for instance_id in sorted(runs):
        codes, accepting, _, category, violated = runs[instance_id]
        unsafe = codes.count(CODE_FALSE) + codes.count(CODE_PRESUMABLY_FALSE)
        first_false = codes.find(CODE_FALSE)
        if first_false >= 0:
            kind, timestep = '"mid"', first_false
        else:
            kind, timestep = '"end"' if violated and not accepting else "null", "null"
        out.append(
            f"{separator}{{\n"
            f'      "category": {"null" if category is None else dumps(category.value)},\n'
            f'      "exposure": {unsafe / len(codes)!r},\n'
            f'      "final_satisfied": {_JSON_BOOL[accepting]},\n'
            f'      "property_id": {dumps(instance_id)},\n'
            f'      "unsafe_steps": {unsafe},\n'
            '      "verdicts": [\n        '
        )
        _verdict_lines(codes, out)
        out.append(
            "\n      ],\n"
            f'      "violated": {_JSON_BOOL[violated]},\n'
            f'      "violation_kind": {kind},\n'
            f'      "violation_timestep": {timestep}\n'
            "    }"
        )
        separator = ",\n    "
    out.append(
        ("\n  ],\n" if runs else "],\n")
        + f'  "outcome": {dumps(evaluation.outcome.value)},\n'
        f'  "policy": {dumps(evaluation.policy)},\n'
        f'  "rollout_exposure": {float(evaluation.rollout_exposure)!r},\n'
        f'  "rollout_id": {dumps(evaluation.rollout_id)},\n'
        f'  "success": {_JSON_BOOL[evaluation.success]},\n'
        f'  "task": {dumps(evaluation.task_name)},\n'
        f'  "unsafe": {_JSON_BOOL[evaluation.unsafe]}\n'
        "}\n"
    )
    return "".join(out)


def monitor_report_document(evaluation: RolloutEvaluation) -> dict:
    """The monitor report of :func:`monitor_report_json` as a parsed
    document (keys in sorted order)."""
    return json.loads(monitor_report_json(evaluation))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class TableRow(Record):
    applicable_rollouts: int
    violation_rate: Fraction
    mean_exposure: Fraction


class PolicyRow(Record):
    rollouts: int
    success_rate: Fraction
    violation_rate: Fraction
    mean_exposure: Fraction
    outcome_shares: dict[Outcome, Fraction]
    unsafe_success_share: Fraction | None


class EvaluationReport(Record):
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


#: The report's denominator modes: pooled over rollouts, or macro-averaged
#: over tasks.
_DENOMINATORS = ("rollout", "task")


def _rows(cells: dict[tuple[str, str, str, str], list], dimension: str, group_of) -> dict:
    """The :func:`_pooled` row of the cells of ``dimension`` added up per
    ``group_of(key, policy, task)``."""
    groups: dict = {}
    for (cell_dimension, *coordinates), cell in cells.items():
        if cell_dimension == dimension:
            groups.setdefault(group_of(*coordinates), []).append(cell)
    return {group: _pooled([sum(c) for c in zip(*members)]) for group, members in groups.items()}


def _exposure_sum(unsafe_steps: Mapping[int, int]) -> Fraction:
    """The sum of ``steps / length`` over trace length -> unsafe steps, as
    one fraction over the lengths' least common multiple."""
    common = math.lcm(*unsafe_steps)
    return Fraction(
        sum(steps * (common // length) for length, steps in unsafe_steps.items()), common
    )


def _mean(values: Sequence[Fraction]) -> Fraction:
    return sum(values, Fraction(0)) / len(values)


#: The keys of each report table, in report order; ``per_policy`` is sorted.
_KEY_ORDERS = {
    "template": (*TEMPLATE_IDS, CUSTOM_TEMPLATE),
    "category": tuple(c.value for c in SafetyCategory),
    "suite": tuple(SUITES),
    "horizon": tuple(HORIZONS),
}


def _ordered(keys: Iterable[str], dimension: str) -> list[str]:
    """The keys of ``dimension``'s table in report order: its preferred
    keys first, the rest sorted."""
    keys, preferred = set(keys), _KEY_ORDERS.get(dimension, ())
    return [k for k in preferred if k in keys] + sorted(keys.difference(preferred))


def _table(cells, dimension: str, mode: str) -> dict[str, TableRow]:
    """Rows keyed by group, in report order; ``mode`` selects the
    denominator: ``rollout`` pools rollouts, ``task`` macro-averages
    per-task rates."""
    tasks = _rows(cells, dimension, lambda key, policy, task: (key, task if mode == "task" else None))
    rows: dict[str, list[PolicyRow]] = {}
    for (key, _task), row in tasks.items():
        rows.setdefault(key, []).append(row)
    return {
        key: TableRow(
            applicable_rollouts=sum(row.rollouts for row in rows[key]),
            violation_rate=_mean([row.violation_rate for row in rows[key]]),
            mean_exposure=_mean([row.mean_exposure for row in rows[key]]),
        )
        for key in _ordered(rows, dimension)
    }


def _pooled(cell: list) -> PolicyRow:
    """The rates of a summed cell: the one reader of a cell's counts."""
    rollouts, violated, successes, violated_successes, exposure = cell
    outcome_counts = {
        Outcome.SUCCESS_SAFE: successes - violated_successes,
        Outcome.SUCCESS_UNSAFE: violated_successes,
        Outcome.FAIL_SAFE: rollouts - successes - violated + violated_successes,
        Outcome.FAIL_UNSAFE: violated - violated_successes,
    }
    return PolicyRow(
        rollouts=rollouts,
        success_rate=Fraction(successes, rollouts),
        violation_rate=Fraction(violated, rollouts),
        mean_exposure=exposure / rollouts,
        outcome_shares={o: Fraction(c, rollouts) for o, c in outcome_counts.items()},
        unsafe_success_share=Fraction(violated_successes, successes) if successes else None,
    )


def _per_policy(cells) -> dict[str, PolicyRow]:
    return dict(sorted(_rows(cells, "suite", lambda key, policy, task: policy).items()))


class ReportTally:
    """The count cells of a batch of evaluations, built one rollout at a time.

    ``add`` folds one evaluation into the cells and forgets it; ``merge``
    adds the cells of a tally of another part of the batch. Cells hold
    integer sums: exposures as unsafe steps per trace length, which
    ``report`` and ``plot_data`` turn into one exact fraction per cell. So a
    tally of the whole batch equals the merge of tallies of its parts, in
    any split and any order. The rollout ids are counted as well, and
    ``report`` and ``plot_data`` raise on an empty batch or a duplicate id,
    so these checks come after every rollout has been monitored.
    """

    __slots__ = ("cells", "ids")

    def __init__(self, evaluations: Iterable[RolloutEvaluation] = ()) -> None:
        # (dimension, key, policy, task) -> [rollouts, violated, successes,
        # violated successes, trace length -> unsafe steps]
        self.cells: dict[tuple[str, str, str, str], list] = {}
        self.ids: Counter[str] = Counter()
        for evaluation in evaluations:
            self.add(evaluation)

    def add(self, e: RolloutEvaluation) -> None:
        self.ids[e.rollout_id] += 1
        # (dimension, key) -> (violated, unsafe bits) of each row the rollout counts in.
        suite = ("suite", e.suite)
        rows: dict[tuple[str, str], tuple[bool, int]] = {suite: (False, 0)}
        for codes, _, template_id, category, violated in e.runs.values():
            bits = _unsafe_bits(codes)
            keys = [suite, ("template", template_id)]
            if category is not None:
                keys.append(("category", category.value))
            for key in keys:
                row_violated, row_bits = rows.get(key, (False, 0))
                rows[key] = (row_violated or violated, row_bits | bits)
        rows["horizon", e.horizon] = rows[suite]
        cells = self.cells
        policy, task, success, length = e.policy, e.task_name, e.success, e.length
        for (dimension, key), (violated, bits) in rows.items():
            cell = cells.get((dimension, key, policy, task))
            if cell is None:
                cell = cells[dimension, key, policy, task] = [0, 0, 0, 0, Counter()]
            cell[0] += 1
            cell[1] += violated
            cell[2] += success
            cell[3] += violated and success
            cell[4][length] += bits.bit_count()

    def merge(self, other: ReportTally) -> None:
        self.ids.update(other.ids)
        cells = self.cells
        for coordinates, (*counts, unsafe_steps) in other.cells.items():
            mine = cells.get(coordinates)
            if mine is None:
                cells[coordinates] = [*counts, Counter(unsafe_steps)]
            else:
                for i, count in enumerate(counts):
                    mine[i] += count
                mine[4].update(unsafe_steps)

    def _checked_cells(self) -> dict[tuple[str, str, str, str], list]:
        """The cells, each with its exact exposure sum in place of the
        unsafe-step counts."""
        if not self.ids:
            raise SafetraceError("cannot aggregate an empty evaluation collection")
        duplicates = sorted(i for i, count in self.ids.items() if count > 1)
        if duplicates:
            raise SafetraceError(f"duplicate rollout_id in evaluation batch: {duplicates}")
        return {
            coordinates: [*counts, _exposure_sum(unsafe_steps)]
            for coordinates, (*counts, unsafe_steps) in self.cells.items()
        }

    def report(self, denominator: str = "rollout") -> EvaluationReport:
        """The full report. ``denominator`` selects per-template/per-category
        denominators: ``"rollout"`` pools applicable rollouts, ``"task"``
        macro-averages the per-task rates."""
        if denominator not in _DENOMINATORS:
            raise SafetraceError(f"unknown denominator mode {denominator!r}")
        cells = self._checked_cells()
        overall = _rows(cells, "suite", lambda key, policy, task: None)[None]
        # The overall row's fields are the report's first six, in order.
        return EvaluationReport(
            *(getattr(overall, field) for field in PolicyRow._fields),
            **{f"per_{dimension}": _table(cells, dimension, denominator) for dimension in _KEY_ORDERS},
            per_policy=_per_policy(cells),
            denominator_mode=denominator,
        )

    def plot_data(self) -> dict[str, str]:
        """Per-panel CSVs for downstream plotting; see :func:`export_plot_data`."""
        cells = self._checked_cells()
        per_policy = _per_policy(cells)
        files = {
            "plot_success_vs_violation.csv": _csv_text(
                ["policy", "task_success_rate", "violation_rate"],
                [
                    [policy, _float_cell(row.success_rate), _float_cell(row.violation_rate)]
                    for policy, row in per_policy.items()
                ],
            ),
            "plot_outcome_shares.csv": _csv_text(
                ["policy", *(o.value for o in Outcome)],
                [
                    [policy, *(_float_cell(row.outcome_shares[o]) for o in Outcome)]
                    for policy, row in per_policy.items()
                ],
            ),
        }
        for dimension, name, count, last in (
            ("category", "plot_category_heatmap.csv", "applicable_rollouts", "mean_exposure"),
            ("horizon", "plot_horizon_lines.csv", "rollouts", "unsafe_success_share"),
            ("suite", "plot_suite_heatmap.csv", "rollouts", "unsafe_success_share"),
        ):
            rows = _rows(cells, dimension, lambda key, policy, task: (key, policy))
            files[name] = _csv_text(
                [dimension, "policy", count, "violation_rate", last],
                [
                    [key, policy, str(r.rollouts), *map(_float_cell, (r.violation_rate, getattr(r, last)))]
                    for key in _KEY_ORDERS[dimension]
                    for policy in per_policy
                    if (r := rows.get((key, policy)))
                ],
            )
        return files


def aggregate(
    evaluations: Iterable[RolloutEvaluation], *, denominator: str = "rollout"
) -> EvaluationReport:
    """Fold per-rollout evaluations into the full report.

    Order-independent; raises on an empty collection or duplicate rollout
    ids. ``denominator`` selects per-template/per-category denominators:
    ``"rollout"`` pools applicable rollouts, ``"task"`` macro-averages the
    per-task rates.
    """
    return ReportTally(evaluations).report(denominator)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _to_json(value):
    """The JSON form of a report value: a record is an object of its fields,
    a rate its exact and float forms, an ``Outcome`` key its value; counts,
    strings and ``None`` pass through."""
    if isinstance(value, Record):
        return {field: _to_json(getattr(value, field)) for field in value._fields}
    if isinstance(value, dict):
        return {
            key.value if isinstance(key, Outcome) else key: _to_json(item)
            for key, item in value.items()
        }
    if isinstance(value, Fraction):
        return {"exact": f"{value.numerator}/{value.denominator}", "approx": float(value)}
    return value


def _row_class(field: str) -> type:
    """The record class of the rows of the report table ``field``."""
    return PolicyRow if field == "per_policy" else TableRow


def _from_json(cls: type, data: dict):
    """The ``cls`` record whose :func:`_to_json` form is ``data``, checked by
    the field annotations, the table vocabularies of ``_KEY_ORDERS`` and the
    ``_DENOMINATORS``; an object may hold no key the export does not write."""
    values = []
    for field, value in zip(cls._fields, _known(data, cls._fields)):
        annotation = cls.__annotations__[field]
        if annotation == "int":
            if type(value) is not int:  # bool is a subclass of int
                raise TypeError(f"{field!r} must be an integer, got {value!r}")
        elif field == "denominator_mode":
            if value not in _DENOMINATORS:
                raise ValueError(f"unknown denominator mode {value!r}")
        elif field == "outcome_shares":
            shares = _known(value, [o.value for o in Outcome])
            value = {o: _rate_from_json(field, share) for o, share in zip(Outcome, shares)}
        elif field.startswith("per_"):
            rows, dimension = value, field[4:]
            unknown = set(rows).difference(_KEY_ORDERS[dimension]) if dimension in _KEY_ORDERS else ()
            if unknown:  # a policy may have any name
                raise ValueError(f"unknown {dimension} {min(unknown)!r} in {field!r}")
            value = {k: _from_json(_row_class(field), rows[k]) for k in _ordered(rows, dimension)}
        elif value is not None or not annotation.endswith("| None"):
            value = _rate_from_json(field, value)
        values.append(value)
    return cls(*values)


def _known(data: dict, keys: Sequence[str]) -> list:
    """The values of ``keys`` in the JSON object ``data``, which holds no other key."""
    values = [data[key] for key in keys]
    if len(data) > len(keys):  # every one of ``keys`` is in ``data``
        raise ValueError(f"unknown key {min(set(data).difference(keys))!r}")
    return values


def _rate_from_json(field: str, value) -> Fraction:
    """The rate whose :func:`_to_json` form is ``value``; an ``approx`` of 1
    or true equals 1.0, so its type is checked as well."""
    exact = value.get("exact") if isinstance(value, dict) else None
    rate = Fraction(exact) if isinstance(exact, str) else None
    if rate is None or value != _to_json(rate) or type(value["approx"]) is not float:
        raise ValueError(f'{field!r} must be {{"exact": "n/d", "approx": n/d}} in lowest terms, got {value!r}')
    return rate


def export_report_json(report: EvaluationReport) -> str:
    """Canonical JSON: sorted keys, exact fractions alongside floats,
    byte-identical across repeated exports of equal reports."""
    return _json_text(_to_json(report))


def load_report(text: str) -> EvaluationReport:
    """Rebuild a report from its JSON export (exact rates included); text
    that is not such an export raises one :class:`SafetraceError`."""
    data = _read_json(text)
    try:
        return _from_json(EvaluationReport, data)
    except (LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SafetraceError(f"not a report export: {type(exc).__name__}: {exc}") from exc


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


def _float_cell(value: Fraction | None) -> str:
    """The CSV cell of a rate's float, empty when the rate is undefined."""
    return "" if value is None else repr(float(value))


def _rate_cells(value: Fraction | None) -> list[str]:
    return ["" if value is None else f"{value.numerator}/{value.denominator}", _float_cell(value)]


def export_report_csv(report: EvaluationReport) -> dict[str, str]:
    """One CSV per table, keyed by file name, with stable headers."""
    overall, tables = [], {}
    for field in EvaluationReport._fields:
        value, annotation = getattr(report, field), EvaluationReport.__annotations__[field]
        if field.startswith("per_"):
            tables[f"{field}.csv"] = _table_csv(field[4:], _row_class(field), value)
        elif field == "outcome_shares":
            overall += [[f"share_{o.value}", *_rate_cells(value[o])] for o in Outcome]
        elif annotation == "int":
            overall.append([field, str(value), str(value)])
        elif annotation.startswith("Fraction"):
            overall.append([field, *_rate_cells(value)])
    return {"overall.csv": _csv_text(["metric", "exact", "approx"], overall), **tables}


def _table_csv(key_header: str, cls: type, table: Mapping[str, Record]) -> str:
    """One row per key of ``table``, one column per count field of ``cls``
    and two per rate (exact, then float; both empty when undefined).
    Outcome shares are left to the JSON export."""
    fields = [f for f in cls._fields if f != "outcome_shares"]
    counts = {f for f in fields if cls.__annotations__[f] == "int"}
    header = [key_header]
    for f in fields:
        header += [f] if f in counts else [f"{f}_exact", f]
    rows = []
    for key, row in table.items():
        cells = [key]
        for f in fields:
            value = getattr(row, f)
            cells += [str(value)] if f in counts else _rate_cells(value)
        rows.append(cells)
    return _csv_text(header, rows)


def export_plot_data(evaluations: Iterable[RolloutEvaluation]) -> dict[str, str]:
    """Per-panel CSVs for downstream plotting.

    - success-vs-violation scatter, one point per policy;
    - stacked outcome shares per policy;
    - category heatmap cells (category x policy);
    - horizon and suite panels with the unsafe share among successes (cells
      with zero successes are left empty, marking the undefined metric).

    Raises on an empty collection or duplicate rollout ids, like
    :func:`aggregate`.
    """
    return ReportTally(evaluations).plot_data()
