"""The ``evaluate`` and ``monitor`` pipelines rebuilt from the library's
public functions, with optional spans around every call.

The benchmark runs these in-process for two reasons: to produce the
reference outputs the CLI's bytes must match, and, with a :class:`Tracer`,
to time each layer. Each step mirrors what ``safetrace.cli`` does for the
same command, so the spans cover the same work the CLI measures end to end.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from safetrace.metrics import (
    aggregate,
    evaluate_rollout,
    export_plot_data,
    export_report,
    monitor_report_document,
)
from safetrace.properties import load_task_spec
from safetrace.rollouts import load_rollout

EXIT_OK = 0
EXIT_VIOLATIONS = 2


class Tracer:
    """In-memory spans: ``[name, start, end, parent, trace_id]``.

    ``parent`` is the index of the enclosing span (-1 for a root). A span's
    trace id is its own tag or, when untagged, its nearest tagged ancestor's.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, trace_id: str | None = None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, trace_id])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def tag(self, trace_id: str) -> None:
        """Set the trace id of the innermost open span."""
        self.spans[self._stack[-1]][4] = trace_id

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children's."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        return totals

    def records(self) -> list[dict]:
        out = []
        for name, start, end, parent, trace_id in self.spans:
            if trace_id is None and parent >= 0:
                trace_id = out[parent]["trace_id"]
            out.append(
                {"name": name, "start": start, "end": end, "parent": parent, "trace_id": trace_id}
            )
        return out


class NullTracer(Tracer):
    """Records nothing; the untraced run of the same pipeline."""

    def begin(self, name: str, trace_id: str | None = None) -> None:
        pass

    def end(self) -> None:
        pass

    def tag(self, trace_id: str) -> None:
        pass


@dataclass
class PassResult:
    """What one pipeline pass produced, kept for checks and counters."""

    #: Report file name -> content, as ``evaluate`` writes them.
    files: dict[str, str] = field(default_factory=dict)
    evaluations: list = field(default_factory=list)
    #: One monitor report document and exit code per gate call.
    gate_docs: list[str] = field(default_factory=list)
    gate_codes: list[int] = field(default_factory=list)
    gate_evaluations: list = field(default_factory=list)
    #: Every task spec loaded, once per ``load_task_spec`` call.
    specs: list = field(default_factory=list)
    #: Every rollout text decoded, for the ``json.loads`` comparison.
    texts: list[str] = field(default_factory=list)


def _read(path: str, tr: Tracer) -> str:
    tr.begin("cli.read")
    text = Path(path).read_text()
    tr.end()
    return text


def _rollout(text: str, spec, tr: Tracer, result: PassResult):
    tr.begin("rollouts.load_rollout")
    record = load_rollout(text)
    tr.end()
    tr.tag(record.rollout_id)
    result.texts.append(text)
    tr.begin("metrics.evaluate_rollout")
    evaluation = evaluate_rollout(record, spec)
    tr.end()
    return evaluation


def _spec(text: str, tr: Tracer, result: PassResult):
    tr.begin("properties.load_task_spec")
    spec = load_task_spec(text)
    tr.end()
    result.specs.append(spec)
    return spec


def evaluate_pass(workload, out_dir: Path, tr: Tracer, result: PassResult) -> None:
    """``safetrace evaluate`` for the workload's inputs, sequentially."""
    tr.begin("cli.evaluate", workload.name)
    evaluations = result.evaluations
    if workload.jsonl:
        _, jsonl_path, _, spec_path = workload.evaluate_args
        spec = _spec(_read(spec_path, tr), tr, result)
        for line in _read(jsonl_path, tr).splitlines():
            line = line.strip()
            if line:
                tr.begin("cli.rollout")
                evaluations.append(_rollout(line, spec, tr, result))
                tr.end()
    else:
        specs: dict[str, object] = {}
        for rollout_path, spec_path in workload.pairs:
            tr.begin("cli.rollout")
            text = _read(rollout_path, tr)
            spec = specs.get(spec_path)
            if spec is None:
                spec = specs[spec_path] = _spec(_read(spec_path, tr), tr, result)
            evaluations.append(_rollout(text, spec, tr, result))
            tr.end()
    tr.begin("metrics.aggregate")
    report = aggregate(evaluations)
    tr.end()
    tr.begin("metrics.export_report")
    files = export_report(report, "json")
    files.update(export_report(report, "csv"))
    tr.end()
    tr.begin("metrics.export_plot_data")
    files.update(export_plot_data(evaluations))
    tr.end()
    tr.begin("cli.write")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (out_dir / name).write_text(content)
    tr.end()
    tr.end()
    result.files = files


def gate_pass(workload, out_dir: Path, tr: Tracer, result: PassResult) -> None:
    """One ``safetrace monitor ... --out`` per gate pair, in order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (rollout_path, spec_path) in enumerate(workload.gate_pairs):
        tr.begin("cli.monitor")
        text = _read(rollout_path, tr)
        spec = _spec(_read(spec_path, tr), tr, result)
        evaluation = _rollout(text, spec, tr, result)
        tr.begin("metrics.monitor_report_document")
        document = monitor_report_document(evaluation)
        doc_text = json.dumps(document, sort_keys=True, indent=2) + "\n"
        tr.end()
        tr.begin("cli.write")
        (out_dir / f"{i:04d}.json").write_text(doc_text)
        tr.end()
        tr.end()
        violated = any(inst["violated"] for inst in document["instances"])
        result.gate_docs.append(doc_text)
        result.gate_codes.append(EXIT_VIOLATIONS if violated else EXIT_OK)
        result.gate_evaluations.append(evaluation)


def full_pass(workload, out_dir: Path, tr: Tracer) -> tuple[PassResult, float]:
    """Both pipelines; returns the result and the wall time."""
    result = PassResult()
    start = time.perf_counter()
    evaluate_pass(workload, out_dir / "evaluate", tr, result)
    gate_pass(workload, out_dir / "gate", tr, result)
    return result, time.perf_counter() - start
