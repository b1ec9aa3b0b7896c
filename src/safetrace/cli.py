"""Command-line interface.

Subcommands: ``compile`` (formula or template to DFA), ``monitor`` (one
rollout against one task spec), ``evaluate`` (a manifest of rollout/spec
pairs, or a JSONL stream against one spec, to a full report), ``generate``
(one scripted scenario), ``corpus`` (the bundled corpus), ``validate``
(non-fatal rollout/spec cross-checks). Each subcommand's parser refuses what
it does not read.

Exit codes: 0 on success, 1 on any error, a usage error included, and 2 only
for a clean monitor run that found violations, so pipelines can gate on
safety without parsing JSON. Every error is one ``error:`` line on stderr.
Logs go to stderr; data goes to files, or to stdout only with ``--stdout``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .automata import compile_formula, dfa_to_json, to_dot
from .errors import SafetraceError, located
from .formulas import parse
from .metrics import (
    ReportTally,
    RolloutEvaluation,
    evaluate_rollout,
    export_report_csv,
    export_report_json,
    monitor_report_json,
)
from .monitor import MonitorResult
from .properties import TEMPLATE_IDS, _json_text, _read_json, instantiate, load_task_spec
from .rollouts import (
    SCENARIOS,
    ScenarioParams,
    build_corpus,
    generate_scenario,
    load_rollout,
    scenario_spec_document,
    serialize_rollout,
    validate_rollout,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATIONS = 2


def _log(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _load(path: str, loader):
    """``loader`` applied to the UTF-8 text of the file ``path``, read with
    universal newlines as ``Path.read_text`` reads it; errors name it. An
    empty path, which would name nothing, is refused."""
    if not path:
        raise SafetraceError(f"{path!r}: empty path")
    with located(path):
        try:
            with open(path, encoding="utf-8") as file:
                text = file.read()
        except UnicodeDecodeError as exc:
            raise SafetraceError(f"not valid UTF-8 text ({exc.reason})") from exc
        except OSError as exc:
            raise SafetraceError(exc.strerror or str(exc)) from exc
        return loader(text)


def _write_text(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


class _Parser(argparse.ArgumentParser):
    """A parser that raises each usage error as a :class:`SafetraceError`
    located at its ``prog`` (``safetrace generate``), so that :func:`main`
    reports it as every other error: one ``error:`` line and exit 1."""

    def error(self, message: str):
        with located(self.prog):
            raise SafetraceError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it as it
    was, and ``--bind`` appends to a copy of its default list."""
    parser = _Parser(
        prog="safetrace",
        description="Compile, monitor, and score temporal safety properties over rollout traces.",
    )
    parser.add_argument("--version", action="version", version=f"safetrace {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-q", "--quiet", action="store_true", help="suppress stderr logging (default: off)"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_compile = sub.add_parser(
        "compile", help="compile a formula or bound template into a DFA", parents=[common]
    )
    p_compile.set_defaults(run=_cmd_compile)
    group = p_compile.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula in concrete syntax, e.g. 'G !collision'")
    group.add_argument(
        "--template", choices=list(TEMPLATE_IDS), help="property template to instantiate"
    )
    p_compile.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="SLOT=PROP",
        help="slot binding for --template; repeatable, once per slot (default: none)",
    )
    p_compile.add_argument("--out", help="output file path (default: stdout summary only)")
    p_compile.add_argument(
        "--format",
        choices=["json", "dot"],
        help="format of the artifact written by --out or --stdout (default: json)",
    )
    p_compile.add_argument(
        "--stdout", action="store_true", help="write the artifact to stdout (default: off)"
    )

    p_monitor = sub.add_parser(
        "monitor", help="monitor one rollout against one task spec", parents=[common]
    )
    p_monitor.set_defaults(run=_cmd_monitor)
    p_monitor.add_argument("rollout", help="rollout JSON file")
    p_monitor.add_argument("task_spec", help="task spec JSON/YAML file")
    p_monitor.add_argument("--out", help="write the monitor report JSON here (default: none)")
    p_monitor.add_argument(
        "--stdout", action="store_true", help="write the report to stdout (default: off)"
    )
    _add_strictness_flags(p_monitor)

    p_evaluate = sub.add_parser(
        "evaluate", help="evaluate a manifest of rollout/spec pairs into a report", parents=[common]
    )
    p_evaluate.set_defaults(run=_cmd_evaluate)
    source = p_evaluate.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "manifest",
        nargs="?",
        help="manifest JSON listing rollout/task_spec path pairs",
    )
    source.add_argument(
        "--jsonl",
        help="alternative input: JSONL stream of rollout objects (requires --task-spec)",
    )
    p_evaluate.add_argument(
        "--task-spec", help="task spec applied to every --jsonl rollout (default: none)"
    )
    p_evaluate.add_argument("--out", required=True, help="output directory for the report")
    p_evaluate.add_argument(
        "--format",
        choices=["all", "json", "csv"],
        default="all",
        help="which report artifacts to write (default: all)",
    )
    p_evaluate.add_argument(
        "--workers",
        type=int,
        default=0,
        help="processes, this one included, each evaluating one contiguous share of the input; "
        "at most one per rollout and per usable CPU; 0 or 1 means sequential (default: 0)",
    )
    p_evaluate.add_argument(
        "--denominator",
        choices=["rollout", "task"],
        default="rollout",
        help="per-template/category denominators (default: rollout)",
    )
    _add_strictness_flags(p_evaluate)

    p_generate = sub.add_parser(
        "generate", help="generate a scripted scenario rollout", parents=[common]
    )
    p_generate.set_defaults(run=_cmd_generate)
    p_generate.add_argument("scenario", choices=sorted(SCENARIOS), help="scenario to generate")
    p_generate.add_argument("--length", type=int, default=None, help="trace length (default: scenario default)")
    p_generate.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    p_generate.add_argument(
        "--flip-rate",
        type=float,
        default=0.05,
        help="per-step flip probability for random_walk and noise (default: 0.05)",
    )
    p_generate.add_argument("--out", help="rollout output file (default: stdout)")
    p_generate.add_argument(
        "--spec-out", help="also write the matching task spec here (default: none)"
    )

    p_corpus = sub.add_parser(
        "corpus", help="write the bundled 200-rollout corpus and its manifest", parents=[common]
    )
    p_corpus.set_defaults(run=_cmd_corpus)
    p_corpus.add_argument("directory", help="output directory")

    p_validate = sub.add_parser(
        "validate", help="cross-check a rollout against a task spec (warnings only)", parents=[common]
    )
    p_validate.set_defaults(run=_cmd_validate)
    p_validate.add_argument("rollout", help="rollout JSON file")
    p_validate.add_argument("task_spec", help="task spec JSON/YAML file")

    return parser


def _add_strictness_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--strict-end-of-trace",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="count unmet end-of-trace obligations as violations (default: on)",
    )


def _cmd_compile(args) -> int:
    written = args.out or args.stdout
    if args.format is not None and not written:
        raise SafetraceError("--format is only meaningful with --out or --stdout")
    if args.template is not None:
        bindings = {}
        for item in args.bind:
            slot, sep, prop = item.partition("=")
            if not sep or not slot or not prop:
                raise SafetraceError(f"--bind expects SLOT=PROP, got {item!r}")
            if slot in bindings:
                raise SafetraceError(f"--bind names slot {slot!r} twice")
            bindings[slot] = prop
        instance = instantiate(args.template, bindings)
        dfa = instance.dfa
    else:
        if args.bind:
            raise SafetraceError("--bind is only meaningful with --template")
        dfa = compile_formula(parse(args.formula))
    if written:
        artifact = to_dot(dfa) if args.format == "dot" else _json_text(dfa_to_json(dfa))
        if args.out:
            _write_text(Path(args.out), artifact)
        if args.stdout:
            sys.stdout.write(artifact)
    permanence = Counter(label.value for label in dfa.permanence)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(permanence.items()))
    _log(args, f"states: {dfa.num_states} ({summary}); props: {', '.join(dfa.props) or '-'}")
    return EXIT_OK


def _evaluate(where: str, text: str | None, spec_path: str, specs: dict, strict: bool) -> RolloutEvaluation:
    """The evaluation of one rollout, the text ``text`` or, when it is
    ``None``, the file ``where``, against the task spec at ``spec_path``,
    which is loaded into ``specs`` on first use. The rollout is decoded
    before its spec is loaded, so a bad rollout is reported first."""
    if text is None:
        record = _load(where, load_rollout)
    else:
        with located(where):
            record = load_rollout(text)
    spec = specs.get(spec_path)
    if spec is None:
        spec = specs[spec_path] = _load(spec_path, load_task_spec)
    with located(where):
        return evaluate_rollout(record, spec, strict_end=strict)


def _cmd_monitor(args) -> int:
    evaluation = _evaluate(args.rollout, None, args.task_spec, {}, args.strict_end_of_trace)
    text = monitor_report_json(evaluation)
    if args.out:
        _write_text(Path(args.out), text)
    if args.stdout:
        sys.stdout.write(text)
    runs = evaluation.runs
    violations = sorted(i for i, (*_, violated) in runs.items() if violated)
    if not args.quiet:  # the lines are built only to be printed
        for instance_id in violations:
            codes, accepting, _, category, _ = runs[instance_id]
            result = MonitorResult(codes, accepting)
            _log(
                args,
                f"violation: {instance_id} ({category.value if category is not None else None}) "
                f"kind={result.violation_kind} timestep={result.violation_timestep} "
                f"exposure={result.unsafe_steps / result.length:.4f}",
            )
    _log(
        args,
        f"rollout {evaluation.rollout_id}: {len(violations)} of {len(runs)} "
        f"instances violated",
    )
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _fold_share(share: list[tuple[str, str | None, str]], specs: dict, strict: bool) -> ReportTally:
    """Evaluate ``(where, text, spec path)`` items with :func:`_evaluate`
    into a tally; each task spec is loaded once per share."""
    tally = ReportTally()
    for where, text, spec_path in share:
        tally.add(_evaluate(where, text, spec_path, specs, strict))
    return tally


def _move_to_cpu(index: int) -> None:
    """Move this process onto the ``index``-th CPU it may run on, then let
    it run on all of them again, so the kernel may still move it later.

    The kernel does not always spread processes by itself: on a 2-vCPU VM,
    both workers of a fresh ``evaluate`` were seen to stay on one vCPU for
    minutes at a time. Without CPU affinity calls (outside Linux) or
    permission to make them, nothing moves.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {sorted(allowed)[index % len(allowed)]})
        os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def _fold(items: list, specs: dict, strict: bool, workers: int) -> ReportTally:
    """:func:`_fold_share` over ``items``: in this process when at most one
    worker is asked for or there is no ``os.fork`` (Windows), else in
    ``min(workers, len(items), usable CPUs)`` contiguous shares. This process
    folds the first, and a forked child each other one, piping back its tally
    or its first error. Shares are read in order, so the first error in input
    order is raised. On any way out, children still running are killed.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(items), cpus) if hasattr(os, "fork") else 1
    if workers <= 1:
        return _fold_share(items, specs, strict)
    import pickle
    import signal

    bounds = [len(items) * i // workers for i in range(workers + 1)]
    children = {}  # pid: (the read end of its pipe, its share's first input), in share order
    try:
        for index, (start, end) in enumerate(zip(bounds[1:], bounds[2:]), 1):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    _move_to_cpu(index)
                    with open(write, "wb") as pipe:
                        try:
                            pickle.dump(_fold_share(items[start:end], specs, strict), pipe)
                        except Exception as exc:
                            pickle.dump(exc, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children[pid] = (open(read, "rb"), items[start][0])
        _move_to_cpu(0)
        total = _fold_share(items[: bounds[1]], specs, strict)
        for pid, (pipe, where) in list(children.items()):
            with pipe:
                result = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                with located(where):
                    raise SafetraceError(f"worker process ended without a result ({how})")
            result = pickle.loads(result)
            if isinstance(result, Exception):
                raise result
            total.merge(result)
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return total


def _cmd_evaluate(args) -> int:
    if args.workers < 0:
        raise SafetraceError(f"--workers must be 0 or more, got {args.workers}")
    if args.jsonl is not None:
        if not args.task_spec:
            raise SafetraceError("--jsonl requires --task-spec")
        specs = {args.task_spec: _load(args.task_spec, load_task_spec)}
        lines = enumerate(_load(args.jsonl, str).split("\n"), start=1)
        items = [(f"{args.jsonl}, line {n}", line, args.task_spec) for n, text in lines if (line := text.strip())]
    else:
        if args.task_spec is not None:
            raise SafetraceError("--task-spec is only meaningful with --jsonl")
        manifest = _load(args.manifest, _read_json)
        base = Path(args.manifest).parent
        specs, items = {}, []
        with located(args.manifest):
            pairs = manifest.get("pairs") if isinstance(manifest, dict) else None
            if not isinstance(pairs, list) or not pairs:
                raise SafetraceError("manifest must contain a nonempty 'pairs' list")
            for entry in pairs:
                try:
                    items.append((str(base / entry["rollout"]), None, str(base / entry["task_spec"])))
                except (TypeError, KeyError) as exc:
                    raise SafetraceError(f"bad manifest entry {entry!r}") from exc
    tally = _fold(items, specs, args.strict_end_of_trace, args.workers)

    with located(args.jsonl or args.manifest):
        report = tally.report(args.denominator)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format in ("all", "json"):
        _write_text(out / "report.json", export_report_json(report))
    if args.format in ("all", "csv"):
        for name, content in export_report_csv(report).items():
            _write_text(out / name, content)
        for name, content in tally.plot_data().items():
            _write_text(out / name, content)
    _log(
        args,
        f"evaluated {report.n_rollouts} rollouts: success "
        f"{float(report.task_success_rate):.4f}, violation "
        f"{float(report.overall_violation_rate):.4f} -> {out}",
    )
    return EXIT_OK


def _cmd_generate(args) -> int:
    info = SCENARIOS[args.scenario]
    length = args.length if args.length is not None else info.default_length
    record = generate_scenario(
        ScenarioParams(
            scenario_id=args.scenario,
            length=length,
            seed=args.seed,
            flip_rate=args.flip_rate,
        )
    )
    text = serialize_rollout(record)
    if args.out:
        _write_text(Path(args.out), text)
    else:
        sys.stdout.write(text)
    if args.spec_out:
        _write_text(Path(args.spec_out), _json_text(scenario_spec_document(args.scenario)))
    _log(args, f"generated {record.rollout_id} (length {length})")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    manifest = build_corpus(args.directory)
    _log(args, f"corpus written; manifest at {manifest}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    record = _load(args.rollout, load_rollout)
    spec = _load(args.task_spec, load_task_spec)
    diagnostics = validate_rollout(record, spec)
    for diagnostic in diagnostics:
        print(f"warning [{diagnostic.code}]: {diagnostic.message}", file=sys.stderr)
    _log(args, f"{len(diagnostics)} warning(s)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (SafetraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
