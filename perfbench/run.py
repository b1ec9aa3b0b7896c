"""Seeded end-to-end and per-layer benchmark for safetrace.

Run from the repository root::

    python3 perfbench/run.py --workload corpus_files --seed 1 --seconds 24 --trace 0

The run generates the workload's inputs from ``--seed`` under
``.perfbench_work/``, checks every output against ground truth, and prints
one JSON object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``). Details of the
run and, with ``--trace 1``, the spans of the last traced pass are written
under ``.perfbench_out/``. Every reported time is scaled to a core of
reference speed with the ``probe.py`` processes that run beside the
measured ones (see :class:`SpeedProbes`). See ``perfbench/README.md`` for what each metric
means and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
PY = sys.executable

#: Every run measures at least this many rounds, and enough rounds that the
#: gate percentiles rest on this many calls (p95 then has 10 beyond it).
MIN_ROUNDS = 3
MIN_GATE_SAMPLES = 200
SETUP_PROBES_PER_ROUND = 3
#: A child process still running after this long is killed and counted failed.
CHILD_TIMEOUT_S = 60
#: Mean CPU time of one ``probe.py`` piece on an uncontended core of the
#: reference machine (2-vCPU x86-64 VM, Python 3.11) while a measured
#: process shares it: the speed every reported time is scaled to.
PROBE_REF_S = 0.00025
#: A gate call is scaled by the probe pieces within this margin of it.
CALL_MARGIN_S = 0.05
#: Single-process measurements run on the first CPU; ``--workers 2`` on two.
CPUS = sorted(os.sched_getaffinity(0))[:2]
ONE_CPU = {CPUS[0]}
TWO_CPUS = set(CPUS)

SETUP_CODE = (
    "import sys\n"
    "from pathlib import Path\n"
    "import safetrace\n"
    "from safetrace.properties import load_task_spec\n"
    "for p in sys.argv[1:]:\n"
    "    load_task_spec(Path(p).read_text())\n"
)


@contextlib.contextmanager
def _pinned(cpus: set[int]):
    """Pin this process, and so every child it starts meanwhile, to ``cpus``."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _run(cmd: list[str], log: Path, cpus: set[int]) -> tuple[float, float, int, float]:
    """Start and end time, exit code and peak RSS (MB) of one child process
    pinned to ``cpus``."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        with _pinned(cpus):
            proc = subprocess.Popen(cmd, env=ENV, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss / 1024


class SpeedProbes:
    """One ``probe.py`` per CPU in ``cpus``, running while the block runs.

    Every time the benchmark reports is scaled to a core of reference speed:
    divided by :meth:`slowdown`, the probe pieces' mean CPU time on the CPUs
    the measured process was pinned to, over the interval it ran, relative
    to ``PROBE_REF_S``. The raw times are kept in the run's details file.
    """

    def __init__(self, cpus: list[int]) -> None:
        self.procs: dict[int, subprocess.Popen] = {}
        self.starts: dict[int, list[float]] = {}
        self.cpu_s: dict[int, list[float]] = {}
        try:
            for cpu in cpus:
                self.procs[cpu] = subprocess.Popen(
                    [PY, str(HERE / "probe.py"), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                )
        except BaseException:
            self.stop()
            raise

    def __enter__(self) -> "SpeedProbes":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop every probe, wait for it, and keep what it recorded."""
        for cpu, proc in self.procs.items():
            try:
                out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            records = sorted(json.loads(out)) if proc.returncode == 0 and out else []
            self.starts[cpu] = [start for start, _ in records]
            self.cpu_s[cpu] = [cpu_s for _, cpu_s in records]

    def slowdown(self, cpus: set[int], start: float, end: float) -> float | None:
        """Mean probe piece time on ``cpus`` during [start, end] over
        ``PROBE_REF_S``, averaged over the CPUs; None if a CPU has no piece
        in the interval."""
        means = []
        for cpu in cpus:
            lo = bisect.bisect_left(self.starts[cpu], start)
            hi = bisect.bisect_right(self.starts[cpu], end)
            if lo == hi:
                return None
            means.append(statistics.fmean(self.cpu_s[cpu][lo:hi]))
        return statistics.fmean(means) / PROBE_REF_S

    def scaled(self, cpus: set[int], start: float, end: float, seconds: float | None = None) -> float:
        """``seconds`` (default: the interval's length) at reference speed."""
        factor = self.slowdown(cpus, start, end)
        if factor is None:
            raise SystemExit(f"error: no speed probe record on CPUs {sorted(cpus)} "
                             f"between {start:.3f} and {end:.3f}")
        return (end - start if seconds is None else seconds) / factor


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _digest(files: dict[str, str] | list[str]) -> str:
    h = hashlib.sha256()
    items = sorted(files.items()) if isinstance(files, dict) else enumerate(files)
    for name, content in items:
        h.update(f"{name}\0{len(content)}\0".encode())
        h.update(content.encode())
    return h.hexdigest()


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)


def reference_outcomes(workload) -> None:
    """Fill in the gate workload's expected outcomes from the automaton-free
    reference semantics, ``formulas.evaluate``."""
    from safetrace.formulas import Trace, evaluate, parse
    from workloads import Expected

    for rollout_id, formulas in workload.formulas.items():
        trace = Trace(workload.traces[rollout_id])
        holds = {iid: evaluate(parse(text), trace) for iid, text in formulas.items()}
        workload.expected[rollout_id] = Expected(
            success=workload.expected[rollout_id].success,
            unsafe=not all(holds.values()),
            violated=frozenset(iid for iid, held in holds.items() if not held),
            holds=holds,
        )


def _matches(workload, evaluation) -> bool:
    exp = workload.expected.get(evaluation.rollout_id)
    if exp is None or (evaluation.success, evaluation.unsafe) != (exp.success, exp.unsafe):
        return False
    if exp.violated is not None:
        violated = {i for i, m in evaluation.instance_meta.items() if m.violated}
        if violated != exp.violated:
            return False
    if exp.holds is not None:
        return all(
            evaluation.per_instance[i].final_satisfied == held for i, held in exp.holds.items()
        )
    return True


def check_reference(workload, result, tally: Tally) -> None:
    """Every library evaluation against ground truth, and each gate exit code
    against the expected violations."""
    tally.add(
        sorted(e.rollout_id for e in result.evaluations) == sorted(workload.expected),
        "evaluate pass did not cover every rollout exactly once",
    )
    for evaluation in result.evaluations:
        tally.add(_matches(workload, evaluation), f"{evaluation.rollout_id}: wrong outcome")
    for evaluation, code in zip(result.gate_evaluations, result.gate_codes):
        exp = workload.expected[evaluation.rollout_id]
        tally.add(
            _matches(workload, evaluation) and code == (2 if exp.unsafe else 0),
            f"gate {evaluation.rollout_id}: wrong outcome or exit code",
        )


def check_digests(workload_name: str, seed: int, reference, tally: Tally) -> dict:
    """Output digests; for the recorded seed, any byte change fails the run."""
    digests = {"evaluate": _digest(reference.files), "gate": _digest(reference.gate_docs)}
    recorded = json.loads((HERE / "digests.json").read_text())
    if seed == recorded["seed"]:
        tally.add(
            recorded["workloads"].get(workload_name) == digests,
            f"output digests for seed {seed} differ from perfbench/digests.json",
        )
    return digests


def check_dir(out: Path, expected: dict[str, str]) -> bool:
    names = {p.name for p in out.iterdir()} if out.is_dir() else set()
    return names == set(expected) and all(
        (out / name).read_text() == content for name, content in expected.items()
    )


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------


def end_to_end(workload, reference, seconds: float, tally: Tally) -> tuple[dict, dict]:
    n_rollouts = len(workload.expected)
    steps = sum(len(t) for t in workload.traces.values())
    logs = _fresh_dir(WORK / "logs")
    gate_out = WORK / "gate_out"
    calls = [
        [rollout, spec, str(gate_out / f"{i:04d}.json")]
        for i, (rollout, spec) in enumerate(workload.gate_pairs)
    ]
    calls_path = WORK / "gate_calls.json"
    calls_path.write_text(json.dumps(calls))
    gate_result = WORK / "gate_result.json"
    expected_gate = {f"{i:04d}.json": doc for i, doc in enumerate(reference.gate_docs)}
    # Raw intervals, scaled once the probes have stopped:
    # name -> [(cpus, start, end)], and gate calls as (pass start, pass end, call start, seconds).
    intervals: dict[str, list] = {"seq_s": [], "w2_s": [], "setup_s": []}
    gate_calls: list[tuple[float, float, float, float]] = []
    rss_mb: list[float] = []

    def evaluate(workers: int, cpus: set[int]) -> tuple[float, float, float]:
        out = WORK / f"cli_w{workers}"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [PY, "-m", "safetrace.cli", "evaluate", *workload.evaluate_args,
               "--out", str(out), "--workers", str(workers), "-q"]
        start, end, code, rss = _run(cmd, logs / f"evaluate_w{workers}.log", cpus)
        tally.add(
            code == 0 and check_dir(out, reference.files),
            f"evaluate --workers {workers}: exit {code} or report bytes differ",
            n_rollouts,
        )
        return start, end, rss

    def gate() -> None:
        _fresh_dir(gate_out)
        log = logs / "gate.log"
        start, end, code, _ = _run(
            [PY, str(HERE / "gate_loop.py"), str(calls_path), str(gate_result)], log, ONE_CPU
        )
        if code != 0:
            sys.stderr.write(log.read_text())
            raise SystemExit(f"error: the gate loop exited {code}")
        result = json.loads(gate_result.read_text())
        for i, exit_code in enumerate(result["codes"]):
            name = f"{i:04d}.json"
            path = gate_out / name
            ok = (
                exit_code == reference.gate_codes[i]
                and path.is_file()
                and path.read_text() == expected_gate[name]
            )
            tally.add(ok, f"gate call {i}: exit {exit_code} or report bytes differ")
        gate_calls.extend((start, end, s, d) for s, d in zip(result["starts"], result["seconds"]))

    def setup() -> None:
        start, end, code, _ = _run(
            [PY, "-c", SETUP_CODE, *workload.shared_specs], logs / "setup.log", ONE_CPU
        )
        tally.add(code == 0, f"set-up probe exited {code}")
        intervals["setup_s"].append((ONE_CPU, start, end))

    round_s: list[float] = []
    with SpeedProbes(CPUS) as probes:
        # Warm-up, discarded: the library pass already imported the package
        # (writing its .pyc files) and read every input into the page cache;
        # this also compiles the CLI's own imports and gives the probes time to start.
        _run([PY, "-m", "safetrace.cli", "--version"], logs / "warmup.log", ONE_CPU)
        deadline = time.perf_counter() + seconds
        while (
            len(round_s) < MIN_ROUNDS
            or len(gate_calls) < MIN_GATE_SAMPLES
            # Start another round only if at least half of it fits.
            or deadline - time.perf_counter() > statistics.median(round_s) / 2
        ):
            start = time.perf_counter()
            *seq, rss = evaluate(0, ONE_CPU)
            *w2, _ = evaluate(2, TWO_CPUS)
            intervals["seq_s"].append((ONE_CPU, *seq))
            intervals["w2_s"].append((TWO_CPUS, *w2))
            rss_mb.append(rss)
            gate()
            for _ in range(SETUP_PROBES_PER_ROUND):
                setup()
            round_s.append(time.perf_counter() - start)

    scaled = {
        name: [probes.scaled(cpus, start, end) for cpus, start, end in spans]
        for name, spans in intervals.items()
    }
    gate_ms = []
    for pass_start, pass_end, call_start, call_s in gate_calls:
        window = (call_start - CALL_MARGIN_S, call_start + call_s + CALL_MARGIN_S)
        if probes.slowdown(ONE_CPU, *window) is None:
            window = (pass_start, pass_end)
        gate_ms.append(probes.scaled(ONE_CPU, *window, seconds=call_s) * 1000)
    cuts = statistics.quantiles(gate_ms, n=100)
    metrics = {
        "setup_s": statistics.median(scaled["setup_s"]),
        "steps_per_s": steps / statistics.median(scaled["seq_s"]),
        "steps_per_s.w2": steps / statistics.median(scaled["w2_s"]),
        "gate_ms.p50": cuts[49],
        "gate_ms.p95": cuts[94],
        "peak_rss_mb": statistics.median(rss_mb),
    }
    samples = {
        "rounds": len(round_s),
        "gate_calls": len(gate_calls),
        "setup_probes": len(intervals["setup_s"]),
        "round_s": round_s,
        "rss_mb": rss_mb,
        **{f"{name}.scaled": values for name, values in scaled.items()},
        **{f"{name}.raw": [end - start for _, start, end in spans] for name, spans in intervals.items()},
        "slowdown": {
            name: [probes.slowdown(cpus, start, end) for cpus, start, end in spans]
            for name, spans in intervals.items()
        },
    }
    return metrics, samples


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------


def _absorbed(codes: bytes) -> int:
    """Instance-steps after the first TRUE (0) or FALSE (1) verdict."""
    hits = [i for i in (codes.find(0), codes.find(1)) if i != -1]
    return len(codes) - min(hits) - 1 if hits else 0


def per_layer(workload, reference, seconds: float, tally: Tally) -> tuple[dict, dict]:
    from pipeline import NullTracer, Tracer, full_pass

    # The CLI's own bytes must match the library pipeline's.
    logs = _fresh_dir(WORK / "logs")
    cli_out = WORK / "cli_w0"
    shutil.rmtree(cli_out, ignore_errors=True)
    _, _, code, _ = _run(
        [PY, "-m", "safetrace.cli", "evaluate", *workload.evaluate_args,
         "--out", str(cli_out), "--workers", "0", "-q"],
        logs / "evaluate_w0.log",
        ONE_CPU,
    )
    tally.add(code == 0 and check_dir(cli_out, reference.files),
              "CLI evaluate bytes differ from the library pipeline", len(workload.expected))

    evaluations = reference.evaluations
    all_evaluations = evaluations + reference.gate_evaluations
    instance_steps = sum(len(r.verdict_codes) for e in all_evaluations for r in e.per_instance.values())
    absorbed = sum(_absorbed(r.verdict_codes) for e in all_evaluations for r in e.per_instance.values())
    steps_decoded = sum(e.length for e in all_evaluations)
    counters = {
        "properties.load_task_spec.calls": len(reference.specs),
        "automata.dfas": sum(len(s.instances) for s in reference.specs),
        "automata.states": sum(i.dfa.num_states for s in reference.specs for i in s.instances),
        "monitor.instance_steps": instance_steps,
        "monitor.absorbed_share": absorbed / instance_steps,
        "metrics.retained_bytes": sum(
            len(r.verdict_codes) + len(m.unsafe_flag_bytes)
            for e in evaluations
            for r, m in zip(e.per_instance.values(), e.instance_meta.values())
        ),
        "cli.pickle_bytes": sum(len(pickle.dumps(e)) for e in evaluations),
    }

    # Passes run in this process, pinned to the probed CPU; each pass's
    # times are scaled by the probe's slowdown over the pass.
    untraced_s, traced_s, selfs, json_ratio = [], [], [], []
    tracer = None
    round_s: list[float] = []
    with SpeedProbes(sorted(ONE_CPU)) as probes, _pinned(ONE_CPU):
        deadline = time.perf_counter() + seconds
        while (
            len(traced_s) < MIN_ROUNDS
            or deadline - time.perf_counter() > statistics.median(round_s) / 2
        ):
            start = time.perf_counter()
            order = (False, True) if len(traced_s) % 2 == 0 else (True, False)
            for traced in order:
                tr = Tracer() if traced else NullTracer()
                pass_start = time.perf_counter()
                result, wall = full_pass(workload, WORK / "lib", tr)
                tally.add(result.files == reference.files and result.gate_docs == reference.gate_docs,
                          "library pipeline output changed between passes",
                          len(evaluations) + len(result.gate_docs))
                span = (pass_start, pass_start + wall)
                if not traced:
                    untraced_s.append(span)
                    continue
                traced_s.append(span)
                tracer = tr
                selfs.append((span, tr.self_times()))
                loads_start = time.perf_counter()
                for text in result.texts:
                    json.loads(text)
                json_ratio.append(
                    selfs[-1][1]["rollouts.load_rollout"] / (time.perf_counter() - loads_start)
                )
            round_s.append(time.perf_counter() - start)

    untraced_s = [probes.scaled(ONE_CPU, *span) for span in untraced_s]
    traced_s = [probes.scaled(ONE_CPU, *span) for span in traced_s]
    selfs = [
        {name: probes.scaled(ONE_CPU, *span, seconds=value) for name, value in totals.items()}
        for span, totals in selfs
    ]

    def self_s(name: str) -> float:
        return statistics.median(s.get(name, 0.0) for s in selfs)

    load_s = self_s("rollouts.load_rollout")
    overhead = statistics.median(traced_s) - statistics.median(untraced_s)
    metrics = {
        "rollouts.load_rollout.self_s": load_s,
        "rollouts.us_per_step": load_s / steps_decoded * 1e6,
        "rollouts.decode_vs_json": statistics.median(json_ratio),
        "cli.read_s": self_s("cli.read"),
        "properties.load_task_spec.self_s": self_s("properties.load_task_spec"),
        "metrics.evaluate_rollout.self_s": self_s("metrics.evaluate_rollout"),
        "monitor.instance_steps_per_s": instance_steps / self_s("metrics.evaluate_rollout"),
        "metrics.aggregate.self_s": self_s("metrics.aggregate"),
        "metrics.export_plot_data.self_s": self_s("metrics.export_plot_data"),
        "metrics.export_report.self_s": self_s("metrics.export_report"),
        "metrics.monitor_report_document.self_s": self_s("metrics.monitor_report_document"),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / statistics.median(untraced_s),
        **counters,
    }
    spans_path = OUT / f"spans-{workload.name}.jsonl"
    with open(spans_path, "w") as stream:
        for record in tracer.records():
            stream.write(json.dumps(record) + "\n")
    samples = {
        "rounds": len(traced_s),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "self_s": {name: [s.get(name, 0.0) for s in selfs] for name in selfs[0]},
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, samples


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "safetrace" / "__init__.py").is_file():
        print(f"error: {SRC / 'safetrace'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    from pipeline import NullTracer, full_pass
    from workloads import GENERATORS

    _fresh_dir(WORK)
    OUT.mkdir(exist_ok=True)
    try:
        workload = GENERATORS[args.workload](args.seed, WORK / "inputs")
        reference_outcomes(workload)
        tally = Tally()
        reference, _ = full_pass(workload, WORK / "lib", NullTracer())
        check_reference(workload, reference, tally)
        digests = check_digests(args.workload, args.seed, reference, tally)
        if args.trace:
            values, samples = per_layer(workload, reference, seconds, tally)
            wanted = bench["per_layer"]
        else:
            values, samples = end_to_end(workload, reference, seconds, tally)
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "environment": _environment(),
        "input_size": {
            "rollouts": len(reference.evaluations),
            "steps": sum(e.length for e in reference.evaluations),
            "instances": sum(len(e.per_instance) for e in reference.evaluations),
            "gate_calls": len(reference.gate_docs),
        },
        "digests": digests,
        "problems": tally.problems,
        "samples": samples,
        "metrics": metrics,
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps({k: details[k] for k in ("environment", "input_size", "digests")}))
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
