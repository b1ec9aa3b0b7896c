"""Exit codes, artifact determinism, and flag surface of the CLI."""

import argparse
import itertools
import json
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import safetrace
from safetrace import cli
from safetrace.cli import main
from safetrace.formulas import MAX_FORMULA_DEPTH
from safetrace.metrics import InstanceMeta, evaluate_rollout
from safetrace.monitor import MonitorResult
from safetrace.properties import load_task_spec
from safetrace.rollouts import (
    ScenarioParams,
    build_corpus,
    generate_scenario,
    load_rollout,
    scenario_spec_document,
    serialize_rollout,
)

from oracles import reference_monitor_text
from test_automata import check_dot_well_formed


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def scenario_files(tmp_path):
    rollout = tmp_path / "rollout.json"
    spec = tmp_path / "spec.json"
    assert (
        run_cli(
            "generate",
            "grasp_drop",
            "--seed",
            "7",
            "--out",
            str(rollout),
            "--spec-out",
            str(spec),
            "-q",
        )
        == 0
    )
    return rollout, spec


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_formula_reports_two_states(tmp_path, capsys):
    out = tmp_path / "dfa.json"
    assert run_cli("compile", "--formula", "G !collision", "--out", str(out)) == 0
    assert "states: 2" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["states"] == 2


def test_compile_template_to_dot(tmp_path):
    out = tmp_path / "phi4.dot"
    code = run_cli(
        "compile",
        "--template",
        "phi4",
        "--bind",
        "Contaminated=dirty",
        "--bind",
        "CleanContact=touch_clean",
        "--bind",
        "Sanitized=washed",
        "--format",
        "dot",
        "--out",
        str(out),
        "-q",
    )
    assert code == 0
    check_dot_well_formed(out.read_text())


def test_compile_bind_naming_a_slot_twice_exits_one(capsys):
    binds = ["--bind", "Collision=a", "--bind", "BadContact=c", "--bind", "Collision=b"]
    assert run_cli("compile", "--template", "phi1", *binds) == 1
    assert capsys.readouterr().err == "error: --bind names slot 'Collision' twice\n"


def test_compile_alphabet_too_large_exits_one(capsys):
    wide = " & ".join(f"F p{i}" for i in range(9))
    assert run_cli("compile", "--formula", wide) == 1
    assert "error" in capsys.readouterr().err


def test_compile_parse_error_exits_one(capsys):
    assert run_cli("compile", "--formula", "G (p &") == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_compile_formula_depth_limit(capsys):
    at_limit = "X " * (MAX_FORMULA_DEPTH - 1) + "p"
    assert run_cli("compile", "--formula", at_limit, "-q") == 0
    assert run_cli("compile", "--formula", "X " + at_limit) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {MAX_FORMULA_DEPTH} levels" in err


def test_back_to_back_calls_leak_no_parser_state(capsys):
    # main builds its parser once per process; each call must still see only
    # its own arguments.
    binds = ["--bind", "Collision=hit", "--bind", "BadContact=touch"]
    for _ in range(2):
        assert run_cli("compile", "--template", "phi1", *binds) == 0
        assert capsys.readouterr().err.endswith("props: hit, touch\n")
        assert run_cli("compile", "--template", "phi1") == 1
        assert capsys.readouterr().err == (
            "error: phi1: missing bindings for slots ['Collision', 'BadContact']\n"
        )
        assert run_cli("compile", "--formula", "G !p", "-q") == 0
        assert capsys.readouterr().err == ""
        assert run_cli("compile", "--formula", "G !p") == 0
        assert capsys.readouterr().err.endswith("props: p\n")
        assert run_cli("compile", "--formula", "G !p", "--no-such-flag") == 1
        assert capsys.readouterr().err == "error: safetrace: unrecognized arguments: --no-such-flag\n"


def test_compile_non_ascii_formula_is_one_error_line(capsys):
    assert run_cli("compile", "--formula", "G !\u00e1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 1, column 4" in err


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------


def test_monitor_violating_pair_exits_two(scenario_files, tmp_path, capsys):
    rollout, spec = scenario_files
    out = tmp_path / "monitor.json"
    code = run_cli("monitor", str(rollout), str(spec), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "violation: phi2" in err
    doc = json.loads(out.read_text())
    assert doc["instances"][0]["violated"] is True


def test_monitor_clean_pair_exits_zero(tmp_path):
    rollout = tmp_path / "r.json"
    spec = tmp_path / "s.json"
    run_cli(
        "generate", "clean_pick_place", "--out", str(rollout), "--spec-out", str(spec), "-q"
    )
    assert run_cli("monitor", str(rollout), str(spec), "-q") == 0


def test_monitor_task_mismatch_is_one_error_line_naming_no_library_keyword(scenario_files, tmp_path, capsys):
    rollout, _ = scenario_files  # a grasp_drop rollout
    spec = tmp_path / "s.json"
    run_cli("generate", "clean_pick_place", "--out", str(tmp_path / "r.json"), "--spec-out", str(spec), "-q")
    capsys.readouterr()
    assert run_cli("monitor", str(rollout), str(spec)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {rollout}: rollout task 'carry_bottle' does not match spec task 'place_mug_on_shelf'\n"
    assert "allow_task_mismatch" not in err


def test_monitor_missing_file_exits_one(tmp_path, capsys):
    assert run_cli("monitor", str(tmp_path / "nope.json"), str(tmp_path / "also.json")) == 1
    assert "error" in capsys.readouterr().err


def test_monitor_empty_path_is_one_error_line_showing_it(scenario_files, tmp_path, capsys):
    # Read as a path, "" is the working directory: "error: : Is a directory".
    rollout, spec = scenario_files
    out = tmp_path / "report.json"
    for argv in (["", str(spec)], [str(rollout), ""]):
        assert run_cli("monitor", *argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: '': empty path\n"
        assert not out.exists()


def test_monitor_strict_end_flag(tmp_path):
    rollout = tmp_path / "r.json"
    spec = tmp_path / "s.json"
    run_cli(
        "generate", "release_unsettled", "--out", str(rollout), "--spec-out", str(spec), "-q"
    )
    assert run_cli("monitor", str(rollout), str(spec), "-q") == 2
    assert (
        run_cli("monitor", str(rollout), str(spec), "--no-strict-end-of-trace", "-q") == 0
    )


def _reference_monitor_log(text: str) -> str:
    """The stderr of ``monitor`` for the report ``text``."""
    document = json.loads(text)
    violations = [i for i in document["instances"] if i["violated"]]
    lines = [
        f"violation: {i['property_id']} ({i['category']}) kind={i['violation_kind']} "
        f"timestep={i['violation_timestep']} exposure={i['exposure']:.4f}\n"
        for i in violations
    ]
    lines.append(
        f"rollout {document['rollout_id']}: {len(violations)} of "
        f"{len(document['instances'])} instances violated\n"
    )
    return "".join(lines)


@pytest.mark.parametrize(
    "scenario, strict",
    [
        ("clean_pick_place", True),
        ("grasp_drop", True),
        ("release_unsettled", True),
        ("release_unsettled", False),
        ("random_walk", False),
    ],
)
def test_monitor_output_matches_the_reference(tmp_path, capsys, scenario, strict):
    rollout = tmp_path / "r.json"
    spec = tmp_path / "s.json"
    run_cli("generate", scenario, "--out", str(rollout), "--spec-out", str(spec), "-q")
    spec_doc = json.loads(spec.read_text())
    # A custom property has no category, and "F false" fails at the first step.
    spec_doc["properties"].append({"id": "c", "template": "custom", "formula": "F false"})
    spec.write_text(json.dumps(spec_doc))
    evaluation = evaluate_rollout(
        load_rollout(rollout.read_text()), load_task_spec(spec.read_text()), strict_end=strict
    )
    expected = reference_monitor_text(evaluation)
    out = tmp_path / "monitor.json"
    flag = "--strict-end-of-trace" if strict else "--no-strict-end-of-trace"
    code = run_cli("monitor", str(rollout), str(spec), flag, "--out", str(out), "--stdout")
    captured = capsys.readouterr()
    assert captured.out == expected
    assert out.read_text(encoding="utf-8") == expected
    assert captured.err == _reference_monitor_log(expected)
    assert code == (2 if evaluation.unsafe else 0)


def test_monitor_spec_with_non_ascii_formula_is_one_error_line(scenario_files, tmp_path, capsys):
    rollout, _ = scenario_files
    spec = tmp_path / "unicode_spec.json"
    spec.write_text(json.dumps({
        "task": "grasp_drop",
        "suite": "atomic_fixture",
        "horizon": "atomic",
        "properties": [{"id": "c", "template": "custom", "formula": "G !\u00e9"}],
    }))
    assert run_cli("monitor", str(rollout), str(spec)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: ") and err.count("\n") == 1
    assert "unknown operator or character" in err


# ---------------------------------------------------------------------------
# generate / validate
# ---------------------------------------------------------------------------


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("generate", "grasp_drop", "--seed", "7", "--out", str(a), "-q")
    run_cli("generate", "grasp_drop", "--seed", "7", "--out", str(b), "-q")
    assert a.read_bytes() == b.read_bytes()


def test_generate_unknown_scenario_is_one_error_line(capsys):
    assert run_cli("generate", "not_a_scenario", "-q") == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: safetrace generate: argument scenario: invalid choice: 'not_a_scenario' (choose from "
    )
    assert err.count("\n") == 1


def test_generate_without_scenario_or_corpus_errors(capsys):
    assert run_cli("generate", "-q") == 1
    assert capsys.readouterr().err == (
        "error: safetrace generate: the following arguments are required: scenario\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["grasp_drop"], ["--length", "40"], ["--out", "{tmp}/r.json"], ["--spec-out", "{tmp}/s.json"]],
    ids=["scenario", "length", "out", "spec-out"],
)
def test_generate_corpus_with_a_single_rollout_flag_is_one_error_line(tmp_path, capsys, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run_cli("corpus", str(tmp_path / "corpus"), *argv) == 1
    assert capsys.readouterr().err == f"error: safetrace: unrecognized arguments: {' '.join(argv)}\n"
    assert list(tmp_path.iterdir()) == []


def test_generate_out_dir_without_corpus_is_one_error_line(tmp_path, capsys):
    out_dir = str(tmp_path / "d")
    assert run_cli("generate", "grasp_drop", "--out-dir", out_dir) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: safetrace: unrecognized arguments: --out-dir {out_dir}\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_corpus_writes_the_bundled_corpus(tmp_path, capsys):
    assert run_cli("corpus", str(tmp_path / "a")) == 0
    assert capsys.readouterr().err == f"corpus written; manifest at {tmp_path / 'a' / 'manifest.json'}\n"
    build_corpus(tmp_path / "b")
    written = {p.relative_to(tmp_path / "a"): p.read_bytes() for p in (tmp_path / "a").rglob("*") if p.is_file()}
    built = {p.relative_to(tmp_path / "b"): p.read_bytes() for p in (tmp_path / "b").rglob("*") if p.is_file()}
    assert len(written) == 214 and written == built


@pytest.mark.parametrize("flip_rate", ["2", "-1", "nan"])
def test_generate_flip_rate_outside_unit_interval_is_one_error_line(tmp_path, capsys, flip_rate):
    out = tmp_path / "walk.json"
    assert run_cli("generate", "random_walk", "--flip-rate", flip_rate, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: flip rate ") and err.count("\n") == 1
    assert not out.exists()


def test_allow_duplicate_bindings_must_be_boolean_in_cli(scenario_files, tmp_path, capsys):
    rollout, _ = scenario_files
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "task": "grasp_drop",
        "suite": "atomic_fixture",
        "horizon": "atomic",
        "properties": [{
            "id": "inv",
            "template": "phi1",
            "bindings": {"Collision": "x", "BadContact": "x"},
            "allow_duplicate_bindings": "no",
        }],
    }))
    assert run_cli("monitor", str(rollout), str(spec), "--out", str(tmp_path / "m.json")) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {spec}: properties[0] (id 'inv'): 'allow_duplicate_bindings' must be true or false\n"
    )


def test_template_entry_with_a_formula_is_one_error_line(scenario_files, tmp_path, capsys):
    rollout, _ = scenario_files
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "task": "grasp_drop",
        "suite": "atomic_fixture",
        "horizon": "atomic",
        "properties": [{
            "id": "a",
            "template": "phi1",
            "bindings": {"Collision": "x", "BadContact": "y"},
            "formula": "G !x",
        }],
    }))
    assert run_cli("monitor", str(rollout), str(spec), "--out", str(tmp_path / "m.json")) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {spec}: properties[0] (id 'a'): keys ['formula'] do not apply to a template instance\n"
    )


def test_validate_consistent_pair(scenario_files, capsys):
    rollout, spec = scenario_files
    assert run_cli("validate", str(rollout), str(spec), "-q") == 0


def test_validate_mismatched_pair_warns_but_exits_zero(tmp_path, capsys):
    rollout = tmp_path / "r.json"
    spec_other = tmp_path / "s.json"
    run_cli("generate", "clean_pick_place", "--out", str(rollout), "-q")
    run_cli("generate", "grasp_drop", "--spec-out", str(spec_other), "--out", str(tmp_path / "x.json"), "-q")
    assert run_cli("validate", str(rollout), str(spec_other)) == 0
    assert "task_mismatch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    build_corpus(directory)
    return directory


def test_evaluate_corpus_and_rerun_byte_identical(corpus_dir, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    manifest = str(corpus_dir / "manifest.json")
    assert run_cli("evaluate", manifest, "--out", str(out_a), "-q") == 0
    assert run_cli("evaluate", manifest, "--out", str(out_b), "-q") == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert "report.json" in names and "per_category.csv" in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_evaluate_rereads_a_spec_rewritten_between_runs(tmp_path, two_cpus):
    # Two pairs, so that the --workers 2 runs fork a child and go through the
    # spec cache of each process's share.
    pairs = []
    for i in range(2):
        rollout = tmp_path / f"r{i}.json"
        rollout.write_text(
            json.dumps(
                {
                    "rollout_id": f"r{i}",
                    "task": "t",
                    "policy": "p",
                    "success": True,
                    "trace": [[], ["collision"], []],
                }
            )
        )
        pairs.append({"rollout": rollout.name, "task_spec": "s.json"})
    spec = tmp_path / "s.json"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"pairs": pairs}))

    def evaluate(formula, *flags):
        spec.write_text(
            json.dumps(
                {
                    "task": "t",
                    "suite": "atomic_fixture",
                    "horizon": "atomic",
                    "properties": [{"id": "c", "template": "custom", "formula": formula}],
                }
            )
        )
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        assert run_cli("evaluate", str(manifest), "--out", str(out), "-q", *flags) == 0
        report = json.loads((out / "report.json").read_text())
        return report["n_rollouts"], report["overall_violation_rate"]["exact"]

    assert evaluate("G !collision") == (2, "1/1")
    assert evaluate("G !bad_contact") == (2, "0/1")
    assert evaluate("G !collision", "--workers", "2") == (2, "1/1")
    assert evaluate("G !bad_contact", "--workers", "2") == (2, "0/1")
    assert run_cli("monitor", str(rollout), str(spec), "-q") == 0


def _usable_cpus(monkeypatch, cpus: set[int]) -> None:
    """Make ``evaluate`` see ``cpus`` as the CPUs it may use. No process
    moves between CPUs meanwhile, so this one keeps its real affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)


@pytest.fixture()
def two_cpus(monkeypatch):
    """Two usable CPUs, so that ``--workers 2`` forks a child even on a
    one-CPU runner."""
    _usable_cpus(monkeypatch, {0, 1})


def _count_forks(monkeypatch) -> list:
    """A list that gets one entry per ``os.fork`` call of this process."""
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_evaluate_starts_at_most_one_worker_per_pair(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, set(range(8)))
    forks = _count_forks(monkeypatch)
    forks_per_run = []
    spec = {"task": "t", "suite": "atomic_fixture", "horizon": "atomic", "properties": []}
    (tmp_path / "s.json").write_text(json.dumps(spec))
    pairs, lines = [], []
    for i in range(2):
        rollout = {"rollout_id": f"r{i}", "task": "t", "policy": "p", "success": True, "trace": [[]]}
        (tmp_path / f"r{i}.json").write_text(json.dumps(rollout))
        pairs.append({"rollout": f"r{i}.json", "task_spec": "s.json"})
        lines.append(json.dumps(rollout))
    for n in (2, 1):
        manifest = tmp_path / f"manifest{n}.json"
        manifest.write_text(json.dumps({"pairs": pairs[:n]}))
        stream = tmp_path / f"stream{n}.jsonl"
        stream.write_text("\n\n".join(lines[:n]) + "\n")
        for source in ([str(manifest)], ["--jsonl", str(stream), "--task-spec", str(tmp_path / "s.json")]):
            out = tmp_path / f"out{n}{len(source)}"
            before = len(forks)
            assert run_cli("evaluate", *source, "--out", str(out), "--workers", "8", "-q") == 0
            assert json.loads((out / "report.json").read_text())["n_rollouts"] == n
            forks_per_run.append(len(forks) - before)
    # Two pairs are two shares: this process folds one and one child the other.
    assert forks_per_run == [1, 1, 0, 0]
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("cpus", ["affinity", "cpu_count"])
def test_evaluate_forks_nothing_on_one_usable_cpu(tmp_path, monkeypatch, cpus):
    if cpus == "affinity":
        _usable_cpus(monkeypatch, {0})
    else:  # where the affinity calls are missing, the CPU count bounds the processes
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    forks = _count_forks(monkeypatch)
    lines, spec_text = _rollout_lines(3)
    source = _evaluate_input(tmp_path, "jsonl", lines, spec_text)
    assert run_cli("evaluate", *source, "--out", str(tmp_path / "out"), "--workers", "8", "-q") == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["n_rollouts"] == 3
    assert forks == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
def test_a_worker_moving_to_its_cpu_keeps_every_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    for index in range(len(allowed) + 2):
        cli._move_to_cpu(index)
        assert os.sched_getaffinity(0) == allowed


@pytest.fixture(params=["default", "no_fork"])
def fork_start(request, monkeypatch):
    """``--workers`` as this platform runs it, forking where ``os.fork``
    exists, or as it runs without ``os.fork`` (Windows): in this process.
    Three usable CPUs, so that ``--workers 8`` forks two children even on a
    one-CPU runner."""
    _usable_cpus(monkeypatch, {0, 1, 2})
    if request.param == "no_fork":
        monkeypatch.delattr(os, "fork", raising=False)
    return request.param


def _rollout_lines(count: int) -> tuple[list[str], str]:
    """``count`` grasp_drop rollouts as JSON lines, and their task spec."""
    lines = [
        json.dumps(json.loads(serialize_rollout(generate_scenario(ScenarioParams("grasp_drop", 40, seed)))))
        for seed in range(count)
    ]
    return lines, json.dumps(scenario_spec_document("grasp_drop"))


def _evaluate_input(tmp_path, kind: str, lines: list[str], spec_text: str) -> list[str]:
    """The input arguments of ``evaluate`` for ``lines``: one JSONL file
    (blank lines kept), or one rollout file per nonblank line and a
    manifest."""
    directory = tmp_path / f"input{len(list(tmp_path.iterdir()))}"
    directory.mkdir()
    (directory / "spec.json").write_text(spec_text)
    if kind == "jsonl":
        (directory / "rollouts.jsonl").write_text("\n".join(lines) + "\n")
        return ["--jsonl", str(directory / "rollouts.jsonl"), "--task-spec", str(directory / "spec.json")]
    pairs = []
    for i, line in enumerate(line for line in lines if line.strip()):
        (directory / f"r{i}.json").write_text(line)
        pairs.append({"rollout": f"r{i}.json", "task_spec": "spec.json"})
    (directory / "manifest.json").write_text(json.dumps({"pairs": pairs}))
    return [str(directory / "manifest.json")]


@pytest.mark.parametrize("kind", ["jsonl", "manifest"])
def test_evaluate_reports_are_byte_identical_across_worker_counts(tmp_path, kind, fork_start):
    lines, spec_text = _rollout_lines(5)
    lines.insert(2, "  ")
    source = _evaluate_input(tmp_path, kind, lines, spec_text)
    outputs = {}
    for workers in ("0", "2", "8"):  # 8 workers on three CPUs: shares of 1, 2 and 2
        out = tmp_path / f"out{workers}"
        assert run_cli("evaluate", *source, "--out", str(out), "--workers", workers, "-q") == 0
        outputs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outputs["0"]) == 12
    assert outputs["0"] == outputs["2"] == outputs["8"]
    assert json.loads(outputs["0"]["report.json"])["n_rollouts"] == 5


def test_evaluate_bytes_match_across_workers_when_specs_share_a_custom_shape(tmp_path, fork_start):
    lines, spec_text = _rollout_lines(4)
    spec = json.loads(spec_text)
    names = sorted({name for entry in spec["properties"] for name in entry["bindings"].values()})
    orders = list(itertools.permutations(names[:3]))
    pairs = []
    for i, line in enumerate(lines):
        # One shape under three of its six name orders per spec; each share
        # of --workers 2 compiles it in its own process.
        custom = [
            {"id": f"c{j}", "template": "custom", "formula": "G ({} -> F ({} | X !{}))".format(*orders[i + j])}
            for j in range(3)
        ]
        (tmp_path / f"r{i}.json").write_text(line)
        (tmp_path / f"s{i}.json").write_text(json.dumps(dict(spec, properties=spec["properties"] + custom)))
        pairs.append({"rollout": f"r{i}.json", "task_spec": f"s{i}.json"})
    (tmp_path / "manifest.json").write_text(json.dumps({"pairs": pairs}))
    outputs = {}
    for workers in ("0", "2"):
        out = tmp_path / f"out{workers}"
        assert run_cli("evaluate", str(tmp_path / "manifest.json"), "--out", str(out), "--workers", workers, "-q") == 0
        outputs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs["0"] == outputs["2"]
    assert json.loads(outputs["0"]["report.json"])["n_rollouts"] == 4


def _error_cases(kind: str) -> dict[str, tuple[list[str], str, int | str | None]]:
    """Inputs of four rollouts and a task spec, so that ``--workers 2`` runs
    two shares of two, each with its own errors; with each, what the first
    error in input order is about: the number of a rollout (its line),
    ``"spec"``, or ``"path"`` when the batch's input is named by an empty
    path instead."""
    lines, spec_text = _rollout_lines(4)
    other_task = json.dumps(dict(json.loads(lines[2]), task="other_task"))
    spec = json.loads(spec_text)
    bad_specs = [
        json.dumps(dict(spec, properties=[{"id": "bad", "template": "custom", "formula": f}, *spec["properties"]]))
        for f in ("G (a &", " | ".join(f"p{i}" for i in range(9)))
    ]
    cases = {
        "malformed rollout in the second share": (lines[:3] + ['{"rollout_id": "x", "trace": ['], spec_text, 4),
        "task mismatch in the second share": (lines[:2] + [other_task, lines[3]], spec_text, 3),
        "errors in both shares": ([lines[0], "[1]", other_task, lines[3]], spec_text, 2),
        "duplicate ids across shares": (lines[:3] + [lines[0]], spec_text, None),
        "empty input": ([], spec_text, None),
        # A manifest's spec is loaded in each process, so its error is piped back.
        "spec whose custom formula fails": (lines, bad_specs[0], "spec"),
        "spec whose custom formula has 9 propositions": (lines, bad_specs[1], "spec"),
        # A manifest's rollout is decoded before its spec is loaded; the
        # --jsonl spec is loaded before the file's lines are read.
        "malformed first rollout and a failing spec": (["[1]", *lines[1:]], bad_specs[0], "spec" if kind == "jsonl" else 1),
        # An empty path names no file; read as one, it would be the working directory.
        "empty path": (lines, spec_text, "path"),
    }
    if kind == "manifest":
        del cases["empty input"]  # a manifest without pairs never reaches the fold
    return cases


@pytest.mark.parametrize("kind", ["jsonl", "manifest"])
def test_evaluate_errors_are_the_same_with_and_without_workers(tmp_path, capsys, kind, fork_start):
    for name, (lines, spec_text, first_bad) in _error_cases(kind).items():
        source = _evaluate_input(tmp_path, kind, lines, spec_text)
        if first_bad == "path":
            source = ["--jsonl", "", *source[2:]] if kind == "jsonl" else [""]
        results = []
        for workers in ("0", "2"):
            out = tmp_path / f"out-{name}-{workers}"
            code = run_cli("evaluate", *source, "--out", str(out), "--workers", workers, "-q")
            results.append((code, capsys.readouterr().err, out.exists()))
            _assert_no_child_left()  # also after an error in this process's share
        assert results[0] == results[1], name
        code, err, wrote = results[0]
        assert (code, wrote) == (1, False), name
        # A batch-level error names the batch's input: the JSONL file or the manifest.
        batch = source[1] if kind == "jsonl" else source[0]
        if name == "duplicate ids across shares":
            assert err == f"error: {batch}: duplicate rollout_id in evaluation batch: ['grasp_drop-0000']\n"
        elif name == "empty input":
            assert err == f"error: {batch}: cannot aggregate an empty evaluation collection\n"
        elif name == "empty path":
            assert err == "error: '': empty path\n"
        else:
            if first_bad == "spec":
                where = f"{Path(source[-1]).parent / 'spec.json'}: properties[0] (id 'bad')"
            elif kind == "jsonl":
                where = f"{source[1]}, line {first_bad}"
            else:
                where = str(Path(source[0]).parent / f"r{first_bad - 1}.json")
            assert err.startswith(f"error: {where}: ") and err.count("\n") == 1, name


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("kind", ["jsonl", "manifest"])
def test_a_worker_killed_before_its_result_is_one_error_line(tmp_path, capsys, monkeypatch, two_cpus, kind):
    # The forked child inherits the patch and kills itself, as the OOM killer would.
    parent, fold_share = os.getpid(), cli._fold_share

    def fold_or_die(share, specs, strict):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fold_share(share, specs, strict)

    monkeypatch.setattr(cli, "_fold_share", fold_or_die)
    lines, spec_text = _rollout_lines(4)
    source = _evaluate_input(tmp_path, kind, lines, spec_text)
    out = tmp_path / "out"
    assert run_cli("evaluate", *source, "--out", str(out), "--workers", "2", "-q") == 1
    # The second share starts at the third rollout.
    where = f"{source[1]}, line 3" if kind == "jsonl" else str(Path(source[0]).parent / "r2.json")
    assert capsys.readouterr().err == (
        f"error: {where}: worker process ended without a result (killed by signal {int(signal.SIGKILL)})\n"
    )
    assert not out.exists()
    _assert_no_child_left()


@pytest.mark.parametrize(
    "document, message",
    [
        ({"pairs": []}, "manifest must contain a nonempty 'pairs' list"),
        ([{"rollout": "r.json", "task_spec": "s.json"}], "manifest must contain a nonempty 'pairs' list"),
        ({"pairs": [{"rollout": "r.json", "task_spec": "s.json"}, 5]}, "bad manifest entry 5"),
        ({"pairs": [{"rollout": "r.json"}]}, "bad manifest entry {'rollout': 'r.json'}"),
    ],
    ids=["empty pairs", "a list", "an entry that is a number", "an entry without a task_spec"],
)
def test_manifest_errors_name_the_manifest(tmp_path, capsys, document, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(document))
    assert run_cli("evaluate", str(manifest), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_negative_workers_is_one_error_line(corpus_dir, tmp_path, capsys):
    manifest = str(corpus_dir / "manifest.json")
    assert run_cli("evaluate", manifest, "--out", str(tmp_path / "out"), "--workers", "-3") == 1
    assert capsys.readouterr().err == "error: --workers must be 0 or more, got -3\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_manifest_with_task_spec_is_one_error_line(corpus_dir, tmp_path, capsys):
    manifest, spec = str(corpus_dir / "manifest.json"), str(corpus_dir / "specs" / "grasp_drop.json")
    assert run_cli("evaluate", manifest, "--task-spec", spec, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: --task-spec is only meaningful with --jsonl\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_writes_utf8_under_an_ascii_locale(tmp_path):
    rollout = {
        "rollout_id": "r0", "task": "t", "policy": "p\u00f3licy", "success": True, "trace": [[]]
    }
    spec = {"task": "t", "suite": "atomic_fixture", "horizon": "atomic", "properties": []}
    (tmp_path / "r.json").write_text(json.dumps(rollout), encoding="utf-8")
    (tmp_path / "s.json").write_text(json.dumps(spec), encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"pairs": [{"rollout": "r.json", "task_spec": "s.json"}]}))
    src = str(Path(safetrace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    argv = ["evaluate", str(manifest), "--out", str(tmp_path / "out")]
    completed = subprocess.run(
        [sys.executable, "-m", "safetrace.cli", *argv],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    rows = (tmp_path / "out" / "per_policy.csv").read_bytes().decode("utf-8").splitlines()
    assert rows[1].split(",")[0] == "p\u00f3licy"


def test_json_specs_never_import_yaml(scenario_files, tmp_path):
    rollout, spec = scenario_files
    # Wording the error of a JSON spec with a repeated key needs no yaml either.
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"task": "t", "task": "u"}')
    script = (
        "import sys\n"
        "from safetrace import cli, load_task_spec\n"
        "load_task_spec(open(sys.argv[2], encoding='utf-8').read())\n"
        "code = cli.main(['monitor', sys.argv[1], sys.argv[2], '-q'])\n"
        "repeated = cli.main(['monitor', sys.argv[1], sys.argv[3], '-q'])\n"
        "print(code, repeated, 'yaml' in sys.modules)\n"
    )
    src = str(Path(safetrace.__file__).resolve().parent.parent)
    completed = subprocess.run(
        [sys.executable, "-c", script, str(rollout), str(spec), str(repeated)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "2 1 False\n"
    assert "duplicate key 'task'" in completed.stderr


def test_sequential_runs_never_import_the_process_pool(scenario_files, tmp_path):
    rollout, spec = scenario_files
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"pairs": [{"rollout": str(rollout), "task_spec": str(spec)}]}))
    script = (
        "import sys\n"
        "from safetrace import cli\n"
        "codes = [\n"
        "    cli.main(['evaluate', sys.argv[3], '--out', sys.argv[4], '--workers', '0', '-q']),\n"
        "    cli.main(['monitor', sys.argv[1], sys.argv[2], '-q']),\n"
        "    cli.main(['evaluate', sys.argv[3], '--out', sys.argv[4], '--workers', '8', '-q']),\n"
        "]\n"
        "print(*codes, 'concurrent.futures' in sys.modules)\n"
    )
    src = str(Path(safetrace.__file__).resolve().parent.parent)
    completed = subprocess.run(
        [sys.executable, "-c", script, str(rollout), str(spec), str(manifest), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    # One pair is one worker at most, so even --workers 8 runs in process.
    assert completed.stdout == "0 2 0 False\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_forked_runs_never_import_multiprocessing(tmp_path):
    lines, spec_text = _rollout_lines(2)
    source = _evaluate_input(tmp_path, "manifest", lines, spec_text)
    # Two usable CPUs even on a one-CPU runner, and a count of the forks.
    script = (
        "import os, sys\n"
        "from safetrace import cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(None) or fork()\n"
        "code = cli.main(['evaluate', sys.argv[1], '--out', sys.argv[2], '--workers', '2', '-q'])\n"
        "print(code, len(forks), sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    src = str(Path(safetrace.__file__).resolve().parent.parent)
    completed = subprocess.run(
        [sys.executable, "-c", script, source[0], str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "0 1 []\n"


def test_package_never_imports_dataclasses_or_inspect(scenario_files, tmp_path):
    rollout, spec = scenario_files
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"pairs": [{"rollout": str(rollout), "task_spec": str(spec)}]}))
    script = (
        "import sys\n"
        "import safetrace\n"
        "from safetrace import cli\n"
        "codes = [\n"
        "    cli.main(['monitor', sys.argv[1], sys.argv[2], '-q']),\n"
        "    cli.main(['evaluate', sys.argv[3], '--out', sys.argv[4], '--workers', '0', '-q']),\n"
        "    cli.main(['compile', '--formula', 'G (a -> F b)', '-q']),\n"
        "]\n"
        "print(*codes, sorted({'dataclasses', 'inspect'} & set(sys.modules)), file=sys.stderr)\n"
    )
    src = str(Path(safetrace.__file__).resolve().parent.parent)
    completed = subprocess.run(
        [sys.executable, "-c", script, str(rollout), str(spec), str(manifest), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == "2 0 0 []\n"


def _count_builds(monkeypatch) -> Counter:
    """Count the `MonitorResult`s and `InstanceMeta`s built from now on."""
    built = Counter()
    for cls in (MonitorResult, InstanceMeta):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built[type(self).__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_evaluate_and_quiet_monitor_build_no_per_instance_result(tmp_path, monkeypatch):
    rollout, spec = tmp_path / "rollout.json", tmp_path / "spec.json"
    generate = ["generate", "clean_pick_place", "--out", str(rollout), "--spec-out", str(spec)]
    assert run_cli(*generate, "-q") == 0
    # One more property, violated, so that the monitor logs a violation line.
    document = json.loads(spec.read_text())
    held = min(frozenset().union(*load_rollout(rollout.read_text()).valuations))
    document["properties"].append({"id": "never", "template": "custom", "formula": f"G !{held}"})
    spec.write_text(json.dumps(document))
    instances = len(load_task_spec(spec.read_text()).instances)
    assert instances == 4
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"pairs": [{"rollout": str(rollout), "task_spec": str(spec)}]}))
    line = json.dumps(json.loads(rollout.read_text()))
    (tmp_path / "rollouts.jsonl").write_text(f"{line}\n")
    built = _count_builds(monkeypatch)
    assert run_cli("evaluate", str(manifest), "--out", str(tmp_path / "a"), "-q") == 0
    jsonl = ["--jsonl", str(tmp_path / "rollouts.jsonl"), "--task-spec", str(spec)]
    assert run_cli("evaluate", *jsonl, "--out", str(tmp_path / "b"), "-q") == 0
    assert built == {}
    monitor = ["monitor", str(rollout), str(spec), "--out", str(tmp_path / "m.json")]
    assert run_cli(*monitor, "-q") == 2
    assert built == {}
    # Only a violation line that is printed reads a result: "never" is the one.
    assert run_cli(*monitor) == 2
    assert built == {"MonitorResult": 1}


def test_surrogate_identifiers_are_one_error_line(tmp_path, capsys):
    rollout = tmp_path / "r.json"
    rollout.write_text(
        '{"rollout_id": "r0", "task": "t", "policy": "p\\ud800", "success": true, "trace": [[]]}'
    )
    spec = tmp_path / "s.json"
    spec.write_text('{"task": "t", "suite": "atomic_fixture", "horizon": "atomic", "properties": []}')
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"pairs": [{"rollout": "r.json", "task_spec": "s.json"}]}))
    assert run_cli("evaluate", str(manifest), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {rollout}: 'policy' contains a surrogate code point, which UTF-8 cannot encode\n"
    )


def test_misspelled_step_key_is_one_error_line(tmp_path, capsys):
    rollout = tmp_path / "r.json"
    rollout.write_text(
        json.dumps(
            {
                "rollout_id": "r0",
                "task": "t",
                "policy": "p",
                "success": True,
                "trace": [{"t": 0, "props": []}, {"t": 1, "prop": ["collision"]}],
            }
        )
    )
    spec = tmp_path / "s.json"
    spec.write_text('{"task": "t", "suite": "atomic_fixture", "horizon": "atomic", "properties": []}')
    assert run_cli("monitor", str(rollout), str(spec)) == 1
    assert capsys.readouterr().err == f"error: {rollout}: step 1: unknown keys ['prop']\n"


def test_a_repeated_key_is_one_error_line_in_every_input_file(tmp_path, capsys, monkeypatch):
    document = {"rollout_id": "r0", "task": "t", "policy": "p", "success": True, "trace": [[]]}
    line = json.dumps(document)
    rollout, spec = tmp_path / "r.json", tmp_path / "s.json"
    rollout.write_text(line)
    spec_text = '{"task": "t", "suite": "atomic_fixture", "horizon": "atomic", "properties": []}'
    spec.write_text(spec_text)
    files = {
        "r2.json": line.replace('"success": true', '"success": true, "success": false'),
        "s2.json": spec_text[:-1] + ', "properties": []}',
        "s2.yaml": "task: t\nsuite: atomic_fixture\nhorizon: atomic\nproperties: []\nproperties: []\n",
        "m.json": json.dumps({"pairs": [{"rollout": "r.json", "task_spec": "s.json"}]})[:-1] + ', "pairs": []}',
        "r.jsonl": line + "\n" + line.replace('"policy": "p"', '"policy": "p", "policy": "q"') + "\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    runs = {
        "r2.json": (["monitor", "r2.json", str(spec)], "invalid JSON: duplicate key 'success'"),
        "s2.json": (
            ["monitor", str(rollout), "s2.json"],
            "document is neither valid JSON nor YAML: duplicate key 'properties'",
        ),
        "s2.yaml": (
            ["monitor", str(rollout), "s2.yaml"],
            "document is neither valid JSON nor YAML: while constructing a mapping: "
            "found duplicate key 'properties' at line 5, column 1",
        ),
        "m.json": (["evaluate", "m.json"], "invalid JSON: duplicate key 'pairs'"),
        "r.jsonl, line 2": (
            ["evaluate", "--jsonl", "r.jsonl", "--task-spec", str(spec)],
            "invalid JSON: duplicate key 'policy'",
        ),
    }
    monkeypatch.chdir(tmp_path)
    for where, (argv, message) in runs.items():
        assert run_cli(*argv, "--out", "out") == 1
        assert capsys.readouterr().err == f"error: {where}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_empty_manifest_exits_one(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"pairs": []}))
    assert run_cli("evaluate", str(manifest), "--out", str(tmp_path / "out")) == 1
    assert "nonempty" in capsys.readouterr().err


def test_evaluate_jsonl_stream(tmp_path):
    rollouts = []
    spec_path = tmp_path / "spec.json"
    for seed in range(4):
        path = tmp_path / f"r{seed}.json"
        run_cli(
            "generate",
            "grasp_drop",
            "--seed",
            str(seed),
            "--out",
            str(path),
            "--spec-out",
            str(spec_path),
            "-q",
        )
        rollouts.append(json.loads(path.read_text()))
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(json.dumps(r) for r in rollouts) + "\n")
    out = tmp_path / "out"
    code = run_cli(
        "evaluate",
        "--jsonl",
        str(stream),
        "--task-spec",
        str(spec_path),
        "--out",
        str(out),
        "-q",
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["n_rollouts"] == 4
    assert doc["overall_violation_rate"]["exact"] == "1/1"


def test_help_enumerates_flags_with_defaults(capsys):
    for argv, expected_flags in [
        (["evaluate", "--help"], ["--out", "--format", "--workers", "--denominator", "--strict-end-of-trace"]),
        (["generate", "--help"], ["--length", "--seed", "--flip-rate", "--out", "--spec-out"]),
        (["corpus", "--help"], ["--quiet"]),
        (["compile", "--help"], ["--formula", "--template", "--bind", "--format"]),
        (["monitor", "--help"], ["--out", "--stdout", "--strict-end-of-trace"]),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in expected_flags:
            assert flag in text, (argv, flag)
        assert "default:" in text


def test_evaluate_spec_error_names_the_spec(scenario_files, tmp_path, capsys):
    rollout, _ = scenario_files
    spec = tmp_path / "bad_spec.json"
    spec.write_text(json.dumps({
        "task": "grasp_drop",
        "properties": [{"id": "c", "template": "custom", "formula": "G (p &"}],
    }))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"pairs": [{"rollout": rollout.name, "task_spec": spec.name}]}))
    assert run_cli("evaluate", str(manifest), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: ") and err.count("\n") == 1
    assert str(rollout) not in err


def test_non_utf8_input_is_an_error_naming_the_file(scenario_files, tmp_path, capsys):
    rollout, spec = scenario_files
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"rollout_id": "caf\xe9"}'.encode("latin-1"))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"pairs": [{"rollout": bad.name, "task_spec": spec.name}]}))
    out = str(tmp_path / "out")
    for argv in [
        ("monitor", str(bad), str(spec)),
        ("monitor", str(rollout), str(bad)),
        ("validate", str(bad), str(spec)),
        ("evaluate", str(manifest), "--out", out),
        ("evaluate", str(bad), "--out", out),
        ("evaluate", "--jsonl", str(bad), "--task-spec", str(spec), "--out", out),
        ("evaluate", "--jsonl", str(rollout), "--task-spec", str(bad), "--out", out),
    ]:
        assert run_cli(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err == f"error: {bad}: not valid UTF-8 text (invalid continuation byte)\n", argv


def test_overlong_integer_is_an_error_naming_the_file(scenario_files, tmp_path, capsys):
    rollout, spec = scenario_files
    digits = tmp_path / "digits.json"
    digits.write_text('{"pairs": ' + "1" * 5000 + "}")
    out = str(tmp_path / "out")
    for argv in (
        ("monitor", str(digits), str(spec)),
        ("monitor", str(rollout), str(digits)),
        ("evaluate", str(digits), "--out", out),
    ):
        assert run_cli(*argv, "-q") == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {digits}: ") and err.count("\n") == 1, argv


def test_deeply_nested_input_is_an_error_naming_the_file(scenario_files, tmp_path, capsys):
    rollout, spec = scenario_files
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    deep_yaml = tmp_path / "deep.yaml"
    deep_yaml.write_text("- " * 50000 + "x\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"pairs": [{"rollout": deep.name, "task_spec": spec.name}]}))
    out = str(tmp_path / "out")
    cases = [
        (("monitor", str(deep), str(deep)), f"error: {deep}: JSON nested too deeply to parse\n"),
        (
            ("monitor", str(rollout), str(deep)),
            f"error: {deep}: document nested too deeply to parse\n",
        ),
        (
            ("monitor", str(rollout), str(deep_yaml)),
            f"error: {deep_yaml}: document nested too deeply to parse\n",
        ),
        (("evaluate", str(deep), "--out", out), f"error: {deep}: JSON nested too deeply to parse\n"),
        (
            ("evaluate", str(manifest), "--out", out),
            f"error: {deep}: JSON nested too deeply to parse\n",
        ),
        (
            ("evaluate", "--jsonl", str(deep), "--task-spec", str(spec), "--out", out),
            f"error: {deep}, line 1: JSON nested too deeply to parse\n",
        ),
    ]
    for argv, expected in cases:
        assert run_cli(*argv, "-q") == 1, argv
        assert capsys.readouterr().err == expected, argv


# ---------------------------------------------------------------------------
# every flag of every mode
# ---------------------------------------------------------------------------

#: The base argv of each mode; ``{name}`` stands for an input file of
#: ``flag_inputs``. A release_unsettled rollout violates its spec only when
#: an unmet end-of-trace obligation counts, so ``monitor`` exits 2 on the
#: strict base and 0 on the lax one.
_MODES = {
    "compile formula": ["compile", "--formula", "G !p"],
    "compile formula to a file": ["compile", "--formula", "G !p", "--out", "dfa"],
    "compile template": ["compile", "--template", "phi1", "--bind", "Collision=hit", "--bind", "BadContact=touch"],
    "monitor": ["monitor", "{rollout}", "{spec}"],
    "monitor, lax": ["monitor", "{rollout}", "{spec}", "--no-strict-end-of-trace"],
    "evaluate manifest": ["evaluate", "{manifest}", "--out", "out"],
    "evaluate manifest, lax": ["evaluate", "{manifest}", "--out", "out", "--no-strict-end-of-trace"],
    "evaluate jsonl": ["evaluate", "--jsonl", "{jsonl}", "--task-spec", "{spec}", "--out", "out"],
    "generate": ["generate", "random_walk"],
    "corpus": ["corpus", "corpus"],
    "validate": ["validate", "{rollout}", "{spec}"],
}

#: Per mode, the arguments added to its base, each with what they must do:
#: ``"changes"`` the exit code, stdout, stderr or the files written, without
#: an error; or be ``"refused"``: exit 1, one ``error:`` line, nothing
#: written. ``"same"`` is for ``--workers`` alone, which only splits the
#: work: its report is byte-identical by contract.
_FLAGS = {
    "compile formula": [
        (["--out", "dfa.json"], "changes"),
        (["--stdout"], "changes"),
        (["--format", "dot"], "refused"),
        (["--format", "json"], "refused"),
        (["--formula", "G !q"], "changes"),
        (["--template", "phi1"], "refused"),
        (["--bind", "Collision=hit"], "refused"),
        (["-q"], "changes"),
        (["--quiet"], "changes"),
        (["--qiuet"], "refused"),
        (["G !q"], "refused"),
    ],
    "compile formula to a file": [
        (["--format", "dot"], "changes"),
        (["--format", "svg"], "refused"),
        (["--stdout"], "changes"),
    ],
    "compile template": [
        (["--out", "dfa.json"], "changes"),
        (["--stdout"], "changes"),
        (["--format", "dot"], "refused"),
        (["--formula", "G !p"], "refused"),
        (["--template", "phi8"], "refused"),
        (["--bind", "Collision=other"], "refused"),
        (["--bind", "Nope=x"], "refused"),
        (["--bind", "Collision"], "refused"),
        (["-q"], "changes"),
    ],
    "monitor": [
        (["--out", "monitor.json"], "changes"),
        (["--stdout"], "changes"),
        (["--no-strict-end-of-trace"], "changes"),
        (["-q"], "changes"),
        (["--strict-end-of-trce"], "refused"),
        (["--no-such-flag"], "refused"),
        (["--format", "json"], "refused"),
        (["--workers", "2"], "refused"),
        (["{spec}"], "refused"),
    ],
    "monitor, lax": [
        (["--strict-end-of-trace"], "changes"),
    ],
    "evaluate manifest": [
        (["--out", "elsewhere"], "changes"),
        (["--format", "json"], "changes"),
        (["--format", "csv"], "changes"),
        (["--format", "dot"], "refused"),
        (["--denominator", "task"], "changes"),
        (["--denominator", "instance"], "refused"),
        (["--workers", "2"], "same"),
        (["--workers", "-1"], "refused"),
        (["--workers", "x"], "refused"),
        (["--no-strict-end-of-trace"], "changes"),
        (["--task-spec", "{spec}"], "refused"),
        (["--jsonl", "{jsonl}"], "refused"),
        (["--stdout"], "refused"),
        (["-q"], "changes"),
        (["--quite"], "refused"),
    ],
    "evaluate manifest, lax": [
        (["--strict-end-of-trace"], "changes"),
    ],
    "evaluate jsonl": [
        (["{manifest}"], "refused"),
        (["--format", "json"], "changes"),
        (["--denominator", "task"], "changes"),
        (["--workers", "2"], "same"),
        (["--no-strict-end-of-trace"], "changes"),
        (["-q"], "changes"),
    ],
    "generate": [
        (["--length", "40"], "changes"),
        (["--length", "0"], "refused"),
        (["--length", "4.5"], "refused"),
        (["--seed", "3"], "changes"),
        (["--flip-rate", "0.5"], "changes"),
        (["--flip-rate", "2"], "refused"),
        (["--out", "r.json"], "changes"),
        (["--spec-out", "s.json"], "changes"),
        (["-q"], "changes"),
        (["--corpus"], "refused"),
        (["--out-dir", "d"], "refused"),
        (["grasp_drop"], "refused"),
    ],
    "corpus": [
        (["-q"], "changes"),
        (["--seed", "3"], "refused"),
        (["--flip-rate", "0.5"], "refused"),
        (["--length", "40"], "refused"),
        (["--out", "r.json"], "refused"),
        (["--spec-out", "s.json"], "refused"),
        (["--out-dir", "d"], "refused"),
        (["grasp_drop"], "refused"),
    ],
    "validate": [
        (["-q"], "changes"),
        (["--out", "v.json"], "refused"),
        (["--no-strict-end-of-trace"], "refused"),
    ],
}


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """A release_unsettled rollout and its spec, a manifest of that rollout
    and two grasp_drop ones (two tasks, so both denominators differ), and a
    JSONL file of three release_unsettled rollouts."""
    directory = tmp_path_factory.mktemp("flag_inputs")
    pairs, lines = [], []
    for scenario, seed in [("release_unsettled", 0), ("grasp_drop", 0), ("grasp_drop", 1)]:
        name = f"{scenario}-{seed}"
        (directory / f"{name}.json").write_text(serialize_rollout(generate_scenario(ScenarioParams(scenario, 40, seed))))
        (directory / f"{scenario}.json").write_text(json.dumps(scenario_spec_document(scenario)))
        pairs.append({"rollout": f"{name}.json", "task_spec": f"{scenario}.json"})
    for seed in range(3):
        lines.append(json.dumps(json.loads(serialize_rollout(generate_scenario(ScenarioParams("release_unsettled", 40, seed))))))
    (directory / "manifest.json").write_text(json.dumps({"pairs": pairs}))
    (directory / "rollouts.jsonl").write_text("\n".join(lines) + "\n")
    return {
        "rollout": str(directory / "release_unsettled-0.json"),
        "spec": str(directory / "release_unsettled.json"),
        "manifest": str(directory / "manifest.json"),
        "jsonl": str(directory / "rollouts.jsonl"),
    }


def _outcome(monkeypatch, capsys, directory: Path, argv: list[str]) -> tuple:
    """Exit code, stdout, stderr and the files written (relative path to
    bytes) of ``main(argv)`` run in the new empty directory ``directory``."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    code = main(argv)
    out, err = capsys.readouterr()
    files = {str(p.relative_to(directory)): p.read_bytes() for p in directory.rglob("*") if p.is_file()}
    return code, out, err, files


@pytest.mark.parametrize("mode", list(_FLAGS))
def test_every_flag_changes_the_outcome_or_is_refused(tmp_path, monkeypatch, capsys, flag_inputs, mode):
    base = [arg.format(**flag_inputs) for arg in _MODES[mode]]
    expected = _outcome(monkeypatch, capsys, tmp_path / "base", base)
    assert expected[0] in (0, 2), (mode, expected[2])
    for n, (extra, effect) in enumerate(_FLAGS[mode]):
        argv = [*base, *(arg.format(**flag_inputs) for arg in extra)]
        code, out, err, files = outcome = _outcome(monkeypatch, capsys, tmp_path / f"run{n}", argv)
        assert code != 2 or argv[0] == "monitor", (extra, err)
        if effect == "refused":
            assert (code, out, files) == (1, "", {}), (extra, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (extra, err)
        elif effect == "changes":
            assert code != 1 and outcome != expected, (extra, err)
        else:
            assert outcome == expected, extra


def test_the_flag_table_covers_every_flag():
    parser = cli._build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted({argv[0] for argv in _MODES.values()})
    for command, subparser in subparsers.choices.items():
        given = {arg for mode, cases in _FLAGS.items() if _MODES[mode][0] == command for extra, _ in cases for arg in extra}
        for action in subparser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                assert given & set(action.option_strings), (command, action.option_strings)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["evaulate"],
        ["--no-such-flag"],
        ["compile"],
        ["compile", "--formula", "G !p", "--template", "phi1"],
        ["monitor", "r.json"],
        ["validate"],
        ["evaluate", "--out", "out"],
        ["evaluate", "m.json"],
        ["evaluate", "m.json", "--jsonl", "r.jsonl", "--out", "out"],
        ["evaluate", "--jsonl", "r.jsonl", "--out", "out"],
        ["evaluate", "m.json", "--out", "out", "--workers"],
        ["generate", "random_walk", "--seed", "1.5"],
        ["corpus"],
        ["corpus", "a", "b"],
    ],
    ids=" ".join,
)
def test_a_usage_error_is_one_error_line_and_exit_one(tmp_path, monkeypatch, capsys, argv):
    code, out, err, files = _outcome(monkeypatch, capsys, tmp_path / "run", argv)
    assert (code, out, files) == (1, "", {})
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["--help"], ["--version"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""
