"""Stepwise monitoring: verdict lattice, exposure accounting, batch parity."""

import pickle
import random
from fractions import Fraction

import pytest

from safetrace.automata import Dfa, Permanence, compile_formula
from safetrace.errors import MonitorError
from safetrace.formulas import Trace, evaluate, parse
from safetrace.monitor import Monitor, Verdict, run_masks, run_trace
from safetrace.properties import instantiate

from oracles import all_traces, random_formula, random_trace


def _verdicts(dfa, steps):
    monitor = Monitor(dfa)
    return [monitor.step(s) for s in steps], monitor


# ---------------------------------------------------------------------------
# init / step
# ---------------------------------------------------------------------------


def test_fresh_monitor_has_no_verdicts():
    monitor = Monitor(compile_formula(parse("G !p")))
    assert monitor.steps_consumed == 0


def test_monitors_from_one_dfa_evolve_independently():
    dfa = compile_formula(parse("G !p"))
    first, second = Monitor(dfa), Monitor(dfa)
    assert first.step({"p"}) is Verdict.FALSE
    assert second.step(set()) is Verdict.PRESUMABLY_TRUE


def test_trivial_property_is_immediately_true():
    monitor = Monitor(compile_formula(parse("true")))
    assert monitor.step({"anything"}) is Verdict.TRUE


def test_invariant_verdict_sequence():
    dfa = compile_formula(parse("G !collision"))
    verdicts, _ = _verdicts(dfa, [set(), set(), {"collision"}])
    assert verdicts == [Verdict.PRESUMABLY_TRUE, Verdict.PRESUMABLY_TRUE, Verdict.FALSE]


def test_pending_obligation_verdict_sequence():
    inst = instantiate("phi3", {"ObjReleased": "released", "Settled": "settled"})
    steps = [set() for _ in range(8)]
    steps[2].add("released")
    steps[5].add("settled")
    verdicts, monitor = _verdicts(inst.dfa, steps)
    expected = ["pt", "pt", "pf", "pf", "pf", "pt", "pt", "pt"]
    assert [v.value for v in verdicts] == expected
    result = monitor.finalize()
    assert not result.violated
    assert result.final_satisfied
    assert result.unsafe_steps == 3
    assert result.exposure == Fraction(3, 8)


def test_eventuality_flips_to_permanent_true():
    dfa = compile_formula(parse("F done"))
    verdicts, _ = _verdicts(dfa, [set(), {"done"}])
    assert verdicts == [Verdict.PRESUMABLY_FALSE, Verdict.TRUE]


def test_step_after_finalize_is_an_error():
    monitor = Monitor(compile_formula(parse("F p")))
    monitor.step(set())
    monitor.finalize()
    with pytest.raises(MonitorError):
        monitor.step(set())


def test_finalize_without_steps_is_an_error():
    with pytest.raises(MonitorError):
        Monitor(compile_formula(parse("F p"))).finalize()


# ---------------------------------------------------------------------------
# finalize
# ---------------------------------------------------------------------------


def test_unmet_obligation_is_an_end_violation():
    inst = instantiate("phi3", {"ObjReleased": "released", "Settled": "settled"})
    steps = [set() for _ in range(8)]
    steps[2].add("released")
    result = run_trace(inst.dfa, Trace(steps))
    assert not result.violated  # no absorbing FALSE was reached
    assert not result.final_satisfied
    assert result.violation_kind == "end"
    assert result.violation_timestep is None
    assert result.unsafe_steps == 6
    assert result.exposure == Fraction(6, 8)
    assert result.violates(strict_end=True)
    assert not result.violates(strict_end=False)


def test_absorbing_false_drives_exposure():
    dfa = compile_formula(parse("G !collision"))
    steps = [set() for _ in range(10)]
    steps[3].add("collision")
    result = run_trace(dfa, Trace(steps))
    assert result.violated
    assert result.violation_kind == "mid"
    assert result.violation_timestep == 3
    assert result.unsafe_steps == 7
    assert result.exposure == Fraction(7, 10)


def test_trivial_run_has_zero_exposure():
    result = run_trace(compile_formula(parse("true")), random_trace(random.Random(0), ("a",), 9))
    assert result.exposure == 0
    assert result.unsafe_steps == 0
    assert all(v is Verdict.TRUE for v in result.verdicts)


def test_run_trace_rejects_empty_trace():
    with pytest.raises(MonitorError):
        run_trace(compile_formula(parse("F p")), [])


def test_run_masks_rejects_masks_outside_the_alphabet():
    dfa = compile_formula(parse("G !p"))  # one proposition: masks 0 and 1
    for masks in ([2, 3], [0, 1, 2], [-1], b"\x00\x02", bytearray(b"\x01\xff")):
        with pytest.raises(MonitorError, match=r"range\(2\)"):
            run_masks(dfa, masks)
    assert run_masks(dfa, b"\x00\x01").violation_timestep == 1
    assert run_masks(dfa, [0, 0]).violated is False


# ---------------------------------------------------------------------------
# batch/stepwise parity and lattice properties
# ---------------------------------------------------------------------------


def test_run_trace_matches_stepwise_fuzzed():
    rng = random.Random(17)
    for _ in range(300):
        f = random_formula(rng, max_depth=4, props=("a", "b"))
        dfa = compile_formula(f)
        trace = random_trace(rng, ("a", "b"), rng.randint(1, 12))
        batch = run_trace(dfa, trace)
        monitor = Monitor(dfa)
        for valuation in trace:
            monitor.step(valuation)
        assert monitor.finalize() == batch
        if batch.violated:
            assert not batch.final_satisfied


def test_final_satisfied_matches_oracle_fuzzed():
    rng = random.Random(18)
    for _ in range(200):
        f = random_formula(rng, max_depth=4, props=("a", "b"))
        dfa = compile_formula(f)
        trace = random_trace(rng, ("a", "b"), rng.randint(1, 8))
        assert run_trace(dfa, trace).final_satisfied == evaluate(f, trace)


def test_prefix_consistency():
    # After each step, an accepting-side verdict holds exactly when the
    # consumed prefix (read as a complete trace) satisfies the property.
    rng = random.Random(19)
    for _ in range(120):
        f = random_formula(rng, max_depth=4, props=("a", "b"))
        dfa = compile_formula(f)
        trace = random_trace(rng, ("a", "b"), rng.randint(1, 6))
        result = run_trace(dfa, trace)
        for i in range(len(trace)):
            prefix_holds = evaluate(f, Trace(trace.steps[: i + 1]))
            verdict = result.verdicts[i]
            assert (verdict in (Verdict.TRUE, Verdict.PRESUMABLY_TRUE)) == prefix_holds


def test_permanent_verdicts_are_absorbing():
    rng = random.Random(20)
    for _ in range(200):
        f = random_formula(rng, max_depth=4, props=("a", "b"))
        dfa = compile_formula(f)
        trace = random_trace(rng, ("a", "b"), rng.randint(1, 10))
        verdicts = run_trace(dfa, trace).verdicts
        for earlier, later in zip(verdicts, verdicts[1:]):
            if earlier is Verdict.FALSE:
                assert later is Verdict.FALSE
            if earlier is Verdict.TRUE:
                assert later is Verdict.TRUE


def test_false_verdict_is_impartial():
    # A FALSE verdict at step i means no extension can satisfy the formula;
    # checked exhaustively for extensions of length <= 3.
    rng = random.Random(21)
    checked = 0
    while checked < 25:
        f = random_formula(rng, max_depth=3, props=("a", "b"))
        dfa = compile_formula(f)
        trace = random_trace(rng, ("a", "b"), 4)
        result = run_trace(dfa, trace)
        if Verdict.FALSE not in result.verdicts:
            continue
        checked += 1
        first = result.verdicts.index(Verdict.FALSE)
        prefix = trace.steps[: first + 1]
        for extension_length in range(1, 4):
            for extension in all_traces(["a", "b"], extension_length):
                assert not evaluate(f, Trace(prefix + extension.steps))


def test_exposure_formula_for_pure_invariants():
    dfa = compile_formula(parse("G !p"))
    rng = random.Random(22)
    for _ in range(100):
        length = rng.randint(1, 20)
        steps = [frozenset(["p"]) if rng.random() < 0.2 else frozenset() for _ in range(length)]
        trace = Trace(steps)
        result = run_trace(dfa, trace)
        hits = [i for i, s in enumerate(steps) if "p" in s]
        if hits:
            assert result.exposure == Fraction(length - hits[0], length)
        else:
            assert result.exposure == 0


def test_large_automaton_falls_back_to_generic_runner():
    # A 300-state counter chain exceeds the bytes-table fast path.
    n = 300
    # Column order: mask 0 = !p (hold), mask 1 = p (advance).
    transitions = [[s, min(s + 1, n - 1)] for s in range(n)]
    dfa = Dfa(props=["p"], initial=0, accepting={n - 1}, transitions=transitions)
    steps = [frozenset({"p"})] * (n - 1) + [frozenset()] * 5
    result = run_trace(dfa, Trace(steps))
    assert result.final_satisfied
    assert result.verdicts[-1] is Verdict.TRUE  # last state is a PERM_TRUE sink
    assert result.unsafe_steps == n - 2  # pending until the counter saturates
    monitor = Monitor(dfa)
    for s in steps:
        monitor.step(s)
    assert monitor.finalize() == result


def test_pickled_dfa_is_equal_and_monitors_identically():
    rng = random.Random(23)
    small = compile_formula(parse("G(a -> F b) & (c U d)"))
    large = Dfa(
        props=["p"], initial=0, accepting={299}, transitions=[[s, min(s + 1, 299)] for s in range(300)]
    )
    for dfa in (small, large):
        copy = pickle.loads(pickle.dumps(dfa))
        assert copy == dfa and hash(copy) == hash(dfa)
        traces = [random_trace(rng, list(dfa.props), rng.randint(1, 400)) for _ in range(20)]
        traces.append(Trace([dfa.props] * 350))  # reaches states above 255
        for trace in traces:
            assert run_trace(copy, trace) == run_trace(dfa, trace)


def test_verdict_agrees_with_permanence_labels():
    inst = instantiate("phi3", {"ObjReleased": "r", "Settled": "s"})
    dfa = inst.dfa
    monitor = Monitor(dfa)
    steps = [set(), {"r"}, set(), {"s"}]
    for valuation in steps:
        verdict = monitor.step(valuation)
        state = monitor._state
        if dfa.permanence[state] is Permanence.PERM_TRUE:
            assert verdict is Verdict.TRUE
        elif dfa.permanence[state] is Permanence.PERM_FALSE:
            assert verdict is Verdict.FALSE
        elif state in dfa.accepting:
            assert verdict is Verdict.PRESUMABLY_TRUE
        else:
            assert verdict is Verdict.PRESUMABLY_FALSE
