"""Stepwise monitoring: verdict lattice, exposure accounting, batch parity."""

import pickle
import random
from array import array
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from safetrace.automata import (
    CODE_FALSE,
    CODE_PRESUMABLY_FALSE,
    CODE_PRESUMABLY_TRUE,
    CODE_TRUE,
    Dfa,
    Permanence,
    compile_formula,
)
from safetrace._record import _restore
from safetrace.errors import MonitorError
from safetrace.formulas import Trace, evaluate, parse
from safetrace.metrics import evaluate_rollout
from safetrace.monitor import MonitorResult, Verdict, run_trace, trace_masks
from safetrace.properties import TEMPLATE_IDS, PropertyInstance, TaskSpec, get_template, instantiate
from safetrace.rollouts import RolloutRecord, load_rollout

from oracles import all_traces, random_formula, random_trace, reference_monitor_result, reference_run


def _readings(result: MonitorResult) -> dict:
    """Every value ``result`` derives from its two fields, by the names of
    :func:`oracles.reference_monitor_result`."""
    return {
        "verdicts": [v.value for v in result.verdicts],
        "violated": result.violated,
        "violation_timestep": result.violation_timestep,
        "unsafe_steps": result.unsafe_steps,
        "length": result.length,
        "exposure": result.exposure,
        "violation_kind": result.violation_kind,
        "violates(True)": result.violates(True),
        "violates(False)": result.violates(False),
        "unsafe_flags()": result.unsafe_flags(),
    }


def _stepped_states(dfa: Dfa, trace) -> list[int]:
    """The state after each valuation of ``trace``, stepping every one
    through the nested transition table to the end of the trace."""
    state, states = dfa.initial, []
    for valuation in trace:
        mask = sum(1 << bit for bit, p in enumerate(dfa.props) if p in valuation)
        state = dfa.transitions[state][mask]
        states.append(state)
    return states


def _stepped(dfa: Dfa, trace) -> dict:
    """What monitoring ``trace`` over ``dfa`` reads, one valuation at a time."""
    states = _stepped_states(dfa, trace)
    codes = bytes(dfa.verdict_codes[state] for state in states)
    return reference_monitor_result(codes, states[-1] in dfa.accepting)


# ---------------------------------------------------------------------------
# verdict sequences
# ---------------------------------------------------------------------------


def test_trivial_property_is_immediately_true():
    result = run_trace(compile_formula(parse("true")), [{"anything"}])
    assert result.verdicts == (Verdict.TRUE,)


def test_invariant_verdict_sequence():
    dfa = compile_formula(parse("G !collision"))
    verdicts = run_trace(dfa, [set(), set(), {"collision"}]).verdicts
    assert verdicts == (Verdict.PRESUMABLY_TRUE, Verdict.PRESUMABLY_TRUE, Verdict.FALSE)


def test_pending_obligation_verdict_sequence():
    inst = instantiate("phi3", {"ObjReleased": "released", "Settled": "settled"})
    steps = [set() for _ in range(8)]
    steps[2].add("released")
    steps[5].add("settled")
    result = run_trace(inst.dfa, steps)
    expected = ["pt", "pt", "pf", "pf", "pf", "pt", "pt", "pt"]
    assert [v.value for v in result.verdicts] == expected
    assert not result.violated
    assert result.final_satisfied
    assert result.unsafe_steps == 3
    assert result.exposure == Fraction(3, 8)


def test_eventuality_flips_to_permanent_true():
    dfa = compile_formula(parse("F done"))
    verdicts = run_trace(dfa, [set(), {"done"}]).verdicts
    assert verdicts == (Verdict.PRESUMABLY_FALSE, Verdict.TRUE)


def test_a_string_valuation_is_an_error_not_its_characters():
    dfa = compile_formula(parse("G !a"))
    match = "not the string 'ab'"
    with pytest.raises(TypeError, match=match):
        run_trace(dfa, ["ab"])
    with pytest.raises(TypeError, match=match):
        run_trace(dfa, [set(), "ab"])
    with pytest.raises(TypeError, match=match):
        dfa.accepts([set(), "ab"])
    # The same names as a collection are read as names.
    assert run_trace(dfa, [["ab"]]).verdicts == (Verdict.PRESUMABLY_TRUE,)
    assert run_trace(dfa, [("a", "b")]).verdicts == (Verdict.FALSE,)


def test_a_mapping_valuation_is_an_error_not_its_keys():
    # Read as its keys, {"a": False} would make `a` true.
    dfa = compile_formula(parse("G !a"))
    match = "not the mapping {'a': False}"
    with pytest.raises(TypeError, match=match):
        dfa.mask_of({"a": False})
    with pytest.raises(TypeError, match=match):
        run_trace(dfa, [{"a": False}])
    with pytest.raises(TypeError, match=match):
        run_trace(dfa, [set(), {"a": False}])
    with pytest.raises(TypeError, match=match):
        dfa.accepts([set(), {"a": False}])
    assert dfa.mask_of({"a"}) == dfa.mask_of(["a"]) == 1


# ---------------------------------------------------------------------------
# MonitorResult: two fields, the rest read from them
# ---------------------------------------------------------------------------


def test_verdicts_are_declared_in_code_order():
    expected = {
        CODE_TRUE: Verdict.TRUE,
        CODE_FALSE: Verdict.FALSE,
        CODE_PRESUMABLY_TRUE: Verdict.PRESUMABLY_TRUE,
        CODE_PRESUMABLY_FALSE: Verdict.PRESUMABLY_FALSE,
    }
    assert {code: tuple(Verdict)[code] for code in expected} == expected


@given(st.lists(st.integers(0, 3), min_size=1, max_size=300).map(bytes), st.booleans())
@example(bytes([CODE_PRESUMABLY_TRUE]), True)
@example(bytes([CODE_PRESUMABLY_FALSE, CODE_FALSE, CODE_FALSE]), False)
@settings(max_examples=300, deadline=None)
def test_monitor_result_reads_everything_from_its_codes(codes, final_satisfied):
    result = MonitorResult(codes, final_satisfied)
    assert _readings(result) == reference_monitor_result(codes, final_satisfied)
    assert type(result.exposure) is Fraction and type(result.verdicts) is tuple


# ---------------------------------------------------------------------------
# whole-trace results
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
    with pytest.raises(MonitorError, match="^cannot monitor an empty trace$"):
        run_trace(compile_formula(parse("F p")), [])


def test_run_rejects_masks_outside_the_alphabet():
    for formula, cases in (
        # One proposition: masks 0 and 1. 256 lies outside every alphabet
        # and outside a byte.
        ("G !p", ([2], [0, 2], [2, 3], [0, 1, 2], b"\x00\x02", bytearray(b"\x01\xff"), [-1], [256])),
        ("G (a -> F b)", ([1, 4],)),  # two propositions: masks 0 to 3
    ):
        dfa = compile_formula(parse(formula))
        message = (
            f"valuation masks must lie in range({dfa.alphabet_size}) "
            f"for a DFA over {len(dfa.props)} propositions"
        )
        for masks in cases:
            with pytest.raises(MonitorError) as raised:
                dfa.run(masks)
            assert str(raised.value) == message, masks


def test_run_rejects_an_empty_trace_and_runs_masks_in_the_alphabet():
    dfa = compile_formula(parse("G !p"))
    for masks in ([], b""):
        with pytest.raises(MonitorError, match="^cannot monitor an empty trace$"):
            dfa.run(masks)
    assert dfa.run(b"\x00\x01")[0] == bytes((CODE_PRESUMABLY_TRUE, CODE_FALSE))
    assert dfa.run([0, 0])[0] == bytes((CODE_PRESUMABLY_TRUE, CODE_PRESUMABLY_TRUE))


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
        assert _readings(batch) == _stepped(dfa, trace)
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
    assert _readings(result) == _stepped(dfa, steps)


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
    steps = [set(), {"r"}, set(), {"s"}]
    verdicts = run_trace(dfa, steps).verdicts
    for verdict, state in zip(verdicts, _stepped_states(dfa, steps), strict=True):
        if dfa.permanence[state] is Permanence.PERM_TRUE:
            assert verdict is Verdict.TRUE
        elif dfa.permanence[state] is Permanence.PERM_FALSE:
            assert verdict is Verdict.FALSE
        elif state in dfa.accepting:
            assert verdict is Verdict.PRESUMABLY_TRUE
        else:
            assert verdict is Verdict.PRESUMABLY_FALSE


# ---------------------------------------------------------------------------
# run-wise stepping against the per-step oracle
# ---------------------------------------------------------------------------

# The formula shapes of the benchmark's gate_custom workload, over a..f.
_GATE_SHAPES = (
    "G ((a & b) -> (c U (d | e)))",
    "G (a -> F (b & X (c | d | !e)))",
    "G ((a | b) -> X (!c U (d & !e)))",
    "G (a -> (b R (c | d))) & F (e | f)",
    "G (a -> F b) & G ((c & d) -> !e)",
    "(!a U b) | G ((c -> d) & (e -> WX f))",
    "G (a -> ((b & !c) U (d | e)))",
    "F (a & b) -> G (c -> F (d | e | f))",
)


# Not from a formula: mask 0 swaps states 0 and 1, so it has no fixed point.
_SWAP = Dfa(props=["p"], initial=0, accepting={0}, transitions=[[1, 0], [0, 1]])
# 300 states need the array('H') successor table.
_CHAIN = Dfa(
    props=["p"], initial=0, accepting={299}, transitions=[[s, min(s + 1, 299)] for s in range(300)]
)


@lru_cache(maxsize=None)
def _fixed_dfas() -> tuple[Dfa, ...]:
    templates = [compile_formula(get_template(t).formula) for t in TEMPLATE_IDS]
    gates = [compile_formula(parse(text)) for text in _GATE_SHAPES]
    return (*templates, *gates, _SWAP, _CHAIN)


@st.composite
def _runs(draw) -> tuple[Dfa, list[int]]:
    """A DFA and masks with run structure: long constant stretches,
    alternating masks, one step, all zeros, or a trace ending in zeros."""
    if draw(st.booleans()):
        dfa = draw(st.sampled_from(_fixed_dfas()))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        dfa = compile_formula(random_formula(rng, max_depth=4, props=("a", "b", "c")))
    mask = st.integers(0, dfa.alphabet_size - 1)
    shape = draw(st.sampled_from(("runs", "alternating", "single", "zeros", "zero_tail")))
    if shape == "single":
        return dfa, [draw(mask)]
    if shape == "zeros":
        return dfa, [0] * draw(st.integers(1, 400))
    if shape == "alternating":
        first, second = draw(mask), draw(mask)
        return dfa, [first, second] * draw(st.integers(1, 40)) + [first] * draw(st.integers(0, 1))
    runs = draw(st.lists(st.tuples(mask, st.integers(1, 300)), min_size=1, max_size=8))
    masks = [m for m, length in runs for _ in range(length)]
    if shape == "zero_tail":
        masks += [0] * draw(st.integers(1, 50))
    return dfa, masks


# A trace ending in mask 0 leaves no run-end marker on its last step.
@example((_SWAP, [0]))
@example((_SWAP, [1, 1, 0]))
@example((_SWAP, [0] * 7))
@given(_runs())
@settings(max_examples=400, deadline=None)
def test_run_agrees_with_the_per_step_oracle(case):
    dfa, masks = case
    codes, state = reference_run(dfa, masks)
    assert dfa.run(masks) == (codes, state)
    assert dfa.run(bytes(masks)) == (codes, state)


class _CountingReads:
    """A successor table that counts how many entries are read."""

    def __init__(self, table):
        self.table = table
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return self.table[index]

    def __len__(self):
        return len(self.table)


def _counting(dfa: Dfa) -> tuple[Dfa, _CountingReads]:
    """A copy of ``dfa`` whose successor table counts its reads."""
    table = _CountingReads(dfa.successors)
    return _restore(Dfa, (
        dfa.props, dfa.initial, dfa.accepting, dfa.transitions, table, dfa.verdict_codes, dfa._labels
    )), table


@pytest.mark.parametrize("template_id", TEMPLATE_IDS)
def test_constant_trace_reads_at_most_num_states_plus_one_entries(template_id):
    dfa = compile_formula(get_template(template_id).formula)
    for mask in range(dfa.alphabet_size):
        counted, table = _counting(dfa)
        masks = bytes((mask,)) * 10_000
        assert counted.run(masks) == reference_run(dfa, masks)
        assert table.reads <= dfa.num_states + 1


def test_a_trace_false_for_good_reads_at_most_two_entries():
    # The run stops at the first permanent verdict, FALSE as well as TRUE:
    # stepping on would only repeat it, once per run of equal masks.
    dfa = compile_formula(parse("G !a"))
    counted, table = _counting(dfa)
    masks = bytes((1,)) + bytes((0, 1)) * 5_000
    codes, state = counted.run(masks)
    assert table.reads <= 2
    assert (codes, state) == reference_run(dfa, masks)
    assert codes == bytes((CODE_FALSE,)) * len(masks)


def test_mask_sequence_types_give_the_same_result():
    dfa = compile_formula(get_template("phi2").formula)  # three propositions: masks 0..7
    masks = [0, 0, 1, 1, 1, 5, 7, 7, 2, 0, 0, 3, 6, 6, 0]
    expected = dfa.run(bytes(masks))
    assert expected == reference_run(dfa, masks)
    # bytes() of an array('H') would read its raw two-byte items.
    for given_masks in (
        bytearray(masks),
        masks,
        tuple(masks),
        memoryview(bytes(masks)),
        array("B", masks),
        array("H", masks),
        memoryview(array("H", masks)),
    ):
        assert dfa.run(given_masks) == expected, type(given_masks)


def test_run_form_gives_the_per_step_result_and_checks_its_ends():
    dfa = compile_formula(get_template("phi2").formula)
    masks = [0, 0, 1, 1, 1, 5, 7, 7, 2, 0, 0, 3, 6, 6, 0]
    # Neighbouring runs of equal masks (the first two) are walked as one.
    runs = bytes((0, 0, 1, 5, 7, 2, 0, 3, 6, 0)), (1, 2, 5, 6, 8, 9, 11, 12, 14, 15)
    assert dfa.run(*runs) == reference_run(dfa, masks)
    with pytest.raises(MonitorError, match=r"^2 run ends for 3 masks$"):
        dfa.run(b"\x00\x01\x00", (1, 2))


def _counted_spec(dfa: Dfa) -> TaskSpec:
    """A one-instance task spec for ``task`` whose automaton is ``dfa``."""
    instance = PropertyInstance("i", "custom", (), parse("true"), None, dfa)
    return TaskSpec("task", "atomic_fixture", "atomic", (instance,))


def test_evaluate_steps_each_run_of_equal_projected_masks_once():
    # 1,000 steps in 5 runs of equal masks over {a, b}; the unmonitored
    # `noise` flips at every step, so each step is a run of equal
    # valuations. Stepping once per step or once per valuation run reads
    # 1,000 entries; once per run of equal masks, at most num_states a run.
    dfa = compile_formula(parse("G (a -> F b)"))
    counted, table = _counting(dfa)
    masks = [mask for mask in (0, 1, 3, 2, 0) for _ in range(200)]
    noise = (set(), {"noise"})
    steps = [{p for bit, p in enumerate(dfa.props) if m >> bit & 1} | noise[t % 2] for t, m in enumerate(masks)]
    record = RolloutRecord("r", "task", "p", True, steps)
    assert len(record.run_ids) == 1_000
    evaluation = evaluate_rollout(record, _counted_spec(counted))
    codes, state = reference_run(dfa, trace_masks(dfa, steps))
    assert evaluation.runs["i"][:2] == (codes, state in dfa.accepting)
    assert table.reads <= 5 * dfa.num_states


def test_the_decoder_hashes_one_key_per_run_of_equal_steps():
    class CountedName(str):
        """A proposition name that counts how often it is hashed."""

        hashes = 0

        def __hash__(self):
            CountedName.hashes += 1
            return str.__hash__(self)

    # 1,000 steps in 5 runs of 7 names in all, each step its own list of its
    # own name objects, as `json.loads` builds them. Keying every step would
    # hash 1,400 names.
    spellings = (["a", "b"], ["b"], [], ["b", "a", "a"], ["a"])
    trace = [[CountedName(p) for p in spellings[t // 200]] for t in range(1_000)]
    record = load_rollout({"rollout_id": "r", "task": "task", "policy": "p", "success": True, "trace": trace})
    # Each run's key hashes its names twice (the key table looks it up, then
    # stores it), its frozenset once more, and each distinct name is hashed
    # once when checked: 3 * 7 + 2.
    assert CountedName.hashes <= 3 * 7 + 2
    assert record.run_ends == (200, 400, 600, 800, 1_000)
    assert record.trace == Trace([set(step) for step in trace])
