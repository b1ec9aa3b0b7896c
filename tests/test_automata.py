"""DFA compilation, minimization, permanence classification, and export."""

import gc
import pickle
import random
import re
from types import FunctionType, ModuleType

import pytest
from hypothesis import given, settings, strategies as st

from safetrace import automata
from safetrace.automata import (
    Dfa,
    Permanence,
    compile_formula,
    dfa_to_json,
    equivalent,
    minimize,
    to_dot,
)
from safetrace.errors import AlphabetMismatchError, AlphabetTooLargeError
from safetrace.formulas import (
    Always,
    Eventually,
    Prop,
    Trace,
    evaluate,
    operands,
    parse,
    proposition_order,
    to_nnf,
)
from safetrace.properties import list_templates, load_task_spec

from oracles import agree_on_all_traces, all_traces, random_formula, random_trace


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_invariant_two_states():
    d = compile_formula(parse("G !p"))
    assert d.num_states == 2
    assert d.initial in d.accepting
    trap = next(s for s in range(2) if s not in d.accepting)
    assert d.permanence[trap] is Permanence.PERM_FALSE
    assert d.permanence[d.initial] is Permanence.UNDETERMINED


def test_compile_eventuality_two_states():
    d = compile_formula(parse("F p"))
    assert d.num_states == 2
    assert d.initial not in d.accepting
    trap = next(iter(d.accepting))
    assert d.permanence[trap] is Permanence.PERM_TRUE
    assert d.permanence[d.initial] is Permanence.UNDETERMINED


def test_compile_until_three_states():
    d = compile_formula(parse("p U q"))
    assert d.num_states == 3
    labels = sorted(p.value for p in d.permanence)
    assert labels == ["PERM_FALSE", "PERM_TRUE", "UNDETERMINED"]
    assert d.initial not in d.accepting
    assert agree_on_all_traces(parse("p U q"), d, 6)


def test_compile_true_single_permanently_accepting_state():
    d = compile_formula(parse("true"))
    assert d.num_states == 1
    assert d.permanence == (Permanence.PERM_TRUE,)
    assert d.props == ()
    assert d.accepts(Trace([set(), {"whatever"}]))


def test_compile_alphabet_cap():
    wide = " & ".join(f"F p{i}" for i in range(9))
    with pytest.raises(AlphabetTooLargeError) as excinfo:
        compile_formula(parse(wide))
    assert "p0" in str(excinfo.value)  # names the offending formula


def test_compile_props_are_sorted_and_scoped_to_the_formula():
    d = compile_formula(parse("zeta U alpha"))
    assert d.props == ("alpha", "zeta")


def test_compile_is_deterministic():
    f = parse("G(a -> (b U c))")
    assert compile_formula(f) == compile_formula(f)


# ---------------------------------------------------------------------------
# accepts
# ---------------------------------------------------------------------------


def test_accepts_examples():
    d = compile_formula(parse("G !p"))
    assert d.accepts(Trace([set(), set(), set()]))
    assert not d.accepts(Trace([set(), {"p"}]))


def test_accepts_projects_closed_world():
    d = compile_formula(parse("G !p"))
    # Unrelated propositions are ignored by projection.
    assert d.accepts(Trace([{"q", "r"}, {"other"}]))


def test_accepts_empty_trace_is_an_error():
    d = compile_formula(parse("G !p"))
    with pytest.raises(ValueError):
        d.accepts([])


def test_accepts_matches_evaluate_for_phi2_style_pair():
    inst = parse("G (g -> (s U r))")
    d = compile_formula(inst)
    satisfying = Trace([{"g", "s"}, {"g", "s"}, {"r"}, set()])
    violating = Trace([{"g", "s"}, {"g"}, {"r"}, set()])
    for trace in (satisfying, violating):
        assert d.accepts(trace) == evaluate(inst, trace)
    assert d.accepts(satisfying) and not d.accepts(violating)


# ---------------------------------------------------------------------------
# oracle equivalence sweeps
# ---------------------------------------------------------------------------


def test_templates_agree_with_oracle_exhaustively():
    for template in list_templates():
        d = compile_formula(template.formula)
        assert agree_on_all_traces(template.formula, d, 4), template.template_id


def test_fuzzed_formulas_agree_with_oracle():
    rng = random.Random(20240812)
    for _ in range(150):
        f = random_formula(rng, max_depth=4, props=("a", "b", "c"))
        d = compile_formula(f)
        assert agree_on_all_traces(f, d, 4), f


def test_fuzzed_wide_alphabet_formulas_agree_with_oracle():
    # Progression is memoized on each node's support, the propositions it
    # reads now; that only matters when an alphabet is wider than most nodes.
    rng = random.Random(20261018)
    checked = 0
    while checked < 60:
        props = ("a", "b", "c", "d", "e", "f")[: rng.choice((5, 6))]
        f = random_formula(rng, max_depth=rng.choice((4, 5)), props=props)
        d = compile_formula(f)
        if len(d.props) < 5:
            continue
        checked += 1
        assert minimize(d) == d, f
        assert agree_on_all_traces(f, d, 2), f
        for _ in range(20):
            trace = random_trace(rng, props, rng.randint(1, 30))
            assert d.accepts(trace) == evaluate(f, trace), (f, trace)


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


def test_minimize_is_idempotent_on_minimal_dfa():
    d = compile_formula(parse("G !p"))
    assert minimize(d) == d


def test_minimize_merges_duplicated_trap_states():
    # G !p with the rejecting trap split into two copies and an unreachable
    # extra accepting state.
    redundant = Dfa(
        props=["p"],
        initial=0,
        accepting={0, 3},
        transitions=[
            [0, 1],  # from start: stay on !p, fall to trap A on p
            [2, 2],  # trap A -> trap B
            [1, 1],  # trap B -> trap A
            [3, 3],  # unreachable accepting loop
        ],
    )
    minimal = minimize(redundant)
    assert redundant.num_states == 4
    assert minimal.num_states == 2
    assert equivalent(redundant, minimal)
    assert minimal == compile_formula(parse("G !p"))


def test_minimize_never_grows_and_preserves_language_fuzzed():
    rng = random.Random(31337)
    for _ in range(120):
        f = random_formula(rng, max_depth=4, props=("a", "b"))
        d = compile_formula(f)
        m = minimize(d)
        assert m.num_states <= d.num_states
        assert equivalent(d, m)
        assert minimize(m) == m


# ---------------------------------------------------------------------------
# permanence classification
# ---------------------------------------------------------------------------


def test_classify_invariant_start_can_still_fail():
    d = compile_formula(parse("G !p"))
    assert d.permanence[d.initial] is Permanence.UNDETERMINED


def test_classify_matches_reachability_definition_fuzzed():
    rng = random.Random(4)
    for _ in range(60):
        f = random_formula(rng, max_depth=4, props=("a", "b"))
        d = compile_formula(f)
        for s in range(d.num_states):
            reachable = {s}
            frontier = [s]
            while frontier:
                current = frontier.pop()
                for target in d.transitions[current]:
                    if target not in reachable:
                        reachable.add(target)
                        frontier.append(target)
            if all(t in d.accepting for t in reachable):
                expected = Permanence.PERM_TRUE
            elif all(t not in d.accepting for t in reachable):
                expected = Permanence.PERM_FALSE
            else:
                expected = Permanence.UNDETERMINED
            assert d.permanence[s] is expected


def test_permanence_soundness_under_extensions():
    # From a PERM_FALSE state every extension of length <= 4 is rejected;
    # dually for PERM_TRUE.
    for text in ("G !p", "F p", "p U q", "G(a -> F b)"):
        d = compile_formula(parse(text))
        props = list(d.props)
        for s in range(d.num_states):
            if d.permanence[s] is Permanence.UNDETERMINED:
                continue
            want = d.permanence[s] is Permanence.PERM_TRUE
            for length in range(1, 5):
                for extension in all_traces(props, length):
                    state = s
                    for valuation in extension:
                        state = d.transitions[state][d.mask_of(valuation)]
                    assert (state in d.accepting) == want


# ---------------------------------------------------------------------------
# equivalent
# ---------------------------------------------------------------------------


def test_equivalent_compile_vs_nnf_fuzzed():
    rng = random.Random(222)
    for _ in range(80):
        f = random_formula(rng, max_depth=4, props=("a", "b"))
        assert equivalent(compile_formula(f), compile_formula(to_nnf(f)))


def test_equivalent_distinguishes_f_and_g():
    assert not equivalent(compile_formula(parse("F p")), compile_formula(parse("G p")))


def test_equivalent_requires_same_proposition_set():
    with pytest.raises(AlphabetMismatchError):
        equivalent(compile_formula(parse("F p")), compile_formula(parse("F q")))


def test_equivalent_remaps_differing_proposition_order():
    f = parse("a U b")
    d = compile_formula(f)
    # Same language, alphabet listed in the opposite order.
    swapped = Dfa(
        props=("b", "a"),
        initial=0,
        accepting=d.accepting,
        transitions=[
            [row[((m & 1) << 1) | (m >> 1)] for m in range(4)]
            for row in d.transitions
        ],
    )
    assert equivalent(d, swapped)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

_DOT_NODE = re.compile(r'^\s{2}(\w+) \[[^\]]*\];$')
_DOT_EDGE = re.compile(r'^\s{2}(\w+) -> (\w+)( \[label="[^"]*"\])?;$')


def check_dot_well_formed(text: str) -> tuple[set[str], int]:
    """Minimal DOT digraph grammar check: returns (node names, edge count)."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph dfa {"
    assert lines[-1] == "}"
    nodes: set[str] = set()
    edges = 0
    for line in lines[1:-1]:
        if line.strip().startswith("rankdir"):
            continue
        node = _DOT_NODE.match(line)
        if node:
            nodes.add(node.group(1))
            continue
        edge = _DOT_EDGE.match(line)
        assert edge, f"unparseable DOT line: {line!r}"
        assert edge.group(1) in nodes and edge.group(2) in nodes
        edges += 1
    return nodes, edges


def test_dot_export_two_state_invariant():
    d = compile_formula(parse("G !p"))
    text = to_dot(d)
    nodes, edges = check_dot_well_formed(text)
    # Two states plus the phantom start marker.
    assert len(nodes - {"__start"}) == 2
    assert "doublecircle" in text
    assert edges >= 3


def test_dot_export_is_deterministic():
    d = compile_formula(parse("G(a -> (b U c))"))
    assert to_dot(d) == to_dot(d)


def test_dot_export_well_formed_for_all_templates():
    for template in list_templates():
        check_dot_well_formed(to_dot(compile_formula(template.formula)))


# ---------------------------------------------------------------------------
# lazy state labels
# ---------------------------------------------------------------------------


def _unrendered(d: Dfa) -> bool:
    return d._labels.texts is None


def test_pickled_dfas_with_unrendered_labels_render_the_same_labels():
    compiled = compile_formula(parse("G (a -> F (b & X c)) & (d R !a)"))
    spec = load_task_spec(
        {
            "task": "t",
            "suite": "atomic_fixture",
            "horizon": "atomic",
            "properties": [
                {"id": f"phi6_{obj}", "template": "phi6", "bindings": {
                    "MechHit": f"hit_{obj}", "Retract": f"retract_{obj}", "Recovered": f"rec_{obj}"
                }}
                for obj in ("door", "drawer")
            ],
        }
    )
    shared = spec.instances[1].dfa
    assert shared.successors is spec.instances[0].dfa.successors  # renamed, not compiled
    for d in (compiled, shared):
        assert _unrendered(d)
        copy = pickle.loads(pickle.dumps(d))
        assert _unrendered(copy) and _unrendered(d)
        assert copy == d and hash(copy) == hash(d)
        assert copy.successors == d.successors and copy.verdict_codes == d.verdict_codes
        labels = copy.state_labels
        assert len(labels) == d.num_states and labels == d.state_labels
        assert to_dot(copy) == to_dot(d)
    assert spec.instances[0].dfa.state_labels != shared.state_labels
    assert shared.state_labels[0] == "G(hit_drawer -> F(retract_drawer & F rec_drawer))"


def _reachable(root):
    """Every object reachable from ``root`` through its referents, not
    entering classes, modules or functions (which reach every global)."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) not in seen and not isinstance(ref, (type, ModuleType, FunctionType)):
                seen[id(ref)] = ref
                stack.append(ref)
    return seen.values()


def test_compiled_dfa_holds_no_closure():
    d = compile_formula(parse("G (a -> (b U c)) & F (d | X e)"))
    copy = pickle.loads(pickle.dumps(d))
    d.state_labels  # rendering builds a closure, which must not stay either
    for state in (d, copy):
        reached = list(_reachable(state))
        assert not any(isinstance(obj, automata._Closure) for obj in reached)
        assert not any(isinstance(obj, frozenset) and obj is not state.accepting for obj in reached)
        assert any(isinstance(obj, automata._LazyLabels) for obj in reached)


# ---------------------------------------------------------------------------
# The process-wide shape cache
# ---------------------------------------------------------------------------

_SHAPE_CACHES = (automata._shape_tables, automata._shape_dfa)


def clear_shape_caches() -> None:
    for cache in _SHAPE_CACHES:
        cache.cache_clear()


def _exports(d: Dfa) -> tuple:
    return (d, d.props, dfa_to_json(d), d.state_labels, to_dot(d), d.successors, d.verdict_codes)


_EIGHT_NAMES = ("a", "b", "c2", "k", "m_1", "q", "y", "zz")


def _renamed(f, mapping):
    if type(f) is Prop:
        return Prop(mapping[f.name])
    return type(f)(*(_renamed(g, mapping) for g in operands(f)))


@given(st.integers(0, 2**32 - 1), st.permutations(_EIGHT_NAMES), st.permutations(_EIGHT_NAMES))
@settings(max_examples=300, deadline=None)
def test_a_compile_through_a_warm_shape_cache_equals_one_from_scratch(seed, first, second):
    rng = random.Random(seed)
    f = random_formula(rng, max_depth=rng.randint(1, 4), props=tuple("abcde"[: rng.randint(1, 5)]))
    order = proposition_order(f)
    sibling = _renamed(f, dict(zip(order, first)))
    renamed = _renamed(f, dict(zip(order, second)))
    clear_shape_caches()
    fresh = _exports(compile_formula(renamed))
    clear_shape_caches()
    compile_formula(sibling)
    assert _exports(compile_formula(renamed)) == fresh
    assert automata._shape_tables.cache_info().misses == 1


def test_the_shape_caches_hold_no_more_entries_than_their_bounds():
    bounds = [cache.cache_info().maxsize for cache in _SHAPE_CACHES]
    assert None not in bounds and max(bounds) < 1 << 10
    clear_shape_caches()
    # Ten nested F or G over one proposition: 1024 shapes, each compiled in
    # well under a millisecond.
    for i in range(max(bounds) + 1):
        f = Prop("a")
        for bit in range(10):
            f = (Eventually if i >> bit & 1 else Always)(f)
        compile_formula(f)
        for cache, bound in zip(_SHAPE_CACHES, bounds):
            assert cache.cache_info().currsize <= bound
    assert [cache.cache_info().currsize for cache in _SHAPE_CACHES] == bounds


def test_a_dfa_from_the_shape_cache_pickles_with_its_labels_unrendered():
    clear_shape_caches()
    first = compile_formula(parse("G (a -> F b)"))
    hit = compile_formula(parse("G (x -> F y)"))
    assert automata._shape_tables.cache_info().misses == 1
    assert hit.successors is first.successors
    copy = pickle.loads(pickle.dumps(hit))
    assert _unrendered(copy) and _unrendered(hit) and _unrendered(first)
    assert copy == hit and copy.props == ("x", "y")
    assert copy.state_labels == hit.state_labels
    assert hit.state_labels[0] == "G(x -> F y)"
    assert _unrendered(first) and first.state_labels[0] == "G(a -> F b)"


def test_json_export_schema():
    d = compile_formula(parse("p U q"))
    doc = dfa_to_json(d)
    assert doc["props"] == ["p", "q"]
    assert doc["states"] == 3
    assert doc["initial"] == 0
    assert set(doc) == {"props", "states", "initial", "accepting", "permanence", "transitions"}
    assert len(doc["transitions"]) == 3
    assert all(len(row) == 4 for row in doc["transitions"])
    assert all(label in {"PERM_TRUE", "PERM_FALSE", "UNDETERMINED"} for label in doc["permanence"])


# ---------------------------------------------------------------------------
# Dfa construction guards
# ---------------------------------------------------------------------------


def test_dfa_rejects_partial_transition_table():
    with pytest.raises(ValueError):
        Dfa(props=["p"], initial=0, accepting=set(), transitions=[[0]])


def test_dfa_rejects_dangling_targets():
    with pytest.raises(ValueError):
        Dfa(props=["p"], initial=0, accepting=set(), transitions=[[0, 5]])


def test_dfa_rejects_oversized_alphabet():
    with pytest.raises(AlphabetTooLargeError):
        Dfa(props=[f"p{i}" for i in range(9)], initial=0, accepting=set(), transitions=[[0] * 512])


def test_prop_order_changes_mask_meaning_not_language():
    # mask_of honors the declared ordering.
    d = compile_formula(parse("a U b"))
    assert d.mask_of({"a"}) == 1
    assert d.mask_of({"b"}) == 2
    assert d.mask_of({"a", "b"}) == 3
    assert d.mask_of({Prop("a").name: None}.keys() | {"zzz"}) == 1
