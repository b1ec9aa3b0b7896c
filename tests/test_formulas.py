"""Formula syntax, printing, normal form, and reference semantics."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import safetrace.formulas as formula_module
from safetrace.automata import compile_formula
from safetrace import errors
from safetrace.errors import FormulaSyntaxError, SafetraceError, located
from safetrace.formulas import (
    FALSE,
    MAX_FORMULA_DEPTH,
    TRUE,
    Always,
    And,
    Eventually,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Trace,
    Until,
    WeakNext,
    evaluate,
    format_formula,
    operands,
    parse,
    propositions,
    to_nnf,
)

from oracles import all_traces, naive_evaluate, random_formula, random_trace


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_invariant_with_negated_disjunction():
    assert parse("G(!(collision | badcontact))") == Always(
        Not(Or(Prop("collision"), Prop("badcontact")))
    )


def test_parse_constants():
    assert parse("true") == TRUE
    assert parse("false") == FALSE


def test_until_is_right_associative():
    assert parse("a U (b U c)") == Until(Prop("a"), Until(Prop("b"), Prop("c")))
    assert parse("a U b U c") == Until(Prop("a"), Until(Prop("b"), Prop("c")))


def test_until_associativity_is_consistent_under_evaluation():
    # Both spellings must agree with the explicit parenthesization on every
    # small trace; this pins the chosen associativity semantically.
    explicit = parse("a U (b U c)")
    bare = parse("a U b U c")
    for trace in all_traces(["a", "b", "c"], 3):
        assert evaluate(bare, trace) == evaluate(explicit, trace) == naive_evaluate(explicit, trace)


def test_implication_is_right_associative():
    assert parse("a -> b -> c") == Implies(Prop("a"), Implies(Prop("b"), Prop("c")))


def test_iff_desugars_to_two_implications():
    assert parse("a <-> b") == And(
        Implies(Prop("a"), Prop("b")), Implies(Prop("b"), Prop("a"))
    )


def test_precedence_unary_binds_tighter_than_until():
    assert parse("G a U b") == Until(Always(Prop("a")), Prop("b"))
    assert parse("G(a U b)") == Always(Until(Prop("a"), Prop("b")))


def test_precedence_and_over_or_over_implies():
    assert parse("a | b & c -> d") == Implies(
        Or(Prop("a"), And(Prop("b"), Prop("c"))), Prop("d")
    )


def test_until_and_release_share_a_level():
    assert parse("a U b R c") == Until(Prop("a"), Release(Prop("b"), Prop("c")))


def test_comments_and_whitespace_are_ignored():
    assert parse("G p  # invariant\n | F q") == Or(Always(Prop("p")), Eventually(Prop("q")))


def test_parse_empty_input_is_an_error():
    with pytest.raises(FormulaSyntaxError):
        parse("")
    with pytest.raises(FormulaSyntaxError):
        parse("   # only a comment")


def test_parse_error_carries_position_and_expectations():
    with pytest.raises(FormulaSyntaxError) as excinfo:
        parse("G (p &\n& q)")
    assert excinfo.value.line == 2
    assert excinfo.value.column == 1
    assert excinfo.value.expected


def test_parse_unknown_character():
    with pytest.raises(FormulaSyntaxError) as excinfo:
        parse("p @ q")
    assert "unknown operator" in str(excinfo.value)
    assert excinfo.value.column == 3


@pytest.mark.parametrize(
    ("text", "column"), [("G !\u00e1", 4), ("caf\u00e9", 4), ("a\u00b2", 2), ("\u00c5 U b", 1)]
)
def test_non_ascii_letters_are_a_syntax_error(text, column):
    # Unicode letters and digits are no identifier characters: the tokenizer
    # stops at them instead of handing Prop a name it rejects.
    with pytest.raises(FormulaSyntaxError, match="unknown operator or character") as excinfo:
        parse(text)
    assert (excinfo.value.line, excinfo.value.column) == (1, column)


def test_parse_unclosed_parenthesis():
    with pytest.raises(FormulaSyntaxError, match="unclosed"):
        parse("(p | q")


def test_parse_trailing_input():
    with pytest.raises(FormulaSyntaxError, match="trailing"):
        parse("p q")


def test_parse_error_survives_pickling():
    with pytest.raises(FormulaSyntaxError) as excinfo:
        parse("G (p &\n& q)")
    error = excinfo.value
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is FormulaSyntaxError
    assert str(copy) == str(error)
    assert (copy.line, copy.column, copy.expected) == (error.line, error.column, error.expected)
    # Every error class keeps the location that two ``located`` blocks gave
    # it, as the error a forked worker pipes back must.
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, SafetraceError)]
    assert len(classes) == 10
    for error in [error, *(cls("boom") for cls in classes if cls is not FormulaSyntaxError)]:
        message = str(error)
        with pytest.raises(type(error)) as raised, located("outer"), located("inner"):
            raise error
        assert raised.value is error and error.where == ("outer", "inner")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and copy.where == error.where
        assert str(copy) == str(error) == f"outer: inner: {message}"
        if type(error) is FormulaSyntaxError:
            assert (copy.line, copy.column, copy.expected) == (error.line, error.column, error.expected)


def _nested(depth: int) -> dict[str, str]:
    """Formulas whose tree is ``depth`` nodes deep, atom included, one per
    way of nesting; ``parens`` nests ``depth`` parenthesis levels instead."""
    n = depth - 1
    return {
        "not": "!" * n + "p",
        "next": "X " * n + "p",
        "always_paren": "G(" * n + "p" + ")" * n,
        "implies": " -> ".join(["p"] * depth),
        "and": " & ".join(["p"] * depth),
        "until": " U ".join(["p"] * depth),
        "parens": "(" * depth + "p" + ")" * depth,
    }


def test_formula_at_the_depth_limit_parses_compiles_formats_and_evaluates():
    trace = Trace([{"p"}, set(), {"p"}])
    for name, text in _nested(MAX_FORMULA_DEPTH).items():
        f = parse(text)
        assert parse(format_formula(f)) == f, name
        dfa = compile_formula(f)
        assert dfa.accepts(trace) == evaluate(f, trace) == naive_evaluate(f, trace, 0), name


def test_formula_beyond_the_depth_limit_is_a_syntax_error():
    for depth in (MAX_FORMULA_DEPTH + 1, 600):
        for name, text in _nested(depth).items():
            with pytest.raises(FormulaSyntaxError, match="more than") as excinfo:
                parse(text)
            assert excinfo.value.line == 1 and excinfo.value.column >= 1, name


def test_reserved_words_are_not_propositions():
    with pytest.raises(FormulaSyntaxError, match="reserved"):
        parse("p U (R)")
    with pytest.raises(ValueError):
        Prop("WX")
    with pytest.raises(ValueError):
        Prop("3p")


def test_case_sensitivity_lowercase_operators_are_identifiers():
    assert parse("u | g") == Or(Prop("u"), Prop("g"))


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def test_format_examples():
    assert format_formula(Always(Prop("p"))) == "G p"
    assert format_formula(Until(Prop("p"), Prop("q"))) == "p U q"
    assert format_formula(Not(And(Prop("a"), Prop("b")))) == "!(a & b)"


def test_format_preserves_node_kinds():
    # Printing must not rewrite derived operators into their expansions.
    f = WeakNext(Release(Prop("a"), Prop("b")))
    assert parse(format_formula(f)) == f


def test_format_distinguishes_associations():
    assert format_formula(Or(Prop("a"), Or(Prop("b"), Prop("c")))) == "a | (b | c)"
    assert format_formula(Or(Or(Prop("a"), Prop("b")), Prop("c"))) == "a | b | c"
    assert format_formula(Until(Until(Prop("a"), Prop("b")), Prop("c"))) == "(a U b) U c"


def test_round_trip_fuzzed():
    rng = random.Random(20240811)
    for _ in range(400):
        f = random_formula(rng, max_depth=6)
        assert parse(format_formula(f)) == f


@st.composite
def formulas(draw, max_depth=5):
    if max_depth == 0:
        return draw(
            st.sampled_from([TRUE, FALSE, Prop("a"), Prop("b"), Prop("c"), Prop("d")])
        )
    choice = draw(st.integers(0, 11))
    if choice <= 1:
        return draw(formulas(max_depth=0))
    sub = formulas(max_depth=max_depth - 1)
    if choice == 2:
        return Not(draw(sub))
    if choice == 3:
        return Next(draw(sub))
    if choice == 4:
        return WeakNext(draw(sub))
    if choice == 5:
        return Always(draw(sub))
    if choice == 6:
        return Eventually(draw(sub))
    binary = (And, Or, Implies, Until, Release)[choice - 7]
    return binary(draw(sub), draw(sub))


@given(formulas())
@settings(max_examples=300, deadline=None)
def test_round_trip_property(f):
    assert parse(format_formula(f)) == f


# ---------------------------------------------------------------------------
# propositions / to_nnf
# ---------------------------------------------------------------------------


def test_propositions_examples():
    assert propositions(parse("G(!(collision | badcontact))")) == {"collision", "badcontact"}
    assert propositions(TRUE) == frozenset()
    assert propositions(Until(Prop("a"), Prop("a"))) == {"a"}


def test_operands_rebuild_every_node_and_walks_reject_non_formulas():
    samples = [
        parse(text)
        for text in ("true", "false", "a", "!a", "a & b", "a | b", "a -> b", "X a", "WX a",
                     "a U b", "a R b", "G a", "F a")
    ]
    node_classes = {
        obj for obj in vars(formula_module).values()
        if isinstance(obj, type) and issubclass(obj, Formula) and obj is not Formula
    }
    assert {type(f) for f in samples} == node_classes
    for f in samples:
        assert type(f)(*operands(f)) == f
    with pytest.raises(TypeError):
        operands("a")
    for bad in ("a", And(Prop("a"), "b")):
        for walk in (to_nnf, format_formula, propositions):
            with pytest.raises(TypeError):
                walk(bad)


def test_nnf_dualities():
    assert to_nnf(Not(Always(Prop("p")))) == Eventually(Not(Prop("p")))
    assert to_nnf(Not(Next(Prop("p")))) == WeakNext(Not(Prop("p")))
    assert to_nnf(Not(WeakNext(Prop("p")))) == Next(Not(Prop("p")))
    assert to_nnf(Not(Until(Prop("a"), Prop("b")))) == Release(Not(Prop("a")), Not(Prop("b")))


def test_nnf_until_negation_is_semantically_correct():
    f = Not(Until(Prop("a"), Prop("b")))
    g = to_nnf(f)
    for length in range(1, 6):
        for trace in all_traces(["a", "b"], length):
            assert evaluate(f, trace) == evaluate(g, trace) == naive_evaluate(g, trace)


def _only_benign_negations(f) -> bool:
    if isinstance(f, Not):
        return isinstance(f.operand, Prop)
    if isinstance(f, (And, Or, Until, Release)):
        return _only_benign_negations(f.left) and _only_benign_negations(f.right)
    if isinstance(f, (Next, WeakNext, Always, Eventually)):
        return _only_benign_negations(f.operand)
    if isinstance(f, Implies):
        return False
    return True


def test_nnf_shape_and_soundness_fuzzed():
    rng = random.Random(7)
    for _ in range(200):
        f = random_formula(rng, max_depth=5, props=("a", "b"))
        g = to_nnf(f)
        assert _only_benign_negations(g)
        for length in (1, 2, 3):
            for trace in all_traces(["a", "b"], length):
                assert evaluate(f, trace) == evaluate(g, trace)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_invariant_fails_on_single_occurrence():
    f = Always(Not(Prop("c")))
    trace = Trace([set(), set(), set(), {"c"}, set()])
    assert evaluate(f, trace, 0) is False


def test_evaluate_strong_vs_weak_next_at_last_step():
    single = Trace([{"p"}])
    assert evaluate(Next(Prop("p")), single, 0) is False
    assert evaluate(WeakNext(Prop("p")), single, 0) is True


def test_evaluate_until_witnesses():
    f = Until(Prop("p"), Prop("q"))
    good = Trace([{"p"}, {"p"}, {"q"}])
    assert evaluate(f, good, 0) is True
    assert evaluate(f, good, 2) is True
    assert evaluate(f, Trace([{"p"}, {"p"}, set()]), 0) is False


def test_evaluate_position_out_of_range():
    with pytest.raises(IndexError):
        evaluate(TRUE, Trace([set()]), 1)
    with pytest.raises(IndexError):
        evaluate(TRUE, Trace([set()]), -1)


def test_evaluate_matches_naive_oracle_exhaustively():
    # Every operator, every trace up to length 3 over two propositions, every
    # position: the packaged evaluator must match the literal quantifier
    # definition.
    rng = random.Random(99)
    formulas_under_test = [random_formula(rng, max_depth=4, props=("a", "b")) for _ in range(120)]
    for f in formulas_under_test:
        for length in (1, 2, 3):
            for trace in all_traces(["a", "b"], length):
                for i in range(length):
                    assert evaluate(f, trace, i) == naive_evaluate(f, trace, i)


def test_suffix_locality():
    rng = random.Random(5)
    for _ in range(150):
        f = random_formula(rng, max_depth=4)
        trace = random_trace(rng, ("a", "b", "c", "d"), rng.randint(1, 6))
        i = rng.randrange(len(trace))
        assert evaluate(f, trace, i) == evaluate(f, trace.suffix(i), 0)


def test_derived_operator_identities():
    a, b, f = Prop("a"), Prop("b"), Prop("f")
    identities = [
        (Implies(a, b), Or(Not(a), b)),
        (Always(f), Release(FALSE, f)),
        (Eventually(f), Until(TRUE, f)),
        (Release(a, b), Not(Until(Not(a), Not(b)))),
        (WeakNext(f), Not(Next(Not(f)))),
    ]
    for lhs, rhs in identities:
        props = sorted(propositions(lhs) | propositions(rhs))
        for length in range(1, 6):
            for trace in all_traces(props, length):
                assert evaluate(lhs, trace) == evaluate(rhs, trace), (lhs, rhs, trace)


def test_trace_rejects_empty():
    with pytest.raises(ValueError):
        Trace([])


def test_trace_rejects_a_string_step():
    # A string is iterable, but its characters are not the step's names.
    with pytest.raises(TypeError, match="step 1 is the string 'grasped'"):
        Trace([{"p"}, "grasped"])
    with pytest.raises(TypeError, match="step 0 is the string ''"):
        Trace([""])


def test_trace_rejects_a_mapping_step():
    # Read as its keys, {"a": False} would make `a` true.
    with pytest.raises(TypeError, match=r"step 1 is the mapping \{'a': False\}, not a collection"):
        Trace([{"p"}, {"a": False}])


def test_trace_is_immutable_and_closed_world():
    t = Trace([["p"], []])
    with pytest.raises(AttributeError):
        t.steps = ()
    assert "q" not in t[0]
    assert t == Trace([{"p"}, set()])


def test_trace_pickles_and_copies():
    t = Trace([["p"], [], ["p", "q"]])
    for again in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert type(again) is Trace
        assert again == t and again.steps == t.steps
        with pytest.raises(AttributeError):
            again.steps = ()
