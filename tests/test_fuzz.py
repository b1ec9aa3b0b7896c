"""Input fuzz of the three loaders and the CLI: whatever text, JSON value or
mapping ``parse``, ``load_rollout`` and ``load_task_spec`` get, the only
exception that escapes is a ``SafetraceError``; a ``RolloutRecord`` built
directly from the same fields fails as ``load_rollout`` does, or equals the
record it loads; whatever files the CLI reads, it exits 0, 1 or 2, and exit
1 prints nothing but ``error:`` lines."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from safetrace.cli import main
from safetrace.errors import SafetraceError
from safetrace.formulas import parse
from safetrace.properties import TEMPLATE_IDS, load_task_spec
from safetrace.rollouts import RolloutRecord, load_rollout, serialize_rollout

# Text that may hold lone surrogates, which JSON's \ud800 escapes decode to
# and UTF-8 cannot encode.
_TEXT = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=8)
_KEYS = st.one_of(
    _TEXT,
    st.sampled_from(("t", "props", "id", "template", "bindings", "formula")),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.tuples(st.integers()),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    _TEXT,
    st.sampled_from(("a", "b", "G", "true", "9bad", "Collision")),
)


def _values(keys):
    """JSON-like values; mappings use ``keys`` (strings only for real JSON)."""
    return st.recursive(
        _SCALARS,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=16,
    )


_JSON = _values(_TEXT)
_ANY = _values(_KEYS)
_NAMES = st.sampled_from(("a", "b", "c", "G", "9bad", "")) | _SCALARS

_STEPS = st.one_of(
    st.lists(_NAMES, max_size=3),
    st.dictionaries(_KEYS, _SCALARS, max_size=3),
    st.fixed_dictionaries(
        {"t": st.one_of(st.integers(-2, 6), st.integers(), _SCALARS)},
        optional={"props": st.one_of(st.lists(_NAMES, max_size=3), _ANY)},
    ),
    _ANY,
)
_ROLLOUT_BASE = {
    "rollout_id": "r",
    "task": "t",
    "policy": "p",
    "success": True,
    "trace": [["a"], []],
    "declared_props": ["a", "b"],
}
_SPEC_BASE = {"task": "t", "suite": "atomic_fixture", "horizon": "atomic", "properties": []}
_PHI1 = {"id": "inv", "template": "phi1", "bindings": {"Collision": "a", "BadContact": "b"}}


@st.composite
def _near(draw, base, fields):
    """``base`` with some fields dropped, replaced or added."""
    doc = dict(base)
    for key, value in draw(st.lists(st.tuples(st.sampled_from(list(base)) | _KEYS, fields), max_size=3)):
        if draw(st.booleans()):
            doc[key] = value
        else:
            doc.pop(key, None)
    return doc


_PROPERTY = st.one_of(
    st.just(_PHI1),
    _near(_PHI1, _ANY),
    st.fixed_dictionaries(
        {
            "id": st.sampled_from(("x", "inv", "")) | _SCALARS,
            "template": st.sampled_from(TEMPLATE_IDS + ("custom", "phi99")) | _SCALARS,
        },
        optional={
            "bindings": st.dictionaries(_KEYS, _NAMES, max_size=4),
            "formula": st.text(alphabet="abcGFXUR!&|()-> é", max_size=24) | _SCALARS,
            "allow_duplicate_bindings": _SCALARS,
        },
    ),
    _ANY,
)
_ROLLOUTS = st.one_of(
    _ANY,
    _near(_ROLLOUT_BASE, _ANY),
    _near(_ROLLOUT_BASE, st.lists(_STEPS, max_size=6)),
)
_SPECS = st.one_of(_ANY, _near(_SPEC_BASE, _ANY), _near(_SPEC_BASE, st.lists(_PROPERTY, max_size=3)))
_FORMULA_TEXT = st.text() | st.text(alphabet="abpGFXURW!&|()-<> \n#á²_01", max_size=40)
_YAML_TEXT = st.text(alphabet=":-[]{}!&*?|>'\"#%@,\n .0123456789abtxTZ", max_size=40)
_TOO_LONG_INT = "1" * 5000  # beyond the interpreter's integer-conversion limit


def _only_safetrace_errors(load, value):
    try:
        load(value)
    except SafetraceError:
        pass


@given(_FORMULA_TEXT)
@example("G !á")  # a non-ASCII letter once reached Prop as a name
@settings(max_examples=500, deadline=None)
def test_parse_raises_only_safetrace_errors(text):
    _only_safetrace_errors(parse, text)


@given(st.one_of(st.text(), _JSON.map(json.dumps), _ROLLOUTS))
@example(dict(_ROLLOUT_BASE, trace=[{1: "x", "a": "y"}]))  # mixed key types in a dense step
@example({**_ROLLOUT_BASE, 1: 2, "z": 3})  # mixed unknown keys
@example(dict(_ROLLOUT_BASE, trace=[{"t": 0}, {"t": 10**12}]))  # a huge timestep gap
@example(_TOO_LONG_INT)
@settings(max_examples=500, deadline=None)
def test_load_rollout_raises_only_safetrace_errors(source):
    _only_safetrace_errors(load_rollout, source)


# The fields of a record, drawn as the rollout documents above draw them. A
# record's step is a set, so a document step lists its names once, in the
# order the record words an error in: sorted by their text. A trace is a
# list of such steps, possibly empty, or a value that is not a list.
_SORTED_STEPS = st.lists(_NAMES, max_size=3, unique_by=str).map(lambda step: sorted(step, key=str))
_RECORD_FIELDS = {
    "rollout_id": _NAMES | _ANY,
    "task": _NAMES | _ANY,
    "policy": _NAMES | _ANY,
    "success": st.booleans() | _ANY,
    "trace": st.lists(_SORTED_STEPS, max_size=4) | _SCALARS | st.dictionaries(_KEYS, _SCALARS, max_size=3),
    "declared_props": st.none() | st.lists(_NAMES, max_size=4) | _ANY,
}


@st.composite
def _record_documents(draw):
    """``_ROLLOUT_BASE`` with one to three of its fields replaced."""
    doc = dict(_ROLLOUT_BASE)
    for key in draw(st.lists(st.sampled_from(list(_RECORD_FIELDS)), min_size=1, max_size=3)):
        doc[key] = draw(_RECORD_FIELDS[key])
    return doc


@given(_record_documents())
@example(dict(_ROLLOUT_BASE, success="yes"))
@example(dict(_ROLLOUT_BASE, rollout_id=5, success="yes"))  # success is checked first
@example(dict(_ROLLOUT_BASE, policy="p\ud800"))
@example(dict(_ROLLOUT_BASE, declared_props=7))
@example(dict(_ROLLOUT_BASE, declared_props={"a": True, "b": True}))
@example(dict(_ROLLOUT_BASE, trace=[["a", 5]]))
@example(dict(_ROLLOUT_BASE, trace=[]))
@example(dict(_ROLLOUT_BASE, trace=7))
@example(dict(_ROLLOUT_BASE, trace="ab"))
@settings(max_examples=500, deadline=None)
def test_a_record_accepts_exactly_what_its_loader_accepts(document):
    fields = [document[key] for key in ("rollout_id", "task", "policy", "success", "trace")]
    try:
        loaded = load_rollout(document)
    except SafetraceError as exc:
        with pytest.raises(SafetraceError) as direct_error:
            RolloutRecord(*fields, document["declared_props"])
        assert str(direct_error.value) == str(exc)
    else:
        record = RolloutRecord(*fields, document["declared_props"])
        assert record == loaded
        assert load_rollout(serialize_rollout(record)) == record


@given(st.one_of(st.text(), _YAML_TEXT, _SPECS))
@example(dict(_SPEC_BASE, properties=[{"id": "c", "template": "custom", "formula": "G !é"}]))
@example({**_SPEC_BASE, 1: 0, "z": 0})  # mixed unknown keys
@example(dict(_SPEC_BASE, properties=[{**_PHI1, 1: 0, "z": 0}]))
@example("when: 2001-13-01")  # YAML reads a date with a 13th month
@example(_TOO_LONG_INT)
@settings(max_examples=500, deadline=None)
def test_load_task_spec_raises_only_safetrace_errors(source):
    _only_safetrace_errors(load_task_spec, source)


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------

_PAIR = {"rollout": "rollout.json", "task_spec": "spec.json"}
_MANIFEST_BASE = {"pairs": [_PAIR]}
_CUSTOM = {"id": "c", "template": "custom", "formula": "G (a -> F b)"}
_VALID_FILES = {
    "rollout.json": _ROLLOUT_BASE,
    "spec.json": dict(_SPEC_BASE, properties=[_PHI1, _CUSTOM]),
    "manifest.json": _MANIFEST_BASE,
}
_MANIFESTS = st.one_of(
    _near(_MANIFEST_BASE, _ANY),
    _near(_MANIFEST_BASE, st.lists(st.one_of(st.just(_PAIR), _near(_PAIR, _ANY), _ANY), max_size=3)),
)
_DOCUMENTS = {"rollout.json": _ROLLOUTS, "spec.json": _SPECS, "manifest.json": _MANIFESTS}
# The files each subcommand reads, and its arguments.
_COMMANDS = {
    "monitor": (("rollout.json", "spec.json"), ["monitor", "rollout.json", "spec.json"]),
    "validate": (("rollout.json", "spec.json"), ["validate", "rollout.json", "spec.json"]),
    "evaluate": (
        ("rollout.json", "spec.json", "manifest.json"),
        ["evaluate", "manifest.json", "--out", "out"],
    ),
}


def _as_file(doc) -> str:
    # JSON keys are strings; other keys become strings or are skipped.
    return json.dumps(doc, skipkeys=True)


@st.composite
def _cli_calls(draw):
    """One CLI call: its argument list and the one input file that is fuzzed
    (none for ``compile``, whose formula is); the other inputs are valid."""
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["compile"]))
    if command == "compile":
        return ["compile", "--formula=" + draw(_FORMULA_TEXT)], {}
    reads, argv = _COMMANDS[command]
    target = draw(st.sampled_from(reads))
    content = draw(
        st.one_of(
            st.text(),
            st.binary(),
            _JSON.map(json.dumps),
            _DOCUMENTS[target].map(_as_file),
            _YAML_TEXT if target == "spec.json" else st.nothing(),
        )
    )
    return argv, {target: content}


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


@given(_cli_calls())
@example((["compile", "--formula=G !á"], {}))
@example((["compile", "--formula=.json"], {}))  # a formula, not a file name
@example((["monitor", "rollout.json", "spec.json"], {"spec.json": "@"}))  # PyYAML's multi-line message
@example((["monitor", "rollout.json", "spec.json"], {"rollout.json": b"\xff\xfe"}))
@example((["evaluate", "manifest.json", "--out", "out"], {"manifest.json": "[" * 100000}))
@example(  # the policy goes into the CSVs, and UTF-8 cannot encode a lone surrogate
    (
        ["evaluate", "manifest.json", "--out", "out"],
        {"rollout.json": _as_file(dict(_ROLLOUT_BASE, policy="p\ud800"))},
    )
)
@settings(max_examples=300, deadline=None)
def test_cli_exits_cleanly_on_any_input(cli_dir, call):
    argv, files = call
    for name, doc in {**{n: _as_file(d) for n, d in _VALID_FILES.items()}, **files}.items():
        path = cli_dir / name
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc, encoding="utf-8")
    argv = [str(cli_dir / a) if a in _VALID_FILES or a == "out" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert lines and all(line.startswith("error: ") for line in lines), err.getvalue()
        # Each error says where it happened: in the file that was fuzzed.
        for name in files:
            assert all(str(cli_dir / name) in line for line in lines), err.getvalue()
