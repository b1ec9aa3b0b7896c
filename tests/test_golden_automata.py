"""Golden automata: the DOT and JSON exports of a fixed set of formulas,
recorded once and compared byte for byte, so any change to the compiler that
alters a state, a label, a permanence flag or an edge shows up here.

The recorded file is ``golden_automata.json`` next to this module. After a
deliberate change to the automata, rewrite it with
``PYTHONPATH=src python tests/test_golden_automata.py`` and review the diff.
"""

import json
from pathlib import Path

import pytest

from safetrace.automata import compile_formula, dfa_to_json, to_dot
from safetrace.formulas import format_formula, parse
from safetrace.properties import list_templates

GOLDEN_PATH = Path(__file__).with_name("golden_automata.json")

# Eight six-proposition CI-gate formulas, bound to fixed names.
_GATE_FORMULAS = (
    "G ((gripper_closed & near_fixture) -> (door_open U (holding_tool | human_near)))",
    "G (gripper_closed -> F (near_fixture & X (door_open | holding_tool | !human_near)))",
    "G ((gripper_closed | near_fixture) -> X (!door_open U (holding_tool & !human_near)))",
    "G (gripper_closed -> (near_fixture R (door_open | holding_tool))) & F (human_near | speed_limited)",
    "G (gripper_closed -> F near_fixture) & G ((door_open & holding_tool) -> !human_near)",
    "(!gripper_closed U near_fixture) | G ((door_open -> holding_tool) & (human_near -> WX speed_limited))",
    "G (gripper_closed -> ((near_fixture & !door_open) U (holding_tool | human_near)))",
    "F (gripper_closed & near_fixture) -> G (door_open -> F (holding_tool | human_near | speed_limited))",
)

_OTHER_FORMULAS = (
    "true",
    "false",
    "(a U b) & G (c -> F (d & X e)) & (f R (g | !h))",
)


def _cases() -> dict[str, str]:
    """Case name -> formula text (templates keep their slot names)."""
    cases = {t.template_id: format_formula(t.formula) for t in list_templates()}
    for i, text in enumerate(_GATE_FORMULAS):
        cases[f"gate_{i}"] = text
    for i, text in enumerate(_OTHER_FORMULAS):
        cases[f"other_{i}"] = text
    return cases


def _exports(text: str) -> dict[str, str]:
    d = compile_formula(parse(text))
    return {
        "formula": text,
        "dot": to_dot(d),
        "json": json.dumps(dfa_to_json(d), sort_keys=True, indent=2) + "\n",
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())
    assert max(len(json.loads(g["json"])["props"]) for g in golden.values()) == 8


@pytest.mark.parametrize("name", sorted(_cases()))
def test_compiled_automaton_matches_golden(golden, name):
    text = _cases()[name]
    expected = golden[name]
    assert expected["formula"] == text
    actual = _exports(text)
    assert actual["json"] == expected["json"]
    assert actual["dot"] == expected["dot"]


if __name__ == "__main__":
    golden = {name: _exports(text) for name, text in sorted(_cases().items())}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
