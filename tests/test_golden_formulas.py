"""Golden formula text: the printed form, negation normal forms and
proposition sets of the ten templates and of 300 fuzzed formulas, recorded
once and compared exactly, so any change to printing, NNF or proposition
collection shows up here.

The recorded file is ``golden_formulas.json`` next to this module. After a
deliberate change to the formula functions, rewrite it with
``PYTHONPATH=src python tests/test_golden_formulas.py`` and review the diff.
"""

import json
import random
from pathlib import Path

import pytest

from safetrace.formulas import Not, format_formula, propositions, to_nnf
from safetrace.properties import list_templates

from oracles import random_formula

GOLDEN_PATH = Path(__file__).with_name("golden_formulas.json")

_FUZZ_SEEDS = range(300)


def _cases() -> dict:
    """Case name -> formula."""
    cases = {t.template_id: t.formula for t in list_templates()}
    for seed in _FUZZ_SEEDS:
        cases[f"random_{seed}"] = random_formula(random.Random(seed), 5)
    return cases


def _texts(f) -> dict:
    return {
        "formula": format_formula(f),
        "nnf": format_formula(to_nnf(f)),
        "nnf_negated": format_formula(to_nnf(Not(f))),
        "propositions": sorted(propositions(f)),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


def test_formula_texts_match_golden(golden):
    mismatched = [name for name, f in _cases().items() if _texts(f) != golden[name]]
    assert mismatched == []


if __name__ == "__main__":
    golden = {name: _texts(f) for name, f in sorted(_cases().items())}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
