"""Golden scenario bytes: the sha256 of every rollout ``generate_scenario``
writes for each catalog scenario at three lengths (``min_length``,
``default_length`` and ``default_length + 7``), three flip rates and 40
seeds, plus one digest of the whole ``build_corpus`` tree, recorded once and
compared exactly, so any change to the scenario generator or the corpus
writer shows up here.

The recorded file is ``golden_scenarios.json`` next to this module. After a
deliberate change to the generator, rewrite it with
``PYTHONPATH=src python tests/test_golden_scenarios.py`` and review the diff.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from safetrace.rollouts import (
    SCENARIOS,
    ScenarioParams,
    build_corpus,
    generate_scenario,
    serialize_rollout,
)

GOLDEN_PATH = Path(__file__).with_name("golden_scenarios.json")

_SEEDS = range(40)
_FLIP_RATES = (0, 0.05, 0.5)
_CORPUS = "build_corpus"


def _cases() -> dict[str, tuple[str, int, float]]:
    """Case name -> (scenario id, length, flip rate); each case covers every
    seed in ``_SEEDS``."""
    cases = {}
    for sid, info in SCENARIOS.items():
        for length in (info.min_length, info.default_length, info.default_length + 7):
            for flip_rate in _FLIP_RATES:
                cases[f"{sid}/length={length}/flip_rate={flip_rate}"] = (sid, length, flip_rate)
    return cases


def _digests(sid: str, length: int, flip_rate: float) -> list[str]:
    """One digest per seed of the serialized rollout."""
    records = (generate_scenario(ScenarioParams(sid, length, seed, flip_rate=flip_rate)) for seed in _SEEDS)
    return [hashlib.sha256(serialize_rollout(r).encode("utf-8")).hexdigest() for r in records]


def _corpus_digest(out_dir: Path) -> str:
    """One digest over every file ``build_corpus`` writes: each relative
    path and its bytes, in path order."""
    build_corpus(out_dir)
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted([*_cases(), _CORPUS])


def test_generated_rollouts_match_golden(golden):
    mismatched = [
        (name, seed)
        for name, case in _cases().items()
        for seed, (digest, expected) in enumerate(zip(_digests(*case), golden[name]))
        if digest != expected
    ]
    assert mismatched == []


def test_bundled_corpus_matches_golden(golden, tmp_path):
    assert _corpus_digest(tmp_path) == golden[_CORPUS]


if __name__ == "__main__":
    golden = {name: _digests(*case) for name, case in sorted(_cases().items())}
    with tempfile.TemporaryDirectory() as tmp:
        golden[_CORPUS] = _corpus_digest(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
