"""Stepwise runtime monitoring of a compiled DFA over a rollout trace.

After consuming each valuation the monitor reports one of four verdicts:

- ``TRUE`` / ``FALSE``: the automaton sits in a permanence-classified state,
  so no continuation of the trace can change the outcome.
- ``PRESUMABLY_TRUE`` / ``PRESUMABLY_FALSE``: the prefix consumed so far,
  read as a complete trace, satisfies / fails the property, but a different
  continuation could still flip it.

``FALSE`` and ``TRUE`` are absorbing. A property counts as violated when a
``FALSE`` verdict occurs (a mid-trace violation) or, optionally, when the
trace ends in a rejecting state (an end-of-trace violation: an obligation
such as an unmet eventuality survived to the horizon). The per-step count of
``FALSE``/``PRESUMABLY_FALSE`` verdicts is the unsafe-step total, and its
fraction of the trace length is the unsafe-state exposure.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import Record
from .automata import CODE_FALSE, CODE_PRESUMABLY_FALSE, Dfa
from .errors import MonitorError
from .formulas import Trace

__all__ = ["Verdict", "MonitorResult", "Monitor", "run_masks", "run_trace", "trace_masks"]


class Verdict(Enum):
    """The four verdicts, declared in ``CODE_*`` order: the verdict of code
    ``c`` is ``tuple(Verdict)[c]``."""

    TRUE = "T"
    FALSE = "F"
    PRESUMABLY_TRUE = "pt"
    PRESUMABLY_FALSE = "pf"


_VERDICTS = tuple(Verdict)


class MonitorResult(Record):
    """Outcome of monitoring one property instance over one trace.

    ``verdict_codes`` stores one byte per timestep, a ``CODE_*`` value of
    :mod:`safetrace.automata`; ``final_satisfied`` whether the last state
    was accepting. Everything else is read from these two: ``verdicts``
    decodes the codes, ``violated`` is whether a ``FALSE`` verdict occurred
    (first at ``violation_timestep``), and ``exposure`` is
    ``unsafe_steps / length`` as an exact fraction.
    """

    verdict_codes: bytes
    final_satisfied: bool

    @property
    def verdicts(self) -> tuple[Verdict, ...]:
        return tuple(_VERDICTS[c] for c in self.verdict_codes)

    @property
    def violated(self) -> bool:
        return CODE_FALSE in self.verdict_codes

    @property
    def violation_timestep(self) -> int | None:
        first_false = self.verdict_codes.find(CODE_FALSE)
        return None if first_false == -1 else first_false

    @property
    def unsafe_steps(self) -> int:
        codes = self.verdict_codes
        return codes.count(CODE_FALSE) + codes.count(CODE_PRESUMABLY_FALSE)

    @property
    def length(self) -> int:
        return len(self.verdict_codes)

    @property
    def exposure(self) -> Fraction:
        return Fraction(self.unsafe_steps, self.length)

    @property
    def violation_kind(self) -> str | None:
        """``"mid"`` when a FALSE verdict occurred, ``"end"`` when the trace
        merely ended unsatisfied, ``None`` when the property held."""
        if self.violated:
            return "mid"
        if not self.final_satisfied:
            return "end"
        return None

    def violates(self, strict_end: bool = True) -> bool:
        """Whether this counts as a violation; ``strict_end`` controls whether
        ending in a rejecting state (without an absorbing FALSE) counts."""
        if self.violated:
            return True
        return strict_end and not self.final_satisfied

    def unsafe_flags(self) -> bytes:
        """Per-step 0/1 flags marking FALSE or PRESUMABLY_FALSE verdicts."""
        return self.verdict_codes.translate(_UNSAFE_FLAG_TABLE)


_ALL_BYTES = bytes(range(256))
_UNSAFE_FLAG_TABLE = bytes(code in (CODE_FALSE, CODE_PRESUMABLY_FALSE) for code in range(256))


def run_masks(d: Dfa, masks: Sequence[int]) -> MonitorResult:
    """Monitor a nonempty sequence of valuation bitmasks over ``d``'s
    alphabet (see :func:`trace_masks`); a mask outside the alphabet is a
    :class:`MonitorError`."""
    return MonitorResult(*_checked_run(d, masks))


def _checked_run(d: Dfa, masks: Sequence[int]) -> tuple[bytes, bool]:
    """The verdict codes of :func:`run_masks` and whether the last state is
    accepting, without building the :class:`MonitorResult`."""
    if len(masks) == 0:
        raise MonitorError("cannot monitor an empty trace")
    if isinstance(masks, (bytes, bytearray)):
        out_of_range = masks.translate(None, _ALL_BYTES[: d.alphabet_size])
    else:
        out_of_range = min(masks) < 0 or max(masks) >= d.alphabet_size
    if out_of_range:
        raise MonitorError(
            f"valuation masks must lie in range({d.alphabet_size}) "
            f"for a DFA over {len(d.props)} propositions"
        )
    codes, state = d.run(masks)
    return codes, state in d.accepting


def trace_masks(d: Dfa, trace: Trace | Sequence[Iterable[str]]) -> bytes:
    """Project every valuation of a trace onto the DFA's bitmask alphabet."""
    return bytes(map(d.mask_of, trace))


class Monitor:
    """Online monitor over one compiled property DFA.

    Valuations are fed one at a time with :meth:`step`, each returning the
    verdict after that step; :meth:`finalize` closes the trace and produces
    the :class:`MonitorResult`. Instances are single-use and strictly
    sequential; run one monitor per property instance per rollout.
    """

    def __init__(self, dfa: Dfa):
        self._dfa = dfa
        self._state = dfa.initial
        self._codes = bytearray()
        self._finalized = False

    @property
    def steps_consumed(self) -> int:
        return len(self._codes)

    def step(self, valuation: Iterable[str]) -> Verdict:
        if self._finalized:
            raise MonitorError("step after finalize")
        d = self._dfa
        self._state = d.successors[self._state * d.alphabet_size + d.mask_of(valuation)]
        code = d.verdict_codes[self._state]
        self._codes.append(code)
        return _VERDICTS[code]

    def finalize(self) -> MonitorResult:
        if not self._codes:
            raise MonitorError("finalize before any step was consumed")
        self._finalized = True
        return MonitorResult(bytes(self._codes), self._state in self._dfa.accepting)


def run_trace(d: Dfa, trace: Trace | Sequence[Iterable[str]]) -> MonitorResult:
    """Monitor a whole trace at once; identical to stepping every valuation
    through a fresh :class:`Monitor` and finalizing."""
    return run_masks(d, trace_masks(d, trace))
