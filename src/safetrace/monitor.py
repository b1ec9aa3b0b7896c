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
from .automata import CODE_FALSE, CODE_PRESUMABLY_FALSE, Dfa, _bytes_per_step
from .formulas import Trace

__all__ = ["Verdict", "MonitorResult", "run_trace", "trace_masks"]


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

    ``codes`` and ``ends`` are the verdict runs of :meth:`Dfa.run`, and
    ``final_satisfied`` whether the last state was accepting. All else is
    read from these: ``verdict_codes`` and ``verdicts`` per step,
    ``violated`` (a ``FALSE`` verdict, first at ``violation_timestep``) and
    ``exposure``, ``unsafe_steps / length`` as an exact fraction.
    """

    codes: bytes
    ends: tuple[int, ...]
    final_satisfied: bool

    @property
    def verdict_codes(self) -> bytes:
        return _bytes_per_step(self.codes, self.ends)

    @property
    def verdicts(self) -> tuple[Verdict, ...]:
        return tuple(map(_VERDICTS.__getitem__, self.verdict_codes))

    @property
    def violated(self) -> bool:
        return CODE_FALSE in self.codes

    @property
    def violation_timestep(self) -> int | None:
        return _first_false(self.codes, self.ends)

    @property
    def unsafe_steps(self) -> int:
        return _unsafe_steps(self.codes, self.ends)

    @property
    def length(self) -> int:
        return self.ends[-1]

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


# The readers of verdict runs below are the only code that looks inside them.
_UNSAFE_FLAG_TABLE = bytes(code in (CODE_FALSE, CODE_PRESUMABLY_FALSE) for code in range(256))


def _unsafe_flags(codes: bytes, ends: Sequence[int]) -> bytes:
    """One 0/1 byte per step, 1 for a FALSE or PRESUMABLY_FALSE verdict."""
    return _bytes_per_step(codes.translate(_UNSAFE_FLAG_TABLE), ends)


def _unsafe_bits(codes: bytes, ends: Sequence[int]) -> int:
    """The unsafe flags as one int, the first step's byte the highest."""
    return int.from_bytes(_unsafe_flags(codes, ends), "big")


def _unsafe_steps(codes: bytes, ends: Sequence[int]) -> int:
    """The number of steps with a FALSE or PRESUMABLY_FALSE verdict."""
    return sum(end - start for start, end, code in zip((0, *ends), ends, codes) if _UNSAFE_FLAG_TABLE[code])


def _first_false(codes: bytes, ends: Sequence[int]) -> int | None:
    """The first step with a FALSE verdict, or ``None``."""
    k = codes.find(CODE_FALSE)
    return None if k == -1 else ends[k - 1] if k else 0


def trace_masks(d: Dfa, trace: Trace | Sequence[Iterable[str]]) -> bytes:
    """Project every valuation of a trace onto the DFA's bitmask alphabet."""
    return bytes(map(d.mask_of, trace))


def run_trace(d: Dfa, trace: Trace | Sequence[Iterable[str]]) -> MonitorResult:
    """Monitor a whole nonempty trace: :meth:`Dfa.run` over its masks, and
    whether the state it ends in is accepting."""
    codes, ends, state = d.run(trace_masks(d, trace))
    return MonitorResult(codes, ends, state in d.accepting)
