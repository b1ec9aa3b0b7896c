"""Exception hierarchy shared across the package."""

__all__ = [
    "SafetraceError", "located", "FormulaSyntaxError", "AlphabetTooLargeError",
    "AlphabetMismatchError", "MonitorError", "TemplateError", "BindingError", "TaskSpecError",
    "RolloutFormatError", "ScenarioError",
]


class SafetraceError(Exception):
    """Base class for all errors raised by this package. ``where`` names
    where the error happened, outermost place first, ahead of the message."""

    where: tuple[str, ...] = ()

    def __str__(self) -> str:
        return ": ".join((*self.where, super().__str__()))


class located:
    """Context manager that prepends ``where`` to the location of any
    :class:`SafetraceError` raised inside it; the error keeps its class and
    identity. A class: folds enter it per rollout, and it costs less than half
    what a ``contextlib`` generator does."""

    __slots__ = ("where",)

    def __init__(self, where: str) -> None:
        self.where = where

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, error, traceback) -> None:
        if isinstance(error, SafetraceError):
            error.where = (self.where, *error.where)


class FormulaSyntaxError(SafetraceError):
    """Raised when a formula string cannot be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token and the
    set of token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += " (expected: " + ", ".join(expected) + ")"
        super().__init__(detail)
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected

    def __reduce__(self):
        return type(self), (self.message, self.line, self.column, self.expected), self.__dict__


class AlphabetTooLargeError(SafetraceError):
    """Raised when a formula uses more propositions than a DFA can carry."""


class AlphabetMismatchError(SafetraceError):
    """Raised when two automata over different proposition sets are compared."""


class MonitorError(SafetraceError):
    """Raised when :meth:`Dfa.run <safetrace.automata.Dfa.run>` is given an
    empty trace, or a valuation mask outside the automaton's alphabet."""


class TemplateError(SafetraceError):
    """Raised for references to unknown property templates."""


class BindingError(SafetraceError):
    """Raised when template slot bindings are missing, unknown, or invalid."""


class TaskSpecError(SafetraceError):
    """Raised when a task specification document fails validation."""


class RolloutFormatError(SafetraceError):
    """Raised when a rollout document fails schema or consistency checks."""


class ScenarioError(SafetraceError):
    """Raised for unknown scenarios or infeasible scenario parameters."""
