"""Temporal-logic formulas over finite traces: syntax, parsing, and semantics.

Formulas are immutable trees built from the Boolean connectives and the
finite-trace temporal operators: strong next, weak next, until, release,
always, eventually. The concrete syntax is plain ASCII::

    G(!(collision | badcontact))        # invariant
    grasped -> (stable U released)      # ordering obligation
    F done                              # eventual goal

Operator binding, loosest to tightest: ``<->``, ``->`` (right-associative),
``|``, ``&``, ``U``/``R`` (right-associative, same level), then the unary
operators ``!``, ``X``, ``WX``, ``G``, ``F``. ``#`` starts a comment running
to end of line. ``a <-> b`` is sugar for ``(a -> b) & (b -> a)`` and expands
during parsing; every other operator is a first-class node.

Semantics are the standard finite-trace ones. A trace is a nonempty sequence
of valuations (sets of true propositions, closed-world). Strong next is false
at the final step; weak next is true there. ``evaluate`` implements the
satisfaction relation by memoized recursion over (subformula, position) and is
the reference oracle for the automaton pipeline in :mod:`safetrace.automata`.

Each operator is defined once. The parser's operator tables give its token
and binding strength, which the printer reads too; :func:`operands` is the
one place that knows a node's children, and ``_DUALS`` pairs each operator
with the dual that negation normal form pushes a negation through. Printing,
:func:`to_nnf`, :func:`proposition_order` and the walks in
:mod:`safetrace.automata` go through these.
In this module only ``evaluate`` spells out every operator, so that it stays
an independent reference.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from ._record import Record, _set
from .errors import FormulaSyntaxError

__all__ = [
    "Formula",
    "TrueFormula",
    "FalseFormula",
    "Prop",
    "Not",
    "And",
    "Or",
    "Implies",
    "Next",
    "WeakNext",
    "Until",
    "Release",
    "Always",
    "Eventually",
    "TRUE",
    "FALSE",
    "MAX_FORMULA_DEPTH",
    "RESERVED_WORDS",
    "is_valid_proposition",
    "Trace",
    "parse",
    "format_formula",
    "operands",
    "to_nnf",
    "proposition_order",
    "propositions",
    "evaluate",
]

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
IDENT_RE = re.compile(_WORD_RE.pattern + r"\Z")
#: Valid proposition syntax (:func:`is_valid_proposition` but the reserved
#: words) for every line of a text.
_NAME_LINES = re.compile(rf"{_WORD_RE.pattern}(?:\n{_WORD_RE.pattern})*")

#: Words with a fixed meaning in the concrete syntax; not usable as propositions.
RESERVED_WORDS = frozenset({"true", "false", "U", "R", "X", "WX", "G", "F"})


def is_valid_proposition(name: object) -> bool:
    """A proposition is a string, a letter followed by
    letters/digits/underscores, and not one of the reserved syntax words."""
    return isinstance(name, str) and bool(IDENT_RE.match(name)) and name not in RESERVED_WORDS


def _all_propositions(names: Sequence[object]) -> bool:
    """Whether every one of a nonempty sequence of ``names`` is a valid
    proposition, checked all at once: one match of :data:`_NAME_LINES`
    over the names joined by newlines, where a name holding a newline adds
    one, which the count of newlines shows."""
    try:
        joined = "\n".join(names)
    except TypeError:  # a name that is not a string
        return False
    return (
        _NAME_LINES.fullmatch(joined) is not None
        and joined.count("\n") == len(names) - 1
        and RESERVED_WORDS.isdisjoint(names)
    )


class Formula(Record):
    """Base class for formula nodes. Nodes are immutable records that
    compare and hash by class and operands, as frozen dataclasses do; the
    constructors are spelled out per arity, since parsing builds one node
    per operator."""

    __slots__ = ()

    def __init__(self) -> None:
        pass

    def __str__(self) -> str:
        return format_formula(self)


class _Unary(Record):
    """The field and constructor of the one-operand nodes."""

    __slots__ = ("operand",)
    operand: Formula

    def __init__(self, operand: Formula) -> None:
        _set(self, "operand", operand)


class _Binary(Record):
    """The fields and constructor of the two-operand nodes."""

    __slots__ = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class TrueFormula(Formula):
    __slots__ = ()


class FalseFormula(Formula):
    __slots__ = ()


class Prop(Formula):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        if not is_valid_proposition(name):
            raise ValueError(f"invalid proposition name: {name!r}")
        _set(self, "name", name)


class Not(_Unary, Formula):
    __slots__ = ()


class And(_Binary, Formula):
    __slots__ = ()


class Or(_Binary, Formula):
    __slots__ = ()


class Implies(_Binary, Formula):
    __slots__ = ()


class Next(_Unary, Formula):
    """Strong next: requires a following step to exist."""

    __slots__ = ()


class WeakNext(_Unary, Formula):
    """Weak next: vacuously true at the final step."""

    __slots__ = ()


class Until(_Binary, Formula):
    __slots__ = ()


class Release(_Binary, Formula):
    __slots__ = ()


class Always(_Unary, Formula):
    __slots__ = ()


class Eventually(_Unary, Formula):
    __slots__ = ()


TRUE = TrueFormula()
FALSE = FalseFormula()

# A per-class table rather than an isinstance chain: every walk calls it once
# per node.
_OPERANDS = {
    TrueFormula: lambda f: (),
    FalseFormula: lambda f: (),
    Prop: lambda f: (f.name,),
    **dict.fromkeys((Not, Next, WeakNext, Always, Eventually), lambda f: (f.operand,)),
    **dict.fromkeys((And, Or, Implies, Until, Release), attrgetter("left", "right")),
}


def operands(f: Formula) -> tuple:
    """The constructor arguments of ``f``: the child formulas of an operator,
    the name of a proposition, nothing for a constant, so that
    ``type(f)(*operands(f)) == f``. Raises :class:`TypeError` on a
    non-formula."""
    try:
        get = _OPERANDS[type(f)]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None
    return get(f)


def _not_a_valuation(step: str | Mapping) -> str:
    """How an error names a step that is not a collection of propositions:
    a string would be read as its characters, a mapping as its keys."""
    return f"the {'string' if isinstance(step, str) else 'mapping'} {step!r}"


class Trace(Record):
    """A nonempty, immutable sequence of valuations.

    Each step is the set of propositions that hold there, given as any
    collection of names but a string or a mapping; anything absent is false
    (closed world). Step ``0`` is the first observation, step ``H`` the
    last, so the length is ``H + 1``. A trace is a record of its ``steps``,
    each a frozenset.
    """

    __slots__ = ("steps",)
    steps: tuple[frozenset[str], ...]

    def __init__(self, steps: Iterable[Iterable[str]]):
        normalized = tuple(steps)
        if set(map(type, normalized)) != {frozenset}:
            for t, s in enumerate(normalized):
                if isinstance(s, (str, Mapping)):
                    raise TypeError(f"step {t} is {_not_a_valuation(s)}, not a collection of propositions")
            normalized = tuple(s if isinstance(s, frozenset) else frozenset(s) for s in normalized)
        if not normalized:
            raise ValueError("trace must contain at least one step")
        Record.__init__(self, normalized)

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, index: int) -> frozenset[str]:
        return self.steps[index]

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.steps)

    def suffix(self, start: int) -> "Trace":
        """The trace from ``start`` (inclusive) to the end; must be nonempty."""
        if not 0 <= start < len(self.steps):
            raise IndexError(f"suffix start {start} out of range for length {len(self.steps)}")
        return Trace(self.steps[start:])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

#: Deepest formula ``parse`` accepts: the longest root-to-atom path of the
#: tree, counting the atom, may hold this many nodes, and parentheses may nest
#: this deep. Printing, compilation and evaluation recurse over the tree, so
#: the cap keeps them all well inside the interpreter's recursion limit.
MAX_FORMULA_DEPTH = 50

_PREFIX_OPERATORS = {"!": Not, "X": Next, "WX": WeakNext, "G": Always, "F": Eventually}

#: Binary operators: binding strength, right-associativity, node class
#: (``<->`` expands into two implications instead).
_BINARY_OPERATORS = {
    "<->": (1, False, None),
    "->": (2, True, Implies),
    "|": (3, False, Or),
    "&": (4, False, And),
    "U": (5, True, Until),
    "R": (5, True, Release),
}

_Token = tuple[str, str, int, int]  # kind, text, line, column
_Parsed = tuple[Formula, int]  # a parsed subtree and its depth


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("<->", i):
            tokens.append(("<->", "<->", line, col))
            i += 3
            col += 3
            continue
        if text.startswith("->", i):
            tokens.append(("->", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "()|&!":
            tokens.append((c, c, line, col))
            i += 1
            col += 1
            continue
        word = _WORD_RE.match(text, i)
        if word:
            tokens.append(("word", word.group(), line, col))
            col += word.end() - i
            i = word.end()
            continue
        raise FormulaSyntaxError(f"unknown operator or character {c!r}", line, col)
    return tokens


_WORD_SPLIT = re.compile(f"({_WORD_RE.pattern})")
_COMMENT = re.compile("#[^\n]*")


def _skeleton(text: str) -> tuple[tuple[str | int, ...], tuple[str, ...]]:
    """The token skeleton of a formula text, and the names taken out of it.

    Comments are dropped, as :func:`_tokenize` skips them; the rest is split
    at the words it reads: the separators and the reserved words stay as
    they are, and every other word becomes its slot, numbered by first
    occurrence; the names are listed in slot order. Two texts with equal
    skeletons tokenize alike up to their names and columns, so both fail
    to parse, or they parse to formulas of one shape.
    """
    parts: list[str | int] = _WORD_SPLIT.split(_COMMENT.sub("", text))
    slots: dict[str, int] = {}
    for i in range(1, len(parts), 2):
        word = parts[i]
        if word not in RESERVED_WORDS:
            parts[i] = slots.setdefault(word, len(slots))
    return tuple(parts), tuple(slots)


class _Parser:
    """Operator-precedence parser that recurses only into parentheses:
    operator chains are read iteratively and folded into nodes by
    :meth:`_node`, which enforces :data:`MAX_FORMULA_DEPTH`."""

    def __init__(self, tokens: list[_Token], text: str):
        self.tokens = tokens
        self.pos = 0
        self.parens = 0
        # End-of-input position for error reporting.
        lines = text.splitlines() or [""]
        self.eof_line = len(lines)
        self.eof_col = len(lines[-1]) + 1

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _error(self, message: str, expected: tuple[str, ...]) -> FormulaSyntaxError:
        tok = self._peek()
        if tok is None:
            return FormulaSyntaxError(message + " (end of input)", self.eof_line, self.eof_col, expected)
        return FormulaSyntaxError(f"{message}, found {tok[1]!r}", tok[2], tok[3], expected)

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _node(self, tok: _Token, cls: type, *operands: _Parsed) -> _Parsed:
        depth = 1 + max(d for _, d in operands)
        if depth > MAX_FORMULA_DEPTH:
            raise FormulaSyntaxError(
                f"formula nests more than {MAX_FORMULA_DEPTH} levels deep", tok[2], tok[3]
            )
        return cls(*(f for f, _ in operands)), depth

    def parse_formula(self) -> _Parsed:
        """Operands and binary operators up to the next unmatched token,
        reduced on an explicit stack by binding strength."""
        operands = [self._unary()]
        operators: list[_Token] = []
        while (tok := self._peek()) and tok[1] in _BINARY_OPERATORS:
            strength, right, _ = _BINARY_OPERATORS[self._advance()[1]]
            while operators:
                top = _BINARY_OPERATORS[operators[-1][1]][0]
                if top < strength or top == strength and right:
                    break
                self._reduce(operands, operators)
            operators.append(tok)
            operands.append(self._unary())
        while operators:
            self._reduce(operands, operators)
        return operands[0]

    def _reduce(self, operands: list[_Parsed], operators: list[_Token]) -> None:
        tok = operators.pop()
        rhs = operands.pop()
        lhs = operands.pop()
        cls = _BINARY_OPERATORS[tok[1]][2]
        if cls is None:  # a <-> b
            node = self._node(
                tok, And, self._node(tok, Implies, lhs, rhs), self._node(tok, Implies, rhs, lhs)
            )
        else:
            node = self._node(tok, cls, lhs, rhs)
        operands.append(node)

    def _unary(self) -> _Parsed:
        prefixes = []
        while (tok := self._peek()) and tok[1] in _PREFIX_OPERATORS:
            prefixes.append(self._advance())
        node = self._atom()
        for tok in reversed(prefixes):
            node = self._node(tok, _PREFIX_OPERATORS[tok[1]], node)
        return node

    def _atom(self) -> _Parsed:
        expected = ("true", "false", "identifier", "(")
        tok = self._peek()
        if tok is None:
            raise self._error("unexpected end of formula", (*_PREFIX_OPERATORS, *expected))
        if tok[0] == "(":
            if self.parens == MAX_FORMULA_DEPTH:
                raise FormulaSyntaxError(
                    f"parentheses nest more than {MAX_FORMULA_DEPTH} levels deep", tok[2], tok[3]
                )
            self._advance()
            self.parens += 1
            node = self.parse_formula()
            self.parens -= 1
            closing = self._peek()
            if closing is None or closing[0] != ")":
                raise self._error("unclosed parenthesis", (")",))
            self._advance()
            return node
        if tok[0] == "word":
            word = self._advance()[1]
            if word == "true":
                return TRUE, 1
            if word == "false":
                return FALSE, 1
            if word in RESERVED_WORDS:
                raise FormulaSyntaxError(
                    f"reserved word {word!r} cannot be used as a proposition", tok[2], tok[3], expected
                )
            return Prop(word), 1
        raise self._error("expected an atom", expected)


def parse(text: str) -> Formula:
    """Parse a formula from its concrete syntax.

    Raises :class:`FormulaSyntaxError` with line/column information on bad
    input, including empty input and input nested deeper than
    :data:`MAX_FORMULA_DEPTH`.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty formula", 1, 1, ("formula",))
    parser = _Parser(tokens, text)
    node, _ = parser.parse_formula()
    trailing = parser._peek()
    if trailing is not None:
        raise FormulaSyntaxError(
            f"unexpected trailing input {trailing[1]!r}", trailing[2], trailing[3], ("end of input",)
        )
    return node


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

#: Binding strength of every prefix operator: tighter than any binary one.
_UNARY_STRENGTH = 1 + max(strength for strength, _, _ in _BINARY_OPERATORS.values())

_PREFIX_TOKENS = {cls: token for token, cls in _PREFIX_OPERATORS.items()}
_BINARY_SYNTAX = {
    cls: (token, strength, right_assoc)
    for token, (strength, right_assoc, cls) in _BINARY_OPERATORS.items()
    if cls is not None
}


def _render(f: Formula, min_strength: int) -> str:
    """``f`` in concrete syntax, parenthesized when it binds looser than
    ``min_strength``. Atoms and prefix operators never need parentheses."""
    args = operands(f)
    cls = type(f)
    if cls in _BINARY_SYNTAX:
        token, strength, right_assoc = _BINARY_SYNTAX[cls]
        # The operand on the associative side may bind as loosely as the node.
        text = (
            _render(args[0], strength + right_assoc) + f" {token} "
            + _render(args[1], strength + (not right_assoc))
        )
        return text if strength >= min_strength else "(" + text + ")"
    if cls in _PREFIX_TOKENS:
        token = _PREFIX_TOKENS[cls]
        child = _render(args[0], _UNARY_STRENGTH)
        sep = "" if token == "!" or child.startswith("(") else " "
        return token + sep + child
    if cls is Prop:
        return f.name
    return "true" if cls is TrueFormula else "false"


def format_formula(f: Formula) -> str:
    """Render ``f`` deterministically with minimal parentheses.

    ``parse(format_formula(f))`` returns a tree structurally equal to ``f``;
    no operator is rewritten during printing.
    """
    return _render(f, 0)


# ---------------------------------------------------------------------------
# Normal form and structure
# ---------------------------------------------------------------------------


#: The finite-trace dual of each operator: ``!(a op b)`` is equivalent to
#: ``!a dual !b``, and likewise for the unary ones. Strong next is false at
#: the final step, so its dual is weak next.
_DUALS = {
    And: Or,
    Or: And,
    Next: WeakNext,
    WeakNext: Next,
    Until: Release,
    Release: Until,
    Always: Eventually,
    Eventually: Always,
}


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negation only directly above propositions,
    implication eliminated, all dualities applied. Preserves the formula's
    value on every trace and position."""
    cls = type(f)
    if cls is Not:
        return _nnf_negated(f.operand)
    if cls is Implies:
        return Or(_nnf_negated(f.left), to_nnf(f.right))
    if cls in (TrueFormula, FalseFormula, Prop):
        return f
    return cls(*map(to_nnf, operands(f)))


def _nnf_negated(f: Formula) -> Formula:
    """NNF of ``!f``."""
    cls = type(f)
    if cls is Prop:
        return Not(f)
    if cls is Not:
        return to_nnf(f.operand)
    if cls is Implies:
        return And(to_nnf(f.left), _nnf_negated(f.right))
    if cls is TrueFormula:
        return FALSE
    if cls is FalseFormula:
        return TRUE
    negated = tuple(map(_nnf_negated, operands(f)))  # TypeError on a non-formula
    return _DUALS[cls](*negated)


def proposition_order(f: Formula) -> tuple[str, ...]:
    """The proposition names occurring in ``f``, each once, in order of first
    occurrence (preorder, left to right)."""
    found: dict[str, None] = {}
    stack = [f]
    while stack:
        node = stack.pop()
        if type(node) is Prop:
            found[node.name] = None
        else:
            stack += operands(node)[::-1]
    return tuple(found)


def propositions(f: Formula) -> frozenset[str]:
    """The set of proposition names occurring in ``f``."""
    return frozenset(proposition_order(f))


# ---------------------------------------------------------------------------
# Reference semantics
# ---------------------------------------------------------------------------


def evaluate(f: Formula, trace: Trace, position: int = 0) -> bool:
    """Whether ``f`` holds at ``position`` of ``trace``.

    This is the reference satisfaction relation, computed by memoized
    recursion over (subformula, position) with no automaton involved:

    - ``X g`` holds at ``i`` iff ``i < H`` and ``g`` holds at ``i + 1``;
      ``WX g`` holds iff ``i = H`` or ``g`` holds at ``i + 1``.
    - ``a U b`` holds at ``i`` iff ``b`` holds at some ``j in [i, H]`` and
      ``a`` holds at every step in ``[i, j)``; ``R`` is its dual.
    - ``G``/``F`` quantify over all/some steps in ``[i, H]``.
    """
    n = len(trace)
    if not 0 <= position < n:
        raise IndexError(f"position {position} out of range for trace of length {n}")
    steps = trace.steps
    memo: dict[tuple[int, int], bool] = {}

    def sat(node: Formula, i: int) -> bool:
        key = (id(node), i)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = _sat(node, i)
        memo[key] = result
        return result

    def _sat(node: Formula, i: int) -> bool:
        if isinstance(node, TrueFormula):
            return True
        if isinstance(node, FalseFormula):
            return False
        if isinstance(node, Prop):
            return node.name in steps[i]
        if isinstance(node, Not):
            return not sat(node.operand, i)
        if isinstance(node, And):
            return sat(node.left, i) and sat(node.right, i)
        if isinstance(node, Or):
            return sat(node.left, i) or sat(node.right, i)
        if isinstance(node, Implies):
            return not sat(node.left, i) or sat(node.right, i)
        if isinstance(node, Next):
            return i + 1 < n and sat(node.operand, i + 1)
        if isinstance(node, WeakNext):
            return i + 1 >= n or sat(node.operand, i + 1)
        if isinstance(node, Until):
            for j in range(i, n):
                if sat(node.right, j):
                    return True
                if not sat(node.left, j):
                    return False
            return False
        if isinstance(node, Release):
            for j in range(i, n):
                if not sat(node.right, j):
                    return False
                if sat(node.left, j):
                    return True
            return True
        if isinstance(node, Always):
            return all(sat(node.operand, j) for j in range(i, n))
        if isinstance(node, Eventually):
            return any(sat(node.operand, j) for j in range(i, n))
        raise TypeError(f"not a formula: {node!r}")

    return sat(f, position)
