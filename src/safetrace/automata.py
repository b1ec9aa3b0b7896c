"""Compilation of finite-trace formulas into explicit minimized DFAs.

The automaton alphabet is the set of valuations over the formula's own
propositions, encoded as bitmasks: bit ``i`` of a symbol says whether
``props[i]`` holds at that step (:func:`compile_formula` sorts ``props`` by
name; a bound property instance lists them in slot order). Construction is
by formula progression: each state is the residual obligation left after the
consumed prefix (Bacchus & Kabanza's progression). Progressing through one
valuation resolves every literal and rewrites the temporal operators into a
flattened, duplicate-free disjunction of conjunctions of next-step
obligations, with constants folded and subsumed conjunctions absorbed; that
minimal form is the memoization key, so equal obligations share a state and
the construction terminates.

The construction runs over the formula's interned NNF closure: each distinct
subformula is an int node that knows its support, the propositions it reads
at the current step, and a next-step obligation is the int ``2 * node +
weak``. Progression is memoized per (node, valuation restricted to the
node's support), and each state is progressed once per distinct valuation of
the propositions its residual reads, the result shared by every symbol that
agrees on them. Minimization renumbers the states and labels each class by
the raw state it is first reached through, so the automaton, its labels and
every export do not depend on the order in which raw states are found.

State labels are rendered on first read, from each class's residual kept as
sorted int tuples and the formula the automaton was compiled from; the
compile-time closure is not kept. Node ids depend only on the formula's tree,
so formulas of one shape (names replaced by slots in order of first occurrence)
share one raw automaton up to bit order: a bounded process-wide cache builds it
once, with the shape's minimal automaton, whose bit ``i`` reads slot ``i``.
Every binding of the shape shares that automaton's tables under its own names
in slot order; :func:`compile_formula` renumbers the raw automaton in the
formula's sorted letter order on each call, unless the names already occur
sorted, where the shape's automaton is the canonical one.

Whether a reached state is accepting is decided on its obligation set as if
the trace ended there: a strong next contributes false, a weak next true. The
initial state's flag encodes the degenerate empty-suffix case used
internally; externally, acceptance is defined for nonempty traces only.

Every state additionally carries a verdict code, one of the ``CODE_*`` bytes
below: permanently true if every state reachable from it (itself included)
is accepting, permanently false if every reachable state is rejecting, and
otherwise presumably true or false as the state itself accepts or rejects.
Monitors read these as definitive versus presumptive verdicts, and a state's
permanence label (``PERM_TRUE``, ``PERM_FALSE`` or ``UNDETERMINED``) is read
from its code; :meth:`Dfa.run` is the one loop that runs an automaton.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Mapping
from enum import Enum
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

from ._record import Record, _restore
from .errors import AlphabetMismatchError, AlphabetTooLargeError, MonitorError
from .formulas import (
    Always,
    And,
    Eventually,
    FalseFormula,
    Formula,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Trace,
    TrueFormula,
    Until,
    WeakNext,
    _not_a_valuation,
    format_formula,
    is_valid_proposition,
    operands,
    propositions,
    to_nnf,
)

__all__ = [
    "MAX_PROPOSITIONS",
    "Permanence",
    "Dfa",
    "compile_formula",
    "minimize",
    "equivalent",
    "to_dot",
    "dfa_to_json",
]

#: Hard cap on alphabet width; 8 propositions already mean 256 edge labels
#: per state, and every shipped property template uses at most three.
MAX_PROPOSITIONS = 8

#: Per-step verdict codes, one byte each: permanently true, permanently
#: false, presumably true, presumably false. Codes below
#: ``CODE_PRESUMABLY_TRUE`` are permanent.
CODE_TRUE, CODE_FALSE, CODE_PRESUMABLY_TRUE, CODE_PRESUMABLY_FALSE = range(4)


class Permanence(Enum):
    PERM_TRUE = "PERM_TRUE"
    PERM_FALSE = "PERM_FALSE"
    UNDETERMINED = "UNDETERMINED"


# Structural identity ignores the run tables derived from it and the debug labels.
_UNCOMPARED = ("successors", "verdict_codes", "_labels")


class Dfa(Record, norepr=_UNCOMPARED, nocompare=_UNCOMPARED):
    """Deterministic automaton over valuation bitmasks.

    ``transitions[s][mask]`` is the successor of state ``s`` on the valuation
    encoded by ``mask``; the table is total. An automaton is an immutable
    record that compares, hashes and prints by ``props``, ``initial``,
    ``accepting`` and ``transitions``, and is safe to share across threads
    and processes.

    The constructor checks its arguments and builds the run tables:
    ``successors``, the transition table flattened row-major
    (``successors[s * alphabet_size + mask]``; ``bytes`` up to 256 states,
    ``array('H')`` beyond, ``'L'`` past 65536), and ``verdict_codes``, the
    ``CODE_*`` byte of every state, from which ``permanence`` is read.

    ``state_labels`` are debug labels, one per state, or ``None``; those of
    a compiled automaton are rendered when first read.
    """

    props: tuple[str, ...]
    initial: int
    accepting: frozenset[int]
    transitions: tuple[tuple[int, ...], ...]
    successors: bytes | array
    verdict_codes: bytes
    _labels: tuple[str, ...] | _LazyLabels | None

    def __init__(
        self,
        props: Sequence[str],
        initial: int,
        accepting: Iterable[int],
        transitions: Sequence[Sequence[int]],
        state_labels: Sequence[str] | None = None,
    ):
        props = tuple(props)
        if len(props) > MAX_PROPOSITIONS:
            raise AlphabetTooLargeError(
                f"{len(props)} propositions exceed the cap of {MAX_PROPOSITIONS}"
            )
        if len(set(props)) != len(props):
            raise ValueError("duplicate propositions in alphabet basis")
        for p in props:
            if not is_valid_proposition(p):
                raise ValueError(f"invalid proposition name: {p!r}")
        n = len(transitions)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        width = 1 << len(props)
        rows = []
        for s, row in enumerate(transitions):
            row = tuple(row)
            if len(row) != width:
                raise ValueError(
                    f"state {s} has {len(row)} transitions, expected {width}"
                )
            if min(row) < 0 or max(row) >= n:
                raise ValueError(f"state {s} has a transition outside states 0..{n - 1}")
            rows.append(row)
        if not 0 <= initial < n:
            raise ValueError(f"initial state {initial} out of range")
        accepting = frozenset(accepting)
        if not all(0 <= a < n for a in accepting):
            raise ValueError("accepting set references unknown states")
        flat = chain.from_iterable(rows)
        successors = bytes(flat) if n <= 256 else array("H" if n <= 1 << 16 else "L", flat)
        codes = _verdict_codes(rows, accepting)
        labels = tuple(state_labels) if state_labels is not None else None
        Record.__init__(self, props, initial, accepting, tuple(rows), successors, codes, labels)

    @property
    def permanence(self) -> tuple[Permanence, ...]:
        """Each state's permanence label, read from its verdict code."""
        return tuple(map(_PERMANENCE.__getitem__, self.verdict_codes))

    @property
    def state_labels(self) -> tuple[str, ...] | None:
        labels = self._labels
        return labels.render() if isinstance(labels, _LazyLabels) else labels

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    @property
    def alphabet_size(self) -> int:
        return 1 << len(self.props)

    def mask_of(self, valuation: Iterable[str]) -> int:
        """Bitmask of a valuation (a collection of propositions, neither a
        string nor a mapping) projected onto this automaton's basis."""
        if not isinstance(valuation, (set, frozenset)):
            if isinstance(valuation, (str, Mapping)):
                what = _not_a_valuation(valuation)
                raise TypeError(f"a valuation is a collection of propositions, not {what}")
            valuation = set(valuation)
        mask = 0
        for bit, p in enumerate(self.props):
            if p in valuation:
                mask |= 1 << bit
        return mask

    def accepts(self, trace: Trace | Sequence[Iterable[str]]) -> bool:
        """Run the automaton over the trace and report final-state acceptance.

        Valuations are projected onto the automaton's propositions
        (closed-world). The trace must be nonempty.
        """
        if len(trace) == 0:
            raise ValueError("cannot run a DFA on an empty trace")
        _, state = self.run([self.mask_of(valuation) for valuation in trace])
        return state in self.accepting

    def run(self, masks: Sequence[int], ends: Sequence[int] | None = None) -> tuple[bytes, int]:
        """Verdict code after each step, and the state the run ended in.

        ``masks`` is a nonempty sequence of valuation bitmasks over this
        automaton's alphabet (see :meth:`mask_of`): an empty one, or a mask
        outside ``range(alphabet_size)``, raises :class:`MonitorError`.
        Without ``ends`` there is one mask per step. With ``ends``, the
        trace is given as runs, as :meth:`RolloutRecord.mask_runs` gives
        it: ``masks[k]`` holds at every step of the ``k``-th run, which ends
        before step ``ends[k]``. There must be one end per mask (else
        :class:`MonitorError`), and the ends must increase, the last being
        the trace's length; that is not checked.

        The run stops at the first permanent verdict, which every later step
        repeats; the state returned is then the one reached there, whose
        acceptance every continuation shares.

        This is the one loop that steps an automaton, and it reads the trace
        one maximal run of equal masks at a time: neighbouring steps or runs
        of equal masks are walked as one, found with ``bytes.find`` over
        :func:`_changes`. Within a run the state is stepped only until the
        mask maps it to itself, and the rest of the run repeats that state's
        verdict with one repeated-bytes append. Minimized LTLf automata are
        counter-free, so under a constant mask this happens within
        ``num_states`` steps; nothing here relies on it, since a mask
        without a fixed point is simply stepped through to the end of its
        run.
        """
        width = self.alphabet_size
        # bytes() of any other buffer (array('H'), a cast memoryview) would
        # copy its raw memory, not its elements.
        data = masks if isinstance(masks, (bytes, bytearray)) else list(masks)
        if not data:
            raise MonitorError("cannot monitor an empty trace")
        if isinstance(data, list):
            out_of_range = min(data) < 0 or max(data) >= width
        else:
            out_of_range = data.translate(None, _ALL_BYTES[:width])
        if out_of_range:
            raise MonitorError(
                f"valuation masks must lie in range({width}) "
                f"for a DFA over {len(self.props)} propositions"
            )
        data = bytes(data)
        m = len(data)
        if ends is None:
            ends = range(1, m + 1)
        elif len(ends) != m:
            raise MonitorError(f"{len(ends)} run ends for {m} masks")
        # The run from ``k`` takes in every later run up to ``changes.find(1, k)``.
        changes = _changes(data)
        n = ends[-1]
        successors = self.successors
        verdict_codes = self.verdict_codes
        permanent_below = CODE_PRESUMABLY_TRUE
        state = self.initial
        codes = bytearray()
        append = codes.append
        k = start = 0
        while k < m:
            mask = data[k]
            k = changes.find(1, k) + 1 or m
            stop = ends[k - 1]
            for t in range(start, stop):
                after = successors[state * width + mask]
                code = verdict_codes[after]
                append(code)
                if code < permanent_below:
                    codes += _CODE_BYTES[code] * (n - 1 - t)
                    return bytes(codes), after
                if after == state:
                    codes += _CODE_BYTES[code] * (stop - 1 - t)
                    break
                state = after
            start = stop
        return bytes(codes), state


def _changes(data: bytes) -> bytes:
    """One byte per pair of neighbours in ``data``: 1 where ``data[t] !=
    data[t + 1]``, else 0, found at C speed through ``data`` read as one
    little-endian integer ``x``: the bytes of ``x ^ (x >> 8)``."""
    x = int.from_bytes(data, "little")
    return (x ^ (x >> 8)).to_bytes(len(data), "little")[:-1].translate(_NONZERO_TO_ONE)


_ALL_BYTES = bytes(range(256))
_NONZERO_TO_ONE = bytes(1) + bytes((1,)) * 255
_CODE_BYTES = tuple(bytes((code,)) for code in range(4))
#: The permanence label of each ``CODE_*``.
_PERMANENCE = (
    Permanence.PERM_TRUE, Permanence.PERM_FALSE, Permanence.UNDETERMINED, Permanence.UNDETERMINED
)


# ---------------------------------------------------------------------------
# Interned closure and canonical residual forms
# ---------------------------------------------------------------------------
#
# Each compilation first interns the NNF subformula closure: every
# structurally distinct node gets an int id, a kind, its children and its
# support, the bitmask of propositions it reads at the current step (``X``
# and ``WX`` read none: their operand is read at the next step). A residual
# obligation is a disjunction of conjunctions whose atoms are next-step
# obligations on closure nodes, encoded as ints: ``2 * node`` for strong
# next, ``2 * node + 1`` for weak next. Residuals are monotone in these
# atoms, so pruning subsumed conjunctions leaves the unique minimal set of
# implicants; that set (of frozensets) is the canonical state key. Atoms come
# from a finite closure and antichains over a finite set are finite, so the
# state space is finite and construction terminates.

_Dnf = frozenset  # frozenset[frozenset[int]]

_DNF_TRUE: _Dnf = frozenset({frozenset()})
_DNF_FALSE: _Dnf = frozenset()

# Closure node kinds, keyed by the NNF node class they intern.
_TRUE, _FALSE, _PROP, _NOT_PROP, _AND, _OR, _NEXT, _WEAK_NEXT = range(8)
_UNTIL, _RELEASE, _EVENTUALLY, _ALWAYS = range(8, 12)
_KINDS = {
    TrueFormula: _TRUE,
    FalseFormula: _FALSE,
    Prop: _PROP,
    Not: _NOT_PROP,
    And: _AND,
    Or: _OR,
    Next: _NEXT,
    WeakNext: _WEAK_NEXT,
    Until: _UNTIL,
    Release: _RELEASE,
    Eventually: _EVENTUALLY,
    Always: _ALWAYS,
}


def _dnf_prune(terms: set[frozenset]) -> _Dnf:
    # Absorption: a term strictly containing another is redundant.
    return frozenset(t for t in terms if not any(o < t for o in terms))


class _Closure:
    """The interned NNF closure of one formula over a sorted alphabet.

    Progression is memoized on (node, valuation restricted to the node's
    support), conjunction and disjunction on the operand pair. An instance
    lives for one shape's progression or one rendering of labels.
    """

    def __init__(self, root: Formula, names: Sequence[str]):
        self.bits = {name: 1 << i for i, name in enumerate(names)}
        self.ids: dict[tuple, int] = {}
        self.kinds: list[int] = []
        self.children: list[tuple[int, ...]] = []
        self.support: list[int] = []
        self.formulas: list[Formula] = []
        # For X/WX: the DNF of its one atom; for U/R/F/G: the DNF of the
        # atom that re-posts the node itself at the next step.
        self.postponed: list[_Dnf | None] = []
        self.progressed: dict[int, _Dnf] = {}
        self.conjoined: dict[tuple[_Dnf, _Dnf], _Dnf] = {}
        self.disjoined: dict[tuple[_Dnf, _Dnf], _Dnf] = {}
        self.atom_texts: dict[int, str] = {}
        self.root = self._intern(root)

    def _intern(self, f: Formula) -> int:
        kind = _KINDS[type(f)]  # ``f`` is in NNF: no ``->``, ``!`` only on a Prop
        if kind == _PROP:
            support, children = self.bits[f.name], ()
        elif kind == _NOT_PROP:
            support, children = self.bits[f.operand.name], ()
        else:
            children = tuple(map(self._intern, operands(f)))
            support = 0
            if kind not in (_NEXT, _WEAK_NEXT):
                for child in children:
                    support |= self.support[child]
        key = (kind, support, children)
        node = self.ids.get(key)
        if node is None:
            node = self.ids[key] = len(self.kinds)
            self.kinds.append(kind)
            self.children.append(children)
            self.support.append(support)
            self.formulas.append(f)
            if kind in (_NEXT, _WEAK_NEXT):
                atom = 2 * children[0] + (kind == _WEAK_NEXT)
            elif kind in (_UNTIL, _EVENTUALLY, _RELEASE, _ALWAYS):
                atom = 2 * node + (kind in (_RELEASE, _ALWAYS))
            else:
                atom = None
            self.postponed.append(None if atom is None else frozenset({frozenset({atom})}))
        return node

    def conj(self, a: _Dnf, b: _Dnf) -> _Dnf:
        if not a or not b:
            return _DNF_FALSE
        if a is _DNF_TRUE:
            return b
        if b is _DNF_TRUE:
            return a
        key = (a, b)
        result = self.conjoined.get(key)
        if result is None:
            result = self.conjoined[key] = _dnf_prune({s | t for s in a for t in b})
        return result

    def disj(self, a: _Dnf, b: _Dnf) -> _Dnf:
        if a is _DNF_TRUE or b is _DNF_TRUE:
            return _DNF_TRUE
        if not a:
            return b
        if not b:
            return a
        key = (a, b)
        result = self.disjoined.get(key)
        if result is None:
            result = self.disjoined[key] = _dnf_prune(set(a) | set(b))
        return result

    def progress(self, node: int, mask: int) -> _Dnf:
        """One-step derivative of a closure node against a valuation mask, as
        a canonical disjunction of conjunctions of next-step atoms."""
        key = node << MAX_PROPOSITIONS | mask & self.support[node]
        result = self.progressed.get(key)
        if result is not None:
            return result
        kind = self.kinds[node]
        if kind == _PROP:
            result = _DNF_TRUE if mask & self.support[node] else _DNF_FALSE
        elif kind == _NOT_PROP:
            result = _DNF_FALSE if mask & self.support[node] else _DNF_TRUE
        elif kind == _TRUE:
            result = _DNF_TRUE
        elif kind == _FALSE:
            result = _DNF_FALSE
        elif kind in (_NEXT, _WEAK_NEXT):
            result = self.postponed[node]
        else:
            children = self.children[node]
            first = self.progress(children[0], mask)
            if kind == _AND:
                result = self.conj(first, self.progress(children[1], mask))
            elif kind == _OR:
                result = self.disj(first, self.progress(children[1], mask))
            elif kind == _UNTIL:
                result = self.disj(
                    self.progress(children[1], mask), self.conj(first, self.postponed[node])
                )
            elif kind == _RELEASE:
                result = self.conj(
                    self.progress(children[1], mask), self.disj(first, self.postponed[node])
                )
            elif kind == _EVENTUALLY:
                result = self.disj(first, self.postponed[node])
            else:
                result = self.conj(first, self.postponed[node])
        self.progressed[key] = result
        return result

    def step(self, residual: _Dnf, mask: int) -> _Dnf:
        """Progress a whole residual: each atom's node is consumed against
        the valuation (the next-step wrapper is moot once a next step exists),
        recombined along the residual's own and/or structure."""
        result = _DNF_FALSE
        for term in residual:
            term_dnf = _DNF_TRUE
            for atom in term:
                term_dnf = self.conj(term_dnf, self.progress(atom >> 1, mask))
                if not term_dnf:
                    break
            result = self.disj(result, term_dnf)
        return result

    def reads(self, residual: _Dnf) -> int:
        """Bitmask of the propositions a residual's next step depends on."""
        support = self.support
        read = 0
        for term in residual:
            for atom in term:
                read |= support[atom >> 1]
        return read

    def label(self, residual: tuple[tuple[int, ...], ...]) -> str:
        """Text of a residual in the form :func:`_compact` gives it."""
        if residual == ((),):
            return "true"
        if not residual:
            return "false"
        rendered = []
        for term in residual:
            parts = sorted(self._atom_text(atom) for atom in term)
            text = " & ".join(parts)
            rendered.append(f"({text})" if len(parts) > 1 and len(residual) > 1 else text)
        return " | ".join(sorted(rendered))

    def _atom_text(self, atom: int) -> str:
        text = self.atom_texts.get(atom)
        if text is None:
            wrapper = WeakNext if atom & 1 else Next
            text = self.atom_texts[atom] = format_formula(wrapper(self.formulas[atom >> 1]))
        return text


def _compact(residual: _Dnf) -> tuple[tuple[int, ...], ...]:
    """A residual as sorted tuples of atoms: what a label needs of a state,
    holding no reference into the closure it was built in."""
    return tuple(sorted(tuple(sorted(term)) for term in residual))


class _LazyLabels:
    """The state labels of a compiled automaton, rendered on first read.

    State 0 is labeled with ``formula`` itself and state ``s > 0`` with
    ``residuals[s - 1]``, the compact residual of the raw state representing
    it. Rendering interns ``formula``'s closure afresh, which gives the same
    node ids as its shape's closure had at compile time.
    """

    __slots__ = ("formula", "residuals", "texts")

    def __init__(self, formula: Formula, residuals: tuple[tuple[tuple[int, ...], ...], ...]):
        self.formula = formula
        self.residuals = residuals
        self.texts: tuple[str, ...] | None = None

    def render(self) -> tuple[str, ...]:
        if self.texts is None:
            f = self.formula
            closure = _Closure(to_nnf(f), sorted(propositions(f)))
            self.texts = (format_formula(f), *map(closure.label, self.residuals))
        return self.texts


def _dnf_accepts_if_trace_ends(state: _Dnf) -> bool:
    """Truth of a residual when no further step arrives: strong next
    obligations fail, weak ones are vacuously met."""
    return any(all(atom & 1 for atom in term) for term in state)


def _empty_suffix_value(f: Formula) -> bool:
    """Truth of an NNF formula on the empty suffix, used only for the initial
    state: position-quantified operators with nothing to range over (``F``,
    ``U``, strong next, bare propositions) are false; their universal duals
    (``G``, ``R``, weak next) and negated propositions are vacuously true."""
    if type(f) is And:
        return _empty_suffix_value(f.left) and _empty_suffix_value(f.right)
    if type(f) is Or:
        return _empty_suffix_value(f.left) or _empty_suffix_value(f.right)
    return type(f) in (TrueFormula, Not, WeakNext, Release, Always)


# ---------------------------------------------------------------------------
# Compilation, classification, minimization
# ---------------------------------------------------------------------------


def compile_formula(f: Formula) -> Dfa:
    """Compile a formula into its canonical minimized DFA.

    For every nonempty trace over the formula's propositions the automaton
    accepts exactly when :func:`safetrace.formulas.evaluate` holds at
    position 0. Its propositions are sorted by name, and its states are
    numbered breadth-first with symbols in ascending bitmask order. Raises
    :class:`AlphabetTooLargeError` beyond :data:`MAX_PROPOSITIONS`
    propositions.
    """
    slots: dict[str, int] = {}
    shape = _shape_key(f, slots)
    names = sorted(slots)
    if names == list(slots):  # the shape's own automaton is the canonical one
        return _bind(shape, names, f)
    _check_alphabet(len(names), f)
    raw, _ = _shape_tables(shape)
    return _minimal(raw, names, [slots[name] for name in names], f)


def _bind_formula(f: Formula) -> Dfa:
    """The automaton of ``f``'s shape, reading ``f``'s names in order of
    first occurrence: see :func:`_bind`."""
    slots: dict[str, int] = {}
    return _bind(_shape_key(f, slots), tuple(slots), f)


def _bind(shape: tuple | int, slot_names: Sequence[str], f: Formula) -> Dfa:
    """The automaton of ``f``, a formula of this shape with distinct names
    ``slot_names`` in slot order, without walking ``f``: the shape's own
    automaton, its bit ``i`` reading ``slot_names[i]``.

    It accepts what :func:`compile_formula` accepts, and differs from it by
    a renaming of the alphabet bits, and so also in state numbering."""
    _check_alphabet(len(slot_names), f)
    _, shared = _shape_tables(shape)
    # The run tables are shared as they are; the basis and the labels are f's.
    return _restore(Dfa, (
        tuple(slot_names), 0, shared.accepting, shared.transitions, shared.successors,
        shared.verdict_codes, _LazyLabels(f, shared._labels.residuals),
    ))


def _check_alphabet(count: int, f: Formula) -> None:
    if count > MAX_PROPOSITIONS:
        raise AlphabetTooLargeError(
            f"formula uses {count} propositions (cap {MAX_PROPOSITIONS}): " + format_formula(f)
        )


def _shape_key(f: Formula, slots: dict[str, int]) -> tuple | int:
    """``f`` as nested ``(class, *operands)`` tuples, each proposition
    replaced by its slot: its index in ``slots``, in order of first occurrence."""
    if type(f) is Prop:
        return slots.setdefault(f.name, len(slots))
    return (type(f), *[_shape_key(g, slots) for g in operands(f)])


def _shape_formula(shape: tuple | int, names: Sequence[str]) -> Formula:
    """The formula a :func:`_shape_key` encodes, with ``names[i]`` in slot ``i``."""
    if type(shape) is int:
        return Prop(names[shape])
    return shape[0](*[_shape_formula(operand, names) for operand in shape[1:]])


def _minimal(raw: tuple, props: Sequence[str], bit_slots: Sequence[int], f: Formula) -> Dfa:
    """The minimal automaton of ``f`` over ``props`` from ``raw``, the raw
    automaton of ``f``'s shape: bit ``i`` of a symbol reads slot
    ``bit_slots[i]``, and states are numbered breadth-first with symbols in
    ascending bitmask order."""
    rows, accepting, residuals, classes = raw
    symbols = [0]  # symbols[mask]: the shape's symbol for mask
    for slot in bit_slots:
        symbols += [symbol | 1 << slot for symbol in symbols]
    final, minimal_rows, representatives = _renumbered(0, accepting, rows, classes, symbols)
    dfa = Dfa(props, 0, final, minimal_rows)
    # Raw state 0 represents state 0, which the formula itself labels.
    labels = _LazyLabels(f, tuple(_compact(residuals[r]) for r in representatives[1:]))
    return _restore(Dfa, (*dfa._values(dfa._fields[:-1]), labels))


@lru_cache(maxsize=128)
def _shape_tables(shape: tuple) -> tuple[tuple, Dfa]:
    """The raw automaton of a shape (its rows, its accepting states, the
    residual of each state and its Moore partition) and the shape's minimal
    automaton over ``p0``, ``p1``, ..., bit ``i`` reading slot ``i``; shared
    by every caller and so never modified."""
    formula = _shape_formula(shape, [f"p{slot}" for slot in range(MAX_PROPOSITIONS)])
    root = to_nnf(formula)
    closure = _Closure(root, sorted(propositions(formula)))
    width = 1 << len(closure.bits)
    # The initial residual wraps the whole formula; its acceptance flag is
    # the formula's value on the empty suffix, queried only internally. Every
    # other state's flag follows from its residual, which is therefore the
    # state key; the initial residual (one weak atom, so accepting as a
    # successor) is shared with successors only when its own flag agrees.
    initial = frozenset({frozenset({2 * closure.root + 1})})
    order: list[_Dnf] = [initial]
    accepting = [_empty_suffix_value(root)]
    index: dict[_Dnf, int] = {initial: 0} if accepting[0] else {}
    rows: list[list[int]] = []
    at = 0
    while at < len(order):
        residual = order[at]
        at += 1
        # The successor on ``mask`` depends on ``mask & read`` only, so the
        # residual is progressed once per submask of ``read`` (enumerated in
        # ascending order) and each mask takes its submask's successor.
        read = closure.reads(residual)
        targets: dict[int, int] = {}
        sub = 0
        while True:
            successor = closure.step(residual, sub)
            target = index.get(successor)
            if target is None:
                target = index[successor] = len(order)
                order.append(successor)
                accepting.append(_dnf_accepts_if_trace_ends(successor))
            targets[sub] = target
            if sub == read:
                break
            sub = (sub - read) & read
        rows.append([targets[mask & read] for mask in range(width)])
    final = frozenset(s for s, acc in enumerate(accepting) if acc)
    raw = (rows, final, order, _classes(0, final, rows))
    # p0, p1, ... sort in slot order (at most p7).
    return raw, _minimal(raw, sorted(closure.bits), range(len(closure.bits)), formula)


def _verdict_codes(transitions: Sequence[Sequence[int]], accepting: frozenset[int]) -> bytes:
    """The ``CODE_*`` byte of each state, from one backward reachability pass
    that marks which of accepting and rejecting states each state reaches."""
    n = len(transitions)
    reverse: list[list[int]] = [[] for _ in range(n)]
    for s, row in enumerate(transitions):
        for target in set(row):
            reverse[target].append(s)
    # reaches[s]: bit 1 if s reaches an accepting state, bit 2 a rejecting one.
    reaches = [1 if s in accepting else 2 for s in range(n)]
    queue = deque(range(n))
    while queue:
        s = queue.popleft()
        bits = reaches[s]
        for prev in reverse[s]:
            if bits & ~reaches[prev]:
                reaches[prev] |= bits
                queue.append(prev)
    return bytes(
        CODE_TRUE if r == 1
        else CODE_FALSE if r == 2
        else CODE_PRESUMABLY_TRUE if s in accepting
        else CODE_PRESUMABLY_FALSE
        for s, r in enumerate(reaches)
    )


def minimize(d: Dfa) -> Dfa:
    """Canonical minimal automaton: unreachable states removed, behaviorally
    indistinguishable states merged (partition refinement), states renumbered
    breadth-first from the initial state with symbols in ascending bitmask
    order, verdict codes recomputed."""
    classes = _classes(d.initial, d.accepting, d.transitions)
    accepting, rows, representatives = _renumbered(
        d.initial, d.accepting, d.transitions, classes, range(d.alphabet_size)
    )
    labels = d.state_labels
    if labels is not None:
        labels = [labels[r] for r in representatives]
    return Dfa(d.props, 0, accepting, rows, state_labels=labels)


def _classes(initial: int, accepting: frozenset[int], transitions: Sequence) -> dict:
    """The class of each state reachable from ``initial`` under Moore
    refinement, which splits classes until transition signatures stabilize.
    The partition does not depend on the order of the symbols."""
    reachable: list[int] = [initial]
    seen = {initial}
    at = 0
    while at < len(reachable):
        s = reachable[at]
        at += 1
        for target in transitions[s]:
            if target not in seen:
                seen.add(target)
                reachable.append(target)

    cls = {s: (1 if s in accepting else 0) for s in reachable}
    count = len(set(cls.values()))
    while True:
        signatures: dict[tuple, int] = {}
        new_cls = {}
        for s in reachable:
            key = (cls[s], tuple(map(cls.__getitem__, transitions[s])))
            group = signatures.setdefault(key, len(signatures))
            new_cls[s] = group
        cls = new_cls
        if len(signatures) == count:
            return cls
        count = len(signatures)


def _renumbered(
    initial: int, accepting: frozenset[int], transitions: Sequence, classes: dict, symbols: Sequence
) -> tuple[frozenset[int], list[list[int]], list[int]]:
    """The minimal automaton over ``classes``: its accepting states, its rows,
    whose initial state is 0 and whose symbol ``m`` is ``symbols[m]`` of
    ``transitions``, and for each of its states the raw state that
    represents it."""
    # Renumber classes breadth-first; the first reachable member represents
    # its class (sound: refinement makes class transitions uniform).
    start = classes[initial]
    class_order = [start]
    class_index = {start: 0}
    representative = {start: initial}
    rows = []
    at = 0
    while at < len(class_order):
        successors = transitions[representative[class_order[at]]]
        at += 1
        targets = [successors[symbol] for symbol in symbols]
        # Each distinct target once, in order of first occurrence.
        for target in dict.fromkeys(targets):
            target_class = classes[target]
            if target_class not in class_index:
                class_index[target_class] = len(class_order)
                representative[target_class] = target
                class_order.append(target_class)
        rows.append([class_index[classes[target]] for target in targets])

    representatives = [representative[c] for c in class_order]
    final = frozenset(s for s, raw in enumerate(representatives) if raw in accepting)
    return final, rows, representatives


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Whether two automata accept the same nonempty traces.

    The proposition sets must coincide; if the orderings differ, ``b``'s
    symbols are re-encoded into ``a``'s bit layout. Decided by breadth-first
    search over the product for a reachable acceptance disagreement. The pair
    of initial states only counts when re-reached by at least one symbol,
    since acceptance of the empty trace is not part of the contract.
    """
    if set(a.props) != set(b.props):
        raise AlphabetMismatchError(
            f"alphabets differ: {sorted(a.props)} vs {sorted(b.props)}"
        )
    if a.props == b.props:
        remap = None
    else:
        position_in_b = {p: i for i, p in enumerate(b.props)}
        remap = [0] * a.alphabet_size
        for mask in range(a.alphabet_size):
            bmask = 0
            for bit, p in enumerate(a.props):
                if mask >> bit & 1:
                    bmask |= 1 << position_in_b[p]
            remap[mask] = bmask

    start = (a.initial, b.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        sa, sb = queue.popleft()
        for mask in range(a.alphabet_size):
            ta = a.transitions[sa][mask]
            tb = b.transitions[sb][remap[mask] if remap else mask]
            if (ta in a.accepting) != (tb in b.accepting):
                return False
            pair = (ta, tb)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _guard_text(props: tuple[str, ...], mask: int) -> str:
    if not props:
        return "*"
    literals = []
    for bit, p in enumerate(props):
        literals.append(p if mask >> bit & 1 else "!" + p)
    return " & ".join(literals)


def to_dot(d: Dfa) -> str:
    """Deterministic DOT rendering; accepting states are double-circled and
    parallel edges to one target are merged into a single labeled edge."""
    lines = ["digraph dfa {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    labels = d.state_labels
    permanence = d.permanence
    for s in range(d.num_states):
        shape = "doublecircle" if s in d.accepting else "circle"
        label = f"q{s}"
        if labels is not None:
            escaped = labels[s].replace("\\", "\\\\").replace('"', '\\"')
            label += "\\n" + escaped
        label += "\\n" + permanence[s].value
        lines.append(f'  q{s} [shape={shape}, label="{label}"];')
    lines.append(f"  __start -> q{d.initial};")
    for s in range(d.num_states):
        by_target: dict[int, list[int]] = {}
        for mask, target in enumerate(d.transitions[s]):
            by_target.setdefault(target, []).append(mask)
        for target in sorted(by_target):
            masks = by_target[target]
            if len(masks) == d.alphabet_size:
                guard = "*"
            else:
                guard = " | ".join(_guard_text(d.props, m) for m in masks)
            lines.append(f'  q{s} -> q{target} [label="{guard}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dfa_to_json(d: Dfa) -> dict:
    """JSON-ready description of the automaton."""
    return {
        "props": list(d.props),
        "states": d.num_states,
        "initial": d.initial,
        "accepting": sorted(d.accepting),
        "permanence": [label.value for label in d.permanence],
        "transitions": [list(row) for row in d.transitions],
    }
