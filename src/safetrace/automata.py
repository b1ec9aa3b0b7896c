"""Compilation of finite-trace formulas into explicit minimized DFAs.

The automaton alphabet is the set of valuations over the formula's own
propositions, encoded as bitmasks: bit ``i`` of a symbol says whether
``props[i]`` holds at that step (``props`` is sorted by name). Construction is
by formula progression: each state is the residual obligation left after the
consumed prefix. Progressing through one valuation resolves every literal and
rewrites the temporal operators into a flattened, duplicate-free disjunction
of conjunctions of next-step obligations, with constants folded and subsumed
conjunctions absorbed; that minimal form is the memoization key, so equal
obligations share a state and the construction terminates.

Whether a reached state is accepting is decided on its obligation set as if
the trace ended there: a strong next contributes false, a weak next true. The
initial state's flag encodes the degenerate empty-suffix case used
internally; externally, acceptance is defined for nonempty traces only.

Every state additionally carries a permanence label: ``PERM_TRUE`` if every
state reachable from it (itself included) is accepting, ``PERM_FALSE`` if
every reachable state is rejecting, ``UNDETERMINED`` otherwise. Monitors map
these to definitive versus presumptive verdicts, encoded as the ``CODE_*``
bytes below; :meth:`Dfa.run` is the one loop that runs an automaton.
"""

from __future__ import annotations

from array import array
from collections import deque
from enum import Enum
from itertools import chain
from typing import Iterable, Sequence

from .errors import AlphabetMismatchError, AlphabetTooLargeError
from .formulas import (
    Always,
    And,
    Eventually,
    FalseFormula,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Trace,
    TrueFormula,
    Until,
    WeakNext,
    format_formula,
    is_valid_proposition,
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


class Dfa:
    """Deterministic automaton over valuation bitmasks.

    ``transitions[s][mask]`` is the successor of state ``s`` on the valuation
    encoded by ``mask``; the table is total. Instances are immutable once
    constructed and safe to share across threads and processes.

    The constructor also builds the run tables: ``successors``, the
    transition table flattened row-major (``successors[s * alphabet_size +
    mask]``; ``bytes`` up to 256 states, ``array('H')`` beyond, ``'L'`` past
    65536), and ``verdict_codes``, the ``CODE_*`` byte of every state.
    """

    def __init__(
        self,
        props: Sequence[str],
        initial: int,
        accepting: Iterable[int],
        transitions: Sequence[Sequence[int]],
        permanence: Sequence[Permanence] | None = None,
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

        self.props = props
        self.initial = initial
        self.accepting = accepting
        self.transitions = tuple(rows)
        if permanence is None:
            permanence = _compute_permanence(self.transitions, accepting)
        else:
            permanence = tuple(permanence)
            if len(permanence) != n:
                raise ValueError("permanence labels must cover every state")
        self.permanence = permanence
        self.state_labels = tuple(state_labels) if state_labels is not None else None
        flat = chain.from_iterable(rows)
        self.successors = bytes(flat) if n <= 256 else array("H" if n <= 1 << 16 else "L", flat)
        self.verdict_codes = bytes(
            CODE_TRUE if label is Permanence.PERM_TRUE
            else CODE_FALSE if label is Permanence.PERM_FALSE
            else CODE_PRESUMABLY_TRUE if s in accepting
            else CODE_PRESUMABLY_FALSE
            for s, label in enumerate(permanence)
        )

    # Structural identity ignores debug labels and the derived run tables.
    def __eq__(self, other) -> bool:
        if not isinstance(other, Dfa):
            return NotImplemented
        return (
            self.props == other.props
            and self.initial == other.initial
            and self.accepting == other.accepting
            and self.transitions == other.transitions
            and self.permanence == other.permanence
        )

    def __hash__(self) -> int:
        return hash((self.props, self.initial, self.accepting, self.transitions))

    def __repr__(self) -> str:
        return (
            f"Dfa(states={self.num_states}, props={list(self.props)}, "
            f"accepting={sorted(self.accepting)})"
        )

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    @property
    def alphabet_size(self) -> int:
        return 1 << len(self.props)

    def mask_of(self, valuation: Iterable[str]) -> int:
        """Bitmask of a valuation projected onto this automaton's basis."""
        if not isinstance(valuation, (set, frozenset)):
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

    def run(self, masks: Sequence[int]) -> tuple[bytes, int]:
        """Verdict code after each step, and the state the run ended in.

        The run stops at the first permanent verdict, which every later step
        repeats; the state returned is then the one reached there, whose
        acceptance every continuation shares.
        """
        successors = self.successors
        verdict_codes = self.verdict_codes
        width = self.alphabet_size
        permanent_below = CODE_PRESUMABLY_TRUE
        state = self.initial
        codes = bytearray()
        append = codes.append
        for mask in masks:
            state = successors[state * width + mask]
            code = verdict_codes[state]
            append(code)
            if code < permanent_below:
                codes += bytes((code,)) * (len(masks) - len(codes))
                break
        return bytes(codes), state


# ---------------------------------------------------------------------------
# Canonical residual forms
# ---------------------------------------------------------------------------
#
# A residual obligation is kept as a disjunction of conjunctions whose atoms
# are next-step obligations: ``Next(g)`` or ``WeakNext(g)`` with ``g`` drawn
# from the NNF subformula closure. Residuals are monotone in these atoms, so
# pruning subsumed conjunctions leaves the unique minimal set of implicants;
# that set (of frozensets) is the canonical state key. Atoms come from a
# finite closure and antichains over a finite set are finite, so the state
# space is finite and construction terminates.

_Dnf = frozenset  # frozenset[frozenset[Formula]]

_DNF_TRUE: _Dnf = frozenset({frozenset()})
_DNF_FALSE: _Dnf = frozenset()


def _dnf_prune(terms: set[frozenset]) -> _Dnf:
    # Absorption: a term strictly containing another is redundant.
    return frozenset(t for t in terms if not any(o < t for o in terms))


def _dnf_or(a: _Dnf, b: _Dnf) -> _Dnf:
    if a is _DNF_TRUE or b is _DNF_TRUE:
        return _DNF_TRUE
    return _dnf_prune(set(a) | set(b))


def _dnf_and(a: _Dnf, b: _Dnf) -> _Dnf:
    if not a or not b:
        return _DNF_FALSE
    return _dnf_prune({s | t for s in a for t in b})


def _progress(f: Formula, valuation: frozenset[str], cache: dict) -> _Dnf:
    """One-step derivative of an NNF obligation against a valuation, as a
    canonical disjunction of conjunctions of next-step obligations."""
    key = (id(f), valuation)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if isinstance(f, TrueFormula):
        result = _DNF_TRUE
    elif isinstance(f, FalseFormula):
        result = _DNF_FALSE
    elif isinstance(f, Prop):
        result = _DNF_TRUE if f.name in valuation else _DNF_FALSE
    elif isinstance(f, Not):
        if not isinstance(f.operand, Prop):
            raise ValueError("progression requires negation normal form")
        result = _DNF_FALSE if f.operand.name in valuation else _DNF_TRUE
    elif isinstance(f, And):
        result = _dnf_and(
            _progress(f.left, valuation, cache), _progress(f.right, valuation, cache)
        )
    elif isinstance(f, Or):
        result = _dnf_or(
            _progress(f.left, valuation, cache), _progress(f.right, valuation, cache)
        )
    elif isinstance(f, (Next, WeakNext)):
        result = frozenset({frozenset({f})})
    elif isinstance(f, Until):
        result = _dnf_or(
            _progress(f.right, valuation, cache),
            _dnf_and(_progress(f.left, valuation, cache), frozenset({frozenset({Next(f)})})),
        )
    elif isinstance(f, Release):
        result = _dnf_and(
            _progress(f.right, valuation, cache),
            _dnf_or(_progress(f.left, valuation, cache), frozenset({frozenset({WeakNext(f)})})),
        )
    elif isinstance(f, Eventually):
        result = _dnf_or(
            _progress(f.operand, valuation, cache), frozenset({frozenset({Next(f)})})
        )
    elif isinstance(f, Always):
        result = _dnf_and(
            _progress(f.operand, valuation, cache), frozenset({frozenset({WeakNext(f)})})
        )
    else:
        raise TypeError(f"not a formula: {f!r}")
    cache[key] = result
    return result


def _dnf_step(state: _Dnf, valuation: frozenset[str], cache: dict) -> _Dnf:
    """Progress a whole residual: each atom's wrapped obligation is consumed
    against the valuation (the wrapper itself is moot once a next step
    exists), recombined along the residual's own and/or structure."""
    result = _DNF_FALSE
    for term in state:
        term_dnf = _DNF_TRUE
        for atom in term:
            term_dnf = _dnf_and(term_dnf, _progress(atom.operand, valuation, cache))
            if not term_dnf:
                break
        result = _dnf_or(result, term_dnf)
    return result


def _dnf_accepts_if_trace_ends(state: _Dnf) -> bool:
    """Truth of a residual when no further step arrives: strong next
    obligations fail, weak ones are vacuously met."""
    return any(all(isinstance(atom, WeakNext) for atom in term) for term in state)


def _dnf_label(state: _Dnf) -> str:
    if state == _DNF_TRUE:
        return "true"
    if state == _DNF_FALSE:
        return "false"
    rendered = []
    for term in state:
        parts = sorted(format_formula(atom) for atom in term)
        text = " & ".join(parts)
        rendered.append(f"({text})" if len(parts) > 1 and len(state) > 1 else text)
    return " | ".join(sorted(rendered))


def _empty_suffix_value(f: Formula) -> bool:
    """Truth of an arbitrary formula on the empty suffix, used only for the
    initial state: position-quantified operators with nothing to range over
    (``F``, ``U``, strong next, bare propositions) are false; their universal
    duals (``G``, ``R``, weak next) are vacuously true."""
    if isinstance(f, TrueFormula):
        return True
    if isinstance(f, (FalseFormula, Prop)):
        return False
    if isinstance(f, Not):
        return not _empty_suffix_value(f.operand)
    if isinstance(f, And):
        return _empty_suffix_value(f.left) and _empty_suffix_value(f.right)
    if isinstance(f, Or):
        return _empty_suffix_value(f.left) or _empty_suffix_value(f.right)
    if isinstance(f, Implies):
        return not _empty_suffix_value(f.left) or _empty_suffix_value(f.right)
    if isinstance(f, (Next, Until, Eventually)):
        return False
    if isinstance(f, (WeakNext, Release, Always)):
        return True
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Compilation, classification, minimization
# ---------------------------------------------------------------------------


def compile_formula(f: Formula) -> Dfa:
    """Compile a formula into its canonical minimized DFA.

    For every nonempty trace over the formula's propositions the automaton
    accepts exactly when :func:`safetrace.formulas.evaluate` holds at
    position 0. Raises :class:`AlphabetTooLargeError` beyond
    :data:`MAX_PROPOSITIONS` propositions.
    """
    names = sorted(propositions(f))
    if len(names) > MAX_PROPOSITIONS:
        raise AlphabetTooLargeError(
            f"formula uses {len(names)} propositions (cap {MAX_PROPOSITIONS}): "
            + format_formula(f)
        )
    width = 1 << len(names)
    valuations = [
        frozenset(names[b] for b in range(len(names)) if mask >> b & 1)
        for mask in range(width)
    ]

    root = to_nnf(f)
    # The initial residual wraps the whole formula; its acceptance flag is
    # the formula's value on the empty suffix, queried only internally.
    start = (frozenset({frozenset({WeakNext(root)})}), _empty_suffix_value(root))
    index: dict[tuple[_Dnf, bool], int] = {start: 0}
    order: list[tuple[_Dnf, bool]] = [start]
    labels: list[str] = [format_formula(f)]
    rows: list[list[int]] = []
    cache: dict = {}
    at = 0
    while at < len(order):
        residual, _ = order[at]
        at += 1
        row = []
        for valuation in valuations:
            successor = _dnf_step(residual, valuation, cache)
            key = (successor, _dnf_accepts_if_trace_ends(successor))
            target = index.get(key)
            if target is None:
                target = len(order)
                index[key] = target
                order.append(key)
                labels.append(_dnf_label(successor))
            row.append(target)
        rows.append(row)

    raw = Dfa(
        names,
        0,
        frozenset(i for i, (_, acc) in enumerate(order) if acc),
        rows,
        state_labels=labels,
    )
    return minimize(raw)


def _compute_permanence(
    transitions: tuple[tuple[int, ...], ...], accepting: frozenset[int]
) -> tuple[Permanence, ...]:
    n = len(transitions)
    reverse: list[list[int]] = [[] for _ in range(n)]
    for s, row in enumerate(transitions):
        for target in row:
            reverse[target].append(s)

    def backward_closure(seeds: Iterable[int]) -> set[int]:
        seen = set(seeds)
        queue = deque(seen)
        while queue:
            s = queue.popleft()
            for prev in reverse[s]:
                if prev not in seen:
                    seen.add(prev)
                    queue.append(prev)
        return seen

    reaches_rejecting = backward_closure(s for s in range(n) if s not in accepting)
    reaches_accepting = backward_closure(accepting)
    labels = []
    for s in range(n):
        if s not in reaches_rejecting:
            labels.append(Permanence.PERM_TRUE)
        elif s not in reaches_accepting:
            labels.append(Permanence.PERM_FALSE)
        else:
            labels.append(Permanence.UNDETERMINED)
    return tuple(labels)


def minimize(d: Dfa) -> Dfa:
    """Canonical minimal automaton: unreachable states removed, behaviorally
    indistinguishable states merged (partition refinement), states renumbered
    breadth-first from the initial state with symbols in ascending bitmask
    order, permanence recomputed."""
    width = d.alphabet_size
    transitions = d.transitions

    reachable: list[int] = [d.initial]
    seen = {d.initial}
    at = 0
    while at < len(reachable):
        s = reachable[at]
        at += 1
        for target in transitions[s]:
            if target not in seen:
                seen.add(target)
                reachable.append(target)

    # Moore refinement: split classes until transition signatures stabilize.
    cls = {s: (1 if s in d.accepting else 0) for s in reachable}
    count = len(set(cls.values()))
    while True:
        signatures: dict[tuple, int] = {}
        new_cls = {}
        for s in reachable:
            key = (cls[s], tuple(cls[transitions[s][m]] for m in range(width)))
            group = signatures.setdefault(key, len(signatures))
            new_cls[s] = group
        cls = new_cls
        if len(signatures) == count:
            break
        count = len(signatures)

    # Renumber classes breadth-first; the first reachable member represents
    # its class (sound: refinement makes class transitions uniform).
    start = cls[d.initial]
    class_order = [start]
    class_index = {start: 0}
    representative = {start: d.initial}
    rows = []
    at = 0
    while at < len(class_order):
        c = class_order[at]
        at += 1
        rep = representative[c]
        row = []
        for m in range(width):
            target_class = cls[transitions[rep][m]]
            j = class_index.get(target_class)
            if j is None:
                j = len(class_order)
                class_index[target_class] = j
                representative[target_class] = transitions[rep][m]
                class_order.append(target_class)
            row.append(j)
        rows.append(row)

    accepting = frozenset(
        class_index[c] for c in class_order if representative[c] in d.accepting
    )
    labels = None
    if d.state_labels is not None:
        labels = [d.state_labels[representative[c]] for c in class_order]
    return Dfa(d.props, 0, accepting, rows, state_labels=labels)


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
    for s in range(d.num_states):
        shape = "doublecircle" if s in d.accepting else "circle"
        label = f"q{s}"
        if d.state_labels is not None:
            escaped = d.state_labels[s].replace("\\", "\\\\").replace('"', '\\"')
            label += "\\n" + escaped
        label += "\\n" + d.permanence[s].value
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
