"""Independent brute-force reference implementations.

Nothing here shares logic with the package's search, reduction or compiler
code: the isomorphism oracle tries every state bijection against every
function bijection with no pruning, no induced mapping, no ordering tricks,
the embedding oracle tries every subset and bijection on raw tables with no
invariants, the state-reduction and sub-machine oracles filter and re-index
raw tables by hand, the compiler oracles step every compiled state through
the direct interpreters ``simulate_tm`` and ``mem_step`` instead of the
compilers' index arithmetic, and the expression oracle is the package's earlier
recursive-descent evaluator, kept verbatim as the reference for the
iterative one.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Optional

from machalg import (
    ERROR_LABEL,
    Beth,
    BoundaryPolicy,
    Cardinal,
    Finite,
    Machine,
    MemProgram,
    MemState,
    MemStateCodec,
    ParseError,
    StateSet,
    TmConfiguration,
    TmStateCodec,
    TransitionFunction,
    TuringSpec,
    card_add,
    card_mul,
    card_pow,
    mem_step,
    simulate_tm,
)
from machalg.cardinal import Trace


def brute_force_isomorphism(
    a: Machine, b: Machine
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """First (g, h) pair making every square commute, or None."""
    if a.n_states != b.n_states or a.n_functions != b.n_functions:
        return None
    n = a.n_states
    k = a.n_functions
    a_tabs = [f.table for f in a.functions]
    b_tabs = [f.table for f in b.functions]
    for g in itertools.permutations(range(n)):
        for h in itertools.permutations(range(k)):
            if all(
                g[a_tabs[j][s]] == b_tabs[h[j]][g[s]]
                for j in range(k)
                for s in range(n)
            ):
                return g, h
    return None


def brute_force_state_reduction(m: Machine, labels) -> Optional[Machine]:
    """State reduction of ``m`` to ``labels`` from raw tables, or None.

    Keeps each table ``t`` with ``t[i]`` in the subset for every ``i`` in
    it, re-indexes it onto the subset in the given order, then dedupes and
    sorts.  None stands for the empty result the library refuses.
    """
    positions = [m.states.labels.index(s) for s in labels]
    tables = set()
    for f in m.functions:
        t = f.table
        if all(t[i] in positions for i in positions):
            tables.add(tuple(positions.index(t[i]) for i in positions))
    if not tables:
        return None
    sub = StateSet(tuple(labels))
    return Machine(
        sub, tuple(TransitionFunction(sub, t) for t in sorted(tables))
    )


def brute_force_sub_machine(a: Machine, b: Machine) -> Optional[tuple[int, ...]]:
    """``kept_functions`` of the canonical witness that ``b`` is a
    sub-machine of ``a`` with literal labels, from raw tables, or None.

    Keeps every a-table whose restriction to b's labels (in b's order) is a
    b-table; None when some b-label is not a's or some b-table is never
    reached.
    """
    if not all(s in a.states.labels for s in b.states.labels):
        return None
    positions = [a.states.labels.index(s) for s in b.states.labels]
    b_tabs = {f.table for f in b.functions}
    kept, reached = [], set()
    for j, f in enumerate(a.functions):
        t = f.table
        if all(t[i] in positions for i in positions):
            r = tuple(positions.index(t[i]) for i in positions)
            if r in b_tabs:
                kept.append(j)
                reached.add(r)
    return tuple(kept) if reached == b_tabs else None


def brute_force_compile_tm(t: TuringSpec) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Labels and step table of ``t``'s compiled machine, state by state.

    Enumerates every (register, tape, head) in declaration order, runs
    ``simulate_tm`` one step from each and encodes the result with
    ``TmStateCodec``: a state that halts where it stands maps to itself, a
    rejected boundary move to ``ERROR_LABEL``, which the reject policy
    appends as an absorbing last state.
    """
    codec = TmStateCodec(t.symbols, t.registers, t.cells)
    configurations = [
        TmConfiguration(r, tape, h)
        for r in t.registers
        for tape in itertools.product(t.symbols, repeat=t.cells)
        for h in range(t.cells)
    ]
    labels = [codec.encode(c) for c in configurations]
    targets = []
    for c in configurations:
        trace = simulate_tm(dataclasses.replace(t, initial=c), 1)
        if trace.steps:  # "step-limit", or "halted" one step later
            targets.append(codec.encode(trace.configurations[1]))
        elif trace.outcome == "boundary-error":
            targets.append(ERROR_LABEL)
        else:  # halted where it stands
            targets.append(codec.encode(c))
    if t.boundary_policy is BoundaryPolicy.REJECT:
        labels.append(ERROR_LABEL)
        targets.append(ERROR_LABEL)
    position = {label: i for i, label in enumerate(labels)}
    return tuple(labels), tuple(position[label] for label in targets)


def brute_force_compile_mem(p: MemProgram) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Labels and step table of ``p``'s aggregate machine, state by state.

    Enumerates every (cells, selector, family) as a MemState in declaration
    order, steps each with ``mem_step`` and encodes the result with
    ``MemStateCodec``.  Raises whatever ``mem_step`` raises.
    """
    selectors = {p.initial_selector}
    for entries in p.functions:
        for e in entries:
            selectors.update((e.read_cells, e.next_read_cells))
    selectors = tuple(sorted(selectors))
    codec = MemStateCodec(p.n_cells, p.alphabet, selectors)
    aggregate = [
        MemState(cells, sel, fn)
        for cells in itertools.product(p.alphabet, repeat=p.n_cells)
        for sel in selectors
        for fn in range(len(p.functions))
    ]
    labels = tuple(codec.encode(s) for s in aggregate)
    position = {label: i for i, label in enumerate(labels)}
    table = tuple(position[codec.encode(mem_step(p, s))] for s in aggregate)
    return labels, table


def brute_force_embedding(
    a: Machine, b: Machine
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """First (subset, g) embedding ``b`` into a sub-machine of ``a``, or None.

    Subsets of a's state indices come in ``combinations`` order, then each
    ``g`` (b-state to position in the subset) in ``permutations`` order.
    The pair is accepted when every b-table, conjugated through ``g``, is
    the restriction to the subset of some a-table that maps the subset
    into itself.
    """
    n_b = b.n_states
    a_tabs = [f.table for f in a.functions]
    b_tabs = [f.table for f in b.functions]
    for subset in itertools.combinations(range(a.n_states), n_b):
        restrictions = set()
        for t in a_tabs:
            if all(t[i] in subset for i in subset):
                restrictions.add(tuple(subset.index(t[i]) for i in subset))
        for g in itertools.permutations(range(n_b)):
            conjugates = []
            for t in b_tabs:
                conj = [None] * n_b
                for s in range(n_b):
                    conj[g[s]] = g[t[s]]
                conjugates.append(tuple(conj))
            if all(c in restrictions for c in conjugates):
                return subset, g
    return None


# ---------------------------------------------------------------------------
# Reference expression evaluator: recursive descent, evaluating as it parses
# ---------------------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, object, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if "0" <= ch <= "9":
                j = i
                while j < len(text) and "0" <= text[j] <= "9":
                    j += 1
                try:
                    self.tokens.append(("int", int(text[i:j]), i))
                except ValueError:
                    raise _expr_error(f"{j - i}-digit number is too long", i) from None
                i = j
                continue
            if text.startswith("beth", i):
                self.tokens.append(("beth", None, i))
                i += 4
                continue
            if ch in "+*^()":
                self.tokens.append((ch, None, i))
                i += 1
                continue
            raise _expr_error(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", None, len(text)))

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok


def _expr_error(message: str, column: int):
    return ParseError(message, line=1, column=column + 1)


class _ExprParser:
    """Recursive descent over: sum -> product -> power -> atom.

    ``^`` binds tightest and associates to the right; ``+`` and ``*`` are
    left-associative.  Evaluation happens during the parse, feeding the trace.
    """

    def __init__(self, text: str, trace: Optional[Trace] = None):
        self.toks = _Tokenizer(text)
        self.trace = trace

    def parse(self) -> Cardinal:
        value = self._sum()
        kind, _, pos = self.toks.peek()
        if kind != "end":
            raise _expr_error(f"unexpected token {kind!r}", pos)
        return value

    def _sum(self) -> Cardinal:
        value = self._product()
        while self.toks.peek()[0] == "+":
            self.toks.next()
            value = card_add(value, self._product(), self.trace)
        return value

    def _product(self) -> Cardinal:
        value = self._power()
        while self.toks.peek()[0] == "*":
            self.toks.next()
            value = card_mul(value, self._power(), self.trace)
        return value

    def _power(self) -> Cardinal:
        base = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            return card_pow(base, self._power(), self.trace)
        return base

    def _atom(self) -> Cardinal:
        kind, value, pos = self.toks.next()
        if kind == "int":
            return Finite(value)
        if kind == "beth":
            k, _, p = self.toks.next()
            if k != "(":
                raise _expr_error("expected '(' after beth", p)
            k, idx, p = self.toks.next()
            if k != "int":
                raise _expr_error("expected a non-negative integer index in beth(...)", p)
            k, _, p = self.toks.next()
            if k != ")":
                raise _expr_error("expected ')' closing beth(...)", p)
            return Beth(idx)
        if kind == "(":
            inner = self._sum()
            k, _, p = self.toks.next()
            if k != ")":
                raise _expr_error("expected ')'", p)
            return inner
        raise _expr_error(f"expected a value, got {kind!r}", pos)


def reference_evaluate_expression(text: str, trace: Optional[Trace] = None) -> Cardinal:
    """The recursive-descent evaluator; recursion depth grows with nesting."""
    return _ExprParser(text, trace).parse()
