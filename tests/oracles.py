"""Independent brute-force reference implementations.

Nothing here shares logic with the package's search, reduction or compiler
code: the isomorphism oracle tries every state bijection against every
function bijection with no pruning, no induced mapping, no ordering tricks,
the embedding oracle tries every subset and bijection on raw tables with no
invariants, the state-reduction and sub-machine oracles filter and re-index
raw tables by hand, the compiler oracles step every compiled state through
the direct interpreters ``reference_simulate_tm`` and ``mem_step`` instead of
the compilers' index arithmetic, and the expression oracle is the package's earlier
recursive-descent evaluator, kept verbatim as the reference for the
iterative one.  The tape-machine interpreter is the package's earlier
``simulate_tm``, which tests each configuration for a halt before it
applies a rule, kept verbatim as the reference for the one-stepper walk.
The lockstep oracle is the package's earlier
``verify_lockstep``, which counts verified steps as it goes and builds its
report at each exit, kept verbatim as the reference for the one-report walk;
it reads the whole trace of ``reference_simulate_tm`` before it checks.
Likewise the ``.mx`` oracle is the earlier parser that reads each token and
clause on its own, kept verbatim as the reference for the bulk checks of
``parse_machine`` but for its columns, which it finds by
matching tokens and clauses with regular expressions.  The enumerated
full and bijection machines list every table, as ``full_machine`` and
``full_bijection_machine`` did before they computed tables on demand.  The
decomposition oracle finds a self-map's cycles by iterating the map from
each state, with no peeling.  The equitable-partition oracle refines the
disjoint union of two machines by sorted tuples of neighbour colours, with
no hashed weights, no splitter queue and no round cap.  The certificate
checker applies a certificate's keeps by definition on raw tables and
labels, then checks the morphism equations, with no call into the package
beyond reading machines.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
from typing import Iterator, Optional

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
)
from machalg.cardinal import Trace
from machalg.machine import _assemble
from machalg.models import _HEAD_SHIFT, LockstepReport, TmTrace, _pos, _reg, _sym


def enumerated_full_machine(state_set: StateSet) -> Machine:
    """The machine holding all ``n**n`` tables on ``state_set``, listed."""
    return Machine(state_set, tuple(itertools.product(range(len(state_set)), repeat=len(state_set))))


def enumerated_full_bijection_machine(state_set: StateSet) -> Machine:
    """The machine holding all ``n!`` bijections on ``state_set``, listed."""
    return Machine(state_set, tuple(itertools.permutations(range(len(state_set)))))


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


def brute_force_decomposition(
    table: tuple[int, ...]
) -> tuple[list[int], list[bool], list[list[int]]]:
    """(indegrees, on-cycle flags, cycles) of one self-map, by definition.

    Indegrees are counted; s lies on a cycle iff f^m(s) = s for some
    1 <= m <= n; each cycle is its orbit listed from its least state, and
    the cycles are sorted by that state.
    """
    n = len(table)
    indeg = [sum(1 for t in table if t == s) for s in range(n)]
    cyclic = []
    for s in range(n):
        t, returns = s, False
        for _ in range(n):
            t = table[t]
            returns = returns or t == s
        cyclic.append(returns)
    rings = set()
    for s in range(n):
        if cyclic[s]:
            orbit, t = {s}, table[s]
            while t != s:
                orbit.add(t)
                t = table[t]
            ring = [min(orbit)]
            while len(ring) < len(orbit):
                ring.append(table[ring[-1]])
            rings.add(tuple(ring))
    return indeg, cyclic, [list(r) for r in sorted(rings)]


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


def reference_sub_machine(
    a: Machine, kept_functions, kept_states
) -> Optional[tuple[tuple[str, ...], list[tuple[int, ...]]]]:
    """(labels, sorted tables) of the sub-machine of ``a`` that the keeps
    name, from raw tables, or None where the keeps name none.

    Functional, then state: the kept indices (repeats collapse) must be
    ``a``'s, the kept labels ``a``'s and distinct, both non-empty; the
    result holds the restriction of each kept table that maps the kept
    states into themselves, re-indexed in the given label order, with
    duplicates collapsed, and at least one of them.
    """
    labels, count = list(a.states.labels), len(a.tables)
    if not kept_functions or not all(0 <= i < count for i in kept_functions):
        return None
    if not kept_states or len(set(kept_states)) != len(kept_states):
        return None
    if not all(s in labels for s in kept_states):
        return None
    positions = [labels.index(s) for s in kept_states]
    restricted = set()
    for t in {a.tables[i] for i in kept_functions}:
        if all(t[p] in positions for p in positions):
            restricted.add(tuple(positions.index(t[p]) for p in positions))
    if not restricted:
        return None
    return tuple(kept_states), sorted(restricted)


def _commutes(src: list, dst: list, g, h) -> bool:
    """g is a bijection of states and h of functions, from the tables
    ``src`` to the tables ``dst``, with g(f(s)) = h(f)(g(s)) throughout."""
    n, k = len(src[0]), len(src)
    if len(dst[0]) != n or len(dst) != k:
        return False
    if sorted(g) != list(range(n)) or sorted(h) != list(range(k)):
        return False
    return all(g[f[s]] == dst[h[j]][g[s]] for j, f in enumerate(src) for s in range(n))


def reference_verify(kind: str, a: Machine, b: Machine, fields: dict) -> bool:
    """Whether a certificate of ``kind`` whose ``fields`` (``g``, ``h``,
    ``kept_functions``, ``kept_states``) are given holds for ``a`` and ``b``.

    ``iso`` maps ``a`` onto ``b``; ``complete`` maps ``b`` onto the
    sub-machine of ``a`` that its keeps name; for ``submachine`` that
    sub-machine is ``b``, labels in order included.
    """
    if kind == "iso":
        return _commutes(list(a.tables), list(b.tables), fields["g"], fields["h"])
    sub = reference_sub_machine(a, fields["kept_functions"], fields["kept_states"])
    if sub is None:
        return False
    labels, tables = sub
    if kind == "complete":
        return _commutes(list(b.tables), tables, fields["g"], fields["h"])
    return labels == tuple(b.states.labels) and tables == list(b.tables)


def _tm_halts_at(t: TuringSpec, c: TmConfiguration) -> bool:
    return c.register in t.halting or (c.register, c.tape[c.head]) not in t.rules


def reference_simulate_tm(t: TuringSpec, max_steps: int) -> TmTrace:
    """Direct rule interpretation; the oracle that compile_tm must match."""
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    configs = [t.initial]
    while True:
        c = configs[-1]
        if _tm_halts_at(t, c):
            return TmTrace(tuple(configs), "halted")
        if len(configs) == max_steps + 1:
            return TmTrace(tuple(configs), "step-limit")
        r2, s2, mv = t.rules[(c.register, c.tape[c.head])]
        tape = list(c.tape)
        tape[c.head] = s2
        head = c.head + _HEAD_SHIFT[mv]
        if not 0 <= head < t.cells:
            if t.boundary_policy is BoundaryPolicy.CLAMP:
                head = c.head
            else:
                return TmTrace(tuple(configs), "boundary-error")
        configs.append(TmConfiguration(r2, tuple(tape), head))


def brute_force_compile_tm(t: TuringSpec) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Labels and step table of ``t``'s compiled machine, state by state.

    Enumerates every (register, tape, head) in declaration order, runs
    ``reference_simulate_tm`` one step from each and encodes the result with
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
        trace = reference_simulate_tm(dataclasses.replace(t, initial=c), 1)
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


def reference_lockstep(t: TuringSpec, p: MemProgram, steps: int) -> LockstepReport:
    """Check tape<->cells, register<->cell n, head<->cell n+1 every step.

    Follows the Turing trace for at most ``steps`` transitions, advancing
    the program in lockstep.  After a halt the program must sit on a fixed
    point; after a rejected boundary move it must show pos.err in the
    address cell one step later.
    """
    n = t.cells
    trace = reference_simulate_tm(t, steps)
    if p.n_cells < n + 2:
        detail = f"program has {p.n_cells} cell(s), the tape machine needs {n + 2}"
        return LockstepReport(0, (0, detail), trace.outcome)
    state = p.initial_state
    verified = 0
    for i, c in enumerate(trace.configurations):
        want = (
            tuple(_sym(s) for s in c.tape),
            _reg(c.register),
            _pos(c.head),
        )
        got = (state.cells[:n], state.cells[n], state.cells[n + 1])
        if got != want:
            return LockstepReport(
                verified,
                (i, f"expected {want}, program shows {got}"),
                trace.outcome,
            )
        if i > 0:
            verified += 1
        if i + 1 < len(trace.configurations):
            state = mem_step(p, state)
    if trace.outcome == "halted":
        nxt = mem_step(p, state)
        if nxt != state:
            return LockstepReport(
                verified,
                (len(trace.configurations) - 1, "machine halted but program still moves"),
                trace.outcome,
            )
    elif trace.outcome == "boundary-error":
        state = mem_step(p, state)
        if state.cells[n + 1] != _pos("err"):
            return LockstepReport(
                verified,
                (
                    len(trace.configurations) - 1,
                    "rejected boundary move not mirrored by pos.err",
                ),
                trace.outcome,
            )
        verified += 1
    return LockstepReport(verified, None, trace.outcome)


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


def reference_equitable_partition(a: Machine, b: Machine) -> list[int]:
    """Colour per state of a ⊔ b (a's states first, then b's) in the coarsest
    equitable partition below the per-state signatures, by exact colour refinement.

    A state's signature is the sorted tuple, over the functions, of (indegree,
    fixes, lies on a cycle), from :func:`brute_force_decomposition`.  Each round
    recolours a state by its colour and the sorted tuples of its out- and
    in-neighbours' colours, function j of ``a`` beside function j of ``b``, and
    rounds run until one adds no colour.  Needs equal state and function counts.
    """
    n = a.n_states
    union = [list(ta) + [n + u for u in tb] for ta, tb in zip(a.tables, b.tables)]
    flags = [[], []]
    for side, m in enumerate((a, b)):
        for t in m.tables:
            indeg, cyclic, _ = brute_force_decomposition(t)
            flags[side].append([(indeg[s], t[s] == s, cyclic[s]) for s in range(n)])
    keys = [tuple(sorted(f[s] for f in side)) for side in flags for s in range(n)]
    while True:
        order = sorted(set(keys))
        colour = [order.index(k) for k in keys]
        inn = [[] for _ in colour]
        for t in union:
            for s, u in enumerate(t):
                inn[u].append(colour[s])
        keys = [
            (colour[s], tuple(sorted(colour[t[s]] for t in union)), tuple(sorted(inn[s])))
            for s in range(2 * n)
        ]
        if len(set(keys)) == len(order):
            return colour


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


# ---------------------------------------------------------------------------
# Reference .mx parser: the per-token, per-clause reader, with its helpers
# ---------------------------------------------------------------------------
#
# It has no ``functions`` line; everything else it answers exactly as
# ``parse_machine`` must.


def _significant_lines(text: str) -> list[tuple[int, str, list[str]]]:
    """(line number, raw line, tokens) for every non-blank non-comment line."""
    rows = []
    for i, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        if body.strip():
            rows.append((i, raw, body.split()))
    return rows


def _col(raw: str, k: int) -> int:
    """Column of the k-th (from 0) whitespace-separated token of ``raw``."""
    return [m.start() for m in re.finditer(r"\S+", raw)][k] + 1


def _directives(text: str, kind: str, once: tuple, many: tuple) -> Iterator[tuple[int, str, list]]:
    """(line number, raw line, tokens) for every significant line of a
    ``<kind> <name>`` format, after the rules all such formats share: the
    input is not empty, every head is in ``once`` or ``many``, the first line
    is the header, which has exactly one name, and no head in ``once`` (the
    header among them) comes twice."""
    rows = _significant_lines(text)
    if not rows:
        raise ParseError(f"empty input; expected '{kind} <name>'", 1)
    seen = set()
    for lineno, raw, tokens in rows:
        head = tokens[0]
        if head not in once and head not in many:
            raise ParseError(f"unknown directive {head!r}", lineno, _col(raw, 0))
        if lineno == rows[0][0] and head != kind:
            raise ParseError(f"'{kind} <name>' must come first", lineno, 1)
        if head in once:
            if head in seen:
                raise ParseError(f"second {head!r} line", lineno, _col(raw, 0))
            seen.add(head)
        if head == kind and len(tokens) != 2:
            raise ParseError(f"expected '{kind} <name>'", lineno, 1)
        yield lineno, raw, tokens


def _require(lineno: int, *needed: tuple[str, object]) -> None:
    """Raise ``missing <what>`` at ``lineno`` for the first ``(what, value)``
    whose value is None.  The parsers call it after their loop over
    :func:`_directives`, so ``lineno`` is the last significant line."""
    for what, value in needed:
        if value is None:
            raise ParseError(f"missing {what}", lineno)


def _is_mx_token(token: str | None) -> bool:
    """True when ``token`` can stand as a name or state in ``.mx`` text: it is
    non-empty, has no whitespace, and contains none of , : -> #."""
    return bool(token) and token.split() == [token] and not any(
        bad in token for bad in (",", ":", "->", "#")
    )


def _check_mx_token(token: str, what: str, lineno: int, raw: str, k: int) -> None:
    if not _is_mx_token(token):
        raise ParseError(
            f"{what} {token!r} may not contain any of , : -> #",
            lineno,
            _col(raw, k),
        )



def reference_parse_machine(text: str) -> Machine:
    """Read the ``machine`` block format.

    Rejects missing clauses (every function must cover every state),
    unknown state names, and duplicate states, functions, or clauses.
    """
    name = None
    state_set = None
    fn_names: dict[str, tuple[int, ...]] = {}

    once = ("machine", "states")
    for lineno, raw, tokens in _directives(text, "machine", once, ("fn",)):
        head = tokens[0]
        if head == "machine":
            name = tokens[1]
            _check_mx_token(name, "machine name", lineno, raw, 1)
        elif head == "states":
            if len(tokens) < 2:
                raise ParseError("'states' needs at least one state", lineno, 1)
            seen = set()
            for k, s in enumerate(tokens[1:], 1):
                _check_mx_token(s, "state", lineno, raw, k)
                if s in seen:
                    raise ParseError(f"duplicate state {s!r}", lineno, _col(raw, k))
                seen.add(s)
            state_set = StateSet(tuple(tokens[1:]))
        elif head == "fn":
            if state_set is None:
                raise ParseError("'states' must come before 'fn'", lineno, 1)
            body = raw.split("#", 1)[0]
            header, sep, rest = body.partition(":")
            if not sep:
                raise ParseError("fn line needs 'fn <name>: <clauses>'", lineno, 1)
            htokens = header.split()
            if len(htokens) != 2:
                raise ParseError("fn line needs exactly one name", lineno, 1)
            fname = htokens[1]
            _check_mx_token(fname, "function name", lineno, raw, 1)
            if fname in fn_names:
                raise ParseError(f"duplicate function name {fname!r}", lineno, _col(raw, 1))
            mapping: dict[str, str] = {}
            # Each chunk between commas after the colon, with where it starts.
            chunks = re.finditer(r"(?:^|,)([^,]*)", rest)
            for chunk, at in ((m.group(1), len(header) + 1 + m.start(1)) for m in chunks):
                clause = chunk.strip()
                lead = len(re.match(r"\s*", chunk).group())
                if not clause:
                    raise ParseError("empty clause", lineno, at + 1 if chunk else 1)
                parts = clause.split("->")
                if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                    raise ParseError(
                        f"clause {clause!r} must read 'state->state'",
                        lineno,
                        at + lead + 1,
                    )
                src, dst = parts[0].strip(), parts[1].strip()
                arrow = at + lead + len(parts[0]) + 2
                dst_at = arrow + len(re.match(r"\s*", parts[1]).group())
                for tok, col in ((src, at + lead + 1), (dst, dst_at + 1)):
                    if tok not in state_set:
                        raise ParseError(f"unknown state {tok!r}", lineno, col)
                if src in mapping:
                    raise ParseError(f"duplicate clause for state {src!r}", lineno, at + lead + 1)
                mapping[src] = dst
            missing = [s for s in state_set.labels if s not in mapping]
            if missing:
                raise ParseError(
                    f"fn {fname!r} missing clauses for: {' '.join(missing)}", lineno, 1
                )
            table = tuple(state_set.index(mapping[s]) for s in state_set.labels)
            fn_names[fname] = table

    _require(lineno, ("'states' line", state_set))
    if not fn_names:
        raise ParseError("a machine needs at least one fn", lineno)
    return _assemble(state_set, [(t, f) for f, t in fn_names.items()], name)

