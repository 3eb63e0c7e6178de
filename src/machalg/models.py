"""Concrete machine frontends compiled into the abstract normal form.

Two source models: bounded-tape Turing machines and finite memory-cell
programs whose cells both store and process (reads select cells, writes
update them, and the next selector and next rule index travel with the
state).  Both compile to a Machine with a single total step function; both
have direct interpreters that serve as independent oracles; and a Turing
machine can be translated into a memory-cell program whose run tracks the
original step for step, checked by verify_lockstep.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cached_property
from typing import Optional

from .errors import (
    EnumerationTooLargeError,
    InvalidMachineError,
    TotalityViolationError,
    _Value,
)
from .machine import (
    DEFAULT_ENUMERATION_CAP,
    Machine,
    StateSet,
    _assemble,
    _ProductLabels,
)

# Characters reserved by the compiled-state label codecs plus the text
# formats those labels must survive (clause separators, comments, parens).
_TM_RESERVED = set("|.,;:#>()=")
_MEM_RESERVED = set("|,;:#>()=")


def _check_token(token: str, what: str, reserved: set) -> None:
    if not token or any(ch.isspace() for ch in token) or set(token) & reserved:
        raise InvalidMachineError(
            f"{what} {token!r} is empty, has whitespace, or uses a reserved "
            f"character ({''.join(sorted(reserved))})"
        )


class Move(str, Enum):
    LEFT = "L"
    RIGHT = "R"
    STAY = "S"


_HEAD_SHIFT = {Move.LEFT: -1, Move.RIGHT: 1, Move.STAY: 0}


class BoundaryPolicy(str, Enum):
    REJECT = "reject"
    CLAMP = "clamp"


class TmConfiguration(_Value):
    register: str
    tape: tuple[str, ...]
    head: int

    def __init__(self, register, tape, head):
        self._store(register, tape, head)


class TuringSpec(_Value):
    """A Turing machine on a fixed-length tape.

    ``rules`` maps (register, read symbol) to (register, written symbol,
    move).  A halting register never appears on a rule's left side; a
    missing rule means halt in place.  ``boundary_policy`` decides what a
    move off the tape edge does: reject routes to a designated absorbing
    error state, clamp leaves the head at the edge (the write and register
    change still happen).
    """

    symbols: tuple[str, ...]
    registers: tuple[str, ...]
    cells: int
    rules: dict
    halting: frozenset
    boundary_policy: BoundaryPolicy
    initial: TmConfiguration
    name: Optional[str]

    def __init__(self, symbols, registers, cells, rules, halting, boundary_policy, initial, name=None):
        self._store(symbols, registers, cells, dict(rules), halting, boundary_policy, initial, name)
        if not self.symbols or len(set(self.symbols)) != len(self.symbols):
            raise InvalidMachineError("symbols must be non-empty and distinct")
        if not self.registers or len(set(self.registers)) != len(self.registers):
            raise InvalidMachineError("registers must be non-empty and distinct")
        for s in self.symbols:
            _check_token(s, "symbol", _TM_RESERVED)
        for r in self.registers:
            _check_token(r, "register", _TM_RESERVED)
        if self.cells < 1:
            raise InvalidMachineError("the tape needs at least one cell")
        if not self.halting <= set(self.registers):
            raise InvalidMachineError("halting set names unknown registers")
        for (r, s), (r2, s2, mv) in self.rules.items():
            if r not in self.registers or r2 not in self.registers:
                raise InvalidMachineError(f"rule ({r},{s}) references an unknown register")
            if s not in self.symbols or s2 not in self.symbols:
                raise InvalidMachineError(f"rule ({r},{s}) references an unknown symbol")
            if r in self.halting:
                raise InvalidMachineError(
                    f"rule ({r},{s}): halting registers cannot have outgoing rules"
                )
            if not isinstance(mv, Move):
                raise InvalidMachineError(f"rule ({r},{s}) has a bad move {mv!r}")
        c = self.initial
        if len(c.tape) != self.cells:
            raise InvalidMachineError(
                f"initial tape has {len(c.tape)} cells, spec says {self.cells}"
            )
        if any(s not in self.symbols for s in c.tape):
            raise InvalidMachineError("initial tape uses unknown symbols")
        if not 0 <= c.head < self.cells:
            raise InvalidMachineError(f"initial head {c.head} is off the tape")
        if c.register not in self.registers:
            raise InvalidMachineError(f"initial register {c.register!r} is unknown")

    def __hash__(self):  # the rules dict hashes as the set of its items
        symbols, registers, cells, rules, *rest = self._key(self)
        return hash((symbols, registers, cells, frozenset(rules.items()), *rest))

    @property
    def k(self) -> int:
        return len(self.registers)

    @property
    def m(self) -> int:
        return len(self.symbols)

    @property
    def n(self) -> int:
        return self.cells


class TmTrace(_Value):
    """Configuration sequence plus how it ended.

    outcome "halted": the final configuration is a fixed point (halting
    register or no applicable rule).  "boundary-error": the next move would
    leave the tape under the reject policy; the violating step is not taken.
    "step-limit": budget exhausted with the machine still running.
    """

    configurations: tuple[TmConfiguration, ...]
    outcome: str

    def __init__(self, configurations, outcome):
        self._store(configurations, outcome)

    @property
    def steps(self) -> int:
        return len(self.configurations) - 1


def _tm_run(t: TuringSpec, max_steps: int):
    """Yield the configurations of ``t``'s run, at most ``max_steps``
    transitions, then how it ends: "halted" (a halting register or no rule),
    "boundary-error" (the reject policy refuses the move) or "step-limit".
    At the cap a halt wins over the step limit, and the step limit over a
    refused move."""
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    c = t.initial
    for i in itertools.count():
        yield c
        rule = None if c.register in t.halting else t.rules.get((c.register, c.tape[c.head]))
        if rule is None or i == max_steps:
            yield "halted" if rule is None else "step-limit"
            return
        r2, s2, mv = rule
        head = c.head + _HEAD_SHIFT[mv]
        if not 0 <= head < t.cells:
            if t.boundary_policy is BoundaryPolicy.REJECT:
                yield "boundary-error"
                return
            head = c.head
        c = TmConfiguration(r2, c.tape[: c.head] + (s2,) + c.tape[c.head + 1 :], head)


def simulate_tm(t: TuringSpec, max_steps: int) -> TmTrace:
    """Direct rule interpretation; the oracle that compile_tm must match."""
    *configs, outcome = _tm_run(t, max_steps)
    return TmTrace(tuple(configs), outcome)


ERROR_LABEL = "!boundary-error"


class TmStateCodec(_Value):
    """Bijection between compiled state labels and (register, tape, head).

    Labels read ``register|sym.sym...|head``.  Under the reject policy one
    extra absorbing state carries the label in ``error_label`` and encodes
    no configuration.
    """

    symbols: tuple[str, ...]
    registers: tuple[str, ...]
    cells: int
    error_label: Optional[str]

    def __init__(self, symbols, registers, cells, error_label=None):
        self._store(symbols, registers, cells, error_label)

    def encode(self, c: TmConfiguration) -> str:
        return f"{c.register}|{'.'.join(c.tape)}|{c.head}"

    def decode(self, label: str) -> TmConfiguration:
        if label == self.error_label:
            raise InvalidMachineError(f"{label!r} encodes no configuration")
        register, tape, head = label.split("|")
        return TmConfiguration(register, tuple(tape.split(".")), int(head))


def _grid_runs(first: int, inner: int, n_inner: int, outer: int, n_outer: int):
    """Cover first + i*inner + o*outer (i < n_inner, o < n_outer) with the
    fewest strided runs, as (start, stop, step, length) tuples."""
    if n_inner < n_outer:
        inner, n_inner, outer, n_outer = outer, n_outer, inner, n_inner
    for a in range(first, first + n_outer * outer, outer):
        yield a, a + n_inner * inner, inner, n_inner


def compile_tm(t: TuringSpec) -> tuple[Machine, TmStateCodec]:
    """Expand a TuringSpec into a Machine with one step function.

    States are all (register, tape contents, head) triples in declaration
    order (register-major, then tape lexicographic, then head), k*m^n*n of
    them, plus one absorbing error state under the reject policy.  Halting
    registers and missing rules yield fixed points.  The state set decodes
    its ``TmStateCodec`` labels on demand: compiling builds none of them.
    More than DEFAULT_ENUMERATION_CAP states raise EnumerationTooLargeError.
    """
    k, m, n = t.k, t.m, t.n
    reject = t.boundary_policy is BoundaryPolicy.REJECT
    size = k * m**n * n + (1 if reject else 0)
    if size > DEFAULT_ENUMERATION_CAP:
        raise EnumerationTooLargeError("compiled state set", size)

    # State (register r, tape, head h) has index (rank(r)*m^n + rank(tape))*n + h,
    # rank(tape) in base m with cell 0 most significant, as its label's parts rank.
    # Halting registers and missing rules are fixed points.  Cell h holds symbol d
    # on the tape ranks (hi*m + d)*w + lo, w = m^(n-1-h): a rule moves them alike.
    cell, last = (tuple(s + sep for s in t.symbols) for sep in ".|")
    labels = _ProductLabels(
        ([r + "|" for r in t.registers], *[cell] * (n - 1), last, map(str, range(n))),
        (ERROR_LABEL,) if reject else (),
    )
    n_tapes, error_index = m**n, size - 1
    table = [size - 1] * size  # the error state's own entry; the loop writes every other
    reg_rank = {r: i for i, r in enumerate(t.registers)}
    sym_rank = {s: i for i, s in enumerate(t.symbols)}
    for r, s in itertools.product(t.registers, t.symbols):
        r2, s2, mv = t.rules.get((r, s), (r, s, Move.STAY))  # no rule: a fixed point
        d, d2 = sym_rank[s], sym_rank[s2]
        for h in range(n):
            w = m ** (n - 1 - h)
            h2 = h + _HEAD_SHIFT[mv]
            error = reject and not 0 <= h2 < n
            h2 = min(max(h2, 0), n - 1)
            shift = ((reg_rank[r2] - reg_rank[r]) * n_tapes + (d2 - d) * w) * n + h2 - h
            first = (reg_rank[r] * n_tapes + d * w) * n + h
            for a, b, stride, count in _grid_runs(first, n, w, m * w * n, m**h):
                moved = range(a + shift, b + shift, stride)
                table[a:b:stride] = [error_index] * count if error else moved

    codec = TmStateCodec(t.symbols, t.registers, n, ERROR_LABEL if reject else None)
    return _assemble(StateSet(labels), [(tuple(table), "step")], name=t.name), codec


# ---------------------------------------------------------------------------
# Memory-cell programs
# ---------------------------------------------------------------------------


class MemEntry(_Value):
    """One rule of one indexed transition family.

    Applies when the current selector equals ``read_cells`` and those cells
    hold ``read_values``; then ``write_values`` land at ``write_cells``, the
    selector becomes ``next_read_cells``, and control moves to rule family
    ``next_function``.
    """

    read_cells: tuple[int, ...]
    read_values: tuple[str, ...]
    write_cells: tuple[int, ...]
    write_values: tuple[str, ...]
    next_read_cells: tuple[int, ...]
    next_function: int

    def __init__(self, read_cells, read_values, write_cells, write_values, next_read_cells, next_function):
        self._store(read_cells, read_values, write_cells, write_values, next_read_cells, next_function)


class MemState(_Value):
    cells: tuple[str, ...]
    selector: tuple[int, ...]
    fn: int

    def __init__(self, cells, selector, fn):
        self._store(cells, selector, fn)


class MemProgram(_Value):
    """Finite program over n memory cells sharing one alphabet.

    ``functions[a]`` is the entry list of family a.  ``finals`` lists
    (cell, value) conditions; a state where any condition holds is final
    and steps to itself.  With ``default_halt`` a missing entry also means
    halt in place; without it a missing entry is a totality error.
    """

    n_cells: int
    alphabet: tuple[str, ...]
    functions: tuple[tuple[MemEntry, ...], ...]
    initial_cells: tuple[str, ...]
    initial_selector: tuple[int, ...]
    initial_function: int
    finals: tuple[tuple[int, str], ...]
    default_halt: bool
    name: Optional[str]

    def __init__(self, n_cells, alphabet, functions, initial_cells, initial_selector,
                 initial_function, finals=(), default_halt=False, name=None):
        self._store(n_cells, alphabet, functions, initial_cells, initial_selector,
                    initial_function, finals, default_halt, name)
        if self.n_cells < 1:
            raise InvalidMachineError("a program needs at least one cell")
        if not self.alphabet or len(set(self.alphabet)) != len(self.alphabet):
            raise InvalidMachineError("alphabet must be non-empty and distinct")
        for v in self.alphabet:
            _check_token(v, "alphabet value", _MEM_RESERVED)
        if not self.functions:
            raise InvalidMachineError("a program needs at least one rule family")
        if len(self.initial_cells) != self.n_cells:
            raise InvalidMachineError(
                f"initial contents fill {len(self.initial_cells)} of {self.n_cells} cells"
            )
        if any(v not in self.alphabet for v in self.initial_cells):
            raise InvalidMachineError("initial contents use unknown values")
        fault = _mem_fault(self.n_cells, self.alphabet, self.functions, self.initial_selector,
                           self.initial_function, self.finals)
        if fault:
            raise InvalidMachineError(fault[2])

    @property
    def initial_state(self) -> MemState:
        return MemState(self.initial_cells, self.initial_selector, self.initial_function)

    @cached_property
    def _entry_index(self) -> tuple[dict, ...]:
        """Per family, its entries keyed on (read_cells, read_values)."""
        return tuple(
            {(e.read_cells, e.read_values): e for e in entries}
            for entries in self.functions
        )


def _mem_fault(n_cells, alphabet, functions, selector, fn, finals) -> tuple | None:
    """The first rule that a program's start, final conditions or entries
    break, as (place, token, message), or None: ``place`` is "start",
    ("final", j) or (a, i) for entry i of family a, and ``token`` counts the
    words of that line in ``.mem`` text, where the fault stands."""
    def cells(sel):  # what is wrong with a selector, or ""
        if len(set(sel)) != len(sel):
            return " repeats a cell"
        return " references a cell out of range" if any(not 0 <= c < n_cells for c in sel) else ""

    if bad := cells(selector):
        return "start", 1, "initial selector" + bad
    if not 0 <= fn < len(functions):
        return "start", 3, "initial rule-family index out of range"
    for j, (c, v) in enumerate(finals):
        if not 0 <= c < n_cells or v not in alphabet:
            return ("final", j), 2 if not 0 <= c < n_cells else 4, f"final condition ({c},{v!r}) is invalid"
    for a, entries in enumerate(functions):
        seen = set()
        for i, e in enumerate(entries):
            for k, what, sel in ((1, "read", e.read_cells), (3, "write", e.write_cells),
                                 (5, "next", e.next_read_cells)):
                if bad := cells(sel):
                    return (a, i), k, f"family {a} {what} selector{bad}"
            if len(e.read_values) != len(e.read_cells):
                return (a, i), 1, f"family {a}: read arity mismatch"
            if len(e.write_values) != len(e.write_cells):
                return (a, i), 3, f"family {a}: write arity mismatch"
            if any(v not in alphabet for v in e.read_values + e.write_values):
                k = 1 if any(v not in alphabet for v in e.read_values) else 3
                return (a, i), k, f"family {a}: unknown value in entry"
            if not 0 <= e.next_function < len(functions):
                return (a, i), 7, f"family {a}: next family index out of range"
            if (key := (e.read_cells, e.read_values)) in seen:
                return (a, i), 1, f"family {a}: duplicate entry for read{key[0]}={key[1]}"
            seen.add(key)
    return None


def mem_is_final(p: MemProgram, state: MemState) -> bool:
    return any(state.cells[c] == v for c, v in p.finals)


def _find_entry(p: MemProgram, state: MemState) -> Optional[MemEntry]:
    values = tuple(state.cells[c] for c in state.selector)
    return p._entry_index[state.fn].get((state.selector, values))


def _missing_entry(fn: int, selector: tuple, values: tuple) -> TotalityViolationError:
    return TotalityViolationError(
        f"family {fn} has no entry for read{selector}={values} "
        "and the program declares no default"
    )


def mem_step(p: MemProgram, state: MemState) -> MemState:
    """One aggregate step; total by construction or by explicit default."""
    if mem_is_final(p, state):
        return state
    e = _find_entry(p, state)
    if e is None:
        if p.default_halt:
            return state
        values = tuple(state.cells[c] for c in state.selector)
        raise _missing_entry(state.fn, state.selector, values)
    cells = list(state.cells)
    for c, v in zip(e.write_cells, e.write_values):
        cells[c] = v
    return MemState(tuple(cells), e.next_read_cells, e.next_function)


class MemStateCodec(_Value):
    """Labels aggregate states as ``v;v;...|selector cells|family index``."""

    n_cells: int
    alphabet: tuple[str, ...]
    selectors: tuple[tuple[int, ...], ...]

    def __init__(self, n_cells, alphabet, selectors):
        self._store(n_cells, alphabet, selectors)

    def encode(self, s: MemState) -> str:
        sel = ".".join(str(c) for c in s.selector)
        return f"{';'.join(s.cells)}|{sel}|{s.fn}"

    def decode(self, label: str) -> MemState:
        contents, sel, fn = label.split("|")
        selector = tuple(int(c) for c in sel.split(".")) if sel else ()
        return MemState(tuple(contents.split(";")), selector, int(fn))


def _selector_universe(p: MemProgram) -> tuple[tuple[int, ...], ...]:
    sels = {p.initial_selector}
    for entries in p.functions:
        for e in entries:
            sels.add(e.read_cells)
            sels.add(e.next_read_cells)
    return tuple(sorted(sels))


def compile_mem(p: MemProgram) -> tuple[Machine, MemStateCodec]:
    """Expand a MemProgram into a Machine over aggregate states.

    An aggregate state is (cell contents, current selector, current rule
    family); folding the selector and family into the state makes the whole
    program a single stationary step function.  Final states are fixed
    points.  Raises if some reachable combination has no entry and the
    program declares no default.  The state set decodes its
    ``MemStateCodec`` labels on demand: compiling builds none of them.
    More than DEFAULT_ENUMERATION_CAP states raise EnumerationTooLargeError.
    """
    selectors = _selector_universe(p)
    n_fns = len(p.functions)
    size = len(p.alphabet) ** p.n_cells * len(selectors) * n_fns
    if size > DEFAULT_ENUMERATION_CAP:
        raise EnumerationTooLargeError("aggregate state set", size)

    # State (cells, selector i, family a) has index (rank(cells)*|sel| + i)*F + a,
    # rank(cells) in base m with cell 0 most significant, as its label's parts rank.
    codec = MemStateCodec(p.n_cells, p.alphabet, selectors)
    m, n, n_sel = len(p.alphabet), p.n_cells, len(selectors)
    value_rank = {v: i for i, v in enumerate(p.alphabet)}
    sel_rank = {sel: i for i, sel in enumerate(selectors)}
    weight = [m ** (n - 1 - c) for c in range(n)]
    block = n_sel * n_fns
    cell, last = (tuple(v + sep for v in p.alphabet) for sep in ";|")
    suffixes = [f"{'.'.join(map(str, sel))}|{fn}" for sel in selectors for fn in range(n_fns)]
    labels = _ProductLabels((*[cell] * (n - 1), last, suffixes))
    # With default_halt, states no entry matches are fixed points; -1 marks
    # a state that still waits for its entry.  An entry's unread cells hold
    # anything; the longest run of adjacent ones it does not write moves as one
    # strided slice, and the loop visits the contents of the other unread cells.
    table = list(range(size)) if p.default_halt else [-1] * size
    for fn, entries in enumerate(p.functions):
        for e in entries:
            me = sel_rank[e.read_cells] * n_fns + fn
            nxt = sel_rank[e.next_read_cells] * n_fns + e.next_function
            read = {c: value_rank[v] for c, v in zip(e.read_cells, e.read_values)}
            writes = [(c, value_rank[v]) for c, v in zip(e.write_cells, e.write_values)]
            kept = {c for c in range(n) if c not in read and c not in e.write_cells}
            run = max((list(g) for k, g in itertools.groupby(range(n), kept.__contains__) if k),
                      key=len, default=[])
            step = (weight[run[-1]] if run else 1) * block
            stop = m ** len(run) * step
            loop = [c for c in range(n) if c not in read and c not in run]
            for digits in itertools.product(range(m), repeat=len(loop)):
                cells = {**read, **dict(zip(loop, digits))}
                rank = sum(d * weight[c] for c, d in cells.items())
                a = rank * block + me
                a2 = (rank + sum((v - cells[c]) * weight[c] for c, v in writes)) * block + nxt
                table[a : a + stop : step] = range(a2, a2 + stop, step)
    # Final states are fixed points, whatever an entry wrote there.  Cell c
    # holds value v exactly on the ranks (hi*m + v)*w + lo, w = weight[c].
    for c, v in p.finals:
        w = weight[c] * block
        for a, b, stride, _ in _grid_runs(value_rank[v] * w, 1, w, m * w, size // (m * w)):
            table[a:b:stride] = range(a, b, stride)
    if not p.default_halt and -1 in table:
        # The first unfilled index is the first state the program leaves open.
        rank, rest = divmod(table.index(-1), block)
        si, fn = divmod(rest, n_fns)
        cells = [p.alphabet[rank // w % m] for w in weight]
        raise _missing_entry(fn, selectors[si], tuple(cells[c] for c in selectors[si]))
    return _assemble(StateSet(labels), [(tuple(table), "step")], name=p.name), codec


# ---------------------------------------------------------------------------
# Turing machine -> memory-cell program
# ---------------------------------------------------------------------------


def _sym(s: str) -> str:
    return f"sym.{s}"


def _reg(r: str) -> str:
    return f"reg.{r}"


def _pos(h) -> str:
    return f"pos.{h}"


def tm_to_mem(t: TuringSpec) -> MemProgram:
    """Rebuild a Turing machine as cells: tape cells 0..n-1, a register
    cell n, an address cell n+1.

    Every step reads (register cell, address cell, the addressed tape cell)
    and writes the rule's outputs; the next selector carries the new head
    position, so the read target moves with the head.  The shared alphabet
    namespaces values as sym.*, reg.* and pos.* to keep the cells' roles
    disjoint.  Halting registers become final conditions; missing rules
    fall to the default (halt in place).  A rejected boundary move writes
    pos.err to the address cell and parks the selector on a combination
    with no entries, an absorbing fixed point.
    """
    n = t.cells
    reg_cell = n
    addr_cell = n + 1
    reject = t.boundary_policy is BoundaryPolicy.REJECT
    alphabet = (
        tuple(_sym(s) for s in t.symbols)
        + tuple(_reg(r) for r in t.registers)
        + tuple(_pos(h) for h in range(n))
        + ((_pos("err"),) if reject else ())
    )
    entries = []
    for j in range(n):
        for (r, s), (r2, s2, mv) in sorted(t.rules.items()):
            read = ((reg_cell, addr_cell, j), (_reg(r), _pos(j), _sym(s)))
            h2 = j + _HEAD_SHIFT[mv]
            if reject and not 0 <= h2 < n:
                move = ((addr_cell,), (_pos("err"),), (reg_cell, addr_cell))
            else:
                h2 = min(max(h2, 0), n - 1)  # clamp
                move = (
                    (reg_cell, addr_cell, j),
                    (_reg(r2), _pos(h2), _sym(s2)),
                    (reg_cell, addr_cell, h2),
                )
            entries.append(MemEntry(*read, *move, next_function=0))
    return MemProgram(
        n_cells=n + 2,
        alphabet=alphabet,
        functions=(tuple(entries),),
        initial_cells=tuple(_sym(s) for s in t.initial.tape)
        + (_reg(t.initial.register), _pos(t.initial.head)),
        initial_selector=(reg_cell, addr_cell, t.initial.head),
        initial_function=0,
        finals=tuple((reg_cell, _reg(r)) for r in sorted(t.halting)),
        default_halt=True,
        name=t.name,
    )


class LockstepReport(_Value):
    """Outcome of running a TuringSpec and a MemProgram side by side."""

    steps_verified: int
    divergence: Optional[tuple[int, str]]
    tm_outcome: str

    def __init__(self, steps_verified, divergence, tm_outcome):
        self._store(steps_verified, divergence, tm_outcome)

    @property
    def ok(self) -> bool:
        return self.divergence is None


def verify_lockstep(t: TuringSpec, p: MemProgram, steps: int) -> LockstepReport:
    """Check tape<->cells, register<->cell n, head<->cell n+1 every step.

    Follows the Turing run for at most ``steps`` transitions, advancing
    the program in lockstep and holding one configuration of each.  A
    program with no entry for the step it must take has diverged.  After a
    divergence only the Turing run goes on, to name its outcome.  After a
    halt the program must sit on a fixed point; after a rejected boundary
    move it must show pos.err in the address cell one step later.
    """
    n = t.cells
    state, verified, divergence = p.initial_state, 0, None
    if p.n_cells < n + 2:
        divergence = (0, f"program has {p.n_cells} cell(s), the tape machine needs {n + 2}")
    for i, c in enumerate(_tm_run(t, steps)):
        end = isinstance(c, str)  # the outcome, checked on configuration i - 1
        if divergence is not None or end and c == "step-limit":
            continue
        at = i - 1 if end else i
        try:
            after = mem_step(p, state) if i else state
        except TotalityViolationError as e:
            divergence = (at, str(e))
            continue
        if not end:
            want = (tuple(map(_sym, c.tape)), _reg(c.register), _pos(c.head))
            got = (after.cells[:n], after.cells[n], after.cells[n + 1])
            if got != want:
                divergence = (i, f"expected {want}, program shows {got}")
            else:
                state, verified = after, i
        elif c == "halted" and after != state:
            divergence = (at, "machine halted but program still moves")
        elif c == "boundary-error":
            if after.cells[n + 1] == _pos("err"):
                verified = i
            else:
                divergence = (at, "rejected boundary move not mirrored by pos.err")
    return LockstepReport(verified, divergence, c)
