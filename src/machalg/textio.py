"""Text formats: machines, Turing specs, memory-cell programs, certificates.

All four formats are line-oriented, ``#`` starts a comment, and parsing
reports positions as line/column in ParseError.  Rendering is canonical:
the same value always produces byte-identical text, and parse(render(x))
round-trips.
"""

from __future__ import annotations

import re
import sys
from typing import TYPE_CHECKING, Iterator

from .errors import InvalidMachineError, MachalgError, ParseError, _Value, decimal_digits
from .machine import (
    Machine,
    StateSet,
    _AllTables,
    _assemble,
    _Bijections,
    _ImplicitTables,
    _names,
)

if TYPE_CHECKING:  # parse_turing and parse_mem import models when called
    from .models import MemProgram, TuringSpec


def _significant_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, raw line, body) for every non-blank non-comment line,
    ``body`` being the line before any ``#``, split by each reader as it needs."""
    for i, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield i, raw, body


def _col(raw: str, k: int, skip: int = 0) -> int:
    """The column ``skip`` characters into the k-th whitespace-separated
    token of ``raw`` (both counted from 0): where an error's token stands."""
    end = 0
    for token in raw.split()[: k + 1]:
        start = raw.find(token, end)
        end = start + len(token)
    return start + skip + 1


def _number(token: str, lineno: int, raw: str, k: int, skip: int = 0) -> int | None:
    """The value of a numeral of ASCII digits, or None for any other token;
    ``token`` stands ``skip`` characters into token ``k`` of ``raw``."""
    if not (token.isascii() and token.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{len(token)}-digit number is too long", lineno, _col(raw, k, skip)) from None


def _directives(text: str, header: str, once: tuple, many: tuple, after: dict,
                required: tuple) -> Iterator[tuple[int, str, str, str]]:
    """(line number, raw line, head, body) for every significant line of a
    format whose ``header`` reads ``<kind> <word>``, after the rules all the
    formats share: the input is not empty, every head is in ``once`` or
    ``many``, the first line is the header, no head in ``once`` (the header
    among them) comes twice, each head in ``after`` comes after every head it
    lists, the header has exactly one word after its kind, and every head in
    ``required`` comes at all."""
    rows = list(_significant_lines(text))
    if not rows:
        raise ParseError(f"empty input; expected '{header}'", 1)
    kind = header.split()[0]
    seen = set()
    for lineno, raw, body in rows:
        head = body.split(None, 1)[0]
        if head not in once and head not in many:
            raise ParseError(f"unknown directive {head!r}", lineno, _col(raw, 0))
        if not seen and head != kind:
            raise ParseError(f"'{header}' must come first", lineno, 1)
        if head in seen and head in once:
            raise ParseError(f"second {head!r} line", lineno, _col(raw, 0))
        for first in after.get(head, ()):
            if first not in seen:
                raise ParseError(f"'{first}' must come before '{head}'", lineno, 1)
        if head == kind and len(body.split()) != 2:
            raise ParseError(f"expected '{header}'", lineno, 1)
        seen.add(head)
        yield lineno, raw, head, body
    for head in required:
        if head not in seen:
            raise ParseError(f"missing '{head}' line", lineno)


def _distinct_names(tokens: list, what: str, lineno: int, raw: str, check, *extra) -> tuple[str, ...]:
    """``tokens[1:]``, the names on a line, after the rules every name line
    shares: there is one at least, each is refused at its column if
    ``check(name, what, *extra)`` raises InvalidMachineError, and none repeats."""
    if len(tokens) < 2:  # a noun of one word: "'alphabet' needs at least one value"
        raise ParseError(f"'{tokens[0]}' needs at least one {what.split()[-1]}", lineno, 1)
    seen = set()
    for k, name in enumerate(tokens[1:], 1):
        try:
            check(name, what, *extra)
        except InvalidMachineError as e:
            raise ParseError(str(e), lineno, _col(raw, k)) from None
        if name in seen:
            raise ParseError(f"duplicate {what} {name!r}", lineno, _col(raw, k))
        seen.add(name)
    return tuple(tokens[1:])


# ---------------------------------------------------------------------------
# Machine format (.mx)
# ---------------------------------------------------------------------------

def _check_mx_token(token: str, what: str) -> None:
    """Reject ``token`` unless it is an ``.mx`` token."""
    if not _all_mx_tokens([token]):
        raise InvalidMachineError(f"{what} {token!r} may not contain any of , : -> #")


def _all_mx_tokens(labels: list) -> bool:
    """True when each of ``labels`` can stand as a name or state in ``.mx`` text: a
    non-empty string with no whitespace and none of , : -> #, checked joined."""
    try:
        text = " ".join(labels)  # no "->" can form across the space
    except TypeError:  # a label that is not a string
        return False
    return text.split() == labels and not any(bad in text for bad in (",", ":", "->", "#"))


def _clause_table(rest: str, state_set: StateSet) -> tuple[int, ...] | None:
    """The table of canonical fn clauses (``s->t`` in state order, joined by
    ``, ``), or None for any other text, which the per-clause loop then reads
    or rejects.  No label holds , -> or whitespace, so a split that joins
    back to the text is its parse."""
    body = rest.strip()
    words = body.replace("->", ", ").split(", ")
    srcs, dsts = words[0::2], words[1::2]
    if tuple(srcs) == state_set.labels and ", ".join(map("->".join, zip(srcs, dsts))) == body:
        try:
            return tuple(map(state_set._positions.__getitem__, dsts))
        except KeyError:  # an unknown target
            pass
    return None


# The word after ``functions`` and the tables it stands for.
_IMPLICIT = {"all": _AllTables, "bijections": _Bijections}


def parse_machine(text: str) -> Machine:
    """Read the ``machine`` block format.

    Rejects missing clauses (every function must cover every state),
    unknown state names, and duplicate states, functions, or clauses.
    ``functions all`` or ``functions bijections`` stands for every map or
    every bijection on the states, in place of ``fn`` lines; the functions
    are named ``f<i>``, as when each has its own ``fn`` line.
    """
    name = None
    state_set = None
    implicit = None
    fn_names: dict[str, tuple[int, ...]] = {}

    once = ("machine", "states", "functions")
    after = {"fn": ("states",), "functions": ("states",)}
    for lineno, raw, head, body in _directives(text, "machine <name>", once, ("fn",), after, ("states",)):
        tokens = body.split() if head != "fn" else None  # a fn line is read from its body
        if implicit and head == "fn" or head == "functions" and fn_names:
            raise ParseError("a 'functions' line excludes 'fn' lines", lineno, 1)
        if head == "machine":
            (name,) = _distinct_names(tokens, "machine name", lineno, raw, _check_mx_token)
        elif head == "states":
            try:
                state_set = StateSet(tuple(tokens[1:]))
            except InvalidMachineError:  # no state or a repeat, placed below
                pass
            if state_set is None or not _all_mx_tokens(tokens[1:]):
                _distinct_names(tokens, "state", lineno, raw, _check_mx_token)
        elif head == "functions":
            if len(tokens) != 2 or tokens[1] not in _IMPLICIT:
                raise ParseError("'functions' must be 'all' or 'bijections'", lineno, 1)
            implicit = _IMPLICIT[tokens[1]]
        elif head == "fn":
            header, sep, rest = body.partition(":")
            if not sep:
                raise ParseError("fn line needs 'fn <name>: <clauses>'", lineno, 1)
            htokens = header.split()
            if len(htokens) != 2:
                raise ParseError("fn line needs exactly one name", lineno, 1)
            (fname,) = _distinct_names(htokens, "function name", lineno, raw, _check_mx_token)
            if fname in fn_names:
                raise ParseError(f"duplicate function name {fname!r}", lineno, _col(raw, 1))
            table = _clause_table(rest, state_set)
            if table is None:
                mapping: dict[str, str] = {}
                at = len(header) + 1  # where the chunk starts in raw
                for chunk in rest.split(","):
                    clause = chunk.strip()
                    col = at + chunk.find(clause) + 1
                    at += len(chunk) + 1
                    if not clause:
                        raise ParseError("empty clause", lineno, col if chunk else 1)
                    parts = clause.split("->")
                    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                        raise ParseError(f"clause {clause!r} must read 'state->state'", lineno, col)
                    src, dst = parts[0].strip(), parts[1].strip()
                    for tok, skip in ((src, 0), (dst, len(parts[0]) + 2)):
                        if tok not in state_set:
                            col_tok = raw.find(tok, col - 1 + skip) + 1
                            raise ParseError(f"unknown state {tok!r}", lineno, col_tok)
                    if src in mapping:
                        raise ParseError(f"duplicate clause for state {src!r}", lineno, col)
                    mapping[src] = dst
                missing = [s for s in state_set.labels if s not in mapping]
                if missing:
                    raise ParseError(
                        f"fn {fname!r} missing clauses for: {' '.join(missing)}", lineno, 1
                    )
                table = tuple(state_set.index(mapping[s]) for s in state_set.labels)
            fn_names[fname] = table

    if implicit:
        return Machine(state_set, implicit(len(state_set)), name=name)
    if not fn_names:
        raise ParseError("a machine needs at least one fn", lineno)
    return _assemble(state_set, [(t, f) for f, t in fn_names.items()], name)


def display_names(m: Machine) -> list[str]:
    names, used, name = [], set(), _names(m)
    for i, _ in enumerate(m.tables):  # implicit tables past the cap refuse here
        cand = name(i)
        if cand in used or not _all_mx_tokens([cand]):
            cand = f"f{i}"
            while cand in used:
                cand += "_"
        names.append(cand)
        used.add(cand)
    return names


def resolve_function(m: Machine, token: str) -> int:
    """Index of the function that ``token`` names: a display name, ``f<i>``
    for implicit tables, or an index numeral, zero-padded or not.  Implicit
    tables are read in O(1) and never list their names."""
    names = m.function_names and display_names(m)  # () for implicit tables
    if token in names:
        return names.index(token)
    digits = token[1:] if not names and re.fullmatch("f(0|[1-9][0-9]*)", token) else token
    if digits.isascii() and digits.isdigit():
        digits = digits.lstrip("0") or "0"
        if len(digits) <= decimal_digits(m.n_functions):  # a longer one is never converted
            try:
                i = int(digits)
            except ValueError:  # more digits than int() converts from text
                from decimal import Decimal

                i = int(Decimal(digits))
            if i < m.n_functions:
                return i
    try:
        known = " ".join(names) or f"f0 to f{m.n_functions - 1}"
    except ValueError:  # more digits than Python writes as text
        known = f"f0 to f(a {decimal_digits(m.n_functions - 1)}-digit number)"
    raise MachalgError(f"unknown function {token!r}; known names: {known}")


def render_machine(m: Machine) -> str:
    """Canonical machine block; inverse of parse_machine.  A function or
    machine name that is no ``.mx`` token is replaced; a state label is not.
    Implicit tables are written as one ``functions`` line."""
    labels = tuple(m.states.labels)
    if not _all_mx_tokens(list(labels)):
        for s in labels:
            if not _all_mx_tokens([s]):
                raise InvalidMachineError(f"state label {s!r} is not representable in text")
    lines = [f"machine {m.name if _all_mx_tokens([m.name]) else 'm'}", "states " + " ".join(labels)]
    if isinstance(m.tables, _ImplicitTables):
        return "\n".join(lines + [f"functions {m.tables.form}"]) + "\n"
    for t, dn in zip(m.tables, display_names(m)):
        clauses = ", ".join(map("->".join, zip(labels, map(labels.__getitem__, t))))
        lines.append(f"fn {dn}: {clauses}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Turing machine format (.tm)
# ---------------------------------------------------------------------------


def parse_turing(text: str) -> TuringSpec:
    from .models import _TM_RESERVED, BoundaryPolicy, Move, TmConfiguration, TuringSpec, _check_token

    name = None
    symbols: tuple[str, ...] | None = None
    registers: tuple[str, ...] | None = None
    cells: int | None = None
    boundary: BoundaryPolicy | None = None
    halting: frozenset | None = None
    rules: dict = {}
    rules_seen = False
    initial: TmConfiguration | None = None

    once = ("tm", "symbols", "registers", "cells", "boundary", "halting", "init")
    after = {"halting": ("registers",), "rule": ("symbols", "registers"),
             "init": ("symbols", "registers", "cells")}
    required = ("symbols", "registers", "cells", "boundary", "init")
    for lineno, raw, head, body in _directives(text, "tm <name>", once, ("rule",), after, required):
        tokens = body.split()
        if head == "tm":
            name = tokens[1]
        elif head == "symbols":
            symbols = _distinct_names(tokens, "symbol", lineno, raw, _check_token, _TM_RESERVED)
        elif head == "registers":
            registers = _distinct_names(tokens, "register", lineno, raw, _check_token, _TM_RESERVED)
        elif head == "cells":
            cells = _number(tokens[1], lineno, raw, 1) if len(tokens) == 2 else None
            if cells is None or cells < 1:
                col = _col(raw, 1) if len(tokens) > 1 else 1
                raise ParseError("'cells' needs one positive integer", lineno, col)
        elif head == "boundary":
            if len(tokens) != 2 or tokens[1] not in ("reject", "clamp"):
                raise ParseError("'boundary' must be 'reject' or 'clamp'", lineno, 1)
            boundary = BoundaryPolicy(tokens[1])
        elif head == "halting":
            if rules_seen:
                raise ParseError("'halting' must come before the rules", lineno, 1)
            for k, r in enumerate(tokens[1:], 1):
                if r not in registers:
                    raise ParseError(f"unknown halting register {r!r}", lineno, _col(raw, k))
            halting = frozenset(tokens[1:])
        elif head == "rule":
            rules_seen = True
            if len(tokens) != 7 or tokens[3] != "->":
                raise ParseError(
                    "rule must read 'rule <reg> <sym> -> <reg> <sym> <L|R|S>'", lineno, 1
                )
            r, s, _, r2, s2, mv = tokens[1:]
            for reg, k in ((r, 1), (r2, 4)):
                if reg not in registers:
                    raise ParseError(f"unknown register {reg!r}", lineno, _col(raw, k))
            for sym, k in ((s, 2), (s2, 5)):
                if sym not in symbols:
                    raise ParseError(f"unknown symbol {sym!r}", lineno, _col(raw, k))
            if halting and r in halting:
                raise ParseError(
                    f"halting register {r!r} cannot have outgoing rules", lineno, _col(raw, 1)
                )
            if mv not in ("L", "R", "S"):
                raise ParseError(f"move must be L, R or S, not {mv!r}", lineno, _col(raw, 6))
            if (r, s) in rules:
                raise ParseError(f"duplicate rule for ({r}, {s})", lineno, 1)
            rules[(r, s)] = (r2, s2, Move(mv))
        elif head == "init":
            n = cells
            want = 2 + n + 2 + 2
            if (
                len(tokens) != want
                or tokens[1] != "tape"
                or tokens[2 + n] != "head"
                or tokens[4 + n] != "register"
            ):
                raise ParseError(
                    f"init must read 'init tape <{n} symbols> head <i> register <reg>'",
                    lineno,
                    1,
                )
            tape = tuple(tokens[2 : 2 + n])
            for k, sym in enumerate(tape, 2):
                if sym not in symbols:
                    raise ParseError(f"unknown symbol {sym!r}", lineno, _col(raw, k))
            at = _number(tokens[3 + n], lineno, raw, 3 + n)
            if at is None or at >= n:
                raise ParseError(f"head must be in 0..{n - 1}", lineno, _col(raw, 3 + n))
            reg = tokens[5 + n]
            if reg not in registers:
                raise ParseError(f"unknown register {reg!r}", lineno, _col(raw, 5 + n))
            initial = TmConfiguration(reg, tape, at)

    return TuringSpec(
        symbols=symbols,
        registers=registers,
        cells=cells,
        rules=rules,
        halting=halting if halting is not None else frozenset(),
        boundary_policy=boundary,
        initial=initial,
        name=name,
    )


def render_turing(t: TuringSpec) -> str:
    lines = [f"tm {t.name or 'tm'}"]
    lines.append("symbols " + " ".join(t.symbols))
    lines.append("registers " + " ".join(t.registers))
    lines.append(f"cells {t.cells}")
    lines.append(f"boundary {t.boundary_policy.value}")
    halting = [r for r in t.registers if r in t.halting]
    if halting:
        lines.append("halting " + " ".join(halting))
    order = {r: i for i, r in enumerate(t.registers)}
    sym_order = {s: i for i, s in enumerate(t.symbols)}
    for (r, s), (r2, s2, mv) in sorted(
        t.rules.items(), key=lambda kv: (order[kv[0][0]], sym_order[kv[0][1]])
    ):
        lines.append(f"rule {r} {s} -> {r2} {s2} {mv.value}")
    c = t.initial
    lines.append(
        "init tape " + " ".join(c.tape) + f" head {c.head} register {c.register}"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Memory-cell program format (.mem)
# ---------------------------------------------------------------------------


# Each helper reads ``piece``, which stands ``skip`` characters into token
# ``k`` of ``raw``, and reports errors at the column of the offending part.


def _parse_paren(piece: str, prefix: str, lineno: int, raw: str, k: int, skip: int = 0) -> list[str]:
    if not piece.startswith(prefix + "(") or not piece.endswith(")"):
        raise ParseError(f"expected '{prefix}(...)', got {piece!r}", lineno, _col(raw, k, skip))
    inner = piece[len(prefix) + 1 : -1]
    return inner.split(",") if inner else []


def _parse_cells(piece: str, prefix: str, lineno: int, raw: str, k: int) -> tuple[int, ...]:
    out = []
    skip = len(prefix) + 1
    for p in _parse_paren(piece, prefix, lineno, raw, k):
        i = _number(p, lineno, raw, k, skip)
        if i is None:
            raise ParseError(f"cell index {p!r} is not a number", lineno, _col(raw, k, skip))
        out.append(i)
        skip += len(p) + 1
    return tuple(out)


def _parse_cells_eq(
    piece: str, prefix: str, lineno: int, raw: str, k: int
) -> tuple[tuple[int, ...], tuple[str, ...]]:
    left, sep, right = piece.partition("=")
    if not sep:
        raise ParseError(f"expected '{prefix}(...)=(...)', got {piece!r}", lineno, _col(raw, k))
    cells = _parse_cells(left, prefix, lineno, raw, k)
    values = tuple(_parse_paren(right, "", lineno, raw, k, len(left) + 1))
    return cells, values


def parse_mem(text: str) -> MemProgram:
    from .models import _MEM_RESERVED, MemEntry, MemProgram, _check_token, _mem_fault

    name = None
    alphabet: tuple[str, ...] | None = None
    cell_inits: dict[int, str] = {}
    start_sel: tuple[int, ...] | None = None
    start_fn: int | None = None
    default_halt = False
    families: list[list[MemEntry]] = []
    finals: list[tuple[int, str]] = []
    places = {}  # (line number, raw line) of the start line, each final and each entry

    once, many = ("mem", "alphabet", "start", "default"), ("cell", "fn", "entry", "final")
    after = {"cell": ("alphabet",), "entry": ("fn",)}
    required = ("alphabet", "cell", "start", "fn")
    for lineno, raw, head, body in _directives(text, "mem <name>", once, many, after, required):
        tokens = body.split()
        if head == "mem":
            name = tokens[1]
        elif head == "alphabet":
            alphabet = _distinct_names(tokens, "alphabet value", lineno, raw, _check_token, _MEM_RESERVED)
        elif head == "cell":
            idx = _number(tokens[1], lineno, raw, 1) if len(tokens) == 4 and tokens[2] == "=" else None
            if idx is None:
                raise ParseError("cell line must read 'cell <i> = <value>'", lineno, 1)
            val = tokens[3]
            if val not in alphabet:
                raise ParseError(f"unknown value {val!r}", lineno, _col(raw, 3))
            if idx in cell_inits:
                raise ParseError(f"cell {idx} initialized twice", lineno, 1)
            cell_inits[idx] = val
        elif head == "start":
            if (
                len(tokens) != 4
                or tokens[2] != "fn"
                or (start_fn := _number(tokens[3], lineno, raw, 3)) is None
            ):
                raise ParseError("start line must read 'start read(...) fn <i>'", lineno, 1)
            start_sel = _parse_cells(tokens[1], "read", lineno, raw, 1)
            places["start"] = lineno, raw
        elif head == "default":
            if tokens[1:] != ["halt"]:
                raise ParseError("only 'default halt' is supported", lineno, 1)
            default_halt = True
        elif head == "fn":
            if len(tokens) != 2 or (a := _number(tokens[1], lineno, raw, 1)) is None:
                raise ParseError("fn line must read 'fn <i>'", lineno, 1)
            if a != len(families):
                raise ParseError(
                    f"fn blocks must appear in order; expected fn {len(families)}", lineno, 1
                )
            families.append([])
        elif head == "entry":
            if (
                len(tokens) != 8
                or tokens[2] != "->"
                or tokens[4] != "next"
                or tokens[6] != "fn"
                or (next_fn := _number(tokens[7], lineno, raw, 7)) is None
            ):
                raise ParseError(
                    "entry must read 'entry read(...)=(...) -> write(...)=(...) "
                    "next read(...) fn <i>'",
                    lineno,
                    1,
                )
            rc, rv = _parse_cells_eq(tokens[1], "read", lineno, raw, 1)
            wc, wv = _parse_cells_eq(tokens[3], "write", lineno, raw, 3)
            nc = _parse_cells(tokens[5], "read", lineno, raw, 5)
            places[len(families) - 1, len(families[-1])] = lineno, raw
            families[-1].append(MemEntry(rc, rv, wc, wv, nc, next_fn))
        elif head == "final":
            at = _number(tokens[2], lineno, raw, 2) if len(tokens) == 5 else None
            if at is None or tokens[1] != "cell" or tokens[3] != "=":
                raise ParseError("final line must read 'final cell <i> = <value>'", lineno, 1)
            places["final", len(finals)] = lineno, raw
            finals.append((at, tokens[4]))

    n = len(cell_inits)
    if sorted(cell_inits) != list(range(n)):
        raise ParseError(f"cell indices must be exactly 0..{n - 1}", lineno)
    functions = tuple(tuple(entries) for entries in families)
    try:
        return MemProgram(n, alphabet, functions, tuple(cell_inits[i] for i in range(n)),
                          start_sel, start_fn, tuple(finals), default_halt, name)
    except InvalidMachineError:  # the lines above leave only the rules of _mem_fault unchecked
        place, k, message = _mem_fault(n, alphabet, functions, start_sel, start_fn, finals)
        lineno, raw = places[place]
        raise ParseError(message, lineno, _col(raw, k)) from None


def render_mem(p: MemProgram) -> str:
    lines = [f"mem {p.name or 'mem'}"]
    lines.append("alphabet " + " ".join(p.alphabet))
    for i, v in enumerate(p.initial_cells):
        lines.append(f"cell {i} = {v}")
    sel = ",".join(str(c) for c in p.initial_selector)
    lines.append(f"start read({sel}) fn {p.initial_function}")
    if p.default_halt:
        lines.append("default halt")
    for a, entries in enumerate(p.functions):
        lines.append(f"fn {a}")
        for e in entries:
            rc = ",".join(str(c) for c in e.read_cells)
            rv = ",".join(e.read_values)
            wc = ",".join(str(c) for c in e.write_cells)
            wv = ",".join(e.write_values)
            nc = ",".join(str(c) for c in e.next_read_cells)
            lines.append(
                f"entry read({rc})=({rv}) -> write({wc})=({wv}) "
                f"next read({nc}) fn {e.next_function}"
            )
    for c, v in p.finals:
        lines.append(f"final cell {c} = {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class Certificate(_Value):
    """Machine-readable witness: what to keep and where states/functions go.

    kind "iso": g and h only.  kind "complete": the functional keep (indices
    into the container's functions), the state keep (labels), then g and h
    into the reduced machine.  kind "submachine": the keeps only.
    """

    kind: str
    g: tuple[int, ...]
    h: tuple[int, ...]
    kept_functions: tuple[int, ...]
    kept_states: tuple[str, ...]

    def __init__(self, kind, g=(), h=(), kept_functions=(), kept_states=()):
        self._store(kind, g, h, kept_functions, kept_states)


# The lines of each certificate kind in the order they are written, and the
# Certificate field each line holds.
_CERT_REQUIRED = {
    "iso": ("g", "h"),
    "complete": ("keep-fns", "keep-states", "g", "h"),
    "submachine": ("keep-fns", "keep-states"),
}
_CERT_FIELD = {"g": "g", "h": "h", "keep-fns": "kept_functions", "keep-states": "kept_states"}


def parse_certificate(text: str) -> Certificate:
    fields: dict[str, tuple] = {}
    once = ("certificate", *_CERT_FIELD)
    for lineno, raw, key, body in _directives(text, "certificate <kind>", once, (), {}, ()):
        tokens = body.split()
        if key == "certificate":
            kind = tokens[1]
            if kind not in _CERT_REQUIRED:
                raise ParseError(f"unknown certificate kind {kind!r}", lineno, _col(raw, 1))
        elif key not in _CERT_REQUIRED[kind]:
            a = "an" if kind[0] in "aeiou" else "a"
            raise ParseError(f"{key!r} does not belong in {a} {kind} certificate", lineno, _col(raw, 0))
        elif key == "keep-states":
            fields[key] = tuple(tokens[1:])
        else:
            vals = []
            for k, tok in enumerate(tokens[1:], 1):
                if (v := _number(tok, lineno, raw, k)) is None:
                    raise ParseError(f"{key} entries must be numbers, got {tok!r}", lineno, _col(raw, k))
                vals.append(v)
            fields[key] = tuple(vals)
    for key in _CERT_REQUIRED[kind]:
        if key not in fields:
            raise ParseError(f"missing {key!r} line", lineno)
    return Certificate(kind, **{_CERT_FIELD[key]: value for key, value in fields.items()})


def render_certificate(c: Certificate) -> str:
    """Canonical certificate text; inverse of parse_certificate.  An entry
    with more digits than Python converts to text raises MachalgError."""
    if c.kind not in _CERT_REQUIRED:
        raise InvalidMachineError(f"unknown certificate kind {c.kind!r}")
    lines = [f"certificate {c.kind}"]
    for key in _CERT_REQUIRED[c.kind]:
        values = getattr(c, _CERT_FIELD[key])
        try:
            lines.append(f"{key} " + " ".join(map(str, values)))
        except ValueError:  # the digit limit of int-to-text conversion
            raise MachalgError(
                f"{key} entry has {decimal_digits(max(values, key=abs))} digits, above "
                f"Python's limit of {sys.get_int_max_str_digits()} for writing an integer as text"
            ) from None
    return "\n".join(lines) + "\n"
