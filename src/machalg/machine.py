"""Finite abstract machines: state sets, total self-maps, and iteration.

A machine is a finite ordered state set together with a non-empty set of
transition functions, each a total map from the state set to itself.
Functions are extensional: two constructions with the same lookup table are
the same function, whatever expressions produced them.  All values here are
immutable and all operations are pure, so everything is safe to share.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    DomainMismatchError,
    EnumerationTooLargeError,
    InvalidMachineError,
    TotalityViolationError,
)

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class StateSet:
    """Ordered collection of distinct state labels.

    The construction order is fixed and drives every deterministic
    enumeration and witness in the package.  Lookups use a label-to-index
    dict built on first use, so sets never queried cost only their tuple.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise InvalidMachineError("a state set needs at least one state")
        if len(set(self.labels)) != len(self.labels):
            dupes = sorted(s for s, c in Counter(self.labels).items() if c > 1)
            raise InvalidMachineError(f"duplicate state labels: {dupes}")

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    @cached_property
    def _positions(self) -> dict:
        return {s: i for i, s in enumerate(self.labels)}

    def __contains__(self, label):
        try:
            return label in self._positions
        except TypeError:  # unhashable, so never a label
            return False

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise DomainMismatchError(f"state {label!r} is not in this state set") from None


def states(*labels: str) -> StateSet:
    return StateSet(tuple(labels))


def _check_tables(tables: Iterable[tuple[int, ...]], n: int) -> None:
    """Raise TotalityViolationError unless every table maps range(n) into itself."""
    for table in tables:
        if len(table) != n:
            raise TotalityViolationError(f"table has {len(table)} entries for {n} states")
        for j in table:
            if not 0 <= j < n:  # all entries before it are in range, so none equals j
                raise TotalityViolationError(
                    f"entry {table.index(j)} maps to index {j}, outside the {n}-state domain"
                )


@dataclass(frozen=True)
class TransitionFunction:
    """A total self-map on a state set, stored as an index table.

    ``table[i]`` is the index of the image of state ``i``.  Equality and
    hashing ignore the display name: functions are their mappings.
    """

    domain: StateSet
    table: tuple[int, ...]
    name: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        _check_tables((self.table,), len(self.domain))

    def __call__(self, label: str) -> str:
        return self.domain.labels[self.table[self.domain.index(label)]]


def fn_from_map(domain: StateSet, mapping: dict, name: Optional[str] = None) -> TransitionFunction:
    """Build a function from a label-to-label dict; every state must appear."""
    missing = [s for s in domain.labels if s not in mapping]
    if missing:
        raise TotalityViolationError(f"no image given for states: {missing}")
    table = tuple(domain.index(mapping[s]) for s in domain.labels)
    return TransitionFunction(domain, table, name)


def identity_fn(domain: StateSet, name: Optional[str] = "id") -> TransitionFunction:
    return TransitionFunction(domain, tuple(range(len(domain))), name)


def _unwrap(state_set: StateSet, items: Iterable) -> tuple[tuple, tuple]:
    """Tables and names of ``items``: bare tables (named None), or else
    TransitionFunctions on ``state_set``.  The one place a function becomes a table."""
    items = tuple(items)
    if TransitionFunction not in set(map(type, items)):
        return tuple(map(tuple, items)), (None,) * len(items)
    tables, names = [], []
    for f in items:
        if f.domain is not state_set and f.domain != state_set:
            raise InvalidMachineError("all functions must share the machine's state set")
        tables.append(f.table)
        names.append(f.name)
    return tuple(tables), tuple(names)


@dataclass(frozen=True)
class Machine:
    """A state set with a realizable set of transition functions.

    ``tables`` holds one index table per function, sorted and duplicate-free
    (see :func:`make_machine`); TransitionFunctions on ``states`` may stand in.
    ``function_names[i]``, never compared, names ``tables[i]``.  Reductions and
    isomorphism never consult ``output_functions``, the output decoders' indices.
    """

    states: StateSet
    tables: tuple[tuple[int, ...], ...]
    output_functions: frozenset[int] = frozenset()
    name: Optional[str] = field(default=None, compare=False)
    function_names: tuple[Optional[str], ...] = field(default=(), compare=False)

    def __post_init__(self):
        tables, names = _unwrap(self.states, self.tables)
        if not tables:
            raise InvalidMachineError("a machine needs at least one transition function")
        names = tuple(self.function_names) or names
        if len(names) != len(tables):
            raise InvalidMachineError(f"{len(names)} function names for {len(tables)} tables")
        _check_tables(tables, len(self.states.labels))
        if any(map(operator.ge, tables, tables[1:])):
            raise InvalidMachineError(
                "functions must be duplicate-free and in canonical table order; use make_machine"
            )
        for i in self.output_functions:
            if not 0 <= i < len(tables):
                raise InvalidMachineError(f"output designation {i} is out of range")
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "function_names", names)

    @cached_property
    def functions(self) -> tuple[TransitionFunction, ...]:
        """The tables as TransitionFunctions, built once on first access and
        not checked again: the tables are."""
        fns = tuple(object.__new__(TransitionFunction) for _ in self.tables)
        for f, t, nm in zip(fns, self.tables, self.function_names):
            f.__dict__.update(domain=self.states, table=t, name=nm)
        return fns

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_functions(self) -> int:
        return len(self.tables)

    def has_full_function_set(self) -> bool:
        return self.n_functions == self.n_states**self.n_states

    def function_index(self, f: TransitionFunction) -> int:
        """Position of ``f``, by bisection over the sorted tables."""
        i = bisect_left(self.tables, f.table)
        if i == len(self.tables) or self.tables[i] != f.table or f.domain != self.states:
            raise KeyError("function is not part of this machine")
        return i


def _assemble(
    state_set: StateSet, pairs: Iterable, outputs: Iterable = (), name: Optional[str] = None
) -> Machine:
    """The machine of the ``(table, name)`` pairs: extensional duplicates
    collapse (first name wins), tables sort lexicographically, and each
    output table resolves to its position."""
    by_table: dict[tuple[int, ...], Optional[str]] = {}
    for t, nm in pairs:
        by_table.setdefault(t, nm)
    tables = sorted(by_table)
    outputs = set(outputs)
    position = {t: i for i, t in enumerate(tables)} if outputs else {}
    if not outputs <= position.keys():
        raise InvalidMachineError("output designation is not one of the machine's functions")
    names = tuple(map(by_table.get, tables))
    return Machine(state_set, tuple(tables), frozenset(map(position.get, outputs)), name, names)


def make_machine(
    state_set: StateSet,
    fns: Iterable[TransitionFunction],
    outputs: Iterable[TransitionFunction] = (),
    name: Optional[str] = None,
) -> Machine:
    """Canonical Machine constructor: extensional duplicates collapse (first
    name wins), tables sort lexicographically, and output designations resolve
    against the collapsed set.  Functions and outputs must be on ``state_set``."""
    tables, names = _unwrap(state_set, fns)
    return _assemble(state_set, zip(tables, names), _unwrap(state_set, outputs)[0], name)


def full_machine(state_set: StateSet) -> Machine:
    """The machine carrying all ``n**n`` transition functions on ``state_set``."""
    n = len(state_set)
    if n**n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationTooLargeError("full transition set", n**n, DEFAULT_ENUMERATION_CAP)
    # Lexicographic table order is already canonical and duplicate-free.
    return Machine(state_set, tuple(itertools.product(range(n), repeat=n)))


def full_bijection_machine(state_set: StateSet) -> Machine:
    """The machine whose realizable set is exactly all bijections on S.

    A strict subset of the full function set for |S| >= 2, and closed under
    conjugation by any state bijection, which is what blocks isomorphisms
    to machines holding any non-invertible function.
    """
    size = math.factorial(len(state_set))
    if size > DEFAULT_ENUMERATION_CAP:
        raise EnumerationTooLargeError("bijection set", size, DEFAULT_ENUMERATION_CAP)
    return Machine(state_set, tuple(itertools.permutations(range(len(state_set)))))


# ---------------------------------------------------------------------------
# Iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Halted:
    """Reached a state fixed by the function: the machine's halt condition."""

    state: str
    steps: int
    trajectory: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class Cycled:
    """Entered a cycle of length > 1; no fixed point is reachable from here."""

    cycle_length: int
    entry_step: int
    trajectory: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class StepLimit:
    """Neither halted nor provably cycling within the allowed steps."""

    steps: int
    trajectory: Optional[tuple[str, ...]] = None


RunResult = Union[Halted, Cycled, StepLimit]


def run_to_fixpoint(
    f: TransitionFunction,
    start: str,
    max_steps: int,
    record_trajectory: bool = False,
) -> RunResult:
    """Iterate ``f`` from ``start`` until a fixed point, a cycle, or the cap.

    On a finite domain every orbit reaches its cycle within ``len(domain)``
    steps, so ``max_steps >= len(f.domain)`` guarantees a definite outcome.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    try:  # one scan, so a state set never queried builds no label dict
        current = f.domain.labels.index(start)
    except ValueError:
        current = f.domain.index(start)  # raises the usual DomainMismatchError
    first_seen = {current: 0}
    path = [current] if record_trajectory else None
    steps = 0
    while True:
        nxt = f.table[current]
        if nxt == current:
            traj = _labels(f.domain, path) if path is not None else None
            return Halted(f.domain.labels[current], steps, traj)
        if steps == max_steps:
            traj = _labels(f.domain, path) if path is not None else None
            return StepLimit(steps, traj)
        steps += 1
        current = nxt
        if path is not None:
            path.append(current)
        if current in first_seen:
            traj = _labels(f.domain, path) if path is not None else None
            return Cycled(steps - first_seen[current], first_seen[current], traj)
        first_seen[current] = steps


def _labels(domain: StateSet, path: Sequence[int]) -> tuple[str, ...]:
    return tuple(domain.labels[i] for i in path)
