"""Finite abstract machines: state sets, total self-maps, and iteration.

A machine is a finite ordered state set together with a non-empty set of
transition functions, each a total map from the state set to itself.
Functions are extensional: two constructions with the same lookup table are
the same function, whatever expressions produced them.  All values here are
immutable and all operations are pure, so everything is safe to share.
"""

from __future__ import annotations

import itertools
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
        n = len(self.domain)
        if len(self.table) != n:
            raise TotalityViolationError(
                f"table has {len(self.table)} entries for {n} states"
            )
        for i, j in enumerate(self.table):
            if not 0 <= j < n:
                raise TotalityViolationError(
                    f"entry {i} maps to index {j}, outside the {n}-state domain"
                )

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


def constant_fn(domain: StateSet, target: str, name: Optional[str] = None) -> TransitionFunction:
    i = domain.index(target)
    return TransitionFunction(domain, (i,) * len(domain), name)


def is_fixed_point(f: TransitionFunction, state: str) -> bool:
    i = f.domain.index(state)
    return f.table[i] == i


@dataclass(frozen=True)
class Machine:
    """A state set with a realizable set of transition functions.

    ``functions`` is canonically ordered (lexicographic by table) with
    extensional duplicates removed; construct through :func:`make_machine`.
    ``output_functions`` holds indices of functions designated as output
    decoders; the designation is bookkeeping and plays no role in equality
    of behaviour questions (reductions, isomorphism).
    """

    states: StateSet
    functions: tuple[TransitionFunction, ...]
    output_functions: frozenset[int] = frozenset()
    name: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        if not self.functions:
            raise InvalidMachineError("a machine needs at least one transition function")
        tables = [f.table for f in self.functions]
        for f in self.functions:
            if f.domain != self.states:
                raise InvalidMachineError("all functions must share the machine's state set")
        if sorted(tables) != list(tables) or len(set(tables)) != len(tables):
            raise InvalidMachineError(
                "functions must be duplicate-free and in canonical table order; "
                "use make_machine"
            )
        for i in self.output_functions:
            if not 0 <= i < len(self.functions):
                raise InvalidMachineError(f"output designation {i} is out of range")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    def has_full_function_set(self) -> bool:
        return self.n_functions == self.n_states**self.n_states

    def function_named(self, name: str) -> TransitionFunction:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")

    def function_index(self, f: TransitionFunction) -> int:
        """Position of ``f``, by bisection over the table-sorted functions."""
        i = bisect_left(self.functions, f.table, key=lambda g: g.table)
        if i == len(self.functions) or self.functions[i] != f:
            raise KeyError("function is not part of this machine")
        return i


def make_machine(
    state_set: StateSet,
    fns: Iterable[TransitionFunction],
    outputs: Iterable[TransitionFunction] = (),
    name: Optional[str] = None,
) -> Machine:
    """Canonical Machine constructor.

    Collapses extensional duplicates (first name wins), sorts functions
    lexicographically by table, and resolves output designations against the
    collapsed set.
    """
    fns = list(fns)
    if not fns:
        raise InvalidMachineError("a machine needs at least one transition function")
    by_table: dict[tuple[int, ...], TransitionFunction] = {}
    for f in fns:
        if f.domain != state_set:
            raise InvalidMachineError("all functions must share the machine's state set")
        by_table.setdefault(f.table, f)
    position = {t: i for i, t in enumerate(sorted(by_table))}
    canonical = tuple(by_table[t] for t in position)
    out_indices = set()
    for f in outputs:
        if f.table not in position:
            raise InvalidMachineError("output designation is not one of the machine's functions")
        out_indices.add(position[f.table])
    return Machine(state_set, canonical, frozenset(out_indices), name)


def full_machine(
    state_set: StateSet, cap: int = DEFAULT_ENUMERATION_CAP, name: Optional[str] = None
) -> Machine:
    """The machine carrying all ``n**n`` transition functions on ``state_set``."""
    n = len(state_set)
    if n**n > cap:
        raise EnumerationTooLargeError("full transition set", n**n, cap)
    # Lexicographic table order is already canonical and duplicate-free.
    fns = (TransitionFunction(state_set, t) for t in itertools.product(range(n), repeat=n))
    return Machine(state_set, tuple(fns), frozenset(), name)


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
