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
from collections import Counter, abc
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import (
    DEFAULT_ENUMERATION_CAP,
    DomainMismatchError,
    EnumerationTooLargeError,
    InvalidMachineError,
    TotalityViolationError,
    _Value,
)


class StateSet(_Value):
    """Ordered collection of distinct state labels.

    The construction order is fixed and drives every deterministic
    enumeration and witness in the package.  Lookups use a label-to-index
    dict built on first use, so sets never queried cost only their labels: a
    tuple, or a compiled machine's :class:`_ProductLabels`, which ``tuple()`` lists.
    """

    labels: Sequence[str]

    def __init__(self, labels):
        if len(labels) == 0:
            raise InvalidMachineError("a state set needs at least one state")
        if not isinstance(labels, _ProductLabels) and len(set(labels)) != len(labels):
            dupes = sorted(s for s, c in Counter(labels).items() if c > 1)
            raise InvalidMachineError(f"duplicate state labels: {dupes}")
        self._store(labels)

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    @cached_property
    def _positions(self) -> dict:
        return dict(zip(self.labels, range(len(self.labels))))

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
    """Raise TotalityViolationError unless every table maps range(n) into
    itself by int entries (a float 1.0 equals 1 but indexes nothing)."""
    for table in tables:
        if len(table) != n:
            raise TotalityViolationError(f"table has {len(table)} entries for {n} states")
        for k, j in enumerate(table):
            if not isinstance(j, int):
                raise TotalityViolationError(f"entry {k} is {j!r}, not an integer state index")
            if not 0 <= j < n:
                raise TotalityViolationError(f"entry {k} maps to index {j}, outside the {n}-state domain")


class TransitionFunction(_Value):
    """A total self-map on a state set, stored as an index table.

    ``table[i]`` is the index of the image of state ``i``.  Equality and
    hashing ignore the display name: functions are their mappings.
    """

    domain: StateSet
    table: tuple[int, ...]
    name: Optional[str]

    def __init__(self, domain, table, name=None):
        _check_tables((table,), len(domain))
        if name is not None and not isinstance(name, str):
            raise InvalidMachineError(f"function name {name!r} is not a string or None")
        self._store(domain, table, name)

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
    """Tables and names of ``items``: bare tables (named None), checked here,
    or else TransitionFunctions on ``state_set``, which checked their own.
    The one place a function becomes a table."""
    items = tuple(items)
    kinds = set(map(type, items))
    if TransitionFunction not in kinds:
        tables = tuple(map(tuple, items))
        _check_tables(tables, len(state_set.labels))
        return tables, (None,) * len(items)
    if len(kinds) > 1:
        raise InvalidMachineError("functions must be all TransitionFunctions or all bare tables")
    tables, names = [], []
    for f in items:
        if f.domain is not state_set and f.domain != state_set:
            raise InvalidMachineError("all functions must share the machine's state set")
        tables.append(f.table)
        names.append(f.name)
    return tuple(tables), tuple(names)


def _function(domain: StateSet, table: tuple[int, ...], name: Optional[str]) -> TransitionFunction:
    """A TransitionFunction on a table already checked against ``domain``."""
    f = object.__new__(TransitionFunction)
    f.__dict__.update(domain=domain, table=table, name=name)
    return f


def _numeral(table: Sequence[int], n: int) -> int:
    """``table`` read as a base-n numeral: its index among all n**n tables in
    lexicographic order."""
    i = 0
    for j in table:
        i = i * n + j
    return i


# The read-only sequences below register as Sequences rather than inherit
# from it, so that isinstance tests against them stay as fast as for any class.
@abc.Sequence.register
class _Lookup:
    """The sequence methods that follow from ``size``, ``_decode(i)``,
    ``index`` and ``__iter__``, for sequences that hold each item at most once."""

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._decode, range(self.size)[i]))
        return self._decode(self.position(i))

    def position(self, i) -> int:
        """``i`` as an index in ``range(size)``, counting from the end if negative."""
        i = operator.index(i)
        if not -self.size <= i < self.size:
            raise IndexError(f"{type(self).__name__} index out of range")
        return i % self.size

    def __contains__(self, x) -> bool:
        try:
            self.index(x)
        except ValueError:
            return False
        return True

    def count(self, x) -> int:
        return int(x in self)

    def __reversed__(self):
        return reversed(tuple(self))


class _ImplicitTables(_Lookup):
    """Every table of one kind on ``n`` states, in lexicographic order,
    computed on demand: ``[i]`` decodes i, :meth:`index` encodes a table,
    and ``==`` and ``hash`` are those of the explicit tuple.  Any whole read
    (iteration, reversal, ``tuple``, ``set``, ``hash``) of more than
    DEFAULT_ENUMERATION_CAP tables raises EnumerationTooLargeError at the
    call.  ``form`` is the kind's word in ``.mx`` text, ``what`` its name in
    that error.  ``size`` is exact where ``len()`` overflows (above
    ``sys.maxsize``)."""

    def __init__(self, n: int):
        self.n = n

    def index(self, table) -> int:
        n = self.n
        if isinstance(table, tuple) and len(table) == n and all(
            isinstance(j, int) and 0 <= j < n for j in table
        ):
            i = self._encode(table)
            if i is not None:
                return i
        raise ValueError(f"{table!r} is not in the {self.what}")

    def name(self, i) -> Optional[str]:
        """``f<i>``, or None where i has more digits than Python writes as text."""
        try:
            return f"f{self.position(i)}"
        except ValueError:
            return None

    def __eq__(self, other):
        if isinstance(other, _ImplicitTables):  # on one state, both kinds hold one table
            return self.n == other.n and (type(self) is type(other) or self.n == 1)
        if isinstance(other, tuple):
            return len(other) == self.size and all(map(operator.eq, self, other))
        return NotImplemented

    def __iter__(self):
        if self.size > DEFAULT_ENUMERATION_CAP:
            raise EnumerationTooLargeError(self.what, self.size)
        return self._unlisted()

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n})"


class _AllTables(_ImplicitTables):
    """All n**n tables; a table's index is its base-n numeral."""

    form, what = "all", "full transition set"

    @cached_property
    def size(self) -> int:
        return self.n**self.n

    def _unlisted(self):
        return itertools.product(range(self.n), repeat=self.n)

    def _decode(self, i: int) -> tuple[int, ...]:
        n, table = self.n, [0] * self.n
        for s in reversed(range(n)):
            i, table[s] = divmod(i, n)
        return tuple(table)

    def _encode(self, table: tuple[int, ...]) -> int:
        return _numeral(table, self.n)


class _Bijections(_ImplicitTables):
    """All n! bijections; a bijection's index is its Lehmer code, the count
    of smaller entries to the right of each position in mixed radix."""

    form, what = "bijections", "bijection set"

    @cached_property
    def size(self) -> int:
        return math.factorial(self.n)

    def _unlisted(self):
        return itertools.permutations(range(self.n))

    def _decode(self, i: int) -> tuple[int, ...]:
        codes = []
        for radix in range(1, self.n + 1):  # the last position first
            i, c = divmod(i, radix)
            codes.append(c)
        rest = list(range(self.n))
        return tuple(rest.pop(c) for c in reversed(codes))

    def _encode(self, table: tuple[int, ...]) -> Optional[int]:
        if len(set(table)) != self.n:
            return None
        rest, i = list(range(self.n)), 0
        for radix, j in zip(range(self.n, 0, -1), table):
            c = rest.index(j)
            del rest[c]
            i = i * radix + c
        return i


def _as_listed(op):
    """``op`` on the tuple a listed view lists and ``other``, or the tuple
    ``other`` lists if it is a listed view too."""
    def on_listings(self, other):
        return op(self._listing, other._listing if isinstance(other, _Listed) else other)
    return on_listings


class _Listed(_Lookup):
    """A sequence computed item by item, and listed once when read whole.

    A subclass gives ``size``, ``_decode(i)``, item i alone, and
    ``_write()``, every item in order.  ``[i]`` decodes; the first whole
    read (iteration, ``tuple``, ``hash``, ``==``, ordering, ``+``) writes
    the items once and keeps the tuple, whose ``==``, ``hash`` and order
    these are.  From then on ``[i]`` reads the tuple, and
    ``view.__getitem__`` is the tuple's own, so a reader that binds it
    once, as ``map(view.__getitem__, ...)``, pays what a tuple does.
    """

    @cached_property
    def _listing(self) -> tuple:
        listing = tuple(self._write())
        self.__getitem__ = listing.__getitem__  # found before the class's by v.__getitem__
        return listing

    def __getitem__(self, i):  # v[i], which finds the class's method, not the tuple's
        listing = self.__dict__.get("_listing")
        return _Lookup.__getitem__(self, i) if listing is None else listing[i]

    def __iter__(self):
        return iter(self._listing)

    def __hash__(self) -> int:
        return hash(self._listing)

    __eq__, __lt__, __le__, __gt__, __ge__, __add__ = map(
        _as_listed, (operator.eq, operator.lt, operator.le, operator.gt, operator.ge, operator.add)
    )


class _ProductLabels(_Listed):
    """State labels of one token per axis, joined, decoded on demand.

    Label i reads i in mixed radix, the first axis most significant, in
    ``itertools.product`` order; the ``extra`` labels follow.  Each token of
    an axis but the last ends in the axis's separator and holds it nowhere
    else, so a label splits into tokens one way only, and the labels are
    distinct once each axis's tokens are: the constructor checks both in
    O(total tokens).  :meth:`index` parses a label and reversal decodes;
    ``==`` is O(1) on the same axes or another length (see :class:`_Listed`).
    """

    def __init__(self, axes: Iterable[Sequence[str]], extra: Sequence[str] = ()):
        self.axes, self.extra = tuple(map(tuple, axes)), ()  # no extras until checked below
        self._ranks = [{t: r for r, t in enumerate(axis)} for axis in self.axes]
        self._seps = [axis[0][-1:] if axis else "" for axis in self.axes[:-1]] + [None]
        self._product = math.prod(map(len, self.axes))
        if any(map(operator.ne, map(len, self._ranks), map(len, self.axes))) or not all(
            t.find(sep) == len(t) - 1 >= 0 for axis, sep in zip(self.axes, self._seps[:-1]) for t in axis
        ) or len(set(extra)) != len(extra) or any(x in self for x in extra):
            raise InvalidMachineError(f"label axes {self.axes!r} and extras {tuple(extra)!r} repeat"
                                      " a label, or a token does not end in its axis's one separator")
        self.extra, self.size = tuple(extra), self._product + len(extra)

    def _decode(self, i: int) -> str:
        if i >= self._product:
            return self.extra[i - self._product]
        parts = []
        for axis in reversed(self.axes):
            i, r = divmod(i, len(axis))
            parts.append(axis[r])
        return "".join(reversed(parts))

    def index(self, label) -> int:
        if label in self.extra:  # never a product label, as checked when built
            return self._product + self.extra.index(label)
        if not isinstance(label, str):
            raise ValueError(f"{label!r} is not a label")
        i = start = 0
        for ranks, sep in zip(self._ranks, self._seps):
            end = label.find(sep, start) + 1 if sep is not None else None
            r = ranks.get(label[start:end]) if end != 0 else None
            if r is None:
                raise ValueError(f"{label!r} is not one of these labels")
            i, start = i * len(ranks) + r, end
        return i

    def _write(self) -> tuple[str, ...]:
        # Each half's labels first, so that a label costs one concatenation.
        mid = len(self.axes) // 2
        halves = (self.axes[:mid], self.axes[mid:])
        left, right = (list(map("".join, itertools.product(*half))) for half in halves)
        return (*[a + b for a in left for b in right], *self.extra)

    def __reversed__(self):
        return map(self._decode, reversed(range(self.size)))

    def __eq__(self, other):
        if isinstance(other, (tuple, _ProductLabels)) and len(other) != self.size:
            return False
        same_axes = isinstance(other, _ProductLabels) and (self.axes, self.extra) == (other.axes, other.extra)
        return same_axes or _Listed.__eq__(self, other)

    __hash__ = _Listed.__hash__  # which defining __eq__ would unset

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.axes!r}, {self.extra!r})"


class _StepTable(_Listed):
    """A compiled machine's one table, computed on demand from plain data:
    a :class:`_Listed` view of int entries, which repeat."""

    def index(self, j) -> int:
        return self._listing.index(j)

    def count(self, j) -> int:  # entries repeat, unlike _Lookup's items
        return self._listing.count(j)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={self.size})"


class _Functions(_Lookup):
    """``Machine.functions``: the TransitionFunction at each index, built only
    when asked for and not checked again, since the tables are.  ``name_at(i)``
    names function i without building it: a listed name, or else ``f<i>``."""

    def __init__(self, m: Machine):  # no reference to m, which caches this view
        self.domain, self.tables, self.size = m.states, m.tables, m.n_functions
        self.name_at = _names(m)

    def _decode(self, i: int) -> TransitionFunction:
        return _function(self.domain, self.tables[i], self.name_at(i))

    def __iter__(self):
        names = map(self.name_at, range(self.size))
        return map(_function, itertools.repeat(self.domain), self.tables, names)

    def index(self, f) -> int:
        """Position of ``f``: its encoding in implicit tables, else by
        bisection over the sorted tables."""
        tables = self.tables
        if isinstance(f, TransitionFunction) and f.domain == self.domain:
            if isinstance(tables, _ImplicitTables):
                return tables.index(f.table)
            i = bisect_left(tables, f.table)
            if i < len(tables) and tables[i] == f.table:
                return i
        raise ValueError("function is not part of this machine")

    def __eq__(self, other):
        if isinstance(other, _Functions):  # O(1) for implicit tables
            return self.domain == other.domain and self.tables == other.tables
        if isinstance(other, tuple):
            return len(other) == self.size and all(map(operator.eq, self, other))
        return NotImplemented


class Machine(_Value):
    """A state set with a realizable set of transition functions.

    ``tables`` holds one index table per function, sorted and duplicate-free
    (see :func:`make_machine`); TransitionFunctions on ``states`` may stand in.
    ``function_names[i]``, a string or None and never compared, names
    ``tables[i]``.  The full and bijection machines hold their tables
    implicitly (see :func:`full_machine`), with no listed names: their
    function i is ``f<i>``.  A compiled machine's one table is a
    :class:`_StepTable`, computed on demand.
    """

    states: StateSet
    tables: Sequence[tuple[int, ...]]
    function_names: Sequence[Optional[str]]
    name: Optional[str]

    def __init__(self, states, tables, function_names=(), name=None):
        if isinstance(tables, _ImplicitTables):
            if tables.n != len(states.labels) or function_names:
                raise InvalidMachineError("implicit tables cover the machine's own states and carry no names")
            self._store(states, tables, (), name)
            return
        tables, names = _unwrap(states, tables)
        if not tables:
            raise InvalidMachineError("a machine needs at least one transition function")
        names = tuple(function_names) or names
        if len(names) != len(tables):
            raise InvalidMachineError(f"{len(names)} function names for {len(tables)} tables")
        for nm in names:
            if nm is not None and not isinstance(nm, str):
                raise InvalidMachineError(f"function name {nm!r} is not a string or None")
        if any(map(operator.ge, tables, tables[1:])):
            raise InvalidMachineError(
                "functions must be duplicate-free and in canonical table order; use make_machine"
            )
        self._store(states, tables, names, name)

    @cached_property
    def functions(self) -> _Functions:
        """The functions as a read-only sequence of TransitionFunctions."""
        return _Functions(self)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_functions(self) -> int:
        tables = self.tables
        return tables.size if isinstance(tables, _ImplicitTables) else len(tables)

    def has_full_function_set(self) -> bool:
        n = self.n_states  # n**n tables listed one by one need n < 16
        return isinstance(self.tables, _AllTables) or n < 16 and self.n_functions == n**n


def _names(m: Machine) -> Callable[[int], Optional[str]]:
    """The name of each function of ``m`` by index: listed, or else ``f<i>``."""
    return m.function_names.__getitem__ if m.function_names else m.tables.name


def _assemble(state_set: StateSet, pairs: Iterable, name: Optional[str] = None) -> Machine:
    """The machine of the ``(table, name)`` pairs, whose tables are already
    checked: extensional duplicates collapse (first name wins) and tables
    sort lexicographically."""
    pairs = list(pairs)  # one pair is stored as it stands: unhashed, a step table stays unwritten
    if len(pairs) > 1:  # reversed, so a table's first name wins; distinct tables: names never compared
        pairs = sorted(dict(reversed(pairs)).items())
    if not pairs:
        raise InvalidMachineError("a machine needs at least one transition function")
    tables, names = zip(*pairs)
    m = object.__new__(Machine)  # canonical by construction: no second check
    m._store(state_set, tables, names, name)  # as __init__ stores them
    return m


def make_machine(
    state_set: StateSet, fns: Iterable[TransitionFunction], *, name: Optional[str] = None
) -> Machine:
    """Canonical Machine constructor: extensional duplicates collapse (first
    name wins) and tables sort lexicographically.  Functions must be on
    ``state_set``; bare tables in ``fns`` are checked here, functions were
    when built."""
    tables, names = _unwrap(state_set, fns)
    return _assemble(state_set, zip(tables, names), name)


def full_machine(state_set: StateSet) -> Machine:
    """The machine carrying all ``n**n`` transition functions on ``state_set``.

    Built in O(1): its tables are computed on demand, and a table's index
    is its base-n numeral.  Any whole read of its tables or functions
    (isomorphism search, search-path completeness, state reduction) refuses
    more than DEFAULT_ENUMERATION_CAP of them.
    """
    return Machine(state_set, _AllTables(len(state_set)))


def full_bijection_machine(state_set: StateSet) -> Machine:
    """The machine whose realizable set is exactly all bijections on S.

    A strict subset of the full function set for |S| >= 2, and closed under
    conjugation by any state bijection, which is what blocks isomorphisms
    to machines holding any non-invertible function.  Built in O(1) like
    :func:`full_machine`; a bijection's index is its Lehmer code.
    """
    return Machine(state_set, _Bijections(len(state_set)))


# ---------------------------------------------------------------------------
# Iteration
# ---------------------------------------------------------------------------


class Halted(_Value):
    """Reached a state fixed by the function: the machine's halt condition."""

    state: str
    steps: int
    trajectory: Optional[tuple[str, ...]]

    def __init__(self, state, steps, trajectory=None):
        self._store(state, steps, trajectory)


class Cycled(_Value):
    """Entered a cycle of length > 1; no fixed point is reachable from here."""

    cycle_length: int
    entry_step: int
    trajectory: Optional[tuple[str, ...]]

    def __init__(self, cycle_length, entry_step, trajectory=None):
        self._store(cycle_length, entry_step, trajectory)


class StepLimit(_Value):
    """Neither halted nor provably cycling within the allowed steps."""

    steps: int
    trajectory: Optional[tuple[str, ...]]

    def __init__(self, steps, trajectory=None):
        self._store(steps, trajectory)


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
    try:  # a scan, or a parse, so a state set never queried builds no label dict
        current = f.domain.labels.index(start)
    except ValueError:
        current = f.domain.index(start)  # raises the usual DomainMismatchError
    first_seen = {current: 0}  # the states visited, in order
    step, steps, label = f.table.__getitem__, 0, f.domain.labels.__getitem__
    after = step(current)  # each entry is read once: a compiled table computes it
    while after != current and steps < max_steps:
        steps += 1
        current = after
        if current in first_seen:
            entry = first_seen[current]
            traj = tuple(map(label, [*first_seen, current])) if record_trajectory else None
            return Cycled(steps - entry, entry, traj)
        first_seen[current] = steps
        after = step(current)
    traj = tuple(map(label, first_seen)) if record_trajectory else None
    if after == current:
        return Halted(label(current), steps, traj)
    return StepLimit(steps, traj)
