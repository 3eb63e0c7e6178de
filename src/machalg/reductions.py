"""Reductions that carve smaller machines out of larger ones.

Two primitive moves:

* functional reduction drops transition functions while keeping every state;
* state reduction keeps a subset of states, retaining exactly the
  restrictions of those functions that map the subset into itself.

A sub-machine is the result of a functional reduction followed by a state
reduction.  Every state reduction, whether replayed, searched or literal,
is assembled by :func:`_state_witness` from (index, restriction) hits.
State labels are matched literally here; matching up to renaming is
isomorphism territory.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    EmptyReductionError,
    InvalidMachineError,
    InvalidReductionError,
    _Value,
    decimal_digits,
)
from .machine import Machine, StateSet, TransitionFunction, _assemble, _names


class Reduction(_Value):
    """Witness for one reduction step.

    kind "functional": ``kept_functions`` holds indices into
    ``source.tables``.  kind "state": ``kept_states`` holds the retained
    labels in result order.  ``result`` is the reduced machine either way.
    """

    kind: str
    source: Machine
    result: Machine
    kept_functions: tuple[int, ...]
    kept_states: tuple[str, ...]

    def __init__(self, kind, source, result, kept_functions=(), kept_states=()):
        if kind not in ("functional", "state"):
            raise InvalidReductionError(f"unknown reduction kind {kind!r}")
        if kind == "functional" and not kept_functions:
            raise InvalidReductionError("functional reduction witness lists no functions")
        if kind == "state" and not kept_states:
            raise InvalidReductionError("state reduction witness lists no states")
        self._store(kind, source, result, kept_functions, kept_states)


def _reduction(kind, source, result, kept_functions=(), kept_states=()) -> Reduction:
    """A Reduction of fields this module built valid: stored unchecked."""
    r = object.__new__(Reduction)
    r._store(kind, source, result, kept_functions, kept_states)
    return r


def functional_reduction(m: Machine, keep: Iterable[Union[int, TransitionFunction]]) -> Reduction:
    """Keep only the functions at the indices ``keep``; the state set is
    untouched.  An item may also be one of ``m``'s own functions, which
    keeps its table rather than decoding it again."""
    given: dict[int, Optional[tuple[int, ...]]] = {}  # index -> the table given with it
    for f in keep:
        if isinstance(f, TransitionFunction):
            try:
                given[m.functions.index(f)] = f.table
            except ValueError:
                raise InvalidReductionError(
                    "functional reduction may only keep functions the machine already has"
                ) from None
        elif type(f) is int:  # a bool is an int to isinstance
            given.setdefault(f, None)
        else:
            raise TypeError("function indices must be integers")
    kept = tuple(sorted(given))
    if not kept:
        raise InvalidMachineError("a machine cannot keep zero transition functions")
    if not 0 <= kept[0] <= kept[-1] < m.n_functions:
        try:
            bound = f"0..{m.n_functions - 1}"
        except ValueError:  # more digits than Python writes as text
            bound = f"0..(a {decimal_digits(m.n_functions - 1)}-digit number)"
        raise IndexError(f"function index out of range {bound}")
    tables = tuple(given[i] or m.tables[i] for i in kept)  # ascending over sorted tables: canonical
    result = object.__new__(Machine)  # as _assemble stores it, with nothing to dedupe or sort
    result._store(m.states, tables, tuple(map(_names(m), kept)), m.name)
    return _reduction("functional", m, result, kept_functions=kept)


def _restrictions(m: Machine, kept: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(i, table)`` for each function ``i`` of ``m`` mapping the states at
    indices ``kept`` into themselves, ``table`` re-indexed by position in
    ``kept``: the one place a table is restricted to a state subset."""
    position = {s: p for p, s in enumerate(kept)}.get
    for i, table in enumerate(m.tables):
        image = tuple(map(position, map(table.__getitem__, kept)))
        if None not in image:
            yield i, image


def state_reduction(m: Machine, keep_states: Sequence[str]) -> Reduction:
    """Shrink to ``keep_states``; the result is unique given the subset.

    Keeps exactly the restrictions of functions preserving the subset,
    extensional duplicates collapsed.  The given label order becomes the
    reduced machine's state order.
    """
    keep_states = tuple(keep_states)
    if not keep_states:
        raise InvalidReductionError("a state reduction must keep at least one state")
    try:
        kept = list(map(m.states._positions.__getitem__, keep_states))
    except (KeyError, TypeError):  # a label not in the machine, hashable or not
        foreign = [s for s in keep_states if s not in m.states]
        raise InvalidReductionError(f"states not in the machine: {foreign}") from None
    return _state_witness(m, keep_states, _restrictions(m, kept), m)


def _state_witness(m: Machine, labels: tuple, hits: Iterable, origin: Machine) -> Reduction:
    """The state reduction of ``m`` to ``labels`` keeping the restrictions in
    ``hits``, ``(i, table)`` pairs named by ``origin``'s function ``i`` (the
    first wins where two share a table): the one state-reduction assembler."""
    sub, name = StateSet(labels), _names(origin)  # validates distinctness
    restricted = [(t, name(i)) for i, t in hits]
    if not restricted:
        raise EmptyReductionError(
            f"no transition function preserves {list(labels)}; "
            "the reduction would leave an empty function set"
        )
    return _reduction("state", m, _assemble(sub, restricted, name=m.name), kept_states=labels)


def sub_machine(
    m: Machine, kept_functions: Iterable[int], kept_states: Sequence[str]
) -> tuple[Reduction, Reduction]:
    """Keep ``m``'s functions at the indices ``kept_functions``, then the
    states ``kept_states``; returns both witnesses, the second one's
    ``result`` being the sub-machine.  Every checker replays a witness through
    here; the searches (:func:`is_sub_machine`, ``is_complete``) assemble the
    same pair from the restrictions they already found."""
    fr = functional_reduction(m, kept_functions)
    return fr, state_reduction(fr.result, kept_states)


def is_sub_machine(a: Machine, b: Machine) -> Optional[tuple[Reduction, Reduction]]:
    """Witness that ``b`` arises from ``a`` by the two reductions, or None.

    Labels are literal, so the only candidate state subset is ``b``'s own
    label set.  ``b`` qualifies exactly when each of its functions is the
    restriction of some function of ``a`` preserving that subset.  The
    returned functional reduction keeps every function of ``a`` whose
    restriction lands in ``b``'s function set, which makes the witness
    canonical (it is the same for every run).
    """
    labels = tuple(b.states.labels)
    positions = list(map(a.states._positions.get, labels))
    if None in positions:
        return None
    wanted = set(b.tables)
    hits = [(i, t) for i, t in _restrictions(a, positions) if t in wanted]
    if {t for _, t in hits} != wanted:
        return None
    fr = functional_reduction(a, [i for i, _ in hits])
    # fr.result keeps a's sorted tables in a's order, so hits are in its order too
    return fr, _state_witness(fr.result, labels, hits, a)
