"""Independent brute-force reference implementations.

Nothing here shares logic with the package's search, reduction or compiler
code: the isomorphism oracle tries every state bijection against every
function bijection with no pruning, no induced mapping, no ordering tricks,
the embedding oracle tries every subset and bijection on raw tables with no
invariants, the state-reduction oracle filters and re-indexes raw tables by hand, and
the memory-cell compiler oracle steps every aggregate state through the
direct interpreter ``mem_step`` instead of compile_mem's index arithmetic.
"""

from __future__ import annotations

import itertools
from typing import Optional

from machalg import (
    Machine,
    MemProgram,
    MemState,
    MemStateCodec,
    StateSet,
    TransitionFunction,
    mem_step,
)


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
