"""Shared randomized generators; everything is seeded and deterministic."""

from __future__ import annotations

import itertools
import random


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdict lines after the usual test output."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)

from machalg import (
    BoundaryPolicy,
    Machine,
    MemEntry,
    MemProgram,
    Move,
    StateSet,
    TmConfiguration,
    TransitionFunction,
    TuringSpec,
    make_machine,
)

MOVES = (Move.LEFT, Move.RIGHT, Move.STAY)


def random_turing_spec(
    rng: random.Random,
    max_registers: int = 3,
    max_symbols: int = 2,
    max_cells: int = 4,
    rule_density: float = 0.85,
) -> TuringSpec:
    k = rng.randint(1, max_registers)
    registers = tuple(f"q{i}" for i in range(k))
    m = rng.randint(1, max_symbols)
    symbols = tuple(str(i) for i in range(m))
    n = rng.randint(1, max_cells)
    halting = frozenset(r for r in registers if rng.random() < 0.25)
    rules = {}
    for r in registers:
        if r in halting:
            continue
        for s in symbols:
            if rng.random() < rule_density:
                rules[(r, s)] = (
                    rng.choice(registers),
                    rng.choice(symbols),
                    rng.choice(MOVES),
                )
    policy = rng.choice((BoundaryPolicy.REJECT, BoundaryPolicy.CLAMP))
    initial = random_tm_config(rng, symbols, registers, n)
    return TuringSpec(
        symbols=symbols,
        registers=registers,
        cells=n,
        rules=rules,
        halting=halting,
        boundary_policy=policy,
        initial=initial,
    )


def random_mem_program(rng, total, default_halt, n_families=None, with_finals=None, max_cells=3):
    """A seeded MemProgram; ``total`` gives every family an entry for every
    (selector, values) pair its selectors can produce."""
    n = rng.randint(1, max_cells)
    alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
    n_fns = n_families or rng.randint(1, 3)

    def selector():
        return tuple(rng.sample(range(n), rng.randint(0, min(n, 2))))

    pool = sorted({selector() for _ in range(3)})
    families = []
    for _ in range(n_fns):
        entries = []
        for sel in pool:
            for values in itertools.product(alphabet, repeat=len(sel)):
                if not total and rng.random() < 0.3:
                    continue
                writes = tuple(rng.sample(range(n), rng.randint(0, n)))
                entries.append(
                    MemEntry(
                        sel,
                        values,
                        writes,
                        tuple(rng.choice(alphabet) for _ in writes),
                        rng.choice(pool),
                        rng.randrange(n_fns),
                    )
                )
        families.append(tuple(entries))
    if with_finals is None:
        with_finals = rng.random() < 0.5
    finals = (
        tuple((rng.randrange(n), rng.choice(alphabet)) for _ in range(rng.randint(1, 2)))
        if with_finals
        else ()
    )
    return MemProgram(
        n_cells=n,
        alphabet=alphabet,
        functions=tuple(families),
        initial_cells=tuple(rng.choice(alphabet) for _ in range(n)),
        initial_selector=rng.choice(pool),
        initial_function=rng.randrange(n_fns),
        finals=finals,
        default_halt=default_halt,
    )


def random_tm_config(
    rng: random.Random, symbols, registers, cells: int
) -> TmConfiguration:
    return TmConfiguration(
        rng.choice(registers),
        tuple(rng.choice(symbols) for _ in range(cells)),
        rng.randrange(cells),
    )


# Two rule sets of a tape machine on symbols 0 and 1 that never halts.
THREE_REGISTERS = ("a 0 -> b 1 R", "a 1 -> c 0 R", "b 0 -> a 1 L", "b 1 -> c 1 R",
                   "c 0 -> a 0 R", "c 1 -> b 0 L")
FOUR_REGISTERS = ("a 0 -> b 1 R", "a 1 -> c 0 R", "b 0 -> d 1 L", "b 1 -> c 1 R",
                  "c 0 -> a 0 R", "c 1 -> d 0 L", "d 0 -> a 1 R", "d 1 -> b 0 S")


def clamp_tm(cells: int, rules=THREE_REGISTERS) -> str:
    """The ``.tm`` text of ``rules`` on a clamped tape of ``cells`` zeros, in
    register a at cell 0: r registers give r * 2**cells * cells states."""
    registers = " ".join(sorted({rule[0] for rule in rules}))
    return "\n".join(["tm clamp", "symbols 0 1", f"registers {registers}", f"cells {cells}",
                      "boundary clamp", *(f"rule {rule}" for rule in rules),
                      f"init tape {' '.join('0' * cells)} head 0 register a", ""])


def conjugated_table(table: tuple[int, ...], perm) -> tuple[int, ...]:
    """The table perm . f . perm^-1 of the self-map ``table`` under a state permutation."""
    out = [0] * len(table)
    for s, t in enumerate(table):
        out[perm[s]] = perm[t]
    return tuple(out)


def conjugated(m: Machine, perm: tuple[int, ...], labels=None) -> Machine:
    """Relabel a machine through a state permutation; isomorphic by design."""
    new_labels = tuple(labels) if labels else tuple(f"t{i}" for i in range(m.n_states))
    domain = StateSet(new_labels)
    return make_machine(domain, [TransitionFunction(domain, conjugated_table(f.table, perm)) for f in m.functions])
