"""Independent references and input writers for the benchmark.

Nothing here imports machalg.  The gates compare the package's answers with
these brute-force or from-the-definition implementations, so a bug in the
package cannot hide behind the same bug in its checker.  The text writers
produce the documented file formats directly, so the inputs a workload
hands to the package do not depend on the package's own renderers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

MOVES = {"L": -1, "R": 1, "S": 0}
ERROR_LABEL = "!boundary-error"


# ---------------------------------------------------------------------------
# Tape machines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """A tape machine as plain data: rules map (reg, sym) to (reg, sym, move)."""

    name: str
    symbols: tuple
    registers: tuple
    cells: int
    rules: dict
    halting: frozenset
    policy: str  # "clamp" or "reject"
    tape: tuple
    head: int
    register: str

    @property
    def n_states(self) -> int:
        k, m, n = len(self.registers), len(self.symbols), self.cells
        return k * m**n * n + (1 if self.policy == "reject" else 0)

    @property
    def mem_states(self) -> int:
        """States of compile_mem(tm_to_mem(spec)), from the documented encoding."""
        k, m, n = len(self.registers), len(self.symbols), self.cells
        reject = self.policy == "reject"
        alphabet = m + k + n + (1 if reject else 0)
        # Read selectors (register, address, j) for every j, plus the parked
        # (register, address) selector when some rule can fall off the tape.
        off_edge = reject and any(mv != "S" for _, _, mv in self.rules.values())
        return alphabet ** (n + 2) * (n + (1 if off_edge else 0))


def random_spec(rng, name: str, k: int, m: int, n: int, policy: str) -> Spec:
    """Every non-halting register has a rule for every symbol; the last
    register halts.  At least one rule moves, so a rejecting tape can fail."""
    symbols = tuple(str(i) for i in range(m))
    registers = tuple(f"q{i}" for i in range(k))
    rules = {}
    for r in registers[:-1]:
        for s in symbols:
            rules[(r, s)] = (rng.choice(registers), rng.choice(symbols), rng.choice("LRS"))
    first = (registers[0], symbols[0])
    r2, s2, _ = rules[first]
    rules[first] = (r2, s2, rng.choice("LR"))
    tape = tuple(rng.choice(symbols) for _ in range(n))
    return Spec(name, symbols, registers, n, rules, frozenset({registers[-1]}),
                policy, tape, rng.randrange(n), registers[0])


def write_tm(s: Spec) -> str:
    lines = [f"tm {s.name}", "symbols " + " ".join(s.symbols),
             "registers " + " ".join(s.registers), f"cells {s.cells}",
             f"boundary {s.policy}", "halting " + " ".join(sorted(s.halting))]
    for (r, sym), (r2, s2, mv) in s.rules.items():
        lines.append(f"rule {r} {sym} -> {r2} {s2} {mv}")
    lines.append(f"init tape {' '.join(s.tape)} head {s.head} register {s.register}")
    return "\n".join(lines) + "\n"


def tm_label(config) -> str:
    reg, tape, head = config
    return f"{reg}|{'.'.join(tape)}|{head}"


def tm_next(s: Spec, config):
    """Next configuration, the same one when halted, or ERROR_LABEL."""
    reg, tape, head = config
    if reg in s.halting or (reg, tape[head]) not in s.rules:
        return config
    r2, s2, mv = s.rules[(reg, tape[head])]
    h2 = head + MOVES[mv]
    if not 0 <= h2 < s.cells:
        if s.policy == "reject":
            return ERROR_LABEL
        h2 = head
    return r2, tape[:head] + (s2,) + tape[head + 1:], h2


def tm_configs(s: Spec) -> list:
    """All configurations in the documented compiled-state order."""
    tapes = list(itertools.product(s.symbols, repeat=s.cells))
    return [(r, t, h) for r in s.registers for t in tapes for h in range(s.cells)]


def tm_table(s: Spec) -> tuple[list, list]:
    """(labels, step table) of the compiled machine, built from the rules."""
    configs = tm_configs(s)
    labels = [tm_label(c) for c in configs]
    if s.policy == "reject":
        labels.append(ERROR_LABEL)
    index = {lab: i for i, lab in enumerate(labels)}
    table = []
    for c in configs:
        nxt = tm_next(s, c)
        table.append(index[nxt if nxt == ERROR_LABEL else tm_label(nxt)])
    if s.policy == "reject":
        table.append(len(labels) - 1)
    return labels, table


def forward_closed_half(s: Spec, rng) -> tuple[list, list, list]:
    """(labels, table, kept labels): a step-closed label set of at least half
    the states, listed in state order.  Orbits are added from random starts."""
    labels, table = tm_table(s)
    order = list(range(len(labels)))
    rng.shuffle(order)
    keep = set()
    for start in order:
        if 2 * len(keep) >= len(labels):
            break
        i = start
        while i not in keep:
            keep.add(i)
            i = table[i]
    return labels, table, [labels[i] for i in sorted(keep)]


# ---------------------------------------------------------------------------
# Machine text and small-machine invariants
# ---------------------------------------------------------------------------


def write_mx(name: str, labels, tables, fn_names=None) -> str:
    names = fn_names or [f"f{j}" for j in range(len(tables))]
    lines = [f"machine {name}", "states " + " ".join(labels)]
    for fname, t in zip(names, tables):
        lines.append(f"fn {fname}: " + ", ".join(f"{labels[i]}->{labels[j]}" for i, j in enumerate(t)))
    return "\n".join(lines) + "\n"


def random_tables(rng, n: int, k: int) -> list:
    """k distinct random self-maps of range(n), sorted."""
    tables = set()
    while len(tables) < k:
        tables.add(tuple(rng.randrange(n) for _ in range(n)))
    return sorted(tables)


def conjugate(table, p) -> tuple:
    """p . f . p^-1 as a table: state p[s] goes to p[f[s]]."""
    out = [0] * len(table)
    for s, t in enumerate(table):
        out[p[s]] = p[t]
    return tuple(out)


def commutes(a_tables, b_tables, g, h) -> bool:
    """Definition of a machine isomorphism, checked entry by entry."""
    n, k = len(g), len(a_tables)
    if sorted(g) != list(range(n)) or sorted(h) != list(range(k)) or len(b_tables) != k:
        return False
    return all(
        g[a_tables[j][s]] == b_tables[h[j]][g[s]] for j in range(k) for s in range(n)
    )


def brute_canon(tables, n: int) -> tuple:
    """Least conjugate function set over all n! relabellings (small n only)."""
    return min(
        tuple(sorted(conjugate(t, p) for t in tables))
        for p in itertools.permutations(range(n))
    )


def functional_canon(table) -> tuple:
    """Exact canonical form of one self-map: sorted cycles of rooted-tree codes,
    each cycle at its least rotation.  Equal forms iff the maps are conjugate."""
    n = len(table)
    indeg = [0] * n
    for t in table:
        indeg[t] += 1
    children = [[] for _ in range(n)]
    leaves = [i for i in range(n) if indeg[i] == 0]
    order = []
    while leaves:
        i = leaves.pop()
        order.append(i)
        j = table[i]
        children[j].append(i)
        indeg[j] -= 1
        if indeg[j] == 0:
            leaves.append(j)
    code = [""] * n
    for i in order:
        code[i] = "(" + "".join(sorted(code[c] for c in children[i])) + ")"
    on_cycle = set(range(n)) - set(order)
    for i in on_cycle:
        code[i] = "(" + "".join(sorted(code[c] for c in children[i])) + ")"
    cycles = []
    seen = set()
    for i in sorted(on_cycle):
        if i in seen:
            continue
        ring = []
        j = i
        while j not in seen:
            seen.add(j)
            ring.append(code[j])
            j = table[j]
        cycles.append(min(tuple(ring[r:] + ring[:r]) for r in range(len(ring))))
    return tuple(sorted(cycles))


def profile(tables) -> tuple:
    """Relabelling-invariant fingerprint: per function, image size, indegree
    multiset and fixed-point count.  Different profiles prove non-isomorphism."""
    out = []
    for t in tables:
        indeg = [0] * len(t)
        for j in t:
            indeg[j] += 1
        out.append((len(set(t)), tuple(sorted(indeg)), sum(1 for i, j in enumerate(t) if i == j)))
    return tuple(sorted(out))


def embeds(a_tables, n_a: int, b_tables, n_b: int) -> bool:
    """Brute-force completeness: some injection g carries every function of b
    onto the restriction of some function of a."""
    for g in itertools.permutations(range(n_a), n_b):
        if all(
            any(all(t[g[s]] == g[bt[s]] for s in range(n_b)) for t in a_tables)
            for bt in b_tables
        ):
            return True
    return False


def sub_tables(a_tables, labels, kept_functions, kept_states) -> list:
    """Function tables of the state reduction of a's kept functions to
    kept_states, in canonical (sorted, duplicate-free) order."""
    pos = {lab: p for p, lab in enumerate(kept_states)}
    idx = [labels.index(lab) for lab in kept_states]
    inside = set(idx)
    out = set()
    for j in kept_functions:
        t = a_tables[j]
        if all(t[i] in inside for i in idx):
            out.add(tuple(pos[labels[t[i]]] for i in idx))
    return sorted(out)


# ---------------------------------------------------------------------------
# Cardinal arithmetic, from the rules stated in the package docs
# ---------------------------------------------------------------------------

FINITE_MAX = 2**63 - 1


class Undefined(Exception):
    """0^0 or a finite value beyond the checked 64-bit range."""


def _key(c):
    return (0 if c[0] == "F" else 1, c[1])


def c_add(a, b):
    if a[0] == b[0] == "F":
        return _fin(a[1] + b[1])
    return max(a, b, key=_key)


def c_mul(a, b):
    if a == ("F", 0) or b == ("F", 0):
        return ("F", 0)
    if a[0] == b[0] == "F":
        return _fin(a[1] * b[1])
    return max(a, b, key=_key)


def c_pow(a, b):
    if a == ("F", 0) and b == ("F", 0):
        raise Undefined("0^0")
    if b == ("F", 0) or a == ("F", 1):
        return ("F", 1)
    if a == ("F", 0):
        return ("F", 0)
    if b[0] == "F":
        if a[0] == "F":
            if b[1] > 63:
                raise Undefined("overflow")
            return _fin(a[1] ** b[1])
        return a
    if a[0] == "F":
        return ("B", b[1] + 1)
    return ("B", max(a[1], b[1] + 1))


def _fin(v):
    if v > FINITE_MAX:
        raise Undefined("overflow")
    return ("F", v)


def card_repr(c) -> str:
    return f"Finite({c[1]})" if c[0] == "F" else f"Beth({c[1]})"


def random_expression(rng, depth: int = 3):
    """(text, value) of a random expression with a defined value."""
    while True:
        try:
            return _expr(rng, depth)
        except Undefined:
            continue


def _expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            a = rng.randrange(3)
            return f"beth({a})", ("B", a)
        v = rng.randrange(13)
        return str(v), ("F", v)
    (lt, lv), (rt, rv) = _expr(rng, depth - 1), _expr(rng, depth - 1)
    op = rng.choice("+*^")
    val = {"+": c_add, "*": c_mul, "^": c_pow}[op](lv, rv)
    return f"({lt} {op} {rt})", val


def template_cardinality(kind: str, k, m, n):
    """|S| of the package's machine templates, from their definitions."""
    continuum = c_pow(("F", 2), ("B", 0))
    if kind == "finite-turing":
        return c_mul(c_mul(("F", k), c_pow(("F", m), ("F", n))), ("F", n))
    if kind == "infinite-tape-turing":
        return c_mul(c_mul(("F", k), c_pow(("F", m), ("B", 0))), ("B", 0))
    if kind == "umm":
        return c_pow(continuum, ("F", n))
    if kind == "lsm":
        return continuum
    if kind == "quantum":
        return c_pow(c_mul(continuum, continuum), c_pow(("F", m), ("F", n)))
    raise ValueError(kind)
