"""Randomized checks of the reduction composition and commutation laws.

Three laws are checked on machines drawn uniformly at small sizes:

1. Keeping functions twice equals keeping the inner selection once.
2. Shrinking the state set twice equals shrinking to the inner subset once.
3. A functional reduction followed by a state reduction can be reordered
   as a state reduction followed by a functional reduction, and back.

Law 2 is checked exactly as stated even though it does not hold for this
reduction semantics: restricting to the inner subset directly can keep a
function whose extension fails to preserve the intermediate subset, so the
two-step result may be a strict sub-machine of the one-step result.  The
checker reports such cases as violations rather than papering over them;
see tests for the minimal counterexample.

The corrected law is exact: reducing to ``S1`` and then to ``S2`` equals
reducing to ``S2`` after a functional reduction that keeps the functions
preserving ``S1``, and both sides are undefined together.  So a state
reduction of a state reduction is a sub-machine.  Acceptance criterion 5
checks this law, and also checks that the literal law 2 stays refuted.

A run asks each distinct reduction question once: its answer table holds
each state reduction, functional reduction and sub-machine answer, and is
cleared once it holds more than ``_HELD_TABLES`` tables, so memory does not
grow with the draw count.  Reports are those of questions asked afresh.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Sequence

from .errors import EmptyReductionError, MachalgError, _Value
from .machine import Machine, StateSet, _AllTables, _assemble
from .reductions import functional_reduction, is_sub_machine, state_reduction

LEMMA_NAMES = {
    1: "nested functional reductions collapse",
    2: "nested state reductions collapse",
    3: "functional and state reductions commute",
}


# random.sample draws from range(n**n), whose length must fit in a C ssize_t.
_MAX_STATES = max(n for n in range(1, 20) if n**n <= sys.maxsize)
# A draw holds up to max_functions tables; 10 000 15-state ones are about 20 MB.
_MAX_FUNCTIONS = 10_000
_HELD_TABLES = 4096  # tables a run's answer table may hold before its next answer clears it
_STATE_SETS: dict[int, StateSet] = {}  # random_machine's labels s0.. for each state count


def _check_sizes(max_states: int, max_functions: int) -> None:
    for what, value, bound in (
        ("max_states", max_states, _MAX_STATES),
        ("max_functions", max_functions, _MAX_FUNCTIONS),
    ):
        if value < 1:
            raise MachalgError(f"{what} must be at least 1, got {value}")
        if value > bound:
            raise MachalgError(f"{what} must be at most {bound}, got {value}")


def random_machine(
    rng: random.Random, max_states: int = 4, max_functions: int = 6
) -> Machine:
    """Uniform draw: a state count, then distinct tables, each drawn by its
    lexicographic index (its base-n numeral), so no draw lists all n**n."""
    _check_sizes(max_states, max_functions)
    n = rng.randint(1, max_states)
    states = _STATE_SETS.get(n) or _STATE_SETS.setdefault(n, StateSet(tuple(f"s{i}" for i in range(n))))
    k = rng.randint(1, min(max_functions, n**n))
    decode = _AllTables(n)._decode  # each index lies in range(n**n)
    return _assemble(states, [(decode(c), None) for c in rng.sample(range(n**n), k)])


def _subset(rng: random.Random, items: Sequence) -> list:
    """Non-empty subset in original order."""
    k = rng.randint(1, len(items))
    picks = sorted(rng.sample(range(len(items)), k))
    return [items[i] for i in picks]


def _describe(m: Machine) -> str:
    tables = ", ".join(map(str, m.tables))
    return f"states={list(m.states.labels)} tables=[{tables}]"


_UNASKED = object()


class _Answers(dict):
    """One run's answers to its reduction questions, keyed by plain tuples of
    labels and tables (a ``Machine`` key costs as much to hash as the
    reduction it saves).  ``held`` counts the tables of each key and answer."""

    held = 0

    def _ask(self, key, tables: int, question):
        """``question()``, or None where it raises EmptyReductionError, asked once a run."""
        answer = self.get(key, _UNASKED)
        if answer is _UNASKED:
            if self.held > _HELD_TABLES:
                self.clear()
                self.held = 0
            try:
                answer = question()
            except EmptyReductionError:
                answer = None
            self[key] = answer
            self.held += tables + len(getattr(answer, "tables", ()))  # a bool or None holds none
        return answer

    def reduce_states(self, m: Machine, labels) -> Machine | None:
        """``m`` reduced to the states ``labels``, or None where that is undefined."""
        key = ("states", m.states.labels, m.tables, tuple(labels))
        return self._ask(key, len(m.tables), lambda: state_reduction(m, labels).result)

    def keep_functions(self, m: Machine, indices) -> Machine:
        key = ("functions", m.states.labels, m.tables, tuple(indices))
        return self._ask(key, len(m.tables), lambda: functional_reduction(m, indices).result)

    def holds_sub_machine(self, a: Machine, b: Machine) -> bool:
        key = ("sub", a.states.labels, a.tables, b.states.labels, b.tables)
        return self._ask(key, len(a.tables) + len(b.tables), lambda: is_sub_machine(a, b) is not None)


def check_lemma_1(m: Machine, rng: random.Random, ask: _Answers) -> tuple[int, list[str]]:
    """(1, violations) for one random nested pair of functional keeps."""
    k1 = _subset(rng, range(m.n_functions))
    inner = ask.keep_functions(m, k1)
    k2 = _subset(rng, range(inner.n_functions))
    left = ask.keep_functions(inner, k2)
    right = ask.keep_functions(m, [k1[j] for j in k2])  # inner's function j is m's k1[j]
    if left == right:
        return 1, []
    return 1, [
        f"{_describe(m)} keep1={[m.tables[i] for i in k1]} "
        f"keep2={[inner.tables[j] for j in k2]}: "
        f"two-step {_describe(left)} != one-step {_describe(right)}"
    ]


def check_lemma_2(m: Machine, rng: random.Random, ask: _Answers) -> tuple[int, list[str]]:
    """(pairs checked, violations) for one random nested pair of state
    subsets; none is checked when the outer reduction is undefined."""
    s1 = _subset(rng, m.states.labels)
    inner = ask.reduce_states(m, s1)
    if inner is None:
        return 0, []
    s2 = _subset(rng, tuple(s1))
    left = ask.reduce_states(inner, s2)
    right = ask.reduce_states(m, s2)
    if left == right:  # both undefined, or equal
        return 1, []
    if left is None or right is None:
        missing = "two-step" if left is None else "one-step"
        return 1, [f"{_describe(m)} outer={s1} inner={s2}: {missing} side undefined"]
    return 1, [
        f"{_describe(m)} outer={s1} inner={s2}: "
        f"two-step {_describe(left)} != one-step {_describe(right)}"
    ]


def check_lemma_3(m: Machine, rng: random.Random, ask: _Answers) -> tuple[int, list[str]]:
    """(directions checked, violations) for one random draw per direction:
    a state reduction of a functional reduction is a functional reduction of
    the state reduction to the same subset, and a functional reduction of a
    state reduction is a sub-machine."""
    checked = 0
    problems: list[str] = []

    picks = _subset(rng, range(m.n_functions))
    s1 = _subset(rng, m.states.labels)
    b = ask.reduce_states(ask.keep_functions(m, picks), s1)
    if b is not None:
        checked += 1
        sr = ask.reduce_states(m, s1)
        # same states in the same order, so inclusion of tables is the relation
        if sr is None or not set(b.tables) <= set(sr.tables):
            problems.append(
                f"{_describe(m)} keep={[m.tables[i] for i in picks]} subset={s1}: "
                f"{_describe(b)} is not a functional reduction of "
                f"{'undefined' if sr is None else _describe(sr)}"
            )

    s2 = _subset(rng, m.states.labels)
    sr2 = ask.reduce_states(m, s2)
    if sr2 is not None:
        checked += 1
        b2 = ask.keep_functions(sr2, _subset(rng, range(sr2.n_functions)))
        if not ask.holds_sub_machine(m, b2):
            problems.append(f"{_describe(m)} subset={s2}: {_describe(b2)} is not a sub-machine")
    return checked, problems


class LemmaViolation(_Value):
    lemma: int
    description: str

    def __init__(self, lemma, description):
        self._store(lemma, description)


class LemmaRunReport(_Value):
    """Outcome of a seeded randomized run over all three laws."""

    seed: int
    iterations: int
    checked: tuple[tuple[int, int], ...]
    violations: tuple[LemmaViolation, ...]

    def __init__(self, seed, iterations, checked, violations):
        self._store(seed, iterations, checked, violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def checked_for(self, lemma: int) -> int:
        for num, count in self.checked:
            if num == lemma:
                return count
        return 0

    def violations_for(self, lemma: int) -> tuple[LemmaViolation, ...]:
        return tuple(v for v in self.violations if v.lemma == lemma)


def run_lemma_suite(
    seed: int,
    iterations: int,
    max_states: int = 4,
    max_functions: int = 6,
) -> LemmaRunReport:
    """Draw ``iterations`` machines and check every law on each."""
    if iterations < 0:
        raise MachalgError(f"iterations must be at least 0, got {iterations}")
    _check_sizes(max_states, max_functions)
    rng = random.Random(seed)
    counts = {1: 0, 2: 0, 3: 0}
    violations: list[LemmaViolation] = []
    ask = _Answers()
    for _ in range(iterations):
        m = random_machine(rng, max_states, max_functions)
        for lemma, check in ((1, check_lemma_1), (2, check_lemma_2), (3, check_lemma_3)):
            checked, problems = check(m, rng, ask)
            counts[lemma] += checked
            violations.extend(LemmaViolation(lemma, p) for p in problems)
    return LemmaRunReport(
        seed=seed,
        iterations=iterations,
        checked=tuple(sorted(counts.items())),
        violations=tuple(violations),
    )
