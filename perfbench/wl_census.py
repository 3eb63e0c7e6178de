"""census: thousands of tiny questions, where per-call set-up dominates.

Machines on at most 4 states are sorted into isomorphism classes the way
``scripts/census_small_machines.py`` does it (each new machine is tested
against every class representative), bijection-closure probes run on 3
states, and seeded lemma batches and cardinal evaluations fill the rest.
A search core that wins on deep searches but adds constant cost per call
loses here.
"""

from __future__ import annotations

import itertools
import random

import refs
from core import IN_PROCESS, GateError, Op

NAME = "census"
NOMINAL_ROUND_S = 0.7
NODE_BUDGET = 20_000
CALIBRATION = IN_PROCESS
CELL_CAP = 150  # machines per (states, functions) cell per round; all when fewer
PROBES = 100
LEMMA_BATCHES = 8
LEMMA_ITERATIONS = 25
EXPRESSIONS = 100
TEMPLATES = 50
TEMPLATE_KINDS = ("finite-turing", "infinite-tape-turing", "umm", "lsm", "quantum")


def generate(pkg, seed: int, rounds: int, workdir, cell_cap=CELL_CAP, probes=PROBES,
             lemma_batches=LEMMA_BATCHES, expressions=EXPRESSIONS, templates=TEMPLATES) -> dict:
    rng = random.Random(f"census:{seed}")
    state_sets = {n: pkg.StateSet(tuple(f"s{i}" for i in range(n))) for n in range(1, 5)}
    bij3 = sorted(itertools.permutations(range(3)))
    non_bij3 = [t for t in itertools.product(range(3), repeat=3) if len(set(t)) < 3]
    all3 = sorted(itertools.product(range(3), repeat=3))
    rounds_items = []
    for _ in range(rounds):
        cells = []
        for n in range(1, 5):
            tables = sorted(itertools.product(range(n), repeat=n))
            for k in range(1, 4):
                if k > len(tables):
                    continue
                combos = _combos(rng, tables, k, cell_cap)
                cells.append({"n": n, "k": k, "combos": combos})
        probe_sets = []
        for _ in range(probes):
            while True:
                combo = sorted(rng.sample(all3, 6))
                if any(t in non_bij3 for t in combo):
                    break
            probe_sets.append(combo)
        lemma_seeds = [rng.randrange(10**9) for _ in range(lemma_batches)]
        exprs = [refs.random_expression(rng) for _ in range(expressions)]
        temps = []
        for _ in range(templates):
            kind = rng.choice(TEMPLATE_KINDS)
            params = {"finite-turing": "kmn", "infinite-tape-turing": "km", "umm": "n",
                      "lsm": "", "quantum": "mn"}[kind]
            vals = {p: rng.randint(2 if p == "m" else 1, 6) for p in params}
            value = refs.template_cardinality(kind, vals.get("k"), vals.get("m"), vals.get("n"))
            temps.append((kind, vals, value))
        rounds_items.append({"cells": cells, "probes": probe_sets, "lemma_seeds": lemma_seeds,
                             "exprs": exprs, "temps": temps})
    return {"state_sets": state_sets, "bij3": bij3, "rounds": rounds_items}


def _combos(rng, tables, k, cap) -> list:
    total = 1
    for i in range(k):
        total = total * (len(tables) - i) // (i + 1)
    if total <= cap:
        return [list(c) for c in itertools.combinations(tables, k)]
    picked = set()
    while len(picked) < cap:
        picked.add(tuple(sorted(rng.sample(tables, k))))
    return [list(c) for c in sorted(picked)]


def make_pass(pkg, layers, inputs) -> tuple[list, callable]:
    L = layers
    canon_cache: dict = {}
    ops = []
    cell_reports = []

    def canon(tables):
        key = tuple(tables)
        if key not in canon_cache:
            canon_cache[key] = refs.brute_canon(tables, len(tables[0]))
        return canon_cache[key]

    ss3 = inputs["state_sets"][3]
    bij = pkg.Machine(ss3, tuple(pkg.TransitionFunction(ss3, t) for t in inputs["bij3"]),
                      frozenset(), None)
    for rnd in inputs["rounds"]:
        batch = []
        for cell in rnd["cells"]:
            state = {"reps": [], "rep_tables": [], "n": cell["n"], "k": cell["k"],
                     "combos": cell["combos"]}
            cell_reports.append(state)
            batch.extend(_classify_op(pkg, L, inputs["state_sets"][cell["n"]], combo, state, canon)
                         for combo in cell["combos"])
        batch.extend(_probe_op(pkg, L, ss3, bij, inputs["bij3"], combo, canon) for combo in rnd["probes"])
        batch.extend(_lemma_op(L, s) for s in rnd["lemma_seeds"])
        batch.extend(_expr_op(L, text, value) for text, value in rnd["exprs"])
        batch.extend(_template_op(pkg, L, *t) for t in rnd["temps"])
        ops.extend(batch)

    def finish():
        classes = {}
        for cell in cell_reports:
            distinct = len({canon(t) for t in cell["combos"]})
            if distinct != len(cell["rep_tables"]):
                raise GateError(f"census |S|={cell['n']} k={cell['k']}: {len(cell['rep_tables'])} "
                                f"classes, brute force finds {distinct}")
            key = f"{cell['n']}x{cell['k']}"
            classes[key] = classes.get(key, 0) + len(cell["rep_tables"])
        return {"classes": classes}

    return ops, finish


def _classify_op(pkg, L, ss, combo, state, canon) -> Op:
    """Which class does this machine fall in?  Order of cells and machines is
    fixed, so the representatives an op sees are the same on every pass."""
    reps, rep_tables = state["reps"], state["rep_tables"]

    def run():
        m = L.make_machine(ss, [pkg.TransitionFunction(ss, t) for t in combo])
        for i, r in enumerate(reps):
            mor = L.find_isomorphism(r, m, node_budget=NODE_BUDGET)
            if mor is not None:
                return i, mor
        reps.append(m)
        rep_tables.append(combo)
        return len(reps) - 1, None

    def check(out) -> bytes:
        i, mor = out
        mine = canon(combo)
        if mor is None:
            if any(canon(t) == mine for t in rep_tables[:i]):
                raise GateError(f"census: {combo} opened a new class but has one")
        else:
            if canon(rep_tables[i]) != mine or not refs.commutes(rep_tables[i], combo, mor.g, mor.h):
                raise GateError(f"census: {combo} placed in the wrong class")
            if any(canon(t) == mine for t in rep_tables[:i]):
                raise GateError(f"census: {combo} matched a later representative first")
        return f"{state['n']}x{state['k']} {i} {'' if mor is None else mor.g}\n".encode()

    return Op("classify", run, check, {})


def _probe_op(pkg, L, ss3, bij, bij_tables, combo, canon) -> Op:
    def run():
        m = L.make_machine(ss3, [pkg.TransitionFunction(ss3, t) for t in combo])
        return L.find_isomorphism(bij, m, node_budget=NODE_BUDGET)

    def check(out) -> bytes:
        # Conjugation keeps bijections bijective, so no relabelling can carry
        # the bijection machine onto a set holding a non-bijection.
        if out is not None or canon(combo) == canon(bij_tables):
            raise GateError(f"bijection-closure probe {combo} matched the bijection machine")
        return b"probe no\n"

    return Op("probe", run, check, {})


def _lemma_op(L, seed) -> Op:
    def run():
        return L.run_lemma_suite(seed, LEMMA_ITERATIONS)

    def check(rep) -> bytes:
        if rep.iterations != LEMMA_ITERATIONS or rep.checked_for(1) != LEMMA_ITERATIONS:
            raise GateError(f"lemma batch {seed}: ran {rep.checked_for(1)} draws")
        if rep.violations_for(1) or rep.violations_for(3):
            raise GateError(f"lemma batch {seed}: law 1 or law 3 violated")
        return f"lemmas {seed} {rep.checked}".encode() + f" {len(rep.violations_for(2))}\n".encode()

    return Op("lemmas", run, check, {"iterations": LEMMA_ITERATIONS})


def _expr_op(L, text, value) -> Op:
    def run():
        return L.evaluate_expression(text)

    def check(out) -> bytes:
        if repr(out) != refs.card_repr(value):
            raise GateError(f"{text} evaluated to {out!r}, expected {refs.card_repr(value)}")
        return f"{text} = {out!r}\n".encode()

    return Op("expression", run, check, {})


def _template_op(pkg, L, kind, params, value) -> Op:
    def run():
        return L.state_cardinality(pkg.MachineTemplate(kind, **params))

    def check(out) -> bytes:
        if repr(out) != refs.card_repr(value):
            raise GateError(f"{kind}{params}: |S| = {out!r}, expected {refs.card_repr(value)}")
        return f"{kind} {sorted(params.items())} {out!r}\n".encode()

    return Op("template", run, check, {})
