"""search: isomorphism and completeness questions with known answers.

A few deep searches do almost all the work: single-function machines (the
shape the compilers emit) and compiled tape machines exhaust the node
budget at the upper sizes, so budget give-ups show in ``decided_ratio``
and the slow tail in ``op_p90_ms``.  One operation is one question, and
every witness goes through its certificate text before it is verified.
"""

from __future__ import annotations

import itertools
import random

import refs
from core import IN_PROCESS, GateError, GaveUp, Op

NAME = "search"
NOMINAL_ROUND_S = 0.55
NODE_BUDGET = 5_000
CALIBRATION = IN_PROCESS

# (functions, states, positive pairs, negative pairs) per round
RANDOM_CELLS = tuple((k, n, 1, 1) for k in (2, 3) for n in (10, 20, 40, 80)) + tuple(
    (1, n, 2, 1) for n in (20, 25, 30, 35, 40)
)
# Compiled tape machines: (registers, symbols, cells, positive, negative)
COMPILED_CELLS = ((2, 2, 3, 2, 1),)
# Completeness by search on a container with a planted sub-machine:
# (container states, container functions, target states, questions)
COMPLETE_SEARCH = ((5, 6, 3, 3), (6, 6, 3, 2))
# Completeness by construction into the full machine: (container, target, questions)
COMPLETE_CONSTRUCT = ((4, 3, 4),)


def _machine(pkg, tables, prefix="s"):
    ss = pkg.StateSet(tuple(f"{prefix}{i}" for i in range(len(tables[0]))))
    return pkg.make_machine(ss, [pkg.TransitionFunction(ss, t) for t in tables])


def _relabel(rng, tables) -> list:
    p = list(range(len(tables[0])))
    rng.shuffle(p)
    return sorted(refs.conjugate(t, p) for t in tables)


def _perturb(rng, tables) -> list:
    """Change one entry of one function, keeping the functions distinct."""
    while True:
        out = [list(t) for t in tables]
        j, s = rng.randrange(len(out)), rng.randrange(len(out[0]))
        out[j][s] = (out[j][s] + 1 + rng.randrange(len(out[0]) - 1)) % len(out[0])
        out = [tuple(t) for t in out]
        if len(set(out)) == len(out):
            return sorted(out)


def _iso_truth(a, b) -> bool:
    if len(a) == 1:
        return refs.functional_canon(a[0]) == refs.functional_canon(b[0])
    if refs.profile(a) != refs.profile(b):
        return False
    raise ValueError("no independent answer for this pair")


def generate(pkg, seed: int, rounds: int, workdir, random_cells=RANDOM_CELLS,
             compiled_cells=COMPILED_CELLS, complete_search=COMPLETE_SEARCH,
             complete_construct=COMPLETE_CONSTRUCT) -> list:
    rng = random.Random(f"search:{seed}")
    fulls = {na: sorted(itertools.product(range(na), repeat=na)) for na, _, _ in complete_construct}
    containers = {id(t): _machine(pkg, t) for t in fulls.values()}
    items = []
    for rnd in range(rounds):
        batch = []
        for k, n, pos, neg in random_cells:
            for i in range(pos + neg):
                a = refs.random_tables(rng, n, k)
                b = _relabel(rng, a)
                if i >= pos:
                    # Multi-function negatives must differ in an invariant, so
                    # that "no" has an independent proof.
                    c = _perturb(rng, b)
                    while k > 1 and refs.profile(c) == refs.profile(a):
                        c = _perturb(rng, b)
                    b = c
                batch.append(("iso", f"iso k={k} n={n}", a, b, _iso_truth(a, b) if i >= pos else True))
        for k, m, n, pos, neg in compiled_cells:
            for i in range(pos + neg):
                spec = refs.random_spec(rng, "c", k, m, n, ("clamp", "reject")[i % 2])
                a = [tuple(refs.tm_table(spec)[1])]
                b = _relabel(rng, a)
                if i >= pos:
                    b = _perturb(rng, b)
                batch.append(("iso", f"iso compiled n={len(a[0])}", a, b, _iso_truth(a, b)))
        for na, ka, nb, count in complete_search:
            for _ in range(count):
                a, b = _planted(rng, na, ka, nb)
                batch.append(("search", f"complete search {na}>{nb}", a, b,
                              refs.embeds(a, na, b, nb)))
        for na, nb, count in complete_construct:
            full = fulls[na]
            for _ in range(count):
                b = refs.random_tables(rng, nb, 2)
                batch.append(("construct", f"complete construct {na}>{nb}", full, b, True))
        rng.shuffle(batch)
        items.extend(
            {"mode": mode, "label": label, "a": containers.get(id(a)) or _machine(pkg, a),
             "b": _machine(pkg, b, "t"), "a_tables": a, "b_tables": b, "truth": truth}
            for mode, label, a, b, truth in batch
        )
    return items


def _planted(rng, na, ka, nb) -> tuple[list, list]:
    """A container where some functions preserve a random nb-subset, and a
    target that is, half the time, a relabelled restriction of them."""
    subset = rng.sample(range(na), nb)
    tables = set()
    while len(tables) < ka:
        t = [rng.randrange(na) for _ in range(na)]
        if len(tables) < ka // 2:
            for s in subset:
                t[s] = rng.choice(subset)
        tables.add(tuple(t))
    a = sorted(tables)
    pos = {s: p for p, s in enumerate(subset)}
    inside = [tuple(pos[t[s]] for s in subset) for t in a if all(t[s] in pos for s in subset)]
    inside = sorted(set(inside))
    if len(inside) >= 2 and rng.random() < 0.5:
        b = _relabel(rng, rng.sample(inside, 2))
    else:
        b = refs.random_tables(rng, nb, 2)
    return a, b


def make_pass(pkg, layers, items) -> tuple[list, callable]:
    ops = []
    for it in items:
        if it["mode"] == "iso":
            ops.append(_iso_op(pkg, layers, it))
        else:
            ops.append(_complete_op(pkg, layers, it))
    return ops, lambda: {}


def _iso_op(pkg, L, it) -> Op:
    a, b = it["a"], it["b"]

    def run():
        try:
            mor = L.find_isomorphism(a, b, node_budget=NODE_BUDGET)
        except pkg.SearchBudgetExceededError as e:
            return GaveUp(str(e))
        if mor is None:
            return None
        text = L.render_certificate(pkg.Certificate("iso", g=mor.g, h=mor.h))
        cert = L.parse_certificate(text)
        return mor, text, cert, L.verify_morphism(a, b, pkg.Morphism(cert.g, cert.h))

    def check(out) -> bytes:
        label = it["label"]
        if isinstance(out, GaveUp):
            return f"{label} gave up\n".encode()
        if out is None:
            if it["truth"]:
                raise GateError(f"{label}: isomorphic pair answered 'no'")
            return f"{label} no\n".encode()
        mor, text, cert, verified = out
        if not it["truth"]:
            raise GateError(f"{label}: non-isomorphic pair answered with a witness")
        if (cert.g, cert.h) != (mor.g, mor.h):
            raise GateError(f"{label}: certificate does not round-trip")
        if not verified or not refs.commutes(it["a_tables"], it["b_tables"], cert.g, cert.h):
            raise GateError(f"{label}: witness does not commute")
        return f"{label} yes\n{text}".encode()

    return Op(it["mode"], run, check, {})


def _complete_op(pkg, L, it) -> Op:
    a, b = it["a"], it["b"]
    find = L.is_complete_search if it["mode"] == "search" else L.is_complete_construct

    def run():
        try:
            w = find(a, b, node_budget=NODE_BUDGET)
        except pkg.SearchBudgetExceededError as e:
            return GaveUp(str(e))
        if w is None:
            return None
        fr, sr = w.reductions
        text = L.render_certificate(pkg.Certificate(
            "complete", g=w.morphism.g, h=w.morphism.h,
            kept_functions=fr.kept_functions, kept_states=sr.kept_states))
        cert = L.parse_certificate(text)
        fr2 = L.functional_reduction(a, [a.functions[i] for i in cert.kept_functions])
        sr2 = L.state_reduction(fr2.result, cert.kept_states)
        witness = pkg.CompletenessWitness((fr2, sr2), pkg.Morphism(cert.g, cert.h))
        return text, cert, L.verify_completeness(a, b, witness)

    def check(out) -> bytes:
        label = it["label"]
        if isinstance(out, GaveUp):
            return f"{label} gave up\n".encode()
        if out is None:
            if it["truth"]:
                raise GateError(f"{label}: embeddable target answered 'no'")
            return f"{label} no\n".encode()
        text, cert, verified = out
        if not it["truth"]:
            raise GateError(f"{label}: target that does not embed answered with a witness")
        labels = list(a.states.labels)
        sub = refs.sub_tables(it["a_tables"], labels, cert.kept_functions, cert.kept_states)
        if not verified or not refs.commutes(it["b_tables"], sub, cert.g, cert.h):
            raise GateError(f"{label}: completeness witness does not check out")
        return f"{label} yes\n{text}".encode()

    return Op("complete." + it["mode"], run, check, {})
