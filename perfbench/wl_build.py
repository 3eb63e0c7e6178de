"""build: tape machines and memory-cell programs compiled on a size ladder.

Most of the time goes to ``models``, ``textio``, ``machine`` and
``reductions`` at sizes where label lookups that scan the whole state set
dominate; there is no isomorphism search here.  One operation is one
specification through its whole pipeline.
"""

from __future__ import annotations

import random

import refs
from core import IN_PROCESS, GateError, GaveUp, Op, sha

NAME = "build"
NOMINAL_ROUND_S = 20.0
NODE_BUDGET = None
CALIBRATION = IN_PROCESS
# Render/parse and the reductions run only on rungs the seed finishes in
# seconds; above this their quadratic label lookups take minutes.
TEXT_MAX_STATES = 8192
LOCKSTEP_STEPS = 200

# (registers, symbols, cells, specs per round): compiled sizes k*m^n*n.
# The counts put op_p50_ms and op_p90_ms inside the block of 1536-state
# specs, not on the edge between two groups of different cost.
TAPE_RUNGS = (
    (4, 2, 6, 46),
    (8, 2, 6, 2),
    (2, 2, 10, 1),
    (2, 2, 11, 1),
    (2, 2, 12, 1),
    (2, 2, 13, 1),
)
# (registers, symbols, cells, policy, specs per round): small tapes whose
# memory-cell translation compiles to (m+k+n+[1])^(n+2) * selectors states.
MEM_RUNGS = (
    (2, 2, 2, "reject", 42),
    (3, 3, 2, "reject", 2),
    (2, 2, 3, "clamp", 1),
    (3, 2, 3, "clamp", 1),
    (3, 2, 3, "reject", 1),
)
# (states, functions kept by the functional reduction of the full machine)
FULL_RUNGS = ((5, 625), (6, 48))


def tape_rung(k, m, n) -> int:
    return k * m**n * n


def mem_rung(k, m, n, policy) -> int:
    reject = policy == "reject"
    return (m + k + n + reject) ** (n + 2) * (n + reject)


def rung_metrics() -> list[tuple[str, str]]:
    """(layer, rung name) pairs reported as per-rung times."""
    out = []
    text_rungs = [tape_rung(k, m, n) for k, m, n, _ in TAPE_RUNGS if tape_rung(k, m, n) <= TEXT_MAX_STATES]
    for r in TAPE_RUNGS:
        out.append(("models.compile_tm", str(tape_rung(*r[:3]))))
    for layer in ("textio.render_machine", "textio.parse_machine",
                  "reductions.state_reduction", "reductions.is_sub_machine"):
        out.extend((layer, str(s)) for s in text_rungs)
    for r in MEM_RUNGS:
        out.append(("models.compile_mem", str(mem_rung(*r[:4]))))
    for n, _ in FULL_RUNGS:
        out.append(("machine.full_machine", f"n{n}"))
        out.append(("reductions.functional_reduction", f"n{n}"))
    return out


def generate(pkg, seed: int, rounds: int, workdir, tape_rungs=TAPE_RUNGS,
             mem_rungs=MEM_RUNGS, full_rungs=FULL_RUNGS) -> list:
    """Inputs for every round: spec text, reference spec, kept labels.
    The order is fixed, rung by rung, so the heap history, and with it peak
    RSS, is the same from seed to seed."""
    rng = random.Random(f"build:{seed}")
    items = []
    for rnd in range(rounds):
        for ri, (k, m, n, count) in enumerate(tape_rungs):
            for i in range(count):
                policy = ("clamp", "reject")[(ri + i) % 2]
                items.append(_spec_item(rng, f"t{rnd}_{ri}_{i}", k, m, n, policy,
                                        str(tape_rung(k, m, n)), None))
        for ri, (k, m, n, policy, count) in enumerate(mem_rungs):
            for i in range(count):
                items.append(_spec_item(rng, f"m{rnd}_{ri}_{i}", k, m, n, policy,
                                        None, str(mem_rung(k, m, n, policy))))
        for n, keep in full_rungs:
            picks = sorted(rng.sample(range(n**n), keep))
            items.append({"kind": "full", "n": n, "keep": picks, "full_rung": f"n{n}"})
    return items


def _spec_item(rng, name, k, m, n, policy, tm_rung, mem_rung_name) -> dict:
    spec = refs.random_spec(rng, name, k, m, n, policy)
    item = {"kind": "spec", "spec": spec, "text": refs.write_tm(spec),
            "tm_rung": tm_rung, "mem_rung": mem_rung_name, "keep": None}
    if spec.n_states <= TEXT_MAX_STATES:
        labels, table, keep = refs.forward_closed_half(spec, rng)
        item.update(labels=labels, table=table, keep=keep)
    return item


def make_pass(pkg, layers, items) -> tuple[list, callable]:
    ops = []
    for it in items:
        if it["kind"] == "full":
            ops.append(_full_op(pkg, layers, it))
        else:
            ops.append(_spec_op(pkg, layers, it))
    return ops, lambda: {}


def _spec_op(pkg, L, it) -> Op:
    spec = it["spec"]
    with_mem = it["mem_rung"] is not None

    def run():
        t = L.parse_turing(it["text"])
        m, codec = L.compile_tm(t)
        walk = L.run_to_fixpoint(m.functions[0], codec.encode(t.initial), m.n_states,
                                 record_trajectory=True)
        out = {"t": t, "m": m, "walk": walk}
        if it["keep"] is not None:
            out["text"] = L.render_machine(m)
            out["parsed"] = L.parse_machine(out["text"])
            red = L.state_reduction(m, it["keep"])
            out["red"] = red
            out["sub"] = L.is_sub_machine(m, red.result)
        prog = L.tm_to_mem(t)
        if with_mem:
            prog = L.parse_mem(L.render_mem(prog))
            try:
                mm, mcodec = L.compile_mem(prog)
            except pkg.EnumerationTooLargeError as e:
                return GaveUp(str(e))
            out["mwalk"] = L.run_to_fixpoint(
                mm.functions[0], mcodec.encode(prog.initial_state), mm.n_states,
                record_trajectory=True)
            out["mstates"] = mm.n_states
        out["lock"] = L.verify_lockstep(t, prog, LOCKSTEP_STEPS)
        return out

    def check(out) -> bytes:
        if isinstance(out, GaveUp):
            return f"{spec.name} gave up\n".encode()
        return _check_spec(pkg, it, out)

    meta = {"tm_rung": it["tm_rung"], "mem_rung": it["mem_rung"],
            "tm_states": spec.n_states, "mem_states": spec.mem_states if with_mem else 0}
    return Op("spec", run, check, meta)


def _check_spec(pkg, it, out) -> bytes:
    spec, m, walk = it["spec"], out["m"], out["walk"]
    name = spec.name
    if m.n_states != spec.n_states or m.n_functions != 1:
        raise GateError(f"{name}: compiled {m.n_states} states, expected {spec.n_states}")
    # One step past the longest compiled walk is enough to see how it ends,
    # and keeps the reference trace, and peak RSS, from growing with the
    # state count when the tape machine never halts.
    steps = max(len(walk.trajectory), len(out["mwalk"].trajectory) if "mwalk" in out else 0)
    sim = pkg.simulate_tm(out["t"], steps + 1)
    configs = [(c.register, c.tape, c.head) for c in sim.configurations]
    _same_walk(name, "compile_tm", walk, [refs.tm_label(c) for c in configs], sim.outcome,
               pkg, refs.ERROR_LABEL)
    parts = [name, type(walk).__name__, str(len(walk.trajectory))]
    if it["keep"] is not None:
        labels, table = it["labels"], it["table"]
        if list(m.states.labels) != labels or list(m.functions[0].table) != table:
            raise GateError(f"{name}: compiled table differs from the rules")
        text = out["text"]
        lines = text.splitlines()
        clauses = lines[2].split(": ", 1)[1].split(", ")
        want = [f"{labels[i]}->{labels[j]}" for i, j in enumerate(table)]
        if lines[1] != "states " + " ".join(labels) or clauses != want:
            raise GateError(f"{name}: rendered machine does not list the compiled table")
        if out["parsed"] != m:
            raise GateError(f"{name}: parse_machine(render_machine(m)) != m")
        keep = it["keep"]
        pos = {lab: p for p, lab in enumerate(keep)}
        index = {lab: i for i, lab in enumerate(labels)}
        red = out["red"].result
        want_sub = tuple(pos[labels[table[index[lab]]]] for lab in keep)
        if list(red.states.labels) != keep or [f.table for f in red.functions] != [want_sub]:
            raise GateError(f"{name}: state reduction is not the restricted step")
        if out["sub"] is None or out["sub"][1].result != red:
            raise GateError(f"{name}: is_sub_machine rejected its own state reduction")
        parts += [sha(text).decode(), str(len(keep))]
    lock = out["lock"]
    if not lock.ok:
        raise GateError(f"{name}: lockstep divergence {lock.divergence}")
    parts += [str(lock.steps_verified), lock.tm_outcome]
    if "mwalk" in out:
        if out["mstates"] != spec.mem_states:
            raise GateError(f"{name}: compile_mem gave {out['mstates']} states, expected {spec.mem_states}")
        n = spec.cells
        projected = []
        for lab in out["mwalk"].trajectory:
            cells = lab.split("|")[0].split(";")
            if cells[n + 1] == "pos.err":
                projected.append(refs.ERROR_LABEL)
                continue
            projected.append(refs.tm_label((cells[n][4:], tuple(c[4:] for c in cells[:n]),
                                            int(cells[n + 1][4:]))))
        _same_walk(name, "compile_mem", out["mwalk"], [refs.tm_label(c) for c in configs],
                   sim.outcome, pkg, refs.ERROR_LABEL, projected)
        parts += [type(out["mwalk"]).__name__, str(len(projected))]
    return (" ".join(parts) + "\n").encode()


def _same_walk(name, what, walk, sim_labels, outcome, pkg, error_label, labels=None):
    """A compiled trajectory must follow simulate_tm step for step and end the
    way it does: halted at the same place, in the error state one step after
    a rejected move, or cycling (or stuck on a self-loop) when the tape
    machine never stops."""
    got = list(labels if labels is not None else walk.trajectory)
    common = min(len(got), len(sim_labels))
    if got[:common] != sim_labels[:common]:
        raise GateError(f"{name}: {what} trajectory leaves simulate_tm's")
    if outcome == "halted":
        ok = isinstance(walk, pkg.Halted) and len(got) == len(sim_labels)
    elif outcome == "boundary-error":
        ok = (isinstance(walk, pkg.Halted) and len(got) == len(sim_labels) + 1
              and got[-1] == error_label)
    elif isinstance(walk, pkg.Halted):
        # A rule that rewrites a configuration onto itself (a clamped move
        # off the edge) never halts the tape machine but is a fixed point.
        ok = len(got) < len(sim_labels) and sim_labels[len(got)] == got[-1]
    else:
        ok = isinstance(walk, pkg.Cycled)
    if not ok:
        raise GateError(f"{name}: {what} ends {type(walk).__name__}, simulate_tm {outcome}")


def _full_op(pkg, L, it) -> Op:
    n, picks = it["n"], it["keep"]
    labels = tuple(f"s{i}" for i in range(n))

    def run():
        fm = L.full_machine(pkg.StateSet(labels))
        return fm, L.functional_reduction(fm, [fm.functions[i] for i in picks])

    def check(out) -> bytes:
        fm, red = out
        tables = [f.table for f in fm.functions]
        if len(tables) != n**n or any(
            t != tuple((i // n ** (n - 1 - d)) % n for d in range(n)) for i, t in enumerate(tables)
        ):
            raise GateError(f"full_machine({n}) is not every table in order")
        kept = [f.table for f in red.result.functions]
        if red.kept_functions != tuple(picks) or kept != [tables[i] for i in picks]:
            raise GateError(f"functional_reduction of full_machine({n}) kept the wrong functions")
        return f"full {n} {len(picks)}\n".encode()

    return Op("full", run, check, {"full_rung": it["full_rung"]})
