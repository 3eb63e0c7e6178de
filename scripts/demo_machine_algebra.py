#!/usr/bin/env python3
"""End-to-end tour: cardinals, reductions, embeddings, compilers.

Run with no arguments; every section prints what it computes.  The point
is to show the pieces composing, not to benchmark anything.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from machalg import (
    Beth,
    BoundaryPolicy,
    MachineTemplate,
    Morphism,
    StateSet,
    TmConfiguration,
    TuringSpec,
    Move,
    compile_tm,
    find_isomorphism,
    fn_from_map,
    full_machine,
    identity_fn,
    is_complete,
    make_machine,
    render_machine,
    run_to_fixpoint,
    simulate_tm,
    state_cardinality,
    state_reduction,
    states,
    tm_to_mem,
    transition_space_cardinality,
    verify_completeness,
    verify_lockstep,
)


def banner(title):
    print()
    print(f"== {title} ==")


def main() -> int:
    banner("symbolic cardinals")
    trace = []
    card = state_cardinality(MachineTemplate("umm", n=3), trace)
    phi = transition_space_cardinality(card, trace)
    print(f"umm(n=3): |S| = {card!r}, |Phi| = {phi!r}")
    for step in trace:
        print(f"  {step}")
    finite = state_cardinality(MachineTemplate("finite-turing", k=3, m=2, n=4))
    print(f"finite-turing(3,2,4): |S| = {finite!r}")
    assert phi == Beth(2)

    banner("a machine and its runs")
    ss = states("off", "on")
    flip = fn_from_map(ss, {"off": "on", "on": "off"}, "flip")
    switch = make_machine(ss, [identity_fn(ss), flip], name="switch")
    print(render_machine(switch), end="")
    result = run_to_fixpoint(flip, "off", 10, record_trajectory=True)
    print(f"iterating flip from off: {' -> '.join(result.trajectory)} "
          f"({type(result).__name__})")

    banner("reduction")
    ss3 = states("0", "1", "2")
    m3 = make_machine(
        ss3, [identity_fn(ss3), fn_from_map(ss3, {"0": "0", "1": "0", "2": "0"}, "sink")]
    )
    reduced = state_reduction(m3, ("1", "2")).result
    print("keeping states {1,2} of {identity, sink}:")
    print(render_machine(reduced), end="")

    banner("embedding into a full machine")
    container = full_machine(StateSet(("x", "y", "z")))
    probe = make_machine(ss, [flip])
    witness = is_complete(container, probe)
    assert witness is not None and verify_completeness(container, probe, witness)
    fr, sr = witness.reductions
    print(f"container: all {container.n_functions} self-maps on 3 states")
    print(f"witness keeps function(s) {fr.kept_functions} "
          f"on states {sr.kept_states}; morphism {witness.morphism}")

    banner("isomorphism")
    other = make_machine(
        states("a", "b"),
        [identity_fn(states("a", "b")),
         fn_from_map(states("a", "b"), {"a": "b", "b": "a"}, "swap")],
    )
    mor = find_isomorphism(switch, other)
    print(f"switch vs relabeled twin: {mor}")
    assert isinstance(mor, Morphism)

    banner("tape machine, compiled and translated")
    t = TuringSpec(
        symbols=("0", "1"),
        registers=("scan", "done"),
        cells=3,
        rules={
            ("scan", "1"): ("scan", "1", Move.RIGHT),
            ("scan", "0"): ("done", "1", Move.STAY),
        },
        halting=frozenset({"done"}),
        boundary_policy=BoundaryPolicy.REJECT,
        initial=TmConfiguration("scan", ("1", "0", "0"), 0),
        name="inc3",
    )
    trace = simulate_tm(t, 20)
    print(f"direct run: {trace.steps} step(s), {trace.outcome}, "
          f"final tape {' '.join(trace.configurations[-1].tape)}")
    machine, codec = compile_tm(t)
    print(f"compiled machine: {machine.n_states} states, "
          f"initial label {codec.encode(t.initial)}")
    report = verify_lockstep(t, tm_to_mem(t), 50)
    print(f"memory-cell lockstep: verified {report.steps_verified} step(s), "
          f"{report.tm_outcome}, divergence={report.divergence}")
    assert report.ok
    return 0


if __name__ == "__main__":
    sys.exit(main())
