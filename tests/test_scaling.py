"""Growth guard: reductions, text round trips and the compilers stay linear.

Each operation is timed on an input with 2048 states and on one with 16384
states, the minimum of three repeats per size: a single-function machine
for the reductions and round trips, a tape machine with 1 and with 8
registers for ``compile_tm``, and a memory-cell program with 11 and with 14
cells for ``compile_mem``.  Eight times the states should cost about eight
times as much; a quadratic path costs about 64 times as much.  The bound of
24 sits between the two.

The full machine is built and reduced to 48 of its functions on 6 and on
600 states: it is never listed, so both cost about the same per entry of
the kept tables.  A compiled tape machine of 917,504 states is walked from
its initial state without listing its labels or writing its step table,
and under 1 MiB traced at the peak: a byte count that host speed cannot
move.  The compilers' growth is timed on the compile plus one whole read
of the table, which writes it.

Isomorphism of a machine of one random map, and of one of two random maps,
against a relabelled copy, is timed on 2000 and on 16,000 states under the
same bound of 24, and a compiled tape machine of 30,720 states against a
relabelled copy must answer in under 1.5 s.

A lockstep check of a tape machine that loops forever holds one
configuration of each side, and ``sim`` writes each step of that machine
and of its translation as it is made, so their traced peaks are the same
at 1,000 and at 20,000 steps; and ``sim`` stops a program at its first
final state, however large ``--steps`` is.
"""

import contextlib
import os
import random
import time
import tracemalloc
from pathlib import Path

import pytest

import machalg.models
from machalg import (
    DEFAULT_ENUMERATION_CAP,
    BoundaryPolicy,
    Cycled,
    MemEntry,
    MemProgram,
    Move,
    StateSet,
    TmConfiguration,
    TransitionFunction,
    TuringSpec,
    compile_mem,
    compile_tm,
    find_isomorphism,
    full_machine,
    functional_reduction,
    make_machine,
    parse_machine,
    parse_mem,
    render_machine,
    render_mem,
    render_turing,
    run_to_fixpoint,
    state_reduction,
    tm_to_mem,
    verify_lockstep,
    verify_morphism,
)
from machalg.cli import main
from oracles import brute_force_compile_tm

SMALL, LARGE = 2048, 16384
MAX_RATIO = 24


def halving_machine(n):
    """States s0..s{n-1}, one function i -> i // 2; the first half is closed."""
    domain = StateSet(tuple(f"s{i}" for i in range(n)))
    half = TransitionFunction(domain, tuple(i // 2 for i in range(n)), "half")
    return make_machine(domain, [half])


def reduce_to_first_half(m):
    kept = m.states.labels[: m.n_states // 2]
    assert state_reduction(m, kept).result.n_states == len(kept)


def text_round_trip(m):
    assert parse_machine(render_machine(m)).functions == m.functions


def best_of_three(op, n):
    times = []
    for _ in range(3):
        m = halving_machine(n)  # fresh, so lookups start without a built index
        start = time.perf_counter()
        op(m)
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("op", [reduce_to_first_half, text_round_trip])
def test_growth_is_linear(op):
    small, large = best_of_three(op, SMALL), best_of_three(op, LARGE)
    ratio = large / small
    assert ratio < MAX_RATIO, (
        f"{op.__name__}: {small * 1e3:.2f} ms at {SMALL} states, "
        f"{large * 1e3:.2f} ms at {LARGE} states, ratio {ratio:.1f}"
    )


def tape_spec(k, cells=8):
    """k registers on 2 symbols x ``cells`` cells, clamped: k * 2**cells * cells states."""
    registers = tuple(f"q{i}" for i in range(k))
    rules = {
        (r, s): (registers[(i + 1) % k], "1" if s == "0" else "0", Move.RIGHT)
        for i, r in enumerate(registers)
        for s in ("0", "1")
    }
    return TuringSpec(
        symbols=("0", "1"),
        registers=registers,
        cells=cells,
        rules=rules,
        halting=frozenset(),
        boundary_policy=BoundaryPolicy.CLAMP,
        initial=TmConfiguration("q0", ("0",) * cells, 0),
    )


def cell_program(n):
    """n two-valued cells, 2**n states: flip cell 0 and copy its old value
    into cell n-1; states with cell 1 = "1" are final."""
    flip = tuple(
        MemEntry((0,), (v,), (0, n - 1), (w, v), (0,), 0)
        for v, w in (("0", "1"), ("1", "0"))
    )
    return MemProgram(
        n_cells=n,
        alphabet=("0", "1"),
        functions=(flip,),
        initial_cells=("0",) * n,
        initial_selector=(0,),
        initial_function=0,
        finals=((1, "1"),),
    )


def best_of_three_compiles(compile_fn, source):
    """The compile and one whole read of its table, which writes it."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        machine, _ = compile_fn(source)
        tuple(machine.tables[0])
        times.append(time.perf_counter() - start)
    return machine.n_states, min(times)


@pytest.mark.parametrize(
    "compile_fn, small_source, large_source",
    [
        (compile_tm, tape_spec(1), tape_spec(8)),
        (compile_mem, cell_program(11), cell_program(14)),
    ],
    ids=["compile_tm", "compile_mem"],
)
def test_compiler_growth_is_linear(compile_fn, small_source, large_source):
    small_n, small = best_of_three_compiles(compile_fn, small_source)
    large_n, large = best_of_three_compiles(compile_fn, large_source)
    assert (small_n, large_n) == (SMALL, LARGE)
    ratio = large / small
    assert ratio < MAX_RATIO, (
        f"{compile_fn.__name__}: {small * 1e3:.2f} ms at {SMALL} states, "
        f"{large * 1e3:.2f} ms at {LARGE} states, ratio {ratio:.1f}"
    )


def relabelled_pair(tables, seed):
    """Machines of ``tables`` and of their conjugates by one seeded permutation."""
    n = len(tables[0])
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    images = []
    for table in tables:
        image = [0] * n
        for s, t in enumerate(table):
            image[perm[s]] = perm[t]
        images.append(image)
    domain = StateSet(tuple(f"s{i}" for i in range(n)))
    return tuple(
        make_machine(domain, [TransitionFunction(domain, tuple(t)) for t in ts]) for ts in (tables, images)
    )


def best_of_three_isomorphisms(n, k):
    rng = random.Random(n)
    tables = [[rng.randrange(n) for _ in range(n)] for _ in range(k)]
    times = []
    for _ in range(3):
        a, b = relabelled_pair(tables, n)  # fresh, so no cached key
        start = time.perf_counter()
        assert find_isomorphism(a, b) is not None
        times.append(time.perf_counter() - start)
    return min(times)


def assert_isomorphism_is_linear(k):
    small, large = best_of_three_isomorphisms(2000, k), best_of_three_isomorphisms(16000, k)
    ratio = large / small
    assert ratio < MAX_RATIO, (
        f"find_isomorphism, {k} function(s): {small * 1e3:.2f} ms at 2000 states, "
        f"{large * 1e3:.2f} ms at 16000 states, ratio {ratio:.1f}"
    )


def test_single_function_isomorphism_is_linear():
    # The refinement search this replaced grew about 3.4 times per doubling
    # (a ratio near 40 over these three doublings).
    assert_isomorphism_is_linear(1)


def test_two_function_isomorphism_is_linear():
    # Colour refinement of the union graph: ratios of 10 to 17 when it was added.
    # A random map paired with the identity splits cells one state at a time
    # and grows faster (a ratio near 17), so it is not guarded here.
    assert_isomorphism_is_linear(2)


def test_compiled_tape_machine_isomorphism_answers_at_once():
    # 3 registers, 2 symbols, 10 clamped cells: 30,720 states.
    m, _ = compile_tm(tape_spec(3, cells=10))
    assert m.n_states == 30720
    a, b = relabelled_pair(m.tables, 1)
    start = time.perf_counter()
    mor = find_isomorphism(a, b)
    elapsed = time.perf_counter() - start
    assert mor is not None and verify_morphism(a, b, mor)
    assert elapsed < 1.5, f"{elapsed:.2f} s for 30,720 states"


def walk_from_the_start(t):
    m, codec = compile_tm(t)
    walk = run_to_fixpoint(m.functions[0], codec.encode(t.initial), m.n_states, True)
    # Neither the label tuple, nor the label dict, nor the step table was built.
    assert "_listing" not in m.states.labels.__dict__
    assert "_positions" not in m.states.__dict__
    assert "_listing" not in m.tables[0].__dict__
    return m, walk


def test_a_walk_decodes_only_the_states_it_visits():
    # 4 registers on 2 symbols x 14 cells: 917,504 states, under the cap.
    # Their step table written in full took 42 MiB.
    tracemalloc.start()
    try:
        m, walk = walk_from_the_start(tape_spec(4, cells=14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
    assert m.n_states == 4 * 2**14 * 14 <= DEFAULT_ENUMERATION_CAP
    assert isinstance(walk, Cycled) and walk.trajectory[0] == "q0|" + ".".join("0" * 14) + "|0"
    # On 2048 states, the walk reads the oracle's labels along the oracle's table.
    t = tape_spec(1)
    _, walk = walk_from_the_start(t)
    labels, table = brute_force_compile_tm(t)
    i, want = 0, []
    for _ in walk.trajectory:
        want.append(labels[i])
        i = table[i]
    assert walk.trajectory == tuple(want) and len(want) > 8


def test_one_kept_table_is_stored_as_it_stands():
    # 917,504 states again.  Keeping the one step table, by index or as a
    # function, stores it unhashed: a dict of tables wrote all its entries.
    tracemalloc.start()
    try:
        m, _ = compile_tm(tape_spec(4, cells=14))
        kept = functional_reduction(m, [0]).result
        made = make_machine(m.states, [m.functions[0]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
    assert "_listing" not in m.tables[0].__dict__
    assert kept.tables[0] is made.tables[0] is m.tables[0]
    assert kept.function_names == made.function_names == ("step",)


def keep_from_full_machine(n, picks):
    start = time.perf_counter()
    fm = full_machine(StateSet(tuple(f"s{i}" for i in range(n))))
    red = functional_reduction(fm, [fm.functions[i] for i in picks])
    elapsed = time.perf_counter() - start
    assert red.kept_functions == tuple(picks) and red.result.n_functions == len(picks)
    return elapsed


def test_full_machine_costs_only_what_it_keeps():
    # Listing the 6**6 tables took about 150 ms; 600**600 would never end.
    per_entry = {}
    for n in (6, 600):
        rng = random.Random(n)
        picks = sorted({rng.randrange(n**n) for _ in range(48)})
        per_entry[n] = min(keep_from_full_machine(n, picks) for _ in range(3)) / (len(picks) * n)
    ratio = per_entry[600] / per_entry[6]
    assert ratio < 8, (
        f"{per_entry[6] * 1e6:.2f} us per kept table entry at 6 states, "
        f"{per_entry[600] * 1e6:.2f} us at 600, ratio {ratio:.1f}"
    )


TOGGLE_MEM = Path(__file__).resolve().parent.parent / "samples" / "toggle.mem"

# One cell, one symbol, one register whose rule rewrites the cell in place.
LOOP = TuringSpec(
    symbols=("0",),
    registers=("a",),
    cells=1,
    rules={("a", "0"): ("a", "0", Move.STAY)},
    halting=frozenset(),
    boundary_policy=BoundaryPolicy.CLAMP,
    initial=TmConfiguration("a", ("0",), 0),
)


def lockstep_peak(program, steps):
    """Bytes traced at the peak of one ``verify_lockstep`` call, and its report."""
    tracemalloc.start()
    try:
        report = verify_lockstep(LOOP, program, steps)
        return tracemalloc.get_traced_memory()[1], report
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "program, detail",
    [
        (tm_to_mem(LOOP), None),
        (parse_mem(TOGGLE_MEM.read_text()), (0, "program has 1 cell(s), the tape machine needs 3")),
    ],
    ids=["own-translation", "toggle"],
)
def test_lockstep_memory_stays_flat(program, detail):
    # A walk that kept every configuration would grow by about 2.7 MiB from
    # 1,000 to 20,000 steps; the bound is a tenth of that.
    small, report = lockstep_peak(program, 1000)
    assert (report.steps_verified, report.divergence, report.tm_outcome) == (
        0 if detail else 1000, detail, "step-limit"
    )
    large, report = lockstep_peak(program, 20000)
    assert report.tm_outcome == "step-limit" and report.divergence == detail
    assert large - small < 256 * 1024, (
        f"peak {small / 2**20:.2f} MiB at 1,000 steps, {large / 2**20:.2f} MiB at 20,000"
    )


@pytest.mark.parametrize("render", [render_turing, lambda t: render_mem(tm_to_mem(t))], ids=["tm", "mem"])
def test_sim_memory_stays_flat(tmp_path, render):
    # Output kept until the run ends grows by 4 to 6 MiB from 1,000 to
    # 20,000 steps; the bound is the same as for the lockstep check.
    path = tmp_path / "loop"
    path.write_text(render(LOOP))
    peaks = []
    for steps in (1000, 20000):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["sim", str(path), "--steps", str(steps)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    small, large = peaks
    assert large - small < 256 * 1024, (
        f"peak {small / 2**20:.2f} MiB at 1,000 steps, {large / 2**20:.2f} MiB at 20,000"
    )


def test_sim_stops_a_program_at_its_first_final_state(monkeypatch, capsys):
    calls = []

    def counted(p, state):
        calls.append(state)
        return step(p, state)

    step = machalg.models.mem_step
    monkeypatch.setattr(machalg.models, "mem_step", counted)
    assert main(["sim", str(TOGGLE_MEM), "--steps", "1000000"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "outcome: final condition met after 2 step(s)"
    assert len(calls) <= 3
