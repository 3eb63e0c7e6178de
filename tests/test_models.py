"""Turing and memory-cell frontends: interpreters, compilers, translation."""

import collections
import dataclasses
import itertools
import math
import operator
import random
from pathlib import Path

import pytest

from machalg import (
    DEFAULT_ENUMERATION_CAP,
    ERROR_LABEL,
    BoundaryPolicy,
    EnumerationTooLargeError,
    InvalidMachineError,
    MemEntry,
    MemProgram,
    MemState,
    Move,
    StateSet,
    TmConfiguration,
    TotalityViolationError,
    TuringSpec,
    compile_mem,
    compile_tm,
    find_isomorphism,
    fn_from_map,
    full_bijection_machine,
    make_machine,
    mem_is_final,
    mem_step,
    parse_turing,
    simulate_tm,
    states,
    tm_to_mem,
    verify_lockstep,
)

from machalg.machine import _check_tables
from machalg.textio import parse_mem

from conftest import random_mem_program, random_tm_config, random_turing_spec
from oracles import (
    brute_force_compile_mem,
    brute_force_compile_tm,
    reference_lockstep,
    reference_simulate_tm,
)


BITFLIP_TM = Path(__file__).resolve().parent.parent / "samples" / "bitflip.tm"


def bitflip_spec(policy=BoundaryPolicy.CLAMP, start="0"):
    return TuringSpec(
        symbols=("0", "1"),
        registers=("go", "done"),
        cells=1,
        rules={
            ("go", "0"): ("done", "1", Move.STAY),
            ("go", "1"): ("done", "0", Move.STAY),
        },
        halting=frozenset({"done"}),
        boundary_policy=policy,
        initial=TmConfiguration("go", (start,), 0),
    )


def increment_spec():
    # unary counter: scan right over 1s, flip the first 0, halt
    return TuringSpec(
        symbols=("0", "1"),
        registers=("scan", "done"),
        cells=4,
        rules={
            ("scan", "1"): ("scan", "1", Move.RIGHT),
            ("scan", "0"): ("done", "1", Move.STAY),
        },
        halting=frozenset({"done"}),
        boundary_policy=BoundaryPolicy.REJECT,
        initial=TmConfiguration("scan", ("1", "1", "0", "0"), 0),
    )


def runner_spec(policy):
    # always moves right; falls off a one-cell tape immediately
    return TuringSpec(
        symbols=("0", "1"),
        registers=("go",),
        cells=1,
        rules={
            ("go", "0"): ("go", "1", Move.RIGHT),
            ("go", "1"): ("go", "1", Move.RIGHT),
        },
        halting=frozenset(),
        boundary_policy=policy,
        initial=TmConfiguration("go", ("0",), 0),
    )


class TestTuringSpecValidation:
    def base(self, **overrides):
        kwargs = dict(
            symbols=("0", "1"),
            registers=("a", "b"),
            cells=2,
            rules={("a", "0"): ("b", "1", Move.STAY)},
            halting=frozenset({"b"}),
            boundary_policy=BoundaryPolicy.CLAMP,
            initial=TmConfiguration("a", ("0", "0"), 0),
        )
        kwargs.update(overrides)
        return TuringSpec(**kwargs)

    def test_valid_base(self):
        t = self.base()
        assert (t.k, t.m, t.n) == (2, 2, 2)

    def test_duplicate_symbols(self):
        with pytest.raises(InvalidMachineError):
            self.base(symbols=("0", "0"))

    def test_repeated_register(self):
        with pytest.raises(InvalidMachineError) as e:
            self.base(registers=("a", "b", "a"))
        assert str(e.value) == "registers must be non-empty and distinct"

    def test_reserved_character_in_symbol(self):
        with pytest.raises(InvalidMachineError):
            self.base(symbols=("0", "x|y"))

    def test_reserved_character_in_register(self):
        with pytest.raises(InvalidMachineError):
            self.base(registers=("a", "b.c"), halting=frozenset())

    def test_zero_cells(self):
        with pytest.raises(InvalidMachineError):
            self.base(cells=0, initial=TmConfiguration("a", (), 0))

    def test_unknown_halting_register(self):
        with pytest.raises(InvalidMachineError):
            self.base(halting=frozenset({"zz"}))

    def test_rule_unknown_register(self):
        with pytest.raises(InvalidMachineError):
            self.base(rules={("zz", "0"): ("a", "0", Move.STAY)})

    def test_rule_unknown_symbol(self):
        with pytest.raises(InvalidMachineError):
            self.base(rules={("a", "7"): ("a", "0", Move.STAY)})

    def test_rule_from_halting_register(self):
        with pytest.raises(InvalidMachineError):
            self.base(rules={("b", "0"): ("a", "0", Move.STAY)})

    def test_rule_with_raw_string_move(self):
        with pytest.raises(InvalidMachineError):
            self.base(rules={("a", "0"): ("a", "0", "sideways")})

    def test_initial_tape_length(self):
        with pytest.raises(InvalidMachineError):
            self.base(initial=TmConfiguration("a", ("0",), 0))

    def test_initial_unknown_symbol(self):
        with pytest.raises(InvalidMachineError):
            self.base(initial=TmConfiguration("a", ("0", "9"), 0))

    def test_initial_head_off_tape(self):
        with pytest.raises(InvalidMachineError):
            self.base(initial=TmConfiguration("a", ("0", "0"), 2))

    def test_initial_unknown_register(self):
        with pytest.raises(InvalidMachineError):
            self.base(initial=TmConfiguration("zz", ("0", "0"), 0))


class TestSimulateTm:
    def test_bitflip_one_step(self):
        trace = simulate_tm(bitflip_spec(), 10)
        assert trace.outcome == "halted"
        assert trace.steps == 1
        assert trace.configurations[-1] == TmConfiguration("done", ("1",), 0)

    def test_increment_scan(self):
        trace = simulate_tm(increment_spec(), 10)
        assert trace.outcome == "halted"
        assert trace.steps == 3
        assert trace.configurations[-1].tape == ("1", "1", "1", "0")
        assert trace.configurations[-1].register == "done"

    def test_boundary_reject_keeps_pre_state(self):
        trace = simulate_tm(runner_spec(BoundaryPolicy.REJECT), 10)
        assert trace.outcome == "boundary-error"
        assert trace.steps == 0
        assert trace.configurations[-1].tape == ("0",)  # write rolled back

    def test_boundary_clamp_applies_write(self):
        trace = simulate_tm(runner_spec(BoundaryPolicy.CLAMP), 10)
        # the write and register change land, the head stays put
        assert trace.configurations[1] == TmConfiguration("go", ("1",), 0)
        assert trace.outcome == "halted" or trace.steps >= 1

    def test_step_limit(self):
        t = TuringSpec(
            symbols=("0",),
            registers=("a", "b"),
            cells=1,
            rules={
                ("a", "0"): ("b", "0", Move.STAY),
                ("b", "0"): ("a", "0", Move.STAY),
            },
            halting=frozenset(),
            boundary_policy=BoundaryPolicy.CLAMP,
            initial=TmConfiguration("a", ("0",), 0),
        )
        trace = simulate_tm(t, 5)
        assert trace.outcome == "step-limit"
        assert trace.steps == 5

    def test_zero_budget(self):
        t = bitflip_spec()
        trace = simulate_tm(t, 0)
        assert trace.outcome == "step-limit"
        assert trace.steps == 0
        halted = dataclasses.replace(t, initial=TmConfiguration("done", ("0",), 0))
        assert simulate_tm(halted, 0).outcome == "halted"

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            simulate_tm(bitflip_spec(), -1)

    def test_missing_rule_halts(self):
        t = self_loop = TuringSpec(
            symbols=("0", "1"),
            registers=("a",),
            cells=1,
            rules={("a", "0"): ("a", "1", Move.STAY)},
            halting=frozenset(),
            boundary_policy=BoundaryPolicy.CLAMP,
            initial=TmConfiguration("a", ("0",), 0),
        )
        trace = simulate_tm(t, 10)
        assert trace.outcome == "halted"  # no rule for ("a","1")
        assert trace.steps == 1


class TestSimulateTmMatchesOracle:
    def test_seeded_traces_equal_the_reference(self):
        rng = random.Random(28)
        seen = collections.Counter()
        for case in range(250):
            spec = random_turing_spec(rng, max_registers=3, max_symbols=3, max_cells=5)
            for policy in BoundaryPolicy:
                t = dataclasses.replace(spec, boundary_policy=policy)
                # Half the caps land on the step where the uncapped run ends.
                end = reference_simulate_tm(t, 60).steps
                cap = end if rng.random() < 0.5 else rng.randint(0, 60)
                got, want = simulate_tm(t, cap), reference_simulate_tm(t, cap)
                assert (got.configurations, got.outcome, got.steps) == (
                    want.configurations, want.outcome, want.steps
                ), (case, policy, cap)
                seen[want.outcome] += 1
                if want.steps == cap and want.outcome == "halted":
                    seen["halted at the cap"] += 1
                elif want.steps == cap and reference_simulate_tm(t, cap + 1).outcome == "boundary-error":
                    assert want.outcome == "step-limit"
                    seen["refused move at the cap"] += 1
        assert sum(seen[o] for o in ("halted", "boundary-error", "step-limit")) >= 400
        assert seen.keys() == {
            "halted", "boundary-error", "step-limit", "halted at the cap", "refused move at the cap"
        }, seen
        assert min(seen.values()) >= 15, seen


class TestCompileTm:
    def test_state_count_formula(self):
        rng = random.Random(21)
        for _ in range(30):
            t = random_turing_spec(rng)
            machine, _ = compile_tm(t)
            expected = t.k * t.m**t.n * t.n
            if t.boundary_policy is BoundaryPolicy.REJECT:
                expected += 1
            assert machine.n_states == expected
            assert machine.n_functions == 1

    def test_label_order(self):
        t = TuringSpec(
            symbols=("0", "1"),
            registers=("r", "s"),
            cells=1,
            rules={},
            halting=frozenset(),
            boundary_policy=BoundaryPolicy.CLAMP,
            initial=TmConfiguration("r", ("0",), 0),
        )
        machine, _ = compile_tm(t)
        assert machine.states.labels == ("r|0|0", "r|1|0", "s|0|0", "s|1|0")

    def test_reject_adds_error_state(self):
        t = runner_spec(BoundaryPolicy.REJECT)
        machine, codec = compile_tm(t)
        assert ERROR_LABEL in machine.states.labels
        assert codec.error_label == ERROR_LABEL
        step = machine.functions[0]
        assert step(ERROR_LABEL) == ERROR_LABEL  # absorbing
        with pytest.raises(InvalidMachineError):
            codec.decode(ERROR_LABEL)

    def test_codec_round_trip(self):
        rng = random.Random(22)
        for _ in range(15):
            t = random_turing_spec(rng)
            machine, codec = compile_tm(t)
            for label in machine.states.labels:
                if label == codec.error_label:
                    continue
                assert codec.encode(codec.decode(label)) == label

    def test_compiled_walk_matches_interpreter(self):
        rng = random.Random(23)
        for _ in range(10):
            t = random_turing_spec(rng)
            machine, codec = compile_tm(t)
            step = machine.functions[0]
            for _ in range(5):
                c0 = random_tm_config(rng, t.symbols, t.registers, t.cells)
                probe = dataclasses.replace(t, initial=c0)
                trace = simulate_tm(probe, 30)
                label = codec.encode(c0)
                for c in trace.configurations[1:]:
                    label = step(label)
                    assert label == codec.encode(c)
                if trace.outcome == "halted":
                    assert step(label) == label
                elif trace.outcome == "boundary-error":
                    assert step(label) == ERROR_LABEL

    def test_enumeration_cap(self):
        # 1 register, 2 symbols, 62 cells: refused before any table is allocated
        t = TuringSpec(("0", "1"), ("q",), 62, {}, frozenset(), BoundaryPolicy.CLAMP,
                       TmConfiguration("q", ("0",) * 62, 0))
        with pytest.raises(EnumerationTooLargeError) as err:
            compile_tm(t)
        assert (err.value.size, err.value.cap) == (2**62 * 62, DEFAULT_ENUMERATION_CAP)
        assert str(err.value) == (
            "compiled state set would enumerate 285924533142498050048 items, "
            "above the cap of 1000000"
        )


class TestCompileTmMatchesOracle:
    """compile_tm's block fill against stepping every configuration."""

    @pytest.mark.parametrize("policy", list(BoundaryPolicy))
    @pytest.mark.parametrize("rule_density", [0.3, 0.85, 1.0])
    def test_random_specs(self, policy, rule_density):
        rng = random.Random(f"{policy.value}-{rule_density}")
        seen = set()
        for _ in range(40):
            t = dataclasses.replace(
                random_turing_spec(
                    rng, max_registers=5, max_symbols=3, rule_density=rule_density
                ),
                boundary_policy=policy,
            )
            machine, _ = compile_tm(t)
            assert machine.n_functions == 1
            got = machine.states.labels, machine.functions[0].table
            assert got == brute_force_compile_tm(t)
            seen.update(
                name
                for name, hit in (
                    ("halting", bool(t.halting)),
                    ("one symbol", t.m == 1),
                    ("one cell", t.n == 1),
                    ("four registers", t.k >= 4),
                )
                if hit
            )
        assert seen == {"halting", "one symbol", "one cell", "four registers"}

    @pytest.mark.parametrize("policy", list(BoundaryPolicy))
    def test_named_specs(self, policy):
        for t in (bitflip_spec(policy), runner_spec(policy), increment_spec()):
            t = dataclasses.replace(t, boundary_policy=policy)  # increment_spec takes none
            machine, _ = compile_tm(t)
            got = machine.states.labels, machine.functions[0].table
            assert got == brute_force_compile_tm(t)


def toggle_program(**overrides):
    kwargs = dict(
        n_cells=1,
        alphabet=("0", "1", "2"),
        functions=(
            (
                MemEntry((0,), ("0",), (0,), ("1",), (0,), 0),
                MemEntry((0,), ("1",), (0,), ("2",), (0,), 0),
            ),
        ),
        initial_cells=("0",),
        initial_selector=(0,),
        initial_function=0,
        finals=((0, "2"),),
    )
    kwargs.update(overrides)
    return MemProgram(**kwargs)


class TestMemValidation:
    def test_valid_base(self):
        p = toggle_program()
        assert p.initial_state == MemState(("0",), (0,), 0)

    def test_zero_cells(self):
        with pytest.raises(InvalidMachineError):
            toggle_program(n_cells=0, initial_cells=())

    def test_duplicate_alphabet(self):
        with pytest.raises(InvalidMachineError):
            toggle_program(alphabet=("0", "0", "2"))

    def test_reserved_character_value(self):
        with pytest.raises(InvalidMachineError):
            toggle_program(alphabet=("0", "1", "a|b"))

    def test_no_families(self):
        with pytest.raises(InvalidMachineError):
            toggle_program(functions=())

    def test_initial_cells_length(self):
        with pytest.raises(InvalidMachineError):
            toggle_program(initial_cells=("0", "0"))

    def test_initial_unknown_value(self):
        with pytest.raises(InvalidMachineError):
            toggle_program(initial_cells=("9",))

    def test_selector_repeats_cell(self):
        with pytest.raises(InvalidMachineError):
            toggle_program(initial_selector=(0, 0))

    def test_selector_out_of_range(self):
        with pytest.raises(InvalidMachineError):
            toggle_program(initial_selector=(1,))

    def test_initial_family_out_of_range(self):
        with pytest.raises(InvalidMachineError):
            toggle_program(initial_function=3)

    def test_final_condition_invalid(self):
        with pytest.raises(InvalidMachineError):
            toggle_program(finals=((5, "0"),))
        with pytest.raises(InvalidMachineError):
            toggle_program(finals=((0, "9"),))

    def test_read_arity_mismatch(self):
        bad = MemEntry((0,), ("0", "1"), (0,), ("1",), (0,), 0)
        with pytest.raises(InvalidMachineError):
            toggle_program(functions=((bad,),))

    def test_write_arity_mismatch(self):
        bad = MemEntry((0,), ("0",), (0,), (), (0,), 0)
        with pytest.raises(InvalidMachineError):
            toggle_program(functions=((bad,),))

    def test_unknown_entry_value(self):
        bad = MemEntry((0,), ("7",), (0,), ("1",), (0,), 0)
        with pytest.raises(InvalidMachineError):
            toggle_program(functions=((bad,),))

    def test_next_family_out_of_range(self):
        bad = MemEntry((0,), ("0",), (0,), ("1",), (0,), 4)
        with pytest.raises(InvalidMachineError):
            toggle_program(functions=((bad,),))

    def test_duplicate_entry_key(self):
        dup = (
            MemEntry((0,), ("0",), (0,), ("1",), (0,), 0),
            MemEntry((0,), ("0",), (0,), ("2",), (0,), 0),
        )
        with pytest.raises(InvalidMachineError):
            toggle_program(functions=(dup,))


class TestMemStep:
    def test_toggle_run(self):
        p = toggle_program()
        run = itertools.accumulate(range(4), lambda s, _: mem_step(p, s), initial=p.initial_state)
        assert [s.cells[0] for s in run] == ["0", "1", "2", "2", "2"]

    def test_final_wins_over_entries(self):
        # an entry matching the final state must not fire
        loop_back = MemEntry((0,), ("2",), (0,), ("0",), (0,), 0)
        p = toggle_program(
            functions=(toggle_program().functions[0] + (loop_back,),)
        )
        final = MemState(("2",), (0,), 0)
        assert mem_is_final(p, final)
        assert mem_step(p, final) == final

    def test_missing_entry_without_default(self):
        p = toggle_program(finals=())
        stuck = MemState(("2",), (0,), 0)
        with pytest.raises(TotalityViolationError):
            mem_step(p, stuck)

    def test_missing_entry_with_default(self):
        p = toggle_program(finals=(), default_halt=True)
        stuck = MemState(("2",), (0,), 0)
        assert mem_step(p, stuck) == stuck

    def test_alternating_families(self):
        p = MemProgram(
            n_cells=1,
            alphabet=("a", "b"),
            functions=(
                (MemEntry((), (), (0,), ("b",), (), 1),),
                (MemEntry((), (), (0,), ("a",), (), 0),),
            ),
            initial_cells=("a",),
            initial_selector=(),
            initial_function=0,
        )
        run = list(itertools.accumulate(range(4), lambda s, _: mem_step(p, s), initial=p.initial_state))
        assert [s.cells[0] for s in run] == ["a", "b", "a", "b", "a"]
        assert [s.fn for s in run] == [0, 1, 0, 1, 0]

    def test_multi_cell_write(self):
        p = MemProgram(
            n_cells=3,
            alphabet=("x", "y"),
            functions=(
                (MemEntry((0,), ("x",), (0, 1, 2), ("y", "y", "y"), (0,), 0),),
            ),
            initial_cells=("x", "x", "x"),
            initial_selector=(0,),
            initial_function=0,
            default_halt=True,
        )
        assert mem_step(p, p.initial_state).cells == ("y", "y", "y")


class TestCompileMem:
    def test_toggle_compiles_to_three_states(self):
        p = toggle_program()
        machine, codec = compile_mem(p)
        assert machine.n_states == 3
        assert machine.n_functions == 1
        step = machine.functions[0]
        label = codec.encode(p.initial_state)
        seen = [label]
        for _ in range(3):
            label = step(label)
            seen.append(label)
        cells = [codec.decode(s).cells[0] for s in seen]
        assert cells == ["0", "1", "2", "2"]

    def test_codec_round_trip(self):
        p = toggle_program()
        machine, codec = compile_mem(p)
        for label in machine.states.labels:
            assert codec.encode(codec.decode(label)) == label

    def test_negation_program_isomorphic_to_switch(self):
        p = MemProgram(
            n_cells=1,
            alphabet=("a", "b"),
            functions=(
                (
                    MemEntry((0,), ("a",), (0,), ("b",), (0,), 0),
                    MemEntry((0,), ("b",), (0,), ("a",), (0,), 0),
                ),
            ),
            initial_cells=("a",),
            initial_selector=(0,),
            initial_function=0,
        )
        compiled, _ = compile_mem(p)
        ss = states("0", "1")
        neg = make_machine(ss, [fn_from_map(ss, {"0": "1", "1": "0"}, "neg")])
        mor = find_isomorphism(compiled, neg)
        assert mor is not None

    def test_compile_requires_totality(self):
        p = toggle_program(finals=())  # state "2" has no entry, no default
        with pytest.raises(TotalityViolationError, match=r"read\(0,\)=\('2',\)"):
            compile_mem(p)

    def test_an_unreached_gap_is_refused(self):
        # Flipping 0 and 1 from 0 never reaches 2, which no entry reads: the
        # compiler refuses the first state in index order that no entry fills.
        flip = (MemEntry((0,), ("0",), (0,), ("1",), (0,), 0), MemEntry((0,), ("1",), (0,), ("0",), (0,), 0))
        p = toggle_program(functions=(flip,), finals=())
        run = itertools.accumulate(range(4), lambda s, _: mem_step(p, s), initial=p.initial_state)
        assert [s.cells[0] for s in run] == ["0", "1", "0", "1", "0"]
        with pytest.raises(TotalityViolationError) as err:
            compile_mem(p)
        assert str(err.value) == "family 0 has no entry for read(0,)=('2',) and the program declares no default"

    def test_enumeration_cap(self):
        # 64 two-valued cells: refused before any table is allocated
        p = MemProgram(64, ("a", "b"), ((),), ("a",) * 64, (0,), 0, default_halt=True)
        with pytest.raises(EnumerationTooLargeError) as err:
            compile_mem(p)
        assert (err.value.size, err.value.cap) == (2**64, DEFAULT_ENUMERATION_CAP)


def compiled_labels_and_table(p):
    machine, _ = compile_mem(p)
    assert machine.n_functions == 1
    return machine.states.labels, machine.functions[0].table


class TestCompileMemMatchesOracle:
    """compile_mem's index arithmetic against stepping every state."""

    @pytest.mark.parametrize("default_halt", [False, True])
    @pytest.mark.parametrize("with_finals", [False, True])
    def test_random_total_programs(self, default_halt, with_finals):
        rng = random.Random(31 + 2 * default_halt + with_finals)
        families = set()
        for _ in range(40):
            p = random_mem_program(rng, True, default_halt, with_finals=with_finals)
            families.add(len(p.functions))
            assert compiled_labels_and_table(p) == brute_force_compile_mem(p)
        assert max(families) > 1

    def test_partial_programs_with_default_halt(self):
        rng = random.Random(47)
        for _ in range(40):
            p = random_mem_program(rng, False, True, n_families=rng.randint(2, 3))
            assert compiled_labels_and_table(p) == brute_force_compile_mem(p)

    def test_wide_programs(self):
        # Up to five cells: the unread cells an entry does not write may
        # form runs on both sides of the cells it reads or writes.
        rng = random.Random(67)
        for _ in range(20):
            p = random_mem_program(rng, False, True, max_cells=5)
            assert compiled_labels_and_table(p) == brute_force_compile_mem(p)

    @pytest.mark.parametrize("policy", list(BoundaryPolicy))
    def test_tm_to_mem_output(self, policy):
        rng = random.Random(59)
        for _ in range(12):
            t = dataclasses.replace(
                random_turing_spec(rng, max_cells=2), boundary_policy=policy
            )
            p = tm_to_mem(t)
            assert compiled_labels_and_table(p) == brute_force_compile_mem(p)

    @pytest.mark.parametrize("with_finals", [False, True])
    def test_missing_entry_raises_the_same_error(self, with_finals):
        rng = random.Random(61 + with_finals)
        raised = 0
        for _ in range(40):
            p = random_mem_program(rng, False, False, with_finals=with_finals)
            try:
                brute_force_compile_mem(p)
            except TotalityViolationError as e:
                with pytest.raises(TotalityViolationError) as got:
                    compile_mem(p)
                assert str(got.value) == str(e)
                raised += 1
            else:
                assert compiled_labels_and_table(p) == brute_force_compile_mem(p)
        assert raised > 10

    def test_gaps_only_in_final_states_compile(self):
        # No entry reads cell 0 = "b", but every such state is final.
        p = MemProgram(
            n_cells=2,
            alphabet=("a", "b"),
            functions=((MemEntry((0,), ("a",), (0, 1), ("b", "a"), (0,), 0),),),
            initial_cells=("a", "b"),
            initial_selector=(0,),
            initial_function=0,
            finals=((0, "b"),),
        )
        assert compiled_labels_and_table(p) == brute_force_compile_mem(p)
        with pytest.raises(TotalityViolationError, match=r"read\(0,\)=\('b',\)"):
            compile_mem(dataclasses.replace(p, finals=()))


class TestCompiledTablesInRange:
    """The compilers build every entry in range, so their machines skip the
    entry-by-entry check that tables from outside get: check it here."""

    @staticmethod
    def assert_in_range(m):
        _check_tables(m.tables, m.n_states)  # raises TotalityViolationError otherwise

    def test_samples(self):
        samples = BITFLIP_TM.parent
        for name in ("bitflip.tm", "increment.tm"):
            self.assert_in_range(compile_tm(parse_turing((samples / name).read_text()))[0])
        # increment.tm's memory-cell program has 2,657,205 states, past the cap
        self.assert_in_range(compile_mem(tm_to_mem(parse_turing(BITFLIP_TM.read_text())))[0])
        self.assert_in_range(compile_mem(parse_mem((samples / "toggle.mem").read_text()))[0])

    @pytest.mark.parametrize("policy", list(BoundaryPolicy))
    def test_random_specs(self, policy):
        rng = random.Random(f"in-range-{policy.value}")
        for _ in range(200):
            t = dataclasses.replace(random_turing_spec(rng, max_cells=3), boundary_policy=policy)
            self.assert_in_range(compile_tm(t)[0])
            self.assert_in_range(compile_mem(tm_to_mem(t))[0])

    @pytest.mark.parametrize("default_halt", [False, True])
    def test_random_mem_programs(self, default_halt):
        rng = random.Random(f"in-range-mem-{default_halt}")
        for _ in range(100):
            p = random_mem_program(rng, not default_halt, default_halt)
            self.assert_in_range(compile_mem(p)[0])


def assert_entry_for_entry(m, want, listed_at_compile=False):
    """``m``'s table, freshly compiled, read entry by entry before any whole
    read, then read whole, compared and hashed, against ``want``."""
    table = m.tables[0]
    assert ("_listing" in table.__dict__) == listed_at_compile
    n = len(want)
    assert len(table) == n and [table[i] for i in range(n)] == list(want)
    assert [table[i] for i in range(-n, 0)] == list(want)
    assert ("_listing" in table.__dict__) == listed_at_compile
    assert tuple(table) == want and table == want and want == table and not table != want
    assert hash(table) == hash(want)
    for other in (want[:-1], want + (0,), want[:-1] + (want[-1] + 1,), (n,), want):
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq):
            assert op(table, other) == op(want, other) and op(other, table) == op(other, want)
    assert table[n // 2 :] == want[n // 2 :] and table + (0,) == want + (0,)
    # Read whole, the table answers [i] and a bound __getitem__ from its tuple.
    assert [table[i] for i in range(-n, n)] == list(want + want)
    assert list(map(table.__getitem__, range(n))) == list(want)
    assert table.index(want[-1]) == want.index(want[-1])
    assert table.count(want[0]) == want.count(want[0])


class TestCompiledTablesEntryForEntry:
    """A compiled table computes entry i alone, and answers its whole reads
    as the tuple the oracles build state by state does."""

    def test_samples(self):
        samples = BITFLIP_TM.parent
        for name, policy in itertools.product(("bitflip.tm", "increment.tm"), BoundaryPolicy):
            t = dataclasses.replace(parse_turing((samples / name).read_text()), boundary_policy=policy)
            assert_entry_for_entry(compile_tm(t)[0], brute_force_compile_tm(t)[1])
            if name == "bitflip.tm":  # increment.tm's program is past the cap
                p = tm_to_mem(t)
                assert_entry_for_entry(compile_mem(p)[0], brute_force_compile_mem(p)[1])
        p = parse_mem((samples / "toggle.mem").read_text())
        assert_entry_for_entry(compile_mem(p)[0], brute_force_compile_mem(p)[1], listed_at_compile=True)

    def test_random_specs(self):
        rng = random.Random(7)
        policies = collections.Counter()
        for _ in range(300):
            t = random_turing_spec(rng, max_cells=3)
            policies[t.boundary_policy] += 1
            assert_entry_for_entry(compile_tm(t)[0], brute_force_compile_tm(t)[1])
        assert min(policies[p] for p in BoundaryPolicy) > 100

    def test_random_mem_programs(self):
        rng = random.Random(7)
        kinds = collections.Counter()
        for total, default_halt, with_finals in itertools.product((False, True), repeat=3):
            for _ in range(26):
                p = random_mem_program(rng, total, default_halt, with_finals=with_finals)
                try:
                    want = brute_force_compile_mem(p)[1]
                except TotalityViolationError:
                    continue  # compile_mem raises the same error: see TestCompileMemMatchesOracle
                assert_entry_for_entry(compile_mem(p)[0], want, listed_at_compile=not default_halt)
                kinds[default_halt, bool(p.finals)] += 1
        assert sum(kinds.values()) >= 100 and min(kinds.values()) >= 20, kinds


class TestTmToMem:
    def test_structure(self):
        t = increment_spec()
        p = tm_to_mem(t)
        assert p.n_cells == t.cells + 2
        assert p.default_halt
        assert p.initial_function == 0 and len(p.functions) == 1
        assert p.initial_selector == (t.cells, t.cells + 1, t.initial.head)
        assert p.initial_cells == (
            "sym.1",
            "sym.1",
            "sym.0",
            "sym.0",
            "reg.scan",
            "pos.0",
        )
        assert p.finals == ((t.cells, "reg.done"),)
        assert "pos.err" in p.alphabet  # reject policy

    def test_clamp_has_no_error_value(self):
        p = tm_to_mem(bitflip_spec())
        assert "pos.err" not in p.alphabet

    def test_bitflip_lockstep(self):
        t = bitflip_spec()
        report = verify_lockstep(t, tm_to_mem(t), 10)
        assert report.ok
        assert report.steps_verified == 1
        assert report.tm_outcome == "halted"

    def test_increment_lockstep(self):
        t = increment_spec()
        report = verify_lockstep(t, tm_to_mem(t), 10)
        assert report.ok
        assert report.steps_verified == 3

    def test_boundary_reject_lockstep(self):
        t = runner_spec(BoundaryPolicy.REJECT)
        report = verify_lockstep(t, tm_to_mem(t), 10)
        assert report.ok
        assert report.tm_outcome == "boundary-error"
        assert report.steps_verified == 1  # the mirrored rejection step

    def test_boundary_clamp_lockstep(self):
        t = runner_spec(BoundaryPolicy.CLAMP)
        report = verify_lockstep(t, tm_to_mem(t), 10)
        assert report.ok

    def test_corrupted_entry_diverges(self):
        t = bitflip_spec()
        p = tm_to_mem(t)
        entries = list(p.functions[0])
        for i, e in enumerate(entries):
            if e.read_values[2] == "sym.0":
                entries[i] = dataclasses.replace(
                    e,
                    write_values=(e.write_values[0], e.write_values[1], "sym.0"),
                )
        corrupted = dataclasses.replace(p, functions=(tuple(entries),))
        report = verify_lockstep(t, corrupted, 10)
        assert not report.ok
        assert report.divergence[0] == 1
        assert report.steps_verified == 0

    def test_program_is_not_stepped_past_a_divergence(self):
        # A one-cell loop whose program writes a symbol into the register
        # cell: it diverges at step 1, where no entry applies and the
        # program declares no default, so one more step would raise.
        t = TuringSpec(
            symbols=("0",),
            registers=("a",),
            cells=1,
            rules={("a", "0"): ("a", "0", Move.STAY)},
            halting=frozenset(),
            boundary_policy=BoundaryPolicy.CLAMP,
            initial=TmConfiguration("a", ("0",), 0),
        )
        p = tm_to_mem(t)
        (e,) = p.functions[0]
        wrong = dataclasses.replace(e, write_values=("sym.0", "sym.0", "sym.0"))
        strict = dataclasses.replace(p, functions=((wrong,),), default_halt=False)
        with pytest.raises(TotalityViolationError):
            mem_step(strict, mem_step(strict, strict.initial_state))
        report = verify_lockstep(t, strict, 10)
        assert report.divergence == (
            1, "expected (('sym.0',), 'reg.a', 'pos.0'), program shows (('sym.0',), 'sym.0', 'sym.0')"
        )
        assert (report.steps_verified, report.tm_outcome) == (0, "step-limit")

    def test_too_few_cells_diverge_at_step_0(self):
        # one cell cannot hold the tape cell, the register and the head
        report = verify_lockstep(bitflip_spec(), toggle_program(), 10)
        assert report.divergence == (
            0, "program has 1 cell(s), the tape machine needs 3"
        )
        assert report.steps_verified == 0
        assert report.tm_outcome == "halted"

    def test_program_moving_after_the_halt_diverges(self):
        # bitflip halts after one step; without its final condition and with
        # one more entry on the halted state, the program steps on.
        t = parse_turing(BITFLIP_TM.read_text())
        p = tm_to_mem(t)
        n = t.cells
        onward = MemEntry(
            (n, n + 1, 0), ("reg.halt", "pos.0", "sym.1"),
            (0,), ("sym.0",), (n, n + 1, 0), 0,
        )
        moving = dataclasses.replace(p, finals=(), functions=(p.functions[0] + (onward,),))
        assert verify_lockstep(t, p, 10).ok
        report = verify_lockstep(t, moving, 10)
        assert report.divergence == (1, "machine halted but program still moves")
        assert (report.steps_verified, report.tm_outcome) == (1, "halted")

    def test_rejected_move_without_pos_err_diverges(self):
        # bitflip under the reject policy, moving left off its one cell; the
        # program's rejection entries write pos.0 where pos.err belongs.
        text = BITFLIP_TM.read_text().replace("boundary clamp", "boundary reject")
        t = parse_turing(text.replace("halt 1 S", "halt 1 L"))
        p = tm_to_mem(t)
        entries = tuple(
            dataclasses.replace(e, write_values=("pos.0",)) if e.write_values == ("pos.err",) else e
            for e in p.functions[0]
        )
        assert entries != p.functions[0]
        assert verify_lockstep(t, p, 10).ok
        report = verify_lockstep(t, dataclasses.replace(p, functions=(entries,)), 10)
        assert report.divergence == (0, "rejected boundary move not mirrored by pos.err")
        assert (report.steps_verified, report.tm_outcome) == (0, "boundary-error")

    def test_missing_entry_is_a_divergence(self):
        # Copies of bitflip's translation without the default: the step the
        # program cannot take is reported, where the parent raised.
        no_entry = "family 0 has no entry for read(1, 2, 0)=({}) and the program declares no default"
        t = parse_turing(BITFLIP_TM.read_text())
        p = dataclasses.replace(tm_to_mem(t), default_halt=False)
        first, second = p.functions[0]
        assert first.read_values == ("reg.q0", "pos.0", "sym.0")  # the entry that fires first
        report = verify_lockstep(t, dataclasses.replace(p, functions=((second,),)), 10)
        assert report.divergence == (1, no_entry.format("'reg.q0', 'pos.0', 'sym.0'"))
        assert (report.steps_verified, report.tm_outcome) == (0, "halted")
        # halted without its final condition, the program has no entry to stay put
        report = verify_lockstep(t, dataclasses.replace(p, finals=()), 10)
        assert report.divergence == (1, no_entry.format("'reg.halt', 'pos.0', 'sym.1'"))
        assert (report.steps_verified, report.tm_outcome) == (1, "halted")
        # a rejected move with no entry to write pos.err
        text = BITFLIP_TM.read_text().replace("boundary clamp", "boundary reject")
        t = parse_turing(text.replace("halt 1 S", "halt 1 L"))
        p = tm_to_mem(t)
        entries = tuple(e for e in p.functions[0] if e.write_values != ("pos.err",))
        assert len(entries) == 1
        report = verify_lockstep(t, dataclasses.replace(p, functions=(entries,), default_halt=False), 10)
        assert report.divergence == (0, no_entry.format("'reg.q0', 'pos.0', 'sym.0'"))
        assert (report.steps_verified, report.tm_outcome) == (0, "boundary-error")

    def test_random_specs_lockstep(self):
        rng = random.Random(24)
        for _ in range(30):
            t = random_turing_spec(rng)
            report = verify_lockstep(t, tm_to_mem(t), 50)
            assert report.ok, report.divergence



def lockstep_mutants(rng, t, p):
    """Three copies of ``p = tm_to_mem(t)`` that may diverge from ``t``: one
    entry's written value or next selector changed (most often the entry that
    fires first), fewer than n + 2 cells, and every halted state stepping on."""
    n = t.cells
    entries = p.functions[0]
    changed = p
    if entries:
        fires = (p.initial_selector, tuple(p.initial_cells[c] for c in p.initial_selector))
        first = [i for i, e in enumerate(entries) if (e.read_cells, e.read_values) == fires]
        i = first[0] if first and rng.random() < 0.7 else rng.randrange(len(entries))
        e = entries[i]
        if rng.random() < 0.5:
            k = rng.randrange(len(e.write_values))
            values = list(e.write_values)
            values[k] = rng.choice([v for v in p.alphabet if v != values[k]])
            e = dataclasses.replace(e, write_values=tuple(values))
        else:
            sel = e.next_read_cells
            while sel == e.next_read_cells:
                sel = tuple(rng.sample(range(n + 2), rng.randint(1, min(3, n + 2))))
            e = dataclasses.replace(e, next_read_cells=sel)
        changed = dataclasses.replace(p, functions=(entries[:i] + (e,) + entries[i + 1:],))
    k = rng.randint(1, n + 1)
    short = MemProgram(k, p.alphabet, ((),), p.initial_cells[:k], (), 0, default_halt=True)
    onward = []
    for r, s, j in itertools.product(t.registers, t.symbols, range(n)):
        if r in t.halting or (r, s) not in t.rules:
            read = ((n, n + 1, j), (f"reg.{r}", f"pos.{j}", f"sym.{s}"))
            if len(t.symbols) > 1:  # write another symbol where the head stands
                s2 = rng.choice([x for x in t.symbols if x != s])
                onward.append(MemEntry(*read, (j,), (f"sym.{s2}",), (n, n + 1, j), 0))
            else:  # the same cells, the selector's order changed
                onward.append(MemEntry(*read, (), (), (n + 1, n, j), 0))
    moving = dataclasses.replace(p, finals=(), functions=(entries + tuple(onward),))
    return changed, short, moving


class TestLockstepMatchesOracle:
    def test_seeded_reports_equal_the_reference(self):
        rng = random.Random(27)
        kinds = collections.Counter()
        for case in range(200):
            spec = random_turing_spec(rng, max_registers=3, max_symbols=3, max_cells=5)
            for policy in BoundaryPolicy:
                t = dataclasses.replace(spec, boundary_policy=policy)
                p = tm_to_mem(t)
                steps = rng.randint(0, 60)
                for q in (p, *lockstep_mutants(rng, t, p)):
                    got, want = verify_lockstep(t, q, steps), reference_lockstep(t, q, steps)
                    assert (got.steps_verified, got.divergence, got.tm_outcome) == (
                        want.steps_verified, want.divergence, want.tm_outcome
                    ), (case, policy, steps, q)
                    assert got.ok or q is not p
                    kinds[got.divergence[1].split()[0] if got.divergence else "ok"] += 1
        # every exit of the walk is reached: agreement, the four divergences
        assert kinds.keys() == {"ok", "expected", "program", "machine", "rejected"}, kinds
        assert min(kinds.values()) >= 15, kinds

    def test_a_missing_entry_diverges_where_the_reference_raises(self):
        # Translations with entries dropped and no default: where the
        # reference stops on the missing entry, the report names its error.
        rng = random.Random(29)
        kinds = collections.Counter()
        for case in range(200):
            spec = random_turing_spec(rng, max_registers=3, max_symbols=3, max_cells=5)
            for policy in BoundaryPolicy:
                t = dataclasses.replace(spec, boundary_policy=policy)
                p = tm_to_mem(t)
                entries = tuple(e for e in p.functions[0] if rng.random() < 0.7)
                q = dataclasses.replace(p, functions=(entries,), default_halt=False)
                steps = rng.randint(0, 60)
                got = verify_lockstep(t, q, steps)
                try:
                    want = reference_lockstep(t, q, steps)
                except TotalityViolationError as e:
                    assert got.divergence[1] == str(e), (case, policy, steps)
                    assert got.steps_verified in (got.divergence[0] - 1, got.divergence[0])
                    assert got.tm_outcome == reference_simulate_tm(t, steps).outcome
                    kinds["raised"] += 1
                else:
                    assert (got.steps_verified, got.divergence, got.tm_outcome) == (
                        want.steps_verified, want.divergence, want.tm_outcome
                    ), (case, policy, steps)
                    kinds["agreed"] += 1
        assert min(kinds["raised"], kinds["agreed"]) >= 15, kinds


class TestFullBijectionMachine:
    def test_single_state(self):
        m = full_bijection_machine(StateSet(("a",)))
        assert m.n_functions == 1
        assert m.has_full_function_set()

    def test_two_states(self):
        m = full_bijection_machine(StateSet(("a", "b")))
        assert [f.table for f in m.functions] == [(0, 1), (1, 0)]
        assert not m.has_full_function_set()

    def test_three_states_closed_under_composition(self):
        m = full_bijection_machine(StateSet(("a", "b", "c")))
        assert m.n_functions == 6
        tables = {f.table for f in m.functions}
        for f in m.functions:
            for g in m.functions:
                composed = tuple(g.table[f.table[i]] for i in range(3))
                assert composed in tables

    def test_blocks_non_invertible_probes(self):
        ss = states("a", "b")
        bij = full_bijection_machine(ss)
        probe = make_machine(
            ss,
            [fn_from_map(ss, {"a": "a", "b": "b"}, "id"),
             fn_from_map(ss, {"a": "a", "b": "a"}, "k0")],
        )
        assert find_isomorphism(bij, probe) is None

    def test_enumeration_cap(self):
        # Building costs nothing; the cap stops loops over every function.
        m = full_bijection_machine(StateSet(tuple(f"s{i}" for i in range(10))))
        assert m.n_functions == math.factorial(10)
        with pytest.raises(EnumerationTooLargeError) as e:
            find_isomorphism(m, m)
        assert e.value.size == math.factorial(10)
        assert e.value.cap == DEFAULT_ENUMERATION_CAP
