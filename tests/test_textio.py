"""Round-trips and error positions for every text format."""

import dataclasses
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from machalg import (
    BoundaryPolicy,
    Certificate,
    InvalidMachineError,
    MachalgError,
    Machine,
    MemEntry,
    MemProgram,
    ParseError,
    StateSet,
    TransitionFunction,
    compile_tm,
    full_bijection_machine,
    full_machine,
    make_machine,
    parse_certificate,
    parse_machine,
    parse_mem,
    parse_turing,
    render_certificate,
    render_machine,
    render_mem,
    render_turing,
    tm_to_mem,
)
from machalg.lemmas import random_machine
from machalg.textio import display_names, resolve_function

from conftest import random_turing_spec
from mutants import mutated_text
from oracles import enumerated_full_machine, reference_parse_machine

SWITCH = """\
machine switch
states off on
fn flip: off->on, on->off
fn hold: off->off, on->on
"""

# Arbitrary text, and text built from the characters the .mx format reserves.
MX_TEXT = st.text(max_size=3) | st.text(st.sampled_from("a-> ,:#\t\u2028"), max_size=3)


@st.composite
def labelled_machines(draw):
    ss = StateSet(tuple(draw(st.lists(MX_TEXT, min_size=1, max_size=3, unique=True))))
    n = len(ss)
    tables = st.tuples(*[st.integers(0, n - 1)] * n)
    fns = draw(st.lists(
        st.builds(TransitionFunction, st.just(ss), tables, st.none() | MX_TEXT),
        min_size=1, max_size=3,
    ))
    return make_machine(ss, fns, name=draw(st.none() | MX_TEXT))


def _one_state(label="a", fn_name="f", name="m"):
    ss = StateSet((label,))
    return make_machine(ss, [TransitionFunction(ss, (0,), fn_name)], name=name)


class TestMachineFormat:
    def test_parse_basic(self):
        m = parse_machine(SWITCH)
        assert m.states.labels == ("off", "on")
        assert m.n_functions == 2
        flip = m.function_names.index("flip")
        assert m.tables[flip] == (1, 0)

    def test_comments_and_blanks(self):
        text = "# top note\nmachine m\n\nstates a b  # trailing\nfn f: a->b, b->b\n"
        m = parse_machine(text)
        assert m.functions[m.function_names.index("f")]("a") == "b"

    def test_round_trip(self):
        m = parse_machine(SWITCH)
        assert parse_machine(render_machine(m)) == m

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(60):
            m = random_machine(rng, max_states=4, max_functions=6)
            again = parse_machine(render_machine(m))
            assert again == m

    def test_a_taken_display_name_gains_a_suffix(self):
        # function 1 has no name, and its fallback f1 is function 0's name
        m = Machine(StateSet(("a", "b")), ((0, 0), (1, 0)), function_names=("f1", None))
        assert display_names(m) == ["f1", "f1_"]
        again = parse_machine(render_machine(m))
        assert again == m and again.function_names == ("f1", "f1_")

    def test_render_stable(self):
        m = parse_machine(SWITCH)
        assert render_machine(m) == render_machine(m)

    def test_missing_clause_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_machine("machine m\nstates a b\nfn f: a->b\n")
        assert "missing clauses" in str(e.value)
        assert e.value.line == 3

    def test_unknown_state_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_machine("machine m\nstates a b\nfn f: a->b, b->z\n")
        assert "unknown state 'z'" in str(e.value)
        assert e.value.line == 3
        assert e.value.column == "fn f: a->b, b->z".index("z") + 1

    def test_duplicate_clause_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_machine("machine m\nstates a b\nfn f: a->b, a->a, b->b\n")
        assert "duplicate clause" in str(e.value)

    def test_duplicate_state_rejected(self):
        with pytest.raises(ParseError):
            parse_machine("machine m\nstates a a\nfn f: a->a\n")

    def test_duplicate_fn_name_rejected(self):
        with pytest.raises(ParseError):
            parse_machine("machine m\nstates a\nfn f: a->a\nfn f: a->a\n")

    def test_missing_sections(self):
        with pytest.raises(ParseError):
            parse_machine("")
        with pytest.raises(ParseError):
            parse_machine("machine m\n")
        with pytest.raises(ParseError):
            parse_machine("machine m\nstates a\n")
        with pytest.raises(ParseError):
            parse_machine("states a\nfn f: a->a\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as e:
            parse_machine("machine m\nstates a\nfrobnicate\n")
        assert e.value.line == 3

    def test_output_unknown_fn(self):
        # output designations are gone: an old file's output line is refused whole
        with pytest.raises(ParseError) as e:
            parse_machine("machine m\nstates a\nfn f: a->a\noutput g\n")
        assert str(e.value) == "line 4, column 1: unknown directive 'output'"

    def test_bad_label_rejected_on_render(self):
        import machalg

        ss = machalg.states("a,b", "c")
        m = machalg.make_machine(ss, [machalg.identity_fn(ss)])
        with pytest.raises(InvalidMachineError):
            render_machine(m)

    @settings(max_examples=300, deadline=None)
    @given(labelled_machines(), MX_TEXT)
    @example(_one_state(label=""), "m")
    @example(_one_state(fn_name=""), "m")
    @example(_one_state(name="x y"), "m")
    @example(_one_state(), "a,b")
    def test_render_raises_or_round_trips(self, m, name):
        try:
            text = render_machine(m)
        except InvalidMachineError:
            return
        again = parse_machine(text)
        assert again == m
        assert render_machine(again) == text
        # Under any other name, the text parses to a name that renders as parsed.
        try:
            renamed = parse_machine(f"machine {name}\n" + text.split("\n", 1)[1])
        except ParseError:
            return
        assert render_machine(renamed).splitlines()[0] == f"machine {renamed.name}"

    @pytest.mark.parametrize("name", ["a,b", "a:b", "a->b"])
    def test_machine_name_must_be_a_token(self, name):
        with pytest.raises(ParseError) as e:
            parse_machine(f"machine {name}\nstates x\nfn f: x->x\n")
        assert "machine name" in str(e.value)
        assert (e.value.line, e.value.column) == (1, len("machine ") + 1)

    @pytest.mark.parametrize("kwargs, line", [
        ({"fn_name": ""}, "fn f0: a->a"),
        ({"fn_name": "f g"}, "fn f0: a->a"),
        ({"name": "x y"}, "machine m"),
        ({"name": ""}, "machine m"),
        ({"name": "a,b"}, "machine m"),
        ({"fn_name": "a:b"}, "fn f0: a->a"),
        ({"name": 7}, "machine m"),
    ])
    def test_unusable_names_fall_back(self, kwargs, line):
        m = _one_state(**kwargs)
        assert line in render_machine(m).splitlines()
        assert resolve_function(m, display_names(m)[0]) == 0

    @pytest.mark.parametrize("label", ["", "a b", "a\u2028b", "a->b", "a:b", "a#b"])
    def test_unusable_label_rejected_on_render(self, label):
        with pytest.raises(InvalidMachineError):
            render_machine(_one_state(label=label))

    @pytest.mark.parametrize("label", ["", "a,b", "a:b", "a->b", "a#b", "a b", "a\xa0b"])
    def test_render_names_the_first_unusable_label(self, label):
        later = tuple(bad for bad in ("", "z w", "v,u") if bad != label)
        ss = StateSet(("x", label, "y") + later)  # the labels after "y" are no tokens either
        m = make_machine(ss, [TransitionFunction(ss, tuple(range(len(ss))))])
        with pytest.raises(InvalidMachineError) as e:
            render_machine(m)
        assert str(e.value) == f"state label {label!r} is not representable in text"

    def test_non_string_labels_are_refused(self):
        ss = StateSet((1, 2))
        m = make_machine(ss, [TransitionFunction(ss, (1, 0), "swap")])
        assert display_names(m) == ["swap"] and resolve_function(m, "swap") == 0
        with pytest.raises(InvalidMachineError) as e:
            render_machine(m)
        assert str(e.value) == "state label 1 is not representable in text"

    def test_samples_parse(self):
        for path in ("samples/switch.mx", "samples/const0.mx", "samples/const1.mx"):
            with open(path) as fh:
                parse_machine(fh.read())


class TestImplicitFunctions:
    """``functions all`` and ``functions bijections`` stand for the full and
    the bijection machine; only those machines are written so."""

    @pytest.mark.parametrize("build, word", [(full_machine, "all"),
                                             (full_bijection_machine, "bijections")])
    def test_round_trip(self, build, word):
        m = dataclasses.replace(build(StateSet(("a", "b", "c"))), name="big")
        text = render_machine(m)
        assert text == f"machine big\nstates a b c\nfunctions {word}\n"
        back = parse_machine(text)
        assert back == m and back.name == "big" and type(back.tables) is type(m.tables)
        assert render_machine(build(StateSet(("a",)))) == f"machine m\nstates a\nfunctions {word}\n"

    def test_a_listing_keeps_its_fn_lines(self):
        listed = enumerated_full_machine(StateSet(("a", "b")))
        text = render_machine(listed)
        assert "functions" not in text and text.count("\nfn ") == 4
        assert parse_machine(text) == listed == full_machine(StateSet(("a", "b")))
        assert parse_machine("machine m\nstates a b\nfunctions all\n") == listed

    @pytest.mark.parametrize("text, error", [
        ("machine m\nfunctions all\nstates a\n", "line 2, column 1: 'states' must come before 'functions'"),
        ("machine m\nstates a\nfunctions some\n", "line 3, column 1: 'functions' must be 'all' or 'bijections'"),
        ("machine m\nstates a\nfunctions\n", "line 3, column 1: 'functions' must be 'all' or 'bijections'"),
        ("machine m\nstates a\nfunctions all all\n", "line 3, column 1: 'functions' must be 'all' or 'bijections'"),
        ("machine m\nstates a\nfunctions all\n  functions all\n", "line 4, column 3: second 'functions' line"),
        ("machine m\nstates a\nfunctions all\nfn f: a->a\n",
         "line 4, column 1: a 'functions' line excludes 'fn' lines"),
        ("machine m\nstates a\nfn f: a->a\nfunctions all\n",
         "line 4, column 1: a 'functions' line excludes 'fn' lines"),
        ("machine m\nstates a\nfn f: a->a\nfunctions bijections\n",
         "line 4, column 1: a 'functions' line excludes 'fn' lines"),
        ("machine m\nstates a\nfunctions bijections\nfn f: a->a\n",
         "line 4, column 1: a 'functions' line excludes 'fn' lines"),
    ])
    def test_errors(self, text, error):
        with pytest.raises(ParseError) as e:
            parse_machine(text)
        assert str(e.value) == error


class TestTuringFormat:
    def test_round_trip_samples(self):
        for path in ("samples/bitflip.tm", "samples/increment.tm"):
            with open(path) as fh:
                t = parse_turing(fh.read())
            assert parse_turing(render_turing(t)) == t

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(60):
            t = random_turing_spec(rng)
            assert parse_turing(render_turing(t)) == t

    def test_fields(self):
        with open("samples/increment.tm") as fh:
            t = parse_turing(fh.read())
        assert t.cells == 4
        assert t.boundary_policy is BoundaryPolicy.REJECT
        assert t.halting == frozenset({"done"})
        assert ("scan", "1") in t.rules

    def test_unknown_symbol_in_rule(self):
        text = (
            "tm t\nsymbols 0 1\nregisters q\ncells 1\nboundary clamp\n"
            "rule q 2 -> q 0 S\ninit tape 0 head 0 register q\n"
        )
        with pytest.raises(ParseError) as e:
            parse_turing(text)
        assert e.value.line == 6
        assert "unknown symbol '2'" in str(e.value)

    def test_unknown_symbol_on_init_tape(self):
        text = (
            "tm t\nsymbols 0 1\nregisters q\ncells 1\nboundary clamp\n"
            "init tape 2 head 0 register q\n"
        )
        with pytest.raises(ParseError) as e:
            parse_turing(text)
        assert (e.value.line, e.value.column) == (6, 11)
        assert "unknown symbol '2'" in str(e.value)

    def test_duplicate_rule(self):
        text = (
            "tm t\nsymbols 0\nregisters q\ncells 1\nboundary clamp\n"
            "rule q 0 -> q 0 S\nrule q 0 -> q 0 L\n"
            "init tape 0 head 0 register q\n"
        )
        with pytest.raises(ParseError) as e:
            parse_turing(text)
        assert "duplicate rule" in str(e.value)

    def test_halting_register_with_rule(self):
        text = (
            "tm t\nsymbols 0\nregisters q h\ncells 1\nboundary clamp\nhalting h\n"
            "rule h 0 -> q 0 S\ninit tape 0 head 0 register q\n"
        )
        with pytest.raises(ParseError) as e:
            parse_turing(text)
        assert "halting register" in str(e.value)

    def test_head_out_of_range(self):
        text = (
            "tm t\nsymbols 0\nregisters q\ncells 2\nboundary clamp\n"
            "init tape 0 0 head 2 register q\n"
        )
        with pytest.raises(ParseError) as e:
            parse_turing(text)
        assert "head" in str(e.value)

    def test_missing_section(self):
        with pytest.raises(ParseError) as e:
            parse_turing("tm t\nsymbols 0\nregisters q\ncells 1\nboundary clamp\n")
        assert "missing 'init'" in str(e.value)

    def test_bad_move(self):
        text = (
            "tm t\nsymbols 0\nregisters q\ncells 1\nboundary clamp\n"
            "rule q 0 -> q 0 X\ninit tape 0 head 0 register q\n"
        )
        with pytest.raises(ParseError) as e:
            parse_turing(text)
        assert "move" in str(e.value)

    @pytest.mark.parametrize("repeat", [
        "tm u", "symbols 0 2", "registers q h", "cells 1", "boundary reject", "halting h",
        "init tape 0 head 0 register q",
    ])
    def test_repeated_directive(self, repeat):
        text = (
            "tm t\nsymbols 0 1\nregisters q h\ncells 1\nboundary clamp\nhalting h\n"
            "rule q 0 -> h 1 S\ninit tape 0 head 0 register q\n"
        )
        parse_turing(text)
        with pytest.raises(ParseError) as e:
            parse_turing(text + repeat)
        assert e.value.line == 9
        assert e.value.message == f"second {repeat.split()[0]!r} line"


class TestMemFormat:
    def test_round_trip_sample(self):
        with open("samples/toggle.mem") as fh:
            p = parse_mem(fh.read())
        assert parse_mem(render_mem(p)) == p
        assert p.finals == ((0, "2"),)

    def test_round_trip_translated(self):
        # namespaced values with dots must survive the format
        for path in ("samples/bitflip.tm", "samples/increment.tm"):
            with open(path) as fh:
                t = parse_turing(fh.read())
            p = tm_to_mem(t)
            assert parse_mem(render_mem(p)) == p

    def test_multi_family_round_trip(self):
        p = MemProgram(
            n_cells=2,
            alphabet=("x", "y"),
            functions=(
                (MemEntry((0,), ("x",), (1,), ("y",), (1,), 1),),
                (MemEntry((1,), ("y",), (), (), (0,), 0),),
            ),
            initial_cells=("x", "x"),
            initial_selector=(0,),
            initial_function=0,
            finals=((1, "y"),),
            default_halt=True,
        )
        assert parse_mem(render_mem(p)) == p

    def test_empty_write_renders(self):
        p = MemProgram(
            n_cells=1,
            alphabet=("a",),
            functions=((MemEntry((0,), ("a",), (), (), (0,), 0),),),
            initial_cells=("a",),
            initial_selector=(0,),
            initial_function=0,
        )
        text = render_mem(p)
        assert "write()=()" in text
        assert parse_mem(text) == p

    def test_entry_before_fn(self):
        text = (
            "mem m\nalphabet 0\ncell 0 = 0\nstart read(0) fn 0\n"
            "entry read(0)=(0) -> write()=() next read(0) fn 0\n"
        )
        with pytest.raises(ParseError) as e:
            parse_mem(text)
        assert str(e.value) == "line 5, column 1: 'fn' must come before 'entry'"

    def test_fn_order_enforced(self):
        text = "mem m\nalphabet 0\ncell 0 = 0\nstart read(0) fn 0\nfn 1\n"
        with pytest.raises(ParseError) as e:
            parse_mem(text)
        assert "expected fn 0" in str(e.value)

    def test_unknown_value(self):
        text = "mem m\nalphabet 0\ncell 0 = 9\nstart read(0) fn 0\nfn 0\n"
        with pytest.raises(ParseError) as e:
            parse_mem(text)
        assert "unknown value '9'" in str(e.value)
        assert e.value.line == 3

    def test_cell_gap(self):
        text = (
            "mem m\nalphabet 0\ncell 0 = 0\ncell 2 = 0\n"
            "start read(0) fn 0\nfn 0\n"
        )
        with pytest.raises(ParseError) as e:
            parse_mem(text)
        assert "cell indices" in str(e.value)

    def test_missing_start(self):
        with pytest.raises(ParseError) as e:
            parse_mem("mem m\nalphabet 0\ncell 0 = 0\nfn 0\n")
        assert "missing 'start'" in str(e.value)

    @pytest.mark.parametrize("repeat", [
        "mem n", "alphabet 0 1", "start read(0) fn 0", "default halt",
    ])
    def test_repeated_directive(self, repeat):
        text = (
            "mem m\nalphabet 0 1\ncell 0 = 0\nstart read(0) fn 0\ndefault halt\nfn 0\n"
            "entry read(0)=(0) -> write(0)=(1) next read(0) fn 0\nfinal cell 0 = 1\n"
        )
        parse_mem(text)
        with pytest.raises(ParseError) as e:
            parse_mem(text + repeat)
        assert e.value.line == 9
        assert e.value.message == f"second {repeat.split()[0]!r} line"


BITFLIP_BODY = (
    "symbols 0 1\nregisters q0 halt\ncells 1\nboundary clamp\nhalting halt\n"
    "rule q0 0 -> halt 1 S\nrule q0 1 -> halt 0 S\ninit tape 0 head 0 register q0\n"
)
TOGGLE_BODY = (
    "alphabet 0 1\ncell 0 = 0\nstart read(0) fn 0\nfn 0\n"
    "entry read(0)=(0) -> write(0)=(1) next read(0) fn 0\nfinal cell 0 = 1\n"
)
SAMPLES = Path(__file__).resolve().parent.parent / "samples"
PARSERS = {"mx": parse_machine, "tm": parse_turing, "mem": parse_mem, "cert": parse_certificate}
ISO_CERT = "certificate iso\ng 1 0\nh 0\n"
COMPLETE_CERT = "certificate complete\nkeep-fns 0 3\nkeep-states x y\ng 1 0\nh 0 1\n"
SUBMACHINE_CERT = "certificate submachine\nkeep-fns 1\nkeep-states off\n"


def _without(cert: str, key: str) -> str:
    """``cert`` with its ``key`` line dropped."""
    return "".join(line for line in cert.splitlines(keepends=True) if not line.startswith(key + " "))


class TestSharedRules:
    """The rules every format applies alike, ``<kind> <name>`` and
    ``certificate <kind>``, pinned by the exact text of the error for each."""

    @pytest.mark.parametrize("fmt, text, error", [
        pytest.param("mx", "", "line 1, column 1: empty input; expected 'machine <name>'",
                     id="mx-empty"),
        pytest.param("mx", "machine\n", "line 1, column 1: expected 'machine <name>'",
                     id="mx-no-name"),
        pytest.param("mx", "machine m\nmachine n\n", "line 2, column 1: second 'machine' line",
                     id="mx-second-header"),
        pytest.param("mx", "machine m\nstates a\n  states b\n",
                     "line 3, column 3: second 'states' line", id="mx-second-once"),
        pytest.param("mx", "machine m\nstates a\n  frobnicate a\n",
                     "line 3, column 3: unknown directive 'frobnicate'", id="mx-unknown"),
        pytest.param("mx", SWITCH.split("\n", 1)[1],
                     "line 1, column 1: 'machine <name>' must come first", id="mx-no-header"),
        # A missing or late header is refused at the first significant line.
        pytest.param("mx", "# no header\nfn flip: off->on, on->off\n",
                     "line 2, column 1: 'machine <name>' must come first", id="mx-header-last"),
        pytest.param("mx", "fn flip: off->on, on->off\n  machine switch\n" + SWITCH.split("\n", 1)[1],
                     "line 1, column 1: 'machine <name>' must come first", id="mx-late-header"),
        pytest.param("tm", "", "line 1, column 1: empty input; expected 'tm <name>'",
                     id="tm-empty"),
        pytest.param("tm", "tm\n", "line 1, column 1: expected 'tm <name>'", id="tm-no-name"),
        pytest.param("tm", "tm t\n  tm u\n", "line 2, column 3: second 'tm' line",
                     id="tm-second-header"),
        pytest.param("tm", "tm t\nsymbols 0\nsymbols 1\n",
                     "line 3, column 1: second 'symbols' line", id="tm-second-once"),
        pytest.param("tm", "tm t\nsymbols 0\n  frobnicate 0\n",
                     "line 3, column 3: unknown directive 'frobnicate'", id="tm-unknown"),
        pytest.param("tm", BITFLIP_BODY, "line 1, column 1: 'tm <name>' must come first",
                     id="tm-no-header"),
        pytest.param("tm", BITFLIP_BODY + "  tm bitflip\n",
                     "line 1, column 1: 'tm <name>' must come first", id="tm-late-header"),
        pytest.param("mem", "", "line 1, column 1: empty input; expected 'mem <name>'",
                     id="mem-empty"),
        pytest.param("mem", "mem\n", "line 1, column 1: expected 'mem <name>'",
                     id="mem-no-name"),
        pytest.param("mem", "mem m\nmem n\n", "line 2, column 1: second 'mem' line",
                     id="mem-second-header"),
        pytest.param("mem", "mem m\nalphabet 0\nalphabet 1\n",
                     "line 3, column 1: second 'alphabet' line", id="mem-second-once"),
        pytest.param("mem", "mem m\nalphabet 0\n  frobnicate 0\n",
                     "line 3, column 3: unknown directive 'frobnicate'", id="mem-unknown"),
        pytest.param("mem", TOGGLE_BODY, "line 1, column 1: 'mem <name>' must come first",
                     id="mem-no-header"),
        pytest.param("mem", "# toggle\n" + TOGGLE_BODY + "mem toggle\n",
                     "line 2, column 1: 'mem <name>' must come first", id="mem-late-header"),
        # Each declared order pair: the later directive before the earlier one.
        pytest.param("mx", "machine m\nfn f: a->a\n",
                     "line 2, column 1: 'states' must come before 'fn'", id="mx-order-fn"),
        pytest.param("mx", "machine m\nfunctions all\n",
                     "line 2, column 1: 'states' must come before 'functions'", id="mx-order-functions"),
        pytest.param("tm", "tm t\nhalting q0\n",
                     "line 2, column 1: 'registers' must come before 'halting'", id="tm-order-halting"),
        pytest.param("tm", "tm t\nregisters q0\nrule q0 0 -> q0 0 S\n",
                     "line 3, column 1: 'symbols' must come before 'rule'", id="tm-order-rule-symbols"),
        pytest.param("tm", "tm t\nsymbols 0\nrule q0 0 -> q0 0 S\n",
                     "line 3, column 1: 'registers' must come before 'rule'",
                     id="tm-order-rule-registers"),
        pytest.param("tm", "tm t\nregisters q0\ncells 1\ninit tape 0 head 0 register q0\n",
                     "line 4, column 1: 'symbols' must come before 'init'", id="tm-order-init-symbols"),
        pytest.param("tm", "tm t\nsymbols 0\ncells 1\ninit tape 0 head 0 register q0\n",
                     "line 4, column 1: 'registers' must come before 'init'",
                     id="tm-order-init-registers"),
        pytest.param("tm", "tm t\nsymbols 0\nregisters q0\ninit tape 0 head 0 register q0\n",
                     "line 4, column 1: 'cells' must come before 'init'", id="tm-order-init-cells"),
        pytest.param("mem", "mem m\ncell 0 = 0\n",
                     "line 2, column 1: 'alphabet' must come before 'cell'", id="mem-order-cell"),
        pytest.param("mem", "mem m\nalphabet 0\ncell 0 = 0\nstart read(0) fn 0\n"
                     "entry read(0)=(0) -> write()=() next read(0) fn 0\nfn 0\n",
                     "line 5, column 1: 'fn' must come before 'entry'", id="mem-order-entry"),
        # Each required directive, missing: refused at the last significant line.
        pytest.param("mx", "machine m\n", "line 1, column 1: missing 'states' line",
                     id="mx-required-states"),
        pytest.param("tm", "tm t\n# nothing else\n", "line 1, column 1: missing 'symbols' line",
                     id="tm-required-symbols"),
        pytest.param("tm", "tm t\nsymbols 0\n", "line 2, column 1: missing 'registers' line",
                     id="tm-required-registers"),
        pytest.param("tm", "tm t\nsymbols 0\nregisters q0\nboundary clamp\n",
                     "line 4, column 1: missing 'cells' line", id="tm-required-cells"),
        pytest.param("tm", "tm bitflip\n" + BITFLIP_BODY.replace("boundary clamp\n", ""),
                     "line 8, column 1: missing 'boundary' line", id="tm-required-boundary"),
        pytest.param("tm", "tm bitflip\n" + BITFLIP_BODY.rsplit("init", 1)[0],
                     "line 8, column 1: missing 'init' line", id="tm-required-init"),
        pytest.param("mem", "mem m\n", "line 1, column 1: missing 'alphabet' line",
                     id="mem-required-alphabet"),
        pytest.param("mem", "mem m\nalphabet 0\nstart read(0) fn 0\nfn 0\n",
                     "line 4, column 1: missing 'cell' line", id="mem-required-cell"),
        pytest.param("mem", "mem toggle\n" + TOGGLE_BODY.replace("start read(0) fn 0\n", ""),
                     "line 6, column 1: missing 'start' line", id="mem-required-start"),
        # fn is checked before the cell indices, which skip 1 here
        pytest.param("mem", "mem m\nalphabet 0\ncell 0 = 0\ncell 2 = 0\nstart read(0) fn 0\n",
                     "line 5, column 1: missing 'fn' line", id="mem-required-fn"),
        # An error stands at its own token, even where the same text came
        # earlier on the line, and at the repeat of a duplicate.
        pytest.param("mx", "machine m\nstates a b a\nfn f: a->a, b->b\n",
                     "line 2, column 12: duplicate state 'a'", id="mx-token-column"),
        pytest.param("tm", "tm t\nsymbols 0\nregisters a\nhalting a l\n",
                     "line 4, column 11: unknown halting register 'l'", id="tm-token-column"),
        pytest.param("mem", "mem m\nalphabet 0\ncell 0 = l\n",
                     "line 3, column 10: unknown value 'l'", id="mem-token-column"),
        # Certificates: the header names a kind, which decides the required lines.
        pytest.param("cert", "", "line 1, column 1: empty input; expected 'certificate <kind>'",
                     id="cert-empty"),
        pytest.param("cert", "certificate\n", "line 1, column 1: expected 'certificate <kind>'",
                     id="cert-no-kind"),
        pytest.param("cert", "certificate iso h\ng 0\nh 0\n",
                     "line 1, column 1: expected 'certificate <kind>'", id="cert-two-words"),
        pytest.param("cert", "# no header\ng 1 0\nh 0\n",
                     "line 2, column 1: 'certificate <kind>' must come first", id="cert-no-header"),
        pytest.param("cert", "g 1 0\n  certificate iso\nh 0\n",
                     "line 1, column 1: 'certificate <kind>' must come first", id="cert-late-header"),
        pytest.param("cert", "k 0\ncertificate iso\n",
                     "line 1, column 1: unknown directive 'k'", id="cert-unknown-first"),
        pytest.param("cert", "certificate iso\n  certificate iso\ng 1 0\nh 0\n",
                     "line 2, column 3: second 'certificate' line", id="cert-second-header"),
        pytest.param("cert", ISO_CERT + "  g 1 0\n", "line 4, column 3: second 'g' line",
                     id="cert-second-once"),
        pytest.param("cert", "certificate iso\n  frobnicate 0\n",
                     "line 2, column 3: unknown directive 'frobnicate'", id="cert-unknown"),
        *[pytest.param("cert", _without(cert, key), f"line {line}, column 1: missing {key!r} line",
                       id=f"cert-required-{cert.split()[1]}-{key}")
          for cert, key, line in (
              (ISO_CERT, "g", 2), (ISO_CERT, "h", 2),
              (COMPLETE_CERT, "keep-fns", 4), (COMPLETE_CERT, "keep-states", 4),
              (COMPLETE_CERT, "g", 4), (COMPLETE_CERT, "h", 4),
              (SUBMACHINE_CERT, "keep-fns", 2), (SUBMACHINE_CERT, "keep-states", 2),
          )],
        # A line of another kind stands at its own line, ahead of a missing
        # line and of a malformed entry on it.
        pytest.param("cert", "certificate iso\n  keep-fns 0 x\ng 1 0\n",
                     "line 2, column 3: 'keep-fns' does not belong in an iso certificate",
                     id="cert-other-kind"),
        pytest.param("cert", SUBMACHINE_CERT + "g 0\n",
                     "line 4, column 1: 'g' does not belong in a submachine certificate",
                     id="cert-other-kind-last"),
    ])
    def test_error_text(self, fmt, text, error):
        with pytest.raises(ParseError) as e:
            PARSERS[fmt](text)
        assert str(e.value) == error

    # A name line refuses an unusable or repeated name at its own column, as
    # the .mx ``states`` line does, not where a later line first uses it.
    @pytest.mark.parametrize("sample, line, error", [
        ("bitflip.tm", "symbols 0 1|x", "line 3, column 11: symbol '1|x' is empty, has whitespace, "
         "or uses a reserved character (#(),.:;=>|)"),
        ("bitflip.tm", "symbols 0 1 0", "line 3, column 13: duplicate symbol '0'"),
        ("bitflip.tm", "registers q0 ha(t", "line 4, column 14: register 'ha(t' is empty, has "
         "whitespace, or uses a reserved character (#(),.:;=>|)"),
        ("bitflip.tm", "registers q0 halt q0", "line 4, column 19: duplicate register 'q0'"),
        ("toggle.mem", "alphabet 0 1 2|", "line 3, column 14: alphabet value '2|' is empty, has "
         "whitespace, or uses a reserved character (#(),:;=>|)"),
        ("toggle.mem", "alphabet 0 1 2 2", "line 3, column 16: duplicate alphabet value '2'"),
        ("switch.mx", "states off o:n", "line 3, column 12: state 'o:n' may not contain any of , : -> #"),
        ("switch.mx", "states off on off", "line 3, column 15: duplicate state 'off'"),
    ], ids=["symbol-unusable", "symbol-repeat", "register-unusable", "register-repeat",
            "alphabet-unusable", "alphabet-repeat", "state-unusable", "state-repeat"])
    def test_name_line(self, sample, line, error):
        text = (SAMPLES / sample).read_text()
        head = line.split()[0]
        (old,) = [old for old in text.splitlines() if old.startswith(head + " ")]
        with pytest.raises(ParseError) as e:
            PARSERS[sample.rsplit(".", 1)[1]](text.replace(old, line))
        assert str(e.value) == error


class TestCertificates:
    def test_unknown_kind_refused_on_render(self):
        with pytest.raises(InvalidMachineError) as e:
            render_certificate(Certificate("bogus"))
        assert str(e.value) == "unknown certificate kind 'bogus'"

    def test_error_at_its_own_token(self):
        with pytest.raises(ParseError) as e:
            parse_certificate("certificate submachine\nkeep-fns 1 e\nkeep-states a\n")
        assert str(e.value) == "line 2, column 12: keep-fns entries must be numbers, got 'e'"

    def test_entry_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            c = Certificate("complete", (0,), (0,), (1, 10**640), ("a",))
            with pytest.raises(MachalgError) as e:
                render_certificate(c)
            assert str(e.value) == (
                "keep-fns entry has 641 digits, above Python's limit of 640 for writing an integer as text"
            )
            assert render_certificate(Certificate("submachine", (), (), (10**640 - 1,), ("a",)))
        finally:
            sys.set_int_max_str_digits(limit)

    def test_iso_round_trip(self):
        c = Certificate("iso", g=(1, 0, 2), h=(0, 2, 1))
        assert parse_certificate(render_certificate(c)) == c

    def test_complete_round_trip(self):
        c = Certificate(
            "complete",
            g=(0, 1),
            h=(1, 0),
            kept_functions=(0, 3, 7),
            kept_states=("a", "b"),
        )
        assert parse_certificate(render_certificate(c)) == c

    def test_submachine_round_trip(self):
        c = Certificate("submachine", kept_functions=(2,), kept_states=("x",))
        assert parse_certificate(render_certificate(c)) == c

    def test_render_deterministic(self):
        c = Certificate("complete", g=(0,), h=(0,), kept_functions=(1,), kept_states=("s",))
        assert render_certificate(c) == render_certificate(c)

    def test_unknown_kind(self):
        with pytest.raises(ParseError) as e:
            parse_certificate("certificate wat\ng 0\nh 0\n")
        assert str(e.value) == "line 1, column 13: unknown certificate kind 'wat'"

    def test_missing_key(self):
        with pytest.raises(ParseError) as e:
            parse_certificate("certificate iso\ng 0\n")
        assert str(e.value) == "line 2, column 1: missing 'h' line"

    def test_stray_key(self):
        with pytest.raises(ParseError) as e:
            parse_certificate("certificate iso\ng 0\nh 0\nkeep-fns 0\n")
        assert str(e.value) == "line 4, column 1: 'keep-fns' does not belong in an iso certificate"

    def test_non_numeric(self):
        with pytest.raises(ParseError) as e:
            parse_certificate("certificate iso\ng zero\nh 0\n")
        assert str(e.value) == "line 2, column 3: g entries must be numbers, got 'zero'"

    def test_every_accepted_form_parses_as_before(self):
        # comments, blank lines, indentation and any order of the key lines
        text = "# witness\n  certificate complete\n\nh 0 1  # h\ng 1 0\nkeep-states x y\nkeep-fns 0 3\n"
        assert parse_certificate(text) == parse_certificate(COMPLETE_CERT) == Certificate(
            "complete", (1, 0), (0, 1), (0, 3), ("x", "y"))
        assert parse_certificate("certificate submachine\nkeep-fns\nkeep-states\n") == Certificate(
            "submachine")


# One edit of samples/toggle.mem per rule of models._mem_fault: (line, its
# replacement, the error), each at the line and the token at fault.
TOGGLE_FAULTS = [
    ("start read(0) fn 0", "start read(1) fn 0",
     "line 5, column 7: initial selector references a cell out of range"),
    ("start read(0) fn 0", "start read(0,0) fn 0", "line 5, column 7: initial selector repeats a cell"),
    ("start read(0) fn 0", "start read(0) fn 3",
     "line 5, column 18: initial rule-family index out of range"),
    ("final cell 0 = 2", "final cell 9 = 0", "line 10, column 12: final condition (9,'0') is invalid"),
    ("final cell 0 = 2", "final cell 0 = 7", "line 10, column 16: final condition (0,'7') is invalid"),
    ("entry read(0)=(1) -> write(0)=(2)", "entry read(0,0)=(1,1) -> write(0)=(2)",
     "line 8, column 7: family 0 read selector repeats a cell"),
    ("entry read(0)=(1) -> write(0)=(2)", "entry read(0)=(1) -> write(1)=(2)",
     "line 8, column 22: family 0 write selector references a cell out of range"),
    ("(2) next read(0) fn 0\nentry read(0)=(2)", "(2) next read(4) fn 0\nentry read(0)=(2)",
     "line 8, column 40: family 0 next selector references a cell out of range"),
    ("entry read(0)=(1) -> write(0)=(2)", "entry read(0)=(1,1) -> write(0)=(2)",
     "line 8, column 7: family 0: read arity mismatch"),
    ("entry read(0)=(1) -> write(0)=(2)", "entry read(0)=(1) -> write(0)=(2,2)",
     "line 8, column 22: family 0: write arity mismatch"),
    ("entry read(0)=(1) -> write(0)=(2)", "entry read(0)=(7) -> write(0)=(2)",
     "line 8, column 7: family 0: unknown value in entry"),
    ("entry read(0)=(1) -> write(0)=(2)", "entry read(0)=(1) -> write(0)=(9)",
     "line 8, column 22: family 0: unknown value in entry"),
    ("(2) next read(0) fn 0\nentry read(0)=(2)", "(2) next read(0) fn 5\nentry read(0)=(2)",
     "line 8, column 51: family 0: next family index out of range"),
    ("entry read(0)=(1) -> write(0)=(2)", "entry read(0)=(0) -> write(0)=(2)",
     "line 8, column 7: family 0: duplicate entry for read(0,)=('0',)"),
]
MEM_TEXTS = [(SAMPLES / "toggle.mem").read_text()] + [
    render_mem(tm_to_mem(parse_turing((SAMPLES / name).read_text())))
    for name in ("bitflip.tm", "increment.tm")
]


class TestMemFaults:
    """A program's own rules, broken in its text, are refused at the line
    and token at fault, with the message MemProgram gives without a place."""

    @pytest.mark.parametrize("old, new, error", TOGGLE_FAULTS,
                             ids=["-".join(re.findall(r"\w+", e)) for _, _, e in TOGGLE_FAULTS])
    def test_fault_is_placed(self, old, new, error):
        text = MEM_TEXTS[0]
        assert text.count(old) == 1
        with pytest.raises(ParseError) as e:
            parse_mem(text.replace(old, new))
        assert str(e.value) == error

    def test_entries_before_the_alphabet(self):
        lines = MEM_TEXTS[0].splitlines(keepends=True)
        moved = "".join(lines[:2] + lines[5:9] + lines[2:5] + lines[9:])
        assert moved.index("entry") < moved.index("alphabet")
        assert parse_mem(moved) == parse_mem(MEM_TEXTS[0])
        with pytest.raises(ParseError) as e:
            parse_mem(moved.replace("write(0)=(1)", "write(0)=(5)"))
        assert str(e.value) == "line 4, column 22: family 0: unknown value in entry"

    def test_no_mutant_error_is_positionless(self):
        faults = 0
        for seed in range(2000):
            rng = random.Random(seed)
            text = mutated_text(rng, rng.choice(MEM_TEXTS))
            try:
                parse_mem(text)
            except MachalgError as e:
                assert re.match(r"line \d+, column \d+: ", str(e)), (seed, str(e))
                faults += any(word in str(e) for word in ("family", "final condition", "initial"))
        assert faults >= 50


TINY_TM = """\
tm t
symbols 0 1
registers q h
cells {cells}
boundary clamp
init tape 0 head {head} register q
"""

TINY_MEM = """\
mem m
alphabet 0 1
cell {cell} = 0
start read({read}) fn {start}
fn {fn}
entry read(0)=(0) -> write(0)=(1) next read(0) fn {next}
final cell {final} = 1
"""


def _tm(cells="1", head="0"):
    return TINY_TM.format(cells=cells, head=head)


def _mem(cell="0", read="0", start="0", fn="0", next="0", final="0"):
    return TINY_MEM.format(cell=cell, read=read, start=start, fn=fn, next=next, final=final)


# Characters for which str.isdigit() is true but which are no ASCII digit.
NOT_DIGITS = ("\u00b2", "\u0663", "\uff11")

# (parser, text with a numeral, the numeral's line and column, a valid numeral there).
NUMERAL_SITES = [
    pytest.param(parse_turing, lambda d: _tm(cells=d), 4, 7, "1", id="tm-cells"),
    pytest.param(parse_turing, lambda d: _tm(head=d), 6, 18, "0", id="tm-head"),
    pytest.param(parse_mem, lambda d: _mem(cell=d), 3, 1, "0", id="mem-cell"),
    pytest.param(parse_mem, lambda d: _mem(read=d), 4, 12, "0", id="mem-read"),
    pytest.param(parse_mem, lambda d: _mem(start=d), 4, 1, "0", id="mem-start-fn"),
    pytest.param(parse_mem, lambda d: _mem(fn=d), 5, 1, "0", id="mem-fn"),
    pytest.param(parse_mem, lambda d: _mem(next=d), 6, 1, "0", id="mem-entry-fn"),
    pytest.param(parse_mem, lambda d: _mem(final=d), 7, 1, "0", id="mem-final"),
    pytest.param(
        parse_certificate, lambda d: f"certificate iso\ng {d}\nh 0\n", 2, 3, "0", id="cert-g"
    ),
    pytest.param(
        parse_certificate,
        lambda d: f"certificate submachine\nkeep-fns 0 {d}\nkeep-states a\n",
        2,
        12,
        "7",
        id="cert-keep-fns",
    ),
]


class TestNumerals:
    """Numbers in every format are ASCII digits only, and a numeral that
    int() will not convert is a ParseError at its own line and column."""

    @pytest.mark.parametrize("digit", NOT_DIGITS, ids=ascii)
    @pytest.mark.parametrize("parse, make, line, column, valid", NUMERAL_SITES)
    def test_non_ascii_digit_is_a_parse_error(self, parse, make, line, column, valid, digit):
        with pytest.raises(ParseError) as e:
            parse(make(digit))
        assert (e.value.line, e.value.column) == (line, column)

    @pytest.mark.parametrize("parse, make, line, column, valid", NUMERAL_SITES)
    def test_ascii_digits_still_parse(self, parse, make, line, column, valid):
        parse(make(valid))

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts integers of any length",
    )
    @pytest.mark.parametrize("parse, make, line, column, valid", NUMERAL_SITES)
    def test_numeral_too_long_for_int(self, parse, make, line, column, valid):
        with pytest.raises(ParseError) as e:
            parse(make("7" * 5000))
        assert e.value.line == line
        assert e.value.message == "5000-digit number is too long"


CERTIFICATES = (ISO_CERT, COMPLETE_CERT, SUBMACHINE_CERT)
FORMATS = (
    (parse_machine, render_machine, ("switch.mx", "const0.mx", "const1.mx")),
    (parse_turing, render_turing, ("bitflip.tm", "increment.tm")),
    (parse_mem, render_mem, ("toggle.mem",)),
)
SEEDS = [
    (parse, render, (SAMPLES / name).read_text()) for parse, render, names in FORMATS
    for name in names
] + [(parse_certificate, render_certificate, text) for text in CERTIFICATES]
DEBRIS = NOT_DIGITS + (
    "", "0", "1", "7", "9" * 5000, "-1", " ", "\t", "\n", "#", ",", ":", "->", "(", ")",
    "=", ".", ";", "|", "fn", "cell", "read(", ")=(", "halt", "states", "g",
)


@st.composite
def mutated_inputs(draw, seeds=SEEDS):
    """A sample file or certificate with one to three pieces of debris, each
    in place of a whole word or of a span of up to eight characters."""
    parse, render, text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 3))):
        piece = draw(st.sampled_from(DEBRIS))
        if draw(st.booleans()):
            parts = re.split(r"(\s+)", text)  # words at the even indices
            k = 2 * draw(st.integers(0, len(parts) // 2))
            text = "".join(parts[:k] + [piece] + parts[k + 1 :])
        else:
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 8)))
            text = text[:i] + piece + text[j:]
    return parse, render, text


class TestMutatedInputs:
    """Every parser answers any text with a value or a MachalgError, and
    what it accepts renders to text that parses back to the same value."""

    @staticmethod
    def check(parse, render, text):
        try:
            value = parse(text)
        except MachalgError:
            return
        assert parse(render(value)) == value

    @settings(max_examples=400, deadline=None)
    @given(mutated_inputs())
    def test_mutated_samples(self, case):
        self.check(*case)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SEEDS), st.text(max_size=200))
    def test_arbitrary_text(self, seed, text):
        parse, render, _ = seed
        self.check(parse, render, text)


INCREMENT_MX = render_machine(compile_tm(parse_turing((SAMPLES / "increment.tm").read_text()))[0])
MX_SEEDS = [seed for seed in SEEDS if seed[0] is parse_machine] + [
    (parse_machine, render_machine, INCREMENT_MX)
]


def _outcome(parse, text):
    """The machine ``parse`` reads from ``text`` with its names, or the type
    and text (message, line and column) of the error it raises."""
    try:
        m = parse(text)
    except MachalgError as e:
        return type(e), str(e)
    return m, m.function_names, m.name


def _unknown_target(text: str) -> str:
    """``text`` with the target of the middle clause of its first fn line
    changed to a label no state has."""
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("fn "))
    head, clauses = lines[k].split(": ", 1)
    clauses = clauses.split(", ")
    middle = len(clauses) // 2
    clauses[middle] = clauses[middle].split("->")[0] + "->nowhere"
    lines[k] = f"{head}: {', '.join(clauses)}"
    return "\n".join(lines) + "\n"


# The compiled machine of samples/increment.tm, as render_machine writes it.
INCREMENT_MX = render_machine(compile_tm(parse_turing((SAMPLES / "increment.tm").read_text()))[0])


class TestReferenceParser:
    """``parse_machine`` answers every ``.mx`` text as the reference parser
    that checks each token and clause on its own does."""

    @settings(max_examples=400, deadline=None)
    @given(mutated_inputs(MX_SEEDS))
    def test_mutated_machines(self, case):
        _, _, text = case
        assert _outcome(parse_machine, text) == _outcome(reference_parse_machine, text)

    @pytest.mark.parametrize("text", [
        "machine m\nstates a b\nfn f: a -> b, b ->a\n",
        "machine m\nstates a b\nfn f: a->b, b->a,\n",
        "machine m\nstates a b\nfn f: a->b, b->a, a->a\n",
        "machine m\nstates a b c\nfn f: a->b->c, b->b, c->c\n",
        "machine m\nstates a- >b\nfn f: a-->>b, >b->a-\n",
        "machine m\nstates a\xa0b c\nfn f: a\xa0->b, b->c, c->a\n",
        "machine m\nstates a\x1cb\nfn f: a->a\n",
        "machine m\nstates a b\nfn f: b->a, a->b\n",
        "machine m\nstates a b\nfn f: a->z, b->a\n",
        "machine m\nstates a b\nfn f: a->b\n",
        "machine m\nstates a b a\nfn f: a->a, b->b\n",
        # As many arrows and commas as a canonical line, but not one clause per state.
        "machine m\nstates a b\nfn f: a->b->b, a\n",
        "machine m\nstates a b c\nfn f: c->a, a->b, b->c\n",
        "machine m\nstates a b\nfn f: a->b,b->a\n",
        "machine m\nstates a b\nfn f: a->b,c, b->a\n",
        INCREMENT_MX,
        _unknown_target(INCREMENT_MX),
    ], ids=["spaced-arrow", "trailing-comma", "duplicate-covers-all", "two-arrows",
            "dash-then-angle", "nbsp", "file-separator", "out-of-order", "unknown-target",
            "missing-clause", "duplicate-state", "two-arrows-beside-none",
            "canonical-out-of-order", "no-space-after-comma", "comma-inside-target",
            "compiled", "compiled-unknown-target"])
    def test_pinned(self, text):
        assert _outcome(parse_machine, text) == _outcome(reference_parse_machine, text)
