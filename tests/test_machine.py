"""States, transition functions, machine construction, fixpoint runs."""

import dataclasses
import math
import pickle
import random
import re
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from machalg import (
    DEFAULT_ENUMERATION_CAP,
    BoundaryPolicy,
    Cycled,
    DomainMismatchError,
    EnumerationTooLargeError,
    Halted,
    InvalidMachineError,
    Machine,
    StateSet,
    StepLimit,
    TotalityViolationError,
    TransitionFunction,
    compile_mem,
    compile_tm,
    find_isomorphism,
    fn_from_map,
    full_bijection_machine,
    full_machine,
    functional_reduction,
    identity_fn,
    is_complete,
    make_machine,
    parse_machine,
    parse_turing,
    run_to_fixpoint,
    state_reduction,
    states,
    tm_to_mem,
)
from machalg import machine as machine_module
from machalg.textio import display_names, render_machine
from oracles import enumerated_full_bijection_machine, enumerated_full_machine

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


class TestStateSet:
    def test_basic(self):
        ss = states("a", "b", "c")
        assert len(ss) == 3
        assert list(ss) == ["a", "b", "c"]
        assert "b" in ss and "z" not in ss
        assert ss.index("c") == 2

    def test_rejects_empty(self):
        with pytest.raises(InvalidMachineError):
            StateSet(())

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidMachineError):
            states("a", "a")
        with pytest.raises(InvalidMachineError, match=r"duplicate state labels: \['a', 'c'\]$"):
            states("c", "a", "b", "a", "c", "c")

    def test_unknown_label(self):
        with pytest.raises(DomainMismatchError):
            states("a").index("b")


class TestLookupCaches:
    """The lazily built lookup dicts never show in values or answers."""

    def test_state_set_unchanged_by_lookups(self):
        fresh, queried = states("a", "b", "c"), states("a", "b", "c")
        before = (hash(queried), repr(queried))
        assert queried.index("b") == 1 and "c" in queried
        assert queried == fresh and fresh == queried
        assert (hash(queried), repr(queried)) == before == (hash(fresh), repr(fresh))

    def test_machine_unchanged_by_function_index(self):
        ss = states("a", "b")
        fns = [fn_from_map(ss, dict.fromkeys(ss, "a"), "ca"), identity_fn(ss)]
        fresh, queried = make_machine(ss, fns), make_machine(ss, fns)
        before = (hash(queried), repr(queried))
        assert [queried.functions.index(f) for f in fns] == [0, 1]
        assert queried == fresh
        assert (hash(queried), repr(queried)) == before == (hash(fresh), repr(fresh))

    def test_replace_and_pickle_after_lookups(self):
        ss = states("a", "b", "c")
        m = make_machine(ss, [fn_from_map(ss, dict.fromkeys(ss, "c")), identity_fn(ss)])
        ss.index("a")
        m.functions.index(m.functions[1])
        for copy in (pickle.loads(pickle.dumps(m)), dataclasses.replace(m)):
            assert copy == m and hash(copy) == hash(m) and repr(copy) == repr(m)
            assert copy.functions.index(m.functions[1]) == 1
            assert copy.states.index("c") == 2
        renamed = dataclasses.replace(ss, labels=("x", "y", "z"))
        assert renamed.index("z") == 2 and "a" not in renamed
        with pytest.raises(DomainMismatchError):
            renamed.index("a")

    def test_machine_unchanged_by_isomorphism_key(self):
        ss = states("a", "b", "c")
        fns = [
            fn_from_map(ss, dict.fromkeys(ss, "c")),
            fn_from_map(ss, {"a": "b", "b": "c", "c": "a"}),
        ]
        fresh, keyed = make_machine(ss, fns), make_machine(ss, fns)
        before = (hash(keyed), repr(keyed))
        assert find_isomorphism(keyed, keyed) is not None
        assert "_fingerprint_key" in keyed.__dict__
        assert keyed == fresh and fresh == keyed
        assert (hash(keyed), repr(keyed)) == before == (hash(fresh), repr(fresh))
        copy = dataclasses.replace(keyed)
        assert copy == keyed and hash(copy) == hash(keyed) and repr(copy) == repr(keyed)
        other = dataclasses.replace(
            keyed, tables=keyed.tables[:1], function_names=keyed.function_names[:1]
        )
        assert "_fingerprint_key" not in other.__dict__
        assert find_isomorphism(other, keyed) is None

    @pytest.mark.parametrize("label", ["z", 0, None, ("a",), ["a"], {"a": 1}, {"a"}])
    def test_unknown_and_unhashable_labels(self, label):
        ss = states("a", "b")
        for _ in range(2):  # before and after the dict exists
            assert label not in ss
            with pytest.raises(DomainMismatchError) as e:
                ss.index(label)
            assert str(e.value) == f"state {label!r} is not in this state set"

    def test_function_index_checks_the_domain(self):
        m = make_machine(states("a", "b"), [identity_fn(states("a", "b"))])
        foreign = identity_fn(states("x", "y"))
        assert foreign.table == m.functions[0].table
        with pytest.raises(ValueError):
            m.functions.index(foreign)
        assert m.functions.index(identity_fn(states("a", "b"))) == 0

    @pytest.mark.parametrize("table", [(0, 0, 0), (1, 0, 2), (2, 2, 2)])
    def test_function_index_rejects_absent_tables(self, table):
        # Below the first table, between the two, above the last.
        ss = states("a", "b", "c")
        m = make_machine(ss, [identity_fn(ss), fn_from_map(ss, dict.fromkeys(ss, "b"))])
        assert [f.table for f in m.functions] == [(0, 1, 2), (1, 1, 1)]
        with pytest.raises(ValueError):
            m.functions.index(TransitionFunction(ss, table))


class TestTransitionFunction:
    def test_totality_enforced(self):
        ss = states("a", "b")
        with pytest.raises(TotalityViolationError):
            TransitionFunction(ss, (0, 5))
        with pytest.raises(TotalityViolationError):
            TransitionFunction(ss, (0,))

    def test_call_and_fixed_points(self):
        ss = states("a", "b")
        f = fn_from_map(ss, {"a": "b", "b": "b"})
        assert f("a") == "b"
        assert f("b") == "b"

    def test_fn_from_map_requires_total(self):
        ss = states("a", "b")
        with pytest.raises((TotalityViolationError, DomainMismatchError, KeyError)):
            fn_from_map(ss, {"a": "b"})

    def test_extensional_equality(self):
        # same table built through different expressions compares equal
        ss = states("0", "1")
        add_mod2 = fn_from_map(ss, {s: str((int(s) + 1) % 2) for s in ss}, "inc")
        one_minus = fn_from_map(ss, {s: str(1 - int(s)) for s in ss}, "mirror")
        assert add_mod2 == one_minus
        assert hash(add_mod2) == hash(one_minus)

    def test_name_ignored_in_equality(self):
        ss = states("a",)
        assert identity_fn(ss, "x") == identity_fn(ss, "y")

    # A name is checked where a function is built, so no machine holds one
    # that Machine(...) would refuse.
    @pytest.mark.parametrize("build", [
        lambda ss: TransitionFunction(ss, (0,), 5),
        lambda ss: make_machine(ss, [TransitionFunction(ss, (0,), 5)]),
        lambda ss: fn_from_map(ss, {"a": "a"}, 5),
        lambda ss: identity_fn(ss, 5),
    ], ids=["TransitionFunction", "make_machine", "fn_from_map", "identity_fn"])
    def test_name_must_be_a_string_or_none(self, build):
        with pytest.raises(InvalidMachineError) as e:
            build(states("a"))
        assert str(e.value) == "function name 5 is not a string or None"


class TestMachine:
    def test_requires_functions(self):
        with pytest.raises(InvalidMachineError):
            make_machine(states("a"), [])

    def test_bare_constructor_requires_functions(self):
        with pytest.raises(InvalidMachineError) as e:
            Machine(states("a"), ())
        assert str(e.value) == "a machine needs at least one transition function"

    def test_shared_domain(self):
        f = identity_fn(states("a", "b"))
        with pytest.raises(InvalidMachineError):
            make_machine(states("x", "y"), [f])

    def test_canonical_order_and_dedupe(self):
        ss = states("a", "b")
        swap = fn_from_map(ss, {"a": "b", "b": "a"}, "swap")
        same_swap = fn_from_map(ss, {"a": "b", "b": "a"}, "later")
        ident = identity_fn(ss)
        m = make_machine(ss, [swap, same_swap, ident])
        assert m.n_functions == 2
        tables = [f.table for f in m.functions]
        assert tables == sorted(tables)
        # first name wins on the deduped entry
        assert {f.name for f in m.functions} == {"swap", "id"}

    def test_the_positional_form_of_the_benchmark(self):
        # Machine(states, tables, function_names, name): an empty name set and
        # no machine name, as perfbench's census builds its bijection machine.
        ss = states("a", "b", "c")
        fns = [TransitionFunction(ss, t, f"p{i}") for i, t in enumerate([(0, 1, 2), (1, 2, 0)])]
        m = Machine(ss, tuple(fns), frozenset(), None)
        assert m == make_machine(ss, fns)
        assert m.function_names == ("p0", "p1") and m.name is None


def _named_machines():
    """Seeded machines with names and duplicates, plus every sample."""
    rng = random.Random(5)
    out = [parse_machine(p.read_text()) for p in sorted(SAMPLES.glob("*.mx"))]
    for _ in range(40):
        n = rng.randint(1, 4)
        ss = StateSet(tuple(f"s{i}" for i in range(n)))
        fns = [
            TransitionFunction(
                ss, tuple(rng.randrange(n) for _ in range(n)), rng.choice([None, "f", "g", "h x"])
            )
            for _ in range(rng.randint(1, 5))
        ]
        rng.sample(fns, rng.randint(0, len(fns)))  # a draw kept so the seeded machines stay the same
        out.append(make_machine(ss, fns, name=rng.choice([None, "m"])))
    return out


class TestTables:
    """Machines store sorted tables and names; ``functions`` is a cached view."""

    @pytest.mark.parametrize("m", _named_machines(), ids=lambda m: f"{m.name}-{m.n_functions}")
    def test_view_rebuilds_the_machine(self, m):
        rebuilt = make_machine(m.states, m.functions, name=m.name)
        assert rebuilt == m
        assert rebuilt.function_names == m.function_names
        assert display_names(rebuilt) == display_names(m)
        assert [f.table for f in m.functions] == list(m.tables)
        assert [f.name for f in m.functions] == list(m.function_names)

    @pytest.mark.parametrize("m", _named_machines(), ids=lambda m: f"{m.name}-{m.n_functions}")
    def test_identity_reductions_give_back_the_machine(self, m):
        for kept in (functional_reduction(m, range(m.n_functions)).result,
                     state_reduction(m, m.states.labels).result):
            assert kept == m
            assert (kept.function_names, kept.name) == (m.function_names, m.name)

    def test_view_is_built_once(self):
        m = full_machine(states("a", "b", "c"))
        assert "functions" not in m.__dict__
        assert m.functions is m.functions
        assert all(f.domain is m.states for f in m.functions)

    def test_view_keeps_no_machine_alive(self):
        m = make_machine(states("a", "b"), [(0, 0), (1, 0)])
        gone = weakref.ref(m)
        assert m.functions.name_at(1) is None  # the view is now cached on m
        del m
        assert gone() is None  # freed at once, with no cycle left for the collector

    def test_pickle_and_replace_keep_tables_and_names(self):
        ss = states("a", "b", "c")
        sink = fn_from_map(ss, dict.fromkeys(ss, "c"), "sink")
        m = make_machine(ss, [sink, identity_fn(ss)], name="m")
        assert [f.name for f in m.functions] == ["id", "sink"]  # copies see a built view
        for copy in (pickle.loads(pickle.dumps(m)), dataclasses.replace(m)):
            assert copy.tables == m.tables == ((0, 1, 2), (2, 2, 2))
            assert copy.function_names == m.function_names == ("id", "sink")
            assert copy.name == "m" and copy == m and hash(copy) == hash(m)
        renamed = dataclasses.replace(m, function_names=("one", "two"))
        assert renamed == m and renamed.function_names == ("one", "two")

    def test_raw_tables_and_functions_build_the_same_machine(self):
        ss = states("a", "b")
        raw = Machine(ss, ((0, 0), (1, 0)))
        assert raw == Machine(ss, (TransitionFunction(ss, (0, 0)), TransitionFunction(ss, (1, 0))))
        assert raw.function_names == (None, None)
        with pytest.raises(InvalidMachineError, match="canonical table order"):
            Machine(ss, ((1, 0), (0, 0)))
        with pytest.raises(InvalidMachineError, match="canonical table order"):
            Machine(ss, ((0, 0), (0, 0)))
        with pytest.raises(InvalidMachineError, match="3 function names for 2 tables"):
            Machine(ss, ((0, 0), (1, 0)), function_names=("x", "y", "z"))

    @pytest.mark.parametrize("build", [make_machine, Machine])
    @pytest.mark.parametrize("function_first", [True, False])
    def test_functions_and_bare_tables_do_not_mix(self, build, function_first):
        ss = states("a", "b")
        items = [TransitionFunction(ss, (1, 0)), (0, 1)]
        with pytest.raises(
            InvalidMachineError, match="^functions must be all TransitionFunctions or all bare tables$"
        ):
            build(ss, items if function_first else items[::-1])

    def test_output_designation_out_of_range(self):
        # The third slot, once output designations, holds function names: a
        # set of indices there is refused, never read as names.
        ss = states("a", "b")
        with pytest.raises(InvalidMachineError, match="^1 function names for 2 tables$"):
            Machine(ss, ((0, 0), (1, 0)), frozenset({5}))
        with pytest.raises(InvalidMachineError, match="^function name 0 is not a string or None$"):
            Machine(ss, ((0, 0), (1, 0)), frozenset({0, 1}))
        with pytest.raises(InvalidMachineError, match="^function name b'f' is not a string or None$"):
            Machine(ss, ((0, 0), (1, 0)), ("f", b"f"))

    @pytest.mark.parametrize("table", [(0, 5), (0,), (0, 1, 1), (-1, 0), (1, 2)])
    def test_bad_tables_fail_as_functions_do(self, table):
        ss = states("a", "b")
        with pytest.raises(TotalityViolationError) as want:
            TransitionFunction(ss, table)
        with pytest.raises(TotalityViolationError) as got:
            Machine(ss, ((0, 0), table))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("table, message", [
        ((0, 5), "entry 1 maps to index 5, outside the 2-state domain"),
        ((-1, 0), "entry 0 maps to index -1, outside the 2-state domain"),
        ((1, 2), "entry 1 maps to index 2, outside the 2-state domain"),
        ((0,), "table has 1 entries for 2 states"),
        ((0, 1, 1), "table has 3 entries for 2 states"),
        ((1.0, 0), "entry 0 is 1.0, not an integer state index"),
        ((1, 1.0), "entry 1 is 1.0, not an integer state index"),
        ((0, "b"), "entry 1 is 'b', not an integer state index"),
    ])
    def test_bare_tables_are_range_checked(self, table, message):
        # Tables from outside are checked where they enter; compiled ones are not.
        ss = states("a", "b")
        for build in (
            lambda: TransitionFunction(ss, table),
            lambda: Machine(ss, ((0, 0), table)),
            lambda: make_machine(ss, [table]),
        ):
            with pytest.raises(TotalityViolationError, match=f"^{re.escape(message)}$"):
                build()

    def test_bool_entries_stay_accepted(self):
        ss = states("a", "b")
        assert make_machine(ss, [(True, False)]) == make_machine(ss, [(1, 0)])
        assert TransitionFunction(ss, (True, 0))("a") == "b"

    def test_full_machine_holds_its_tables_only(self):
        ss = StateSet(tuple(f"s{i}" for i in range(6)))
        tracemalloc.start()
        try:
            m = full_machine(ss)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.n_functions == 6**6
        assert held <= 5.5e6, f"full_machine(6) holds {held / 1e6:.1f} MB"


class TestFullEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts(self, n):
        ss = StateSet(tuple(f"s{i}" for i in range(n)))
        fns = full_machine(ss).functions
        assert len(fns) == n**n
        assert len({f.table for f in fns}) == n**n

    def test_lexicographic(self):
        fns = full_machine(states("a", "b")).functions
        assert [f.table for f in fns] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_cap(self):
        # Building costs nothing; the cap stops loops over every function.
        ss = StateSet(tuple(f"s{i}" for i in range(8)))
        m = full_machine(ss)
        assert m.n_functions == 8**8
        for listing in (lambda: find_isomorphism(m, m), lambda: state_reduction(m, ["s0"]),
                        lambda: display_names(m)):
            with pytest.raises(EnumerationTooLargeError) as e:
                listing()
            assert e.value.size == 8**8
            assert e.value.cap == DEFAULT_ENUMERATION_CAP

    def test_full_machine_flag(self):
        m = full_machine(states("x", "y"))
        assert m.has_full_function_set()
        reduced = Machine(m.states, m.functions[:3], frozenset())
        assert not reduced.has_full_function_set()


def _ss(n):
    return StateSet(tuple(f"s{i}" for i in range(n)))


IMPLICIT_CASES = [
    pytest.param(full_machine, enumerated_full_machine, n, id=f"full-{n}") for n in range(1, 7)
] + [
    pytest.param(full_bijection_machine, enumerated_full_bijection_machine, n, id=f"bijections-{n}")
    for n in range(1, 8)
]


class TestImplicitTables:
    """The full and bijection machines compute their tables on demand and
    answer as the machines listing every table do."""

    @pytest.mark.parametrize("build, listed, n", IMPLICIT_CASES)
    def test_matches_the_listing(self, build, listed, n):
        m, ref = build(_ss(n)), listed(_ss(n))
        assert len(m.tables) == m.n_functions == len(ref.tables)
        assert list(m.tables) == list(ref.tables)  # iteration order
        assert all(m.tables[i] == t for i, t in enumerate(ref.tables))
        assert all(m.tables.index(t) == i for i, t in enumerate(ref.tables))
        assert all(m.functions.index(f) == i for i, f in enumerate(ref.functions))
        assert m.tables[-1] == ref.tables[-1] and m.tables[1::2] == ref.tables[1::2]
        assert m.tables == ref.tables and ref.tables == m.tables
        assert hash(m.tables) == hash(ref.tables)
        assert m == ref and ref == m and hash(m) == hash(ref)
        assert m.has_full_function_set() == ref.has_full_function_set()
        assert m.functions == ref.functions and ref.functions == m.functions

    def test_kinds_differ_except_on_one_state(self):
        assert full_machine(_ss(1)) == full_bijection_machine(_ss(1))
        assert full_machine(_ss(2)) != full_bijection_machine(_ss(2))
        assert full_machine(_ss(2)) != full_machine(_ss(3))
        assert full_machine(_ss(2)) != make_machine(_ss(2), [(0, 0), (0, 1), (1, 0)])

    def test_absent_tables(self):
        full, bij = full_machine(_ss(3)).tables, full_bijection_machine(_ss(3)).tables
        for tables, absent in ((full, (0, 3, 0)), (full, (0, 0)), (full, [0, 0, 0]),
                               (full, (0, -1, 0)), (bij, (0, 0, 1)), (bij, (0, 1, 3))):
            assert absent not in tables
            with pytest.raises(ValueError):
                tables.index(absent)
        with pytest.raises(IndexError):
            full[27]
        with pytest.raises(IndexError):
            bij[-7]
        with pytest.raises(ValueError):
            full_machine(_ss(3)).functions.index(identity_fn(states("a", "b", "c")))

    def test_built_without_listing(self):
        m = full_machine(_ss(8))  # 16.7M tables, past the enumeration cap
        assert m.has_full_function_set() and m.n_functions == 8**8
        assert m.tables[8**8 - 2] == (7, 7, 7, 7, 7, 7, 7, 6)
        assert m.tables.index((0, 0, 0, 0, 0, 0, 1, 0)) == 8
        big = full_machine(_ss(16))  # more tables than len() reports
        assert big.n_functions == 16**16 and big.has_full_function_set()
        assert big.tables[16**16 - 1] == (15,) * 16
        with pytest.raises(OverflowError):
            len(big.tables)
        bij = full_bijection_machine(_ss(20))
        assert bij.n_functions == math.factorial(20) and not bij.has_full_function_set()
        assert bij.tables[math.factorial(20) - 1] == tuple(range(19, -1, -1))

    def test_hashing_past_the_cap_refuses(self):
        m = full_machine(_ss(8))
        for value in (m.tables, m):
            with pytest.raises(EnumerationTooLargeError) as e:
                hash(value)
            assert (e.value.what, e.value.size) == ("full transition set", 8**8)

    @pytest.mark.parametrize("build, n, what, size", [
        (full_machine, 8, "full transition set", 8**8),
        (full_bijection_machine, 10, "bijection set", math.factorial(10)),
    ])
    def test_whole_reads_past_the_cap_refuse_at_the_call(self, monkeypatch, build, n, what, size):
        m = build(_ss(n))

        def unreachable(*args):
            raise AssertionError("a table was decoded or listed")

        monkeypatch.setattr(type(m.tables), "_decode", unreachable)
        monkeypatch.setattr(type(m.tables), "_unlisted", unreachable)
        reads = [(read, m.tables) for read in (iter, reversed, tuple, set, hash)]
        for read, view in reads + [(iter, m.functions), (reversed, m.functions)]:
            with pytest.raises(EnumerationTooLargeError) as e:
                read(view)
            assert str(e.value) == (
                f"{what} would enumerate {size} items, above the cap of {DEFAULT_ENUMERATION_CAP}"
            )

    def test_search_refuses_the_container_first(self):
        # Both sides are past the cap: the error names the container.
        with pytest.raises(EnumerationTooLargeError) as e:
            is_complete(full_bijection_machine(_ss(10)), full_machine(_ss(8)), method="search")
        assert (e.value.what, e.value.size) == ("bijection set", math.factorial(10))

    @pytest.mark.parametrize("build", [full_machine, full_bijection_machine])
    def test_views_are_whole_sequences(self, build):
        m, ss = build(_ss(4)), _ss(4)
        ref = tuple(m.functions)
        f = ref[5]
        assert m.functions.index(f) == ref.index(f) == 5
        assert functional_reduction(m, [f]).kept_functions == (5,)
        assert f in m.functions and m.functions.count(f) == 1
        assert list(reversed(m.functions)) == list(reversed(ref))
        assert list(reversed(m.tables)) == list(reversed(tuple(m.tables)))
        assert m.tables.count(f.table) == 1 and m.tables.count((9, 9, 9, 9)) == 0
        absent = TransitionFunction(ss, (0, 0, 0, 0)) if build is full_bijection_machine else identity_fn(_ss(3))
        assert absent not in m.functions and m.functions.count(absent) == 0 and "f" not in m.functions
        with pytest.raises(ValueError):
            m.functions.index(absent)
        # No names are listed: function i is f<i>, counted from the end too.
        assert m.function_names == () == parse_machine(render_machine(m)).function_names
        assert [g.name for g in ref] == [f"f{i}" for i in range(m.n_functions)]
        size = m.n_functions
        assert m.functions[-1].name == m.functions.name_at(-1) == f"f{size - 1}"
        assert [g.name for g in reversed(m.functions)][:2] == [f"f{size - 1}", f"f{size - 2}"]
        assert [g.name for g in m.functions[-3::2]] == [f"f{size - 3}", f"f{size - 1}"]

    @pytest.mark.parametrize("build, n", [
        pytest.param(build, n, id=f"{build.__name__}-{n}")
        for build in (full_machine, full_bijection_machine) for n in range(1, 5)
    ])
    def test_views_answer_as_their_tuples(self, build, n):
        m = build(_ss(n))
        listed = make_machine(m.states, list(m.tables))
        absent = ((n,) * n, [0] * n, (0,) * n, TransitionFunction(m.states, (0,) * n),
                  identity_fn(_ss(n + 1)), "f0", None)
        for view in (m.tables, m.functions, listed.functions):
            ref = tuple(view)
            for x in ref + absent:
                assert (x in view) == (x in ref) and view.count(x) == ref.count(x)
                if x in ref:
                    assert view.index(x) == ref.index(x)
                else:
                    with pytest.raises(ValueError):
                        view.index(x)
            assert tuple(reversed(view)) == ref[::-1]
            for cut in (slice(None), slice(1, None, 2), slice(None, None, -1), slice(-3, -1),
                        slice(5, 2, -2), slice(100, None)):
                assert view[cut] == ref[cut]
                if view is not m.tables:
                    assert [g.name for g in view[cut]] == [g.name for g in ref[cut]]

    def test_function_views_compare_without_listing(self):
        a, b = full_machine(_ss(8)), full_machine(_ss(8))  # 16.7M functions each
        assert a.functions == b.functions
        assert a.functions != full_bijection_machine(_ss(8)).functions
        assert a.functions != full_machine(states(*"abcdefgh")).functions
        small = full_machine(_ss(2))
        assert small.functions == tuple(small.functions) and small.functions != (small.functions[0],)

    def test_names_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer text conversion is unlimited here")
        m = parse_machine(render_machine(full_machine(_ss(1500))))
        first, last_name = 10**limit, "f" + "9" * limit  # the first index with limit + 1 digits
        assert m.function_names == ()
        assert m.functions.name_at(first - 1) == m.functions[first - 1].name == last_name
        assert m.functions.name_at(first) is None and m.functions[first].name is None
        assert m.functions.name_at(-1) is None and m.functions.name_at(0) == "f0"

    def test_cap_message_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer text conversion is unlimited here")
        size = 1500**1500
        digits = next(d for d in range(limit, 2 * limit) if size < 10**d)
        with pytest.raises(EnumerationTooLargeError) as e:
            state_reduction(full_machine(_ss(1500)), ["s0"])
        assert (e.value.size, e.value.cap) == (size, DEFAULT_ENUMERATION_CAP)
        assert str(e.value) == (
            f"full transition set would enumerate a {digits}-digit number of items, "
            f"above the cap of {DEFAULT_ENUMERATION_CAP}"
        )

    def test_invariants_copies_and_view(self):
        m = dataclasses.replace(full_machine(states("a", "b", "c")), name="full")
        assert m.name == "full" and m.function_names == () and m.functions.name_at(5) == "f5"
        parsed = parse_machine(render_machine(m))
        assert parsed == m and parsed.function_names == () and parsed.functions[-2].name == "f25"
        for bad in (dict(function_names=("f",) * 27), dict(states=states("a", "b"))):
            with pytest.raises(InvalidMachineError, match="implicit tables"):
                dataclasses.replace(m, **bad)
        for copy in (pickle.loads(pickle.dumps(m)), dataclasses.replace(m)):
            assert copy == m and hash(copy) == hash(m) and copy.name == "full"
        assert m.functions[-1].table == (2, 2, 2) and m.functions[-1]("a") == "c"
        assert m.functions[-1].name == "f26"
        assert [f.table for f in m.functions[:2]] == [(0, 0, 0), (0, 0, 1)]
        assert len(m.functions) == 27 and m.functions is m.functions

    def test_each_table_is_checked_once(self, monkeypatch):
        calls = []
        check = machine_module._check_tables
        monkeypatch.setattr(machine_module, "_check_tables", lambda t, n: calls.append(n) or check(t, n))
        ss = states("a", "b")
        fns = [TransitionFunction(ss, (0, 0)), TransitionFunction(ss, (1, 0))]
        assert len(calls) == 2  # once per function, as it is built
        make_machine(ss, fns)
        assert len(calls) == 2
        make_machine(ss, [(0, 0), (1, 0)])
        assert len(calls) == 3  # the bare tables, once
        Machine(ss, ((0, 0), (1, 0)))
        assert len(calls) == 4
        full_machine(ss)
        assert len(calls) == 4  # generated, never checked


def _compiled(kind, policy):
    """``increment.tm`` compiled, or ``bitflip.tm`` through ``tm_to_mem`` and
    compiled, under ``policy``: 128 to 432 states."""
    sample = "increment.tm" if kind == "tm" else "bitflip.tm"
    t = parse_turing((SAMPLES / sample).read_text())
    t = dataclasses.replace(t, boundary_policy=policy)
    return compile_tm(t)[0] if kind == "tm" else compile_mem(tm_to_mem(t))[0]


COMPILED = [
    pytest.param(kind, policy, id=f"{kind}-{policy.value}")
    for kind in ("tm", "mem")
    for policy in BoundaryPolicy
]


class TestProductLabels:
    """A compiled state set decodes its labels on demand and answers as the
    state set listing the same labels does."""

    @pytest.mark.parametrize("kind, policy", COMPILED)
    def test_equals_its_listing(self, kind, policy):
        ss = _compiled(kind, policy).states
        listed = StateSet(tuple(_compiled(kind, policy).states.labels))
        assert isinstance(ss.labels, machine_module._ProductLabels)
        assert ss.labels == listed.labels and listed.labels == ss.labels
        assert ss == listed and listed == ss and not ss != listed
        assert hash(ss.labels) == hash(listed.labels) and hash(ss) == hash(listed)
        assert ss.labels == _compiled(kind, policy).states.labels  # by axes
        for copy in (pickle.loads(pickle.dumps(ss)), dataclasses.replace(ss)):
            assert isinstance(copy.labels, machine_module._ProductLabels)
            assert copy == ss == listed and hash(copy) == hash(listed)
            assert copy.labels.index(listed.labels[-1]) == len(listed) - 1
        assert ss.labels != listed.labels[:-1] and ss.labels != list(listed.labels)

    @pytest.mark.parametrize("kind, policy", COMPILED)
    @pytest.mark.parametrize("listed", [False, True], ids=["unlisted", "listed"])
    def test_machine_copies_equal_it(self, kind, policy, listed):
        m = _compiled(kind, policy)
        if listed:
            tuple(m.tables[0])
        pickled = pickle.loads(pickle.dumps(m))
        assert ("_listing" in pickled.tables[0].__dict__) == listed
        for copy in (pickled, dataclasses.replace(m)):
            assert copy == m and m == copy and hash(copy) == hash(m)
            assert copy.tables[0] == tuple(m.tables[0])

    @pytest.mark.parametrize("kind, policy", COMPILED)
    def test_indexing_decodes(self, kind, policy):
        labels = tuple(_compiled(kind, policy).states.labels)
        view, n = _compiled(kind, policy).states.labels, len(labels)
        assert len(view) == n
        assert [view[i] for i in range(n)] == list(labels)
        assert [view[i] for i in range(-n, 0)] == list(labels)
        assert view[1::3] == labels[1::3] and view[::-1] == labels[::-1] and view[n:] == ()
        assert list(reversed(view)) == list(reversed(labels))
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                view[i]
        assert "_listing" not in view.__dict__  # nothing above listed the labels

    @pytest.mark.parametrize("kind, policy", COMPILED)
    def test_listed_labels_read_as_their_tuple(self, kind, policy):
        view = _compiled(kind, policy).states.labels
        assert view != () and view != ("~",) and "_listing" not in view.__dict__  # another length
        listing = tuple(view)
        kept = view.__dict__["_listing"]
        assert kept == listing and view.__getitem__.__self__ is kept
        assert view.__getitem__ == kept.__getitem__
        assert all(view[i] is listing[i] for i in range(-len(listing), len(listing)))
        for t in ((), listing[:1], listing[:-1], listing, listing + ("~",), ("~",)):
            assert (view < t, view <= t, view + t) == (listing < t, listing <= t, listing + t)

    @pytest.mark.parametrize("kind, policy", COMPILED)
    def test_index_parses(self, kind, policy):
        labels = tuple(_compiled(kind, policy).states.labels)
        view = _compiled(kind, policy).states.labels
        assert [view.index(s) for s in labels] == list(range(len(labels)))
        assert all(s in view and view.count(s) == 1 for s in labels)
        label = labels[len(labels) // 2]
        absent = [
            label.rsplit("|", 1)[0],  # truncated: the last token is gone
            label + "|",  # an extra separator
            label.replace(";" if kind == "mem" else ".", "||", 1),
            "zz" + label[1:],  # a foreign first token
            labels[-1][:-1],
            0, None, label.encode(), [label],
        ]
        for bad in absent:
            assert bad not in view and view.count(bad) == 0
            with pytest.raises(ValueError):
                view.index(bad)
        assert "_listing" not in view.__dict__

    def test_bad_axes_raise(self):
        product = machine_module._ProductLabels
        for axes, extra in [
            ((("a|", "a|"), ("0",)), ()),  # a repeated token
            ((("a|",), ("0", "0")), ()),  # repeated in the last axis
            ((("a|", "b."), ("0",)), ()),  # two separators
            ((("a|", "b"), ("0",)), ()),  # a token without one
            ((("a|", "b||"), ("0",)), ()),  # the separator inside a token
            ((("a|", ""), ("0",)), ()),
            ((("a|",), ("0",)), ("x", "x")),  # a repeated extra label
            ((("a|",), ("0",)), ("a|0",)),  # an extra label in the product
        ]:
            with pytest.raises(InvalidMachineError):
                product(axes, extra)
        labels = product((("a|", "b|"), ("0", "1")), ("!e",))
        assert labels == ("a|0", "a|1", "b|0", "b|1", "!e") and labels.index("!e") == 4
        one_axis = product((("a|0", "a|1", "b|0", "b|1"),), ("!e",))
        assert labels == one_axis and hash(labels) == hash(one_axis)
        assert labels != product((("a|", "b|"), ("0", "1")))

    @pytest.mark.parametrize("kind, policy", COMPILED)
    def test_text_round_trip(self, kind, policy):
        m = _compiled(kind, policy)
        text = render_machine(m)
        assert parse_machine(text) == m and m == parse_machine(text)
        assert render_machine(parse_machine(text)) == text


class TestRunToFixpoint:
    def test_halts(self):
        ss = states("a", "b", "c")
        f = fn_from_map(ss, {"a": "b", "b": "c", "c": "c"})
        r = run_to_fixpoint(f, "a", 10, record_trajectory=True)
        assert r == Halted("c", 2, ("a", "b", "c"))

    def test_zero_step_halt(self):
        ss = states("a", "b")
        f = identity_fn(ss)
        r = run_to_fixpoint(f, "b", 0)
        assert r == Halted("b", 0, None)

    def test_cycles(self):
        ss = states("a", "b", "c")
        f = fn_from_map(ss, {"a": "b", "b": "c", "c": "b"})
        r = run_to_fixpoint(f, "a", 10)
        assert r == Cycled(cycle_length=2, entry_step=1, trajectory=None)

    def test_pure_cycle_from_start(self):
        ss = states("a", "b")
        swap = fn_from_map(ss, {"a": "b", "b": "a"})
        r = run_to_fixpoint(swap, "a", 10, record_trajectory=True)
        assert r == Cycled(2, 0, ("a", "b", "a"))

    def test_step_limit(self):
        ss = states("a", "b", "c")
        f = fn_from_map(ss, {"a": "b", "b": "c", "c": "c"})
        r = run_to_fixpoint(f, "a", 1)
        assert r == StepLimit(1, None)

    def test_negative_steps_rejected(self):
        f = identity_fn(states("a"))
        with pytest.raises(ValueError):
            run_to_fixpoint(f, "a", -1)

    def test_start_lookup_builds_no_label_dict(self):
        # one lookup on a fresh state set is a scan, not a dict build
        ss = StateSet(("a", "b", "c"))
        f = TransitionFunction(ss, (1, 2, 2))
        assert run_to_fixpoint(f, "b", 10) == Halted("c", 1, None)
        assert "_positions" not in ss.__dict__
        with pytest.raises(DomainMismatchError):
            run_to_fixpoint(f, "z", 10)
        with pytest.raises(DomainMismatchError):
            run_to_fixpoint(TransitionFunction(StateSet(("a",)), (0,)), ["a"], 10)

    def test_each_entry_is_read_once_per_step(self):
        # A compiled table computes each entry it is asked for, so a run asks once.
        reads = []

        class Counted(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return tuple.__getitem__(self, i)

        f = TransitionFunction(states("a", "b", "c", "d"), Counted((1, 2, 3, 1)))
        for max_steps, want, visited in ((10, Cycled(3, 1, None), [0, 1, 2, 3]),
                                         (2, StepLimit(2, None), [0, 1, 2])):
            reads.clear()
            assert run_to_fixpoint(f, "a", max_steps) == want and reads == visited
        reads.clear()
        f = TransitionFunction(states("a", "b"), Counted((1, 1)))
        assert run_to_fixpoint(f, "a", 5) == Halted("b", 1, None) and reads == [0, 1]

    @given(st.data())
    def test_enough_steps_always_definite(self, data):
        n = data.draw(st.integers(1, 6))
        table = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n))
        ss = StateSet(tuple(f"s{i}" for i in range(n)))
        f = TransitionFunction(ss, table)
        start = data.draw(st.sampled_from(ss.labels))
        r = run_to_fixpoint(f, start, n, record_trajectory=True)
        assert not isinstance(r, StepLimit)
        if isinstance(r, Halted):
            assert f(r.state) == r.state
            assert r.trajectory[-1] == r.state
        else:
            assert r.cycle_length >= 2

    def test_random_against_plain_iteration(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 5)
            ss = StateSet(tuple(f"s{i}" for i in range(n)))
            f = TransitionFunction(ss, tuple(rng.randrange(n) for _ in range(n)))
            start = rng.choice(ss.labels)
            r = run_to_fixpoint(f, start, n, record_trajectory=True)
            seq = [start]
            for _ in range(n):
                seq.append(f(seq[-1]))
            assert tuple(seq[: len(r.trajectory)]) == r.trajectory
