"""Reductions: worked examples, composition laws, the sub-machine order."""

import dataclasses
import itertools
import random
import re

import pytest

from machalg import (
    EmptyReductionError,
    InvalidMachineError,
    InvalidReductionError,
    MachalgError,
    StateSet,
    TransitionFunction,
    find_isomorphism,
    fn_from_map,
    full_machine,
    functional_reduction,
    identity_fn,
    is_sub_machine,
    make_machine,
    state_reduction,
    states,
    sub_machine,
)
from machalg import lemmas, reductions
from machalg.lemmas import random_machine, run_lemma_suite

from oracles import brute_force_state_reduction, brute_force_sub_machine


def switchlike():
    ss = states("0", "1")
    ident = identity_fn(ss)
    neg = fn_from_map(ss, {"0": "1", "1": "0"}, "neg")
    return ss, ident, neg


class TestReductionWitness:
    @pytest.mark.parametrize("kind, message", [
        ("bogus", "unknown reduction kind 'bogus'"),
        ("functional", "functional reduction witness lists no functions"),
        ("state", "state reduction witness lists no states"),
    ])
    def test_malformed_witness_refused(self, kind, message):
        m = make_machine(states("a"), [identity_fn(states("a"))])
        with pytest.raises(InvalidReductionError) as e:
            reductions.Reduction(kind, m, m)
        assert str(e.value) == message


class TestFunctionalReduce:
    def test_keep_identity_drops_switching(self):
        ss, ident, neg = switchlike()
        m = make_machine(ss, [ident, neg])
        reduced = functional_reduction(m, [ident]).result
        assert reduced == make_machine(ss, [ident])
        assert reduced.states == m.states

    def test_keep_all_is_identity_operation(self):
        ss, ident, neg = switchlike()
        m = make_machine(ss, [ident, neg])
        assert functional_reduction(m, m.functions).result == m

    def test_foreign_function_rejected(self):
        ss, ident, neg = switchlike()
        m = make_machine(ss, [ident])
        with pytest.raises(InvalidReductionError):
            functional_reduction(m, [neg])

    def test_empty_keep_rejected(self):
        ss, ident, _ = switchlike()
        m = make_machine(ss, [ident])
        with pytest.raises(InvalidMachineError):
            functional_reduction(m, [])

    def test_witness_records_indices(self):
        ss, ident, neg = switchlike()
        m = make_machine(ss, [ident, neg])
        r = functional_reduction(m, [neg])
        assert r.kind == "functional"
        assert r.source == m
        assert [m.functions[i] for i in r.kept_functions] == [neg]

    def test_indices_and_functions_keep_alike(self):
        ss, ident, neg = switchlike()
        m = make_machine(ss, [ident, neg])
        by_index = functional_reduction(m, [1])
        assert by_index.kept_functions == (1,)
        assert by_index == functional_reduction(m, [neg]) == functional_reduction(m, [neg, 1])

    def test_kept_functions_are_not_decoded_again(self, monkeypatch):
        m = full_machine(StateSet(tuple(f"s{i}" for i in range(4))))
        picks = [m.functions[i] for i in (3, 100, 255)]
        decoded, decode = [], type(m.tables)._decode
        monkeypatch.setattr(type(m.tables), "_decode", lambda t, i: decoded.append(i) or decode(t, i))
        kept = functional_reduction(m, picks)
        assert kept.kept_functions == (3, 100, 255) and decoded == []
        assert functional_reduction(m, [3, 100, 255]) == kept and decoded == [3, 100, 255]


class TestStateReduce:
    def setup_method(self):
        self.ss = states("0", "1", "2")
        self.ident = identity_fn(self.ss)
        self.const0 = fn_from_map(self.ss, dict.fromkeys(self.ss, "0"), "const0")
        self.m = make_machine(self.ss, [self.ident, self.const0])

    def test_both_preserve(self):
        got = state_reduction(self.m, ("0", "1")).result
        sub = states("0", "1")
        assert got == make_machine(
            sub, [identity_fn(sub), fn_from_map(sub, dict.fromkeys(sub, "0"), "const0")]
        )

    def test_const_dropped_when_target_left_out(self):
        got = state_reduction(self.m, ("1", "2")).result
        sub = states("1", "2")
        assert got == make_machine(sub, [identity_fn(sub)])

    def test_caller_order_kept(self):
        got = state_reduction(self.m, ("2", "0")).result
        assert got.states.labels == ("2", "0")

    def test_no_preserving_function_is_error(self):
        ss = states("a", "b")
        shift = fn_from_map(ss, {"a": "b", "b": "a"})
        m = make_machine(ss, [shift])
        with pytest.raises(EmptyReductionError):
            state_reduction(m, ("a",))

    def test_empty_subset_rejected(self):
        with pytest.raises(InvalidReductionError):
            state_reduction(self.m, ())

    def test_foreign_label_rejected(self):
        with pytest.raises(InvalidReductionError):
            state_reduction(self.m, ("0", "x"))

    @pytest.mark.parametrize("keep, foreign", [
        (("0", "x"), "['x']"),
        (("x", "1", "y"), "['x', 'y']"),
        (("0", ["1"]), "[['1']]"),  # an unhashable label is foreign too
        (("0", "0", "z"), "['z']"),  # named before the repeat
    ])
    def test_foreign_labels_are_named(self, keep, foreign):
        with pytest.raises(InvalidReductionError, match=f"^states not in the machine: {re.escape(foreign)}$"):
            state_reduction(self.m, keep)

    def test_restrictions_are_exact(self):
        rng = random.Random(2)
        for _ in range(150):
            m = random_machine(rng)
            labels = m.states.labels
            k = rng.randint(1, len(labels))
            keep = labels[:k]
            want = brute_force_state_reduction(m, keep)
            if want is None:
                with pytest.raises(EmptyReductionError):
                    state_reduction(m, keep)
                continue
            assert state_reduction(m, keep).result == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_machine_reduces_to_full(self, n):
        ss = StateSet(tuple(f"s{i}" for i in range(n)))
        full = full_machine(ss)
        for size in range(1, n + 1):
            for combo in itertools.combinations(ss.labels, size):
                got = state_reduction(full, combo).result
                assert got.n_functions == size**size
                assert got.has_full_function_set()


class TestCompositionLaws:
    def test_nested_functional_collapse(self):
        rng = random.Random(3)
        for _ in range(300):
            m = random_machine(rng)
            k1 = rng.randint(1, m.n_functions)
            keep1 = list(m.functions[:k1])
            inner = functional_reduction(m, keep1).result
            k2 = rng.randint(1, inner.n_functions)
            keep2 = list(inner.functions[:k2])
            want = functional_reduction(m, keep2).result
            assert functional_reduction(inner, keep2).result == want

    def test_nested_state_one_sided_containment(self):
        # the two-step machine never has functions the one-step lacks
        rng = random.Random(4)
        checked = 0
        for _ in range(400):
            m = random_machine(rng)
            labels = m.states.labels
            s1 = labels[: rng.randint(1, len(labels))]
            try:
                inner = state_reduction(m, s1).result
            except EmptyReductionError:
                continue
            s2 = s1[: rng.randint(1, len(s1))]
            try:
                two_step = state_reduction(inner, s2).result
            except EmptyReductionError:
                continue
            one_step = state_reduction(m, s2).result  # defined whenever two-step is
            checked += 1
            assert {f.table for f in two_step.functions} <= {
                f.table for f in one_step.functions
            }
        assert checked > 100

    def test_nested_state_collapse_fails_in_general(self):
        # minimal witness that the containment above can be strict: the
        # partial swap preserves the inner pair but not the outer triple,
        # so shrinking in two steps loses it while one step keeps it.
        ss = states("s0", "s1", "s2", "s3")
        partial_swap = fn_from_map(
            ss, {"s0": "s1", "s1": "s0", "s2": "s3", "s3": "s3"}, "pswap"
        )
        m = make_machine(ss, [identity_fn(ss), partial_swap])
        outer = ("s0", "s1", "s2")
        inner = ("s0", "s1")
        two_step = state_reduction(state_reduction(m, outer).result, inner).result
        one_step = state_reduction(m, inner).result
        assert two_step != one_step
        assert two_step.n_functions == 1  # identity only
        assert one_step.n_functions == 2  # identity and the swap
        assert {f.table for f in two_step.functions} < {
            f.table for f in one_step.functions
        }

    def test_idempotence(self):
        rng = random.Random(5)
        for _ in range(200):
            m = random_machine(rng)
            labels = m.states.labels
            s1 = labels[: rng.randint(1, len(labels))]
            try:
                once = state_reduction(m, s1).result
            except EmptyReductionError:
                continue
            assert state_reduction(once, s1).result == once

    def test_seeded_suite_lemmas_1_and_3_clean(self):
        report = run_lemma_suite(seed=101, iterations=300)
        assert report.violations_for(1) == ()
        assert report.violations_for(3) == ()
        assert report.checked_for(1) == 300

    def test_a_law_not_checked_counts_zero(self):
        report = lemmas.LemmaRunReport(seed=0, iterations=1, checked=((1, 1),), violations=())
        assert (report.checked_for(1), report.checked_for(2)) == (1, 0)

    @pytest.mark.parametrize(
        "kwargs", [{"iterations": -1}, {"max_states": 0}, {"max_functions": 0}]
    )
    def test_suite_rejects_empty_ranges(self, kwargs):
        with pytest.raises(MachalgError, match="must be at least"):
            run_lemma_suite(**{"seed": 0, "iterations": 5, **kwargs})

    @pytest.mark.parametrize(
        "args, error",
        [
            ((0,), "max_states must be at least 1, got 0"),
            ((3, 0), "max_functions must be at least 1, got 0"),
            ((16,), "max_states must be at most 15, got 16"),
            ((3, 10_001), "max_functions must be at most 10000, got 10001"),
        ],
    )
    def test_random_machine_rejects_bad_sizes(self, args, error):
        with pytest.raises(MachalgError) as e:
            random_machine(random.Random(0), *args)
        assert str(e.value) == error

    def test_random_machine_at_the_largest_size(self):
        rng = random.Random(1)
        sizes = {random_machine(rng, 15, 2).n_states for _ in range(60)}
        assert 15 in sizes

    def test_seeded_suite_documents_lemma_2_failures(self):
        # the strict-containment cases surface as honest violations
        report = run_lemma_suite(seed=101, iterations=300)
        assert report.violations_for(2) != ()
        assert not report.ok

    @pytest.mark.parametrize("fault, fires", [
        (None, None),
        ("keep drops its first index", "law 1"),
        ("restrictions lose the last preserving function", "law 3 inclusion"),
        ("state reduction rotates every table", "law 3 lift"),
    ])
    def test_each_check_fires_on_a_planted_fault(self, monkeypatch, fault, fires):
        keep, restrictions, state_red = (
            lemmas.functional_reduction, reductions._restrictions, reductions.state_reduction
        )

        def drop_first(m, indices):
            return keep(m, sorted(indices)[1:] or indices)

        def drop_last(m, kept):
            found = list(restrictions(m, kept))
            return found[:-1] or found

        def rotated(m, keep_states):
            r = state_red(m, keep_states)
            ss = r.result.states
            shift = [TransitionFunction(ss, tuple((j + 1) % len(ss) for j in t))
                     for t in r.result.tables]
            return dataclasses.replace(r, result=make_machine(ss, shift))

        planted = {
            "keep drops its first index": (lemmas, "functional_reduction", drop_first),
            "restrictions lose the last preserving function":
                (reductions, "_restrictions", drop_last),
            "state reduction rotates every table": (lemmas, "state_reduction", rotated),
        }
        if fault is not None:
            monkeypatch.setattr(*planted[fault])
        report = run_lemma_suite(seed=7, iterations=400)
        law3 = [v.description for v in report.violations_for(3)]
        tally = {
            "law 1": len(report.violations_for(1)),
            "law 3 inclusion": sum("not a functional reduction" in d for d in law3),
            "law 3 lift": sum("not a sub-machine" in d for d in law3),
        }
        assert {check for check, n in tally.items() if n} == ({fires} if fires else set())


class TestSubMachine:
    def test_reflexive(self):
        rng = random.Random(6)
        for _ in range(50):
            m = random_machine(rng)
            witness = is_sub_machine(m, m)
            assert witness is not None
            fr, sr = witness
            assert sr.result == m

    def test_drop_switching_function(self):
        ss, ident, neg = switchlike()
        a = make_machine(ss, [ident, neg])
        b = make_machine(ss, [ident])
        assert is_sub_machine(a, b) is not None

    def test_negation_not_in_do_nothing(self):
        ss, ident, neg = switchlike()
        a = make_machine(ss, [ident])
        b = make_machine(ss, [neg])
        assert is_sub_machine(a, b) is None

    def test_label_mismatch_is_none(self):
        ss, ident, _ = switchlike()
        other = states("x", "y")
        assert is_sub_machine(
            make_machine(ss, [ident]), make_machine(other, [identity_fn(other)])
        ) is None

    def test_witness_reapplies(self):
        rng = random.Random(7)
        hits = 0
        for _ in range(200):
            a = random_machine(rng)
            keep = list(a.functions[: rng.randint(1, a.n_functions)])
            labels = a.states.labels
            subset = labels[: rng.randint(1, len(labels))]
            try:
                b = state_reduction(functional_reduction(a, keep).result, subset).result
            except EmptyReductionError:
                continue
            witness = is_sub_machine(a, b)
            assert witness is not None
            fr, sr = witness
            rebuilt = state_reduction(
                functional_reduction(a, [a.functions[i] for i in fr.kept_functions]).result,
                sr.kept_states,
            ).result
            assert rebuilt == b
            hits += 1
        assert hits > 50

    def test_transitive(self):
        rng = random.Random(8)
        hits = 0
        for _ in range(200):
            a = random_machine(rng)
            try:
                b = state_reduction(
                    functional_reduction(
                        a, list(a.functions[: rng.randint(1, a.n_functions)])
                    ).result,
                    a.states.labels[: rng.randint(1, a.n_states)],
                ).result
                c = state_reduction(
                    functional_reduction(
                        b, list(b.functions[: rng.randint(1, b.n_functions)])
                    ).result,
                    b.states.labels[: rng.randint(1, b.n_states)],
                ).result
            except EmptyReductionError:
                continue
            assert is_sub_machine(a, c) is not None
            hits += 1
        assert hits > 50

    def test_antisymmetric_up_to_isomorphism(self):
        rng = random.Random(9)
        for _ in range(60):
            a = random_machine(rng)
            b = random_machine(rng)
            if is_sub_machine(a, b) and is_sub_machine(b, a):
                assert find_isomorphism(a, b) is not None

    def test_random_pairs_match_the_oracle(self):
        # b is a fresh draw, or a sub-machine of a on shuffled labels with,
        # half the time, one table swapped for a random one.
        rng = random.Random(10)
        answers = []
        for _ in range(300):
            a = random_machine(rng)
            if rng.random() < 0.3:
                b = random_machine(rng)
            else:
                labels = rng.sample(a.states.labels, rng.randint(1, a.n_states))
                keep = rng.sample(a.functions, rng.randint(1, a.n_functions))
                try:
                    b = state_reduction(functional_reduction(a, keep).result, labels).result
                except EmptyReductionError:
                    continue
                if rng.random() < 0.5:
                    extra = tuple(rng.randrange(b.n_states) for _ in range(b.n_states))
                    b = make_machine(
                        b.states, [*b.functions[1:], TransitionFunction(b.states, extra)]
                    )
            want = brute_force_sub_machine(a, b)
            got = is_sub_machine(a, b)
            answers.append(want is not None)
            if want is None:
                assert got is None
            else:
                fr, sr = got
                assert fr.kept_functions == want
                assert sr.result == b and sr.kept_states == b.states.labels
        assert answers.count(True) > 50 and answers.count(False) > 50

    def test_witness_is_the_replay(self):
        # is_sub_machine builds its witness from the restrictions it found;
        # it must be the pair sub_machine replays, with the function names
        # that == does not compare, when two kept functions restrict to one
        # table (the first name wins) too.
        rng = random.Random(12)
        tally = {"hit": 0, "miss": 0, "collapse": 0}
        for i in range(400):
            if i % 10:
                a = random_machine(rng)
                names = rng.sample([f"g{j}" for j in range(3 * a.n_functions)], a.n_functions)
                a = dataclasses.replace(a, name=f"m{i}", function_names=tuple(names))
            else:  # implicit tables, whose names are f<i>
                a = full_machine(StateSet(tuple(f"s{j}" for j in range(rng.randint(1, 3)))))
            labels = rng.sample(a.states.labels, rng.randint(1, a.n_states))
            keep = rng.sample(range(a.n_functions), rng.randint(1, min(a.n_functions, 6)))
            try:
                b = sub_machine(a, keep, labels)[1].result
            except EmptyReductionError:
                continue
            if rng.random() < 0.3:
                extra = tuple(rng.randrange(b.n_states) for _ in range(b.n_states))
                b = make_machine(b.states, [*b.functions[1:], TransitionFunction(b.states, extra)])
            witness = is_sub_machine(a, b)
            if witness is None:
                tally["miss"] += 1
                continue
            tally["hit"] += 1
            replay = sub_machine(a, witness[0].kept_functions, b.states.labels)
            for got, want in zip(witness, replay):
                assert got == want
                for m, n in ((got.source, want.source), (got.result, want.result)):
                    assert (m.name, m.function_names) == (n.name, n.function_names)
            fr, sr = witness
            tally["collapse"] += sr.result.n_functions < fr.result.n_functions
        assert tally["hit"] > 150 and tally["miss"] > 20 and tally["collapse"] > 20, tally

    @pytest.mark.parametrize("index", [-1, 2])
    def test_function_index_out_of_range(self, index):
        ss = states("0", "1")
        m = make_machine(ss, [identity_fn(ss), fn_from_map(ss, {"0": "1", "1": "0"})])
        with pytest.raises(IndexError, match=r"function index out of range 0\.\.1"):
            sub_machine(m, [index], ("0", "1"))

    def test_index_out_of_range_past_the_digit_limit(self):
        # 1500**1500 functions: their count has more digits than Python writes as text
        m = full_machine(StateSet(tuple(f"s{i}" for i in range(1500))))
        with pytest.raises(IndexError, match=r"^function index out of range 0\.\.\(a 4765-digit number\)$"):
            sub_machine(m, [1500**1500], ["s0"])

    @pytest.mark.parametrize("indices", [[True], [False, 1], [1, True], [1.0]])
    def test_function_index_must_be_an_int(self, indices):
        ss = states("0", "1")
        m = make_machine(ss, [identity_fn(ss), fn_from_map(ss, {"0": "1", "1": "0"})])
        with pytest.raises(TypeError, match="function indices must be integers"):
            sub_machine(m, indices, ("0", "1"))

    def test_sub_machine_composite(self):
        ss = states("0", "1", "2")
        ident = identity_fn(ss)
        const0 = fn_from_map(ss, dict.fromkeys(ss, "0"), "c0")
        m = make_machine(ss, [ident, const0])
        fr, sr = sub_machine(m, [m.functions.index(const0)], ("0", "1"))
        result = sr.result
        sub = states("0", "1")
        assert result == make_machine(sub, [fn_from_map(sub, dict.fromkeys(sub, "0"), "c0")])
        assert fr.kind == "functional" and sr.kind == "state"
