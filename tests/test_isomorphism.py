"""Isomorphism search, embeddings into full machines, completeness checks."""

import dataclasses
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from machalg import (
    BoundaryPolicy,
    Certificate,
    CompletenessWitness,
    DomainMismatchError,
    IncompatibleShapesError,
    MachalgError,
    Machine,
    Morphism,
    Move,
    SearchBudgetExceededError,
    StateSet,
    TmConfiguration,
    TransitionFunction,
    TuringSpec,
    compile_tm,
    find_isomorphism,
    fn_from_map,
    full_bijection_machine,
    full_machine,
    identity_fn,
    is_complete,
    make_machine,
    parse_machine,
    parse_turing,
    state_reduction,
    states,
    TotalityViolationError,
    parse_certificate,
    render_certificate,
    verify,
    verify_completeness,
    verify_morphism,
)
from machalg import isomorphism
from machalg.errors import EmptyReductionError
from machalg.lemmas import random_machine
from machalg.reductions import is_sub_machine, sub_machine

from conftest import conjugated, conjugated_table
from mutants import mutated_fields
from oracles import (
    brute_force_decomposition,
    brute_force_embedding,
    brute_force_isomorphism,
    enumerated_full_machine,
    reference_equitable_partition,
    reference_verify,
)
from test_scaling import tape_spec


def table_machine(tables, prefix="s"):
    ss = StateSet(tuple(f"{prefix}{i}" for i in range(len(tables[0]))))
    return make_machine(ss, [TransitionFunction(ss, t) for t in tables])


def random_tables(rng, n, k, targets=None):
    targets = n if targets is None else targets
    return [tuple(rng.randrange(targets) for _ in range(n)) for _ in range(k)]


def relabelled(rng, m):
    perm = list(range(m.n_states))
    rng.shuffle(perm)
    return conjugated(m, tuple(perm))


def perturbed(rng, m):
    """One table entry changed: usually, but not always, non-isomorphic."""
    tables = [list(f.table) for f in m.functions]
    tables[rng.randrange(len(tables))][rng.randrange(m.n_states)] = rng.randrange(m.n_states)
    return table_machine([tuple(t) for t in tables], "t")


def log_refinements(monkeypatch):
    """The results of every ``_Partition.refine`` call from now on, in order."""
    results = []
    refine = isomorphism._Partition.refine

    def logged(part, queue):
        results.append(refine(part, queue))
        return results[-1]

    monkeypatch.setattr(isomorphism._Partition, "refine", logged)
    return results


def with_identity(tables_a, tables_b):
    """Both single-function machines with the identity added as a second
    function.  Conjugation fixes the identity, so the pair has the same
    isomorphisms and the same least g, and it takes the refinement search.
    (Where a map is the identity itself, the machine keeps one function.)"""
    identity = tuple(range(len(tables_a[0])))
    return table_machine(tables_a + [identity]), table_machine(tables_b + [identity], "t")


def switch_pair():
    a_ss = states("0", "1")
    a = make_machine(
        a_ss,
        [identity_fn(a_ss), fn_from_map(a_ss, {"0": "1", "1": "0"}, "neg")],
        name="switch",
    )
    b_ss = states("off", "on")
    b = make_machine(
        b_ss,
        [identity_fn(b_ss), fn_from_map(b_ss, {"off": "on", "on": "off"}, "flip")],
        name="lamp",
    )
    return a, b


class TestVerifyMorphism:
    def test_relabeling_verifies(self):
        a, b = switch_pair()
        assert verify_morphism(a, b, Morphism((0, 1), (0, 1)))

    def test_broken_state_map_fails(self):
        a, b = switch_pair()
        assert not verify_morphism(a, b, Morphism((1, 0), (1, 0)))

    def test_swapped_function_map_fails(self):
        a, b = switch_pair()
        assert not verify_morphism(a, b, Morphism((0, 1), (1, 0)))

    def test_machine_shape_mismatch_raises(self):
        a, _ = switch_pair()
        ss = states("off", "on")
        thin = make_machine(ss, [identity_fn(ss)])
        with pytest.raises(IncompatibleShapesError):
            verify_morphism(a, thin, Morphism((0, 1), (0, 1)))

    def test_malformed_morphism_is_false_not_error(self):
        a, b = switch_pair()
        assert not verify_morphism(a, b, Morphism((0,), (0, 1)))
        assert not verify_morphism(a, b, Morphism((0, 1), (0,)))
        assert not verify_morphism(a, b, Morphism((0, 0), (0, 1)))
        assert not verify_morphism(a, b, Morphism((0, 1), (1, 1)))


class TestFindIsomorphism:
    def test_worked_relabeling(self):
        a, b = switch_pair()
        mor = find_isomorphism(a, b)
        assert mor == Morphism((0, 1), (0, 1))

    def test_self_isomorphism_is_identity_first(self):
        rng = random.Random(11)
        for _ in range(60):
            m = random_machine(rng)
            mor = find_isomorphism(m, m)
            assert mor is not None
            assert mor.g == tuple(range(m.n_states))

    def test_witness_is_lex_least(self):
        # a two-cycle machine has two automorphisms; the identity wins
        ss = states("a", "b")
        neg = fn_from_map(ss, {"a": "b", "b": "a"})
        m = make_machine(ss, [neg, identity_fn(ss)])
        mor = find_isomorphism(m, m)
        assert mor.g == (0, 1)

    def test_count_mismatch_is_none(self):
        a, _ = switch_pair()
        ss = states("0", "1")
        b = make_machine(ss, [identity_fn(ss)])
        assert find_isomorphism(a, b) is None
        c = make_machine(states("0", "1", "2"), [identity_fn(states("0", "1", "2"))])
        assert find_isomorphism(b, c) is None

    def test_full_machines_same_size_isomorphic(self):
        for n in (1, 2, 3):
            x = full_machine(StateSet(tuple(f"p{i}" for i in range(n))))
            y = full_machine(StateSet(tuple(f"q{i}" for i in range(n))))
            mor = find_isomorphism(x, y)
            assert mor is not None
            assert verify_morphism(x, y, mor)

    def test_conjugation_invariance(self):
        rng = random.Random(12)
        for _ in range(80):
            m = random_machine(rng)
            perm = list(range(m.n_states))
            rng.shuffle(perm)
            twin = conjugated(m, tuple(perm))
            mor = find_isomorphism(m, twin)
            assert mor is not None
            assert verify_morphism(m, twin, mor)

    def test_agrees_with_brute_force(self):
        rng = random.Random(13)
        for trial in range(120):
            if trial % 3 == 0:
                a = random_machine(rng, max_states=3, max_functions=4)
                perm = list(range(a.n_states))
                rng.shuffle(perm)
                labels = tuple(f"t{i}" for i in range(a.n_states))
                b = conjugated(a, tuple(perm), labels)
            else:
                a = random_machine(rng, max_states=3, max_functions=4)
                b = random_machine(rng, max_states=3, max_functions=4)
            expected = brute_force_isomorphism(a, b)
            got = find_isomorphism(a, b)
            assert (got is None) == (expected is None)
            if got is not None:
                assert verify_morphism(a, b, got)

    def test_found_witness_matches_oracle_choice(self):
        # both searches enumerate g in lex order, so the witnesses agree
        rng = random.Random(14)
        for _ in range(40):
            a = random_machine(rng, max_states=3, max_functions=3)
            perm = list(range(a.n_states))
            rng.shuffle(perm)
            b = conjugated(a, tuple(perm))
            got = find_isomorphism(a, b)
            expected = brute_force_isomorphism(a, b)
            assert expected is not None and got is not None
            assert (got.g, got.h) == expected

    def test_budget_exhaustion_raises(self):
        x = full_machine(StateSet(("a", "b", "c")))
        y = full_machine(StateSet(("d", "e", "f")))
        with pytest.raises(SearchBudgetExceededError) as err:
            find_isomorphism(x, y, node_budget=2)
        assert "2" in str(err.value)
        assert "inconclusive" in str(err.value)

    def test_negative_budget_rejected_before_any_work(self):
        # Machines of different sizes would otherwise be a quick "no".
        a = make_machine(states("0"), [identity_fn(states("0"))])
        with pytest.raises(MachalgError, match="^node_budget must be at least 0, got -3$"):
            find_isomorphism(a, full_machine(StateSet(("x", "y"))), node_budget=-3)

    def test_budget_error_reports_depth(self):
        x = full_machine(StateSet(("a", "b", "c")))
        y = full_machine(StateSet(("d", "e", "f")))
        with pytest.raises(SearchBudgetExceededError) as err:
            find_isomorphism(x, y, node_budget=2)
        assert (err.value.depth, err.value.n) == (2, 3)
        assert "deepest level 2 of 3" in str(err.value)

    @pytest.mark.parametrize("k, max_states", [(1, 7), (2, 5)])
    def test_witness_matches_oracle_on_larger_machines(self, k, max_states):
        # relabelled positives and perturbed negatives, up to 7 states
        rng = random.Random(20 + k)
        for trial in range(90):
            a = table_machine(random_tables(rng, rng.randint(1, max_states), k))
            b = relabelled(rng, a)
            if trial % 2:
                b = perturbed(rng, b)
            got = find_isomorphism(a, b)
            expected = brute_force_isomorphism(a, b)
            assert (None if got is None else (got.g, got.h)) == expected

    def test_lex_least_among_automorphic_leaves(self):
        # every state maps into three hubs, so sibling leaves swap freely and
        # many g are valid; the witness must be the first in lex order
        rng = random.Random(23)
        for trial in range(40):
            a = table_machine(random_tables(rng, 7, 1 + trial % 2, targets=3))
            b = relabelled(rng, a)
            got = find_isomorphism(a, b)
            assert (got.g, got.h) == brute_force_isomorphism(a, b)

    @pytest.mark.parametrize("tables_a, tables_b, isomorphic", [
        ([(1, 0, 4, 3, 5, 2)], [(0, 4, 3, 2, 5, 1)], True),
        ([(1, 0, 3, 4, 2), (2, 3, 0, 4, 1)], [(4, 3, 0, 1, 2), (4, 3, 1, 2, 0)], False),
    ])
    def test_refinement_fails_below_the_root(self, monkeypatch, tables_a, tables_b, isomorphic):
        # Equal invariants and a balanced root partition, but some
        # individualised pair unbalances a cell, which ends that branch.
        # One-function pairs are not refined, so a single permutation is
        # refined with the identity added (see with_identity).
        a, b = table_machine(tables_a), table_machine(tables_b, "t")
        got = find_isomorphism(a, b)
        assert (None if got is None else (got.g, got.h)) == brute_force_isomorphism(a, b)
        assert (got is not None) == isomorphic
        results = log_refinements(monkeypatch)
        refined = find_isomorphism(*with_identity(tables_a, tables_b))
        assert (None if refined is None else refined.g) == (None if got is None else got.g)
        assert results[0] and False in results[1:]

    def test_refinement_fails_below_the_root_on_seeded_pairs(self, monkeypatch):
        # Random permutations often share their invariants; each pair is
        # refined with the identity added.
        results = log_refinements(monkeypatch)
        rng = random.Random(31)
        hits = 0
        for _ in range(300):
            n = rng.randint(4, 6)
            tables_a, tables_b = ([tuple(rng.sample(range(n), n))] for _ in "st")
            a, b = table_machine(tables_a), table_machine(tables_b, "t")
            got = find_isomorphism(a, b)
            assert (None if got is None else (got.g, got.h)) == brute_force_isomorphism(a, b)
            assert not results  # one function: no refinement
            refined = find_isomorphism(*with_identity(tables_a, tables_b))
            assert (None if refined is None else refined.g) == (None if got is None else got.g)
            hits += False in results[1:]
            results.clear()
        assert hits >= 3

    def test_fast_rejection_on_profiles(self):
        # same counts but different fixed-point structure: no search needed
        ss = states("0", "1")
        a = make_machine(ss, [identity_fn(ss)])
        b = make_machine(ss, [constantish(ss)])
        mor = find_isomorphism(a, b, node_budget=0)
        assert mor is None


def colouring_pairs(seed, count):
    """Pairs of machines with equal state counts and two or more functions each:
    random maps, maps into at most three hubs, permutations and near-paths with
    the identity added, each against a relabelled copy, a copy with one entry
    changed, or an unrelated machine of its kind."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        kind = made % 4
        n = rng.randint(2, 12) if kind < 3 else rng.randint(8, 16)  # long paths meet the round cap
        k, targets = rng.randint(2, 3), n if kind == 0 else min(n, rng.randint(1, 3))

        def draw(prefix):
            if kind < 2:
                return table_machine(random_tables(rng, n, k, targets), prefix)
            if kind == 2:
                step = tuple(rng.sample(range(n), n))
            else:
                step = tuple(min(s + 1, n - 1) if rng.random() < 0.95 else s for s in range(n))
            return table_machine([step, tuple(range(n))], prefix)

        a = draw("s")
        if made % 3 == 0:
            b = relabelled(rng, a)
        elif made % 3 == 1:
            b = perturbed(rng, a)
        else:
            b = draw("t")
        if a.n_functions == b.n_functions > 1:
            made += 1
            yield a, b


def union_tables(a, b):
    n = a.n_states
    return [ta + tuple(n + u for u in tb) for ta, tb in zip(a.tables, b.tables)]


def is_finer(finer, coarser):
    """Each colour class of ``finer`` lies inside one class of ``coarser``."""
    return len(set(zip(finer, coarser))) == len(set(finer))


def same_partition(x, y):
    return is_finer(x, y) and is_finer(y, x)


def balanced(colours, n):
    return sorted(colours[:n]) == sorted(colours[n:])


def outcome(a, b, budget=20000):
    try:
        got = find_isomorphism(a, b, node_budget=budget)
    except SearchBudgetExceededError as e:
        return str(e)
    return None if got is None else (got.g, got.h)


class TestRootColouring:
    """Multi-function pairs are coloured at the root by hashed rounds of colour
    refinement, then refined exactly unless the colouring is discrete; the
    oracle refines by sorted neighbour colours to the coarsest equitable partition."""

    def test_rounds_and_refinement_against_the_oracle(self, monkeypatch):
        hashed, roots = [], []
        monkeypatch.setattr(isomorphism, "hash", lambda x: hashed.append(x) or hash(x), raising=False)
        refine = isomorphism._Partition.refine
        monkeypatch.setattr(
            isomorphism._Partition, "refine",
            lambda part, queue: roots.append((refine(part, queue), part.cell[:])) or roots[-1][0],
        )
        seen = dict.fromkeys(["unbalanced", "discrete", "capped", "stable", "refined"], 0)
        for a, b in colouring_pairs(36, 3000):
            n = a.n_states
            sigs = isomorphism._profile(a)[2] + isomorphism._profile(b)[2]
            hashed.clear()
            colours = isomorphism._colour_rounds(sigs, union_tables(a, b), n)
            rounds = len({r for r, _ in hashed})
            oracle = reference_equitable_partition(a, b)
            if colours is None:
                assert not balanced(oracle, n)
                seen["unbalanced"] += 1
            else:
                assert is_finer(oracle, colours)  # never finer than the oracle
                if max(colours) == n - 1:  # discrete: it is the oracle's iff that is balanced
                    assert same_partition(oracle, colours) == balanced(oracle, n)
                    # and a search starts (and meets a zero budget) iff it is
                    assert (outcome(a, b, 0) is None) == (not balanced(oracle, n))
                    seen["discrete"] += 1
                elif rounds < (2 * n).bit_length():
                    assert same_partition(oracle, colours)
                    seen["stable"] += 1
                else:
                    seen["capped"] += 1
            roots.clear()
            outcome(a, b)  # a give-up ends the search, not the root refinement
            if roots:  # the first refinement is the root's
                ok, cells = roots[0]
                assert ok == balanced(oracle, n)
                assert not ok or same_partition(oracle, cells)
                seen["refined"] += 1
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("tables_a, tables_b", [
        ([(0, 2, 2), (1, 2, 0)], [(0, 0, 2), (1, 2, 0)]),
        ([(2, 0, 1), (2, 0, 2)], [(0, 0, 1), (1, 2, 0)]),
        ([(1, 1, 1, 0), (2, 2, 0, 2)], [(2, 0, 0, 0), (2, 1, 1, 1)]),
    ])
    def test_a_discrete_colouring_that_is_not_equitable_ends_at_the_root(self, tables_a, tables_b):
        # Rounds stop once colours pair every a-state with one b-state; the
        # pairing check stands in for the round that would unbalance a pair.
        a, b = table_machine(tables_a), table_machine(tables_b, "t")
        n = a.n_states
        sigs = isomorphism._profile(a)[2] + isomorphism._profile(b)[2]
        colours = isomorphism._colour_rounds(sigs, union_tables(a, b), n)
        assert max(colours) == n - 1 and not balanced(reference_equitable_partition(a, b), n)
        assert find_isomorphism(a, b, node_budget=0) is None
        assert brute_force_isomorphism(a, b) is None

    def test_answers_do_not_depend_on_the_hash(self, monkeypatch):
        # With every weight 0 no round adds a colour, and refinement does it all.
        expected = [
            brute_force_isomorphism(a, b) if a.n_states <= 6 else outcome(a, b)
            for a, b in colouring_pairs(37, 400)
        ]
        monkeypatch.setattr(isomorphism, "hash", lambda x: 0, raising=False)
        got = [outcome(a, b) for a, b in colouring_pairs(37, 400)]
        assert got == expected
        assert sum(x is None for x in got) >= 100 and sum(type(x) is tuple for x in got) >= 100

    def test_rounds_stop_at_the_cap(self, monkeypatch):
        # A path needs about n rounds; the cap leaves the rest to refinement.
        n = 4000
        a = table_machine([tuple(min(s + 1, n - 1) for s in range(n)), tuple(range(n))])
        b = relabelled(random.Random(38), a)
        hashed = []
        monkeypatch.setattr(isomorphism, "hash", lambda x: hashed.append(x) or hash(x), raising=False)
        mor = find_isomorphism(a, b)
        assert mor is not None and verify_morphism(a, b, mor)
        rounds = {x[0] for x in hashed if type(x[1]) is int}  # not the two keys' hashes
        assert len(rounds) == (2 * n).bit_length() == 13

    def test_a_discrete_colouring_costs_one_node_per_level(self, monkeypatch):
        rng = random.Random(39)
        a = table_machine(random_tables(rng, 12, 2))
        b = relabelled(rng, a)

        def fail(*args):
            raise AssertionError("refined a discrete colouring")

        monkeypatch.setattr(isomorphism, "_Partition", fail)
        with pytest.raises(SearchBudgetExceededError, match="deepest level 11 of 12"):
            find_isomorphism(a, b, node_budget=11)
        mor = find_isomorphism(a, b, node_budget=12)
        assert mor is not None and verify_morphism(a, b, mor)


def single_function_shape(rng, n):
    """One self-map on n states: random, into three hubs, cycles of one
    length (the rest fixed), a binary in-tree on a cycle, leaves hung on every
    q-th state of a cycle, constant, or the identity."""
    kind = rng.randrange(7)
    if kind == 0:
        return tuple(rng.randrange(n) for _ in range(n))
    if kind == 1:
        return tuple(rng.randrange(min(3, n)) for _ in range(n))
    if kind == 2:
        length = rng.randint(1, max(1, n // 3))
        return tuple(
            s - s % length + (s % length + 1) % length if s - s % length + length <= n else s
            for s in range(n)
        )
    if kind in (3, 4):
        length = rng.randint(1, min(3, n) if kind == 3 else n)
        cycle = tuple((s + 1) % length for s in range(length))
        q = rng.randint(1, 3)
        hang = (lambda s: (s - length) // 2) if kind == 3 else (lambda s: q * (s - length) % length)
        return cycle + tuple(hang(s) for s in range(length, n))
    if kind == 5:
        return (rng.randrange(n),) * n
    return tuple(range(n))


def relabelled_table(rng, table):
    return relabelled(rng, table_machine([table])).tables[0]


def single_function_pairs(seed, count, max_states):
    """Relabelled positives, perturbed negatives and unrelated pairs of
    ``single_function_shape`` maps.  A pair with exactly one identity map
    stays at 7 states or fewer, where brute force judges it."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(1, max_states)
        ta = single_function_shape(rng, n)
        tb = relabelled_table(rng, ta)
        if made % 3 == 1:
            tb = perturbed(rng, table_machine([tb])).tables[0]
        elif made % 3 == 2:
            tb = relabelled_table(rng, single_function_shape(rng, n))
        if tuple(range(n)) in (ta, tb) and ta != tb and n > 7:
            continue
        made += 1
        yield ta, tb


def least_witness_by_refinement(ta, tb):
    """g from the refinement search on ``with_identity``, or from brute force
    where a map is the identity and the added function would merge with it."""
    if tuple(range(len(ta))) in (ta, tb):
        found = brute_force_isomorphism(table_machine([ta]), table_machine([tb], "t"))
        return None if found is None else found[0]
    got = find_isomorphism(*with_identity([ta], [tb]))
    return None if got is None else got.g


def random_tape_spec(rng, policy):
    registers = tuple(f"q{i}" for i in range(rng.randint(2, 3)))
    symbols = ("0", "1")[: rng.randint(1, 2)]
    cells = rng.randint(1, 3)
    rules = {
        (r, s): (rng.choice(registers), rng.choice(symbols), rng.choice(list(Move)))
        for r in registers[:-1]
        for s in symbols
    }
    return TuringSpec(
        symbols=symbols,
        registers=registers,
        cells=cells,
        rules=rules,
        halting=frozenset(registers[-1:]),
        boundary_policy=policy,
        initial=TmConfiguration("q0", (symbols[0],) * cells, 0),
    )


class TestSingleFunction:
    """One-function pairs are decided from in-tree codes, with no search; the
    refinement search, run on the same pair with the identity added, judges
    each witness."""

    def test_witness_matches_the_refinement_search(self):
        positives = 0
        for ta, tb in single_function_pairs(41, 3000, 40):
            a, b = table_machine([ta]), table_machine([tb], "t")
            got = find_isomorphism(a, b)
            assert (None if got is None else got.g) == least_witness_by_refinement(ta, tb), (ta, tb)
            assert got is None or got.h == (0,)
            if len(ta) <= 7:
                assert (None if got is None else (got.g, got.h)) == brute_force_isomorphism(a, b)
            positives += got is not None
        assert positives >= 1000

    @pytest.mark.parametrize("policy", list(BoundaryPolicy))
    def test_compiled_tape_machines_match_the_refinement_search(self, policy):
        rng = random.Random(f"compiled {policy.value}")
        for _ in range(100):
            m, _ = compile_tm(random_tape_spec(rng, policy))
            b = relabelled(rng, m)
            got = find_isomorphism(m, b)
            assert got.g == least_witness_by_refinement(m.tables[0], b.tables[0])

    def test_no_candidate_fails_where_the_refinement_search_backtracks(self, monkeypatch):
        # With the identity added, 7 states take 9 nodes: two candidates fail.
        ta, tb = (0, 2, 1, 5, 3, 4, 0), (1, 5, 6, 3, 3, 0, 2)
        with pytest.raises(SearchBudgetExceededError):
            find_isomorphism(*with_identity([ta], [tb]), node_budget=8)
        assert find_isomorphism(*with_identity([ta], [tb]), node_budget=9) is not None

        def fail(*args):
            raise AssertionError("searched a one-function pair")

        monkeypatch.setattr(isomorphism, "_search", fail)
        a, b = table_machine([ta]), table_machine([tb], "t")
        got = find_isomorphism(a, b, node_budget=0)
        assert (got.g, got.h) == brute_force_isomorphism(a, b) == ((3, 2, 6, 0, 5, 1, 4), (0,))

    def test_periodic_cycles(self):
        # A 12-cycle with a leaf on every third state has period 3, so four
        # rotations map it onto itself; the least g is the identity, and a
        # relabelled copy gets the least of the four.
        ta = tuple((s + 1) % 12 for s in range(12)) + (0, 3, 6, 9)
        assert find_isomorphism(table_machine([ta]), table_machine([ta])).g == tuple(range(16))
        rng = random.Random(42)
        for _ in range(20):
            tb = relabelled_table(rng, ta)
            a, b = table_machine([ta]), table_machine([tb], "t")
            assert find_isomorphism(a, b).g == least_witness_by_refinement(ta, tb)
        # Leaves on states 0 and 3 only: no rotation but the identity.
        tc = ta[:12] + (0, 3, 0, 3)
        assert find_isomorphism(table_machine([ta]), table_machine([tc])) is None


class TestDecomposition:
    """``_function_profile``, the one decomposition of a self-map, against
    the definition on every map of at most 5 states."""

    def test_every_map_up_to_five_states(self):
        maps = 0
        for n in range(1, 6):
            for table in itertools.product(range(n), repeat=n):
                fingerprint, indeg, cyclic, peeled, rings = isomorphism._function_profile(table)
                assert (indeg, cyclic, rings) == brute_force_decomposition(table), table
                lengths = tuple(sorted(len(r) for r in rings))
                assert fingerprint == (len(set(table)), tuple(sorted(indeg)), lengths)
                # Each off-cycle state once, after all of its preimages.
                assert sorted(peeled) == [s for s in range(n) if not cyclic[s]]
                place = {s: i for i, s in enumerate(peeled)}
                assert all(place[t] < place[s] for t, s in enumerate(table) if s in place)
                maps += 1
        assert maps == 3413


def fingerprint_key(m):
    return m.__dict__.get("_fingerprint_key")


def image_key(m):
    return m.__dict__.get("_image_key")


# The keys each side holds before a call: every one of the 16 pairs, the
# four where only self-calls set keys under their original names.
KEY_STATES = ("none", "image", "fingerprint", "both")
KEY_PRESETS = {"neither": ("none", "none"), "a": ("both", "none"),
               "b": ("none", "both"), "both": ("both", "both")}
KEY_PRESETS.update({f"{x}-{y}": (x, y) for x, y in itertools.product(KEY_STATES, repeat=2)
                    if (x, y) not in KEY_PRESETS.values()})


def preset_keys(m, keys):
    """Leave m with no cached key, the image key, the fingerprint key or both."""
    if keys == "image":  # a machine one state larger is rejected by image key
        find_isomorphism(m, table_machine([tuple(range(m.n_states + 1))], "u"))
    elif keys in ("fingerprint", "both"):
        find_isomorphism(m, m)
        if keys == "fingerprint":
            del m.__dict__["_image_key"]
    assert (image_key(m) is None) == (keys in ("none", "fingerprint"))
    assert (fingerprint_key(m) is None) == (keys in ("none", "image"))


def key_cases(seed, count):
    """Table pairs on up to 4 states and 1-3 functions: relabelled
    positives, perturbed negatives and unrelated pairs."""
    rng = random.Random(seed)
    for trial in range(count):
        a = table_machine(random_tables(rng, rng.randint(1, 4), rng.randint(1, 3)))
        b = relabelled(rng, a)
        if trial % 3 == 1:
            b = perturbed(rng, b)
        elif trial % 3 == 2:
            b = table_machine(random_tables(rng, a.n_states, a.n_functions), "t")
        yield [f.table for f in a.functions], [f.table for f in b.functions]


KEY_PROGRAM = """
import ast, sys
from machalg import StateSet, TransitionFunction, find_isomorphism, make_machine
ss = StateSet(("x", "y", "z", "w"))
m = make_machine(ss, [TransitionFunction(ss, t) for t in ast.literal_eval(sys.argv[1])])
find_isomorphism(m, m)
print(m.__dict__["_fingerprint_key"], m.__dict__["_image_key"])
"""


class TestFingerprintKey:
    """Each machine caches a hash of its sorted function fingerprints and
    state signatures, and one of its image sizes; two unequal keys end a call
    at once.  A side with no key is profiled first, and a keyed side is
    profiled only when its key equals the new one.  Nothing else may change."""

    @pytest.mark.parametrize("keyed", sorted(KEY_PRESETS))
    def test_agrees_with_brute_force_whichever_keys_are_set(self, keyed):
        for tables_a, tables_b in key_cases(31, 240):
            a, b = table_machine(tables_a), table_machine(tables_b, "t")
            preset_keys(a, KEY_PRESETS[keyed][0])
            preset_keys(b, KEY_PRESETS[keyed][1])
            got = find_isomorphism(a, b)
            assert (None if got is None else (got.g, got.h)) == brute_force_isomorphism(a, b)

    def test_image_key_rejects_a_fresh_non_bijection_without_profiling(self, monkeypatch):
        # The bijection-closure pass: one keyed machine against fresh probes.
        ss = StateSet(("x", "y", "z"))
        bij = full_bijection_machine(ss)
        find_isomorphism(bij, bij)
        tables = sorted(itertools.product(range(3), repeat=3))

        def fail(table):
            raise AssertionError("profiled a machine the image key rejects")

        monkeypatch.setattr(isomorphism, "_function_profile", fail)
        for combo in itertools.islice(itertools.combinations(tables, bij.n_functions), 0, None, 97):
            probe = table_machine(list(combo), "p")
            if any(len(set(t)) < 3 for t in combo):
                assert find_isomorphism(bij, probe) is None
                assert find_isomorphism(probe, bij) is None
                assert fingerprint_key(probe) is None and image_key(probe) is not None

    def test_isomorphic_machines_get_equal_keys(self):
        for tables_a, tables_b in itertools.islice(key_cases(32, 300), 0, None, 3):
            a, b = table_machine(tables_a), table_machine(tables_b, "t")
            assert find_isomorphism(a, b) is not None
            assert fingerprint_key(a) == fingerprint_key(b) is not None

    def test_unequal_keys_decide_without_profiling(self, monkeypatch):
        a = table_machine([(1, 2, 0), (0, 0, 0)])  # a 3-cycle; image sizes 3, 1
        b = table_machine([(1, 0, 2), (0, 0, 0)])  # a 2-cycle and a fixed point
        find_isomorphism(a, a)
        find_isomorphism(b, b)
        assert fingerprint_key(a) != fingerprint_key(b)

        def fail(table):
            raise AssertionError("profiled a machine whose key was set")

        monkeypatch.setattr(isomorphism, "_function_profile", fail)
        assert find_isomorphism(a, b) is None and find_isomorphism(b, a) is None

    # Equal fingerprints (a constant map, and a map with image size 2 and one
    # fixed point), but the two functions fix the same state only in a.
    SAME_FINGERPRINTS = ([(0, 0, 0), (0, 0, 1)], [(0, 0, 0), (1, 1, 0)])

    def test_key_covers_state_signatures(self, monkeypatch):
        a, b = (table_machine(t) for t in self.SAME_FINGERPRINTS)
        find_isomorphism(a, a)
        find_isomorphism(b, b)
        assert fingerprint_key(a) != fingerprint_key(b)

        def fail(table):
            raise AssertionError("profiled a machine whose key was set")

        monkeypatch.setattr(isomorphism, "_function_profile", fail)
        assert find_isomorphism(a, b) is None and find_isomorphism(b, a) is None

    @pytest.mark.parametrize("keyed_side", ["a", "b"])
    def test_a_differing_keyed_side_is_not_profiled(self, monkeypatch, keyed_side):
        keyed, fresh = (table_machine(t) for t in self.SAME_FINGERPRINTS)
        find_isomorphism(keyed, keyed)
        monkeypatch.setattr(isomorphism, "_TINY", {})  # else a table seen before is not profiled again
        profiled = []
        real = isomorphism._function_profile
        monkeypatch.setattr(isomorphism, "_function_profile", lambda t: profiled.append(t) or real(t))
        pair = (keyed, fresh) if keyed_side == "a" else (fresh, keyed)
        assert find_isomorphism(*pair) is None
        assert profiled == [f.table for f in fresh.functions]
        assert fingerprint_key(fresh) not in (None, fingerprint_key(keyed))

    def test_a_differing_keyed_side_is_not_profiled_on_five_states(self, monkeypatch):
        # past the relabelling path of at most 4 states: the fresh side's
        # fixed point against the keyed side's 2-cycle, so its new key decides
        fresh, keyed = table_machine([(0, 0, 1, 2, 3)]), table_machine([(1, 0, 0, 2, 3)], "t")
        find_isomorphism(keyed, keyed)
        profiled = []
        real = isomorphism._function_profile
        monkeypatch.setattr(isomorphism, "_function_profile", lambda t: profiled.append(t) or real(t))
        assert find_isomorphism(fresh, keyed) is None
        assert profiled == [f.table for f in fresh.functions]
        assert fingerprint_key(fresh) not in (None, fingerprint_key(keyed))

    def test_equal_keys_are_no_proof(self):
        pairs = [self.SAME_FINGERPRINTS]
        pairs += [p for p in key_cases(33, 120) if brute_force_isomorphism(*map(table_machine, p)) is None]
        assert len(pairs) > 40
        for tables_a, tables_b in pairs:
            a, b = table_machine(tables_a), table_machine(tables_b, "t")
            a.__dict__["_fingerprint_key"] = b.__dict__["_fingerprint_key"] = 12345
            assert find_isomorphism(a, b) is None

    def test_image_size_rejection_sets_no_key(self):
        a = table_machine([(0, 1)])
        b = table_machine([(0, 0)])
        assert find_isomorphism(a, b) is None
        assert fingerprint_key(a) is None and fingerprint_key(b) is None

    def test_pickle_keeps_the_key(self):
        a = table_machine([(1, 2, 0), (0, 0, 1)])
        find_isomorphism(a, a)
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and fingerprint_key(copy) == fingerprint_key(a) is not None
        assert image_key(copy) == image_key(a) is not None
        assert find_isomorphism(copy, a) == find_isomorphism(a, a)

    def test_key_does_not_depend_on_the_hash_seed(self):
        tables = [(1, 2, 3, 0), (0, 0, 1, 1), (3, 3, 3, 3)]
        m = table_machine(tables)
        find_isomorphism(m, m)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        for seed in ("0", "1", "4242"):
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-c", KEY_PROGRAM, repr(tables)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == [str(fingerprint_key(m)), str(image_key(m))]


# The most candidates a search on n states can try: n + n(n-1) + ... + n!.
TINY_BOUND = {n: sum(math.perm(n, i) for i in range(1, n + 1)) for n in range(1, 5)}


def tiny_one_function_pairs():
    """Every self-map on 1-4 states against each of its relabellings: 6,315 pairs."""
    for n in TINY_BOUND:
        for ta in itertools.product(range(n), repeat=n):
            for g in itertools.permutations(range(n)):
                yield [ta], [conjugated_table(ta, g)]


def tiny_multi_function_pairs(seed, count):
    """2- and 3-function pairs on 2-4 states: relabelled positives, perturbed negatives."""
    rng = random.Random(seed)
    for trial in range(count):
        a = table_machine(random_tables(rng, rng.randint(2, 4), rng.randint(2, 3)))
        b = relabelled(rng, a)
        if trial % 2:
            b = perturbed(rng, b)
        yield [f.table for f in a.functions], [f.table for f in b.functions]


class TestRelabellings:
    """On at most 4 states, at a budget no search there can exhaust, the n! relabellings are
    tried in lexicographic order instead of searching: the same least g, and no node spent."""

    def test_the_bound_counts_every_partial_assignment(self):
        assert TINY_BOUND == {1: 1, 2: 4, 3: 15, 4: 64}
        assert isomorphism._TINY_NODES[1:] == tuple(TINY_BOUND.values())

    def test_every_tiny_one_function_pair_gets_the_oracle_witness(self):
        count = 0
        for tables_a, tables_b in tiny_one_function_pairs():
            a, b = table_machine(tables_a), table_machine(tables_b, "t")
            got = find_isomorphism(a, b)
            assert (got.g, got.h) == brute_force_isomorphism(a, b), tables_a
            count += 1
        assert count == 6315

    def test_seeded_multi_function_pairs_get_the_oracle_witness(self):
        answers = []
        for tables_a, tables_b in tiny_multi_function_pairs(44, 600):
            a, b = table_machine(tables_a), table_machine(tables_b, "t")
            got = find_isomorphism(a, b)
            answers.append(None if got is None else (got.g, got.h))
            assert answers[-1] == brute_force_isomorphism(a, b), (tables_a, tables_b)
        assert 150 < answers.count(None) <= 300  # the positives all answer

    def test_the_refinement_search_never_exhausts_the_bound(self):
        # What makes the two paths agree: at the bound, the search on the same pair ends
        # with the same least g, whatever the colouring does.
        pairs = [(table_machine(ta), table_machine(tb, "t")) for ta, tb in tiny_multi_function_pairs(45, 300)]
        pairs += [with_identity(ta, tb) for ta, tb in itertools.islice(tiny_one_function_pairs(), 0, None, 41)]
        pairs += [(full_machine(states(*"abc")), full_machine(states(*"xyz")))]
        searched = 0
        for a, b in pairs:
            pa, pb = isomorphism._profile(a), isomorphism._profile(b)
            if a.n_functions < 2 or pa[1] != pb[1]:
                continue
            got = isomorphism._multi_function_isomorphism(a, b, pa[2] + pb[2], TINY_BOUND[a.n_states])
            assert (None if got is None else (got.g, got.h)) == brute_force_isomorphism(a, b)
            searched += 1
        assert searched > 100

    def test_no_search_runs_at_or_above_the_bound(self, monkeypatch):
        def fail(*args):
            raise AssertionError("searched a pair on at most 4 states")

        for name in ("_search", "_single_function_isomorphism", "_multi_function_isomorphism"):
            monkeypatch.setattr(isomorphism, name, fail)
        pairs = [*itertools.islice(tiny_one_function_pairs(), 0, None, 7), *tiny_multi_function_pairs(46, 200)]
        for tables_a, tables_b in pairs:
            n = len(tables_a[0])
            for budget in (None, TINY_BOUND[n], TINY_BOUND[n] + 1):
                a, b = table_machine(tables_a), table_machine(tables_b, "t")
                got = find_isomorphism(a, b, node_budget=budget)
                assert (None if got is None else (got.g, got.h)) == brute_force_isomorphism(a, b)

    def test_below_the_bound_the_refinement_path_runs(self, monkeypatch):
        reached = []
        for name in ("_single_function_isomorphism", "_multi_function_isomorphism"):
            real = getattr(isomorphism, name)
            monkeypatch.setattr(isomorphism, name, lambda *args, real=real: reached.append(real) or real(*args))
        pairs = [*itertools.islice(tiny_one_function_pairs(), 0, None, 7),
                 *itertools.islice(tiny_multi_function_pairs(47, 200), 0, None, 2)]  # relabelled positives
        for tables_a, tables_b in pairs:
            a, b = table_machine(tables_a), table_machine(tables_b, "t")
            reached.clear()
            try:
                got = find_isomorphism(a, b, node_budget=TINY_BOUND[a.n_states] - 1)
            except SearchBudgetExceededError:
                pass
            else:
                assert (got.g, got.h) == brute_force_isomorphism(a, b)
            assert len(reached) == 1

    def test_both_sides_carry_the_fingerprint_key_after_a_tiny_call(self):
        keyed = 0
        pairs = [*itertools.islice(tiny_one_function_pairs(), 0, None, 5), *tiny_multi_function_pairs(48, 200)]
        for tables_a, tables_b in pairs:
            a, b = table_machine(tables_a), table_machine(tables_b, "t")
            find_isomorphism(a, b)
            if image_key(a) == image_key(b):  # past the image key: the tiny path ran
                assert fingerprint_key(a) is not None and fingerprint_key(b) is not None
                keyed += 1
            else:
                assert fingerprint_key(a) is None and fingerprint_key(b) is None
        assert keyed > 1000


def fresh_facts(table):
    """(profile, state codes, conjugates in relabelling order) of one table, from scratch."""
    indeg, cyclic, _ = brute_force_decomposition(table)
    codes = [4 * indeg[s] + 2 * (t == s) + cyclic[s] for s, t in enumerate(table)]
    assert isomorphism._state_signatures([codes]) == codes
    conjugates = [isomorphism._conjugate(table, g) for g in itertools.permutations(range(len(table)))]
    return isomorphism._function_profile(table), codes, conjugates


def assert_cache_holds_fresh_facts(cache):
    """Every entry of ``cache`` equals a fresh computation, and it holds only the plain tuple
    keys, at most 288 of them, each conjugate being the key object of its own entry."""
    assert len(cache) <= 288
    for key, (table, facts, conjugates) in cache.items():
        assert type(key) is tuple and table is key
        profile, codes, fresh = fresh_facts(key)
        if facts is not None:
            assert facts == (profile, codes), key
        if conjugates is not None:
            assert type(conjugates) is tuple and list(conjugates) == fresh, key
            assert all(type(c) is tuple and c is cache[c][0] for c in conjugates)


class TestTinyCache:
    """What depends on one table alone, for the 288 self-maps on at most 4 states, is worked
    out once per process: the profile, the state codes and the conjugates."""

    def test_every_table_on_at_most_four_states(self, monkeypatch):
        monkeypatch.setattr(isomorphism, "_TINY", {})
        tables = [t for n in range(1, 5) for t in itertools.product(range(n), repeat=n)]
        for table in tables:
            profile, codes, conjugates = fresh_facts(table)
            assert isomorphism._tiny(table, 1) == (profile, codes), table
            assert list(isomorphism._tiny(table, 2)) == conjugates, table
        assert len(tables) == len(isomorphism._TINY) == 288
        assert_cache_holds_fresh_facts(isomorphism._TINY)

    def test_no_call_mutates_a_cached_fact(self, monkeypatch):
        monkeypatch.setattr(isomorphism, "_TINY", {})
        rng, calls = random.Random(49), 0
        while calls < 2000:
            n = rng.randint(1, 4)
            a = table_machine(random_tables(rng, n, rng.randint(1, min(3, n**n))))
            b = relabelled(rng, a)
            if calls % 2:
                b = perturbed(rng, b)
            for budget in (None, 0, TINY_BOUND[n]):
                fresh_a, fresh_b = table_machine([f.table for f in a.functions]), table_machine(
                    [f.table for f in b.functions], "t")
                try:
                    got = find_isomorphism(fresh_a, fresh_b, node_budget=budget)
                except SearchBudgetExceededError:
                    assert budget == 0
                else:
                    assert (None if got is None else (got.g, got.h)) == brute_force_isomorphism(a, b)
                calls += 1
        assert len(isomorphism._TINY) > 250
        assert_cache_holds_fresh_facts(isomorphism._TINY)

    def test_a_compiled_step_table_is_neither_a_key_nor_kept(self, monkeypatch):
        import gc
        import weakref

        monkeypatch.setattr(isomorphism, "_TINY", {})
        spec = parse_turing((Path(__file__).resolve().parent.parent / "samples" / "bitflip.tm").read_text())
        m = compile_tm(spec)[0]
        assert m.n_states == 4 and type(m.tables[0]) is not tuple
        copy = table_machine([conjugated_table(tuple(m.tables[0]), (2, 0, 3, 1))], "t")
        assert find_isomorphism(m, copy) is not None and find_isomorphism(copy, m) is not None
        assert isomorphism._TINY[m.tables[0]][2] is not None  # its conjugates were read
        assert_cache_holds_fresh_facts(isomorphism._TINY)
        step_table = weakref.ref(m.tables[0])
        del m
        gc.collect()
        assert step_table() is None


def constantish(ss):
    return fn_from_map(ss, {lab: ss.labels[0] for lab in ss.labels}, "k0")


class TestIsComplete:
    def test_full_container_always_complete(self):
        rng = random.Random(15)
        big = full_machine(StateSet(("x", "y", "z")))
        for _ in range(25):
            m = random_machine(rng, max_states=3, max_functions=5)
            witness = is_complete(big, m)
            assert witness is not None
            assert verify_completeness(big, m, witness)

    @pytest.mark.parametrize("method", ["auto", "construct", "search"])
    def test_bigger_probe_is_incomplete(self, method):
        small = full_machine(StateSet(("x", "y")))
        ss = states("0", "1", "2")
        probe = make_machine(ss, [identity_fn(ss)])
        assert is_complete(small, probe, method=method) is None

    def test_unknown_method_rejected(self):
        ss = states("a")
        m = make_machine(ss, [identity_fn(ss)])
        with pytest.raises(ValueError) as e:
            is_complete(m, m, method="bogus")
        assert type(e.value) is ValueError and str(e.value) == "unknown method 'bogus'"

    @pytest.mark.parametrize("method", ["auto", "construct", "search"])
    def test_negative_budget_rejected_before_any_work(self, method):
        ss = states("0", "1", "2")
        probe = make_machine(ss, [identity_fn(ss)])
        small = full_machine(StateSet(("x", "y")))  # too small: any work would answer None
        with pytest.raises(MachalgError, match="^node_budget must be at least 0, got -3$"):
            is_complete(small, probe, method=method, node_budget=-3)

    def test_construct_demands_full_container(self):
        ss = states("x", "y", "z")
        thin = make_machine(ss, [identity_fn(ss)])
        one = states("0")
        probe = make_machine(one, [identity_fn(one)])
        with pytest.raises(IncompatibleShapesError):
            is_complete(thin, probe, method="construct")

    def test_negation_keeps_conjugated_table(self):
        ss = states("0", "1")
        probe = make_machine(ss, [fn_from_map(ss, {"0": "1", "1": "0"}, "neg")])
        big = full_machine(StateSet(("x", "y", "z")))
        witness = is_complete(big, probe, method="construct")
        sub = witness.reductions[1].result
        assert sub.states.labels == ("x", "y")
        assert [f.table for f in sub.functions] == [(1, 0)]
        kept = [big.functions[i].table for i in witness.reductions[0].kept_functions]
        assert kept == [(1, 0, 2)]  # identity extension off the image
        assert verify_completeness(big, probe, witness)

    def test_full_container_costs_only_the_kept_functions(self):
        # Construct and verify look up the kept functions by arithmetic and
        # bisection, so they allocate nothing that grows with the 46,656
        # functions of the container.
        big = full_machine(StateSet(tuple(f"s{i}" for i in range(6))))
        probe = random_machine(random.Random(3), max_states=5, max_functions=6)
        tracemalloc.start()
        try:
            witness = is_complete(big, probe, method="construct")
            assert verify_completeness(big, probe, witness)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, f"tracemalloc peak {peak} bytes"

    def test_search_agrees_with_construct(self):
        rng = random.Random(18)
        big = full_machine(StateSet(("x", "y", "z")))
        for _ in range(10):
            m = random_machine(rng, max_states=2, max_functions=3)
            built = is_complete(big, m, method="construct")
            found = is_complete(big, m, method="search")
            assert built is not None and found is not None
            assert verify_completeness(big, m, built)
            assert verify_completeness(big, m, found)

    def test_constant_probe_not_in_switch(self):
        ss = states("0", "1")
        switch = make_machine(
            ss, [identity_fn(ss), fn_from_map(ss, {"0": "1", "1": "0"}, "neg")]
        )
        probe = make_machine(ss, [constantish(ss)])
        assert is_complete(switch, probe) is None

    def test_search_finds_non_full_containers(self):
        ss = states("p", "q", "r")
        rot = fn_from_map(ss, {"p": "q", "q": "r", "r": "p"}, "rot")
        container = make_machine(ss, [identity_fn(ss), rot])
        probe_ss = states("0", "1", "2")
        probe = make_machine(
            probe_ss,
            [fn_from_map(probe_ss, {"0": "1", "1": "2", "2": "0"}, "step")],
        )
        witness = is_complete(container, probe, method="search")
        assert witness is not None
        assert verify_completeness(container, probe, witness)

    def test_search_witness_matches_oracle(self):
        # containers with a planted preserved subset; the search must pick
        # the same subset and the same g as plain enumeration
        rng = random.Random(19)
        found = 0
        for _ in range(80):
            n_a = rng.randint(3, 5)
            n_b = rng.randint(1, n_a - 1)
            subset = rng.sample(range(n_a), n_b)
            tables = random_tables(rng, n_a, rng.randint(2, 7))
            for t in tables[: len(tables) // 2]:
                for s in subset:
                    t = t[:s] + (rng.choice(subset),) + t[s + 1 :]
                tables.append(t)
            a = table_machine(tables)
            if rng.random() < 0.5:
                inside = [f for f in a.functions if all(f.table[s] in subset for s in subset)]
                pos = {s: p for p, s in enumerate(sorted(subset))}
                picks = rng.sample(inside, min(2, len(inside)))
                b = relabelled(rng, table_machine(
                    [tuple(pos[f.table[s]] for s in sorted(subset)) for f in picks], "t"
                ))
            else:
                b = table_machine(random_tables(rng, n_b, rng.randint(1, 2)), "t")
            w = is_complete(a, b, method="search")
            expected = brute_force_embedding(a, b)
            if w is None:
                assert expected is None
                continue
            found += 1
            assert verify_completeness(a, b, w)
            kept = tuple(a.states.index(label) for label in w.reductions[1].kept_states)
            assert (kept, w.morphism.g) == expected
        assert found >= 30

    def test_search_matches_oracle_on_seeded_questions(self):
        # 1-8 functions on at most 5 states; b is a relabelled restriction of
        # a, one table of it redrawn a third of the time, or a fresh draw.
        rng = random.Random(24)
        answers = []
        for _ in range(300):
            n_a = rng.randint(2, 5)
            a = table_machine(random_tables(rng, n_a, rng.randint(1, 8)))
            n_b = rng.randint(1, n_a)
            subset = sorted(rng.sample(range(n_a), n_b))
            pos = {s: p for p, s in enumerate(subset)}
            inside = [t for t in a.tables if all(t[s] in pos for s in subset)]
            if inside and rng.random() < 0.7:
                tables = [tuple(pos[t[s]] for s in subset) for t in inside]
                tables = rng.sample(tables, rng.randint(1, len(tables)))
                if rng.random() < 0.3:
                    tables[0] = tuple(rng.randrange(n_b) for _ in range(n_b))
                b = relabelled(rng, table_machine(tables, "t"))
            else:
                b = table_machine(random_tables(rng, n_b, rng.randint(1, 3)), "t")
            w = is_complete(a, b, method="search")
            expected = brute_force_embedding(a, b)
            answers.append(w is not None)
            if w is None:
                assert expected is None
                continue
            assert verify_completeness(a, b, w)
            kept = tuple(a.states.index(label) for label in w.reductions[1].kept_states)
            assert (kept, w.morphism.g) == expected
        assert answers.count(True) > 100 and answers.count(False) > 50

    def test_search_budget_error_reports_depth(self):
        ss = states("p", "q", "r")
        rot = fn_from_map(ss, {"p": "q", "q": "r", "r": "p"}, "rot")
        container = make_machine(ss, [identity_fn(ss), rot])
        probe_ss = states("0", "1", "2")
        probe = make_machine(
            probe_ss, [fn_from_map(probe_ss, {"0": "1", "1": "2", "2": "0"}, "step")]
        )
        with pytest.raises(SearchBudgetExceededError) as err:
            is_complete(container, probe, method="search", node_budget=1)
        assert "budget of 1" in str(err.value)
        assert (err.value.depth, err.value.n) == (1, 3)

    def test_tampered_witness_rejected(self):
        big = full_machine(StateSet(("x", "y", "z")))
        probe_ss = states("0", "1")
        probe = make_machine(
            probe_ss,
            [fn_from_map(probe_ss, {"0": "1", "1": "0"}, "neg"), constantish(probe_ss)],
        )
        witness = is_complete(big, probe)
        assert verify_completeness(big, probe, witness)
        bad = Morphism(witness.morphism.g, tuple(reversed(witness.morphism.h)))
        tampered = type(witness)(witness.reductions, bad)
        assert not verify_completeness(big, probe, tampered)

    def test_function_domain_guards(self):
        ss = states("0", "1")
        with pytest.raises(TotalityViolationError):
            fn_from_map(ss, {"0": "1"}, "partial")
        neg = fn_from_map(ss, {"0": "1", "1": "0"}, "neg")
        with pytest.raises(DomainMismatchError):
            neg("z")


class TestConstructFullEmbedding:
    # is_complete(method="construct") on a full container.
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kept_functions_are_the_identity_extensions(self, n):
        # The kept index is found by arithmetic; check it against the tables.
        rng = random.Random(n)
        big = full_machine(StateSet(tuple(f"s{i}" for i in range(n))))
        for _ in range(30):
            probe = random_machine(rng, max_states=n, max_functions=4)
            witness = is_complete(big, probe, method="construct")
            extensions = {f.table + tuple(range(probe.n_states, n)) for f in probe.functions}
            kept = witness.reductions[0].kept_functions
            assert {big.functions[i].table for i in kept} == extensions
            assert witness.reductions[1].result.states.labels == big.states.labels[: probe.n_states]
            assert witness.morphism.g == tuple(range(probe.n_states))
            assert verify_completeness(big, probe, witness)

    @pytest.mark.parametrize("n, method", [(n, "construct") for n in range(1, 7)]
                             + [(3, "search"), (3, "auto")])
    def test_certificates_match_the_enumerated_container(self, n, method):
        # The implicit container answers byte for byte as the listing does.
        rng = random.Random(100 + n)
        labels = tuple(f"s{i}" for i in range(n))
        implicit, listed = full_machine(StateSet(labels)), enumerated_full_machine(StateSet(labels))
        for _ in range(20):
            probe = random_machine(rng, max_states=n, max_functions=4)
            texts = [certificate_text(is_complete(a, probe, method=method)) for a in (implicit, listed)]
            assert texts[0] == texts[1]

    def test_past_the_enumeration_cap(self):
        big = full_machine(StateSet(tuple(f"s{i}" for i in range(8))))
        probe = random_machine(random.Random(8), max_states=6, max_functions=5)
        witness = is_complete(big, probe, method="construct")
        assert verify_completeness(big, probe, witness)
        cert = parse_certificate(certificate_text(witness))
        assert verify(cert, big, probe) == (True, "")


def certificate_text(w) -> str:
    fr, sr = w.reductions
    return render_certificate(
        Certificate("complete", w.morphism.g, w.morphism.h, fr.kept_functions, sr.kept_states)
    )


class TestVerify:
    """Every rejection of ``verify`` and ``verify_completeness``, each by one
    planted fault that only its own check catches."""

    SWITCH = Path(__file__).resolve().parent.parent / "samples" / "switch.mx"

    @pytest.fixture
    def case(self):
        big = full_machine(StateSet(("x", "y", "z")))
        ss = states("0", "1")
        probe = make_machine(ss, [fn_from_map(ss, {"0": "1", "1": "0"}, "neg"), constantish(ss)])
        witness = is_complete(big, probe, method="search")
        assert verify_completeness(big, probe, witness)
        return big, probe, witness

    @staticmethod
    def replaced(w, fr=None, sr=None):
        return CompletenessWitness((fr or w.reductions[0], sr or w.reductions[1]), w.morphism)

    def test_wrong_reduction_kinds(self, case):
        big, probe, w = case
        fr, sr = w.reductions
        # Each mislabelled step still replays and chains: only the kind test sees it.
        as_state = dataclasses.replace(fr, kind="state", kept_states=sr.kept_states)
        as_functional = dataclasses.replace(sr, kind="functional", kept_functions=fr.kept_functions)
        assert verify_completeness(big, probe, self.replaced(w, fr=as_state)) is False
        assert verify_completeness(big, probe, self.replaced(w, sr=as_functional)) is False

    def test_foreign_source(self, case):
        big, probe, w = case
        other = full_machine(StateSet(("x", "y")))
        fr = dataclasses.replace(w.reductions[0], source=other)
        assert verify_completeness(big, probe, self.replaced(w, fr=fr)) is False

    def test_broken_chain(self, case):
        big, probe, w = case
        sr = dataclasses.replace(w.reductions[1], source=big)
        assert verify_completeness(big, probe, self.replaced(w, sr=sr)) is False

    @pytest.mark.parametrize("field, value", [
        ("kept_functions", (10**6,)),  # IndexError
        ("kept_functions", ("0", "1")),  # TypeError: not an integer
        ("kept_states", ("w",)),  # InvalidReductionError
    ])
    def test_replay_that_raises(self, case, field, value):
        big, probe, w = case
        i = 0 if field == "kept_functions" else 1
        steps = list(w.reductions)
        steps[i] = dataclasses.replace(steps[i], **{field: value})
        assert verify_completeness(big, probe, self.replaced(w, *steps)) is False

    def test_recorded_results_must_equal_the_replay(self, case):
        big, probe, w = case
        fr, sr = w.reductions
        # The kept lists are right, so the certificate alone still verifies.
        wrong_sr = dataclasses.replace(sr, result=probe)
        assert verify_completeness(big, probe, self.replaced(w, sr=wrong_sr)) is False
        wrong_fr = dataclasses.replace(fr, result=probe)
        chained_sr = dataclasses.replace(sr, source=probe)
        assert verify_completeness(big, probe, self.replaced(w, wrong_fr, chained_sr)) is False

    def test_replay_of_the_wrong_shape(self, case):
        big, probe, w = case
        three = full_machine(StateSet(("0", "1", "2")))
        fr, sr = w.reductions
        cert = Certificate("complete", w.morphism.g, w.morphism.h, fr.kept_functions, sr.kept_states)
        assert verify(cert, big, three) == (False, "the reductions or the morphism do not check out")
        assert verify_completeness(big, three, w) is False

    def test_witness_replays_once(self, case, monkeypatch):
        big, probe, w = case
        calls = []

        def counted(*args):
            calls.append(args)
            return sub_machine(*args)

        monkeypatch.setattr(isomorphism, "sub_machine", counted)
        assert verify_completeness(big, probe, w) and len(calls) == 1

    def test_index_past_the_digit_limit(self):
        # 1500**1500 functions: their count has more digits than Python writes as text
        big = full_machine(StateSet(tuple(f"s{i}" for i in range(1500))))
        hold = table_machine([(0,)])
        cert = Certificate("complete", (0,), (0,), (1500**1500,), ("s0",))
        assert verify(cert, big, hold) == (False, "an index in the certificate is out of range")

    def test_accepts_each_kind(self):
        m = parse_machine(self.SWITCH.read_text())
        everything = dict(kept_functions=(0, 1), kept_states=("off", "on"))
        for cert in (
            Certificate("iso", g=(0, 1), h=(0, 1)),
            Certificate("complete", g=(0, 1), h=(0, 1), **everything),
            Certificate("submachine", **everything),
        ):
            assert verify(cert, m, m) == (True, "")

    @pytest.mark.parametrize("cert, b, reason", [
        (Certificate("divides", kept_functions=(0, 1), kept_states=("off", "on")), "switch",
         "unknown certificate kind 'divides'"),
        (Certificate("iso", g=(0, 1), h=(1, 0)), "switch",
         "the mapping does not commute with every function"),
        (Certificate("iso", g=(0,), h=(0,)), "hold",
         "cannot compare a 2-state/2-function machine with a 1-state/1-function one"),
        (Certificate("complete", g=(0, 1), h=(1, 0), kept_functions=(0, 1),
                     kept_states=("off", "on")), "switch",
         "the reductions or the morphism do not check out"),
        (Certificate("submachine", kept_functions=(0, 2), kept_states=("off",)), "hold",
         "an index in the certificate is out of range"),
        (Certificate("submachine", kept_functions=(0,), kept_states=("off", "dim")), "hold",
         "states not in the machine: ['dim']"),
        (Certificate("submachine", kept_functions=(0, 1), kept_states=("on", "off")), "switch",
         "the reduced state set differs from the target"),
        (Certificate("submachine", kept_functions=(0,), kept_states=("off", "on")), "switch",
         "the reduced function set differs from the target"),
        (Certificate("complete", (0, 1), (0, 1), ("0", "1"), ("off", "on")), "switch",
         "g, h and kept_functions must be sequences of integers, kept_states a sequence"),
        (Certificate("iso", (0, "1"), (0, 1)), "switch",
         "g, h and kept_functions must be sequences of integers, kept_states a sequence"),
        (Certificate("submachine", kept_functions=(-1, 0), kept_states=("off", "on")), "switch",
         "an index in the certificate is out of range"),
        (Certificate("submachine", kept_functions=(True, False), kept_states=("off", "on")),
         "switch", "g, h and kept_functions must be sequences of integers, kept_states a sequence"),
    ], ids=["unknown-kind", "iso-commute", "iso-shape", "complete-morphism", "index",
            "foreign-state", "state-set", "function-set", "string-index", "string-state-map",
            "negative-index", "bool-index"])
    def test_rejections(self, cert, b, reason):
        switch = parse_machine(self.SWITCH.read_text())
        target = {"switch": switch, "hold": state_reduction(switch, ["off"]).result}[b]
        assert verify(cert, switch, target) == (False, reason)


def drawn(rng, n, k, prefix="s"):
    """n states, at most k tables; half the time named, with named functions."""
    m = table_machine(random_tables(rng, n, k), prefix)
    if rng.random() < 0.5:
        names = rng.sample([f"g{j}" for j in range(3 * m.n_functions)], m.n_functions)
        m = dataclasses.replace(m, name=f"m{rng.randrange(100)}", function_names=tuple(names))
    return m


def kept_sub_machine(rng, a):
    """A random sub-machine of ``a``, or None where the keeps leave no function."""
    labels = rng.sample(a.states.labels, rng.randint(1, a.n_states))
    keep = rng.sample(range(a.n_functions), rng.randint(1, min(a.n_functions, 4)))
    try:
        return sub_machine(a, keep, labels)[1].result
    except EmptyReductionError:
        return None


def full(n, prefix="s"):
    return full_machine(StateSet(tuple(f"{prefix}{i}" for i in range(n))))


def certificate_cases(rng):
    """(kind, a, b, fields, limits): one certificate from find_isomorphism, each
    is_complete path and is_sub_machine, on machines of 2-5 states and 1-4
    functions, named or not, with ``functions all`` containers among them.
    ``limits`` bound the indices a mutant draws for each numeric field."""
    n = rng.randint(2, 5)
    a = drawn(rng, n, rng.randint(1, 4)) if rng.random() < 0.8 else full(rng.randint(2, 3))
    b = relabelled(rng, a) if isinstance(a.tables, tuple) else full(a.n_states, "t")
    mor = find_isomorphism(a, b)
    yield "iso", a, b, dict(g=mor.g, h=mor.h), dict(g=a.n_states, h=a.n_functions)
    questions = [(full(n), drawn(rng, rng.randint(1, n), rng.randint(1, 4), "t"), "construct")]
    a = drawn(rng, n, rng.randint(1, 4))
    b = kept_sub_machine(rng, a)
    if b is not None:
        questions.append((a, relabelled(rng, b), "search"))
    if n <= 3:
        questions.append((full(n), drawn(rng, rng.randint(1, n), rng.randint(1, 3), "t"), "search"))
    for a, b, method in questions:
        w = is_complete(a, b, method=method)
        fr, sr = w.reductions
        fields = dict(g=w.morphism.g, h=w.morphism.h, kept_functions=fr.kept_functions,
                      kept_states=sr.kept_states)
        limits = dict(g=b.n_states, h=b.n_functions, kept_functions=a.n_functions)
        yield "complete", a, b, fields, limits
    a = drawn(rng, n, rng.randint(1, 4))
    b = kept_sub_machine(rng, a)
    if b is not None:
        fr, sr = is_sub_machine(a, b)
        fields = dict(kept_functions=fr.kept_functions, kept_states=sr.kept_states)
        yield "submachine", a, b, fields, dict(kept_functions=a.n_functions)


class TestVerifyAgainstReference:
    def test_mutated_certificates(self):
        # verify's verdict on every mutant equals the definitional checker's
        rng = random.Random(32)
        tally = {(kind, ok): 0 for kind in ("iso", "complete", "submachine") for ok in (True, False)}
        for _ in range(60):
            for kind, a, b, fields, limits in certificate_cases(rng):
                labels = list(a.states.labels)
                for i in range(41):
                    mutant = mutated_fields(rng, kind, fields, labels, limits) if i else fields
                    ok = reference_verify(kind, a, b, mutant)
                    assert verify(Certificate(kind, **mutant), a, b)[0] is ok, (kind, a, b, mutant)
                    tally[kind, ok] += 1
        accepted, total = sum(n for (_, ok), n in tally.items() if ok), sum(tally.values())
        assert min(tally.values()) >= 100 and total / 10 < accepted < total * 0.9, tally


class TestWitnessAssembly:
    """is_complete builds its witness from what it found: the pair a replay
    of its keeps gives, and no label of the container is looked up."""

    def test_witness_is_the_replay(self):
        rng = random.Random(33)
        tally = {"named search": 0, "full construct": 0, "full search": 0}
        for i in range(400):
            n = rng.randint(1, 5)
            if i % 2:  # a relabelled sub-machine of a listed container, named or not
                a = drawn(rng, n, rng.randint(1, 6))
                b, method, kind = kept_sub_machine(rng, a), "search", "named search"
                if b is None:
                    continue
                b = relabelled(rng, b)
            else:  # a functions all container, on the construct path or the search path
                method = "construct" if n > 3 or rng.random() < 0.5 else "search"
                a, kind = full(n), f"full {method}"
                b = drawn(rng, rng.randint(1, n), rng.randint(1, 4), "t")
            w = is_complete(a, b, method=method)
            fr, sr = w.reductions
            replay = sub_machine(a, fr.kept_functions, sr.kept_states)
            for got, want in zip(w.reductions, replay):
                assert got == want
                for m, r in ((got.source, want.source), (got.result, want.result)):
                    assert (m.name, m.function_names) == (r.name, r.function_names)
            assert verify_completeness(a, b, w)
            tally[kind] += 1
        assert sum(tally.values()) >= 300 and min(tally.values()) >= 40, tally

    @pytest.mark.parametrize("method", ["search", "construct"])
    def test_compiled_container_is_not_listed(self, method):
        m, _ = compile_tm(tape_spec(2, cells=4))  # 128 states, labels decoded on demand
        ss = states("x", "y")
        if method == "search":  # a 2-cycle: where the head is clamped on the last cell
            a, b = m, make_machine(ss, [fn_from_map(ss, {"x": "y", "y": "x"})])
        else:
            a, b = full_machine(m.states), m
        assert "_listing" not in m.states.labels.__dict__
        w = is_complete(a, b, method=method)
        assert w is not None
        assert "_listing" not in m.states.labels.__dict__
        assert "_positions" not in m.states.__dict__
        assert verify_completeness(a, b, w)


class TestSearchScale:
    def test_relabelled_random_self_map_on_1000_states(self):
        rng = random.Random(30)
        a = table_machine(random_tables(rng, 1000, 1))
        b = relabelled(rng, a)
        mor = find_isomorphism(a, b, node_budget=2 * 1000)
        assert mor is not None and verify_morphism(a, b, mor)

    def test_two_function_machine_on_400_states(self):
        rng = random.Random(31)
        a = table_machine(random_tables(rng, 400, 2))
        b = relabelled(rng, a)
        mor = find_isomorphism(a, b, node_budget=2 * 400)
        assert mor is not None and verify_morphism(a, b, mor)
        assert find_isomorphism(a, perturbed(rng, b), node_budget=2 * 400) is None

    def test_compiled_tape_machine_self_isomorphism_is_not_recursive(self):
        # 3 registers, 2 symbols, 6 cells: 1152 states, deeper than the
        # interpreter's default recursion limit
        rng = random.Random(32)
        registers, symbols = ("q0", "q1", "q2"), ("0", "1")
        rules = {
            (r, s): (rng.choice(registers), rng.choice(symbols), rng.choice(list(Move)))
            for r in registers[:2]
            for s in symbols
        }
        spec = TuringSpec(
            symbols=symbols,
            registers=registers,
            cells=6,
            rules=rules,
            halting=frozenset({"q2"}),
            boundary_policy=BoundaryPolicy.CLAMP,
            initial=TmConfiguration("q0", ("0",) * 6, 0),
        )
        m, _ = compile_tm(spec)
        assert m.n_states == 1152
        mor = find_isomorphism(m, m, node_budget=2 * 1152)
        assert mor.g == tuple(range(1152))


class TestEmbeddingCensus:
    def test_every_two_state_machine_embeds_in_full_three(self):
        # exhaustive over single-function probes on two states
        big = full_machine(StateSet(("x", "y", "z")))
        ss = states("0", "1")
        for table in itertools.product(range(2), repeat=2):
            f = fn_from_map(
                ss, {ss.labels[i]: ss.labels[table[i]] for i in range(2)}, "f"
            )
            probe = make_machine(ss, [f])
            witness = is_complete(big, probe)
            assert witness is not None
            assert verify_completeness(big, probe, witness)

    def test_reduce_then_embed_round_trip(self):
        big = full_machine(StateSet(("x", "y", "z")))
        sub = state_reduction(big, ("x", "y")).result
        witness = is_complete(big, sub)
        assert witness is not None
        assert verify_completeness(big, sub, witness)


class TestClassCensus:
    """Every machine on a small state set, classified pairwise against the
    class representatives found so far, each witness re-checked."""

    @pytest.mark.parametrize("n, k, classes", [
        (3, 1, 7),  # OEIS A001372, self-maps up to conjugation
        (4, 1, 19),  # OEIS A001372
        (3, 2, 67),
        (3, 3, 509),
    ])
    def test_class_counts(self, n, k, classes):
        ss = StateSet(tuple(f"s{i}" for i in range(n)))
        reps = []
        for combo in itertools.combinations(sorted(itertools.product(range(n), repeat=n)), k):
            m = Machine(ss, combo)
            for r in reps:
                witness = find_isomorphism(r, m)
                if witness is not None:
                    assert verify_morphism(r, m, witness)
                    break
            else:
                reps.append(m)
        assert len(reps) == classes
