#!/usr/bin/env python3
"""Census of machines on small state sets.

Counts isomorphism classes by function count, measures how often the
nested state-reduction law fails on random draws, and checks the
bijection-closure obstruction exhaustively.  Everything is seeded.
"""

import argparse
import itertools
import math
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from machalg import (
    Machine,
    StateSet,
    find_isomorphism,
    full_bijection_machine,
)
from machalg.lemmas import run_lemma_suite


def unrank_combination(rank: int, n: int, k: int) -> list[int]:
    """The k-subset of range(n) at ``rank`` in itertools.combinations order."""
    chosen, x = [], 0
    for slots in range(k, 0, -1):
        while rank >= (below := math.comb(n - x - 1, slots - 1)):  # subsets that skip x
            rank -= below
            x += 1
        chosen.append(x)
        x += 1
    return chosen


def iso_classes(n_states: int, n_functions: int, sample_cap: int, rng) -> tuple[int, int, bool]:
    """(machines, classes, sampled) for |S|=n_states and exactly n_functions
    maps; a sampled cell counts only sample_cap machines, drawn by rank
    without listing the cell, so its classes are a lower bound."""
    ss = StateSet(tuple(f"s{i}" for i in range(n_states)))
    tables = sorted(itertools.product(range(n_states), repeat=n_states))
    total = math.comb(len(tables), n_functions)
    sampled = total > sample_cap
    ranks = rng.sample(range(total), sample_cap) if sampled else range(total)
    reps: list[Machine] = []
    for rank in ranks:
        m = Machine(ss, [tables[i] for i in unrank_combination(rank, len(tables), n_functions)])
        if not any(find_isomorphism(r, m) for r in reps):
            reps.append(m)
    return len(ranks), len(reps), sampled


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-states", type=int, default=3)
    ap.add_argument("--max-fns", type=int, default=3)
    ap.add_argument("--sample-cap", type=int, default=3000,
                    help="per cell, sample when the raw count exceeds this")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--law-iters", type=int, default=2000)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    print("isomorphism classes (machines counted / classes found; + marks a sampled"
          " cell, whose class count is a lower bound):")
    for n in range(1, args.max_states + 1):
        row = []
        for k in range(1, args.max_fns + 1):
            if k > n**n:
                row.append("-")
                continue
            total, classes, sampled = iso_classes(n, k, args.sample_cap, rng)
            row.append(f"{total}/{classes}" + "+" * sampled)
        print(f"  |S|={n}: " + "  ".join(f"k={k}: {cell}"
              for k, cell in enumerate(row, start=1)))

    print()
    print(f"reduction-law suite (seed {args.seed}, {args.law_iters} draws):")
    report = run_lemma_suite(seed=args.seed, iterations=args.law_iters)
    for lemma in (1, 2, 3):
        bad = report.violations_for(lemma)
        checked = report.checked_for(lemma)
        rate = f"{len(bad) / checked:.2%}" if checked else "n/a"
        print(f"  law {lemma}: {checked} checked, {len(bad)} violations ({rate})")
    if report.violations:
        v = report.violations[0]
        print(f"  first counterexample (law {v.lemma}): {v.description}")

    print()
    print("bijection-closure obstruction, exhaustive:")
    for n in (2, 3):
        ss = StateSet(tuple(f"s{i}" for i in range(n)))
        bij = full_bijection_machine(ss)
        tables = sorted(itertools.product(range(n), repeat=n))
        t0 = time.perf_counter()
        tried = rejected = 0
        for combo in itertools.combinations(tables, bij.n_functions):
            if all(len(set(t)) == n for t in combo):
                continue
            m = Machine(ss, combo)
            tried += 1
            if find_isomorphism(bij, m) is None:
                rejected += 1
        dt = time.perf_counter() - t0
        print(f"  |S|={n}: {rejected}/{tried} probes rejected in {dt:.2f}s")
        if rejected != tried:
            print("  UNEXPECTED: some probe matched the bijection machine")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
