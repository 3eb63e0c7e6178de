"""Growth guard: label lookups keep reductions and text round trips linear.

Each operation is timed on a single-function machine with 2048 states and
on one with 16384 states, the minimum of three repeats per size.  Eight
times the states should cost about eight times as much; a quadratic path
costs about 64 times as much.  The bound of 24 sits between the two.
"""

import time

import pytest

from machalg import (
    StateSet,
    TransitionFunction,
    make_machine,
    parse_machine,
    render_machine,
    state_reduction,
)

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
