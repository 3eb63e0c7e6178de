"""Harness shared by the workloads: the layer table, spans, the timed loop.

Every call the benchmark makes into machalg goes through a ``Layers``
instance.  Untraced, its attributes are the package's functions themselves;
traced, each is wrapped so that a span records the layer name, start, end,
the enclosing operation and the outcome.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# machalg's bytecode, for this process and every CLI child, is read from and
# written to here only.  Whether the checkout already holds __pycache__
# directories, or the environment sets PYTHONDONTWRITEBYTECODE, then changes
# nothing; otherwise ``import machalg`` costs 30 ms in one environment and
# 100 ms in the next.
PYCACHE = OUT / "pycache"

# (module, function) for every public call a workload makes.
LAYER_FUNCTIONS = (
    ("cardinal", "evaluate_expression"),
    ("cardinal", "state_cardinality"),
    ("machine", "make_machine"),
    ("machine", "full_machine"),
    ("machine", "run_to_fixpoint"),
    ("reductions", "state_reduction"),
    ("reductions", "functional_reduction"),
    ("reductions", "is_sub_machine"),
    ("isomorphism", "find_isomorphism"),
    ("isomorphism", "verify_morphism"),
    ("isomorphism", "verify_completeness"),
    ("models", "compile_tm"),
    ("models", "compile_mem"),
    ("models", "tm_to_mem"),
    ("models", "verify_lockstep"),
    ("textio", "parse_turing"),
    ("textio", "parse_machine"),
    ("textio", "render_machine"),
    ("textio", "parse_mem"),
    ("textio", "render_mem"),
    ("textio", "render_certificate"),
    ("textio", "parse_certificate"),
    ("lemmas", "run_lemma_suite"),
)


class GateError(Exception):
    """A wrong answer.  The benchmark is broken, not merely slow."""


@dataclass(frozen=True)
class GaveUp:
    """A documented inconclusive answer: a node budget or enumeration cap."""

    reason: str


@dataclass(frozen=True)
class Crash:
    """An operation that raised something the package does not document."""

    error: str


@dataclass
class Op:
    """One user-level request.  ``run`` is timed; ``check`` is not, and
    returns the canonical bytes of the answer for the workload digest."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bytes]
    meta: dict = field(default_factory=dict)


class Tracer:
    """Spans as tuples (id, name, start_ns, end_ns, parent id, op id, status)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_meta: dict[int, dict] = {}
        self._next = 0
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            status = "ok"
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                status = type(e).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self._op, status))

        return traced

    def run_op(self, op_id: int, op: Op):
        self._op = op_id
        self.op_meta[op_id] = op.meta
        try:
            return self.wrap("op." + op.kind, op.run)()
        finally:
            self._op = -1

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the time covered by its child spans."""
        own = {s[0]: s[3] - s[2] for s in self.spans}
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own


class Layers:
    """The package's public functions, traced or not."""

    def __init__(self, pkg, tracer: Optional[Tracer] = None):
        def hook(name, fn):
            return tracer.wrap(name, fn) if tracer else fn

        for mod, fn in LAYER_FUNCTIONS:
            setattr(self, fn, hook(f"{mod}.{fn}", getattr(getattr(pkg, mod), fn)))
        is_complete = pkg.isomorphism.is_complete
        self.is_complete_search = hook(
            "isomorphism.is_complete.search", functools.partial(is_complete, method="search"))
        self.is_complete_construct = hook(
            "isomorphism.is_complete.construct", functools.partial(is_complete, method="construct"))
        self.hook = hook


@dataclass
class PassResult:
    latencies_ns: list
    attempted: int
    crashed: int
    gave_up: int
    digest: str
    summary: dict


def calibrate() -> int:
    """Nanoseconds for a fixed loop of interpreted integer arithmetic: the
    machine's speed at this moment, which on a shared host drifts by tens of
    percent over minutes."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter_ns() - t0


def calibrate_heap() -> int:
    """Nanoseconds to build, sort and index 4000 random tuples, a probe that
    allocates as set-up does.  In the host's slow phases, which last about a
    second, it slows by as much as set-up (1.8 times), where the integer loop
    of ``calibrate`` slows by 1.4 times."""
    t0 = time.perf_counter_ns()
    rng = random.Random(7)
    rows = sorted(tuple(rng.randrange(1000) for _ in range(3)) for _ in range(4000))
    {row: str(row) for row in rows}
    return time.perf_counter_ns() - t0


HEAP_REFERENCE_NS = 10_000_000  # calibrate_heap() on the reference machine


@dataclass(frozen=True)
class Calibration:
    """A fixed probe of machine speed, what it takes on the reference
    machine (a shared 2-core x86-64 host running CPython 3.11 at its
    typical speed), and how often to sample it between ops."""

    probe: Callable[[], int]
    reference_ns: int
    every_ns: int


IN_PROCESS = Calibration(calibrate, 2_000_000, 250_000_000)


def run_passes(passes: list, calibration: list, cal: Calibration = IN_PROCESS) -> list:
    """Run passes of the same ops side by side, each a (ops, tracer,
    finish) triple.  Op i of every pass runs before op i+1 of any, and the
    order of the passes alternates from op to op, so no pass always runs
    warm.  ``run`` is timed; ``check`` runs off the clock, and ``finish``
    runs the gates that need every answer.  A wrong answer raises GateError.
    Between ops, off the clock, a ``cal.probe()`` sample is appended to
    ``calibration`` every ``cal.every_ns``."""
    n = len(passes[0][0])
    last = 0
    lat = [[] for _ in passes]
    crashed = [0] * len(passes)
    gave_up = [0] * len(passes)
    digests = [hashlib.sha256() for _ in passes]
    for i in range(n):
        order = range(len(passes)) if i % 2 == 0 else reversed(range(len(passes)))
        for p in order:
            ops, tracer, _ = passes[p]
            op = ops[i]
            t0 = time.perf_counter_ns()
            try:
                out = tracer.run_op(i, op) if tracer else op.run()
            except Exception as e:  # an undocumented failure counts, it does not abort
                out = Crash(f"{type(e).__name__}: {e}")
            lat[p].append(time.perf_counter_ns() - t0)
            if isinstance(out, Crash):
                print(f"crash in op {i} ({op.kind}): {out.error}", file=sys.stderr)
                crashed[p] += 1
                digests[p].update(f"{op.kind} crash\n".encode())
                continue
            if isinstance(out, GaveUp):
                gave_up[p] += 1
            digests[p].update(op.check(out))
        if time.perf_counter_ns() - last > cal.every_ns:
            calibration.append(cal.probe())
            last = time.perf_counter_ns()
    return [
        PassResult(lat[p], n, crashed[p], gave_up[p], digests[p].hexdigest(), finish())
        for p, (_, _, finish) in enumerate(passes)
    ]


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def sha(data) -> bytes:
    """Hex digest as bytes, for folding a large output into the workload digest."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest().encode()
