#!/usr/bin/env python3
"""Layer-by-layer benchmark of machalg, one seeded workload per process.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads: build, search, census, cli (see README.md in this directory).
Each run imports machalg from ``src/`` of the checkout this file sits in,
generates its inputs from the seed, times a fixed batch sized from
``--seconds``, checks every answer against an independent reference off the
clock, prints a report and, as the last line of stdout, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  A wrong answer
exits 1; a checkout without ``src/machalg`` exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from collections import defaultdict

import core
import wl_build
import wl_census
import wl_cli
import wl_search
from core import OUT, PYCACHE, ROOT, GateError, Layers, Tracer, median, quantile, run_passes

WORKLOADS = {m.NAME: m for m in (wl_build, wl_search, wl_census, wl_cli)}
SETUP_REPEATS = 9
SETUP_PROBES = 3  # probes before and after each set-up

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("decided_ratio", "ratio"),
)
BUSY_LAYERS = (
    "textio.parse_turing", "textio.render_machine", "textio.parse_machine", "textio.parse_mem",
    "textio.render_mem", "textio.render_certificate", "textio.parse_certificate",
    "machine.make_machine", "machine.full_machine", "machine.run_to_fixpoint",
    "reductions.state_reduction", "reductions.functional_reduction", "reductions.is_sub_machine",
    "models.compile_tm", "models.compile_mem", "models.tm_to_mem", "models.verify_lockstep",
    "isomorphism.find_isomorphism", "isomorphism.is_complete.search",
    "isomorphism.is_complete.construct", "isomorphism.verify_morphism",
    "isomorphism.verify_completeness", "lemmas.run_lemma_suite",
    "cardinal.evaluate_expression", "cardinal.state_cardinality",
)
# Layer -> op meta key holding the size its ladder is indexed by.
GROWTH = {
    "textio.render_machine": "tm_states", "textio.parse_machine": "tm_states",
    "reductions.state_reduction": "tm_states", "models.compile_tm": "tm_states",
    "models.compile_mem": "mem_states",
}
RUNG_KEY = {"models.compile_mem": "mem_rung", "machine.full_machine": "full_rung",
            "reductions.functional_reduction": "full_rung"}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = [(f"{layer}.busy_s", "s", "lower") for layer in BUSY_LAYERS]
    out += [(f"{layer}.growth_exp", "exp", "lower") for layer in GROWTH]
    out += [
        ("models.compile_tm.states_per_s", "states/s", "higher"),
        ("models.compile_mem.states_per_s", "states/s", "higher"),
        ("isomorphism.find_isomorphism.calls", "count", "lower"),
        ("isomorphism.find_isomorphism.budget_exceeded", "count", "lower"),
        ("isomorphism.find_isomorphism.decided_ratio", "ratio", "higher"),
        ("isomorphism.is_complete.budget_exceeded", "count", "lower"),
        ("lemmas.run_lemma_suite.iterations_per_s", "1/s", "higher"),
        ("cardinal.evaluate_expression.calls", "count", "lower"),
        ("cli.interpreter_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
    ]
    out += [(f"cli.{sub}.p50_ms", "ms", "lower") for sub in wl_cli.SUBCOMMANDS]
    out += [(f"{layer}.ms_at_{rung}", "ms", "lower") for layer, rung in wl_build.rung_metrics()]
    out.append(("trace_overhead_ratio", "ratio", "lower"))
    return out


def setup(mod, seed: int, rounds: int, workdir):
    """Import machalg afresh and generate the inputs, SETUP_REPEATS times.
    Returns setup_s on the reference machine, setup_s as measured, the
    package and the last repetition's inputs.

    An untimed import first fills the private bytecode cache, so every timed
    import loads bytecode rather than compiling, and each repetition starts
    from the same heap.  The host switches between fast and slow phases of
    about a second, shorter than set-up, so each repetition is scaled by
    ``core.calibrate_heap`` run just before and after it, not by the run's
    probe median; setup_s is the median of the scaled repetitions."""
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    importlib.import_module("machalg")
    if hasattr(mod, "warm_up"):
        mod.warm_up()
    measured, scaled = [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        probes = [core.calibrate_heap() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        for name in [n for n in sys.modules if n == "machalg" or n.startswith("machalg.")]:
            del sys.modules[name]
        pkg = importlib.import_module("machalg")
        inputs = mod.generate(pkg, seed, rounds, workdir)
        elapsed = time.perf_counter() - t0
        probes += [core.calibrate_heap() for _ in range(SETUP_PROBES)]
        measured.append(elapsed)
        scaled.append(elapsed * core.HEAP_REFERENCE_NS / median(probes))
    return median(scaled), median(measured), pkg, inputs


def end_to_end(mod, res, setup_s) -> dict:
    lat_ms = [x / 1e6 for x in res.latencies_ns]
    busy = sum(res.latencies_ns) / 1e9
    who = resource.RUSAGE_CHILDREN if mod is wl_cli else resource.RUSAGE_SELF
    done = res.attempted - res.crashed - res.gave_up
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat_ms) / busy if busy else 0.0,
        "op_p50_ms": quantile(lat_ms, 0.5),
        "op_p90_ms": quantile(lat_ms, 0.9),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "decided_ratio": done / res.attempted if res.attempted else 0.0,
    }


def layer_metrics(tracer: Tracer, extras: dict, overhead: float) -> dict:
    own = tracer.self_times()
    spans = defaultdict(list)  # name -> [(own ns, status, op meta)]
    for sid, name, _, _, _, op_id, status in tracer.spans:
        spans[name].append((own[sid], status, tracer.op_meta.get(op_id, {})))
    busy = {name: sum(s[0] for s in rows) / 1e9 for name, rows in spans.items()}
    m = {f"{layer}.busy_s": busy.get(layer, 0.0) for layer in BUSY_LAYERS}

    def per_call(layer, key, value):
        return [s[0] / 1e6 for s in spans[layer] if s[1] == "ok" and s[2].get(key) == value]

    for layer, rung in wl_build.rung_metrics():
        m[f"{layer}.ms_at_{rung}"] = median(per_call(layer, RUNG_KEY.get(layer, "tm_rung"), rung))
    for layer, size_key in GROWTH.items():
        m[f"{layer}.growth_exp"] = growth(spans[layer], RUNG_KEY.get(layer, "tm_rung"), size_key)
    for layer, key in (("models.compile_tm", "tm_states"), ("models.compile_mem", "mem_states")):
        done = sum(s[2].get(key, 0) for s in spans[layer] if s[1] == "ok")
        m[f"{layer}.states_per_s"] = done / busy[layer] if busy.get(layer) else 0.0
    iso = spans["isomorphism.find_isomorphism"]
    m["isomorphism.find_isomorphism.calls"] = len(iso)
    m["isomorphism.find_isomorphism.budget_exceeded"] = sum(
        1 for s in iso if s[1] == "SearchBudgetExceededError")
    m["isomorphism.find_isomorphism.decided_ratio"] = (
        sum(1 for s in iso if s[1] == "ok") / len(iso) if iso else 0.0)
    m["isomorphism.is_complete.budget_exceeded"] = sum(
        1 for name in ("isomorphism.is_complete.search", "isomorphism.is_complete.construct")
        for s in spans[name] if s[1] == "SearchBudgetExceededError")
    lemma = spans["lemmas.run_lemma_suite"]
    iters = sum(s[2].get("iterations", 0) for s in lemma)
    m["lemmas.run_lemma_suite.iterations_per_s"] = (
        iters / busy["lemmas.run_lemma_suite"] if lemma else 0.0)
    m["cardinal.evaluate_expression.calls"] = len(spans["cardinal.evaluate_expression"])
    for sub in wl_cli.SUBCOMMANDS:
        m[f"cli.{sub}.p50_ms"] = median([s[0] / 1e6 for s in spans[f"cli.{sub}"]])
    m["cli.interpreter_ms"] = extras.get("cli.interpreter_ms", 0.0)
    m["cli.import_ms"] = extras.get("cli.import_ms", 0.0)
    m["trace_overhead_ratio"] = overhead
    return m


def growth(rows, rung_key, size_key) -> float:
    """log-log slope of median call time between the two largest rungs."""
    by_rung = defaultdict(list)
    for own_ns, status, meta in rows:
        if status == "ok" and meta.get(rung_key) is not None:
            by_rung[meta[rung_key]].append((own_ns, meta[size_key]))
    if len(by_rung) < 2:
        return 0.0
    lo, hi = sorted(by_rung, key=int)[-2:]
    t_lo, t_hi = (median([r[0] for r in by_rung[x]]) for x in (lo, hi))
    s_lo, s_hi = (median([r[1] for r in by_rung[x]]) for x in (lo, hi))
    if t_lo <= 0 or t_hi <= 0:
        return 0.0
    return math.log(t_hi / t_lo) / math.log(s_hi / s_lo)


def record(mod, args, rounds, res) -> dict:
    """Provenance stored with every result."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            commit = None
    src = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
    return {
        "workload": mod.NAME, "commit": commit, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(), "src_lines": lines,
        "seed": args.seed, "seconds": args.seconds, "rounds": rounds, "trace": args.trace,
        "node_budget": mod.NODE_BUDGET, "ops": res.attempted,
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "machalg" / "__init__.py").is_file():
        print(f"error: no machalg package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    mod = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / mod.NOMINAL_ROUND_S))
    workdir = OUT / f"{mod.NAME}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_ref, setup_s, pkg, inputs = setup(mod, args.seed, rounds, workdir)
    calibration = []
    if not os.path.realpath(pkg.__file__).startswith(os.path.realpath(ROOT / "src") + os.sep):
        print(f"error: machalg imported from {pkg.__file__}, not this checkout", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    wrong = None
    summary = {}
    try:
        if tracer:
            # An untraced and a traced pass over the same inputs: their ratio
            # is the tracing overhead, and their answers must agree exactly.
            plain, res = run_passes([_pass(mod, pkg, inputs, None), _pass(mod, pkg, inputs, tracer)],
                                    calibration, mod.CALIBRATION)
            if plain.digest != res.digest:
                raise GateError("the untraced and traced passes gave different answers")
        else:
            (res,) = run_passes([_pass(mod, pkg, inputs, None)], calibration, mod.CALIBRATION)
        summary = res.summary
    except GateError as e:
        wrong = str(e)
        print(f"WRONG ANSWER: {wrong}", file=sys.stderr)
        res = core.PassResult([], 0, 0, 0, "", {})

    if tracer and not wrong:
        extras = wl_cli.probes() if mod is wl_cli else {}
        overhead = sum(res.latencies_ns) / sum(plain.latencies_ns) - 1
        metrics = layer_metrics(tracer, extras, overhead)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        # census alone records about a million spans, so they go out as
        # gzipped tab-separated lines rather than JSON.
        with gzip.open(OUT / f"spans_{mod.NAME}_seed{args.seed}.tsv.gz", "wt",
                       encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\tstatus\n")
            for span in tracer.spans:
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")
    else:
        metrics = end_to_end(mod, res, setup_s) if res.attempted else {}
        units = dict(END_TO_END)

    rec = record(mod, args, rounds, res)
    rec["calibration_ms"] = median(calibration) / 1e6
    rec["calibration_reference_ms"] = mod.CALIBRATION.reference_ns / 1e6
    scaled = to_reference(metrics, units, median(calibration) / mod.CALIBRATION.reference_ns)
    if "setup_s" in scaled:
        scaled["setup_s"] = setup_ref  # scaled repetition by repetition in setup()
    _report(mod, rec, res, scaled, metrics, units, summary)
    (OUT / f"BENCH_{mod.NAME}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"record": rec, "digest": res.digest, "summary": summary,
                    "metrics": scaled, "measured": metrics, "wrong": wrong}, indent=1),
        encoding="utf-8")
    print(json.dumps({
        "correct": wrong is None,
        "attempted": max(res.attempted, 1),
        "failed": res.crashed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in scaled.items()},
    }))
    return 1 if wrong else 0


def to_reference(metrics: dict, units: dict, slow: float) -> dict:
    """Express times and rates on the reference machine, given how many
    times slower than there the calibration probe ran in this run."""
    out = {}
    for name, value in metrics.items():
        if units[name] in ("s", "ms"):
            value = value / slow
        elif units[name].endswith("/s"):
            value = value * slow
        out[name] = value
    return out


def _pass(mod, pkg, inputs, tracer):
    ops, finish = mod.make_pass(pkg, Layers(pkg, tracer), inputs)
    return ops, tracer, finish


def _report(mod, rec, res, scaled, measured, units, summary) -> None:
    n = res.attempted
    print(f"workload {mod.NAME}: seed {rec['seed']}, {rec['rounds']} round(s), {n} ops, "
          f"node budget {rec['node_budget']}, trace {rec['trace']}")
    print(f"  calibration probe: median {rec['calibration_ms']:.4f} ms here, "
          f"{rec['calibration_reference_ms']:g} ms on the reference machine; times and rates "
          f"below are scaled to the reference, as measured in parentheses")
    for name, value in scaled.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]:<9} ({measured[name]:.6g})")
    if n:
        lost = res.crashed + res.gave_up
        print(f"  {'failed_ratio':<48} {lost / n:>14.6g} ratio "
              f"({res.gave_up} gave up, {res.crashed} crashed, of {n})")
        print(f"  samples {n}; p90 has {n - math.ceil(0.9 * n)} beyond it; setup_s is the median "
              f"of {SETUP_REPEATS} set-ups, each scaled by the probes around it")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    print(f"  digest sha256 {res.digest}")
    print("  record " + json.dumps(rec))


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    results = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
