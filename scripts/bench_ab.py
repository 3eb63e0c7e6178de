#!/usr/bin/env python3
"""A/B runs of the benchmark: a revision against the working tree, in alternating pairs.

    python scripts/bench_ab.py --against HEAD --workload census --pairs 10 --seconds 20 --seed-from 1

Each side runs from a fresh temporary copy: REV as ``git archive`` writes it,
and the working tree with what git ignores left out (bytecode, ``.bench_out/``).
Pair i runs ``perfbench/run.py --workload W --seed K+i --seconds S`` once in
each copy, REV first in even pairs and the working tree first in odd ones.

For each end-to-end metric of ``BENCHMARK.json`` it prints REV's median and
quartiles, the working tree's median, the pairs the working tree won (ties
count for neither), and a verdict against the metric's ``bound``, a fraction
of REV's median in the direction of ``better``:

- "outside bound": the working tree's median is worse by more than the bound;
- "unresolved": REV's quartiles lie further apart than the bound, and not
  every run of the working tree reads better than every run of REV;
- "within bound": otherwise.

"gain" marks a metric on which the working tree won at least nine pairs in
ten, over ten pairs or more, and whose medians differ by more than REV's
interquartile range.  The share of failed operations is printed last.  Exits 1
if a run fails or any pair's digests differ, 2 if REV cannot be exported, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from checkout import ROOT, copy_working_tree, export

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles of ``values``, interpolated between order statistics."""
    ranked = sorted(values)

    def at(q):
        x = q * (len(ranked) - 1)
        i = int(x)
        return ranked[i] + (ranked[min(i + 1, len(ranked) - 1)] - ranked[i]) * (x - i)

    return at(0.25), at(0.75)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in ``tree``, with its digest added."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py exited {proc.returncode} in {tree}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[-1] for line in lines if line.startswith("  digest sha256 "))
    return result


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, int, bool]:
    """(verdict, pairs won, gain) of one metric, by the rules in the module docstring."""
    sign = 1 if metric["better"] == "lower" else -1  # sign * (x - y) > 0: x is worse than y
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    mid_p, mid_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    allowed = metric["bound"] * abs(mid_p)
    if q3 - q1 > allowed and not all(sign * (c - p) < 0 for p in parent for c in change):
        text = "unresolved"
    else:
        text = "outside bound" if sign * (mid_c - mid_p) > allowed else "within bound"
    gain = len(parent) >= 10 and won >= 0.9 * len(parent) and sign * (mid_p - mid_c) > q3 - q1
    return text, won, gain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", default="HEAD", help="the revision to compare with")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--seed-from", type=int, default=1, metavar="K", help="pair i runs seed K + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        try:
            rev = export(args.against, Path(tmp) / "rev")
        except subprocess.CalledProcessError as e:
            print(f"error: git archive {args.against}: {e.stderr.decode().strip()}", file=sys.stderr)
            return 2
        sides = {"rev": rev, "tree": copy_working_tree(Path(tmp) / "tree")}
        results = {"rev": [], "tree": []}
        status = 0
        for i in range(args.pairs):
            seed = args.seed_from + i
            for side in ("rev", "tree") if i % 2 == 0 else ("tree", "rev"):
                try:
                    results[side].append(run(sides[side], args.workload, seed, args.seconds))
                except RuntimeError as e:
                    print(f"error: {e}", file=sys.stderr)
                    return 1
            theirs, ours = results["rev"][-1]["digest"], results["tree"][-1]["digest"]
            if theirs != ours:
                print(f"seed {seed}: digests differ, {args.against} {theirs}, working tree {ours}")
                status = 1
    seeds = f"{args.seed_from}–{args.seed_from + args.pairs - 1}" if args.pairs > 1 else str(args.seed_from)
    print(f"{args.workload}: {args.pairs} pair(s), seed {seeds}, {args.seconds:g} s each; "
          f"{args.against} against the working tree")
    print(f"  {'metric':<14}{'unit':<7}{args.against + ' median':>16}{'q1–q3':>24}{'tree median':>14}"
          f"{'won':>8}  verdict")
    for metric in BENCHMARK["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in results["rev"] if name in r["metrics"]]
        change = [r["metrics"][name]["value"] for r in results["tree"] if name in r["metrics"]]
        if len(parent) != args.pairs or len(change) != args.pairs:
            print(f"  {name:<14}{metric['unit']:<7}  not reported by every run")
            continue
        text, won, gain = verdict(metric, parent, change)
        q1, q3 = quartiles(parent)
        print(f"  {name:<14}{metric['unit']:<7}{statistics.median(parent):>16.6g}{f'{q1:.6g}–{q3:.6g}':>24}"
              f"{statistics.median(change):>14.6g}{f'{won}/{args.pairs}':>8}  {text}{', gain' if gain else ''}")
    for side, label in (("rev", args.against), ("tree", "working tree")):
        failed = sum(r["failed"] for r in results[side]) / sum(r["attempted"] for r in results[side])
        print(f"  failed share at {label}: {failed:.6g}")
    print("digests: equal in every pair" if status == 0 else "digests: DIFFER")
    return status


if __name__ == "__main__":
    sys.exit(main())
