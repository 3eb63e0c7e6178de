#!/usr/bin/env python3
"""Answer equivalence: one digest per corpus of what the package answers.

The ``cli`` corpus is a fixed list of calls of ``machalg.cli.main``, made in
process: every subcommand on the samples and on one certificate of each kind
(``tests/mutants.py::base_texts``), with both ``--format`` values and
``--expect`` both ways, certificates the CLI prints fed back to ``verify``,
tampered copies of each certificate, and ``tests/mutants.py::cli_calls`` over
seeds 100 to 399.  Each call's stdout, stderr and exit code are recorded,
with the corpus directory written as ``<tmp>``.

The ``compile`` corpus runs ``compile_tm``, ``compile_mem(tm_to_mem(t))``
and ``compile_mem`` on the tape samples under both boundary policies, on
``toggle.mem``, and on seeded tape machines and memory-cell programs (with
and without ``default halt``, some reads without an entry), each parsed from
its text.  Each compile is recorded as its ``render_machine`` text or its
error's type and text, with its state count and its walks from the initial
state and from three seeded states, which read the entries they visit one by
one before the text reads the table whole.  The text is hashed as soon as it
is rendered, so the script holds one at a time; under ``--against`` only the
compiles that differ are rendered again, to show how.

The ``iso`` corpus asks ``find_isomorphism`` about every one-function pair on
1 to 4 states (each map against each of its relabellings) and seeded 2- and
3-function pairs on 2 to 4 states, at no budget, 0, and one below and at the
most nodes a search on them can spend; seeded one- and multi-function pairs
on 5 to 40 states, path forests and compiled tape machines, each against a
relabelled or perturbed copy.  Each question is asked on fresh machines and
recorded as its witness, None or the error's type and text::

    python scripts/answers.py                   # the digests of this checkout's src
    python scripts/answers.py --against HEAD~1  # "equal", or each answer that differs

``--against REV`` exports the ``src`` of REV with ``git archive`` into a
fresh directory and runs the same corpora on it in the same process.  It
prints "equal" last and exits 0, or prints each differing call, compile or
question with both answers, the count per corpus, and exits 1.
"""

import argparse
import contextlib
import dataclasses
import difflib
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for path in (SRC, ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from checkout import export  # noqa: E402
from conftest import conjugated_table, random_mem_program, random_turing_spec  # noqa: E402
from mutants import SAMPLES, base_texts, cli_calls, mutated_text  # noqa: E402

SEEDS = range(100, 400)
# Seeded inputs of the compile corpus: tape machines, then programs; and the
# seeded states each compile is also walked from.
COMPILE_SEED, N_SPECS, N_PROGRAMS, N_WALKS = 26, 100, 100, 3
# Seeded inputs of the iso corpus; the most candidates a search on n <= 4
# states can try, n + n(n-1) + ... + n!.
ISO_SEED, TINY_BOUND = 44, (0, 1, 4, 15, 64)
# A call that names this file reads the stdout of the last call that does not.
PRINTED = "printed"


def _tampered(cert: str) -> dict[str, str]:
    """Copies of the certificate text ``cert``, by what is wrong with each."""
    lines = cert.splitlines(keepends=True)
    kind = lines[0].split()[1]
    out = {
        "empty": "",
        "headerless": "".join(lines[1:]),
        "header-repeated": lines[0] + cert,
        "last-repeated": cert + lines[-1],
        "other-kind": cert.replace(kind, "iso" if kind != "iso" else "submachine", 1),
        "unknown-kind": cert.replace(kind, "bogus", 1),
        "foreign-line": cert + ("keep-fns 0\n" if kind == "iso" else "g 0\n"),
        "unknown-line": cert + "k 0\n",
    }
    for i, line in enumerate(lines[1:], 1):
        key = line.split()[0]
        out[f"no-{key}"] = "".join(lines[:i] + lines[i + 1:])
        out[f"bad-{key}"] = cert.replace(line, f"{key} 0 x 0\n")
    return out


# Name lines of the tape and cell samples, each broken: (sample, line, broken line).
NAME_LINES = (
    ("bitflip.tm", "symbols 0 1", "symbols 0 1 0"),
    ("bitflip.tm", "symbols 0 1", "symbols 0 1|x"),
    ("bitflip.tm", "registers q0 halt", "registers q0 halt q0"),
    ("bitflip.tm", "registers q0 halt", "registers q0 ha(t"),
    ("toggle.mem", "alphabet 0 1 2", "alphabet 0 1 2 2"),
    ("toggle.mem", "alphabet 0 1 2", "alphabet 0 1 2|"),
)


def write_corpus(tmp: Path) -> list[list[str]]:
    """Write the corpus files into ``tmp`` and return the calls, in order."""
    base = base_texts()
    texts = dict(base)
    for cert in [name for name in base if name.endswith(".cert")]:
        for edit, text in _tampered(base[cert]).items():
            texts[f"{cert[:-5]}-{edit}.cert"] = text
    for i, (name, line, broken) in enumerate(NAME_LINES):
        texts[f"name-line-{i}-{name}"] = base[name].replace(line + "\n", broken + "\n")
    paths = {}
    for name, text in texts.items():
        paths[name] = str(tmp / name)
        Path(paths[name]).write_text(text)
    printed = str(tmp / PRINTED)
    mx = [paths[n] for n in ("const0.mx", "const1.mx", "switch.mx")]
    switch, toggle = paths["switch.mx"], paths["toggle.mem"]
    calls = []
    for a in mx:
        for b in mx:
            for question in ("iso", "complete", "submachine"):
                calls += [
                    [question, a, b],
                    [question, a, b, "--expect", "yes"],
                    [question, a, b, "--expect", "no"],
                    [question, a, b, "--format", "certificate"],
                    ["verify", printed, a, b],  # the certificate just printed
                    ["verify", printed, a, b, "--expect", "no"],
                ]
            calls += [["complete", a, b, "--method", method, "--format", fmt]
                      for method in ("construct", "search") for fmt in ("text", "certificate")]
            calls += [["iso", a, b, "--node-budget", "1"],
                      ["complete", a, b, "--method", "search", "--node-budget", "1"]]
    for name in sorted(n for n in texts if n.endswith(".cert")):
        calls += [["verify", paths[name], switch, switch, "--expect", "yes"],
                  ["verify", paths[name], switch, switch, "--expect", "no"],
                  ["verify", paths[name], mx[0], mx[1]]]
    for keep in ("--keep-fns=flip", "--keep-fns=hold,flip", "--keep-fns=0", "--keep-fns=nope",
                 "--keep-states=off", "--keep-states=on,off", "--keep-states=nope"):
        calls += [["reduce", switch, keep], ["reduce", switch, keep, "--keep-states=on"]]
    broken = [name for name in texts if name.startswith("name-line")]
    for tm in [paths[n] for n in ("bitflip.tm", "increment.tm", *broken) if n.endswith(".tm")]:
        calls += [
            ["compile-tm", tm, "--summary"], ["compile-tm", tm],
            ["sim", printed, "--fn", "step", "--from", "q0|0|0"],  # the machine just compiled
            ["tm2mem", tm], ["compile-mem", printed, "--summary"], ["sim", printed, "--steps", "3"],
            ["sim", tm, "--steps", "3"], ["compile-mem", tm],
            ["lockstep", "--tm", tm, "--expect", "yes"], ["lockstep", "--tm", tm, "--expect", "no"],
            ["lockstep", "--tm", tm, "--mem", toggle],
        ]
    for mem in [paths[n] for n in ("toggle.mem", *broken) if n.endswith(".mem")]:
        calls += [["compile-mem", mem], ["compile-mem", mem, "--summary"], ["sim", mem],
                  ["sim", mem, "--fn", "0"], ["compile-tm", mem]]
    calls += [["sim", switch], ["sim", switch, "--fn", "flip", "--from", "off"],
              ["sim", switch, "--fn=hold", "--from=on", "--steps", "0"], ["reduce", switch],
              ["iso", str(tmp / "missing.mx"), switch], ["verify", switch, switch, switch]]
    for template in ("finite-turing", "infinite-tape-turing", "umm", "lsm", "quantum"):
        calls += [["card", template],
                  ["card", template, "--k", "2", "--m", "3", "--n", "2", "--transition-space", "--no-trace"]]
    calls += [["card", expr] for expr in ("2 ^ beth(0)", "beth(1) + 3 * beth(0)", "16 ^ 16", "(2")]
    calls += [["universality"], ["universality", "--no-trace", "--expect", "yes"],
              ["universality", "--no-trace", "--n", "3", "--expect", "no"],
              ["check-lemmas", "--iters", "40", "--seed", "7"],
              ["check-lemmas", "--iters", "40", "--seed", "7", "--expect", "no"],
              ["check-lemmas", "--max-states", "0"], ["bogus"], ["iso", switch]]
    for seed in SEEDS:
        rng = random.Random(seed)
        name = rng.choice(sorted(base))
        path = tmp / f"mutant-{seed}-{name}"
        path.write_text(mutated_text(rng, base[name]))
        calls += cli_calls(rng, name, str(path), paths)
    return calls


def compile_corpus() -> list[tuple[str, str, str]]:
    """The compiles, in order, as (job, input name, input text)."""
    from machalg import BoundaryPolicy, parse_turing, render_mem, render_turing

    tapes = []
    for sample in ("bitflip.tm", "increment.tm"):
        t = parse_turing((SAMPLES / sample).read_text())
        for policy in BoundaryPolicy:
            tapes.append((f"{sample} {policy.value}", render_turing(dataclasses.replace(t, boundary_policy=policy))))
    rng = random.Random(COMPILE_SEED)
    # Every fifth spec has up to 3 cells, whose translation can compile to 236,196 states.
    tapes += [(f"spec {i}", render_turing(random_turing_spec(rng, max_cells=2 + (i % 5 == 0))))
              for i in range(N_SPECS)]
    programs = [("toggle.mem", (SAMPLES / "toggle.mem").read_text())]
    programs += [(f"program {i}", render_mem(random_mem_program(rng, total=False, default_halt=i % 2 == 0)))
                 for i in range(N_PROGRAMS)]
    return [(job, name, text) for name, text in tapes for job in ("compile_tm", "compile_mem(tm_to_mem)")] + [
        ("compile_mem", name, text) for name, text in programs]


def path_forest(k: int) -> tuple:
    """The table of a fixed point 0 with k paths of k states hung under it.  Each path is
    numbered from one depth down, then up, that depth one level higher in each next path,
    so the least unplaced state climbs as paths are placed."""
    table = [0] * (1 + k * k)
    for p in range(k):
        depths = [*range(k - p, k + 1), *range(k - p - 1, 0, -1)]
        at = {d: 1 + p * k + i for i, d in enumerate(depths)}
        for d, s in at.items():
            table[s] = at[d - 1] if d > 1 else 0
    return tuple(table)


def iso_corpus() -> list[tuple[str, tuple, tuple, object]]:
    """The questions, in order, as (name, a, b, node budget).  A machine is its tables, or
    ("tape", text, seed): the compile of a tape machine, relabelled by the seed unless None."""
    from machalg import render_turing

    questions = []

    def ask(name, a, b, budgets):
        questions.extend((name, a, b, budget) for budget in budgets)

    def around_the_bound(n):  # no budget, 0, and one below and at the most a search can spend
        return (None, *sorted({0, TINY_BOUND[n] - 1, TINY_BOUND[n]}))

    def relabelled(rng, tables):
        g = list(range(len(tables[0])))
        rng.shuffle(g)
        return tuple(conjugated_table(t, g) for t in tables)

    def perturbed(rng, tables):
        tables, n = [list(t) for t in tables], len(tables[0])
        tables[rng.randrange(len(tables))][rng.randrange(n)] = rng.randrange(n)
        return tuple(map(tuple, tables))

    for n in range(1, 5):  # every one-function pair on at most 4 states
        for ta in itertools.product(range(n), repeat=n):
            for g in itertools.permutations(range(n)):
                ask("one function", (ta,), (conjugated_table(ta, g),), around_the_bound(n))
    rng = random.Random(ISO_SEED)
    for i in range(600):
        n = rng.randint(2, 4)
        a = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randint(2, 3)))
        b = relabelled(rng, a)
        ask("functions", a, perturbed(rng, b) if i % 2 else b, around_the_bound(n))
    for i in range(300):
        n, k = rng.randint(5, 40), 1 + i % 3
        targets = rng.choice((3, n))  # into three hubs, or anywhere
        a = tuple(tuple(rng.randrange(targets) for _ in range(n)) for _ in range(k))
        b = relabelled(rng, a)
        # Refinement does not tell one function's arcs from another's, so several
        # functions into three hubs can exhaust any budget: these stop at 2000 nodes.
        ask("functions", a, perturbed(rng, b) if i % 2 else b, (None, 0) if k == 1 else (0, 10, 100, 2000))
    for k in range(2, 17):
        a = (path_forest(k),)
        ask(f"path forest {k}", a, relabelled(rng, a), (None,))
    tapes = [(sample, (SAMPLES / sample).read_text()) for sample in ("bitflip.tm", "increment.tm")]
    tapes += [(f"spec {i}", render_turing(random_turing_spec(rng, max_cells=2 + i % 4))) for i in range(12)]
    for name, text in tapes:
        ask(f"tape {name}", ("tape", text, None), ("tape", text, rng.randrange(2**32)), (None, 0))
    return questions


def run_isos(questions: list[tuple[str, tuple, tuple, object]], src: Path) -> list:
    """The answer to each question, asked of the ``machalg`` package in ``src`` on fresh
    machines: the witness as [g, h], None, or the error's type and text (a give-up among them)."""
    with _package(src):
        from machalg import StateSet, TransitionFunction, compile_tm, find_isomorphism, make_machine, parse_turing

        def machine(spec, prefix):
            if spec[0] != "tape":
                ss = StateSet(tuple(f"{prefix}{i}" for i in range(len(spec[0]))))
                return make_machine(ss, [TransitionFunction(ss, t) for t in spec])
            m = compile_tm(parse_turing(spec[1]))[0]
            if spec[2] is None:
                return m
            g = list(range(m.n_states))
            random.Random(spec[2]).shuffle(g)
            return machine((conjugated_table(m.tables[0], g),), prefix)

        records = []
        for _, a, b, budget in questions:
            try:
                got = find_isomorphism(machine(a, "s"), machine(b, "t"), node_budget=budget)
                records.append(None if got is None else [got.g, got.h])
            except Exception as e:  # any error is an answer to record, a give-up too
                records.append(f"{type(e).__name__}: {e}")
        return records


@contextlib.contextmanager
def _package(src: Path):
    """Import the ``machalg`` package in ``src`` afresh for the block, and
    restore the modules it replaces afterwards."""
    def ours(name):
        return name == "machalg" or name.startswith("machalg.")

    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if ours(name)}
    sys.path.insert(0, str(src))
    try:
        yield
    finally:
        sys.path.remove(str(src))
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def _compile_records(compiles: list[tuple[str, str, str]], src: Path, indices: Iterable[int]) -> Iterator[tuple]:
    """(rendered text, error, state count, walks) of the compiles at ``indices``, one at a
    time, made with the ``machalg`` package in ``src``: the text and the error are "" where
    there is none, the count and the walks None where the compile failed."""
    with _package(src):
        from machalg import (
            compile_mem, compile_tm, parse_mem, parse_turing, render_machine, run_to_fixpoint, tm_to_mem,
        )

        def compiled(job, text):  # the machine, its codec and its initial state
            if job == "compile_mem":
                p = parse_mem(text)
            else:
                t = parse_turing(text)
                if job == "compile_tm":
                    return (*compile_tm(t), t.initial)
                p = tm_to_mem(t)
            return (*compile_mem(p), p.initial_state)

        def record(i, job, text):  # the machine is dropped on return, before the next is built
            try:
                m, codec, initial = compiled(job, text)
                rng, step = random.Random(i), m.functions[0]
                starts = [codec.encode(initial)] + [m.states.labels[rng.randrange(m.n_states)] for _ in range(N_WALKS)]
                walks = [run_to_fixpoint(step, start, m.n_states, True) for start in starts]
                return render_machine(m), "", m.n_states, [[type(w).__name__, *w.trajectory] for w in walks]
            except Exception as e:  # any error is an answer to record, a planted one too
                return "", f"{type(e).__name__}: {e}", None, None

        for i in indices:
            job, _, text = compiles[i]
            yield record(i, job, text)


def run_compiles(compiles: list[tuple[str, str, str]], src: Path) -> tuple[list[tuple], str]:
    """(records, digest) of every compile, made with the ``machalg`` package in ``src``.
    Each record is :func:`_compile_records`' with the sha256 of its text in place of the
    text, and the digest is :func:`digest` of the records with their texts.  Each text is
    hashed as soon as it is rendered and then dropped, so only one is ever held."""
    sha, records = hashlib.sha256(b"["), []
    for i, record in enumerate(_compile_records(compiles, src, range(len(compiles)))):
        sha.update(b", " if i else b"")  # json.dumps of a list, one item at a time
        sha.update(json.dumps(record).encode())
        records.append((hashlib.sha256(record[0].encode()).hexdigest(), *record[1:]))
    sha.update(b"]")
    return records, sha.hexdigest()


def run_corpus(calls: list[list[str]], src: Path, tmp: Path) -> list[tuple[str, str, int]]:
    """(stdout, stderr, exit code) of each call, made with the ``machalg``
    package in ``src``, with ``tmp`` written as ``<tmp>``."""
    with _package(src):
        from machalg.cli import main

        records, out = [], ""
        for argv in calls:
            reads = str(tmp / PRINTED) in argv
            if reads:
                (tmp / PRINTED).write_text(out)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
            if not reads:
                out = stdout.getvalue()
            records.append((stdout.getvalue().replace(str(tmp), "<tmp>"),
                            stderr.getvalue().replace(str(tmp), "<tmp>"), rc))
        return records


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def differing(a, b) -> list[int]:
    """The indices of the calls whose records differ."""
    return [i for i, (x, y) in enumerate(zip(a, b, strict=True)) if x != y]


def _show(label: str, record) -> list[str]:
    out, err, rc = record
    return [f"  {label}: exit {rc}", *(f"    stdout| {line}" for line in out.splitlines()),
            *(f"    stderr| {line}" for line in err.splitlines())]


def _compile_diff(rev: str, theirs, ours) -> list[str]:
    """The lines in which two compile records differ, as a unified diff."""
    def lines(record):
        text, err, n_states, walks = record
        return [*text.splitlines(), f"error: {err}", f"n_states: {n_states}", *(f"walk: {w}" for w in walks or [None])]
    return ["  " + line for line in difflib.unified_diff(lines(theirs), lines(ours), rev, "src", n=0, lineterm="")]


def _show_iso(question, rev: str, theirs, ours) -> list[str]:
    name, a, b, _ = question
    inputs = [f"  {x}: {'compile of ' + name if spec[0] == 'tape' else spec}" for x, spec in (("a", a), ("b", b))]
    return [*inputs, f"  {rev}: {theirs}", f"  src: {ours}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="also run the corpora on REV's src and compare")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus").mkdir()
        calls, compiles, questions = write_corpus(tmp / "corpus"), compile_corpus(), iso_corpus()
        records, (compiled, compile_sha) = run_corpus(calls, SRC, tmp / "corpus"), run_compiles(compiles, SRC)
        answered = run_isos(questions, SRC)
        print(f"cli: {len(calls)} calls, sha256 {digest(records)}")
        print(f"compile: {len(compiles)} compiles, sha256 {compile_sha}")
        print(f"iso: {len(questions)} questions, sha256 {digest(answered)}")
        if args.against is None:
            return 0
        try:
            rev = export(args.against, tmp / "rev", "src") / "src"
        except subprocess.CalledProcessError as e:
            print(f"error: git archive {args.against}: {e.stderr.decode().strip()}", file=sys.stderr)
            return 2
        theirs, (their_compiled, their_compile_sha) = run_corpus(calls, rev, tmp / "corpus"), run_compiles(compiles, rev)
        their_answers = run_isos(questions, rev)
        compile_diff = differing(their_compiled, compiled)
        # Only the compiles that differ are rendered again, to show how.
        their_texts, our_texts = (list(_compile_records(compiles, s, compile_diff)) for s in (rev, SRC))
    print(f"cli at {args.against}: {len(calls)} calls, sha256 {digest(theirs)}")
    print(f"compile at {args.against}: {len(compiles)} compiles, sha256 {their_compile_sha}")
    print(f"iso at {args.against}: {len(questions)} questions, sha256 {digest(their_answers)}")
    diff = differing(theirs, records)
    for i in diff:
        print(f"call {i}: machalg {' '.join(calls[i]).replace(str(tmp / 'corpus'), '<tmp>')}")
        print("\n".join(_show(args.against, theirs[i]) + _show("src", records[i])))
    print(f"cli: {len(diff)} of {len(calls)} calls differ" if diff else "cli: equal")
    for i, theirs_i, ours_i in zip(compile_diff, their_texts, our_texts):
        print(f"compile {i}: {compiles[i][0]} on {compiles[i][1]}")
        print("\n".join(_compile_diff(args.against, theirs_i, ours_i)))
    print(f"compile: {len(compile_diff)} of {len(compiles)} compiles differ" if compile_diff else "compile: equal")
    iso_diff = differing(their_answers, answered)
    for i in iso_diff:
        print(f"question {i}: {questions[i][0]}, node budget {questions[i][3]}")
        print("\n".join(_show_iso(questions[i], args.against, their_answers[i], answered[i])))
    print(f"iso: {len(iso_diff)} of {len(questions)} questions differ" if iso_diff else "iso: equal")
    if diff or compile_diff or iso_diff:
        return 1
    print("equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
