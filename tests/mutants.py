"""Seeded mutants of certificates and of input files.

``mutated_fields`` edits one field of a certificate held in memory;
``reference_verify`` in ``oracles`` judges each mutant beside ``verify``.
``check_cli_corpus`` writes mutated copies of the samples and of one
certificate of each kind, runs every file-taking subcommand on them through
``cli.main`` in process, and raises AssertionError on any call that faults.
The tests run a small seed range; CI runs a larger one::

    PYTHONPATH=src:tests python -c 'from mutants import check_cli_corpus; check_cli_corpus(range(100))'
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import tempfile
import time
from pathlib import Path
from typing import Iterable

from machalg import (
    Certificate,
    find_isomorphism,
    is_complete,
    is_sub_machine,
    parse_machine,
    render_certificate,
)
from machalg.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# The certificate fields each kind holds, as Certificate names them.
CERT_FIELDS = {
    "iso": ("g", "h"),
    "complete": ("kept_functions", "kept_states", "g", "h"),
    "submachine": ("kept_functions", "kept_states"),
}
EDITS = ("change", "swap", "drop", "add", "foreign", "repeat")


def mutated_fields(rng: random.Random, kind: str, fields: dict, labels, limits: dict) -> dict:
    """``fields`` with one field edited once: an entry changed, two swapped,
    one dropped or added, a foreign entry (a label the container lacks, an
    index past ``limits[field]``) or a repeated one.  ``labels`` are the
    container's states; new indices are drawn from -1 to ``limits[field]``."""
    key = rng.choice(CERT_FIELDS[kind])
    values, limit = list(fields[key]), limits.get(key)

    def draw():
        if key == "kept_states":
            return rng.choice(labels)
        if values and rng.random() < 0.5:
            return rng.choice(values) + rng.choice((-1, 1))
        return rng.randint(-1, limit)

    edit = rng.choice(EDITS)
    i = rng.randrange(len(values)) if values else None
    if i is None or edit == "add":
        values.insert(rng.randint(0, len(values)), draw())
    elif edit == "change":
        values[i] = draw()
    elif edit == "swap" and len(values) > 1:
        j = rng.choice([j for j in range(len(values)) if j != i])
        values[i], values[j] = values[j], values[i]
    elif edit == "drop":
        del values[i]
    elif edit == "foreign":
        values[i] = "zz" if key == "kept_states" else limit + rng.randint(0, 2)
    else:  # a repeat, or a swap with nothing to swap with
        values.insert(rng.randint(0, len(values)), values[i])
    return {**fields, key: tuple(values)}


# ---------------------------------------------------------------------------
# Mutated input files through the command line
# ---------------------------------------------------------------------------

# Tokens a replacement may put in: the file's own, and these.
HOSTILE_TOKENS = (
    "", "0", "1", "2", "-1", "99", "x", "->", ",", ":", "#", "=", "(", ")",
    "²", "7" * 30, "all", "bijections", "fn", "states", "q0", "halt", "off",
)


def base_texts() -> dict[str, str]:
    """The six samples and one certificate of each kind, by file name; a
    certificate ``<kind>.cert`` is made on ``switch.mx`` with itself."""
    texts = {p.name: p.read_text() for p in sorted(SAMPLES.iterdir())}
    switch = parse_machine(texts["switch.mx"])
    mor = find_isomorphism(switch, switch)
    w = is_complete(switch, switch, method="search")
    fr, sr = is_sub_machine(switch, switch)
    for cert in (
        Certificate("iso", mor.g, mor.h),
        Certificate("complete", w.morphism.g, w.morphism.h,
                    w.reductions[0].kept_functions, w.reductions[1].kept_states),
        Certificate("submachine", kept_functions=fr.kept_functions, kept_states=sr.kept_states),
    ):
        texts[f"{cert.kind}.cert"] = render_certificate(cert)
    return texts


def mutated_text(rng: random.Random, text: str) -> str:
    """``text`` after one to three edits: a line dropped, duplicated or
    swapped with another, a token replaced, or the text truncated."""
    for _ in range(rng.randint(1, 3)):
        lines = text.splitlines(keepends=True)
        i = rng.randrange(len(lines)) if lines else 0
        edit = rng.choice(("drop", "duplicate", "swap", "token", "token", "truncate"))
        if not lines or edit == "truncate":
            text = text[: rng.randrange(len(text) + 1)]
            continue
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif edit == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            spans = [m.span() for m in re.finditer(r"[^\s,]+", lines[i])]
            if spans:
                start, end = rng.choice(spans)
                own = re.findall(r"[^\s,]+", text)
                new = rng.choice(own if rng.random() < 0.5 else HOSTILE_TOKENS)
                lines[i] = lines[i][:start] + new + lines[i][end:]
        text = "".join(lines)
    return text


def cli_calls(rng: random.Random, name: str, path: str, paths: dict) -> list[list[str]]:
    """One call of each file-taking subcommand with the mutated copy of
    ``name`` at ``path`` in a file slot; ``paths`` are the unmutated files."""
    mx = [paths[n] for n in ("const0.mx", "const1.mx", "switch.mx")]
    other = rng.choice(mx)
    pair = [path, other] if rng.random() < 0.5 else [other, path]
    fmt = ["--format", rng.choice(("text", "certificate"))]
    budget = ["--node-budget", "20000"]
    words = re.findall(r"[^\s,]+", Path(path).read_text(errors="replace")) or ["0"]
    # "--option=value", so that a value that starts with "-" is no option
    keep = f"--keep-{rng.choice(('fns', 'states'))}={rng.choice(words)}"
    if name.endswith(".cert"):  # the certificate slot, on the machines it was made on
        verify = [path, paths["switch.mx"], paths["switch.mx"]]
    else:
        verify = [paths[rng.choice(list(CERT_FIELDS)) + ".cert"], *pair]
    mem = ["--mem", path] if rng.random() < 0.5 else []
    tm = paths["bitflip.tm"] if mem else path
    return [
        ["iso", *pair, *budget, *fmt],
        ["complete", *pair, *budget, *fmt, "--method", rng.choice(("auto", "search"))],
        ["submachine", *pair, *fmt],
        ["reduce", path, keep],
        ["compile-tm", path, *(["--summary"] if rng.random() < 0.5 else [])],
        ["compile-mem", path, *(["--summary"] if rng.random() < 0.5 else [])],
        ["tm2mem", path],
        ["lockstep", "--tm", tm, *mem],
        ["sim", path, f"--fn={rng.choice(words)}", f"--from={rng.choice(words)}"],
        ["verify", *verify],
    ]


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stderr, seconds) of ``main(argv)`` in process."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue(), time.perf_counter() - start


def check_cli_corpus(seeds: Iterable[int]) -> int:
    """Run every call of one mutated file per seed; returns the number of
    calls made, or raises AssertionError listing the faults: an exit code
    other than 0, 1 or 2, an exit 2 whose stderr is not exactly one
    ``error: `` line or is an internal error, or a call over 2 s."""
    texts = base_texts()
    names = sorted(texts)
    faults, calls = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = str(Path(tmp) / name)
            Path(paths[name]).write_text(text)
        for seed in seeds:
            rng = random.Random(seed)
            name = rng.choice(names)
            path = str(Path(tmp) / f"mutant-{name}")
            Path(path).write_text(mutated_text(rng, texts[name]))
            for argv in cli_calls(rng, name, path, paths):
                rc, err, took = run_cli(argv)
                calls += 1
                one_line = err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
                if (
                    rc not in (0, 1, 2)
                    or rc == 2 and (not one_line or err.startswith("error: internal error"))
                    or took > 2.0
                ):
                    faults.append((seed, name, argv[0], rc, err, round(took, 3)))
    if faults:
        raise AssertionError(f"{len(faults)} of {calls} calls faulted, first ones: {faults[:5]}")
    return calls
