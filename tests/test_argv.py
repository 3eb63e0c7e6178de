"""The command line against its reference: ``cli._COMMANDS`` is the one
grammar, ``main`` reads most argv lists from it alone, and whatever it
leaves to ``argparse`` is answered by the parser built from the same table.
``tests/oracles.py::reference_parser`` is the argparse parser written out by
hand, and the judge of both: every namespace, help text, refusal and exit
code must equal what it gives."""

import os
import random
import subprocess
import sys
import timeit
from pathlib import Path

import pytest

import machalg.lemmas
from machalg import MachalgError
from machalg import cli
from machalg.cli import main
from oracles import reference_parser

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
SWITCH, CONST0, CONST1 = (str(SAMPLES / n) for n in ("switch.mx", "const0.mx", "const1.mx"))
BITFLIP, INCREMENT, TOGGLE = (str(SAMPLES / n) for n in ("bitflip.tm", "increment.tm", "toggle.mem"))
CERT = "{cert}"  # an iso certificate of const0.mx and const1.mx, written by the fixture

# The argv shapes of the cli workload (perfbench/wl_cli.py), on the samples.
WORKLOAD = [
    ["card", "2 ^ beth(0)"],
    ["card", "quantum", "--m", "2", "--n", "3", "--transition-space"],
    ["universality", "--k", "2", "--m", "3", "--n", "2", "--expect", "yes"],
    ["iso", SWITCH, SWITCH, "--format", "certificate", "--expect", "yes"],
    ["iso", CONST0, SWITCH, "--expect", "no"],
    ["iso", CONST0, CONST1, "--expect", "yes"],
    ["complete", SWITCH, CONST0, "--format", "certificate", "--expect", "yes"],
    ["complete", SWITCH, CONST1, "--method", "search", "--expect", "yes"],
    ["submachine", SWITCH, SWITCH, "--format", "certificate", "--expect", "yes"],
    ["submachine", SWITCH, CONST0, "--expect", "no"],
    ["reduce", SWITCH, "--keep-states", "off"],
    ["compile-tm", INCREMENT, "--summary"],
    ["compile-tm", BITFLIP],
    ["compile-mem", TOGGLE, "--summary"],
    ["tm2mem", BITFLIP],
    ["lockstep", "--tm", BITFLIP, "--expect", "yes"],
    ["sim", BITFLIP, "--steps", "40"],
    ["sim", TOGGLE],
    ["sim", SWITCH, "--fn", "f0", "--from", "off"],
    ["verify", CERT, CONST0, CONST1, "--expect", "yes"],
    ["check-lemmas", "--seed", "7", "--iters", "150"],
]
# The other argv shapes of scripts/answers.py's corpus.
ANSWERS = [
    ["iso", CONST0, CONST1, "--node-budget", "1"],
    ["complete", SWITCH, SWITCH, "--method", "search", "--node-budget", "1"],
    ["complete", CONST0, SWITCH, "--method", "construct", "--format", "text"],
    ["verify", CERT, SWITCH, SWITCH, "--expect", "no"],
    ["reduce", SWITCH, "--keep-fns=hold,flip", "--keep-states=on"],
    ["sim", SWITCH, "--fn=hold", "--from=on", "--steps", "0"],
    ["lockstep", "--tm", INCREMENT, "--mem", TOGGLE],
    ["compile-mem", TOGGLE],
    ["card", "finite-turing", "--k", "2", "--m", "3", "--n", "2", "--transition-space", "--no-trace"],
    ["universality", "--no-trace", "--n", "3", "--expect", "no"],
    ["check-lemmas", "--max-states", "0"],
    ["bogus"],
    ["iso", SWITCH],
]
# Flags before positionals, and the bad command lines of tests/test_cli.py.
OTHERS = [
    ["compile-tm", "--summary", BITFLIP],
    ["card", "--transition-space", "quantum", "--no-trace", "--m", "2"],
    ["iso", "--expect", "yes", CONST0, CONST1],
    ["lockstep", "--mem", TOGGLE, "--expect", "no"],
    [], ["frob"], ["compile-tm"], ["lockstep", "--tm", BITFLIP, "--steps", "x"],
    ["compile-tm", BITFLIP, "--cap", "5"], ["card", "1", "a\nb\rc"],
]


def _all_flags() -> list[str]:
    (subs,) = [a for a in reference_parser()._actions if a.dest == "command"]
    return sorted({s for p in subs.choices.values() for a in p._actions for s in a.option_strings})


# Abbreviations and values that start with "-" are most of what argparse
# accepts after the reader defers, so they are drawn more often.
EDITS = ("drop", "drop-flag", "repeat", "swap", *["abbreviate"] * 4, "foreign", "join", "dashdash",
         *["dash-value"] * 3, "bad-int", "bad-choice", "help")
CHOICES = ("yes", "no", "text", "certificate", "auto", "construct", "search")


def mutated_argv(rng: random.Random, argv: list[str], flags: list[str]) -> list[str]:
    """``argv`` after zero to three edits: a token, or a flag with its value,
    dropped; a token repeated or swapped; a flag abbreviated or taken from any subcommand; a flag and
    its value joined by ``=``; ``--`` put in; a value replaced by one that
    starts with ``-``, by a bad int or by a bad choice; ``-h`` put in."""
    argv = list(argv)
    for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
        at = rng.randrange(len(argv) + 1)
        named = [i for i, tok in enumerate(argv) if tok.startswith("--")]
        values = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--") and "=" not in argv[i - 1]]
        edit = rng.choice(EDITS)
        if edit == "drop" and argv:
            del argv[rng.randrange(len(argv))]
        elif edit == "drop-flag" and named:
            i = rng.choice(named)
            del argv[i : i + 1 + (i + 1 in values)]
        elif edit == "repeat" and argv:
            argv.insert(at, rng.choice(argv))
        elif edit == "swap" and len(argv) > 1:
            i, j = rng.sample(range(len(argv)), 2)
            argv[i], argv[j] = argv[j], argv[i]
        elif edit == "abbreviate" and named:
            i = rng.choice(named)
            name, eq, value = argv[i].partition("=")
            argv[i] = name[: rng.randint(3, max(3, len(name) - 1))] + eq + value
        elif edit == "foreign":
            argv[at:at] = [rng.choice(flags), *rng.sample(["1", "x", "yes", "text"], rng.randint(0, 1))]
        elif edit == "join" and values:
            i = rng.choice(values)
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
        elif edit == "dashdash":
            argv.insert(at, "--")
        elif edit == "dash-value" and values:
            argv[rng.choice(values)] = rng.choice(("-3", "-3", "-x", ""))
        elif edit == "bad-int" and (ints := [i for i in values if argv[i].isdigit()]):
            argv[rng.choice(ints)] = rng.choice(("x", "٣", "7" * 5000))
        elif edit == "bad-choice" and (chosen := [i for i, tok in enumerate(argv) if tok in CHOICES]):
            argv[rng.choice(chosen)] = "maybe"
        elif edit == "help":
            argv.insert(at, rng.choice(("-h", "--help")))
    return argv


@pytest.fixture
def cert(tmp_path):
    path = tmp_path / "iso.cert"
    path.write_text("certificate iso\ng 1 0\nh 0\n")
    return str(path)


@pytest.fixture
def quick_lemmas(monkeypatch):
    """The lemma suite at three iterations at most, so that a mutant that
    drops ``--iters`` does not run the default thousand on both sides."""
    real = machalg.lemmas.run_lemma_suite
    monkeypatch.setattr(machalg.lemmas, "run_lemma_suite",
                        lambda seed, iters, **kw: real(seed, min(iters, 3), **kw))


def _answers(capsys, argvs) -> list[tuple]:
    """(exit code, stdout, stderr) of ``main`` on each argv; help's exit is
    ("exit", code)."""
    out = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as e:
            code = ("exit", e.code)
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_the_reader_and_the_table_answer_as_the_reference(capsys, monkeypatch, cert, quick_lemmas):
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(40)
    flags = _all_flags()
    bases = [[tok.format(cert=cert) for tok in argv] for argv in WORKLOAD + ANSWERS + OTHERS]
    argvs = [mutated_argv(rng, rng.choice(bases), flags) for _ in range(4000)]
    seen = {"reader": 0, "argparse": 0, "refused": 0}
    for argv in argvs:
        read = cli._read_argv(argv)
        try:
            want = vars(reference_parser().parse_args(argv))
        except (MachalgError, SystemExit):
            want = None
        capsys.readouterr()
        if read is not None:
            assert vars(read) == want, argv
        seen["reader" if read is not None else "argparse" if want is not None else "refused"] += 1
    assert min(seen.values()) >= 300, seen

    ours = _answers(capsys, argvs)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    monkeypatch.setattr(cli, "build_parser", reference_parser)
    theirs = _answers(capsys, argvs)
    for argv, mine, reference in zip(argvs, ours, theirs):
        assert mine == reference, argv


@pytest.mark.parametrize("sub", [None, *cli._COMMANDS])
def test_help_is_the_references(capsys, monkeypatch, sub):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [sub, "--help"] if sub else ["--help"]
    with pytest.raises(SystemExit) as ours:
        main(argv)
    mine = capsys.readouterr()
    with pytest.raises(SystemExit) as theirs:
        reference_parser().parse_args(argv)
    assert (ours.value.code, mine.out, mine.err) == (theirs.value.code, capsys.readouterr().out, "")
    assert mine.out.startswith(f"usage: machalg {sub or ''}".rstrip())


def test_help_of_the_entry_point_is_the_references(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-m", "machalg", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    with pytest.raises(SystemExit):
        reference_parser().parse_args(["--help"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


def test_the_reader_is_cheap(cert):
    """At most 0.1 ms per argv of the cli workload, against about 5 ms for
    the first parse by argparse."""
    argvs = [[tok.format(cert=cert) for tok in argv] for argv in WORKLOAD]
    assert all(cli._read_argv(argv) is not None for argv in argvs)
    best = min(timeit.repeat(lambda: [cli._read_argv(argv) for argv in argvs], number=20, repeat=5))
    assert best / (20 * len(argvs)) < 1e-4
