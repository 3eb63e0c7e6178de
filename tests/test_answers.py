"""The answer-equivalence corpora of ``scripts/answers.py``: a planted change
is reported at exactly the calls, compiles or questions that show it."""

import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import answers  # noqa: E402


def test_a_planted_answer_word_is_reported_where_it_shows(tmp_path):
    planted = tmp_path / "src"
    shutil.copytree(ROOT / "src", planted, ignore=shutil.ignore_patterns("__pycache__"))
    cli = planted / "machalg" / "cli.py"
    text = cli.read_text()
    assert text.count('"not isomorphic"') == 1
    cli.write_text(text.replace('"not isomorphic"', '"non-isomorphic"'))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    calls = answers.write_corpus(corpus)
    ours = answers.run_corpus(calls, answers.SRC, corpus)
    theirs = answers.run_corpus(calls, planted, corpus)
    shows = [i for i, (out, _, _) in enumerate(ours) if "not isomorphic" in out]
    assert len(shows) > 10
    # and the calls that read what one of those printed
    readers, source = [], None
    for i, argv in enumerate(calls):
        if str(corpus / answers.PRINTED) not in argv:
            source = i
        elif source in shows:
            readers.append(i)
    assert readers and all(calls[i][0] == "verify" for i in readers)
    assert answers.differing(ours, theirs) == sorted(shows + readers)
    # the same tree twice: every answer equal, and the package this process
    # imported is the one in use again
    assert answers.run_corpus(calls, answers.SRC, corpus) == ours
    import machalg.cli

    assert Path(machalg.cli.__file__).resolve().parent.parent == answers.SRC


def test_a_planted_wrong_entry_is_reported_by_the_compile_corpus(tmp_path):
    planted = tmp_path / "src"
    shutil.copytree(ROOT / "src", planted, ignore=shutil.ignore_patterns("__pycache__"))
    models = planted / "machalg" / "models.py"
    text = models.read_text()
    writer_end = "        return table\n\n\ndef compile_tm("
    assert text.count(writer_end) == 1
    # compile_tm's whole table gets a wrong last entry; the entries it decodes one by one stay right
    models.write_text(text.replace(writer_end, "        table[-1] = 0\n" + writer_end))
    compiles = answers.compile_corpus()
    ours, _ = answers.run_compiles(compiles, answers.SRC)
    theirs, _ = answers.run_compiles(compiles, planted)
    diff = answers.differing(ours, theirs)
    assert len(diff) > 50 and {compiles[i][0] for i in diff} == {"compile_tm"}
    for i in diff:  # the rendered text differs; the state count and the walk do not
        assert ours[i][0] != theirs[i][0] and ours[i][1:] == theirs[i][1:]
    assert answers.run_compiles(compiles, answers.SRC)[0] == ours



def planted_copy(tmp_path, module, old, new):
    """A copy of ``src`` under ``tmp_path`` with the one ``old`` in ``module`` replaced by ``new``."""
    planted = tmp_path / "src"
    shutil.copytree(ROOT / "src", planted, ignore=shutil.ignore_patterns("__pycache__"))
    path = planted / "machalg" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return planted


@pytest.mark.parametrize("first_line, jobs", [
    ("        m, n = self.m, self.n\n", {"compile_tm"}),
    ("        p, n_fns = self.p, len(self.p.functions)\n", {"compile_mem", "compile_mem(tm_to_mem)"}),
], ids=["_TmTable", "_MemTable"])
def test_a_planted_wrong_decode_entry_is_reported_by_the_compile_corpus(tmp_path, first_line, jobs):
    # Every seventh entry the table computes on its own maps its state to itself; the whole
    # table, which the rendered text reads, stays right.
    signature = "    def _decode(self, i: int) -> int:\n"
    planted = planted_copy(tmp_path, "models.py", signature + first_line,
                           signature + "        if i % 7 == 3:\n            return i\n" + first_line)
    compiles = answers.compile_corpus()
    ours, _ = answers.run_compiles(compiles, answers.SRC)
    theirs, _ = answers.run_compiles(compiles, planted)
    diff = answers.differing(ours, theirs)
    assert len(diff) > 10 and {compiles[i][0] for i in diff} == jobs
    assert all(ours[i][3] != theirs[i][3] for i in diff)  # a walk differs, or one of them fails
    # some only from a seeded state: the walk from the initial state agrees
    assert any(ours[i][3] and theirs[i][3] and ours[i][3][0] == theirs[i][3][0] for i in diff)


def isomorphisms(tables_a, tables_b):
    """Every g, in lexicographic order, that maps the set of ``tables_a`` onto that of ``tables_b``."""
    return [g for g in itertools.permutations(range(len(tables_a[0])))
            if {answers.conjugated_table(t, g) for t in tables_a} == set(tables_b)]


def test_a_reversed_relabelling_order_is_reported_by_the_iso_corpus(tmp_path):
    planted = planted_copy(tmp_path, "isomorphism.py", "itertools.permutations(range(n))",
                           "reversed(list(itertools.permutations(range(n))))")
    questions = answers.iso_corpus()
    ours = answers.run_isos(questions, answers.SRC)
    theirs = answers.run_isos(questions, planted)
    diff = answers.differing(ours, theirs)
    # The planted copy answers with the last g instead of the first, where a pair on at most 4
    # states has two or more, at a budget no search can exhaust; nowhere else.
    expected, found = [], {}
    for i, (_, a, b, budget) in enumerate(questions):
        n = len(a[0])
        if a[0] == "tape" or n > 4 or budget is not None and budget < answers.TINY_BOUND[n]:
            continue
        if (a, b) not in found:
            found[a, b] = isomorphisms(a, b)
        if len(found[a, b]) > 1:
            expected.append(i)
            assert ours[i][0] == found[a, b][0] and theirs[i][0] == found[a, b][-1]
    assert len(expected) > 1000
    assert [i for i in diff if questions[i][1][0] != "tape"] == expected
    for i in [i for i in diff if questions[i][1][0] == "tape"]:  # a compile on at most 4 states, likewise
        assert questions[i][3] is None and len(ours[i][0]) <= 4 and ours[i][0] < theirs[i][0]


def test_digests_do_not_depend_on_the_hash_seed():
    lines = []
    for seed in "012":
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "answers.py")], capture_output=True,
                              text=True, env={**os.environ, "PYTHONHASHSEED": seed}, timeout=600)
        assert proc.returncode == 0, proc.stderr
        lines.append(proc.stdout.splitlines())
    assert [line.split(":")[0] for line in lines[0]] == ["cli", "compile", "iso"]
    assert lines[0] == lines[1] == lines[2]
