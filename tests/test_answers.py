"""The answer-equivalence corpus of ``scripts/answers.py``: a planted change
to one answer word is reported at exactly the calls that print it."""

import shutil
import sys
from pathlib import Path

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
    ours = answers.run_compiles(compiles, answers.SRC)
    theirs = answers.run_compiles(compiles, planted)
    diff = answers.differing(ours, theirs)
    assert len(diff) > 50 and {compiles[i][0] for i in diff} == {"compile_tm"}
    for i in diff:  # the rendered text differs; the state count and the walk do not
        assert ours[i][0] != theirs[i][0] and ours[i][1:] == theirs[i][1:]
    assert answers.run_compiles(compiles, answers.SRC) == ours
