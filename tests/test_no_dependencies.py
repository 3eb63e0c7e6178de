"""machalg needs nothing beyond the standard library at run time."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs with -I -S: no site module, no user site, no PYTHON* variables, so
# site-packages is off sys.path unless something puts it back.
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import machalg, machalg.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [machalg.cli.main(["universality", "--no-trace"]),
             machalg.cli.main(["check-lemmas", "--seed", "1", "--iters", "20"])]
files = {name: getattr(mod, "__file__", None) or "" for name, mod in list(sys.modules.items())}
print(json.dumps({"codes": codes, "out": out.getvalue(), "files": files, "path": sys.path}))
"""


def test_library_and_cli_load_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0]
    assert "lemma 1" in report["out"] and "UMM-complete" in report["out"]
    assert not [p for p in report["path"] if "-packages" in p]
    foreign = {
        name: f for name, f in report["files"].items()
        if "-packages" in f or (name.split(".")[0] == "machalg" and not f.startswith(str(SRC)))
    }
    assert not foreign, f"loaded from outside the standard library and src/: {foreign}"
    assert "machalg.cli" in report["files"]
