"""Fresh copies of this repository's files, for the scripts that compare two trees.

:func:`export` unpacks a revision with ``git archive``; :func:`copy_working_tree`
copies the working tree, tracked files and new ones alike, without what git
ignores (bytecode, ``.bench_out/``).  Both read the local repository only.
"""

import io
import shutil
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path, *paths: str) -> Path:
    """``dest``, holding ``paths`` of ``rev`` (all of it if none is named) as ``git archive``
    writes them.  An unknown revision raises ``subprocess.CalledProcessError``."""
    tar = subprocess.run(["git", "archive", rev, *paths], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def copy_working_tree(dest: Path) -> Path:
    """``dest``, holding every file of the working tree that git does not ignore."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted from the tree is not copied
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest
