"""The mutant list of ``mutants.py`` stays current, and no mutant survives.

The first test is tier-1.  The runner is marked ``slow``, so tier-1 deselects
it; run it with

    PYTHONPATH=src python -m pytest -q -m slow tests/test_mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def _defines(node: str) -> bool:
    """Whether the file of the pytest node id ``node`` defines its test."""
    path, _, name = node.partition("::")
    file = ROOT / path
    return file.is_file() and re.search(rf"^def {re.escape(name)}\(", file.read_text(),
                                        re.M) is not None


def test_every_mutant_applies_once_and_names_existing_tests():
    assert len({m.what for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.path.startswith("src/ssbm/") and m.old != m.new, m.what
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.what
        assert m.tests and all(_defines(node) for node in m.tests), m.what
        assert not any("test_fixed_seed_digests" in node for node in m.tests), m.what


def _pytest(tree: Path, nodes) -> int:
    """The exit code of pytest on ``nodes`` in the copy ``tree``, which its
    ``src`` alone supplies ``ssbm`` to, stopping at the first failure (a
    run past ten minutes raises, and fails the runner)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *nodes], cwd=tree, env=env, capture_output=True,
                          timeout=600).returncode


@pytest.mark.slow
def test_every_mutant_is_killed_by_its_named_tests(tmp_path):
    tree = tmp_path / "tree"
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", tree)
    # unmutated, every named test passes, so each failure below is its mutant's
    assert _pytest(tree, sorted({node for m in MUTANTS for node in m.tests})) == 0
    survivors = []
    for m in MUTANTS:
        source = tree / m.path
        text = source.read_text()
        source.write_text(text.replace(m.old, m.new))
        try:
            code = _pytest(tree, m.tests)
        finally:
            source.write_text(text)
        if code != 1:  # 1: a test failed; 0: all passed; any other: they did not run
            survivors.append((m.what, code))
    assert not survivors, survivors
