"""The narrative scripts in ``demos/`` and the README's library example run
to completion, on names the package exports."""

from __future__ import annotations

import ast
import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

import knotslope

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def library_snippet() -> str:
    """The fenced ``python`` block under the README's "## Library"."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()


def test_readme_library_snippet_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_snippet(), "README.md", "exec"), {})
    assert out.getvalue()


def test_public_names_resolve_once():
    names = knotslope.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(knotslope, name), name


@pytest.mark.parametrize("path", [*DEMOS, ROOT / "README.md"],
                         ids=[*(p.stem for p in DEMOS), "README"])
def test_documented_imports_are_public(path):
    source = (library_snippet() if path.suffix == ".md"
              else path.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "knotslope"
                for alias in node.names}
    assert imported
    assert imported <= set(knotslope.__all__)
