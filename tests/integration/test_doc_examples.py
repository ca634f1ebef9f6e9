"""The docs' python examples run.

Each page's ``python`` blocks (docs/*.md and README.md) run in order in
one namespace per page, so a later block may use what an earlier one
defined, and a signature a listing quotes must still accept the
arguments it shows. Listings that are not python (a signature with
placeholders that do not parse, a shell line) are fenced ``text``.
"""

import pathlib
import re

import pytest

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
PAGES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]
BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def python_blocks(page):
    """``(first line, source)`` of each python block on ``page``."""
    text = page.read_text()
    return [(text[:match.start()].count("\n") + 2, match.group(1))
            for match in BLOCK.finditer(text)]


PAGES_WITH_EXAMPLES = [page for page in PAGES if python_blocks(page)]


def test_every_page_with_examples_is_run():
    names = [page.name for page in PAGES_WITH_EXAMPLES]
    assert "README.md" in names and "api.md" in names


@pytest.mark.parametrize("page", PAGES_WITH_EXAMPLES,
                         ids=[page.name for page in PAGES_WITH_EXAMPLES])
def test_page_examples_run(page, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # examples may write state directories
    namespace = {"__name__": f"docs.{page.stem}"}
    for line, source in python_blocks(page):
        code = compile(source, f"{page.name}:{line}", "exec")
        exec(code, namespace)
