"""Smoke tests: every example script runs and says what it promises."""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"


def run_example(name, timeout=300):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_examples_directory_complete(self):
        names = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
        assert names == [
            "custom_policy.py",
            "design_space.py",
            "media_server.py",
            "page_cache.py",
            "phase_visualizer.py",
            "quickstart.py",
        ]

    @pytest.mark.parametrize(
        "document",
        sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))
        + ["README.md"],
    )
    def test_every_repro_import_resolves(self, document):
        """Each ``from repro... import name`` of an example, or of
        README's python blocks, names a module, or an attribute of one,
        that exists: a stale import path fails here in seconds, without
        running the examples."""
        if document == "README.md":
            readme = (REPO_ROOT / document).read_text()
            sources = re.findall(r"```python\n(.*?)```", readme, re.S)
        else:
            sources = [(EXAMPLES_DIR / document).read_text()]
        unresolved, found = [], 0
        for source in sources:
            for node in ast.walk(ast.parse(source)):
                if not (isinstance(node, ast.ImportFrom)
                        and (node.module or "").partition(".")[0]
                        == "repro"):
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    found += 1
                    name = f"{node.module}.{alias.name}"
                    if hasattr(module, alias.name):
                        continue
                    try:
                        importlib.import_module(name)
                    except ImportError:
                        unresolved.append(name)
        assert found > 0
        assert unresolved == []

    @pytest.mark.slow
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "LRU-friendly" in out
        assert "LFU-friendly" in out
        assert "-> best: LRU" in out
        assert "-> best: LFU" in out

    @pytest.mark.slow
    def test_media_server(self):
        out = run_example("media_server.py")
        assert "Adaptive" in out
        assert "CPI" in out

    @pytest.mark.slow
    def test_design_space(self):
        out = run_example("design_space.py")
        assert "Which policies to adapt over?" in out
        assert "SBAR" in out

    @pytest.mark.slow
    def test_custom_policy(self):
        out = run_example("custom_policy.py")
        assert "slru" in out
        assert "the duel settled on" in out

    @pytest.mark.slow
    def test_page_cache(self):
        out = run_example("page_cache.py")
        assert "page faults" in out
        assert "Adaptive" in out

    @pytest.mark.slow
    def test_phase_visualizer(self):
        out = run_example("phase_visualizer.py")
        assert "LFU share" in out
        assert "#" in out or "." in out
