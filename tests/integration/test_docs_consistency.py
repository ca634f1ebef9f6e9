"""Docs-vs-code consistency checks for the docs/ directory."""

import pathlib
import re

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
DOCS = REPO_ROOT / "docs"


class TestDocsExist:
    def test_expected_guides_present(self):
        names = sorted(p.name for p in DOCS.glob("*.md"))
        assert names == [
            "api.md",
            "cluster.md",
            "extending-policies.md",
            "online.md",
            "performance.md",
            "reproducing.md",
            "robustness.md",
            "serving.md",
            "testing.md",
            "theory.md",
            "tiers.md",
            "timing-model.md",
            "workloads.md",
        ]


def resolve_dotted(identifier):
    """Resolve ``repro.a.b.c`` part by part: each part must be an
    attribute of the object before it, or a submodule of it."""
    import importlib

    parts = identifier.split(".")
    obj = importlib.import_module(parts[0])
    for index, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:index + 1]))
        obj = getattr(obj, part)
    return obj


class TestDocsReferenceRealCode:
    def _python_identifiers(self, text):
        """Dotted ``repro.*`` names quoted in backticks, bare or in call
        form (`` `repro.x.f()` ``, `` `repro.x.f(arg)` ``)."""
        return set(re.findall(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`", text))

    def test_modules_named_in_docs_importable(self):
        for doc in DOCS.glob("*.md"):
            for identifier in self._python_identifiers(doc.read_text()):
                try:
                    resolve_dotted(identifier)
                except (ImportError, AttributeError) as exc:
                    raise AssertionError(
                        f"{doc.name} references {identifier}, which does "
                        f"not resolve: {exc}"
                    ) from exc

    def test_cli_flags_in_docs_exist(self):
        """Every ``--flag`` quoted on a ``repro-experiments`` line of the
        user docs is an option of the CLI parser."""
        from repro.experiments.cli import build_parser

        options = set(build_parser()._option_string_actions)
        paths = [REPO_ROOT / "README.md", REPO_ROOT / "EXPERIMENTS.md",
                 *sorted(DOCS.glob("*.md"))]
        found = 0
        for path in paths:
            for line in path.read_text().splitlines():
                if "repro-experiments" not in line:
                    continue
                for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line):
                    found += 1
                    assert flag in options, (
                        f"{path.name} quotes repro-experiments {flag}, "
                        "which build_parser() does not define"
                    )
        assert found > 0

    def test_api_doc_names_exist(self):
        """Every CamelCase symbol the API doc shows must exist in some
        ``repro`` module (docs name the defining module, and most
        package ``__init__`` files re-export nothing)."""
        import importlib
        import pkgutil

        text = (DOCS / "api.md").read_text()
        symbols = set(re.findall(r"`([A-Z][A-Za-z]+)\(", text))
        symbols |= set(re.findall(r"`([A-Z][A-Za-z]+)`", text))
        modules = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        ]
        for symbol in symbols:
            assert any(hasattr(module, symbol) for module in modules), symbol

    def test_quoted_test_and_bench_paths_exist(self):
        """Every ``tests/...py`` or ``benchmarks/...py`` path quoted in
        the user docs names a file in the repo."""
        paths = [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md",
                 REPO_ROOT / "EXPERIMENTS.md", *sorted(DOCS.glob("*.md"))]
        pattern = re.compile(r"(?<![\w/.-])(?:tests|benchmarks)/[\w/.-]*?\.py\b")
        found = 0
        for doc in paths:
            for path in pattern.findall(doc.read_text()):
                found += 1
                assert (REPO_ROOT / path).exists(), (
                    f"{doc.name} quotes {path}, which does not exist"
                )
        assert found > 0

    def test_workloads_doc_names_real_primitives(self):
        import repro.workloads.synth as synth

        text = (DOCS / "workloads.md").read_text()
        for name in re.findall(r"`([a-z_]+)`\s*\|", text):
            if hasattr(synth, name):
                continue
            import repro.workloads.phases as phases

            assert hasattr(phases, name) or name in ("primitive",), name


class TestServeRegimeCount:
    NUMBER_WORDS = ("zero", "one", "two", "three", "four", "five", "six",
                    "seven", "eight", "nine", "ten")

    def test_docs_state_the_harness_regime_count(self):
        """Every "N regimes" / "N-regime" phrase about the serve harness
        matches the number of plans the harness actually runs."""
        from repro.serve.stack import default_plans

        expected = self.NUMBER_WORDS[len(default_plans())]
        phrase = re.compile(
            r"\b(%s)[- ]regimes?\b" % "|".join(self.NUMBER_WORDS),
            re.IGNORECASE,
        )
        paths = [DOCS / "serving.md", DOCS / "performance.md",
                 REPO_ROOT / "EXPERIMENTS.md", REPO_ROOT / "README.md"]
        found = 0
        for path in paths:
            for match in phrase.finditer(path.read_text()):
                found += 1
                assert match.group(1).lower() == expected, (
                    f"{path.name}: {match.group(0)!r}, but the harness "
                    f"runs {expected} regimes"
                )
        assert found > 0


class TestBenchmarkWorkloadCount:
    NUMBER_WORDS = TestServeRegimeCount.NUMBER_WORDS

    def test_docs_state_the_benchmark_workload_count(self):
        """Every "N end-to-end workloads" / "all N workloads" phrase
        matches the number of workloads BENCHMARK.json declares."""
        import json

        declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        count = len(declared["workloads"])
        accepted = {str(count), self.NUMBER_WORDS[count]}
        number = r"(\d+|%s)" % "|".join(self.NUMBER_WORDS)
        phrase = re.compile(
            r"\b(?:%s end-to-end|all %s) workloads\b" % (number, number),
            re.IGNORECASE,
        )
        paths = [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md",
                 REPO_ROOT / "EXPERIMENTS.md", *sorted(DOCS.glob("*.md"))]
        found = 0
        for path in paths:
            for match in phrase.finditer(path.read_text()):
                found += 1
                stated = (match.group(1) or match.group(2)).lower()
                assert stated in accepted, (
                    f"{path.name}: {match.group(0)!r}, but BENCHMARK.json "
                    f"declares {count} workloads"
                )
        assert found > 0


class TestCellRunnerCoverage:
    def test_docs_list_the_experiments_on_the_cell_runner(self):
        """Every "covers fig3, ..., and ext-dip" list in the docs names
        exactly the experiments that declare ``cells`` for the sweep
        pass."""
        from repro.experiments.cli import EXPERIMENTS

        on_runner = {
            name for name, module in EXPERIMENTS.items()
            if hasattr(module, "cells")
        }
        phrase = re.compile(r"covers ((?:[\w-]+, )+[\w-]+ and [\w-]+)")
        found = 0
        for name in ("performance.md", "reproducing.md", "robustness.md"):
            text = " ".join((DOCS / name).read_text().split())
            for match in phrase.finditer(text):
                found += 1
                listed = set(re.split(r", | and ", match.group(1)))
                assert listed == on_runner, (name, sorted(listed ^ on_runner))
        assert found == 3


class TestBenchReports:
    def test_committed_reports_are_the_ones_the_cli_writes(self):
        """Every committed ``BENCH_*.json`` has a command that
        regenerates it: ``perf`` or ``serve`` at their default paths."""
        from repro.experiments.cli import build_parser

        parser = build_parser()
        written = {parser.get_default("perf_out"),
                   parser.get_default("serve_out")}
        ignored = set((REPO_ROOT / ".gitignore").read_text().split())
        committed = {
            path.name for path in REPO_ROOT.glob("BENCH_*.json")
        } - ignored
        assert committed == written

    def test_reports_named_in_docs_exist(self):
        paths = [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md",
                 REPO_ROOT / "EXPERIMENTS.md", *sorted(DOCS.glob("*.md"))]
        found = 0
        for doc in paths:
            for name in re.findall(r"\bBENCH_\w+\.json\b", doc.read_text()):
                found += 1
                assert (REPO_ROOT / name).exists(), (
                    f"{doc.name} names {name}, which is not committed"
                )
        assert found > 0
