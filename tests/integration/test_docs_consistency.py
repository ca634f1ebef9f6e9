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
        """Every CamelCase symbol the API doc shows must exist in repro
        or a subpackage."""
        import repro.analysis
        import repro.cache
        import repro.cluster
        import repro.core
        import repro.cpu
        import repro.experiments
        import repro.experiments.checkpoint
        import repro.experiments.runner
        import repro.faults
        import repro.online
        import repro.oracle
        import repro.perf
        import repro.policies
        import repro.prefetch
        import repro.tiers
        import repro.workloads

        text = (DOCS / "api.md").read_text()
        symbols = set(re.findall(r"`([A-Z][A-Za-z]+)\(", text))
        symbols |= set(re.findall(r"`([A-Z][A-Za-z]+)`", text))
        namespaces = [
            repro, repro.cache, repro.core, repro.cpu, repro.policies,
            repro.workloads, repro.analysis, repro.prefetch,
            repro.experiments, repro.experiments.runner,
            repro.experiments.checkpoint, repro.faults, repro.online,
            repro.oracle, repro.perf, repro.cluster, repro.tiers,
        ]
        for symbol in symbols:
            assert any(hasattr(ns, symbol) for ns in namespaces), symbol

    def test_theory_doc_points_at_real_tests(self):
        text = (DOCS / "theory.md").read_text()
        for path in re.findall(r"tests/[a-z_/]+\.py", text):
            assert (REPO_ROOT / path).exists(), path

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
