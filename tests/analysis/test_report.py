"""Tests for markdown report generation."""

from repro.analysis.report import build_report, result_to_markdown
from repro.experiments.base import ExperimentResult


def sample_result():
    result = ExperimentResult(
        experiment="figX",
        description="A demonstration table",
        headers=["benchmark", "value", "ok"],
    )
    result.add_row("alpha", 1.23456, True)
    result.add_row("beta", 2.0, False)
    result.add_note("paper: something")
    return result


class TestResultToMarkdown:
    def test_section_structure(self):
        text = result_to_markdown(sample_result())
        lines = text.splitlines()
        assert lines[0] == "## figX"
        assert "A demonstration table" in text
        assert "| benchmark | value | ok |" in text
        assert "| alpha | 1.235 | yes |" in text
        assert "| beta | 2.000 | no |" in text
        assert "> paper: something" in text

    def test_float_digits(self):
        text = result_to_markdown(sample_result())
        assert "1.235" in text
        assert "1.2345" not in text

    def test_divider_width(self):
        text = result_to_markdown(sample_result())
        divider = [
            line for line in text.splitlines()
            if line and set(line) <= set("|- ")
        ][0]
        assert divider.count("---") == 3


class TestBuildReport:
    def test_full_report(self):
        text = build_report(
            [sample_result(), sample_result()],
            title="My report",
            preamble=["Scale: test"],
        )
        assert text.startswith("# My report")
        assert "Scale: test" in text
        assert text.count("## figX") == 2
        assert text.endswith("\n")

    def test_empty_report(self):
        text = build_report([], title="Empty")
        assert text.startswith("# Empty")
