"""Unit tests for crash-isolated cell execution (failures, timeouts)."""

import time

import pytest

from repro.experiments.runner import (
    CellTimeout,
    run_cell,
    timeout_supported,
)


class TestRunCell:
    def test_success_first_try(self):
        outcome = run_cell(lambda: 41 + 1, name="ok")
        assert not outcome.failed
        assert outcome.value == 42

    def test_failure_is_captured_not_raised(self):
        def boom():
            raise ValueError("broken cell")

        outcome = run_cell(boom, name="bad")
        assert outcome.failed
        assert isinstance(outcome.error, ValueError)

    def test_keyboard_interrupt_propagates(self):
        def interrupt():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_cell(interrupt, name="ctrl-c")

    def test_system_exit_propagates(self):
        def leave():
            raise SystemExit(3)

        with pytest.raises(SystemExit):
            run_cell(leave, name="exit")

    @pytest.mark.skipif(
        not timeout_supported(), reason="needs SIGALRM on the main thread"
    )
    def test_timeout_fires(self):
        def hang():
            time.sleep(5.0)

        outcome = run_cell(hang, name="hang", timeout=0.05)
        assert outcome.failed
        assert isinstance(outcome.error, CellTimeout)
        assert "hang" in str(outcome.error)

    @pytest.mark.skipif(
        not timeout_supported(), reason="needs SIGALRM on the main thread"
    )
    def test_timeout_cleared_after_success(self):
        outcome = run_cell(lambda: "fast", name="fast", timeout=5.0)
        assert outcome.value == "fast"
        # The alarm must not fire later and kill an innocent bystander.
        time.sleep(0.01)
