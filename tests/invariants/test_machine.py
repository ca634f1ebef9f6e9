"""The invariant state machine, run over every serving composition
under its fixed quick profile."""

import pytest

from tests.invariants.machine import MACHINE_LAYERS, run


@pytest.mark.parametrize("name", sorted(MACHINE_LAYERS))
def test_invariants_hold(name):
    run(name)
