"""Processor-model tests and their shared helpers."""

from array import array


def l2_columns(events):
    """``CompiledWorkload`` keyword arguments holding ``(gap, kind,
    address)`` L2 events as the three typed L2 columns."""
    gaps, kinds, addresses = zip(*events) if events else ((), (), ())
    return {
        "l2_gaps": array("i", gaps),
        "l2_kinds": array("b", kinds),
        "l2_addresses": array("q", addresses),
    }


def l2_events(compiled):
    """A compiled workload's L2 columns as ``(gap, kind, address)`` tuples."""
    return list(zip(compiled.l2_gaps, compiled.l2_kinds, compiled.l2_addresses))
